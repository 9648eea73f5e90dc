import itertools

import pytest

from sphsys import ops, search
from sphsys.families import expand_catalog, instantiate
from sphsys.dynkin import parse_diagram
from sphsys.system import SphericalSystem
from test_acceptance import SWEEP_DIAGRAMS
from test_search import PRUNED_PRODUCTS
from test_system import ORACLE_DIAGRAMS


def make(spec, sp, sigma):
    return SphericalSystem(parse_diagram(spec), sp, sigma)


class TestLocalize:
    def test_induced_diagram_relabels(self):
        d = parse_diagram("C4")
        sub, node_map = ops.induced_diagram(d, {1, 2, 3})
        assert sub.components == (("C", 3),)
        assert node_map == {1: 0, 2: 1, 3: 2}

    def test_induced_b2_from_tail(self):
        d = parse_diagram("B4")
        sub, node_map = ops.induced_diagram(d, {2, 3})
        assert sub.components == (("B", 2),)
        assert node_map == {2: 0, 3: 1}

    def test_induced_e7_in_e8(self):
        sub, node_map = ops.induced_diagram(parse_diagram("E8"), range(7))
        assert sub == parse_diagram("E7")
        assert node_map == {i: i for i in range(7)}

    @pytest.mark.parametrize("spec", ["E6", "E7", "E8"])
    def test_decuspidalize_fixes_cuspidal_e_members(self, spec):
        cuspidal = [e.system for e in expand_catalog(spec)
                    if e.system.is_cuspidal]
        assert cuspidal
        for sys in cuspidal:
            assert ops.decuspidalize(sys) == sys

    def test_localize_drops_outside_roots(self):
        sys = make("B3", {1, 2}, [(1, 1, 1)])
        loc = ops.localize(sys, {1, 2})
        assert loc.diagram.components == (("B", 2),)
        assert loc.sigma == ()
        assert loc.sp == {0, 1}

    def test_localize_keeps_inside_roots(self):
        sys = make("A3", set(), [(1, 1, 0), (0, 1, 1)])
        loc = ops.localize(sys, {0, 1})
        assert loc.diagram.components == (("A", 2),)
        assert loc.sigma == ((1, 1),)

    def test_decuspidalize(self):
        sys = make("B3", set(), [(2, 0, 0)])
        core = ops.decuspidalize(sys)
        assert core.diagram.components == (("A", 1),)
        assert core.sigma == ((2,),)
        assert core.is_cuspidal

    def test_decuspidalize_fixes_cuspidal(self):
        sys = make("B2", {1}, [(1, 1)])
        core = ops.decuspidalize(sys)
        assert core == sys


class TestDistinguished:
    def test_empty_set(self):
        sys = make("B2", {1}, [(1, 1)])
        assert ops.distinguished_witness(sys, ()) == ()

    def test_mixed_pair_system(self):
        sys = make("A3", set(), [(1, 0, 1), (0, 2, 0)])
        # colour 0 is the merged pair, colour 1 the doubled node; each alone
        # has a negative pairing but together they balance out
        assert not ops.is_distinguished(sys, {0})
        assert not ops.is_distinguished(sys, {1})
        w = ops.distinguished_witness(sys, {0, 1})
        assert w is not None
        a, b = w
        assert 2 * a - b >= 0 and -2 * a + 2 * b >= 0

    def test_chain_of_three(self):
        sys = make("A3", set(), [(1, 1, 0), (0, 1, 1)])
        assert not ops.is_distinguished(sys, {0})
        assert not ops.is_distinguished(sys, {2})
        assert ops.is_distinguished(sys, {1})
        assert ops.is_distinguished(sys, {0, 2})
        assert ops.is_distinguished(sys, {0, 1, 2})

    @pytest.mark.parametrize("spec", SWEEP_DIAGRAMS)
    def test_shortcut_agrees_with_witness(self, spec):
        # is_distinguished decides by two sign tests and a lookup among the
        # system's cached ray supports; distinguished_witness, the referee,
        # builds a certificate from the rays of the subset's own cone
        for entry in expand_catalog(spec):
            sys = entry.system
            n = len(sys.colours)
            for r in range(1, n + 1):
                for subset in itertools.combinations(range(n), r):
                    assert ops.is_distinguished(sys, subset) == (
                        ops.distinguished_witness(sys, subset) is not None), (
                        entry.label, subset)

    def test_no_elimination(self, monkeypatch):
        # is_distinguished reads the cached rays and never asks
        # feasible_nonneg for a certificate
        def certify(*args, **kwargs):
            raise AssertionError("is_distinguished called feasible_nonneg")
        monkeypatch.setattr(ops, "feasible_nonneg", certify)
        for spec in ("B6", "E6", "B3,B3"):
            for entry in expand_catalog(spec):
                n = len(entry.system.colours)
                for r in range(1, n + 1):
                    for subset in itertools.combinations(range(n), r):
                        ops.is_distinguished(entry.system, subset)

    def test_repeated_colours_count_once(self):
        # {0, 1} is distinguished on ac*(3) and {0} is not; a repeated
        # index must not change the subset
        sys = instantiate("ac*(n)", n=3)
        assert ops.is_distinguished(sys, [0, 1])
        assert ops.is_distinguished(sys, [0, 1, 0])
        assert ops.distinguished_witness(sys, [0, 1, 0]) == (
            ops.distinguished_witness(sys, [0, 1]))
        assert ops.quotient(sys, [0, 1, 0]) == ops.quotient(sys, [0, 1])

    @pytest.mark.parametrize("spec", ("A3", "B3", "C3", "F4"))
    def test_repeated_colours_keep_every_answer(self, spec):
        for entry in expand_catalog(spec):
            n = len(entry.system.colours)
            for r in range(1, min(n, 3) + 1):
                for subset in itertools.combinations(range(n), r):
                    assert ops.is_distinguished(
                        entry.system, subset + subset[:1]) == (
                        ops.is_distinguished(entry.system, subset)), (
                        entry.label, subset)

    def test_colour_out_of_range(self):
        # -1 must not read the last row, which pairs nonnegatively here
        sys = make("B2", {1}, [(1, 1)])
        assert ops.is_distinguished(sys, {0})
        for c in (-1, len(sys.colours)):
            with pytest.raises(ValueError, match=f"no colour D{c}"):
                ops.is_distinguished(sys, {c})
            with pytest.raises(ValueError, match=f"no colour D{c}"):
                ops.distinguished_witness(sys, {0, c})

    @pytest.mark.parametrize("entry", [True, False, 1.0, "1", None, [1]])
    def test_colour_must_be_an_int(self, entry):
        # a bool is no colour, though Python counts it as an int
        sys = instantiate("ac*(n)", n=3)
        with pytest.raises(ValueError, match="no colour"):
            ops.is_distinguished(sys, [entry])
        with pytest.raises(ValueError, match="no colour"):
            ops.is_distinguished(sys, [1, entry])
        with pytest.raises(ValueError, match="no colour"):
            ops.distinguished_witness(sys, [entry])


class TestQuotient:
    def test_doc_example_on_four_lines(self):
        sys = make("A1,A1,A1,A1", set(), [(1, 1, 0, 0), (0, 0, 1, 1)])
        res = ops.quotient(sys, {0})
        assert res.sigma == ((0, 0, 1, 1),)
        assert res.sp == {0, 1}
        assert res.smooth and not res.homogeneous
        assert res.is_valid_system

    def test_empty_subset_is_identity(self):
        sys = make("B2", {1}, [(1, 1)])
        res = ops.quotient(sys, ())
        assert set(res.sigma) == set(sys.sigma)
        assert res.sp == sys.sp
        assert res.smooth

    def test_glued_chain_quotient_creates_new_root(self):
        sys = make("A3", set(), [(1, 1, 0), (0, 1, 1)])
        res = ops.quotient(sys, {0, 2})
        assert res.sigma == ((1, 2, 1),)
        assert res.sp == {0, 2}
        assert not res.smooth
        assert res.is_valid_system      # the long-root row on A3
        assert res.coefficients == ((1, 1),)

    def test_homogeneous_quotient(self):
        sys = make("A3", set(), [(1, 1, 0), (0, 1, 1)])
        res = ops.quotient(sys, {1})
        assert res.homogeneous and res.smooth
        assert res.sigma == ()

    def test_rejects_non_distinguished(self):
        sys = make("A3", set(), [(1, 1, 0), (0, 1, 1)])
        with pytest.raises(ValueError):
            ops.quotient(sys, {0})

    def test_support_colours_homogeneous(self):
        for spec, sp, sigma in (
            ("B3", {1}, [(1, 1, 1)]),
            ("G2", set(), [(2, 0), (0, 2)]),
            ("A3", set(), [(1, 1, 0), (0, 1, 1)]),
        ):
            sys = make(spec, sp, sigma)
            sub = ops.support_colour_set(sys)
            res = ops.quotient(sys, sub)
            assert res.homogeneous

    @pytest.mark.parametrize("name,n", [("co(n)", 6), ("co(n)", 7),
                                        ("eo(n)", 7), ("eo(n)", 8)])
    def test_trivial_kernel_needs_no_search(self, monkeypatch, name, n):
        # rho is square of full rank: the kernel is {0} and the quotient by
        # every colour is homogeneous, well inside a small state budget
        monkeypatch.setenv("SPHSYS_MAX_STATES", "200000")
        sys = instantiate(name, n=n)
        res = ops.quotient(sys, range(len(sys.colours)))
        assert res.homogeneous and res.smooth and res.coefficients == ()


class TestDecompose:
    def fork_system(self):
        # an edge-sum chain across the D5 fork next to a lone a(2) root
        return make("D5", set(),
                    [(1, 1, 0, 0, 0), (0, 0, 1, 1, 0), (0, 0, 1, 0, 1)])

    def test_decomposes_witness(self):
        sys = self.fork_system()
        assert ops.decomposes(sys, {0}, {3, 4})

    def test_moved_roots_must_split(self):
        sys = self.fork_system()
        assert not ops.decomposes(sys, {1, 2}, {3, 4})

    def test_input_validation(self):
        sys = self.fork_system()
        with pytest.raises(ValueError):
            ops.decomposes(sys, set(), {1})
        with pytest.raises(ValueError):
            ops.decomposes(sys, {1}, {1, 2})

    @pytest.mark.parametrize("entry", ["x", True, 1.0, 3])
    def test_second_subset_checked_first(self, entry):
        # colour 0 of ac*(3) is not distinguished, yet a bad second subset
        # is an error, not a False answer
        sys = instantiate("ac*(n)", n=3)
        assert not ops.is_distinguished(sys, [0])
        with pytest.raises(ValueError, match="no colour"):
            ops.decomposes(sys, [0], [entry])
        with pytest.raises(ValueError, match="no colour"):
            ops.decomposes(sys, [entry], [0])

    def test_product_system_decomposes(self):
        sys = make("A1,C3", {3}, [(2, 0, 0, 0), (0, 1, 2, 1)])
        assert ops.is_decomposable(sys) == ((0,), (1,))
        assert not ops.is_primitive(sys)

    def test_doubled_end_roots_split(self):
        sys = make("A3", set(), [(2, 0, 0), (0, 0, 2)])
        assert ops.decomposes(sys, {0}, {2})
        assert ops.is_decomposable(sys) == ((0,), (2,))

    @pytest.mark.parametrize(
        "spec", dict.fromkeys(ORACLE_DIAGRAMS + PRUNED_PRODUCTS + ("G2,G2",)))
    def test_first_pair_matches_public_decomposes(self, spec):
        # Oracle: the first pair in (len, indices) order for which the
        # public decomposes() holds, each pair tested in full.
        for sys in search.enumerate_systems(spec, cuspidal_only=True):
            n = len(sys.colours)
            subsets = [s for r in range(1, n + 1)
                       for s in itertools.combinations(range(n), r)]
            expect = next(((s1, s2) for a, s1 in enumerate(subsets)
                           for s2 in subsets[a + 1:]
                           if not set(s1) & set(s2)
                           and ops.decomposes(sys, s1, s2)), None)
            assert ops.is_decomposable(sys) == expect, sys

    def test_primitive_small_systems(self):
        assert ops.is_primitive(make("B2", set(), [(1, 1), (0, 2)]))
        assert ops.is_primitive(make("G2", set(), [(2, 0), (0, 2)]))
        assert not ops.is_primitive(make("B3", set(), [(2, 0, 0)]))


class TestAffine:
    def test_edge_chain_even_length(self):
        sys = make("A4", set(),
                   [(1, 1, 0, 0), (0, 1, 1, 0), (0, 0, 1, 1)])
        assert ops.is_affine_feasible(sys)

    def test_edge_chain_odd_length(self):
        sys = make("A3", set(), [(1, 1, 0), (0, 1, 1)])
        assert not ops.is_affine_feasible(sys)

    def test_middle_trace_rows_fail(self):
        assert not ops.is_affine_feasible(make("B3", {1}, [(1, 1, 1)]))
        assert not ops.is_affine_feasible(
            make("C3", {2}, [(1, 2, 1)]))

    def test_no_colours_is_affine(self):
        assert ops.is_affine_feasible(make("B2", {0, 1}, []))

    def test_witness_values(self):
        sys = make("G2", {1}, [(2, 1)])
        w = ops.affine_witness(sys)
        assert w is not None and w[0] >= 1


class TestExpectedDims:
    def test_small_cases(self):
        assert ops.expected_dims(make("B3", {1, 2}, [(1, 1, 1)])) == (6, 0)
        assert ops.expected_dims(make("A1,A1", set(), [(1, 1)])) == (3, 0)
        assert ops.expected_dims(
            make("A2", set(), [(2, 0), (0, 2)])) == (5, 0)

    def test_rank_counts_spare_colours(self):
        sys = make("A2", set(), [(1, 1)])
        assert ops.expected_dims(sys) == (4, 1)


def _normal_outputs(spec):
    """Every system the library builds without the checked constructor on
    one diagram: the search's systems, the automorphic images of its first
    ones, and the quotients by every distinguished colour subset and the
    localizations at every node subset of each catalog member."""
    d = parse_diagram(spec)
    found = search.enumerate_systems(d)
    yield from found
    for s in found[:20]:
        yield from (s.permuted(perm) for perm in d.automorphisms)
    for entry in expand_catalog(d):
        s = entry.system
        n = len(s.colours)
        for mask in range(1, 1 << n):
            subset = [c for c in range(n) if mask >> c & 1]
            if ops.is_distinguished(s, subset):
                yield ops.quotient(s, subset).system
        for mask in range(1, 1 << d.n_nodes):
            yield ops.localize(s, [i for i in range(d.n_nodes)
                                   if mask >> i & 1])


@pytest.mark.parametrize("spec", ["A3", "B3", "G2", "D4", "A1,A3", "B2,B2",
                                  "A2,A2"])
def test_built_systems_round_trip(spec):
    # the values the library builds itself are exactly what the checked
    # constructor would have made of their JSON, and validate the same
    count = 0
    for s in _normal_outputs(spec):
        again = SphericalSystem.from_json(s.to_json())
        assert (again.diagram, again.sp, again.sigma) == (
            s.diagram, s.sp, s.sigma)
        assert type(s.sp) is frozenset and type(s.sigma) is tuple
        assert all(type(g) is tuple and {type(c) for c in g} == {int}
                   for g in s.sigma)
        assert again == s and hash(again) == hash(s)
        assert again.validate().to_json() == s.validate().to_json()
        count += 1
    assert count > 0


def test_permuted_takes_only_permutations():
    s = make("A3", set(), [(1, 0, 1)])
    assert s.permuted((2, 1, 0)).sigma == ((1, 0, 1),)
    for bad in [(0, 0, 1), (0, 1), (1, 2, 3), (0, 1, 2.0), (True, 0, 2)]:
        with pytest.raises(ValueError, match="no permutation"):
            s.permuted(bad)


def test_quotient_refuses_a_zero_root():
    # roots with a nonnegative dependency can combine to zero; the checked
    # constructor refused such a root, and so does the quotient
    s = SphericalSystem("A2", (), [(-1, 0), (1, 0)])
    with pytest.raises(ValueError, match=r"root \(0, 0\) is zero"):
        ops.quotient(s, [0, 1])
