import hashlib
import itertools

import pytest

from sphsys import ops, search
from sphsys.families import expand_catalog, instantiate
from sphsys.dynkin import _RANK_RANGE, parse_diagram
from sphsys.hilbert import hilbert_basis
from sphsys.system import SphericalSystem
from test_acceptance import (ENUMERATION_DIAGRAMS, SWEEP_DIAGRAMS,
                             diagrams_up_to_rank)
from test_search import PRUNED_PRODUCTS
from test_system import ORACLE_DIAGRAMS, random_systems


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
            sub = tuple(i for i, c in enumerate(sys.colours)
                        if c.nodes <= sys.sigma_support)
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

    @pytest.mark.parametrize("n,last", [(10, 7), (12, 9)])
    def test_kernel_without_rays_needs_no_search(self, monkeypatch, n, last):
        # colours 1..last of dc*(n) leave a pairing kernel of dimension 2
        # that meets the orthant only at 0: no extreme ray, so an empty
        # basis within a small budget (the completion search from every
        # unit vector ran past a million states on D12)
        monkeypatch.setenv("SPHSYS_MAX_STATES", "1000")
        sys = {e.label: e.system
               for e in expand_catalog(f"D{n}")}[f"dc*({n})"]
        res = ops.quotient(sys, range(1, last + 1))
        assert res.homogeneous and res.coefficients == ()


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

    def test_smooth_test_matches_hilbert_basis(self):
        # Oracle: the quotient is smooth iff every element of the Hilbert
        # basis of the pairing kernel is a unit vector, and quotient()
        # reports the same through its set-inclusion rule; it referees
        # _smooth's one-colour rule too, which asks for no rays at all
        systems = [e.system for spec in SWEEP_DIAGRAMS
                   for e in expand_catalog(spec)]
        systems += [s for spec in diagrams_up_to_rank(5)
                    for s in search.enumerate_systems(spec,
                                                      cuspidal_only=True)]
        subsets = singular = one_colour = 0
        for sys in systems:
            n, rho = len(sys.colours), sys.rho_matrix
            for r in range(1, n + 1):
                for s in itertools.combinations(range(n), r):
                    if not ops.is_distinguished(sys, s):
                        continue
                    units = all(sum(x) == 1 for x in hilbert_basis(
                        [rho[c] for c in s], len(sys.sigma)))
                    mask = sum(1 << c for c in s)
                    assert ops._smooth(sys, mask) == units, (sys, s)
                    assert ops.quotient(sys, s).smooth == units, (sys, s)
                    subsets += 1
                    singular += not units
                    if r == 1:
                        assert units, (sys, s)
                        one_colour += 1
        assert (len(systems), subsets, singular) == (978, 6059, 380)
        assert one_colour == 1602

    def test_decompositions_pinned(self):
        # sha256 over repr((system, is_decomposable)) of every cuspidal
        # system of every diagram of rank <= 6, in search order
        h, count = hashlib.sha256(), 0
        for spec in diagrams_up_to_rank(6):
            for sys in search.enumerate_systems(spec, cuspidal_only=True):
                h.update(repr((sys, ops.is_decomposable(sys))).encode()
                         + b"\n")
                count += 1
        assert count == 3306
        assert h.hexdigest() == \
            "3ea045d665b454c15454fba0c12962429770bf8b09eb05aac6a2aaf6650ec450"

    def test_decomposition_quotients_are_valid(self):
        # Luna's closure under quotients, on the first pair is_decomposable
        # finds: for every split cuspidal system of rank <= 6 both quotients
        # are spherical systems and at least one of them is smooth
        count = 0
        for spec in diagrams_up_to_rank(6):
            for sys in search.enumerate_systems(spec, cuspidal_only=True):
                pair = ops.is_decomposable(sys)
                if pair is None:
                    continue
                count += 1
                quotients = [ops.quotient(sys, s) for s in pair]
                assert all(q.is_valid_system for q in quotients), (sys, pair)
                assert any(q.smooth for q in quotients), (sys, pair)
        assert count == 3102

    def test_long_chain_decompositions_pinned(self):
        # the same over the cuspidal systems of B12, C12 and D12, where
        # subsets are many and most smooth tests take one colour
        h, count = hashlib.sha256(), 0
        for spec in ("B12", "C12", "D12"):
            for sys in search.enumerate_systems(spec, cuspidal_only=True):
                h.update(repr((sys, ops.is_decomposable(sys))).encode()
                         + b"\n")
                count += 1
        assert count == 2769
        assert h.hexdigest() == \
            "38a81a715be115fcf2a2c58fd96e59e41b20f91ce0509606fabb92749342cfe3"

    def test_decomposition_skips_input_checks_and_one_colour_rays(
            self, monkeypatch):
        # is_decomposable hands its own sorted tuples to the distinguished
        # decision, unchecked, and a one-colour smooth test enumerates no
        # rays; the answers stay those of the full path
        systems = search.enumerate_systems("B10", cuspidal_only=True)
        expect = [ops.is_decomposable(sys) for sys in systems]
        rows_seen = []
        kernel_rays = ops.kernel_rays

        def recording(rows, n_vars):
            rows = list(rows)
            rows_seen.append(len(rows))
            return kernel_rays(rows, n_vars)

        def refuse(*args):
            raise AssertionError("is_decomposable checked a subset")
        monkeypatch.setattr(ops, "_colour_subset", refuse)
        monkeypatch.setattr(ops, "kernel_rays", recording)
        assert len(systems) == 456
        assert [ops.is_decomposable(sys) for sys in systems] == expect
        assert rows_seen and 1 not in rows_seen

    def test_random_decompositions_pinned(self):
        # the same over random, mostly invalid systems, errors included
        h, count = hashlib.sha256(), 0
        for seed in range(6):
            for sys in random_systems(seed, 100):
                try:
                    answer = ops.is_decomposable(sys)
                except ValueError as exc:
                    answer = (type(exc).__name__, str(exc))
                h.update(repr((sys, answer)).encode() + b"\n")
                count += 1
        assert count == 6600
        assert h.hexdigest() == \
            "eec941765b34be662332ecdff709134cd84ced2da3e26cbb280dcceebc33bd61"

    def test_colours_rows_and_decompositions_pinned(self):
        # sha256 over repr of each system with its colours, its rho rows
        # and is_decomposable (a ValueError as its message): every cuspidal
        # system of rank <= 5, seeded random systems, valid and invalid, and
        # B3 with one root listed twice, whose answer is pinned on its own
        def answer(f):
            try:
                return f()
            except ValueError as exc:
                return (type(exc).__name__, str(exc))
        corpus = [sys for spec in diagrams_up_to_rank(5)
                  for sys in search.enumerate_systems(spec,
                                                      cuspidal_only=True)]
        assert len(corpus) == 794
        for seed in (10, 11, 12):
            corpus += random_systems(seed, 60)
        twice = make("B3", set(), [(1, 0, 0), (1, 0, 0)])
        corpus.append(twice)
        h = hashlib.sha256()
        for sys in corpus:
            h.update(repr((sys, sys.colours, answer(lambda: sys.rho_matrix),
                           answer(lambda: ops.is_decomposable(sys))))
                     .encode() + b"\n")
        assert len(corpus) == 2775
        assert h.hexdigest() == \
            "cf6106000af159b579791d66bad629a3d5c82159401dbb4c5e529e7f9ed95cca"
        assert ops.is_decomposable(twice) == ((0,), (2,))

    def test_fewer_than_two_loose_colours_decide_nothing(self):
        # a loose colour shares no moved root with some other colour; with
        # fewer than two the call answers None and reads no sign mask and
        # no ray of the system
        few = 0
        for spec in diagrams_up_to_rank(4):
            for sys in search.enumerate_systems(spec, cuspidal_only=True):
                moved = [{j for j, v in enumerate(row) if v}
                         for row in sys.rho_matrix]
                loose = [c for c, m in enumerate(moved)
                         if any(not m & o for e, o in enumerate(moved)
                                if e != c)]
                if len(loose) >= 2:
                    continue
                few += 1
                assert ops.is_decomposable(sys) is None, sys
                assert "signs" not in sys._cache, sys
                assert "rays" not in sys._cache, sys
        assert few == 78

    def test_primitivity_builds_no_hilbert_basis(self, monkeypatch):
        # the smooth test reads extreme rays: only quotient() needs a basis
        def basis(*args, **kwargs):
            raise AssertionError("the primitivity filter built a basis")
        monkeypatch.setattr(ops, "hilbert_basis", basis)
        for spec in ENUMERATION_DIAGRAMS + ("B8", "D8"):
            check = search.verify_catalog(spec)
            assert check.ok and check.found == check.expected, spec

    def test_primitive_small_systems(self):
        assert ops.is_primitive(make("B2", set(), [(1, 1), (0, 2)]))
        assert ops.is_primitive(make("G2", set(), [(2, 0), (0, 2)]))
        assert not ops.is_primitive(make("B3", set(), [(2, 0, 0)]))

    def test_empty_system_is_not_primitive(self):
        assert ops.is_primitive(SphericalSystem("", (), ())) is False


class TestAffine:
    def test_edge_chain_even_length(self):
        sys = make("A4", set(),
                   [(1, 1, 0, 0), (0, 1, 1, 0), (0, 0, 1, 1)])
        assert ops.affine_witness(sys) is not None

    def test_edge_chain_odd_length(self):
        sys = make("A3", set(), [(1, 1, 0), (0, 1, 1)])
        assert ops.affine_witness(sys) is None

    def test_middle_trace_rows_fail(self):
        assert ops.affine_witness(make("B3", {1}, [(1, 1, 1)])) is None
        assert ops.affine_witness(make("C3", {2}, [(1, 2, 1)])) is None

    def test_no_colours_is_affine(self):
        assert ops.affine_witness(make("B2", {0, 1}, [])) is not None

    def test_witness_values(self):
        sys = make("G2", {1}, [(2, 1)])
        w = ops.affine_witness(sys)
        assert w is not None and w[0] >= 1

    def test_sweep_witnesses_pinned(self):
        # sha256 of the repr of the affine witnesses of every catalog
        # member of SWEEP_DIAGRAMS, in catalog order
        witnesses = [ops.affine_witness(e.system) for spec in SWEEP_DIAGRAMS
                     for e in expand_catalog(spec)]
        assert len(witnesses) == 184
        assert hashlib.sha256(repr(witnesses).encode()).hexdigest() == \
            "7f12654b44b644a95e01817a1f3fcc4eb7fdc1e7a9926dcd17f07f49152e32ec"


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


def test_quotient_sweep_of_rank_nine_and_ten_pinned():
    # every distinguished colour subset of every catalog member on the
    # connected diagrams of rank 9 and 10; sha256 over the quotients,
    # recorded before Hilbert bases started from the kernel's extreme rays
    specs = [f"{fam}{r}" for fam, (lo, hi) in sorted(_RANK_RANGE.items())
             for r in (9, 10) if lo <= r and (hi is None or r <= hi)]
    h = hashlib.sha256()
    members = subsets = quotients = 0
    for spec in specs:
        for entry in expand_catalog(spec):
            s, n = entry.system, len(entry.system.colours)
            members += 1
            for r in range(1, n + 1):
                for subset in itertools.combinations(range(n), r):
                    subsets += 1
                    if not ops.is_distinguished(s, subset):
                        continue
                    q = ops.quotient(s, subset)
                    quotients += 1
                    h.update(repr((entry.label, subset, q.coefficients,
                                   q.sigma, sorted(q.sp), q.smooth,
                                   q.homogeneous,
                                   q.is_valid_system)).encode())
    assert (len(specs), members, subsets, quotients) == (8, 187, 25253, 681)
    assert h.hexdigest() == (
        "ae2620f514df8acd5ad651d0dd5cd9e55b7b2243683eecf16c4cf8144e8638d5")
