import hashlib
import itertools

import pytest

from sphsys import ops, rankone, search
from sphsys.budget import BudgetExceeded
from sphsys.dynkin import parse_diagram, pieces, support
from sphsys.families import instantiate
from sphsys.system import SphericalSystem, doubled_node, orthogonal_pair
from test_acceptance import ENUMERATION_DIAGRAMS, diagrams_up_to_rank
from test_system import ORACLE_DIAGRAMS

# products where the coupling prune has work to do
PRUNED_PRODUCTS = ("A1,A1,A1", "B2,G2", "A2,A2,A2", "B3,B3", "A1,A5",
                   "G2,G2,G2", "C3,C3", "F4,F4")


class TestCandidateRoots:
    def test_a1_only_doubled(self):
        assert search.candidate_roots("A1") == ((2,),)

    def test_b2_weights(self):
        cands = set(search.candidate_roots("B2"))
        # b(2), b'(2), b*(2), and the two doubled simples
        assert {(1, 1), (2, 2), (2, 0), (0, 2)} <= cands

    def test_a2_exact(self):
        assert set(search.candidate_roots("A2")) == {(2, 0), (0, 2), (1, 1)}

    def test_a3_has_pair_and_short_chain(self):
        cands = set(search.candidate_roots("A3"))
        assert (1, 0, 1) in cands
        assert (1, 2, 1) in cands

    def test_every_candidate_has_a_trace(self):
        d = parse_diagram("C3")
        for w in search.candidate_roots(d):
            assert rankone.admissible_traces(d, w)


def oracle_compatible(d, w1, w2) -> bool:
    """The walk's pair test as it was before it read system.pairwise_faults:
    halved pairings against a doubled root stay nonpositive integers, and
    the two halves of an orthogonal pair root pair equally with everything.
    Every pairing is summed afresh from the Cartan matrix."""
    for a, b in ((w1, w2), (w2, w1)):
        i = doubled_node(a)
        if i is not None and b != a:
            s = d.pairing_weight(i, b)
            if s > 0 or s % 2:
                return False
        pair = orthogonal_pair(d, a)
        if pair is not None:
            i, j = pair
            if d.pairing_weight(i, b) != d.pairing_weight(j, b):
                return False
    return True


def compatible(d, w1, w2) -> bool:
    """The walk's cached pair matrix at two candidate roots."""
    cands, _, compat, _ = search._walk_table(d)
    return compat[cands.index(w1)][cands.index(w2)]


class TestCompatibility:
    # A1,A1,A1 is in both lists; at rank 8, E8 has the most candidates and
    # A1 x 8 the most components
    @pytest.mark.parametrize("spec", ORACLE_DIAGRAMS + tuple(
        s for s in PRUNED_PRODUCTS if s not in ORACLE_DIAGRAMS) + (
        "E8", "A1,A1,A1,A1,A1,A1,A1,A1"))
    def test_pair_matrix_matches_oracle(self, spec):
        d = parse_diagram(spec)
        cands = search.candidate_roots(d)
        for a in cands:
            for b in cands:
                assert compatible(d, a, b) == oracle_compatible(d, a, b), \
                    (a, b)

    def test_symmetric(self):
        d = parse_diagram("B3")
        cands = search.candidate_roots(d)
        for a in cands:
            for b in cands:
                assert compatible(d, a, b) == compatible(d, b, a)

    def test_doubled_root_rejects_odd_pairing(self):
        d = parse_diagram("A2")
        # <a1^vee, a1+a2> = 1: not an even nonpositive integer
        assert not compatible(d, (2, 0), (1, 1))

    def test_doubled_roots_far_apart_ok(self):
        d = parse_diagram("A3")
        assert compatible(d, (2, 0, 0), (0, 0, 2))


class TestBruteForceOracle:
    """The pruned walk against every root subset times every sp subset."""

    @pytest.mark.parametrize("spec", [
        "A1", "A2", "A3", "B2", "B3", "C3", "G2",
        "A1,A1", "A1,A2", "A1,A1,A1", "A1,B2",
    ])
    def test_walk_equals_brute_force(self, spec):
        d = parse_diagram(spec)
        cands = search.candidate_roots(d)
        n = d.n_nodes
        sp_subsets = [frozenset(c) for k in range(n + 1)
                      for c in itertools.combinations(range(n), k)]
        oracle = set()
        for k in range(n + 1):
            for sigma in itertools.combinations(cands, k):
                for sp in sp_subsets:
                    if SphericalSystem(d, sp, sigma).validate().ok:
                        oracle.add((sp, sigma))
        found = [(s.sp, s.sigma) for s in search.enumerate_systems(d)]
        assert len(found) == len(set(found))
        assert set(found) == oracle

    @pytest.mark.parametrize("spec,count", [("B3", 31), ("A1,B2", 36)])
    def test_counts(self, spec, count):
        assert len(search.enumerate_systems(spec)) == count


class TestEnumerate:
    def test_a1_all_systems(self):
        systems = search.enumerate_systems("A1")
        keys = {(tuple(sorted(s.sp)), s.sigma) for s in systems}
        assert keys == {((), ()), ((0,), ()), ((), ((2,),))}

    def test_g2_total(self):
        assert len(search.enumerate_systems("G2")) == 10

    def test_cuspidal_flag_matches_filter(self):
        # in emitted order: the cover prune cuts no cuspidal system
        for spec in ORACLE_DIAGRAMS + PRUNED_PRODUCTS:
            cusp = search.enumerate_systems(spec, cuspidal_only=True)
            full = [s for s in search.enumerate_systems(spec) if s.is_cuspidal]
            assert list(map(repr, cusp)) == list(map(repr, full)), spec

    def test_all_emitted_systems_validate(self):
        for s in search.enumerate_systems("B3"):
            assert s.validate().ok

    def test_no_duplicates(self):
        systems = search.enumerate_systems("C3")
        keys = [(tuple(sorted(s.sp)), s.sigma) for s in systems]
        assert len(keys) == len(set(keys))

    @pytest.mark.parametrize("spec,cuspidal_only,count,digest", [
        ("A1,A2,B2,G2", False, 3768,
         "688cc50084b3d37305a4ff1f6f3f5d37abfc74a9669e7c3d9909ce7639dcae07"),
        ("B3,B3", True, 82,
         "4c718ca8cdb059ec9f3164dcec3d6073fbd05eaf1ed538d83fda537f765cd137"),
    ])
    def test_emitted_order_is_pinned(self, spec, cuspidal_only, count,
                                     digest):
        # sha256 over the reprs in the order the search emits them
        systems = search.enumerate_systems(spec, cuspidal_only=cuspidal_only)
        text = "\n".join(map(repr, systems))
        assert len(systems) == count
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_budget_trips(self, monkeypatch):
        monkeypatch.setenv("SPHSYS_MAX_STATES", "10")
        with pytest.raises(BudgetExceeded):
            search.enumerate_systems("B3")

    def test_budget_names_the_walk(self, monkeypatch):
        monkeypatch.setenv("SPHSYS_MAX_STATES", "10")
        with pytest.raises(BudgetExceeded) as err:
            search.enumerate_systems("B3")
        e = err.value
        assert str(e) == "enumeration on B3 exceeded 10 states"
        assert (e.layer, e.count, e.cap, e.input) == ("search", 11, 10, "B3")


class TestPrimitive:
    def test_bstar3_survives(self):
        # regression: the zero-pairing colour of b*(3) must not split it
        sys = instantiate("b*(n)", n=3)
        assert ops.is_decomposable(sys) is None
        assert ops.is_primitive(sys)

    def test_counts(self):
        expected = {"A1": 1, "A2": 2, "B2": 5, "G2": 4, "A1,A1": 1}
        for spec, want in expected.items():
            assert len(search.enumerate_primitive(spec)) == want, spec

    def test_product_of_doubled_simples_decomposes(self):
        found = search.enumerate_primitive("A1,A1")
        assert all(s.sigma != ((2, 0), (0, 2)) for s in found)


def factor_split(s):
    """(colours on the group of component 0, the other colours) when the
    components fall into groups no root's support meets two of, else
    None."""
    d = s.diagram
    comp = [ci for ci in range(len(d.components))
            for _ in d.component_nodes(ci)]
    spans = [{comp[i] for i in support(g)} for g in s.sigma]
    groups = pieces(range(len(d.components)),
                    lambda a, b: any({a, b} <= span for span in spans))
    if len(groups) < 2:
        return None
    nodes = {i for i, ci in enumerate(comp) if ci in groups[0]}
    factor = [c for c, col in enumerate(s.colours) if col.nodes <= nodes]
    return factor, [c for c in range(len(s.colours)) if c not in factor]


class TestPrimitiveMode:
    def test_gate_output_is_pinned(self):
        # sha256 over the reprs on the 22 gate diagrams in emitted order,
        # recorded from the unpruned filter over cuspidal systems
        text = "\n".join(repr(s) for spec in ENUMERATION_DIAGRAMS
                         for s in search.enumerate_primitive(spec))
        assert hashlib.sha256(text.encode()).hexdigest() == \
            "b5e727cc2c8a14d60a8791184a39ab0f2dc545f6b2dddf2c1d728b56ccb5cac5"

    @pytest.mark.parametrize("spec", ORACLE_DIAGRAMS + PRUNED_PRODUCTS)
    def test_equals_filtered_cuspidal(self, spec):
        want = tuple(s for s in search.enumerate_systems(spec,
                                                         cuspidal_only=True)
                     if ops.is_primitive(s))
        got = search.enumerate_systems(spec, primitive_only=True)
        assert isinstance(got, tuple)
        assert list(map(repr, got)) == list(map(repr, want))

    def test_split_cuspidal_systems_decompose(self):
        # the lemma that makes the prune exact, on every product of rank <= 6
        specs = [spec for spec in diagrams_up_to_rank(6) if "," in spec]
        assert len(specs) == 107
        split = 0
        for spec in specs:
            for s in search.enumerate_systems(spec, cuspidal_only=True):
                pair = factor_split(s)
                if pair is not None:
                    split += 1
                    assert ops.decomposes(s, *pair), repr(s)
        assert split == 3022

    def test_prune_cuts_the_walk(self, monkeypatch):
        # F4,F4 takes 24 walk states in the primitive mode and 189 in the
        # cuspidal mode, which has no coupling prune
        monkeypatch.setenv("SPHSYS_MAX_STATES", "100")
        assert len(search.enumerate_primitive("F4,F4")) == 1
        with pytest.raises(BudgetExceeded):
            search.enumerate_systems("F4,F4", cuspidal_only=True)


class TestWalk:
    def test_output_is_pinned(self):
        # sha256 over the reprs of all three modes on every diagram of
        # rank <= 5, recorded before the walk banned paired nodes and
        # branched on the least-covered node
        specs = diagrams_up_to_rank(5)
        assert len(specs) == 61
        text = "\n".join(
            repr(s) for spec in specs
            for kw in ({}, {"cuspidal_only": True}, {"primitive_only": True})
            for s in search.enumerate_systems(spec, **kw))
        assert hashlib.sha256(text.encode()).hexdigest() == \
            "6c56fac1a8ded933ee26b6fb93175b50860006e9236ffd317a379767db1d1831"

    @pytest.mark.parametrize("spec,mode,states", [
        ("F4,F4", "full", 7944), ("F4,F4", "cuspidal", 189),
        ("F4,F4", "primitive", 24),
        ("B8", "cuspidal", 305), ("B8", "primitive", 305),
        ("A1,B7", "cuspidal", 204), ("A1,B7", "primitive", 28),
        ("B2,B6", "cuspidal", 452), ("B2,B6", "primitive", 74),
        ("G2,G2,G2", "full", 1598), ("G2,G2,G2", "cuspidal", 210),
        ("G2,G2,G2", "primitive", 9),
        ("A2,A2,A2", "full", 871), ("A2,A2,A2", "cuspidal", 70),
        ("A2,A2,A2", "primitive", 7),
    ])
    def test_state_counts_are_pinned(self, spec, mode, states, monkeypatch):
        # the walk takes exactly `states` states: it runs under that cap and
        # stops on the last one under a cap one lower
        kw = {"full": {}, "cuspidal": {"cuspidal_only": True},
              "primitive": {"primitive_only": True}}[mode]
        monkeypatch.setenv("SPHSYS_MAX_STATES", str(states))
        search.enumerate_systems(spec, **kw)
        monkeypatch.setenv("SPHSYS_MAX_STATES", str(states - 1))
        with pytest.raises(BudgetExceeded) as err:
            search.enumerate_systems(spec, **kw)
        assert (err.value.layer, err.value.count) == ("search", states)

    @pytest.mark.parametrize("spec", ["B8", "D8", "A1,B7", "F4,F4"])
    def test_no_system_fails_parabolic_pairing(self, spec, monkeypatch):
        # the walk drops every assignment that meets a chosen root's paired
        # nodes, so validate() never sees one
        validate = SphericalSystem.validate
        reports = []

        def counted(self):
            reports.append(validate(self))
            return reports[-1]

        monkeypatch.setattr(SphericalSystem, "validate", counted)
        for kw in ({"cuspidal_only": True}, {"primitive_only": True}):
            search.enumerate_systems(spec, **kw)
        assert reports
        assert not [e for r in reports for e in r.rank_one
                    if e["reason"] == "parabolic-pairing"]


class TestVerifyCatalog:
    @pytest.mark.parametrize("spec", [
        "A3", "B3", "C3", "D4", "F4", "G2", "A1,A1", "B2,B2", "A1,C3",
    ])
    def test_search_matches_catalog(self, spec):
        chk = search.verify_catalog(spec)
        assert chk.ok, (chk.missing, chk.extra)

    def test_empty_diagram_pair(self):
        # A1,A3 admits no primitive system: nothing spans both components
        chk = search.verify_catalog("A1,A3")
        assert chk.ok and chk.found == 0
