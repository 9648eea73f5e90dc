import gc
import hashlib
import itertools
import random

import pytest

from sphsys import (dynkin, families, ops, rankone, search, system,
                    tables)
from sphsys.budget import BudgetExceeded
from sphsys.dynkin import parse_diagram, pieces, support
from sphsys.families import instantiate
from sphsys.system import (SphericalSystem, ValidationReport, doubled_node,
                           orthogonal_pair, rank_one_faults,
                           validation_report)
from test_acceptance import (ENUMERATION_DIAGRAMS, SWEEP_DIAGRAMS,
                             diagrams_up_to_rank)
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

    # the full-mode rows are the four diagrams of the enumerate-all
    # benchmark, recorded while the final gate still built a report per
    # candidate system
    @pytest.mark.parametrize("spec,cuspidal_only,count,digest", [
        ("A1,A1,A1,A1,A1,A1,A1,A1", False, 47868,
         "47e88203e1dfc639e0c01279bdb463a7b5e01ec87386feccc5ddd4144ac9dafb"),
        ("A2,A2,A2,A2", False, 6508,
         "eb5a901fcf0df4326394eb1b482c8aedc465e31ff3bd3763472546efdee298d0"),
        ("A1,A2,B2,G2", False, 3768,
         "688cc50084b3d37305a4ff1f6f3f5d37abfc74a9669e7c3d9909ce7639dcae07"),
        ("G2,G2,G2", False, 1150,
         "e42a057630ee6bd85f977709a29571c625cde439ec615a79b5a4ff9e024036a0"),
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
            found = search.enumerate_systems(spec, primitive_only=True)
            assert len(found) == want, spec

    def test_product_of_doubled_simples_decomposes(self):
        found = search.enumerate_systems("A1,A1", primitive_only=True)
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
                         for s in search.enumerate_systems(
                             spec, primitive_only=True))
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
        assert len(search.enumerate_systems("F4,F4",
                                            primitive_only=True)) == 1
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
        # nodes, so the final gate never sees one: every rank-one record
        # the gate could read, not only the first it asks for, is kept
        faults = search.rank_one_faults
        calls, records = [], []

        def counted(sp, sigma, roots):
            found = list(faults(sp, sigma, roots))
            calls.append(sp)
            records.extend(found)
            return iter(found)

        monkeypatch.setattr(search, "rank_one_faults", counted)
        for kw in ({"cuspidal_only": True}, {"primitive_only": True}):
            search.enumerate_systems(spec, **kw)
        assert calls
        assert not [r for r in records if r[0] == "parabolic-pairing"]

    @pytest.mark.parametrize("spec", ["A1,A1,A1,A1,A1,A1", "B3", "A1,B3",
                                      "D4", "F4", "G2,G2"])
    def test_rank_one_reads_only_supports_and_paired_nodes(self, spec):
        # the lemma behind the gate's one verdict per trace assignment,
        # checked on random root sets and parabolic sets without the walk:
        # the nodes of sp outside every support and paired set change no
        # rank-one record
        rng = random.Random(spec)
        d = parse_diagram(spec)
        cands, facts, _, _ = search._walk_table(d)
        kinds, widened = set(), 0
        for _ in range(400):
            chosen = rng.sample(range(len(cands)),
                                rng.randint(1, min(3, len(cands))))
            sigma = tuple(cands[k] for k in chosen)
            roots = tuple(facts[k] for k in chosen)
            touched = frozenset().union(
                *(f.support | f.paired for f in roots))
            # one admissible trace per root, then random nodes anywhere
            sp = frozenset().union(
                *(rng.choice(sorted(f.traces, key=sorted)) for f in roots))
            sp |= {i for i in range(d.n_nodes) if rng.random() < 0.3}
            records = list(rank_one_faults(sp, sigma, roots))
            assert records == list(rank_one_faults(sp & touched, sigma,
                                                   roots))
            kinds |= {r[0] for r in records} | {bool(records)}
            widened += sp != sp & touched
        # on A1x6 no root pairs with a node off its support
        assert kinds >= {"trace", True, False}
        assert ("parabolic-pairing" in kinds) == any(f.paired for f in facts)
        assert widened

    @pytest.mark.parametrize("spec,calls", [
        ("A1,A1,A1,A1,A1,A1,A1,A1", 7193), ("A2,A2,A2,A2", 1633),
        ("A1,A2,B2,G2", 1101), ("G2,G2,G2", 448),
    ])
    def test_rank_one_asked_once_per_trace_assignment(self, spec, calls,
                                                      monkeypatch):
        # the four full enumerations of the enumerate-all benchmark; asked
        # once per parabolic set they took 47,868, 6,508, 3,768 and 1,150
        faults = search.rank_one_faults
        asked = []

        def counted(sp, sigma, roots):
            asked.append(sp)
            return faults(sp, sigma, roots)

        monkeypatch.setattr(search, "rank_one_faults", counted)
        search.enumerate_systems(spec)
        assert len(asked) == calls

    @pytest.mark.parametrize("spec,calls", [
        ("A1,A1,A1,A1,A1,A1,A1,A1", 7193), ("A2,A2,A2,A2", 1633),
        ("A1,A2,B2,G2", 999), ("G2,G2,G2", 448),
    ])
    def test_sigma_faults_asked_once_per_root_set(self, spec, calls,
                                                  monkeypatch):
        # the same four enumerations: the gate's sigma verdict is asked
        # once per root set the walk hands it, never per parabolic set
        faults = search.sigma_faults
        asked = []

        def counted(sigma, roots):
            asked.append(sigma)
            return faults(sigma, roots)

        monkeypatch.setattr(search, "sigma_faults", counted)
        search.enumerate_systems(spec)
        assert len(asked) == calls
        assert len(set(asked)) == calls

    @pytest.mark.parametrize("spec,calls", [
        ("A1,A1,A1,A1,A1,A1,A1,A1", 0), ("A2,A2,A2,A2", 0),
        ("A1,A2,B2,G2", 197), ("G2,G2,G2", 0),
    ])
    def test_rank_asked_only_on_overlapping_supports(self, spec, calls,
                                                     monkeypatch):
        # the same four enumerations: sigma_faults decides a root set on
        # pairwise disjoint supports independent without a rank; at one
        # rank per root set they took 7,193, 1,633, 999 and 448
        rank = system.rank
        asked = []

        def counted(rows):
            asked.append(rows)
            return rank(rows)

        monkeypatch.setattr(system, "rank", counted)
        search.enumerate_systems(spec)
        assert len(asked) == calls
        assert all(any(a & b for a, b in itertools.combinations(
            map(support, rows), 2)) for rows in asked)

    def test_equal_parabolic_sets_are_one_object(self):
        # every system with a given sp holds the same frozenset, also
        # across root sets and across the (assignment, free nodes) lists
        # the parabolic sets are built in
        by_sp = {}
        for s in search.enumerate_systems("A1,A1,A1,A1,A1,A1"):
            by_sp.setdefault(s.sp, []).append(s)
        assert len(by_sp) == 64
        assert sum(len({s.sigma for s in group}) > 1
                   for group in by_sp.values()) == 63
        for sp, group in by_sp.items():
            assert all(s.sp is group[0].sp for s in group), sorted(sp)

    @pytest.mark.parametrize("spec,mode,states", [
        ("B3", "full", 51), ("B3", "primitive", 22),
        ("G2", "full", 17), ("G2", "primitive", 10),
    ])
    def test_budget_hit_inside_a_batch_counts_one_past_the_cap(
            self, spec, mode, states, monkeypatch):
        # a root set's candidate systems are counted in one step; at every
        # cap below the total the walk stops as a count one state at a time
        # would, reporting the first state over the cap
        kw = {"full": {}, "primitive": {"primitive_only": True}}[mode]
        monkeypatch.setenv("SPHSYS_MAX_STATES", str(states))
        search.enumerate_systems(spec, **kw)
        for cap in range(1, states):
            monkeypatch.setenv("SPHSYS_MAX_STATES", str(cap))
            with pytest.raises(BudgetExceeded) as err:
                search.enumerate_systems(spec, **kw)
            e = err.value
            assert (e.layer, e.count, e.cap, e.input) == (
                "search", cap + 1, cap, spec)

    @pytest.mark.parametrize("mode", ["full", "cuspidal", "primitive"])
    @pytest.mark.parametrize("spec", ["B3", "B4", "A1,B3", "D4", "F4"])
    def test_final_gate_rejects_what_the_walk_lets_through(self, spec, mode,
                                                           monkeypatch):
        # with the walk's parabolic-pairing prune switched off, the final
        # gate meets such systems and alone keeps the output unchanged
        kw = {"full": {}, "cuspidal": {"cuspidal_only": True},
              "primitive": {"primitive_only": True}}[mode]
        want = search.enumerate_systems(spec, **kw)
        faults = search.rank_one_faults
        records = []

        def counted(sp, sigma, roots):
            found = list(faults(sp, sigma, roots))
            records.extend(found)
            return iter(found)

        def unbanned(f, assignments, covered, banned):
            return (a | t for a in assignments for t in f.traces
                    if a & f.support == t & covered)

        monkeypatch.setattr(search, "rank_one_faults", counted)
        monkeypatch.setattr(search, "_extensions", unbanned)
        got = search.enumerate_systems(spec, **kw)
        assert [r for r in records if r[0] == "parabolic-pairing"]
        assert [(s.sp, s.sigma) for s in got] == [
            (s.sp, s.sigma) for s in want]

    @pytest.mark.parametrize("spec,mode", [
        ("B3", "full"), ("B3", "primitive"), ("G2", "full"),
        ("G2", "primitive"), ("B2,B2", "full"),
    ])
    def test_final_gate_rejects_dependent_root_sets(self, spec, mode,
                                                    monkeypatch):
        # with the walk's echelon prune switched off, dependent root sets
        # reach the final gate, and its sigma verdict alone keeps the
        # output unchanged
        kw = {"full": {}, "primitive": {"primitive_only": True}}[mode]
        want = search.enumerate_systems(spec, **kw)
        faults = search.sigma_faults
        records = []

        def counted(sigma, roots):
            found = faults(sigma, roots)
            records.extend(found)
            return found

        monkeypatch.setattr(search, "sigma_faults", counted)
        monkeypatch.setattr(search, "echelon_extend",
                            lambda basis, g: basis + [g])
        got = search.enumerate_systems(spec, **kw)
        assert ("dependent",) in records
        assert [(s.sp, s.sigma) for s in got] == [
            (s.sp, s.sigma) for s in want]

    @pytest.mark.parametrize("spec", ["A1,A1,A1,A1,A1,A1", "G2,G2", "B2,B2"])
    def test_returned_systems_build_their_report(self, spec):
        # the search keeps no report; validate() builds an equal one
        for kw in ({}, {"cuspidal_only": True}, {"primitive_only": True}):
            for s in search.enumerate_systems(spec, **kw):
                assert "report" not in s._cache
                assert s.validate().ok
                assert s.validate() == validation_report(s.diagram, s.sp,
                                                         s.sigma)

    @pytest.mark.parametrize("spec,counts", [
        ("A1,A1,A1,A1,A1,A1", (2364, 76, 0)), ("G2,G2", (105, 17, 1)),
        ("B2,B2", (131, 27, 2)),
    ])
    def test_search_builds_no_report(self, spec, counts, monkeypatch):
        # the final gate reads raw fault records and never formats them
        def refuse(self, *args, **kwargs):
            raise AssertionError("the search built a ValidationReport")

        monkeypatch.setattr(ValidationReport, "__init__", refuse)
        assert tuple(
            len(search.enumerate_systems(spec, **kw))
            for kw in ({}, {"cuspidal_only": True},
                       {"primitive_only": True})) == counts

    def test_returned_systems_stay_small(self):
        # a full enumeration keeps no memo on the systems it returns: none
        # holds a value or a memo object of its own, and a system makes its
        # own memo on first use, leaving the others without one
        systems = search.enumerate_systems("A1,A1,A1,A1,A1,A1")
        assert len(systems) == 2364
        assert not any(s._cache for s in systems)
        assert len({id(s._cache) for s in systems}) == 1
        first, second = systems[:2]
        assert first.validate().ok and "report" in first._cache
        assert not second._cache and second._cache is not first._cache

    def test_no_system_outlives_its_caller(self):
        # with the cyclic collector off, reference counting alone frees
        # every system a call returned once the caller drops them
        def alive():
            return sum(isinstance(o, SphericalSystem)
                       for o in gc.get_objects())

        search.enumerate_systems("G2,G2,G2")    # the walk table, built
        gc.collect()
        gc.disable()
        try:
            before = alive()
            systems = search.enumerate_systems("G2,G2,G2")
            assert len(systems) == 1150
            del systems
            assert alive() == before
        finally:
            gc.enable()


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

    def test_rank_zero_diagram(self):
        # the empty system is the unit of the product: found in full and
        # cuspidal mode, but not primitive, and the catalog predicts nothing
        chk = search.verify_catalog("")
        assert chk.ok and (chk.found, chk.expected) == (0, 0)
        assert search.enumerate_systems("", primitive_only=True) == ()
        empty = (SphericalSystem("", (), ()),)
        assert search.enumerate_systems("") == empty
        assert search.enumerate_systems("", cuspidal_only=True) == empty


# every per-diagram table of the library, all under dynkin.per_diagram's bound
PER_DIAGRAM_CACHES = (dynkin._positive_roots, rankone.rank1_embeddings,
                      rankone._table, system._root_table, search._walk_table,
                      families._index, families._diag,
                      tables._highest_roots, system._node_table,
                      system._one_node_colours)


def test_sweep_keeps_the_bound_and_a_warm_pass_rebuilds_nothing():
    (bound,) = {f.cache_info().maxsize for f in PER_DIAGRAM_CACHES}
    assert bound is not None and len(SWEEP_DIAGRAMS) <= bound
    rank7 = [spec for spec in diagrams_up_to_rank(7)
             if sum(int(part[1:]) for part in spec.split(",")) == 7]
    assert len(rank7) == 117
    for spec in rank7:
        assert search.verify_catalog(spec).ok, spec
    assert all(f.cache_info().currsize <= bound for f in PER_DIAGRAM_CACHES)

    def misses():
        return [f.cache_info().misses
                for f in (search._walk_table, families._index)]
    for spec in ENUMERATION_DIAGRAMS:
        search.verify_catalog(spec)
    cold = misses()
    for spec in ENUMERATION_DIAGRAMS:
        search.verify_catalog(spec)
    assert misses() == cold
