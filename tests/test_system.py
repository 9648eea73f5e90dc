import copy
import hashlib
import itertools
import json
import pickle
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sphsys import ops, rankone, search, system
from sphsys.budget import BudgetExceeded
from sphsys.dynkin import parse_diagram, support
from sphsys.feasible import rank
from sphsys.system import (Colour, SphericalSystem, ValidationReport,
                           doubled_node, orthogonal_pair, pairwise_faults,
                           rank_one_faults, root_facts, sigma_faults,
                           simple_node, validation_report)
from test_acceptance import diagrams_up_to_rank


def make(spec, sp, sigma):
    return SphericalSystem(parse_diagram(spec), sp, sigma)


def test_root_shapes():
    d = parse_diagram("A1,A2")
    assert simple_node((0, 1, 0)) == 1
    assert simple_node((0, 2, 0)) is None
    assert doubled_node((0, 0, 2)) == 2
    assert doubled_node((0, 2, 2)) is None
    assert orthogonal_pair(d, (1, 0, 1)) == (0, 2)
    assert orthogonal_pair(d, (0, 1, 1)) is None    # adjacent nodes
    assert orthogonal_pair(d, (1, 0, 2)) is None


def test_value_classes():
    c = Colour(frozenset({1, 2}), False)
    assert c == Colour(frozenset({2, 1}), False) != Colour(c.nodes, True)
    assert c != (c.nodes, c.doubled)
    assert {c, Colour(frozenset({1, 2}), False)} == {c}
    assert repr(c) == "Colour(nodes=frozenset({1, 2}), doubled=False)"
    with pytest.raises(AttributeError):
        c.doubled = True
    rep, other = ValidationReport(), ValidationReport()
    assert rep == other and rep.ok
    rep.rank_one.append({"gamma": [1]})   # no list is shared
    assert rep != other and not rep.ok and other.rank_one == []
    assert ValidationReport([], [], [], [], [], True) != other
    with pytest.raises(TypeError):
        hash(rep)
    assert repr(other) == (
        "ValidationReport(pairwise_doubled=[], pairwise_orthogonal=[], "
        "rank_one=[], simple_roots=[], duplicates=[], dependent=False)")


def test_system_refuses_attribute_assignment():
    s = make("A2", set(), [(1, 1)])
    for name, value in (("sp", frozenset({0})), ("extra", 1)):
        with pytest.raises(AttributeError, match="immutable"):
            setattr(s, name, value)
    assert s.sp == frozenset() and not hasattr(s, "extra")


@pytest.mark.parametrize("copier", [lambda r: pickle.loads(pickle.dumps(r)),
                                    copy.copy, copy.deepcopy],
                         ids=["pickle", "copy", "deepcopy"])
def test_records_are_tuples_of_their_own_kind(copier):
    rep = make("A3", {2}, [(1, 1, 0), (1, 1, 0)]).validate()
    assert not rep.ok and rep != tuple(rep) and tuple(rep) != rep
    with pytest.raises(TypeError):
        hash(rep)
    again = copier(rep)
    assert type(again) is ValidationReport and again == rep
    with pytest.raises(AttributeError):
        rep.dependent = True
    nodes, doubled = c = Colour(frozenset({0, 2}), True)
    assert (nodes, doubled) == (c.nodes, c.doubled) == tuple(c)
    assert copier(c) == c and hash(copier(c)) == hash(c)


class TestValidation:
    def test_valid_b_rows(self):
        assert make("B3", {1, 2}, [(1, 1, 1)]).is_valid
        assert make("B3", {1}, [(1, 1, 1)]).is_valid
        assert make("B3", {0, 1}, [(1, 2, 3)]).is_valid

    def test_wrong_trace(self):
        sys = make("B3", {2}, [(1, 1, 1)])
        rep = sys.validate()
        assert not rep.ok
        assert rep.rank_one and rep.rank_one[0]["reason"] == "trace"
        assert rep.rank_one[0]["actual_trace"] == ["0.3"]

    def test_parabolic_must_pair_zero(self):
        sys = make("A3", {2}, [(1, 1, 0)])
        rep = sys.validate()
        assert not rep.ok
        assert rep.rank_one[0]["reason"] == "parabolic-pairing"
        assert rep.rank_one[0]["nodes"] == ["0.3"]

    def test_doubled_root_axiom_integrality(self):
        rep = make("G2", {1}, [(2, 0), (2, 1)]).validate()
        assert any(v["pairing"] == 1 for v in rep.pairwise_doubled)

    def test_doubled_root_axiom_sign(self):
        rep = make("B2", {1}, [(2, 0), (2, 2)]).validate()
        assert any(v["pairing"] == 2 for v in rep.pairwise_doubled)

    def test_orthogonal_pair_axiom(self):
        # cross-component pair next to an a(2) root pairs unevenly
        rep = make("A1,A2", set(), [(1, 1, 0), (0, 1, 1)]).validate()
        assert rep.pairwise_orthogonal
        bad = rep.pairwise_orthogonal[0]
        assert sorted(bad["pairings"]) == [0, 1]

    def test_no_simple_roots(self):
        rep = make("A2", set(), [(1, 0)]).validate()
        assert rep.simple_roots

    def test_duplicates(self):
        rep = make("A2", set(), [(1, 1), (1, 1)]).validate()
        assert rep.duplicates

    def test_independence_flag(self):
        dep = make("A2", set(), [(1, 1), (2, 2)])
        assert dep.validate().dependent

    def test_report_cached(self):
        sys = make("B3", {1, 2}, [(1, 1, 1)])
        assert sys.validate() is sys.validate()

    def test_report_built_by_validation_report(self):
        # validate() returns the one builder's report; the builder makes a
        # fresh, equal one on every call
        sys = make("B3", {0, 1}, [(1, 1, 1), (0, 0, 1)])
        rep = sys.validate()
        fresh = validation_report(sys.diagram, sys.sp, sys.sigma)
        assert not rep.ok
        assert fresh == rep and fresh is not rep


def _report(doubled=(), orthogonal=(), rank_one=(), simple=(),
            duplicates=(), dependent=False):
    return {"valid": False, "pairwise_doubled": list(doubled),
            "pairwise_orthogonal": list(orthogonal),
            "rank_one": list(rank_one), "simple_roots": list(simple),
            "duplicates": list(duplicates), "dependent": dependent}


def _no_trace(gamma, actual=(), admissible=()):
    return {"gamma": gamma, "reason": "trace", "actual_trace": list(actual),
            "admissible_traces": list(admissible)}


# Reports and colours of invalid systems, recorded before the root-shape
# tests moved into sphsys.system; they fix the order of every report list.
PINNED = [
    # a repeated 2*alpha_1 is reported once, doubled nodes in node order
    (("A3", [], [(2, 0, 0), (1, 1, 0), (2, 0, 0), (0, 0, 2)]),
     _report(doubled=[
         {"alpha": "0.1", "gamma": [1, 1, 0], "pairing": 1},
         {"alpha": "0.3", "gamma": [1, 1, 0], "pairing": -1}],
         duplicates=[{"gamma": [2, 0, 0], "positions": [0, 2]}],
         dependent=True),
     [([0], True), ([1], False), ([2], True)]),
    (("B3", [2], [(1, 0, 0), (0, 1, 1), (0, 1, 0)]),
     _report(rank_one=[_no_trace([1, 0, 0]), _no_trace([0, 1, 0])],
             simple=[{"gamma": [1, 0, 0]}, {"gamma": [0, 1, 0]}]),
     [([0], False), ([1], False)]),
    (("A3", [], [(1, -1, 0), (0, -2, 0), (-1, 0, -1)]),
     _report(rank_one=[_no_trace([1, -1, 0]), _no_trace([0, -2, 0]),
                       _no_trace([-1, 0, -1])]),
     [([0], False), ([1], False), ([2], False)]),
    (("G2", [1], [(2, 0), (2, 1)]),
     _report(doubled=[{"alpha": "0.1", "gamma": [2, 1], "pairing": 1}],
             rank_one=[{"gamma": [2, 0], "reason": "parabolic-pairing",
                        "nodes": ["0.2"]}]),
     [([0], True)]),
    (("B3", [], [(0, 0, 2), (2, 0, 0), (1, 1, 0), (0, 1, 1)]),
     _report(doubled=[
         {"alpha": "0.1", "gamma": [1, 1, 0], "pairing": 1},
         {"alpha": "0.1", "gamma": [0, 1, 1], "pairing": -1}],
         dependent=True),
     [([0], True), ([1], False), ([2], True)]),
    (("A3", [], [(1, 1, 0), (0, 1, 1), (1, 0, 1)]),
     _report(orthogonal=[
         {"pair": ["0.1", "0.3"], "gamma": [1, 1, 0], "pairings": [1, -1]},
         {"pair": ["0.1", "0.3"], "gamma": [0, 1, 1], "pairings": [-1, 1]}]),
     [([0, 2], False), ([1], False)]),
    # alpha_1 + alpha_3 joins no colour: node 1.2 is parabolic
    (("A1,A2", [2], [(1, 1, 0), (0, 1, 1), (1, 0, 1)]),
     _report(orthogonal=[
         {"pair": ["0.1", "1.1"], "gamma": [0, 1, 1], "pairings": [0, 1]},
         {"pair": ["0.1", "1.1"], "gamma": [1, 0, 1], "pairings": [2, -1]},
         {"pair": ["0.1", "1.2"], "gamma": [1, 1, 0], "pairings": [2, -1]},
         {"pair": ["0.1", "1.2"], "gamma": [0, 1, 1], "pairings": [0, 1]}],
         rank_one=[
             {"gamma": [1, 1, 0], "reason": "parabolic-pairing",
              "nodes": ["1.2"]},
             _no_trace([0, 1, 1], ["1.2"], [[]]),
             _no_trace([1, 0, 1], ["1.2"], [[]])]),
     [([0, 1], False)]),
]


@pytest.mark.parametrize("args, report, colours", PINNED)
def test_pinned_reports_of_invalid_systems(args, report, colours):
    sys = make(*args)
    assert json.dumps(sys.validate().to_json()) == json.dumps(report)
    assert [(sorted(c.nodes), c.doubled) for c in sys.colours] == colours


class TestColours:
    def test_merged_pair_and_doubled(self):
        sys = make("A3", set(), [(1, 0, 1), (0, 2, 0)])
        assert sys.is_valid
        cols = sys.colours
        assert [sorted(c.nodes) for c in cols] == [[0, 2], [1]]
        assert [c.doubled for c in cols] == [False, True]
        assert sys.rho_matrix == ((2, -2), (-1, 2))

    def test_every_active_node_gets_a_colour(self):
        # nodes outside the union of supports still carry colours
        sys = make("A3", set(), [(2, 0, 0)])
        assert sys.is_valid
        assert [sorted(c.nodes) for c in sys.colours] == [[0], [1], [2]]
        assert sys.rho_matrix == ((2,), (-2,), (0,))

    def test_half_pairing(self):
        sys = make("G2", set(), [(2, 0), (0, 2)])
        assert sys.is_valid
        assert sys.rho_matrix == ((2, -3), (-1, 2))

    @pytest.mark.parametrize("args, bad", [
        # alpha_1 + alpha_3 joins nodes pairing 1 and -1 with alpha_1 + alpha_2
        (("A3", [], [(1, 1, 0), (0, 1, 1), (1, 0, 1)]),
         ("0.1, 0.3", [1, 1, 0])),
        # 2*alpha_1 doubles a colour pairing 1 with alpha_1 + alpha_2
        (("A3", [], [(0, 0, 2), (2, 0, 0), (1, 1, 0)]), ("0.1", [1, 1, 0])),
    ])
    def test_no_integer_pairing_raises(self, args, bad):
        message = (f"colour {{{bad[0]}}} does not pair to one integer with "
                   f"root {bad[1]}")
        for read in (lambda s: s.rho_matrix, ops.is_decomposable,
                     ops.affine_witness):
            with pytest.raises(ValueError) as err:
                read(make(*args))
            assert str(err.value) == message


class TestStrictness:
    def test_b_row_doubles(self):
        assert not make("B3", {1, 2}, [(1, 1, 1)]).is_strict
        assert make("B3", {1, 2}, [(2, 2, 2)]).is_strict
        assert make("B3", {1}, [(1, 1, 1)]).is_strict

    def test_g_row_doubles(self):
        assert not make("G2", {1}, [(2, 1)]).is_strict
        assert make("G2", {1}, [(4, 2)]).is_strict
        assert make("G2", set(), [(1, 1)]).is_strict


def test_cuspidal_and_support():
    assert make("B2", {1}, [(1, 1)]).is_cuspidal
    assert not make("B3", set(), [(2, 0, 0)]).is_cuspidal
    assert make("A2", set(), []).sigma_support == frozenset()


def test_root_label():
    sys = make("B3", {1}, [(1, 1, 1)])
    assert sys.root_label((1, 1, 1)) == "b*(3)"


def test_canonical_key_identifies_mirror_systems():
    left = make("A3", set(), [(2, 0, 0)])
    right = make("A3", set(), [(0, 0, 2)])
    assert left.canonical_key() == right.canonical_key()
    assert left.canonical_key() != make("A3", set(), [(0, 2, 0)]).canonical_key()


def test_canonical_key_on_too_many_automorphisms_raises(monkeypatch):
    # A1x12 has 12! automorphisms; the key raises instead of scanning them
    monkeypatch.delenv("SPHSYS_MAX_STATES", raising=False)
    sys = make(",".join(["A1"] * 12), {0}, [(0, 2) + (0,) * 10])
    with pytest.raises(BudgetExceeded) as err:
        sys.canonical_key()
    assert (err.value.layer, err.value.count) == ("automorphisms", 479001600)


def test_json_roundtrip():
    sys = make("A1,C3", {3}, [(1, 1, 0, 0), (0, 1, 2, 1)])
    data = sys.to_json()
    assert data["sp"] == ["1.3"]
    assert data["sigma"][0] == {"0.1": 1, "1.1": 1}
    back = SphericalSystem.from_json(data)
    assert back == sys and back.sigma == sys.sigma


def test_from_json_accepts_a_json_string():
    sys = make("A1,C3", {3}, [(1, 1, 0, 0), (0, 1, 2, 1)])
    back = SphericalSystem.from_json(json.dumps(sys.to_json()))
    assert back == sys and back.sigma == sys.sigma


@pytest.mark.parametrize("copier", [lambda s: pickle.loads(pickle.dumps(s)),
                                    copy.copy, copy.deepcopy],
                         ids=["pickle", "copy", "deepcopy"])
def test_copy_and_pickle_round_trip(copier):
    sys = make("B3", {1, 2}, [(1, 1, 1)])
    assert sys.is_valid and sys.rho_matrix
    again = copier(sys)
    assert again == sys and hash(again) == hash(sys)
    assert (again.diagram, again.sp, again.sigma) == (
        sys.diagram, sys.sp, sys.sigma)
    assert again._cache == {}
    assert again.rho_matrix == sys.rho_matrix


def test_equality_ignores_sigma_order():
    a = make("A3", set(), [(2, 0, 0), (0, 0, 2)])
    b = make("A3", set(), [(0, 0, 2), (2, 0, 0)])
    assert a == b and hash(a) == hash(b)


def oracle_validate(sys) -> ValidationReport:
    """validate() as it was before the root table: every pairing summed
    afresh from the Cartan matrix, every root shape recognised afresh."""
    d = sys.diagram
    rep = ValidationReport()

    seen = {}
    for k, g in enumerate(sys.sigma):
        if g in seen:
            rep.duplicates.append({"gamma": list(g), "positions":
                                   [seen[g], k]})
        seen.setdefault(g, k)

    for g in sys.sigma:
        if simple_node(g) is not None:
            rep.simple_roots.append({"gamma": list(g)})

    doubled = [doubled_node(g) for g in sys.sigma]
    for i in sorted(set(doubled) - {None}):
        for g, j in zip(sys.sigma, doubled):
            if j == i:
                continue
            v = d.pairing_weight(i, g)
            if v % 2 or v > 0:
                rep.pairwise_doubled.append(
                    {"alpha": d.node_id(i), "gamma": list(g), "pairing": v})

    for g in sys.sigma:
        pair = orthogonal_pair(d, g)
        if pair is not None:
            i, j = pair
            for h in sys.sigma:
                vi, vj = d.pairing_weight(i, h), d.pairing_weight(j, h)
                if vi != vj:
                    rep.pairwise_orthogonal.append(
                        {"pair": [d.node_id(i), d.node_id(j)],
                         "gamma": list(h), "pairings": [vi, vj]})

    for g in sys.sigma:
        sup = support(g)
        trace = frozenset(sys.sp & sup)
        options = rankone.admissible_traces(d, g)
        if trace not in options:
            rep.rank_one.append(
                {"gamma": list(g), "reason": "trace",
                 "actual_trace": sorted(d.node_id(i) for i in trace),
                 "admissible_traces": [sorted(d.node_id(i) for i in t)
                                       for t in sorted(options, key=sorted)]})
            continue
        bad = [i for i in sys.sp - sup if d.pairing_weight(i, g)]
        if bad:
            rep.rank_one.append(
                {"gamma": list(g), "reason": "parabolic-pairing",
                 "nodes": [d.node_id(i) for i in bad]})

    if sys.sigma:
        rep = rep._replace(dependent=rank(sys.sigma) < len(sys.sigma))
    return rep


ORACLE_DIAGRAMS = ("A3", "B3", "C3", "D4", "G2", "F4", "A1,A3", "B2,B2",
                   "A2,A2", "E6", "A1,A1,A1")


def random_systems(seed, per_diagram):
    """Systems of 0-4 roots: candidate roots, nonzero stray weights
    (coefficients -1..2) and doubled simple roots.  Half take sp as one
    admissible trace per candidate root plus a few stray nodes, so many
    are valid; the rest take a random sp."""
    rng = random.Random(seed)
    for spec in ORACLE_DIAGRAMS:
        d = parse_diagram(spec)
        n = d.n_nodes
        cands = search.candidate_roots(d)
        for _ in range(per_diagram):
            sigma = []
            for _ in range(rng.randint(0, 4)):
                kind = rng.random()
                if kind < 0.6:
                    sigma.append(rng.choice(cands))
                elif kind < 0.8:
                    w = tuple(rng.randint(-1, 2) for _ in range(n))
                    sigma += [w] if any(w) else []    # zero is no root
                else:
                    i = rng.randrange(n)
                    sigma.append(tuple(2 * (k == i) for k in range(n)))
            sp = {i for i in range(n) if rng.random() < 0.25}
            if rng.random() < 0.5:
                sp = {i for i in sp if rng.random() < 0.2}
                for g in sigma:
                    traces = rankone.admissible_traces(d, g)
                    if traces:
                        sp |= rng.choice(sorted(traces, key=sorted))
            yield SphericalSystem(d, sp, sigma)


def test_validate_matches_oracle_on_random_corpus():
    fired = dict.fromkeys(("trace", "parabolic-pairing"), 0)
    for sys in random_systems(20261018, 600):
        report = sys.validate().to_json()
        assert json.dumps(report) == json.dumps(
            oracle_validate(sys).to_json()), sys
        for key, value in report.items():
            fired[key] = fired.get(key, 0) + bool(value)
        for entry in report["rank_one"]:
            fired[entry["reason"]] += 1
    # the corpus reaches every branch of the report, valid systems included
    assert all(fired.values()), fired


@pytest.mark.parametrize("seed", [20261018, 20261019])
def test_report_is_ok_exactly_when_no_layer_faults(seed):
    # the search's final gate reads the two layers raw: a system passes it
    # exactly when its formatted report is ok
    seen = set()
    for sys in random_systems(seed, 600):
        d, sp, sigma = sys.diagram, sys.sp, sys.sigma
        roots = tuple(root_facts(d, g) for g in sigma)
        silent = (not sigma_faults(sigma, roots)
                  and next(rank_one_faults(sp, sigma, roots), None) is None)
        assert validation_report(d, sp, sigma).ok == silent, sys
        seen.add(silent)
    assert seen == {True, False}


@pytest.mark.parametrize("seed,digest", [
    (20261018,
     "311cb18b9685e31a1aaad78fd1baf55f963f1f74b2caeba1165e21777ac7c829"),
    (20261019,
     "1f6a5b7ffc63163a45d19ff1ddbf5bdec75505543375869e8619ce2099e99664"),
])
def test_gate_records_are_pinned(seed, digest):
    # sha256 over the raw records the final gate reads, recorded before the
    # gate's fault-free path was made cheap: the records and their order
    text, kinds = [], set()
    for sys in random_systems(seed, 600):
        roots = tuple(root_facts(sys.diagram, g) for g in sys.sigma)
        faults = sigma_faults(sys.sigma, roots)
        text += [repr(faults),
                 repr(list(pairwise_faults(sys.sigma, roots)))]
        kinds |= {f[0] for f in faults}
    assert kinds == {"doubled", "orthogonal", "simple", "repeated",
                     "dependent"}
    assert hashlib.sha256("\n".join(text).encode()).hexdigest() == digest


# the oracle diagrams and products whose roots mostly have disjoint supports
ROOT_LIST_DIAGRAMS = ORACLE_DIAGRAMS + ("A1,A1,A1,A1,A1,A1", "A2,A2,A2",
                                        "A1,A2,B2,G2", "G2,G2,G2")


def random_root_lists(seed, per_diagram):
    """(diagram, root list) pairs of 0-6 weights: candidate roots, stray
    weights (coefficients -1..2), doubled simple roots, an earlier weight
    again, the sum of two earlier ones (a dependent list) and, rarely, the
    zero weight, which no system holds but sigma_faults still answers."""
    rng = random.Random(seed)
    for spec in ROOT_LIST_DIAGRAMS:
        d = parse_diagram(spec)
        n = d.n_nodes
        cands = search.candidate_roots(d)
        for _ in range(per_diagram):
            sigma = []
            for _ in range(rng.randint(0, 6)):
                kind = rng.random()
                if kind < 0.5 or not sigma:
                    sigma.append(rng.choice(cands))
                elif kind < 0.62:
                    sigma.append(tuple(rng.randint(-1, 2) for _ in range(n)))
                elif kind < 0.74:
                    i = rng.randrange(n)
                    sigma.append(tuple(2 * (k == i) for k in range(n)))
                elif kind < 0.84:
                    sigma.append(rng.choice(sigma))
                elif kind < 0.97:
                    g, h = rng.choice(sigma), rng.choice(sigma)
                    sigma.append(tuple(a + b for a, b in zip(g, h)))
                else:
                    sigma.append((0,) * n)
            yield d, tuple(sigma)


def test_gate_records_on_root_lists_are_pinned():
    # sha256 over the sigma_faults and pairwise_faults records of a root
    # list corpus and of the walk table's pass over every candidate,
    # recorded before the gate's independence and pair-root shortcuts
    text, kinds, shapes = [], set(), set()
    for d, sigma in random_root_lists(20261020, 400):
        roots = tuple(root_facts(d, g) for g in sigma)
        faults = sigma_faults(sigma, roots)
        text += [repr(faults), repr(list(pairwise_faults(sigma, roots)))]
        kinds |= {f[0] for f in faults}
        supports = [f.support for f in roots]
        disjoint = sum(map(len, supports)) == len(frozenset().union(
            *supports)) and all(supports)
        shapes.add((disjoint, ("dependent",) in faults))
    assert kinds == {"doubled", "orthogonal", "simple", "repeated",
                     "dependent"}
    # disjoint supports are never dependent; overlapping ones may be either
    assert shapes == {(True, False), (False, False), (False, True)}
    for spec in ROOT_LIST_DIAGRAMS + ("B4", "C4", "F4,F4", "D5"):
        cands, facts, _, _ = search._walk_table(parse_diagram(spec))
        text.append(repr(list(pairwise_faults(cands, facts))))
    assert hashlib.sha256("\n".join(text).encode()).hexdigest() == (
        "e1f357efe48f7e4ba3d7ae2e1c33cf6867d53e946650a219f1f34073a8fa593f")


@st.composite
def _root_list(draw):
    """(n, vectors): up to 6 integer vectors of length n, mostly sparse, so
    that disjoint supports are common, with an earlier vector repeated or
    the zero vector added now and then."""
    n = draw(st.integers(1, 6))
    entry = st.sampled_from((0, 0, 0, 0, -2, -1, 1, 2))
    vectors = draw(st.lists(
        st.lists(entry, min_size=n, max_size=n).map(tuple), max_size=6))
    extra = draw(st.sampled_from(("none", "repeat", "zero")))
    if extra == "repeat" and vectors:
        vectors.append(draw(st.sampled_from(vectors)))
    elif extra == "zero":
        vectors.insert(draw(st.integers(0, len(vectors))), (0,) * n)
    return n, vectors


@settings(max_examples=400, deadline=None)
@given(_root_list())
@example((3, [(1, 0, 0), (0, 2, -1)]))               # disjoint supports
@example((3, [(1, 1, 0), (0, 1, 1), (1, 0, -1)]))    # overlapping, dependent
@example((2, [(1, 0), (1, 0)]))                      # a repeated vector
@example((2, [(0, 0), (0, 1)]))                      # the zero vector
def test_disjoint_supports_decide_independence(case):
    # sigma_faults asks rank only when two supports overlap or one is
    # empty; whether it asks or not, its verdict is rank(v) == len(v)
    n, vectors = case
    d = parse_diagram(f"A{n}")
    sigma = tuple(vectors)
    roots = tuple(root_facts(d, g) for g in sigma)
    asked = []

    def counted(rows):
        asked.append(rows)
        return rank(rows)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(system, "rank", counted)
        faults = sigma_faults(sigma, roots)
    independent = rank(sigma) == len(sigma)
    assert (("dependent",) not in faults) == independent
    # the repeat scan, skipped with the rank, misses no repeated vector
    assert [f for f in faults if f[0] == "repeated"] == [
        ("repeated", sigma.index(g), k) for k, g in enumerate(sigma)
        if sigma.index(g) < k]
    # the shortcut, taken, says independent
    assert asked or independent
    supports = [support(g) for g in sigma]
    overlap = any(a & b for a, b in itertools.combinations(supports, 2))
    assert bool(asked) == (overlap or not all(supports))


def test_root_facts():
    d = parse_diagram("A1,A3")
    f = root_facts(d, (0, 1, 1, 0))
    assert f.support == {1, 2}
    assert f.pairings == (0, 1, 1, -1)
    assert f.paired == {3}
    assert f.traces == rankone.admissible_traces(d, (0, 1, 1, 0))
    assert (f.simple, f.doubled, f.pair) == (None, None, None)
    assert f.odd_or_positive == {1, 2, 3}
    # 2*alpha_1 pairs 4 with alpha_1, its own doubled node
    assert root_facts(d, [2, 0, 0, 0]).doubled == 0
    assert root_facts(d, [2, 0, 0, 0]).odd_or_positive == frozenset()
    assert root_facts(d, [0, 2, 2, 0]).odd_or_positive == {1, 2}
    assert root_facts(d, (1, 0, 1, 0)).pair == (0, 2)
    # a weight no rank-one row realizes has no trace and is not kept
    stray = root_facts(d, (0, 1, -1, 2))
    assert stray.traces == frozenset()
    assert stray.pairings == tuple(d.pairing_weight(i, (0, 1, -1, 2))
                                   for i in range(4))


def test_root_masks_match_their_sets():
    # the gate's bitmask screens read the same nodes as the sets beside
    # them, on every candidate root of rank <= 6 and on stray and zero
    # weights
    def mask(nodes):
        return sum(1 << i for i in nodes)

    weights = [(d, g) for spec in diagrams_up_to_rank(6)
               for d in [parse_diagram(spec)]
               for g in search.candidate_roots(d)]
    weights += [(d, g) for seed in (1, 2)
                for d, sigma in random_root_lists(seed, 30) for g in sigma]
    assert any(not any(g) for _, g in weights)
    assert any(not root_facts(d, g).traces for d, g in weights)
    assert any(root_facts(d, g).doubled is not None for d, g in weights)
    for d, g in weights:
        f = root_facts(d, g)
        assert f.support_mask == mask(f.support), (d.spec(), g)
        assert f.unfit_mask == mask(f.odd_or_positive), (d.spec(), g)
        assert f.doubled_bit == (0 if f.doubled is None
                                 else 1 << f.doubled), (d.spec(), g)


def test_reports_sharing_a_root_tuple_are_separate():
    # a repeated simple root breaks three sigma-only axioms; two reports on
    # one root tuple must not share their entries
    sigma = [(1, 0, 0), (1, 0, 0), (0, 2, 0)]
    first, second = make("B3", set(), sigma), make("B3", {2}, sigma)
    a, b = first.validate(), second.validate()
    for field_name in ("pairwise_doubled", "pairwise_orthogonal",
                       "simple_roots", "duplicates"):
        x, y = getattr(a, field_name), getattr(b, field_name)
        assert x is not y, field_name
        assert all(e is not f for e, f in zip(x, y)), field_name
    assert a.simple_roots and a.duplicates and a.pairwise_doubled
    want = oracle_validate(second).to_json()
    a.duplicates.clear()
    a.simple_roots[0]["gamma"].append(9)
    a.pairwise_doubled.append("junk")
    assert b.to_json() == want
    third = make("B3", {1}, sigma).validate().to_json()
    assert third == oracle_validate(make("B3", {1}, sigma)).to_json()


def test_same_sigma_on_two_diagrams_gets_each_own_report():
    # <alpha_2^vee, alpha_3> is -1 on B3 but -2 on C3, so the doubled root
    # 2*alpha_2 breaks the pairwise axiom only on B3
    sigma = ((0, 2, 0), (0, 0, 1))
    reports = {}
    for spec in ("B3", "C3", "B3"):
        sys = make(spec, set(), sigma)
        reports[spec] = sys.validate().to_json()
        assert reports[spec] == oracle_validate(sys).to_json(), spec
    assert reports["B3"]["pairwise_doubled"]
    assert not reports["C3"]["pairwise_doubled"]
