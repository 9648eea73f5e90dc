import hashlib
import json
import pickle

import pytest

from sphsys.budget import BudgetExceeded
from sphsys.dynkin import (MAX_RANK, Diagram, DiagramError, bourbaki_orders,
                           parse_diagram, pieces, support)
from test_acceptance import diagrams_up_to_rank


def test_parse_and_canonicalize():
    assert parse_diagram("B3").components == (("B", 3),)
    assert parse_diagram("f4,F4").components == (("F", 4), ("F", 4))
    assert Diagram([("B", 1)]).components == (("A", 1),)
    assert Diagram([("C", 2)]).components == (("B", 2),)
    assert Diagram([("C", 1)]).components == (("A", 1),)
    assert Diagram([("D", 2)]).components == (("A", 1), ("A", 1))
    assert Diagram([("D", 3)]).components == (("A", 3),)
    # sorting makes order irrelevant
    assert Diagram([("C", 3), ("A", 1)]) == parse_diagram("A1,C3")


@pytest.mark.parametrize("bad", ["E5", "E9", "F5", "G3", "H2", "A0", "A²"])
def test_rejects_non_diagrams(bad):
    with pytest.raises(DiagramError):
        parse_diagram(bad)


def test_cartan_conventions():
    b3 = parse_diagram("B3")
    # alpha_3 short: its coroot pairs -2 with alpha_2
    assert b3.cartan[2][1] == -2 and b3.cartan[1][2] == -1
    c3 = parse_diagram("C3")
    assert c3.cartan[1][2] == -2 and c3.cartan[2][1] == -1
    g2 = parse_diagram("G2")
    assert g2.cartan == ((2, -3), (-1, 2))
    f4 = parse_diagram("F4")
    assert f4.cartan[2][1] == -2 and f4.cartan[1][2] == -1
    assert f4.cartan[0][1] == f4.cartan[1][0] == -1
    assert f4.cartan[2][3] == f4.cartan[3][2] == -1
    b2 = parse_diagram("B2")
    assert b2.cartan[1][0] == -2 and b2.cartan[0][1] == -1


def test_e_series_shape():
    e6 = parse_diagram("E6")
    # branch node is alpha_4, attached to 2, 3 and 5
    adj4 = [j for j in range(6) if e6.adjacent(3, j)]
    assert adj4 == [1, 2, 4]
    assert e6.adjacent(0, 2) and not e6.adjacent(0, 1)
    e8 = parse_diagram("E8")
    assert e8.adjacent(6, 7)


def test_node_addressing():
    d = parse_diagram("A1,C3")
    assert d.nodes == ((0, 1), (1, 1), (1, 2), (1, 3))
    assert d.node_index("1.2") == 2
    assert d.node_id(0) == "0.1"
    assert list(d.component_nodes(1)) == [1, 2, 3]
    with pytest.raises(DiagramError):
        d.node_index("2.1")


# closure must reproduce the classical positive root counts
@pytest.mark.parametrize("spec,count", [
    ("A1", 1), ("A4", 10), ("B2", 4), ("B4", 16), ("C3", 9), ("C5", 25),
    ("D4", 12), ("D5", 20), ("E6", 36), ("E7", 63), ("E8", 120),
    ("F4", 24), ("G2", 6), ("A2,B2", 7),
])
def test_positive_root_counts(spec, count):
    assert len(parse_diagram(spec).positive_roots) == count


def test_g2_positive_roots_exact():
    g2 = parse_diagram("G2")
    assert set(g2.positive_roots) == {
        (1, 0), (0, 1), (1, 1), (2, 1), (3, 1), (3, 2)}


@pytest.mark.parametrize("spec,weights", [
    ("A2", (1, 1)), ("B3", (2, 2, 1)), ("C3", (1, 1, 2)), ("G2", (1, 3)),
    ("F4", (2, 2, 1, 1)), ("A1,B2", (2, 2, 1)), ("C3,G2", (1, 1, 2, 1, 3)),
])
def test_symmetrizers_are_least_integers(spec, weights):
    d = parse_diagram(spec)
    assert d.symmetrizers == weights
    n = d.n_nodes
    assert all(d.symmetrizers[i] * d.cartan[i][j]
               == d.symmetrizers[j] * d.cartan[j][i]
               for i in range(n) for j in range(n))
    assert type(d.inner(d.positive_roots[-1], d.positive_roots[0])) is int


# sha256 of the repr of (spec, symmetrizers, inner products of every
# positive root with the highest root) over the 472 diagrams of rank <= 8,
# recorded with the former symmetrizer search that rescaled the weights
# edge by edge
SYMMETRIZER_DIGEST = (
    "b96ab3b9fc8ddfd7d9e6b7b7f37175fabcc06b9358b86bbe82dc67132d19d4ec")


def test_symmetrizers_and_inner_pinned():
    out = []
    for spec in diagrams_up_to_rank(8):
        d = parse_diagram(spec)
        top = d.positive_roots[-1]
        out.append((spec, d.symmetrizers,
                    [d.inner(r, top) for r in d.positive_roots]))
    assert len(out) == 472
    assert hashlib.sha256(repr(out).encode()).hexdigest() == SYMMETRIZER_DIGEST


def test_pairing_weight():
    g2 = parse_diagram("G2")
    gamma = (2, 1)
    assert g2.pairing_weight(0, gamma) == 1
    assert g2.pairing_weight(1, gamma) == 0
    f4 = parse_diagram("F4")
    gamma = (1, 2, 3, 2)
    assert [f4.pairing_weight(i, gamma) for i in range(4)] == [0, 0, 0, 1]


def test_dim_flag():
    b3 = parse_diagram("B3")
    # roots using alpha_1: 2n-1 = 5
    assert b3.dim_flag({1, 2}) == 5
    a4 = parse_diagram("A4")
    assert a4.dim_flag(set()) == 10
    assert a4.dim_flag({0, 1, 2, 3}) == 0


def test_dim_flag_reads_nodes_through_node_index():
    # other node forms agree with the indices, and a stray node raises
    b3 = parse_diagram("B3")
    assert b3.dim_flag(["0.2", (0, 3)]) == 5
    for stray in ([7], [-1], [True]):
        with pytest.raises(DiagramError):
            b3.dim_flag(stray)


def test_automorphism_counts():
    assert len(parse_diagram("A1").automorphisms) == 1
    assert len(parse_diagram("A3").automorphisms) == 2
    assert len(parse_diagram("B3").automorphisms) == 1
    assert len(parse_diagram("D4").automorphisms) == 6
    assert len(parse_diagram("D5").automorphisms) == 2
    assert len(parse_diagram("E6").automorphisms) == 2
    assert len(parse_diagram("E7").automorphisms) == 1
    assert len(parse_diagram("A2,A2").automorphisms) == 8
    assert len(parse_diagram("A1,A1").automorphisms) == 2
    assert len(parse_diagram("E8").automorphisms) == 1
    assert len(parse_diagram("D8").automorphisms) == 2
    assert len(parse_diagram("D4,D4").automorphisms) == 72
    assert len(parse_diagram("F4,F4").automorphisms) == 2
    assert len(parse_diagram("G2,G2,G2").automorphisms) == 6


def test_automorphism_list_is_budgeted(monkeypatch):
    # the count is known before any permutation is listed: A1x10 has 10!
    monkeypatch.delenv("SPHSYS_MAX_STATES", raising=False)
    spec = ",".join(["A1"] * 10)
    with pytest.raises(BudgetExceeded) as err:
        parse_diagram(spec).automorphisms
    e = err.value
    assert str(e) == f"{spec} has 3628800 automorphisms (cap 1000000)"
    assert (e.layer, e.count, e.cap, e.input) == (
        "automorphisms", 3628800, 1000000, spec)
    # the cap is inclusive: two runs of two A3s have 2! * 2! * 2**4 = 64
    monkeypatch.setenv("SPHSYS_MAX_STATES", "64")
    assert len(parse_diagram("A3,A3,D5,D5").automorphisms) == 64
    monkeypatch.setenv("SPHSYS_MAX_STATES", "63")
    with pytest.raises(BudgetExceeded) as err:
        parse_diagram("A3,A3,D5,D5").automorphisms
    assert (err.value.count, err.value.cap) == (64, 63)


def test_automorphisms_preserve_cartan():
    for spec in ("A3", "D4", "E6", "E7", "A2,A2", "A1,C3", "D4,D4"):
        d = parse_diagram(spec)
        n = d.n_nodes
        for perm in d.automorphisms:
            for i in range(n):
                for j in range(n):
                    assert d.cartan[perm[i]][perm[j]] == d.cartan[i][j]


def test_permute_weight():
    a3 = parse_diagram("A3")
    flip = [p for p in a3.automorphisms if p != (0, 1, 2)][0]
    assert a3.permute_weight(flip, (1, 0, 0)) == (0, 0, 1)
    assert a3.permute_weight(flip, (1, 2, 1)) == (1, 2, 1)


def test_json_roundtrip():
    d = parse_diagram("A1,C3")
    assert Diagram.from_json(d.to_json()) == d
    assert d.to_json() == {"components": [
        {"family": "A", "rank": 1}, {"family": "C", "rank": 3}]}
    assert Diagram.from_json(json.dumps(d.to_json())) == d


def test_parse_accepts_pairs_and_names_d1():
    assert parse_diagram([("B", 3)]) == parse_diagram("B3")
    with pytest.raises(DiagramError, match="D1 is not a Dynkin component"):
        parse_diagram("D1")


def test_derived_data_is_computed_once_and_read_only():
    d = parse_diagram("B3")
    assert d.cartan is d.cartan
    assert d.automorphisms is d.automorphisms
    with pytest.raises(AttributeError, match="immutable"):
        d.cartan = ((2,),)
    with pytest.raises(AttributeError, match="immutable"):
        d.components = ()
    assert d.cartan[2][1] == -2 and d.components == (("B", 3),)
    # no slots: copies and pickles restore the instance dict as it is
    assert pickle.loads(pickle.dumps(d)) == d


def test_support():
    assert support((0, 2, 1, 0)) == {1, 2}


def test_pieces_in_order_of_first_item():
    d = parse_diagram("A5")
    assert pieces([4, 0, 1, 3], d.adjacent) == [{3, 4}, {0, 1}]
    assert pieces([0, 2, 4], d.adjacent) == [{0}, {2}, {4}]
    assert pieces([], d.adjacent) == []


def test_bourbaki_orders_of_subdiagrams():
    e8 = parse_diagram("E8")
    assert bourbaki_orders(e8, range(7)) == [("E", 7, tuple(range(7)))]
    assert bourbaki_orders(e8, range(8)) == [("E", 8, tuple(range(8)))]
    # E6 inside E8 and its flip
    assert bourbaki_orders(e8, range(6)) == [
        ("E", 6, (0, 1, 2, 3, 4, 5)), ("E", 6, (5, 1, 4, 3, 2, 0))]
    # a tail of C4 is B2 numbered from its long node, never C2
    c4 = parse_diagram("C4")
    assert bourbaki_orders(c4, {2, 3}) == [("B", 2, (3, 2))]
    assert bourbaki_orders(c4, {1, 2, 3}) == [("C", 3, (1, 2, 3))]
    # F4's nodes 2,3,4 form C3 numbered from node 4
    f4 = parse_diagram("F4")
    assert bourbaki_orders(f4, {1, 2, 3}) == [("C", 3, (3, 2, 1))]
    assert bourbaki_orders(parse_diagram("A3"), {0, 1, 2}) == [
        ("A", 3, (0, 1, 2)), ("A", 3, (2, 1, 0))]
    assert len(bourbaki_orders(parse_diagram("D4"), range(4))) == 6
    assert bourbaki_orders(parse_diagram("G2"), {0, 1}) == [
        ("G", 2, (0, 1))]


@pytest.mark.parametrize("data", [
    {"components": [1]}, [], {"components": {}}, {"components": None},
    {"components": [{"family": 3, "rank": 3}]},
    {"components": [{"family": "B"}]},
    {"components": [{"family": "B", "rank": None}]},
])
def test_from_json_rejects_malformed(data):
    with pytest.raises(DiagramError):
        Diagram.from_json(data)


@pytest.mark.parametrize("family,rank", [("A", True), ("A", 2.7),
                                         ("B", "3")])
def test_constructor_rejects_non_integer_rank(family, rank):
    # the JSON boundary already refuses these; API callers must not slip by
    with pytest.raises(DiagramError, match=repr(rank)):
        Diagram([(family, rank)])


def test_rank_cap():
    assert parse_diagram(f"A{MAX_RANK}").n_nodes == MAX_RANK
    assert parse_diagram(f"D4,A{MAX_RANK - 4}").n_nodes == MAX_RANK
    too_big = MAX_RANK + 1
    for spec in (f"A{too_big}", f"D4,A{too_big - 4}",
                 ",".join(["A1"] * too_big)):
        with pytest.raises(DiagramError, match=f"rank {too_big} .* cap"):
            parse_diagram(spec)
    with pytest.raises(DiagramError, match="rank 500"):
        Diagram.from_json({"components": [{"family": "C", "rank": 500}]})


# (0, True) equals and hashes like the node (0, 1)
@pytest.mark.parametrize("node", [None, 1.5, [[0, 1]], "0.9", (0, 0), 3,
                                  "x", "a.b", "0.1.2", (0, True)])
def test_node_index_rejects_bad_references(node):
    with pytest.raises(DiagramError, match="no node"):
        parse_diagram("B3").node_index(node)


def test_repr_names_the_spec():
    assert repr(parse_diagram("B3")) == "Diagram('B3')"
