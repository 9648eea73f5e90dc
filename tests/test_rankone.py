import hashlib

import pytest

from sphsys.dynkin import parse_diagram, support
from sphsys.rankone import (ALIASES, admissible_traces, rank1_embeddings,
                            rank1_label, row_catalog)
from test_acceptance import diagrams_up_to_rank


def embeddings(spec):
    return rank1_embeddings(parse_diagram(spec))


def test_g2_embeddings():
    got = {(lbl, w, t) for lbl, w, t in embeddings("G2")}
    assert got == {
        ("a'(1)", (2, 0), frozenset()),
        ("a'(1)", (0, 2), frozenset()),
        ("g(2)", (2, 1), frozenset({1})),
        ("g'(2)", (4, 2), frozenset({1})),
        ("g*(2)", (1, 1), frozenset()),
    }


def test_a2_embeddings():
    got = {(lbl, w, t) for lbl, w, t in embeddings("A2")}
    assert got == {
        ("a(2)", (1, 1), frozenset()),
        ("a'(1)", (2, 0), frozenset()),
        ("a'(1)", (0, 2), frozenset()),
    }


def test_b2_embeddings():
    got = {(lbl, w, t) for lbl, w, t in embeddings("B2")}
    assert got == {
        ("a'(1)", (2, 0), frozenset()),
        ("a'(1)", (0, 2), frozenset()),
        ("b(2)", (1, 1), frozenset({1})),
        ("b'(2)", (2, 2), frozenset({1})),
        ("b*(2)", (1, 1), frozenset()),
    }


def test_b3_embedding_count_and_key_rows():
    got = embeddings("B3")
    assert len(got) == 12
    d = parse_diagram("B3")
    assert rank1_label(d, (1, 1, 1), {1, 2}) == "b(3)"
    assert rank1_label(d, (1, 1, 1), {1}) == "b*(3)"
    assert rank1_label(d, (1, 2, 3), {0, 1}) == "b**(3)"
    assert rank1_label(d, (2, 2, 2), {1, 2}) == "b'(3)"
    assert rank1_label(d, (1, 0, 1), set()) == "aa(1,1)"
    assert rank1_label(d, (1, 1, 1), set()) is None


# recorded before the subdiagram numbering moved into sphsys.dynkin
@pytest.mark.parametrize("spec,count", [
    ("E6", 41), ("E7", 55), ("E8", 71), ("D8", 71), ("B8", 77), ("C8", 70),
    ("F4,F4", 54),
])
def test_embedding_counts(spec, count):
    assert len(embeddings(spec)) == count


def test_c3_orientation():
    d = parse_diagram("C3")
    # B2 sits at the far end with reversed numbering: alpha_2 is its long node
    assert rank1_label(d, (0, 1, 1), {1}) == "b(2)"
    assert rank1_label(d, (0, 1, 1), set()) == "b*(2)"
    assert rank1_label(d, (1, 2, 1), {0, 2}) == "c(3)"
    assert rank1_label(d, (1, 2, 1), {2}) == "c*(3)"
    assert admissible_traces(d, (1, 2, 1)) == {frozenset({0, 2}),
                                               frozenset({2})}


def test_a3_d3_row():
    d = parse_diagram("A3")
    assert rank1_label(d, (1, 2, 1), {0, 2}) == "d(3)"
    assert rank1_label(d, (1, 1, 1), {1}) == "a(3)"


def test_d4_rows():
    d = parse_diagram("D4")
    assert rank1_label(d, (2, 2, 1, 1), {1, 2, 3}) == "d(4)"
    # the short d-row fits along every path through the centre
    assert rank1_label(d, (1, 2, 1, 0), {0, 2}) == "d(3)"
    assert rank1_label(d, (0, 2, 1, 1), {2, 3}) == "d(3)"
    assert rank1_label(d, (1, 2, 0, 1), {0, 3}) == "d(3)"


def test_f4_rows():
    d = parse_diagram("F4")
    assert rank1_label(d, (1, 2, 3, 2), {0, 1, 2}) == "f(4)"
    # induced C3 on nodes 2,3,4 is numbered from node 4
    assert rank1_label(d, (0, 1, 2, 1), {1, 3}) == "c(3)"
    assert rank1_label(d, (0, 1, 2, 1), {1}) == "c*(3)"
    assert rank1_label(d, (1, 2, 3, 0), {0, 1}) == "b**(3)"
    assert rank1_label(d, (1, 1, 0, 0), set()) == "a(2)"


def test_e6_segments():
    d = parse_diagram("E6")
    # a(5) along the path avoiding the short arm
    w = (1, 0, 1, 1, 1, 1)
    assert rank1_label(d, w, {2, 3, 4}) == "a(5)"
    # d(5) with the doubled part running into the branch
    assert rank1_label(d, (2, 1, 2, 2, 1, 0), {1, 2, 3, 4}) == "d(5)"


def test_cross_component_pairs():
    d = parse_diagram("A1,A1")
    assert rank1_label(d, (1, 1), set()) == "aa(1,1)"
    d2 = parse_diagram("A1,C3")
    assert rank1_label(d2, (1, 1, 0, 0), set()) == "aa(1,1)"


def test_traces_inside_support():
    for spec in ("B3", "C3", "D4", "F4", "G2", "E6", "A1,C3"):
        d = parse_diagram(spec)
        for label, w, t in rank1_embeddings(d):
            assert t <= support(w), (spec, label)


def test_aliases_table():
    assert ALIASES["d(2)"] == "aa(1,1)"
    assert ALIASES["b'(1)"] == "a'(1)"
    assert ALIASES["c*(2)"] == "b*(2)"


def test_row_catalog():
    rows = row_catalog()
    assert len(rows) == 15
    byl = {r["label"]: r for r in rows}
    assert byl["b*(2)"]["trace"] == []
    assert byl["b(2)"]["trace"] == [2]
    assert byl["c(3)"]["weight"] == [1, 2, 1]
    only = row_catalog(label="f")
    assert len(only) == 1 and only[0]["support"] == "F4"


def test_row_catalog_lists_aa_at_rank_one_only():
    # aa(1,1) exists at rank 1 only, on its disconnected support
    assert row_catalog(label="aa") == [{
        "label": "aa(1,1)", "support": "A1,A1", "rank_constraint": "n=1",
        "weight": [1, 1], "trace": []}]


def test_embeddings_pinned():
    # recorded before aa(1,1) was numbered on orthogonal pairs like the
    # connected rows: every triple and its order are unchanged
    specs = diagrams_up_to_rank(8) + ["A40", "D40", "E8,E8", "B20,C20"]
    text = "\n".join(f"{spec}\t{embeddings(spec)!r}" for spec in specs)
    assert len(specs) == 476
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "17ab5ee5f50783b632bf9804279b7ca7165f97d374188aaf89136e889292fd9f")
