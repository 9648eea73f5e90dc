"""The table of rank-one behaviours and their embeddings into a diagram.

Each row describes one admissible weight on a support of a fixed type,
together with the exact set of support nodes that must sit inside the
parabolic part (its trace).  Embedding a row means choosing an induced
subdiagram of the ambient diagram isomorphic to the row's support type,
numbered by sphsys.dynkin.bourbaki_orders (or, for the A1,A1 support of
aa(1,1), an orthogonal node pair), and transporting weight and trace along
the identification.
"""

from __future__ import annotations

from itertools import combinations
from typing import Callable, NamedTuple

from sphsys.dynkin import Diagram, bourbaki_orders, per_diagram


class Row(NamedTuple):
    base: str
    family: str
    min_rank: int
    max_rank: int | None   # None: no upper bound
    coeffs: Callable       # rank -> the weight's coefficients
    trace: Callable        # rank -> the trace, a frozenset of positions


# Order matters: when two rows embed with identical weight and trace the
# first one names the embedding.
ROWS = (
    Row("a", "A", 2, None, lambda n: (1,) * n,
        lambda n: frozenset(range(2, n))),
    Row("a'", "A", 1, 1, lambda n: (2,), lambda n: frozenset()),
    Row("aa", "AA", 1, 1, lambda n: (1, 1), lambda n: frozenset()),
    Row("d", "A", 3, 3, lambda n: (1, 2, 1), lambda n: frozenset({1, 3})),
    Row("b", "B", 2, None, lambda n: (1,) * n,
        lambda n: frozenset(range(2, n + 1))),
    Row("b'", "B", 2, None, lambda n: (2,) * n,
        lambda n: frozenset(range(2, n + 1))),
    Row("b*", "B", 2, None, lambda n: (1,) * n,
        lambda n: frozenset(range(2, n))),
    Row("b**", "B", 3, 3, lambda n: (1, 2, 3), lambda n: frozenset({1, 2})),
    Row("c", "C", 3, None, lambda n: (1,) + (2,) * (n - 2) + (1,),
        lambda n: frozenset({1}) | frozenset(range(3, n + 1))),
    Row("c*", "C", 3, None, lambda n: (1,) + (2,) * (n - 2) + (1,),
        lambda n: frozenset(range(3, n + 1))),
    Row("d", "D", 4, None, lambda n: (2,) * (n - 2) + (1, 1),
        lambda n: frozenset(range(2, n + 1))),
    Row("f", "F", 4, 4, lambda n: (1, 2, 3, 2),
        lambda n: frozenset({1, 2, 3})),
    Row("g", "G", 2, 2, lambda n: (2, 1), lambda n: frozenset({2})),
    Row("g'", "G", 2, 2, lambda n: (4, 2), lambda n: frozenset({2})),
    Row("g*", "G", 2, 2, lambda n: (1, 1), lambda n: frozenset()),
)

# Low-rank coincidences: each name on the left is no row of the table, and
# rank1_label names its shape by the table row on the right.
ALIASES = {
    "d(2)": "aa(1,1)",
    "b'(1)": "a'(1)",
    "c*(2)": "b*(2)",
    "c(2)": "b(2)",
}


def display_label(base: str, n: int) -> str:
    return "aa(1,1)" if base == "aa" else f"{base}({n})"


def _connected_subsets(d: Diagram):
    adj = [[j for j in range(d.n_nodes) if d.adjacent(i, j)]
           for i in range(d.n_nodes)]
    found = set()
    frontier = [frozenset([i]) for i in range(d.n_nodes)]
    found.update(frontier)
    while frontier:
        nxt = []
        for s in frontier:
            for i in s:
                for j in adj[i]:
                    if j not in s:
                        t = s | {j}
                        if t not in found:
                            found.add(t)
                            nxt.append(t)
        frontier = nxt
    return found


def _segments(d: Diagram):
    """Numberings of the row supports in d, keyed by (family, rank); the
    disconnected support of aa(1,1), family "AA", is each orthogonal pair."""
    segs: dict[tuple[str, int], list[tuple[int, ...]]] = {}
    for subset in sorted(_connected_subsets(d), key=sorted):
        for fam, rank, order in bourbaki_orders(d, subset):
            segs.setdefault((fam, rank), []).append(order)
    segs[("AA", 1)] = [(i, j) for i, j in combinations(range(d.n_nodes), 2)
                       if d.orthogonal(i, j)]
    return segs


@per_diagram
def rank1_embeddings(d: Diagram):
    """All (label, weight, trace) triples realizable on the diagram.

    Duplicate (weight, trace) pairs from symmetric orderings are emitted
    once, labelled by the first matching row.
    """
    segs = _segments(d)
    n_amb = d.n_nodes
    seen = {}
    for row in ROWS:
        for (fam, rank), orderings in segs.items():
            if fam != row.family or rank < row.min_rank:
                continue
            if row.max_rank is not None and rank > row.max_rank:
                continue
            coeffs = row.coeffs(rank)
            tr = row.trace(rank)
            label = display_label(row.base, rank)
            for nodes in orderings:
                w = [0] * n_amb
                for pos, c in enumerate(coeffs):
                    w[nodes[pos]] = c
                key = (tuple(w), frozenset(nodes[p - 1] for p in tr))
                seen.setdefault(key, label)
    return tuple((label, w, t) for (w, t), label in seen.items())


@per_diagram
def _table(d: Diagram):
    """Weight -> {trace: label} over the embeddings of d."""
    table: dict[tuple, dict] = {}
    for label, w, t in rank1_embeddings(d):
        table.setdefault(w, {})[t] = label
    return table


def admissible_traces(d: Diagram, weight) -> frozenset:
    """Traces under which the weight is a realizable rank-one behaviour."""
    return frozenset(_table(d).get(tuple(weight), ()))


def rank1_label(d: Diagram, weight, trace) -> str | None:
    return _table(d).get(tuple(weight), {}).get(frozenset(trace))


def row_catalog(label: str | None = None):
    """Rows of the table as plain dicts, each instantiated on its own support
    at its least rank."""
    out = []
    for row in ROWS:
        lo, hi = row.min_rank, row.max_rank
        disp = display_label(row.base, lo)
        if label is not None and label not in (disp, row.base):
            continue
        # aa(1,1) is the one row whose support is not connected
        support = "A1,A1" if row.base == "aa" else f"{row.family}{lo}"
        out.append({
            "label": disp,
            "support": support,
            "rank_constraint": f"n={lo}" if hi == lo else f"n>={lo}",
            "weight": list(row.coeffs(lo)),
            "trace": sorted(row.trace(lo)),
        })
    return out
