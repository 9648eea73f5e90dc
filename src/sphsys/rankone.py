"""The table of rank-one behaviours and their embeddings into a diagram.

Each row describes one admissible weight on a connected support of a fixed
type, together with the exact set of support nodes that must sit inside the
parabolic part (its trace).  Embedding a row means choosing an induced
subdiagram of the ambient diagram isomorphic to the row's support type,
numbered by sphsys.dynkin.bourbaki_orders, and transporting weight and trace
along the identification.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache

from sphsys.dynkin import Diagram, bourbaki_orders

Row = namedtuple("Row", "base family min_rank max_rank coeffs trace")

# Order matters: when two rows embed with identical weight and trace the
# first one names the embedding.
ROWS = (
    Row("a", "A", 2, None, lambda n: (1,) * n,
        lambda n: frozenset(range(2, n))),
    Row("a'", "A", 1, 1, lambda n: (2,), lambda n: frozenset()),
    Row("aa", "AA", 1, 1, None, None),
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

# Low-rank coincidences, kept as data so classification can report them.
ALIASES = {
    "d(2)": "aa(1,1)",
    "b'(1)": "a'(1)",
    "c*(2)": "b*(2)",
    "c(2)": "b(2)",
}


def display_label(base: str, n: int) -> str:
    return "aa(1,1)" if base == "aa" else f"{base}({n})"


def _connected_subsets(d: Diagram):
    found = set()
    frontier = [frozenset([i]) for i in range(d.n_nodes)]
    found.update(frontier)
    while frontier:
        nxt = []
        for s in frontier:
            for i in s:
                for j in range(d.n_nodes):
                    if j not in s and d.adjacent(i, j):
                        t = s | {j}
                        if t not in found:
                            found.add(t)
                            nxt.append(t)
        frontier = nxt
    return found


def _segments(d: Diagram):
    segs: dict[tuple[str, int], list[tuple[int, ...]]] = {}
    for subset in sorted(_connected_subsets(d), key=sorted):
        for fam, rank, order in bourbaki_orders(d, subset):
            segs.setdefault((fam, rank), []).append(order)
    return {k: tuple(v) for k, v in segs.items()}


@lru_cache(maxsize=None)
def rank1_embeddings(d: Diagram):
    """All (label, weight, trace) triples realizable on the diagram.

    Duplicate (weight, trace) pairs from symmetric orderings are emitted
    once, labelled by the first matching row.
    """
    segs = _segments(d)
    n_amb = d.n_nodes
    seen = {}
    order = []
    for row in ROWS:
        if row.family == "AA":
            for i in range(n_amb):
                for j in range(i + 1, n_amb):
                    if d.orthogonal(i, j):
                        w = tuple(int(k in (i, j)) for k in range(n_amb))
                        key = (w, frozenset())
                        if key not in seen:
                            seen[key] = "aa(1,1)"
                            order.append(key)
            continue
        for (fam, rank), orderings in segs.items():
            if fam != row.family or rank < row.min_rank:
                continue
            if row.max_rank is not None and rank > row.max_rank:
                continue
            coeffs = row.coeffs(rank)
            tr = row.trace(rank)
            for nodes in orderings:
                w = [0] * n_amb
                for pos, c in enumerate(coeffs):
                    w[nodes[pos]] = c
                key = (tuple(w), frozenset(nodes[p - 1] for p in tr))
                if key not in seen:
                    seen[key] = display_label(row.base, rank)
                    order.append(key)
    return tuple((seen[k], k[0], k[1]) for k in order)


@lru_cache(maxsize=None)
def _tables(d: Diagram):
    traces: dict[tuple, set] = {}
    labels: dict[tuple, str] = {}
    for label, w, t in rank1_embeddings(d):
        traces.setdefault(w, set()).add(t)
        labels[(w, t)] = label
    return traces, labels


def admissible_traces(d: Diagram, weight) -> frozenset:
    """Traces under which the weight is a realizable rank-one behaviour."""
    return frozenset(_tables(d)[0].get(tuple(weight), ()))


def rank1_label(d: Diagram, weight, trace) -> str | None:
    return _tables(d)[1].get((tuple(weight), frozenset(trace)))


def row_catalog(label: str | None = None, rank: int | None = None):
    """Rows of the table as plain dicts, each instantiated on its own support."""
    out = []
    for row in ROWS:
        if row.family == "AA":
            entry = {
                "label": "aa(1,1)",
                "support": "A1,A1",
                "rank_constraint": "n=1",
                "weight": [1, 1],
                "trace": [],
            }
            if label in (None, "aa(1,1)", "aa"):
                out.append(entry)
            continue
        lo = row.min_rank
        hi = row.max_rank
        n = rank if rank is not None else lo
        if n < lo or (hi is not None and n > hi):
            continue
        disp = display_label(row.base, n)
        if label is not None and label not in (disp, row.base):
            continue
        constraint = f"n={lo}" if hi == lo else f"n>={lo}"
        out.append({
            "label": disp,
            "support": f"{row.family}{n}",
            "rank_constraint": constraint,
            "weight": list(row.coeffs(n)),
            "trace": sorted(row.trace(n)),
        })
    return out
