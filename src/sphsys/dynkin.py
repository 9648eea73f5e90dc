"""Dynkin diagrams over the simple families A..G with exact integer Cartan data.

Nodes are addressed as (component, position) pairs with 1-based Bourbaki
positions; internally everything is flattened to 0-based indices into a
block-diagonal Cartan matrix.  Weights (elements of the root lattice) are
plain integer tuples aligned with the node order.
"""

from __future__ import annotations

import itertools
import json
from functools import cached_property, lru_cache
from math import factorial, lcm, prod

from sphsys.budget import BudgetExceeded, max_states
from sphsys.feasible import kernel_vector

_FAMILIES = "ABCDEFG"

# Admissible ranks after canonicalization.
_RANK_RANGE = {
    "A": (1, None),
    "B": (2, None),
    "C": (3, None),
    "D": (4, None),
    "E": (6, 8),
    "F": (4, 4),
    "G": (2, 2),
}

# The largest total node count a diagram may have.  The rank-one table, which
# validation, colours and the search all build, grows about as n^4 on A_n:
# A50 builds in under a second, A100 in about ten.
MAX_RANK = 50

# The one lifetime of every per-diagram table: a benchmark pass cycles through
# at most 31 diagrams, so a warm pass rebuilds nothing; a sweep keeps the last.
per_diagram = lru_cache(maxsize=64)


class DiagramError(ValueError):
    """Component spec outside the simple families, or a bad node reference."""


def _check_rank(rank: int):
    """Raise DiagramError when a diagram of this rank exceeds MAX_RANK."""
    if rank > MAX_RANK:
        raise DiagramError(f"a diagram of rank {rank} exceeds the cap of "
                           f"{MAX_RANK} nodes")


def canonicalize_component(family: str, rank: int) -> list[tuple[str, int]]:
    """Resolve low-rank coincidences to a canonical list of components.

    B1 -> A1, C1 -> A1, C2 -> B2, D2 -> A1 A1, D3 -> A3.
    """
    family = family.upper()
    if family not in _FAMILIES or rank < 1:
        raise DiagramError(f"not a Dynkin component: {family}{rank}")
    if family == "B" and rank == 1:
        return [("A", 1)]
    if family == "C":
        if rank == 1:
            return [("A", 1)]
        if rank == 2:
            return [("B", 2)]
    if family == "D":
        if rank == 2:
            return [("A", 1), ("A", 1)]
        if rank == 3:
            return [("A", 3)]
        if rank == 1:
            raise DiagramError("D1 is not a Dynkin component")
    lo, hi = _RANK_RANGE[family]
    if rank < lo or (hi is not None and rank > hi):
        raise DiagramError(f"not a Dynkin component: {family}{rank}")
    return [(family, rank)]


def _component_cartan(family: str, rank: int) -> list[list[int]]:
    """Cartan matrix A with A[i][j] = <alpha_i^vee, alpha_j>, 0-indexed."""
    n = rank
    a = [[2 * (i == j) for j in range(n)] for i in range(n)]

    def bond(i, j, ij=-1, ji=-1):
        a[i][j] = ij
        a[j][i] = ji

    if family in ("A", "B", "C"):
        for i in range(n - 1):
            bond(i, i + 1)
        if family == "B" and n >= 2:
            # alpha_n short: <alpha_n^vee, alpha_{n-1}> = -2
            bond(n - 2, n - 1, ij=-1, ji=-2)
        if family == "C":
            # alpha_n long: <alpha_{n-1}^vee, alpha_n> = -2
            bond(n - 2, n - 1, ij=-2, ji=-1)
    elif family == "D":
        for i in range(n - 3):
            bond(i, i + 1)
        bond(n - 3, n - 2)
        bond(n - 3, n - 1)
    elif family == "E":
        # chain 1-3-4-5-6(-7-8) plus 2-4, Bourbaki numbering
        chain = [1, 3, 4, 5, 6, 7, 8][: n - 1]
        for u, v in zip(chain, chain[1:]):
            bond(u - 1, v - 1)
        bond(2 - 1, 4 - 1)
    elif family == "F":
        bond(0, 1)
        bond(2, 3)
        # alpha_2 long, alpha_3 short
        bond(1, 2, ij=-1, ji=-2)
    elif family == "G":
        # alpha_1 short, alpha_2 long
        bond(0, 1, ij=-3, ji=-1)
    return a


def _profiles(a, nodes):
    """Per node, the sorted bonds (a[i][j], a[j][i]) to the other nodes and
    the list of those it is bonded to."""
    adj = {i: [j for j in nodes if j != i and a[i][j]] for i in nodes}
    return {i: tuple(sorted((a[i][j], a[j][i]) for j in adj[i]))
            for i in nodes}, adj


@lru_cache(maxsize=MAX_RANK)
def _types(n: int):
    """Per type of rank n in _RANK_RANGE: its family, Cartan matrix,
    positions' profiles, their sorted list, and for each position the
    first earlier one it is bonded to."""
    out = []
    for family, (lo, hi) in _RANK_RANGE.items():
        if lo <= n and (hi is None or n <= hi):
            a = _component_cartan(family, n)
            profiles = list(_profiles(a, range(n))[0].values())
            back = [next((q for q in range(p) if a[p][q]), None)
                    for p in range(n)]
            out.append((family, a, profiles, sorted(profiles), back))
    return out


def bourbaki_orders(d: "Diagram", nodes) -> list:
    """Every Bourbaki numbering of a connected node set of d.

    Sorted (family, rank, order) triples with
    d.cartan[order[i]][order[j]] == _component_cartan(family, rank)[i][j],
    one per automorphism of the type; empty when the nodes form no type of
    _RANK_RANGE.  So B2 is found and C2 is not, and E stops at rank 8.
    """
    nodes = sorted(nodes)
    n = len(nodes)
    a = d.cartan
    profiles, adj = _profiles(a, nodes)
    shape = sorted(profiles.values())
    out = []
    for family, std, std_profiles, std_shape, back in _types(n):
        # Only necessary: a numbering pairs each node's profile with its
        # position's, and the walk below checks every pairing.
        if std_shape != shape:
            continue
        # depth-first over positions; stack[p] yields the nodes to try at
        # position p: all of them, or the neighbours of a bonded earlier one
        order, stack = [], [iter(nodes)]
        while stack:
            v = next(stack[-1], None)
            p = len(order)
            if v is None:
                stack.pop()
                del order[-1:]
            elif not (v in order or profiles[v] != std_profiles[p] or any(
                    a[v][order[q]] != std[p][q] or a[order[q]][v] != std[q][p]
                    for q in range(p))):
                if p + 1 == n:
                    out.append((family, n, (*order, v)))
                else:
                    order.append(v)
                    q = back[p + 1]
                    stack.append(iter(nodes if q is None else adj[order[q]]))
    return sorted(out)


def parse_diagram(spec) -> "Diagram":
    """Build a diagram from 'B3', 'F4,F4' (case-insensitive) or [(family, rank)] pairs."""
    if isinstance(spec, Diagram):
        return spec
    if isinstance(spec, str):
        parts = [p.strip() for p in spec.split(",") if p.strip()]
        comps = []
        for p in parts:
            fam, num = p[:1], p[1:]
            if not num.isdecimal():
                raise DiagramError(f"cannot parse component {p!r}")
            comps.append((fam.upper(), int(num)))
        return Diagram(comps)
    return Diagram(spec)


class Diagram:
    """An immutable finite-type Dynkin diagram, possibly with several components.

    Components are canonicalized (see canonicalize_component) and sorted, so
    two diagrams with the same content compare equal.  At most MAX_RANK
    nodes in all.  Derived data (nodes, Cartan matrix, automorphisms, ...)
    is computed on first read by cached_property, which stores it in the
    instance dict directly and so passes the raising __setattr__.
    """

    def __init__(self, components):
        flat: list[tuple[str, int]] = []
        for fam, rank in components:
            if type(rank) is not int:     # no bool, float or numeral string
                raise DiagramError(f"rank {rank!r} of component {fam!r} "
                                   "is not an integer")
            flat.extend(canonicalize_component(fam, rank))
        flat.sort()
        _check_rank(sum(r for _f, r in flat))
        object.__setattr__(self, "components", tuple(flat))

    def __setattr__(self, name, value):
        raise AttributeError("Diagram is immutable")

    def __eq__(self, other):
        return isinstance(other, Diagram) and self.components == other.components

    def __hash__(self):
        return hash(self.components)

    def __repr__(self):
        return f"Diagram({self.spec()!r})"

    def spec(self) -> str:
        return ",".join(f"{f}{r}" for f, r in self.components)

    # -- nodes -------------------------------------------------------------

    @cached_property
    def nodes(self) -> tuple[tuple[int, int], ...]:
        """All (component, position) pairs in index order."""
        out = []
        for ci, (_f, rank) in enumerate(self.components):
            out.extend((ci, p) for p in range(1, rank + 1))
        return tuple(out)

    @cached_property
    def _index(self) -> dict:
        """Index of each (component, position) pair."""
        return {nd: i for i, nd in enumerate(self.nodes)}

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    def node_index(self, node) -> int:
        """Index of a node given as an index, (ci, pos) or a 'ci.pos' string.
        A bool is no node, though Python counts it as an int."""
        if type(node) is int:
            if 0 <= node < len(self.nodes):
                return node
            raise DiagramError(f"no node {node} in {self.spec()}")
        if isinstance(node, str):
            ci, _, pos = node.partition(".")
            if ci.isdecimal() and pos.isdecimal():
                node = (int(ci), int(pos))
        try:
            if bool in map(type, node):
                raise TypeError
            return self._index[tuple(node)]
        except (KeyError, TypeError):
            raise DiagramError(f"no node {node!r} in {self.spec()}") from None

    def node_id(self, i: int) -> str:
        ci, pos = self.nodes[i]
        return f"{ci}.{pos}"

    def component_nodes(self, ci: int) -> range:
        start = sum(r for _f, r in self.components[:ci])
        return range(start, start + self.components[ci][1])

    # -- Cartan pairings ---------------------------------------------------

    @cached_property
    def cartan(self) -> tuple[tuple[int, ...], ...]:
        """Block-diagonal Cartan matrix, cartan[i][j] = <alpha_i^vee, alpha_j>."""
        n = self.n_nodes
        m = [[0] * n for _ in range(n)]
        off = 0
        for fam, rank in self.components:
            block = _component_cartan(fam, rank)
            for i in range(rank):
                for j in range(rank):
                    m[off + i][off + j] = block[i][j]
            off += rank
        return tuple(tuple(row) for row in m)

    def pairing_weight(self, i: int, w) -> int:
        """<alpha_i^vee, w> for a weight tuple w."""
        row = self.cartan[i]
        return sum(r * c for r, c in zip(row, w) if c)

    def adjacent(self, i: int, j: int) -> bool:
        return i != j and self.cartan[i][j] != 0

    def orthogonal(self, i: int, j: int) -> bool:
        return i != j and self.cartan[i][j] == 0

    @cached_property
    def symmetrizers(self) -> tuple[int, ...]:
        """Least positive integers d_i making (d_i * cartan[i][j]) symmetric
        with one common weight L on the first node of every component.

        The bond equations cartan[i][j] d_i = cartan[j][i] d_j leave a line
        per component, whose diagram is a tree; L is the lcm of the lines'
        first entries, 2 when a B or F component is present, else 1.
        """
        a = self.cartan
        lines = []
        for ci in range(len(self.components)):
            nodes = self.component_nodes(ci)
            bonds = [[a[i][j] * (k == i) - a[j][i] * (k == j) for k in nodes]
                     for i in nodes for j in nodes if i < j and a[i][j]]
            lines.append(kernel_vector(bonds, len(nodes)))
        top = lcm(*(v[0] for v in lines))
        return tuple(top // v[0] * x for v in lines for x in v)

    def inner(self, w1, w2) -> int:
        """Weyl-invariant inner product of two weight tuples, in the scale
        of symmetrizers (L times the one normalised to 1 per component)."""
        d = self.symmetrizers
        return sum(c * d[i] * self.pairing_weight(i, w2)
                   for i, c in enumerate(w1) if c)

    # -- root system -------------------------------------------------------

    @property
    def positive_roots(self) -> tuple[tuple[int, ...], ...]:
        return _positive_roots(self)

    def dim_flag(self, sp) -> int:
        """Number of positive roots whose support is not contained in sp.

        This is the dimension of the flag variety of the parabolic attached
        to the node set sp.  Raises DiagramError on a node not in the diagram.
        """
        sp = frozenset(map(self.node_index, sp))
        count = 0
        for r in self.positive_roots:
            if any(c and i not in sp for i, c in enumerate(r)):
                count += 1
        return count

    # -- automorphisms -----------------------------------------------------

    @cached_property
    def automorphisms(self) -> tuple[tuple[int, ...], ...]:
        """All diagram automorphisms as node-index permutations.

        Includes swaps of isomorphic components composed with the symmetry
        of each component (A_n flip, D_n fork swap, D4 triality, E6 flip),
        read off the Bourbaki orders of the components.  BudgetExceeded
        when they outnumber max_states(), before any is listed.
        """
        # Each component goes onto one of the same type, numbered there in
        # one of that component's Bourbaki orders.
        orders = [[o for _f, _r, o in
                   bourbaki_orders(self, self.component_nodes(ci))]
                  for ci in range(len(self.components))]
        runs = [list(g) for _k, g in itertools.groupby(
            range(len(self.components)), key=self.components.__getitem__)]
        size = prod(map(factorial, map(len, runs))) * prod(map(len, orders))
        if size > (cap := max_states()):
            raise BudgetExceeded(
                f"{self.spec()} has {size} automorphisms (cap {cap})",
                layer="automorphisms", count=size, cap=cap, input=self.spec())
        perms = []
        for targets in itertools.product(*map(itertools.permutations, runs)):
            for pick in itertools.product(
                    *(orders[t] for t in itertools.chain(*targets))):
                perms.append(tuple(itertools.chain(*pick)))
        return tuple(sorted(perms))

    def permute_weight(self, perm, w) -> tuple[int, ...]:
        out = [0] * len(w)
        for i, c in enumerate(w):
            if c:
                out[perm[i]] = c
        return tuple(out)

    # -- serialization -----------------------------------------------------

    def to_json(self) -> dict:
        return {"components": [{"family": f, "rank": r} for f, r in self.components]}

    @classmethod
    def from_json(cls, data) -> "Diagram":
        if isinstance(data, str):
            data = json.loads(data)
        if not isinstance(data, dict) or not isinstance(
                data.get("components"), list):
            raise DiagramError('a diagram must be an object with a '
                               f'"components" list, not {data!r}')
        comps = []
        for c in data["components"]:
            if not (isinstance(c, dict) and isinstance(c.get("family"), str)
                    and type(c.get("rank")) is int):
                raise DiagramError('a component must be an object with a '
                                   '"family" string and a "rank" integer, '
                                   f'not {c!r}')
            comps.append((c["family"], c["rank"]))
        return cls(comps)


def support(w) -> frozenset:
    return frozenset(i for i, c in enumerate(w) if c)


def pieces(items, linked) -> list[set]:
    """Connected pieces of items under a symmetric relation linked(a, b),
    as sets in the order of their first item."""
    left, out = list(items), []
    while left:
        piece, todo = {left[0]}, [left[0]]
        while todo:
            a = todo.pop()
            for b in left:
                if b not in piece and linked(a, b):
                    piece.add(b)
                    todo.append(b)
        left = [b for b in left if b not in piece]
        out.append(piece)
    return out


@per_diagram
def _positive_roots(d: Diagram) -> tuple[tuple[int, ...], ...]:
    """All positive roots: the simple roots closed under the simple
    reflections s_i(g) = g - <alpha_i^vee, g> alpha_i.

    s_i permutes the positive roots other than alpha_i, and every positive
    root is reached from a simple one through such steps, so a result is
    kept exactly when its i-th coefficient stays >= 0.
    """
    n = d.n_nodes
    roots = {tuple(int(k == i) for k in range(n)) for i in range(n)}
    todo = list(roots)
    while todo:
        g = todo.pop()
        for i in range(n):
            c = g[i] - d.pairing_weight(i, g)
            r = (*g[:i], c, *g[i + 1:])
            if c >= 0 and r not in roots:
                roots.add(r)
                todo.append(r)
    return tuple(sorted(roots))
