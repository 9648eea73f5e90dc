"""Exhaustive search for spherical systems on a fixed diagram.

The rank-one table lists every weight a root set may contain, so the search
space is finite: walk independent, pairwise-admissible subsets of those
weights, then attach every parabolic set the trace conditions allow.  The
candidates, their RootFacts and the pair matrix (one system.pairwise_faults
pass) are built once per diagram.  The final validation gate keeps the
walk honest; each pruning rule either is only a necessary condition on a
valid system or drops a subtree that holds no system the mode keeps.

``verify_catalog`` compares the primitive systems found this way with the
members the family catalog predicts on the same diagram.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import count
from typing import NamedTuple

from . import ops
from .budget import BudgetExceeded, max_states
from .dynkin import parse_diagram
from .families import catalog_index
from .feasible import echelon_extend
from .rankone import admissible_traces, rank1_embeddings
from .system import SphericalSystem, pairwise_faults, root_facts

# perfbench/selftest.py reads admissible_traces through this module
__all__ = ["CatalogCheck", "admissible_traces", "candidate_roots",
           "enumerate_primitive", "enumerate_systems", "verify_catalog"]


def candidate_roots(diagram) -> tuple:
    """Distinct weights admitting at least one rank-one realization."""
    d = parse_diagram(diagram)
    return tuple(sorted({w for _, w, _ in rank1_embeddings(d)}))


@lru_cache(maxsize=None)
def _walk_table(d) -> tuple:
    """The candidates of d, their RootFacts, compat[i][j]: whether
    candidates i and j together pass the pairwise axioms, and spans[i]: the
    bitmask of the components that candidate i's support meets."""
    cands = candidate_roots(d)
    facts = tuple(root_facts(d, w) for w in cands)
    compat = [[True] * len(cands) for _ in cands]
    # each axiom compares a shaped root (2*alpha_i, alpha_i + alpha_j) with
    # another root, so a pair's faults are the whole list's records naming both
    shaped = {f.pair if f.doubled is None else f.doubled: k
              for k, f in enumerate(facts)}
    index = {w: k for k, w in enumerate(cands)}
    for _, at, g, _ in pairwise_faults(cands, facts):
        k, j = shaped[at], index[g]
        compat[k][j] = compat[j][k] = False
    spans = tuple(sum({1 << d.nodes[i][0] for i in f.support}) for f in facts)
    return cands, facts, tuple(map(tuple, compat)), spans


def _linked(spans, full) -> bool:
    """Whether the component bitmasks in spans link all components in full:
    the graph joining the components each mask meets is connected."""
    reached = full & -full
    grown = True
    while grown:
        grown = False
        for s in spans:
            if s & reached and s | reached != reached:
                reached |= s
                grown = True
    return reached == full


def _extensions(f, assignments, covered, banned):
    """The unions a | t of an assignment a and an admissible trace t of a
    root with RootFacts f that agree on `covered` and meet neither `banned`
    nor f.paired.  The assignments already avoid `banned`, and a trace lies
    on f's support, which f.paired avoids."""
    return (a | t for a in assignments for t in f.traces
            if a & f.support == t & covered and not t & banned
            and not a & f.paired)


def enumerate_systems(diagram, cuspidal_only=False,
                      primitive_only=False) -> tuple:
    """Every valid spherical system on the diagram, sorted by the candidate
    indices of sigma, so a root set comes before its supersets.

    The walk carries `live` down from parent to child, as Bron and
    Kerbosch carry their candidate set ("Finding all cliques of an
    undirected graph", CACM 16(9), 1973): the candidates not yet chosen or
    excluded that pass the pair matrix with every chosen root and have an
    admissible trace consistent with at least one trace assignment of the
    chosen roots.  Only they can join a root set below, so a child's `live`
    is read off its parent's.  A walk node branches over a list `order` of
    live candidates by Knuth's rule ("Dancing links", 2000: Algorithm X,
    and Algorithm M for covers that may overlap): branch i chooses order[i]
    and excludes order[0..i-1] from its subtree.  In full mode `order` is
    `live` itself, so a root set is reached once, its roots chosen in
    increasing index order.

    An assignment is the sp-part on the covered nodes, and `banned` is the
    union of the chosen roots' paired nodes: the nodes off a root's support
    that pair nonzero with it.  The walk drops every assignment that meets
    `banned`.  Exact: the assignment and `banned` only grow below a node,
    and validate() rejects a system whose sp meets a root's paired nodes
    ("parabolic-pairing").  `live` keeps only the candidates that leave a
    child at least one assignment.

    With cuspidal_only only root sets whose supports cover the whole
    diagram are kept, and a walk node returns at once when even its chosen
    and live supports together leave a node uncovered.  While some node is
    uncovered, `order` is the live coverers, in index order, of the
    uncovered node with the fewest of them.  Exact: a cuspidal root set
    covers that node, so it is reached once, through its least-index
    coverer of each branching node.  Once every node is covered `order` is
    `live` again.  Every root set with a kept system comes out of the walk
    under its sorted candidate indices, and the systems are put out in
    sorted order of those: in full mode that is already the order of the
    walk.

    primitive_only keeps the cuspidal systems that ops.is_primitive
    accepts, in the same order: on a product diagram it also drops every
    subtree whose root sets can no longer couple all components.  The prune
    is exact by this lemma.  Call a cuspidal system split when its
    components fall into two groups G and H and no root's support meets
    both.  Then it decomposes along the colours C_G living on G and the
    colours C_H living on H:

    - Every colour lives in one group: a colour is a piece of the non-sp
      nodes joined through orthogonal pair roots, and each such root lies
      in one group.  Sigma is the disjoint union of Sigma_G and Sigma_H,
      and a colour of C_G pairs to 0 with every root of Sigma_H, whose
      nodes lie on other components.  So C_G moves only roots of Sigma_G,
      and C_H only roots of Sigma_H.
    - C_G is distinguished.  Write rho^vee = sum c_a alpha_a^vee with every
      c_a > 0.  For gamma in Sigma_G, nodes off G pair 0 with gamma, and
      nodes of sp pair 0 with every root, so the height of gamma is
      sum over a in G off sp of c_a <alpha_a^vee, gamma>.  The nodes of a
      colour pair equally with every root of a valid system, so grouping
      them by colour gives rho(phi)(gamma) for the positive multiplicities
      phi_D = sum of c_a over D's nodes, doubled for a doubled colour and
      scaled to integers.  So rho(phi) is positive on Sigma_G and 0 on
      Sigma_H.  Sigma_G is nonempty because the system is cuspidal, so
      C_G is nonempty too.
    - The new parabolic nodes of C_G lie on G and those of C_H on H, on
      other components, so no connected piece of the enlarged parabolic
      set meets both.
    - The quotient by C_G is smooth.  Take a nonnegative combination y of
      Sigma_G killed by every colour of C_G.  Then every simple coroot
      pairs 0 with y: those of G off sp through C_G, those of sp by the
      orthogonality axiom, the others because y lives on G.  The Cartan
      matrix is invertible and Sigma is independent, so the combination
      is 0, and the new roots are exactly Sigma_H.

    So ops.decomposes(s, C_G, C_H) holds, and since is_decomposable tries
    every disjoint pair of colour subsets, is_primitive is False.
    validate() and the decomposition test still run on every system that
    survives the prunes.  A leaf whose own roots leave the components
    unlinked is not skipped: is_decomposable rejects its split systems.
    """
    d = parse_diagram(diagram)
    cands, facts, compat, spans = _walk_table(d)
    cuspidal_only = cuspidal_only or primitive_only
    nodes = frozenset(range(d.n_nodes))
    full = (1 << len(d.components)) - 1
    # on a connected diagram every root set couples the lone component
    coupling = primitive_only and full > 1
    budget = max_states()
    states = count(1)

    def tick():
        n = next(states)
        if n > budget:
            raise BudgetExceeded(
                f"enumeration on {d.spec()} exceeded {budget} states",
                layer="search", count=n, cap=budget, input=d.spec())

    def emit(chosen, covered, assignments, banned):
        """The valid systems on the root set `chosen`, in increasing index
        order.  In cuspidal mode `covered` is every node."""
        kept = []
        # Only necessary: sp must be orthogonal to every root, but a node
        # left free may still fail another axiom in validate().
        free = [i for i in range(d.n_nodes)
                if i not in covered and i not in banned]
        free_subsets = [frozenset(f for k, f in enumerate(free)
                                  if mask >> k & 1)
                        for mask in range(1 << len(free))]
        sigma = tuple(cands[k] for k in chosen)
        # sorted, so the output order does not hang on set hashing
        for base in sorted(assignments, key=sorted):
            for extra in free_subsets:
                tick()
                sys = SphericalSystem._from_normal(d, base | extra, sigma)
                # emit is called in cuspidal mode only on a full cover, so
                # is_primitive reduces to the decomposition test
                if sys.validate().ok and (
                        not primitive_only
                        or ops.is_decomposable(sys) is None):
                    kept.append(sys)
        return kept

    def walk(chosen, basis, covered, assignments, banned, live):
        """Yields (sorted chosen indices, kept systems) for each root set
        below with a kept system.  `assignments` holds the sp-part on
        `covered`, the union of the chosen supports, of each choice of one
        admissible trace per chosen root that agrees on shared nodes and
        avoids `banned`; it is never empty.  `live` is in index order, as
        above."""
        tick()
        order = live
        if cuspidal_only:
            # live coverers per uncovered node; the node to branch on
            counts = dict.fromkeys(sorted(nodes - covered), 0)
            for k in live:
                for v in facts[k].support:
                    if v in counts:
                        counts[v] += 1
            # Exact: every root chosen below comes from `live`, so a node
            # that no live support covers stays uncovered in the subtree.
            if 0 in counts.values():
                return
            if counts:
                node = min(counts, key=counts.__getitem__)
                order = [k for k in live if node in facts[k].support]
        # Exact by the lemma above: every root chosen below comes from
        # `live`, so if even all of them together with the chosen roots
        # leave the components unlinked, every cuspidal system below is
        # split and none is primitive.
        if coupling and not _linked([spans[k] for k in chosen + live], full):
            return
        if order is live:
            # ints in a tuple: the garbage collector need not track it
            key = tuple(sorted(chosen))
            kept = emit(key, covered, assignments, banned)
            if kept:
                yield key, kept
        excluded = set()
        for k in order:
            # the branch choosing k excludes it and the earlier ones of
            # order from its subtree
            excluded.add(k)
            # Only necessary: independence is one axiom, validate() checks
            # the rest.
            nb = echelon_extend(basis, cands[k])
            if nb is None:
                continue
            f = facts[k]
            grown = covered | f.support
            grown_ban = banned | f.paired
            # nonempty, since k is live
            below = set(_extensions(f, assignments, covered, banned))
            # The pair test is only necessary: compat sees two roots at
            # once, validate() the set.  The trace filter is exact: the
            # assignments below restrict to `below` on `grown`, so a
            # candidate inconsistent with `below` stays so further down.
            yield from walk(
                chosen + [k], nb, grown, below, grown_ban,
                [j for j in live if j not in excluded and compat[k][j]
                 and next(_extensions(facts[j], below, grown, grown_ban),
                          None) is not None])

    root_sets = walk([], [], frozenset(), {frozenset()}, frozenset(),
                     list(range(len(cands))))
    return tuple(s for _, kept in sorted(root_sets) for s in kept)


def enumerate_primitive(diagram) -> tuple:
    return enumerate_systems(diagram, primitive_only=True)


class CatalogCheck(NamedTuple):
    diagram: str
    found: int
    expected: int
    missing: tuple   # predicted labels the search never produced
    extra: tuple     # found systems the catalog does not predict

    @property
    def ok(self) -> bool:
        return not self.missing and not self.extra


def verify_catalog(diagram) -> CatalogCheck:
    """Compare the primitive systems found by search with the catalog.

    Systems are matched up to diagram automorphism, so one catalog entry
    accounts for its whole symmetry orbit.
    """
    d = parse_diagram(diagram)
    found = {}
    for s in enumerate_primitive(d):
        found.setdefault(s.canonical_key(), s)
    predicted = catalog_index(d)
    missing = tuple(e.label for k, e in predicted.items() if k not in found)
    extra = tuple(repr(found[key]) for key in found if key not in predicted)
    return CatalogCheck(d.spec(), len(found), len(predicted), missing, extra)
