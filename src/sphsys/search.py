"""Exhaustive search for spherical systems on a fixed diagram.

The rank-one table lists every weight a root set may contain, so the search
space is finite: walk independent, pairwise-admissible subsets of those
weights, then attach every parabolic set the trace conditions allow.  The
candidates, their RootFacts and the pair matrix (one system.pairwise_faults
pass) are built on a diagram's first search and kept while the diagram
stays in the dynkin.per_diagram cache.  The final validation gate keeps the
walk honest: it reads the raw fault records of every axiom, those on sigma
alone (system.sigma_faults) once per root set and the rank-one ones
(system.rank_one_faults) once per trace assignment, as that axiom reads sp
only on the roots' supports and paired nodes, and builds no report.  A
root set is handled in one step: its candidate systems, one per trace
assignment and subset of the free nodes, are counted against the budget
at once, and the systems of each assignment that passes are built in one
batch.  The batch's parabolic sets come from a per-call list for each
(assignment, free nodes), built on the first root set that asks for it:
the list depends on nothing else, so every later one shares it.  Each
pruning rule either is only a necessary condition on a valid system or
drops a subtree that holds no system the mode keeps.

``verify_catalog`` compares the primitive systems found this way with the
members the family catalog predicts on the same diagram.
"""

from __future__ import annotations

from typing import NamedTuple

from . import ops
from .budget import BudgetExceeded, max_states
from .dynkin import parse_diagram, per_diagram
from .families import catalog_index
from .feasible import echelon_extend
from .rankone import admissible_traces, rank1_embeddings
from .system import (SphericalSystem, pairwise_faults, rank_one_faults,
                     root_facts, sigma_faults)

# perfbench/selftest.py reads admissible_traces through this module
__all__ = ["CatalogCheck", "admissible_traces", "candidate_roots",
           "enumerate_systems", "verify_catalog"]


def candidate_roots(diagram) -> tuple:
    """Distinct weights admitting at least one rank-one realization."""
    d = parse_diagram(diagram)
    return tuple(sorted({w for _, w, _ in rank1_embeddings(d)}))


@per_diagram
def _walk_table(d) -> tuple:
    """The candidates of d, their RootFacts, compat[i][j]: whether
    candidates i and j together pass the pairwise axioms, and spans[i]: the
    bitmask of the components that candidate i's support meets.  Rebuilt
    only when d has left the per_diagram cache."""
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
    and rank_one_faults flags a system whose sp meets a root's paired
    nodes ("parabolic-pairing").  `live` keeps only the candidates that
    leave a child at least one assignment.

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
    The final gate still runs on every system that survives the prunes:
    every axiom on the raw fault records, system.sigma_faults once per root
    set and system.rank_one_faults once per trace assignment (it reads no
    node that a parabolic set adds to one), then ops.is_primitive.
    Budget: each walk node is one state, and each root set's candidate
    systems (its trace assignments times the subsets of its free nodes)
    are counted in one step before the gate, so the totals are those of a
    count one system at a time, and a budget hit inside a batch raises
    with count cap + 1 as that count would.
    Sigma's independence is decided there afresh, from disjoint supports
    or else by its rank, never read off the walk's echelon basis, so the
    gate does not lean on the walk.  A passing assignment's systems share
    one list of parabolic sets per (assignment, free nodes) and one
    frozenset per parabolic set.  No report is built, so a returned system
    builds its own on its first validate().  A leaf whose own roots leave
    the components unlinked is not skipped: is_decomposable rejects its
    split systems.
    The gate's shortcuts are exact.  Each candidate's support | paired set,
    built once per call, holds the nodes a base decides, so the free nodes
    are read off those sets.  A root set with one assignment skips the
    sort, as one assignment is already in order.  sigma_faults screens with
    bitmasks that RootFacts holds beside the node sets they stand for.
    """
    d = parse_diagram(diagram)
    cands, facts, compat, spans = _walk_table(d)
    new = SphericalSystem._from_normal
    # one frozenset per parabolic set: the systems share them, so the
    # collector tracks one object per system kept, not two
    shared = {}
    # the parabolic sets of each (assignment, free nodes), built once
    sp_lists = {}
    # per candidate, the nodes a trace assignment decides
    decided = [f.support | f.paired for f in facts]
    cuspidal_only = cuspidal_only or primitive_only
    nodes = frozenset(range(d.n_nodes))
    full = (1 << len(d.components)) - 1
    # on a connected diagram every root set couples the lone component
    coupling = primitive_only and full > 1
    budget = max_states()
    states = 0

    def tick(n=1):
        """Counts n states; past the budget, raises as a count one state
        at a time would have on the first state over it."""
        nonlocal states
        states += n
        if states > budget:
            raise BudgetExceeded(
                f"enumeration on {d.spec()} exceeded {budget} states",
                layer="search", count=budget + 1, cap=budget,
                input=d.spec())

    def emit(chosen, assignments):
        """The valid systems on the root set `chosen`, in output order.
        Each candidate system, one per assignment and subset of the free
        nodes, is one state, all counted before the gate runs."""
        sigma = tuple(map(cands.__getitem__, chosen))
        roots = tuple(map(facts.__getitem__, chosen))
        # Exact: a base decides sp on the supports, and sp meeting a paired
        # set fails the rank-one axiom, so only the other nodes are free.
        free = nodes.difference(*map(decided.__getitem__, chosen))
        tick(len(assignments) << len(free))
        if sigma_faults(sigma, roots):
            return []
        kept = []
        # sorted, so the output order does not hang on set hashing
        for base in (assignments if len(assignments) == 1
                     else sorted(assignments, key=sorted)):
            # Exact: an extra from free meets no support and no paired
            # set, so rank_one_faults(base | extra) yields base's records.
            if next(rank_one_faults(base, sigma, roots), None) is None:
                sps = sp_lists.get((base, free))
                if sps is None:
                    # base | extra for every subset extra of free, in the
                    # order of its bitmask over free
                    sps = [base]
                    for i in sorted(free):
                        sps += [sp | {i} for sp in sps]
                    sps = sp_lists[base, free] = [
                        shared.setdefault(sp, sp) for sp in sps]
                systems = [new(d, sp, sigma) for sp in sps]
                kept += (filter(ops.is_primitive, systems) if primitive_only
                         else systems)
        return kept

    root_sets = []

    def walk(chosen, basis, covered, assignments, banned, live):
        """Appends (sorted chosen indices, kept systems) to root_sets for
        each root set below with a kept system.  `assignments` holds the
        sp-part on `covered`, the union of the chosen supports, of each
        choice of one admissible trace per chosen root that agrees on
        shared nodes and avoids `banned`; it is never empty.  `live` is in
        index order, as above."""
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
            kept = emit(key, assignments)
            if kept:
                root_sets.append((key, kept))
        excluded = set()
        for k in order:
            # the branch choosing k excludes it and the earlier ones of
            # order from its subtree
            excluded.add(k)
            # Only necessary: independence is one axiom, the final gate
            # checks them all.
            nb = echelon_extend(basis, cands[k])
            if nb is None:
                continue
            f = facts[k]
            grown = covered | f.support
            grown_ban = banned | f.paired
            # nonempty, since k is live
            below = set(_extensions(f, assignments, covered, banned))
            # The pair test is only necessary: compat sees two roots at
            # once, sigma_faults the set.  The trace filter is exact:
            # the assignments below restrict to `below` on `grown`, so a
            # candidate inconsistent with `below` stays so further down.
            walk(
                chosen + [k], nb, grown, below, grown_ban,
                [j for j in live if j not in excluded and compat[k][j]
                 and next(_extensions(facts[j], below, grown, grown_ban),
                          None) is not None])

    walk([], [], frozenset(), {frozenset()}, frozenset(),
         list(range(len(cands))))
    return tuple(s for _, kept in sorted(root_sets) for s in kept)


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
    for s in enumerate_systems(d, primitive_only=True):
        found.setdefault(s.canonical_key(), s)
    predicted = catalog_index(d)
    missing = tuple(e.label for k, e in predicted.items() if k not in found)
    extra = tuple(repr(found[key]) for key in found if key not in predicted)
    return CatalogCheck(d.spec(), len(found), len(predicted), missing, extra)
