"""Exhaustive search for spherical systems on a fixed diagram.

The rank-one table lists every weight a root set may contain, so the search
space is finite: walk independent, pairwise-admissible subsets of those
weights, then attach every parabolic set the trace conditions allow.  The
candidates, their RootFacts and the pair matrix (system.pairwise_faults on
each pair) are built once per diagram.  The final validation gate keeps the
walk honest; the pruning rules are only necessary conditions.

``verify_catalog`` compares the primitive systems found this way with the
members the family catalog predicts on the same diagram.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

from . import ops
from .budget import BudgetExceeded, max_states
from .dynkin import parse_diagram
from .families import expand_catalog
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
    """The candidates of d, their RootFacts, and compat[i][j]: whether
    candidates i and j together pass the pairwise axioms."""
    cands = candidate_roots(d)
    facts = tuple(root_facts(d, w) for w in cands)
    compat = tuple(tuple(not any(pairwise_faults(d, (a, b), (fa, fb)))
                         for b, fb in zip(cands, facts))
                   for a, fa in zip(cands, facts))
    return cands, facts, compat


def enumerate_systems(diagram, cuspidal_only=False) -> tuple:
    """Every valid spherical system on the diagram.

    With cuspidal_only only root sets whose supports cover the whole
    diagram are kept.  The walk visits and ticks the same nodes either
    way; emit returns early at the others, so no system is built or
    validated for them.
    """
    d = parse_diagram(diagram)
    cands, facts, compat = _walk_table(d)
    budget = max_states()
    state = {"count": 0}
    out = []

    def tick():
        state["count"] += 1
        if state["count"] > budget:
            raise BudgetExceeded(
                f"enumeration on {d.spec()} exceeded {budget} states")

    def emit(chosen, covered, assignments):
        outside = [i for i in range(d.n_nodes) if i not in covered]
        if cuspidal_only and outside:
            return
        # Only necessary: sp must be orthogonal to every root, but a node
        # left free may still fail another axiom in validate().
        banned = frozenset().union(*(facts[k].paired for k in chosen))
        free = [i for i in outside if i not in banned]
        free_subsets = [frozenset(f for k, f in enumerate(free)
                                  if mask >> k & 1)
                        for mask in range(1 << len(free))]
        sigma = tuple(cands[k] for k in chosen)
        # sorted, so the output order does not hang on set hashing
        for base in sorted(assignments, key=sorted):
            for extra in free_subsets:
                tick()
                sys = SphericalSystem._from_normal(d, base | extra, sigma)
                if sys.validate().ok:
                    out.append(sys)

    def walk(chosen, basis, start, covered, assignments):
        """`assignments` holds the sp-part on `covered`, the union of the
        chosen supports, of each choice of one admissible trace per chosen
        root that agrees on shared nodes."""
        tick()
        # Only necessary: every valid system has a consistent assignment and
        # a superset of inconsistent roots stays inconsistent, so the whole
        # subtree is dead; a nonempty set proves nothing.
        if not assignments:
            return
        emit(chosen, covered, assignments)
        for k in range(start, len(cands)):
            # Only necessary: compat sees two roots at once, validate() the set
            if not all(compat[j][k] for j in chosen):
                continue
            # Only necessary: independence is one axiom, validate() checks
            # the rest.
            nb = echelon_extend(basis, cands[k])
            if nb is None:
                continue
            supp = facts[k].support
            walk(chosen + [k], nb, k + 1, covered | supp,
                 {a | t for a in assignments for t in facts[k].traces
                  if a & supp == t & covered})

    walk([], [], 0, frozenset(), {frozenset()})
    return tuple(out)


def enumerate_primitive(diagram) -> tuple:
    return tuple(s for s in enumerate_systems(diagram, cuspidal_only=True)
                 if ops.is_primitive(s))


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
    predicted = {e.system.canonical_key(): e.label for e in expand_catalog(d)}
    missing = tuple(lbl for key, lbl in predicted.items() if key not in found)
    extra = tuple(repr(found[key]) for key in found if key not in predicted)
    return CatalogCheck(d.spec(), len(found), len(predicted), missing, extra)
