"""Colour-visibility components of a spherical system.

A spherical root sees another root of the system through the colours on
its support (their rho_matrix values); chains of mutual visibility cut the
root set into components.  How such a component can be quotiented away
(smoothly, validly, or by splitting the underlying diagram) singles out
glueings that can only produce decomposable systems.  The CLI's
``components`` subcommand reports this analysis; sphsys.search does not use it.
"""

from itertools import combinations
from typing import NamedTuple

from .dynkin import pieces, support
from .ops import decomposes, decuspidalize, is_distinguished, quotient

__all__ = [
    "ComponentAnalysis",
    "classify_component",
    "components",
    "delta_of",
    "lemma_erasable_prunes",
    "strongly_adjacent",
]


def _colours_meeting(sys, nodes):
    return tuple(i for i, c in enumerate(sys.colours) if c.nodes & nodes)


def _as_roots(sys, weights) -> tuple:
    """The weights as tuples; ValueError naming any that is no root."""
    roots = tuple(tuple(g) for g in weights)
    stray = [list(g) for g in roots if g not in sys.sigma]
    if stray:
        raise ValueError(f"not spherical roots of the system: {stray}")
    return roots


def strongly_adjacent(sys, gamma1, gamma2) -> bool:
    """Every colour on either root's support pairs nonzero with the other
    root.  Raises ValueError on a weight that is no root of the system."""
    pair = _as_roots(sys, (gamma1, gamma2))
    rho = sys.rho_matrix
    return all(rho[i][sys.sigma.index(h)] for g, h in (pair, pair[::-1])
               for i in _colours_meeting(sys, support(g)))


def components(sys) -> tuple:
    """Partition of the spherical roots by chains of strong adjacency."""
    sigma = sys.sigma
    groups = pieces(range(len(sigma)),
                    lambda i, j: strongly_adjacent(sys, sigma[i], sigma[j]))
    return tuple(tuple(sigma[i] for i in sorted(g)) for g in groups)


def delta_of(sys, roots) -> tuple:
    """Colours on the subset's support that ignore every outside root.
    Raises ValueError on a weight that is no root of the system."""
    inside = set(_as_roots(sys, roots))
    supp = frozenset().union(*map(support, inside))
    outside = [k for k, g in enumerate(sys.sigma) if g not in inside]
    rho = sys.rho_matrix
    return tuple(i for i in _colours_meeting(sys, supp)
                 if all(rho[i][k] == 0 for k in outside))


class ComponentAnalysis(NamedTuple):
    component: tuple
    delta_of: tuple
    isolated: bool
    erasable: bool
    quasi_erasable: bool


def _isolated(sys, roots):
    # the two support halves must carve the colours in two, and the halves
    # must decompose the system localized at the whole spherical support
    core = decuspidalize(sys)
    side1 = frozenset().union(*(support(h) for g, h in
                                zip(sys.sigma, core.sigma) if g in roots))
    side2 = core.sigma_support - side1
    if not side1 or not side2:
        return False
    d1, d2 = [], []
    for i, c in enumerate(core.colours):
        if c.nodes <= side1:
            d1.append(i)
        elif c.nodes <= side2:
            d2.append(i)
        else:
            return False
    if not d1 or not d2:
        return False
    return decomposes(core, d1, d2)


def classify_component(sys, roots) -> ComponentAnalysis:
    """Erasability flags of a subset of spherical roots within the system.

    Raises ValueError on a weight that is not one of the system's roots."""
    roots = _as_roots(sys, roots)
    dlt = delta_of(sys, roots)
    erasable = quasi = False
    for r in range(1, len(dlt) + 1):
        for sub in combinations(dlt, r):
            if not is_distinguished(sys, sub):
                continue
            q = quotient(sys, sub)
            erasable = erasable or q.smooth
            quasi = quasi or q.is_valid_system
        if erasable and quasi:
            break
    return ComponentAnalysis(roots, dlt, _isolated(sys, roots),
                             erasable, quasi)


def lemma_erasable_prunes(sys, roots1, roots2) -> bool:
    """Disjoint subsets, both quasi-erasable, at least one erasable.

    When this holds the whole system decomposes along the two colour
    subsets, so a search for indecomposable systems could skip it;
    sphsys.search does not call it.
    """
    r1 = tuple(tuple(g) for g in roots1)
    r2 = tuple(tuple(g) for g in roots2)
    if not r1 or not r2 or set(r1) & set(r2):
        return False
    a1 = classify_component(sys, r1)
    if not a1.quasi_erasable:
        return False
    a2 = classify_component(sys, r2)
    if not a2.quasi_erasable:
        return False
    return a1.erasable or a2.erasable
