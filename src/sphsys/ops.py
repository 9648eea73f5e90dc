"""Operations of the combinatorial dictionary on spherical systems.

Everything here is exact.  Whether a colour subset is distinguished is
decided in three steps, cheapest first: the witness phi = (1, ..., 1), a
root refuting every witness, and a lookup among the supports of the
extreme rays of the cone of witnesses, enumerated once per system.  The
witnesses themselves are sums of extreme rays of the cone each one asks
about (feasible.feasible_nonneg), and quotient monoids come from Hilbert
bases.  A colour subset is a set: repeated indices count once.
Quotient systems are constructed and validated, never assumed valid.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from sphsys.dynkin import (Diagram, DiagramError, bourbaki_orders, pieces,
                           support)
from sphsys.feasible import feasible_nonneg
from sphsys.hilbert import hilbert_basis
from sphsys.system import SphericalSystem


def induced_diagram(d: Diagram, keep):
    """Induced subdiagram on a node subset plus the old->new index map.

    The subset of a finite-type diagram is again one; its connected pieces
    are classified and relabelled in Bourbaki order.
    """
    keep = sorted(d.node_index(a) for a in keep)
    shapes = []
    for comp in pieces(keep, d.adjacent):
        found = bourbaki_orders(d, comp)
        if not found:
            raise DiagramError(f"nodes {sorted(comp)} of {d.spec()} "
                               "do not form a Dynkin diagram")
        shapes.append(found[0])
    shapes.sort(key=lambda s: (s[0], s[1], s[2]))
    sub = Diagram([(fam, rank) for fam, rank, _ in shapes])
    node_map = {}
    for ci, (_f, _r, order) in enumerate(shapes):
        for pos, old in enumerate(order, start=1):
            node_map[old] = sub.node_index((ci, pos))
    return sub, node_map


def localize(sys: SphericalSystem, keep) -> SphericalSystem:
    """Restrict to the induced subdiagram, keeping roots supported inside."""
    d = sys.diagram
    keep = frozenset(d.node_index(a) for a in keep)
    sub, node_map = induced_diagram(d, keep)
    sigma = []
    for g in sys.sigma:
        if support(g) <= keep:
            w = [0] * sub.n_nodes
            for i, c in enumerate(g):
                if c:
                    w[node_map[i]] = c
            sigma.append(tuple(w))
    sp = frozenset(node_map[i] for i in sys.sp & keep)
    return SphericalSystem._from_normal(sub, sp, tuple(sigma))


def decuspidalize(sys: SphericalSystem) -> SphericalSystem:
    """Localize at the union of the supports of the spherical roots."""
    return localize(sys, sys.sigma_support)


# -- distinguished subsets and quotients ------------------------------------


def _subset_rows(sys, subset):
    rho = sys.rho_matrix
    return [tuple(rho[c][j] for c in subset)
            for j in range(len(sys.sigma))]


def _colour_subset(sys, subset) -> tuple:
    """The distinct indices of subset, sorted; ValueError on an entry that
    is no colour index of the system.  A bool is no colour, though Python
    counts it as an int."""
    subset = tuple(subset)
    n = len(sys.colours)
    for c in subset:
        if type(c) is not int or not 0 <= c < n:
            raise ValueError(
                f"no colour D{c!r}: the system has {n} colour(s)")
    return tuple(sorted(set(subset)))


def distinguished_witness(sys: SphericalSystem, subset):
    """Positive integer colour multiplicities phi with <rho(phi), gamma> >= 0
    for every spherical root, or None.  Raises ValueError on a colour index
    the system does not have."""
    subset = _colour_subset(sys, subset)
    if not subset:
        return ()
    rows = _subset_rows(sys, subset)
    return feasible_nonneg(rows, len(subset), strict=range(len(subset)))


def is_distinguished(sys: SphericalSystem, subset) -> bool:
    """Whether distinguished_witness(sys, subset) exists, without a ray
    enumeration per subset.

    The subset S is distinguished when the cone C = {phi >= 0 :
    <rho(phi), gamma> >= 0 for every spherical root gamma} has a point
    with support exactly S.  Three tests, cheapest first:
    1. phi = (1, ..., 1) on S is such a point when no column sum of S's
       rho rows is negative: a witness, so True is exact.
    2. A root pairing <= 0 with every colour of S and < 0 with one pairs
       negatively with every phi > 0 on S: a refutation, so False is exact.
    3. Otherwise S is distinguished iff S is the union of the supports of
       the extreme rays of C that lie inside S.  C lies in the orthant, so
       it is pointed, and every point of C is a nonnegative combination of
       extreme rays (Minkowski-Weyl).  The support of a sum of nonnegative
       vectors is the union of their supports, so a point with support S
       is a sum of rays whose supports lie inside S and cover S.
       Conversely, the sum of the rays inside S is a point of C whose
       support is their union.
    The ray supports are SphericalSystem.distinguished_rays, enumerated
    once per system.
    """
    subset = _colour_subset(sys, subset)
    rho = sys.rho_matrix
    cols = list(zip(*(rho[c] for c in subset)))
    if all(sum(col) >= 0 for col in cols):
        return True
    if any(max(col) <= 0 for col in cols if min(col) < 0):
        return False
    mask = sum(1 << c for c in subset)
    union = 0
    for ray in sys.distinguished_rays:
        if not ray & ~mask:
            union |= ray
    return union == mask


# a dataclass, since perfbench/selftest.py copies it with dataclasses.replace
@dataclass(frozen=True)
class QuotientResult:
    system: SphericalSystem
    sp: frozenset
    sigma: tuple
    coefficients: tuple       # Hilbert basis in sigma coordinates
    smooth: bool
    homogeneous: bool
    is_valid_system: bool

    def to_json(self):
        return {
            "system": self.system.to_json(),
            "coefficients": [list(x) for x in self.coefficients],
            "smooth": self.smooth,
            "homogeneous": self.homogeneous,
            "is_valid_system": self.is_valid_system,
        }


def quotient(sys: SphericalSystem, subset) -> QuotientResult:
    """Quotient by a distinguished subset of colours.

    The new spherical roots are the indecomposable elements of the monoid of
    nonnegative root combinations killed by every chosen colour.  Raises
    ValueError when the subset is not distinguished.
    """
    subset = _colour_subset(sys, subset)
    if not is_distinguished(sys, subset):
        raise ValueError("quotient by a non-distinguished subset")
    coeffs, sigma_out = _new_roots(sys, subset)
    for g in sigma_out:
        # only roots with a nonnegative dependency combine to zero
        if not any(g):
            raise ValueError(f"root {g!r} is zero")
    sp_out = frozenset(sys.sp)
    for c in subset:
        sp_out |= sys.colours[c].nodes
    out = SphericalSystem._from_normal(sys.diagram, sp_out, sigma_out)
    return QuotientResult(
        system=out,
        sp=sp_out,
        sigma=sigma_out,
        coefficients=coeffs,
        smooth=set(sigma_out) <= set(sys.sigma),
        homogeneous=not sigma_out,
        is_valid_system=out.is_valid,
    )


def _new_roots(sys, subset):
    """The quotient's Hilbert basis in sigma coordinates, and the sorted
    weights of its elements: the new spherical roots."""
    # one equation per chosen colour, variables are root multiplicities
    rho = sys.rho_matrix
    coeffs = hilbert_basis([tuple(rho[c]) for c in sorted(subset)],
                           len(sys.sigma))
    roots = sorted(tuple(sum(c * g[i] for c, g in zip(x, sys.sigma))
                         for i in range(sys.diagram.n_nodes))
                   for x in coeffs)
    return coeffs, tuple(roots)


def support_colour_set(sys: SphericalSystem) -> tuple:
    """Indices of the colours living entirely on the support of sigma."""
    supp = sys.sigma_support
    return tuple(i for i, c in enumerate(sys.colours) if c.nodes <= supp)


# -- decompositions ----------------------------------------------------------


def _moved_masks(sys) -> list:
    """Per colour, the bitmask of the spherical roots it pairs with."""
    return [sum(1 << j for j, v in enumerate(row) if v)
            for row in sys.rho_matrix]


def _moved(masks, subset) -> int:
    """Bitmask of the spherical roots some colour of the subset pairs with."""
    out = 0
    for c in subset:
        out |= masks[c]
    return out


def decomposes(sys: SphericalSystem, s1, s2) -> bool:
    """Whether two disjoint colour subsets split the system in two.

    Requires: disjoint supports of moved roots, mutually orthogonal new
    parabolic nodes, and at least one smooth quotient.  Non-distinguished
    subsets never decompose.  Raises ValueError on empty or overlapping
    subsets and on an entry that is no colour index of the system.
    """
    s1 = frozenset(_colour_subset(sys, s1))
    s2 = frozenset(_colour_subset(sys, s2))
    if not s1 or not s2:
        raise ValueError("decomposition subsets must be nonempty")
    if s1 & s2:
        raise ValueError("decomposition subsets must be disjoint")
    if not (is_distinguished(sys, s1) and is_distinguished(sys, s2)):
        return False
    masks = _moved_masks(sys)
    if _moved(masks, s1) & _moved(masks, s2):
        return False
    return _splits(sys, s1, s2)


def _splits(sys, s1, s2) -> bool:
    """The rest of decomposes() for distinguished subsets moving disjoint
    roots: orthogonal new parabolic nodes and a smooth quotient."""
    d = sys.diagram
    add1 = frozenset().union(*(sys.colours[c].nodes for c in s1)) - sys.sp
    add2 = frozenset().union(*(sys.colours[c].nodes for c in s2)) - sys.sp
    # Each connected piece of the subdiagram spanned by the two enlarged
    # parabolic sets must lie on one side: a chain through shared sp nodes
    # couples the factors just as a direct edge would.
    if any(p & add1 and p & add2
           for p in pieces(sorted(sys.sp | add1 | add2), d.adjacent)):
        return False
    # a smooth quotient: every new root is an old one
    return any(set(_new_roots(sys, s)[1]) <= set(sys.sigma)
               for s in (s1, s2))


def is_decomposable(sys: SphericalSystem):
    """First pair of colour subsets decomposing the system, else None.

    Pairs (a, b) come in (size, indices) order of their subsets, a before
    b, and each subset's distinguishedness is decided at most once.  The
    factors of a decomposition use disjoint colours and move disjoint roots
    (_splits() tests the rest), so three cuts keep the answer exact:
    - a colour sharing a moved root with every other colour is in neither
      factor, so a and b are drawn from the other, loose colours;
    - b comes in (size, indices) order after a, so |a| <= |b| and a has at
      most half the loose colours;
    - b is drawn from the loose colours outside a that move no root of a.
    is_distinguished decides each subset from the system's cached rays.
    """
    n = len(sys.colours)
    masks = _moved_masks(sys)
    loose = [c for c in range(n)
             if any(not masks[c] & masks[e] for e in range(n) if e != c)]
    dist = {}

    def distinguished(s):
        if s not in dist:
            dist[s] = is_distinguished(sys, s)
        return dist[s]

    for size in range(1, len(loose) // 2 + 1):
        for a in itertools.combinations(loose, size):
            moved = _moved(masks, a)
            pool = [c for c in loose if c not in a and not masks[c] & moved]
            partners = itertools.chain.from_iterable(
                itertools.combinations(pool, r)
                for r in range(size, len(pool) + 1))
            for b in partners:
                if len(b) == size and b < a:
                    continue      # b precedes a: came as (b, a)
                if not distinguished(a):
                    break
                if distinguished(b) and _splits(sys, a, b):
                    return (a, b)
    return None


def is_primitive(sys: SphericalSystem) -> bool:
    return sys.is_cuspidal and is_decomposable(sys) is None


# -- affinity and dimension identities ---------------------------------------


def affine_witness(sys: SphericalSystem):
    """Nonnegative integer root combination pairing strictly positively with
    every colour, or None.  Encoded with one strict slack variable."""
    k = len(sys.sigma)
    rho = sys.rho_matrix
    if not sys.colours:
        return (0,) * k
    rows = [tuple(rho[c]) + (-1,) for c in range(len(sys.colours))]
    x = feasible_nonneg(rows, k + 1, strict={k})
    return None if x is None else x[:k]


def is_affine_feasible(sys: SphericalSystem) -> bool:
    return affine_witness(sys) is not None


def expected_dims(sys: SphericalSystem) -> tuple[int, int]:
    """(dimension, rank of the character group) predicted by the system."""
    dim = sys.diagram.dim_flag(sys.sp) + len(sys.sigma)
    rank = len(sys.colours) - len(sys.sigma)
    return dim, rank
