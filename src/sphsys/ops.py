"""Operations of the combinatorial dictionary on spherical systems.

Everything here is exact.  Whether a colour subset is distinguished is
decided in three steps, cheapest first: the witness phi = (1, ..., 1), a
root refuting every witness, both read off per-root sign masks, and a
lookup among the supports of the extreme rays of the cone of witnesses;
masks and rays are computed once per system.  The witnesses themselves
are sums of extreme rays of the cone each one asks about
(feasible.feasible_nonneg).  Quotient monoids come from Hilbert bases,
which start from the extreme rays of the pairing kernel
(feasible.kernel_rays); the smooth test reads those rays alone, and needs
none for one colour.  A colour subset is a set: repeated indices count
once, and inside the module it is a bitmask, bit c for colour c.  The
primitivity filter (is_decomposable) carries its subsets as such masks
from end to end, and answers from the colour pairing alone, reading no
sign mask, when fewer than two colours are loose.  Quotient systems are
constructed and validated, never assumed valid.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from sphsys.dynkin import (Diagram, DiagramError, bourbaki_orders, pieces,
                           support)
from sphsys.feasible import feasible_nonneg, kernel_rays
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
    shapes.sort()
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


def _colour_subset(sys, subset) -> int:
    """The colours of subset as a bitmask, bit c for colour c; ValueError on
    an entry that is no colour index of the system.  A bool is no colour,
    though Python counts it as an int."""
    n = len(sys.colours)
    mask = 0
    for c in subset:
        if type(c) is not int or not 0 <= c < n:
            raise ValueError(
                f"no colour D{c!r}: the system has {n} colour(s)")
        mask |= 1 << c
    return mask


def _members(mask) -> tuple:
    """The colour indices of a bitmask, in increasing order."""
    return tuple(c for c in range(mask.bit_length()) if mask >> c & 1)


def distinguished_witness(sys: SphericalSystem, subset):
    """Positive integer colour multiplicities phi with <rho(phi), gamma> >= 0
    for every spherical root, or None.  Raises ValueError on a colour index
    the system does not have."""
    subset = _members(_colour_subset(sys, subset))
    rho = sys.rho_matrix
    return feasible_nonneg(zip(*(rho[c] for c in subset)), len(subset),
                           strict=range(len(subset)))


def is_distinguished(sys: SphericalSystem, subset) -> bool:
    """Whether distinguished_witness(sys, subset) exists, without a ray
    enumeration per subset.

    The subset S is distinguished when the cone C = {phi >= 0 :
    <rho(phi), gamma> >= 0 for every spherical root gamma} has a point
    with support exactly S.  Three tests, cheapest first; the first two
    read each root's sign masks (SphericalSystem.sign_masks: the colours
    pairing negatively with it, and those pairing positively):
    1. phi = (1, ..., 1) on S is such a point when no column sum of S's
       rho rows is negative: a witness, so True is exact.  Only the roots
       where S has both signs need a sum: a root with no negative entry in
       S sums to >= 0, and one with no positive entry is test 2's.
    2. A root whose negative mask meets S and whose positive mask misses
       it pairs negatively with every phi > 0 on S: a refutation, so
       False is exact.  Such a root's column sum is negative, so tests 1
       and 2 exclude each other and one pass over the roots runs both.
    3. Otherwise S is distinguished iff S is the union of the supports of
       the extreme rays of C that lie inside S.  C lies in the orthant, so
       it is pointed, and every point of C is a nonnegative combination of
       extreme rays (Minkowski-Weyl).  The support of a sum of nonnegative
       vectors is the union of their supports, so a point with support S
       is a sum of rays whose supports lie inside S and cover S.
       Conversely, the sum of the rays inside S is a point of C whose
       support is their union.
    The masks and the ray supports (SphericalSystem.distinguished_rays)
    are computed once per system.
    """
    return _distinguished(sys, _colour_subset(sys, subset), sys.sign_masks)


def _distinguished(sys, mask, signs) -> bool:
    """is_distinguished on a bitmask of valid colours, given the system's
    sign_masks; the rho rows are read only when a root is mixed."""
    mixed = []
    for j, (neg, pos) in enumerate(signs):
        if neg & mask:
            if not pos & mask:
                return False
            mixed.append(j)
    if not mixed:
        return True
    rows = [row for c, row in enumerate(sys.rho_matrix) if mask >> c & 1]
    if all(sum(row[j] for row in rows) >= 0 for j in mixed):
        return True
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
    mask = _colour_subset(sys, subset)
    if not _distinguished(sys, mask, sys.sign_masks):
        raise ValueError("quotient by a non-distinguished subset")
    subset = _members(mask)
    # one equation per chosen colour, variables are root multiplicities
    coeffs = hilbert_basis([sys.rho_matrix[c] for c in subset], len(sys.sigma))
    sigma_out = tuple(sorted(
        tuple(sum(c * v for c, v in zip(x, col)) for col in zip(*sys.sigma))
        for x in coeffs))
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


# -- decompositions ----------------------------------------------------------


def _moved_masks(sys) -> list:
    """Per colour, the bitmask of the spherical roots it pairs with."""
    masks = []
    for row in sys.rho_matrix:
        mask = 0
        for j, v in enumerate(row):
            if v:
                mask |= 1 << j
        masks.append(mask)
    return masks


def _moved(masks, subset) -> int:
    """Bitmask of the spherical roots some colour of the subset pairs with;
    the subset is a colour bitmask."""
    out = 0
    for c in _members(subset):
        out |= masks[c]
    return out


def decomposes(sys: SphericalSystem, s1, s2) -> bool:
    """Whether two disjoint colour subsets split the system in two.

    Requires: disjoint supports of moved roots, mutually orthogonal new
    parabolic nodes, and at least one smooth quotient.  Non-distinguished
    subsets never decompose.  Raises ValueError on empty or overlapping
    subsets and on an entry that is no colour index of the system.
    """
    s1 = _colour_subset(sys, s1)
    s2 = _colour_subset(sys, s2)
    if not s1 or not s2:
        raise ValueError("decomposition subsets must be nonempty")
    if s1 & s2:
        raise ValueError("decomposition subsets must be disjoint")
    signs = sys.sign_masks
    if not (_distinguished(sys, s1, signs) and _distinguished(sys, s2, signs)):
        return False
    masks = _moved_masks(sys)
    if _moved(masks, s1) & _moved(masks, s2):
        return False
    return _splits(sys, s1, s2) and (_smooth(sys, s1) or _smooth(sys, s2))


def _splits(sys, s1, s2) -> bool:
    """Whether distinguished subsets moving disjoint roots add mutually
    orthogonal parabolic nodes; decomposes() also needs a smooth side.
    The subsets are colour bitmasks."""
    d, colours = sys.diagram, sys.colours
    add1 = frozenset().union(*(c.nodes for k, c in enumerate(colours)
                               if s1 >> k & 1))
    add2 = frozenset().union(*(c.nodes for k, c in enumerate(colours)
                               if s2 >> k & 1))
    # Each connected piece of the subdiagram spanned by the two enlarged
    # parabolic sets must lie on one side: a chain through shared sp nodes
    # couples the factors just as a direct edge would.
    return not any(p & add1 and p & add2
                   for p in pieces(sorted(sys.sp | add1 | add2), d.adjacent))


def _smooth(sys, subset) -> bool:
    """Whether quotient(sys, subset) is smooth, for a distinguished subset,
    from the extreme rays of the pointed cone C = {x >= 0 : rho_s x = 0},
    one equality row per colour.  Sigma is independent, so the quotient is
    smooth iff C's Hilbert basis is all unit vectors.  The basis holds
    every ray's primitive vector, and an orthant's basis is its units, so
    that holds iff every ray is a unit vector.  One colour needs no rays:
    a distinguished colour pairs >= 0 with every root, so C is the face of
    the orthant where its positive roots vanish, spanned by unit vectors.
    The subset is a colour bitmask."""
    if not subset & subset - 1:
        return True
    rows = [row for c, row in enumerate(sys.rho_matrix) if subset >> c & 1]
    return all(sum(x) == 1 for x in kernel_rays(rows, len(sys.sigma)))


def is_decomposable(sys: SphericalSystem):
    """First pair of colour subsets decomposing the system, else None.

    Pairs (a, b) come in (size, indices) order of their subsets, a before
    b.  The factors of a decomposition use disjoint colours and move
    disjoint roots (_splits() and _smooth() test the rest), so three cuts
    keep the answer exact:
    - a colour sharing a moved root with every other colour is in neither
      factor, so a and b are drawn from the other, loose colours; with
      fewer than two loose colours there is no pair, and the call returns
      before it reads any sign mask;
    - b comes in (size, indices) order after a, so |a| <= |b|, a has at
      most half the loose colours, and a b of a's size starts after a's
      least colour (disjoint sorted tuples compare at their first entry);
    - b is drawn from the loose colours outside a that move no root of a.
    Subsets are carried as colour bitmasks, and only the returned pair is
    turned into index tuples.  Whether a subset is distinguished, and
    whether its quotient is smooth, is decided at most once per call, in
    dicts keyed by the bitmask; the sign masks are read once per call, and
    the subsets skip is_distinguished's input check.
    """
    masks = _moved_masks(sys)
    loose = []
    for c, m in enumerate(masks):
        for e, other in enumerate(masks):
            if not m & other and e != c:
                loose.append(c)
                break
    if len(loose) < 2:
        return None
    signs = sys.sign_masks
    dist, smooth = {}, {}

    def smooth_quotient(s):
        if s not in smooth:
            smooth[s] = _smooth(sys, s)
        return smooth[s]

    bits = [1 << c for c in loose]
    # per loose colour, its bit and the loose colours moving none of its
    # roots: a's partners are the colours outside a in all of a's sets
    items = []
    for c in loose:
        free = 0
        for e in loose:
            if not masks[e] & masks[c]:
                free |= 1 << e
        items.append((1 << c, free))
    for size in range(1, len(loose) // 2 + 1):
        for chosen in itertools.combinations(items, size):
            a, apart = 0, -1
            for bit, free in chosen:
                a |= bit
                apart &= free
            pool = apart & ~a
            later = pool & -((a & -a) << 1)      # above a's least colour
            if later.bit_count() < size and pool.bit_count() <= size:
                continue          # no partner
            if a not in dist:
                dist[a] = _distinguished(sys, a, signs)
            if not dist[a]:
                continue
            pool_bits = [bit for bit in bits if bit & pool]
            partners = itertools.chain(
                itertools.combinations(
                    [bit for bit in pool_bits if bit & later], size),
                *(itertools.combinations(pool_bits, r)
                  for r in range(size + 1, len(pool_bits) + 1)))
            for group in partners:
                b = sum(group)
                if b not in dist:
                    dist[b] = _distinguished(sys, b, signs)
                if (dist[b] and _splits(sys, a, b)
                        and (smooth_quotient(a) or smooth_quotient(b))):
                    return _members(a), _members(b)
    return None


def is_primitive(sys: SphericalSystem) -> bool:
    # the empty system on the empty diagram is the unit of the product, not
    # a building block
    return bool(sys.sigma) and sys.is_cuspidal and is_decomposable(sys) is None


# -- affinity and dimension identities ---------------------------------------


def affine_witness(sys: SphericalSystem):
    """Nonnegative integer root combination pairing strictly positively with
    every colour, or None.  Encoded with one strict slack variable."""
    k = len(sys.sigma)
    rho = sys.rho_matrix
    rows = [tuple(rho[c]) + (-1,) for c in range(len(sys.colours))]
    x = feasible_nonneg(rows, k + 1, strict={k})
    return None if x is None else x[:k]


def expected_dims(sys: SphericalSystem) -> tuple[int, int]:
    """(dimension, rank of the character group) predicted by the system."""
    dim = sys.diagram.dim_flag(sys.sp) + len(sys.sigma)
    rank = len(sys.colours) - len(sys.sigma)
    return dim, rank
