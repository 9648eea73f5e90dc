"""Exact integer linear algebra: rank, a kernel line, and the extreme rays
of the cones 'Mx >= 0, x >= 0' and 'Mx = 0, x >= 0', with two questions
read off the first: the feasibility of 'Mx >= 0, x >= 0, x_i >= 1 on a
strict set' and the supports of the rays.  The rays of the second, the
kernel cone, answer Hilbert bases and the smooth test.

Rank and the kernel line come from one fraction-free echelon step, on the
rows for the rank and on the columns with unit-vector tails for the kernel
(Cohen, A Course in Computational Algebraic Number Theory, 1993, ch. 2).
The extreme rays come from the double description method, which adds one
row at a time to the rays of the orthant, an equation in one step as an
equality row (Fukuda and Prodon, Double description method revisited,
1996); a feasibility certificate is a sum of rays (the system is invariant
under scaling by integers >= 1), None means infeasible.
"""

from __future__ import annotations

from math import gcd
from operator import mul

from sphsys.budget import BudgetExceeded, max_states


def echelon_extend(basis, w):
    """Fraction-free echelon step; returns the new basis or None if w is
    dependent.  Stored rows are divided by their content to stay small;
    a row of content 1 is stored as it is, a tuple of w's entries when no
    earlier row reduced it.  No stored row is ever changed."""
    v = tuple(w)    # w itself when w is a tuple
    for pivot, row in basis:
        a = v[pivot]
        if a:
            b = row[pivot]
            v = [b * x - a * y for x, y in zip(v, row)]
    for i, c in enumerate(v):
        if c:
            g = gcd(*v)
            return basis + [(i, [x // g for x in v] if g > 1 else v)]
    return None


def _echelon(rows):
    basis = []
    for r in rows:
        basis = echelon_extend(basis, r) or basis
    return basis


def rank(rows) -> int:
    """Rank over Q of a sequence of integer vectors."""
    return len(_echelon(rows))


def kernel_vector(rows, n_vars: int):
    """Primitive integer vector spanning {x : row.x == 0 for all rows} when
    that kernel is a line, with its first nonzero entry positive; else None.

    One echelon pass over the columns of rows, each followed by its unit
    vector: a stored row's tail tracks the column combination in its head,
    so the tails of the rows with a zero head span the kernel, primitive
    because echelon_extend divides by the content.
    """
    rows = list(rows)
    m = len(rows)
    basis = _echelon([*(r[i] for r in rows),
                      *(int(j == i) for j in range(n_vars))]
                     for i in range(n_vars))
    tails = [(row[p], row[m:]) for p, row in basis if p >= m]
    if len(tails) != 1:
        return None
    (lead, tail), = tails
    return tuple(x if lead > 0 else -x for x in tail)


def feasible_nonneg(rows, n_vars: int, strict=()):
    """Find integer x with row.x >= 0 for all rows, x >= 0, x_i >= 1 on strict.

    rows: iterable of length-n_vars integer tuples.  Returns a tuple of ints
    or None.

    The cone {x : row.x >= 0, x >= 0} lies in the orthant, so it is pointed
    and every point is a nonnegative combination of its extreme rays.  A
    point with x_i > 0 therefore needs a ray with x_i > 0, and the sum of
    such rays, one per strict index, is a point positive on them all.  The
    certificate takes, for each strict index in increasing order, the first
    ray positive there, and returns the sum of the distinct rays picked
    divided by its gcd; an integer entry > 0 is >= 1.  Raises
    BudgetExceeded as the ray enumeration does.
    """
    strict = sorted(set(strict))
    if not strict:
        return (0,) * n_vars
    rays = [x for x, _tight in _rays(rows, n_vars)]
    picked = set()
    for i in strict:
        k = next((k for k, x in enumerate(rays) if x[i]), None)
        if k is None:
            return None
        picked.add(k)
    x = [sum(col) for col in zip(*(rays[k] for k in picked))]
    g = gcd(*x)
    return tuple(v // g for v in x)


def extreme_ray_supports(rows, n_vars: int) -> tuple:
    """Supports of the extreme rays of {x : row.x >= 0 for all rows, x >= 0}
    as bitmasks, bit i for x_i > 0, sorted and without repeats (two rays
    may share a support).  Raises BudgetExceeded as _rays does."""
    signs = (1 << n_vars) - 1     # the constraints x_i >= 0
    rays = _rays(rows, n_vars)
    return tuple(sorted({signs & ~tight for _x, tight in rays}))


def kernel_rays(rows, n_vars: int) -> list:
    """The extreme rays of {x >= 0 : row.x == 0 for all rows} as primitive
    integer vectors.  Raises BudgetExceeded as _rays does."""
    return [x for x, _tight in _rays(rows, n_vars, equations=True)]


def _rays(rows, n_vars: int, equations=False) -> list:
    """The extreme rays of {x : row.x >= 0 for all rows, x >= 0}, or of
    {x >= 0 : row.x == 0 for all rows} when equations is true, as
    (primitive integer ray, bitmask of the constraints tight on it) pairs.

    Double description (Motzkin, Raiffa, Thompson and Thrall, 1953): start
    from the unit vectors, the extreme rays of the orthant, and add one row
    at a time.  The rays on the row's zero side stay, so do those on its
    positive side unless the row is an equation, and each adjacent pair of
    a ray p on its positive side and a ray q on its negative side gives the
    new ray (row.p) q - (row.q) p, where the edge between them crosses the
    row.  Each ray carries the bitmask of the constraints tight on it: bit
    i for x_i = 0, bit n_vars + j for row j.  The cone lies in the orthant,
    so it is pointed, and p and q are adjacent exactly when no third ray is
    tight on every constraint tight on both (the combinatorial test: those
    constraints cut out the least face holding p and q, and its extreme
    rays are the rays tight on them all).  Raises BudgetExceeded when a row
    has more pairs to test than max_states().
    """
    rows = [tuple(r) for r in rows]
    signs = (1 << n_vars) - 1     # the constraints x_i >= 0
    rays = [(tuple(int(j == i) for j in range(n_vars)), signs ^ (1 << i))
            for i in range(n_vars)]
    cap = max_states()
    for k, row in enumerate(rows):
        bit = 1 << (n_vars + k)
        pos, neg, out = [], [], []
        for x, tight in rays:
            v = sum(map(mul, row, x))
            if v > 0:
                pos.append((x, tight, v))
                if not equations:
                    out.append((x, tight))
            elif v < 0:
                neg.append((x, tight, v))
            else:
                out.append((x, tight | bit))
        size = len(pos) * len(neg)
        if size > cap:
            raise BudgetExceeded(
                f"ray enumeration would test {size} pairs (cap {cap})",
                layer="feasible", count=size, cap=cap,
                input={"rows": [list(r) for r in rows]})
        for p, tp, vp in pos:
            for q, tq, vq in neg:
                common = tp & tq
                # distinct extreme rays have distinct tight sets
                if any(t & common == common
                       for _x, t in rays if t != tp and t != tq):
                    continue
                x = [vp * b - vq * a for a, b in zip(p, q)]
                g = gcd(*x)
                out.append((tuple(v // g for v in x), common | bit))
        rays = out
    return rays
