"""Exact integer linear algebra: rank, a kernel line, the feasibility
of 'Mx >= 0, x >= 0, some x_i >= 1' systems, and the supports of the
extreme rays of the cone 'Mx >= 0, x >= 0'.

Rank and the kernel line come from a fraction-free echelon step.
Feasibility is Fourier-Motzkin elimination on integer rows, each new row
divided by the gcd of its coefficients and constant, with Chernikov's rule
dropping the combinations of too many source rows; a satisfying point is
found by back-substitution and returned as its least integer multiple (the
system is invariant under scaling by integers >= 1), None means infeasible.
Both back-substitutions stay in integers through one step, _set_entry.
The extreme rays come from the double description method, which adds one
row at a time to the rays of the orthant.
"""

from __future__ import annotations

from math import gcd

from sphsys.budget import BudgetExceeded, max_states


def echelon_extend(basis, w):
    """Fraction-free echelon step; returns the new basis or None if w is
    dependent.  Stored rows are divided by their content to stay small."""
    v = list(w)
    for pivot, row in basis:
        a = v[pivot]
        if a:
            b = row[pivot]
            v = [b * x - a * y for x, y in zip(v, row)]
    for i, c in enumerate(v):
        if c:
            g = gcd(*v)
            return basis + [(i, [x // g for x in v])]
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

    Back-substitution through the echelon rows, last pivot first.
    """
    basis = _echelon(rows)
    if len(basis) != n_vars - 1:
        return None
    pivots = {p for p, _row in basis}
    x = [int(i not in pivots) for i in range(n_vars)]
    # an echelon row is zero on earlier pivots, so it only meets the free
    # column and pivots already solved; x[p] is still 0 here
    for p, row in reversed(basis):
        x = _set_entry(x, p, -sum(a * v for a, v in zip(row, x)), row[p])
    g = gcd(*x)
    if next(v for v in x if v) < 0:
        g = -g
    return tuple(v // g for v in x)


def feasible_nonneg(rows, n_vars: int, strict=()):
    """Find integer x with row.x >= 0 for all rows, x >= 0, x_i >= 1 on strict.

    rows: iterable of length-n_vars integer tuples.  Returns a tuple of ints
    or None.
    """
    strict = frozenset(strict)
    if n_vars == 0:
        return ()
    rows = [tuple(r) for r in rows]
    shift = [1 if i in strict else 0 for i in range(n_vars)]
    # substitute x = y + shift: rows become  row.y >= -row.shift,  y >= 0
    system = [(r, -sum(a * s for a, s in zip(r, shift))) for r in rows]
    for i in range(n_vars):
        system.append((tuple(int(j == i) for j in range(n_vars)), 0))

    # each row carries the bitmask of the input rows it was combined from;
    # after eliminating var + 1 variables, a combination of more than
    # var + 2 of them is implied by the rows kept (Chernikov, 1965), so
    # skipping it keeps the projection, and back-substitution never finds
    # it strictly tightest
    system = [(c, b, 1 << i) for i, (c, b) in enumerate(system)]
    cap = max_states()
    stages = []
    for var in range(n_vars):
        stages.append(system)
        pos = [row for row in system if row[0][var] > 0]
        neg = [row for row in system if row[0][var] < 0]
        new = [row for row in system if row[0][var] == 0]
        # check before combining: the product can be the cap squared
        size = len(new) + len(pos) * len(neg)
        if size > cap:
            raise BudgetExceeded(
                f"elimination would produce {size} rows (cap {cap})",
                layer="feasible", count=size, cap=cap,
                input={"rows": [list(r) for r in rows],
                       "strict": sorted(strict)})
        most = var + 2
        for pc, pb, ph in pos:
            for nc, nb, nh in neg:
                sources = ph | nh
                if sources.bit_count() > most:
                    continue
                mp, mn = -nc[var], pc[var]
                coeffs = [mp * a + mn * b for a, b in zip(pc, nc)]
                const = mp * pb + mn * nb
                g = gcd(*coeffs, const)
                if g > 1:
                    coeffs = [a // g for a in coeffs]
                    const //= g
                new.append((tuple(coeffs), const, sources))
        system = _drop_redundant(new, var + 1)

    if any(b > 0 for _c, b, _h in system):
        return None

    # back-substitute, tightest lower bound first, in homogeneous integer
    # coordinates: the point is y[:n_vars] / y[-1], with y[-1] >= 1 the
    # common denominator, and y[var] is still 0 when var is solved
    y = [0] * n_vars + [1]
    for var in reversed(range(n_vars)):
        lo, lo_den = 0, 1
        for coeffs, const, _h in stages[var]:
            c = coeffs[var]
            if c > 0:
                bound = const * y[-1] - sum(
                    a * v for a, v in zip(coeffs, y) if a)
                if bound * lo_den > lo * c:
                    lo, lo_den = bound, c
        y = _set_entry(y, var, lo, lo_den)
    x = [v + s * y[-1] for v, s in zip(y, shift)]
    g = gcd(y[-1], *x)
    return tuple(v // g for v in x)


def extreme_ray_supports(rows, n_vars: int) -> tuple:
    """Supports of the extreme rays of {x : row.x >= 0 for all rows, x >= 0}
    as bitmasks, bit i for x_i > 0, sorted and without repeats (two rays
    may share a support).

    Double description (Motzkin, Raiffa, Thompson and Thrall, 1953): start
    from the unit vectors, the extreme rays of the orthant, and add one row
    at a time.  The rays on the row's nonnegative side stay, and each
    adjacent pair of a ray p on its positive side and a ray q on its
    negative side gives the new ray (row.p) q - (row.q) p, where the edge
    between them crosses the row.  Each ray carries the bitmask of the
    constraints tight on it: bit i for x_i = 0, bit n_vars + j for row j.
    The cone lies in the orthant, so it is pointed, and p and q are
    adjacent exactly when no third ray is tight on every constraint tight
    on both (the combinatorial test: those constraints cut out the least
    face holding p and q, and its extreme rays are the rays tight on them
    all).  Raises BudgetExceeded when a row has more pairs to test than
    max_states().
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
            v = sum(a * b for a, b in zip(row, x) if a)
            if v > 0:
                pos.append((x, tight, v))
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
    return tuple(sorted({signs & ~tight for _x, tight in rays}))


def _set_entry(x, i, a, b):
    """x with entry i set to a/b in x's own scale: the whole vector is
    multiplied by b/gcd(a, b), which keeps it integral."""
    g = gcd(a, b)
    m = b // g
    x = [m * v for v in x]
    x[i] = a // g
    return x


def _drop_redundant(rows, start):
    """Discard duplicates: rows equal on the variables not yet eliminated
    and in the constant.  Rows are gcd-normalised, so this also drops
    positive multiples."""
    seen = set()
    out = []
    for row in rows:
        key = (row[0][start:], row[1])
        if key in seen:
            continue
        seen.add(key)
        out.append(row)
    return out
