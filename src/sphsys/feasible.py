"""Exact integer linear algebra: rank, a kernel line, and the feasibility
of 'Mx >= 0, x >= 0, some x_i >= 1' systems.

Rank and the kernel line come from a fraction-free echelon step.
Feasibility is Fourier-Motzkin elimination on integer rows, each new row
divided by the gcd of its coefficients and constant; a satisfying point is
found by back-substitution and returned as its least integer multiple (the
system is invariant under scaling by integers >= 1), None means infeasible.
Both back-substitutions stay in integers through one step, _set_entry.
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
        for pc, pb in pos:
            for nc, nb in neg:
                mp, mn = -nc[var], pc[var]
                coeffs = [mp * a + mn * b for a, b in zip(pc, nc)]
                const = mp * pb + mn * nb
                g = gcd(*coeffs, const)
                if g > 1:
                    coeffs = [a // g for a in coeffs]
                    const //= g
                new.append((tuple(coeffs), const))
        system = _drop_redundant(new, var + 1)

    if any(b > 0 for _c, b in system):
        return None

    # back-substitute, tightest lower bound first, in homogeneous integer
    # coordinates: the point is y[:n_vars] / y[-1], with y[-1] >= 1 the
    # common denominator, and y[var] is still 0 when var is solved
    y = [0] * n_vars + [1]
    for var in reversed(range(n_vars)):
        lo, lo_den = 0, 1
        for coeffs, const in stages[var]:
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
    for coeffs, const in rows:
        key = (coeffs[start:], const)
        if key in seen:
            continue
        seen.add(key)
        out.append((coeffs, const))
    return out
