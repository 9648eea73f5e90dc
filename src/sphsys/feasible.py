"""Exact rational feasibility of 'Mx >= 0, x >= 0, some x_i >= 1' systems.

Fourier-Motzkin elimination over Fractions; a satisfying point is scaled to
integers (the system is invariant under scaling by integers >= 1) and
returned as a certificate, None means infeasible.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from sphsys.budget import BudgetExceeded, max_states


def feasible_nonneg(rows, n_vars: int, strict=()):
    """Find integer x with row.x >= 0 for all rows, x >= 0, x_i >= 1 on strict.

    rows: iterable of length-n_vars integer tuples.  Returns a tuple of ints
    or None.
    """
    strict = frozenset(strict)
    if n_vars == 0:
        return ()
    shift = [1 if i in strict else 0 for i in range(n_vars)]
    # substitute x = y + shift: rows become  row.y >= -row.shift,  y >= 0
    system = []
    for r in rows:
        const = -sum(a * s for a, s in zip(r, shift))
        system.append((tuple(Fraction(a) for a in r), Fraction(const)))
    for i in range(n_vars):
        unit = tuple(Fraction(int(j == i)) for j in range(n_vars))
        system.append((unit, Fraction(0)))

    cap = max_states()
    stages = []
    for var in range(n_vars):
        stages.append(system)
        pos = [row for row in system if row[0][var] > 0]
        neg = [row for row in system if row[0][var] < 0]
        zero = [row for row in system if row[0][var] == 0]
        new = list(zero)
        for pc, pb in pos:
            for nc, nb in neg:
                mp, mn = -nc[var], pc[var]
                coeffs = tuple(mp * a + mn * b for a, b in zip(pc, nc))
                new.append((coeffs, mp * pb + mn * nb))
        if len(new) > cap:
            raise BudgetExceeded(
                f"elimination produced {len(new)} rows (cap {cap})")
        system = _drop_redundant(new, var + 1, n_vars)

    if any(b > 0 for _c, b in system):
        return None

    # back-substitute, tightest lower bound first
    y = [Fraction(0)] * n_vars
    for var in reversed(range(n_vars)):
        lo = Fraction(0)
        for coeffs, const in stages[var]:
            c = coeffs[var]
            if c > 0:
                rest = sum(a * y[j] for j, a in enumerate(coeffs)
                           if j != var and a)
                bound = (const - rest) / c
                if bound > lo:
                    lo = bound
        y[var] = lo
    x = [v + s for v, s in zip(y, shift)]
    scale = lcm(*(v.denominator for v in x))
    return tuple(int(v * scale) for v in x)


def _drop_redundant(rows, start, n_vars):
    """Discard exact duplicates: rows equal on the variables not yet
    eliminated and in the constant."""
    seen = set()
    out = []
    for coeffs, const in rows:
        key = (coeffs[start:], const)
        if key in seen:
            continue
        seen.add(key)
        out.append((coeffs, const))
    return out
