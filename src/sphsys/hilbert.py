"""Hilbert bases of lattice kernels intersected with the positive orthant.

Completion procedure of Contejean and Devie: breadth-first growth from the
unit vectors, extending t by e_i only while A.t and A.e_i point into
opposite half-spaces.  The procedure is complete for minimal solutions of
A x = 0, x >= 0; the state cap guards against runaway instances.
"""

from __future__ import annotations

from sphsys.budget import BudgetExceeded, max_states


def hilbert_basis(rows, n_vars: int):
    """Minimal nonzero solutions of rows.x == 0 over nonnegative integers.

    rows: iterable of length-n_vars integer tuples.  Returns a sorted tuple
    of integer tuples.
    """
    a = [tuple(r) for r in rows]
    cap = max_states()

    def image(x):
        return tuple(sum(ai * xi for ai, xi in zip(row, x) if xi)
                     for row in a)

    cols = [image(tuple(int(j == i) for j in range(n_vars)))
            for i in range(n_vars)]

    def dot(u, v):
        return sum(x * y for x, y in zip(u, v))

    basis: list[tuple[int, ...]] = []
    frontier = [tuple(int(j == i) for j in range(n_vars))
                for i in range(n_vars)]
    values = {t: image(t) for t in frontier}
    seen = set(frontier)
    while frontier:
        nxt = []
        for t in frontier:
            v = values[t]
            if not any(v):
                basis.append(t)
                continue
            for i in range(n_vars):
                if dot(v, cols[i]) < 0:
                    u = list(t)
                    u[i] += 1
                    u = tuple(u)
                    if u in seen:
                        continue
                    if any(all(b <= x for b, x in zip(bb, u))
                           for bb in basis):
                        continue
                    seen.add(u)
                    if len(seen) > cap:
                        raise BudgetExceeded(
                            f"hilbert search exceeded {cap} states")
                    values[u] = tuple(x + y for x, y in zip(v, cols[i]))
                    nxt.append(u)
        frontier = nxt
    # defensive minimality sweep; completion already avoids dominated states
    out = []
    for x in sorted(basis):
        if not any(all(b <= xi for b, xi in zip(bb, x))
                   for bb in out):
            out.append(x)
    return tuple(out)
