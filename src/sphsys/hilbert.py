"""Hilbert bases of lattice kernels intersected with the positive orthant.

The cone C = {x >= 0 : A x = 0} is pointed, so every point of C is a
nonnegative combination of its extreme rays (Minkowski-Weyl), and its
basis is unique.  One rule splits the basis off the rays before any
search: a ray whose support meets no other ray's support spans a direct
summand of C whose lattice points are the multiples of the ray's
primitive vector, so that vector is a basis element, and the basis of a
direct sum is the union of the parts' bases.  A column every row kills is
such a lone ray.

The columns of the other rays, pooled, go to the completion procedure of
Contejean and Devie: breadth-first growth from the unit vectors, extending
t by e_i only while A.t and A.e_i point into opposite half-spaces.  The
procedure is complete for minimal solutions of A x = 0, x >= 0; the state
cap guards against runaway instances.
"""

from __future__ import annotations

from operator import mul

from sphsys.budget import BudgetExceeded, max_states
from sphsys.feasible import kernel_rays


def hilbert_basis(rows, n_vars: int):
    """Minimal nonzero solutions of rows.x == 0 over nonnegative integers.

    rows: iterable of length-n_vars integer tuples.  Returns a sorted tuple
    of integer tuples.  Raises BudgetExceeded from the kernel rays (layer
    "feasible") or the completion (layer "hilbert").
    """
    a = [tuple(r) for r in rows]
    rays = kernel_rays(a, n_vars)
    count = [sum(1 for x in rays if x[i]) for i in range(n_vars)]
    out, pooled = [], set()
    for x in rays:
        support = [i for i, v in enumerate(x) if v]
        if all(count[i] == 1 for i in support):
            out.append(x)       # a lone ray: its own direct summand
        else:
            pooled.update(support)
    # a zero column i is the lone ray e_i: another ray using i would be
    # decomposed by subtracting its x_i e_i, so pooled columns are nonzero
    if not pooled:      # every ray lone, or no ray: nothing to complete
        return tuple(sorted(out))
    live = sorted(pooled)
    for x in _completion([tuple(r[i] for i in live) for r in a], len(live)):
        y = [0] * n_vars
        for i, c in zip(live, x):
            y[i] = c
        out.append(tuple(y))
    return tuple(sorted(out))


def _completion(a, n_vars):
    """Contejean-Devie completion; the minimal solutions, in any order.

    No found s lies below another found u: every column of a is nonzero, so
    the kernel vector u - s has entry sum >= 2, u is made from the frontier
    of sum |u| - 1 > |s| after s joined the basis, and the domination check
    skips it."""
    cap = max_states()

    cols = list(zip(*a))    # A.e_i, the image of each unit vector
    basis: list[tuple[int, ...]] = []
    frontier = [tuple(int(j == i) for j in range(n_vars))
                for i in range(n_vars)]
    values = dict(zip(frontier, cols))
    seen = set(frontier)
    while frontier:
        nxt = []
        for t in frontier:
            v = values[t]
            if not any(v):
                basis.append(t)
                continue
            for i in range(n_vars):
                if sum(map(mul, v, cols[i])) < 0:
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
                            f"hilbert search exceeded {cap} states",
                            layer="hilbert", count=len(seen), cap=cap,
                            input={"rows": [list(r) for r in a]})
                    values[u] = tuple(x + y for x, y in zip(v, cols[i]))
                    nxt.append(u)
        frontier = nxt
    return basis
