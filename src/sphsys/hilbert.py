"""Hilbert bases of lattice kernels intersected with the positive orthant.

The basis of a pointed cone is unique, so it may be assembled from exact
pieces before any search:

- a column every row kills gives a unit vector of the basis, and the rest
  of the basis lives on the other ("live") columns, since a minimal
  solution with a dead entry is that unit alone;
- live columns of full rank leave the kernel {0}, so they add nothing;
- live columns of rank one less leave a line spanned by a primitive integer
  vector v, whose lattice points are the multiples of v: they add v if v is
  nonnegative and nothing if v has mixed signs.

Larger kernels go to the completion procedure of Contejean and Devie:
breadth-first growth from the unit vectors, extending t by e_i only while
A.t and A.e_i point into opposite half-spaces.  The procedure is complete
for minimal solutions of A x = 0, x >= 0; the state cap guards against
runaway instances.
"""

from __future__ import annotations

from sphsys.budget import BudgetExceeded, max_states
from sphsys.feasible import kernel_vector, rank


def hilbert_basis(rows, n_vars: int):
    """Minimal nonzero solutions of rows.x == 0 over nonnegative integers.

    rows: iterable of length-n_vars integer tuples.  Returns a sorted tuple
    of integer tuples.
    """
    a = [tuple(r) for r in rows]
    live = [i for i in range(n_vars) if any(r[i] for r in a)]
    sub = [tuple(r[i] for i in live) for r in a]
    found = ()
    k = rank(sub)
    if k == len(live) - 1:
        v = kernel_vector(sub, len(live))
        if min(v) >= 0:     # v leads with a positive entry: -v is never >= 0
            found = (v,)
    elif k < len(live) - 1:
        found = _completion(sub, len(live))
    out = [tuple(int(j == i) for j in range(n_vars))
           for i in range(n_vars) if i not in live]
    for x in found:
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

    def dot(u, v):
        return sum(x * y for x, y in zip(u, v))

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
                            f"hilbert search exceeded {cap} states",
                            layer="hilbert", count=len(seen), cap=cap,
                            input={"rows": [list(r) for r in a]})
                    values[u] = tuple(x + y for x, y in zip(v, cols[i]))
                    nxt.append(u)
        frontier = nxt
    return basis
