import itertools
import random
from collections import Counter

import pytest

from sphsys.budget import BudgetExceeded
from sphsys.feasible import rank
from sphsys.hilbert import hilbert_basis


def box_minimal(rows, n, bound):
    """Independent oracle: minimal solutions found by grid scan.

    A solution inside the box is globally minimal iff it is not the sum of
    two nonzero box solutions, since any summand is coordinatewise smaller.
    """
    sols = set()
    for pt in itertools.product(range(bound + 1), repeat=n):
        if not any(pt):
            continue
        if all(sum(a * v for a, v in zip(r, pt)) == 0 for r in rows):
            sols.add(pt)
    out = set()
    for x in sols:
        dec = False
        for y in sols:
            z = tuple(a - b for a, b in zip(x, y))
            if any(v < 0 for v in z) or not any(z):
                continue
            if z in sols:
                dec = True
                break
        if not dec:
            out.add(x)
    return out


def test_doc_example():
    assert set(hilbert_basis([(1, 1, -2)], 3)) == {
        (2, 0, 1), (0, 2, 1), (1, 1, 1)}


def test_no_constraints_gives_units():
    assert hilbert_basis([], 3) == ((0, 0, 1), (0, 1, 0), (1, 0, 0))


def test_zero_row_is_no_constraint():
    assert hilbert_basis([(0, 0)], 2) == ((0, 1), (1, 0))


def test_infeasible_kernel():
    assert hilbert_basis([(1, 1)], 2) == ()


def test_elements_are_solutions_and_incomparable():
    rows = [(2, -3, 1), (1, 0, -2)]
    basis = hilbert_basis(rows, 3)
    for x in basis:
        assert all(sum(a * v for a, v in zip(r, x)) == 0 for r in rows)
    for x in basis:
        for y in basis:
            if x != y:
                assert not all(a <= b for a, b in zip(x, y))


def test_cap_faults(monkeypatch):
    monkeypatch.setenv("SPHSYS_MAX_STATES", "3")
    # the one extreme ray of (6, -1) is lone, so the basis is that ray and
    # the completion, which spends states, is never entered
    assert hilbert_basis([(6, -1)], 2) == ((1, 6),)
    with pytest.raises(BudgetExceeded):
        hilbert_basis([(6, -1, -1)], 3)


def test_cap_fault_names_the_completion(monkeypatch):
    monkeypatch.setenv("SPHSYS_MAX_STATES", "3")
    with pytest.raises(BudgetExceeded) as err:
        hilbert_basis([(6, -1, -1)], 3)
    e = err.value
    assert str(e) == "hilbert search exceeded 3 states"
    assert (e.layer, e.count, e.cap) == ("hilbert", 4, 3)
    assert e.input == {"rows": [[6, -1, -1]]}


def test_against_box_oracle_randomized(monkeypatch):
    monkeypatch.setenv("SPHSYS_MAX_STATES", "200000")
    rng = random.Random(20260816)
    bound = 6
    checked = 0
    for _ in range(520):
        n = rng.randint(1, 4)
        rows = [tuple(rng.randint(-4, 4) for _ in range(n))
                for _ in range(rng.randint(1, 3))]
        basis = hilbert_basis(rows, n)
        expect = box_minimal(rows, n, bound)
        got_in_box = {x for x in basis if max(x) <= bound}
        assert got_in_box == expect, (rows, sorted(basis), sorted(expect))
        checked += 1
    assert checked >= 500
    # closed-form stratum, its own seed: forced zero columns and live
    # columns whose kernel has dimension 0 or 1
    rng = random.Random(20261018)
    bound = 4
    lines = Counter()
    while sum(lines.values()) < 300:
        live = rng.randint(1, 3)
        n = live + rng.randint(1, min(2, 4 - live))
        cols = sorted(rng.sample(range(n), live))
        dim = rng.randint(0, min(1, live - 1))
        sub = [tuple(rng.randint(-3, 3) for _ in range(live))
               for _ in range(live - dim)]
        if rank(sub) != live - dim or not all(map(any, zip(*sub))):
            continue
        rows = [tuple(r[cols.index(i)] if i in cols else 0
                      for i in range(n)) for r in sub]
        basis = hilbert_basis(rows, n)
        expect = box_minimal(rows, n, bound)
        assert {x for x in basis if max(x) <= bound} == expect, rows
        lines[dim, len(basis) > n - live] += 1
    # both dimensions, and lines inside and outside the orthant, occur
    assert len(lines) == 3 and min(lines.values()) >= 30, lines
