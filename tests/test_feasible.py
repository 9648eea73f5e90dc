import hashlib
import itertools
import random
import tracemalloc
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sphsys import ops
from sphsys.budget import BudgetExceeded, max_states
from sphsys.families import expand_catalog
from sphsys.feasible import (echelon_extend, extreme_ray_supports,
                             feasible_nonneg, kernel_vector, rank)


def check(rows, n, strict=()):
    x = feasible_nonneg(rows, n, strict)
    if x is not None:
        assert len(x) == n
        for i in strict:
            assert x[i] >= 1
        assert all(v >= 0 for v in x)
        for r in rows:
            assert sum(a * v for a, v in zip(r, x)) >= 0, (r, x)
    return x


def test_trivial():
    assert check([], 0) == ()
    assert check([], 2) is not None
    assert check([], 2, strict={0, 1}) == (1, 1)


def test_simple_feasible():
    # rho rows of the mixed pair-and-doubled system on A3
    x = check([(2, -1), (-2, 2)], 2, strict={0, 1})
    assert x is not None


def test_simple_infeasible():
    # one functional strictly negative on a root can never work alone
    assert check([(-1,)], 1, strict={0}) is None


def test_opposing_rows():
    assert check([(1, -1), (-1, 1)], 2, strict={0, 1}) is not None
    assert check([(1, -2), (-2, 1)], 2, strict={0, 1}) is None


def test_nonstrict_vars_may_rest_at_zero():
    x = check([(-5, 1)], 2, strict={1})
    assert x is not None and x[0] == 0


def test_three_vars():
    rows = [(1, 1, -1), (-1, 1, 1), (1, -1, 1)]
    assert check(rows, 3, strict={0, 1, 2}) is not None
    rows_bad = [(1, 0, -3), (0, 1, -3), (-1, -1, 3)]
    # sum of first two with the third forces 3z > 3z
    assert check(rows_bad, 3, strict={0, 1, 2}) is None


def test_budget_fault(monkeypatch):
    monkeypatch.setenv("SPHSYS_MAX_STATES", "1")
    rows = [(1, -1, 0), (0, 1, -1), (-1, 0, 1)]
    with pytest.raises(BudgetExceeded):
        feasible_nonneg(rows, 3, strict={0, 1, 2})


def test_budget_fault_names_the_elimination(monkeypatch):
    monkeypatch.setenv("SPHSYS_MAX_STATES", "1")
    rows = ((1, -1, 0), (0, 1, -1), (-1, 0, 1))
    with pytest.raises(BudgetExceeded) as err:
        feasible_nonneg(iter(rows), 3, strict={2, 0})
    e = err.value
    assert str(e) == f"elimination would produce {e.count} rows (cap 1)"
    assert (e.layer, e.cap) == ("feasible", 1) and e.count > 1
    assert e.input == {"rows": [list(r) for r in rows], "strict": [0, 2]}


@pytest.mark.parametrize("raw", ["abc", "1e3", "-5", " 10"])
def test_malformed_budget_fails_loudly(monkeypatch, raw):
    monkeypatch.setenv("SPHSYS_MAX_STATES", raw)
    with pytest.raises(ValueError, match="SPHSYS_MAX_STATES") as err:
        max_states()
    assert repr(raw) in str(err.value)


def test_budget_values(monkeypatch):
    monkeypatch.delenv("SPHSYS_MAX_STATES", raising=False)
    assert max_states() == 1_000_000
    monkeypatch.setenv("SPHSYS_MAX_STATES", "")
    assert max_states() == 1_000_000
    monkeypatch.setenv("SPHSYS_MAX_STATES", "1000")
    assert max_states() == 1000


def test_budget_trips_before_building_rows(monkeypatch):
    # 600 x 600 row pairs on the first variable: the cap must stop the
    # elimination before the 360 000 combinations exist
    monkeypatch.setenv("SPHSYS_MAX_STATES", "1000")
    rows = [(s, k) for s in (1, -1) for k in range(600)]
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceeded):
            feasible_nonneg(rows, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5_000_000


def test_randomized_against_scan():
    # tiny instances double-checked against a dense grid scan; adding
    # positive multiples of rows must not change the certificate
    rng = random.Random(7)
    scale_rng = random.Random(8)
    for _ in range(300):
        n = rng.randint(1, 3)
        rows = [tuple(rng.randint(-3, 3) for _ in range(n))
                for _ in range(rng.randint(1, 3))]
        strict = {i for i in range(n) if rng.random() < 0.5}
        got = check(rows, n, strict)
        multiples = [tuple(k * a for a in scale_rng.choice(rows))
                     for k in (scale_rng.randint(2, 4), 1)]
        assert check(rows + multiples, n, strict) == got, (rows, multiples)
        grid_hit = None
        for pt in itertools.product(range(0, 7), repeat=n):
            if any(pt[i] < 1 for i in strict):
                continue
            if all(sum(a * v for a, v in zip(r, pt)) >= 0 for r in rows):
                grid_hit = pt
                break
        if got is None:
            # any grid point would certify feasibility
            assert grid_hit is None, (rows, strict, grid_hit)


# Certificates of the former Fraction elimination, pinned so that a change
# to the elimination that alters certificates fails: (diagram, catalog
# label) -> ({colour subset: distinguished witness}, affine witness).
PINNED_WITNESSES = {
    ("B3", "bo(2+1)"): ({(0, 1, 2): (2, 3, 2)}, (5, 8, 9)),
    ("B3", "bc*(3)"): ({(1, 2): (2, 1), (0,): None}, None),
    ("F4", "fo(4)"): ({(0, 1, 2, 3): (2, 4, 3, 2)}, (8, 15, 21, 11)),
    ("F4", "fc*(4)"): ({(1, 2, 3): (2, 1, 1), (0, 1, 2, 3): (1, 2, 1, 1)},
                       None),
    ("E6", "eo(6)"): ({(0, 1, 2, 3, 4, 5): (2, 2, 3, 4, 3, 2)},
                      (8, 11, 15, 21, 15, 8)),
    ("E6", "ec*(6)"): ({(0, 2, 3, 4, 5): (1, 1, 2, 1, 1),
                        (0, 1, 2, 3, 4, 5): (1, 1, 1, 2, 1, 1)}, None),
}


@pytest.mark.parametrize("spec,label", sorted(PINNED_WITNESSES))
def test_pinned_catalog_witnesses(spec, label):
    sys = {e.label: e.system for e in expand_catalog(spec)}[label]
    dist, affine = PINNED_WITNESSES[spec, label]
    for subset, witness in dist.items():
        assert ops.distinguished_witness(sys, subset) == witness, subset
    assert ops.affine_witness(sys) == affine


def _corpus(max_rows=4):
    """2000 seeded systems: 1-5 variables, 0 to max_rows rows with entries
    -4..4 and a random strict set.  None needs more than a few
    milliseconds; before Chernikov's rule, a fifth row let three blow the
    elimination up to 0.8-2.0 s, and 23 past a cap of 200 rows."""
    rng = random.Random(2024)
    for _ in range(2000):
        n = rng.randint(1, 5)
        rows = [tuple(rng.randint(-4, 4) for _ in range(n))
                for _ in range(rng.randint(0, max_rows))]
        yield rows, n, frozenset(i for i in range(n) if rng.random() < 0.5)


# sha256 of the repr of the output lists on _corpus(), computed with the
# former Fraction back-substitution: the integer one must give the same
# least integer certificates and the same kernel lines.
CORPUS_DIGESTS = {
    "feasible_nonneg":
        "0dd02c3df41f95d15b7249ed8abd6f951564ce91ceffcc546eb0336d818a045e",
    "kernel_vector":
        "910cce5bcb54d652df2ac95c7544071b82f939ddbb0cbe0cd2ead7913f088aff",
}


def test_corpus_outputs_pinned():
    corpus = list(_corpus())
    outputs = {
        "feasible_nonneg": [feasible_nonneg(r, n, s) for r, n, s in corpus],
        "kernel_vector": [kernel_vector(r, n) for r, n, _s in corpus],
    }
    assert {name: hashlib.sha256(repr(out).encode()).hexdigest()
            for name, out in outputs.items()} == CORPUS_DIGESTS


# sha256 of the repr of the feasible_nonneg outputs on _corpus(5), recorded
# before Chernikov's rule, with the default cap
FIVE_ROW_DIGEST = (
    "2f1075650eb437c968ba58ab75935140e8bbed71076faaf702b115d4ccebd97f")


def test_chernikov_rule_keeps_certificates_under_a_small_cap(monkeypatch):
    # the rule drops only implied rows: same outputs, and no stage grows
    # past 200 rows
    monkeypatch.setenv("SPHSYS_MAX_STATES", "200")
    out = [feasible_nonneg(r, n, s) for r, n, s in _corpus(5)]
    assert hashlib.sha256(repr(out).encode()).hexdigest() == FIVE_ROW_DIGEST


def _union_rule(rays, subset):
    """Whether subset is the union of the ray supports inside it."""
    mask = sum(1 << i for i in subset)
    union = 0
    for ray in rays:
        if not ray & ~mask:
            union |= ray
    return union == mask


def test_ray_supports_agree_with_elimination():
    # a subset is the support of a point of {x >= 0 : rows >= 0} exactly
    # when elimination finds x >= 1 on it and x = 0 off it
    rng = random.Random(19)
    for _ in range(300):
        n = rng.randint(1, 6)
        rows = [tuple(rng.randint(-3, 3) for _ in range(n))
                for _ in range(rng.randint(0, 6))]
        rays = extreme_ray_supports(rows, n)
        assert list(rays) == sorted(set(rays)) and 0 not in rays, rows
        for r in range(1, n + 1):
            for subset in itertools.combinations(range(n), r):
                sub_rows = [tuple(row[i] for i in subset) for row in rows]
                want = feasible_nonneg(sub_rows, r, strict=range(r))
                assert _union_rule(rays, subset) == (want is not None), (
                    rows, subset)


def _brute_force_ray_supports(rows, n):
    """Supports of the extreme rays of {x >= 0 : rows >= 0}: the kernel
    lines of n - 1 independent constraints that meet the cone."""
    constraints = list(rows) + [tuple(int(j == i) for j in range(n))
                                for i in range(n)]
    out = set()
    for chosen in itertools.combinations(constraints, n - 1):
        v = kernel_vector(chosen, n)
        for x in (v, v and tuple(-a for a in v)):
            if x and all(sum(a * b for a, b in zip(c, x)) >= 0
                         for c in constraints):
                out.add(sum(1 << i for i, a in enumerate(x) if a))
    return tuple(sorted(out))


def test_ray_supports_match_brute_force():
    rng = random.Random(23)
    for _ in range(200):
        n = rng.randint(1, 5)
        rows = [tuple(rng.randint(-3, 3) for _ in range(n))
                for _ in range(rng.randint(0, 5))]
        assert extreme_ray_supports(rows, n) == _brute_force_ray_supports(
            rows, n), rows


def test_ray_supports_of_known_cones():
    assert extreme_ray_supports([], 0) == ()
    assert extreme_ray_supports([], 3) == (1, 2, 4)
    # x0 >= x1 >= x2 >= 0: rays (1,0,0), (1,1,0), (1,1,1)
    assert extreme_ray_supports([(1, -1, 0), (0, 1, -1)], 3) == (1, 3, 7)
    # -x0 >= 0 leaves the face x0 = 0
    assert extreme_ray_supports([(-1, 0)], 2) == (2,)
    assert extreme_ray_supports([(-1,)], 1) == ()


def test_ray_enumeration_budget_names_the_layer(monkeypatch):
    # x2 <= x0 + x1: two positive rays against one negative, two pairs
    monkeypatch.setenv("SPHSYS_MAX_STATES", "1")
    rows = ((1, 1, -1),)
    with pytest.raises(BudgetExceeded) as err:
        extreme_ray_supports(iter(rows), 3)
    e = err.value
    assert str(e) == "ray enumeration would test 2 pairs (cap 1)"
    assert (e.layer, e.count, e.cap) == ("feasible", 2, 1)
    assert e.input == {"rows": [[1, 1, -1]]}
    monkeypatch.setenv("SPHSYS_MAX_STATES", "2")
    assert extreme_ray_supports(rows, 3) == (1, 2, 5, 6)


def _reference_rank(rows):
    """Rank over Q by Gauss-Jordan elimination on Fractions."""
    m = [[Fraction(x) for x in r] for r in rows]
    r = 0
    for col in range(len(m[0]) if m else 0):
        piv = next((i for i in range(r, len(m)) if m[i][col]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        for i in range(len(m)):
            if i != r and m[i][col]:
                f = m[i][col] / m[r][col]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        r += 1
    return r


def _vectors(n):
    return st.lists(st.integers(-4, 4), min_size=n, max_size=n).map(tuple)


@st.composite
def _echelon_case(draw):
    n = draw(st.integers(1, 5))
    return draw(st.lists(_vectors(n), max_size=6)), draw(_vectors(n))


@settings(max_examples=300, deadline=None)
@given(_echelon_case())
def test_echelon_extend_accepts_exactly_rank_increases(case):
    rows, w = case
    basis, kept = [], []
    for r in rows:
        nb = echelon_extend(basis, r)
        if nb is not None:
            basis, kept = nb, kept + [r]
    assert rank(rows) == len(kept) == _reference_rank(rows)
    grows = _reference_rank(kept + [w]) > len(kept)
    assert (echelon_extend(basis, w) is not None) == grows


@st.composite
def _line_case(draw):
    n = draw(st.integers(1, 6))
    return n, draw(st.lists(_vectors(n), min_size=n - 1, max_size=n + 1))


@settings(max_examples=300, deadline=None)
@given(_line_case())
def test_kernel_vector_is_a_primitive_kernel_line(case):
    n, rows = case
    v = kernel_vector(rows, n)
    if _reference_rank(rows) != n - 1:
        assert v is None
        return
    assert len(v) == n and gcd(*v) == 1
    assert next(x for x in v if x) > 0
    for r in rows:
        assert sum(a * x for a, x in zip(r, v)) == 0
