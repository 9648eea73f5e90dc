import hashlib
import itertools
import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sphsys import ops
from sphsys.budget import BudgetExceeded, max_states
from sphsys.families import expand_catalog
from sphsys.feasible import (echelon_extend, extreme_ray_supports,
                             feasible_nonneg, kernel_rays, kernel_vector,
                             rank)
from test_acceptance import SWEEP_DIAGRAMS


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
    # feasible_nonneg runs the ray enumeration, so it trips the same cap
    # with the same fault; x2 <= x0 + x1 has two positive rays against
    # one negative, two pairs
    monkeypatch.setenv("SPHSYS_MAX_STATES", "1")
    rows = ((1, 1, -1),)
    with pytest.raises(BudgetExceeded) as err:
        feasible_nonneg(iter(rows), 3, strict={2, 0})
    e = err.value
    assert str(e) == "ray enumeration would test 2 pairs (cap 1)"
    assert (e.layer, e.count, e.cap) == ("feasible", 2, 1)
    assert e.input == {"rows": [[1, 1, -1]]}


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


# Certificates of the ray rule (the first ray positive on each strict
# index, summed and divided by the gcd), pinned so that a change to the
# ray order or the rule that alters certificates fails: (diagram, catalog
# label) -> ({colour subset: distinguished witness}, affine witness).
PINNED_WITNESSES = {
    ("B3", "bo(2+1)"): ({(0, 1, 2): (2, 4, 3)}, (5, 8, 9)),
    ("B3", "bc*(3)"): ({(1, 2): (3, 1), (0,): None}, None),
    ("F4", "fo(4)"): ({(0, 1, 2, 3): (2, 4, 3, 2)}, (8, 15, 21, 11)),
    ("F4", "fc*(4)"): ({(1, 2, 3): (3, 1, 3), (0, 1, 2, 3): (1, 4, 2, 3)},
                       None),
    ("E6", "eo(6)"): ({(0, 1, 2, 3, 4, 5): (2, 3, 4, 6, 5, 4)},
                      (8, 11, 15, 21, 15, 8)),
    ("E6", "ec*(6)"): ({(0, 2, 3, 4, 5): (3, 1, 4, 2, 5),
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
    -4..4 and a random strict set."""
    rng = random.Random(2024)
    for _ in range(2000):
        n = rng.randint(1, 5)
        rows = [tuple(rng.randint(-4, 4) for _ in range(n))
                for _ in range(rng.randint(0, max_rows))]
        yield rows, n, frozenset(i for i in range(n) if rng.random() < 0.5)


def _digest(out):
    return hashlib.sha256(repr(out).encode()).hexdigest()


# sha256 of the repr of output lists on _corpus(): for feasible_nonneg the
# list of 'x is None', recorded with the former Fourier-Motzkin
# elimination, so the ray certificates answer every system as it did; for
# kernel_vector the kernel lines themselves.
CORPUS_DIGESTS = {
    "feasible_nonneg":
        "2baac05687358f6f517494daf670d7367c33b4369ee5049899bd69851343042c",
    "kernel_vector":
        "910cce5bcb54d652df2ac95c7544071b82f939ddbb0cbe0cd2ead7913f088aff",
}


def test_corpus_outputs_pinned():
    corpus = list(_corpus())
    outputs = {
        "feasible_nonneg": [check(r, n, s) is None for r, n, s in corpus],
        "kernel_vector": [kernel_vector(r, n) for r, n, _s in corpus],
    }
    assert {name: _digest(out)
            for name, out in outputs.items()} == CORPUS_DIGESTS


# sha256 of the repr of the 'x is None' list of feasible_nonneg on
# _corpus(5), recorded with the former elimination
FIVE_ROW_DIGEST = (
    "c1e98bb968afab40fa39b7419385f631c1145002f2b3098b5de07a0c0959bba4")


def test_five_row_answers_pinned():
    out = [check(r, n, s) is None for r, n, s in _corpus(5)]
    assert _digest(out) == FIVE_ROW_DIGEST


# sha256 of the repr of the 'witness is None' lists over every catalog
# member of SWEEP_DIAGRAMS, in catalog order: distinguished_witness on each
# nonempty colour subset in (size, indices) order, and affine_witness once
# per member; recorded with the former elimination.
CATALOG_DIGESTS = {
    "distinguished_witness":
        "4d5313cbe92a38e41678491e9eda435fc30ea6aa106138ef90ceb2a3deacbb44",
    "affine_witness":
        "899b4bd4e821a31707e4ca1e616ce46b997b3b29bc893b0975be49337116c2af",
}


def test_catalog_answers_pinned():
    dist, affine = [], []
    for spec in SWEEP_DIAGRAMS:
        for entry in expand_catalog(spec):
            sys = entry.system
            n = len(sys.colours)
            for r in range(1, n + 1):
                for subset in itertools.combinations(range(n), r):
                    phi = ops.distinguished_witness(sys, subset)
                    dist.append(phi is None)
            affine.append(ops.affine_witness(sys) is None)
    assert {"distinguished_witness": _digest(dist),
            "affine_witness": _digest(affine)} == CATALOG_DIGESTS


def _union_rule(rays, subset):
    """Whether subset is the union of the ray supports inside it."""
    mask = sum(1 << i for i in subset)
    union = 0
    for ray in rays:
        if not ray & ~mask:
            union |= ray
    return union == mask


def _random_cone(rng, max_n=6, max_rows=6):
    n = rng.randint(1, max_n)
    rows = [tuple(rng.randint(-3, 3) for _ in range(n))
            for _ in range(rng.randint(0, max_rows))]
    return rows, n


def _exact_support_answers(rows, n):
    """For each nonempty subset S, whether feasible_nonneg finds x >= 1 on
    S with x = 0 off S: the rows restricted to S, every variable strict."""
    for r in range(1, n + 1):
        for subset in itertools.combinations(range(n), r):
            sub_rows = [tuple(row[i] for i in subset) for row in rows]
            yield subset, check(sub_rows, r, range(r)) is not None


def test_ray_supports_agree_with_certificates():
    # is_distinguished's lookup (the union rule on the supports) and
    # feasible_nonneg's certificate read the same rays two ways: a subset
    # is the support of a point of {x >= 0 : rows >= 0} exactly when one
    # exists with x >= 1 on it and x = 0 off it
    rng = random.Random(19)
    for _ in range(300):
        rows, n = _random_cone(rng)
        rays = extreme_ray_supports(rows, n)
        assert list(rays) == sorted(set(rays)) and 0 not in rays, rows
        for subset, found in _exact_support_answers(rows, n):
            assert _union_rule(rays, subset) == found, (rows, subset)


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


def test_certificates_agree_with_brute_force_rays():
    # an independent referee: the kernel-line supports share no code with
    # the double description.  An exact support S is feasible iff the
    # union rule holds for S; a strict set is feasible iff each of its
    # indices lies in some ray's support.
    rng = random.Random(29)
    for _ in range(200):
        rows, n = _random_cone(rng, max_n=5, max_rows=5)
        rays = _brute_force_ray_supports(rows, n)
        for subset, found in _exact_support_answers(rows, n):
            assert _union_rule(rays, subset) == found, (rows, subset)
        strict = frozenset(i for i in range(n) if rng.random() < 0.5)
        covered = 0
        for ray in rays:
            covered |= ray
        want = all(covered >> i & 1 for i in strict)
        assert (check(rows, n, strict) is not None) == want, (rows, strict)


def test_ray_supports_match_brute_force():
    rng = random.Random(23)
    for _ in range(200):
        n = rng.randint(1, 5)
        rows = [tuple(rng.randint(-3, 3) for _ in range(n))
                for _ in range(rng.randint(0, 5))]
        assert extreme_ray_supports(rows, n) == _brute_force_ray_supports(
            rows, n), rows


def test_kernel_rays_match_brute_force():
    # equality rows against the referee on each equation written as two
    # inequalities; every ray is a nonnegative primitive kernel vector
    rng = random.Random(31)
    for _ in range(200):
        rows, n = _random_cone(rng, max_n=5, max_rows=4)
        rays = kernel_rays(rows, n)
        supports = tuple(sorted({sum(1 << i for i, a in enumerate(x) if a)
                                 for x in rays}))
        assert supports == _brute_force_ray_supports(
            rows + [tuple(-a for a in r) for r in rows], n), rows
        for x in rays:
            assert len(x) == n and min(x) >= 0 and gcd(*x) == 1, (rows, x)
            assert not any(sum(a * b for a, b in zip(r, x))
                           for r in rows), (rows, x)


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
