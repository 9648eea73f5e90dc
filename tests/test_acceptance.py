"""Acceptance gate: one test per release criterion.

Each test re-derives its expected values from an independent source
(classical dimension formulas, a grid-scan Hilbert oracle, the family
catalog expanded from its printed constraints) and finishes by printing
a single PASS line, so ``pytest -v tests/test_acceptance.py`` doubles as
the acceptance report.
"""

import hashlib
import itertools
import random
import time
from pathlib import Path

from sphsys import families, ops, render, search, tables
from sphsys.dynkin import _RANK_RANGE, parse_diagram
from sphsys.hilbert import hilbert_basis
from sphsys.rankone import ALIASES, rank1_label, row_catalog
from sphsys.system import SphericalSystem

from test_hilbert import box_minimal
from test_render import FIXTURES
from test_tables import HALVED_CASES, SYMMETRIC_CASES

GOLDEN = Path(__file__).parent / "golden"

ENUMERATION_DIAGRAMS = (
    "A1", "A2", "A3", "A4", "B2", "B3", "B4", "C3", "C4", "D4", "F4", "G2",
    "A5", "B5", "C5", "D5",
    "A1,A1", "A1,A3", "B2,B2", "C3,C3", "G2,G2", "F4,F4",
)

# the diagrams of the quotient sweep: every colour subset of every catalog
# member on them is a cheap, wide test of the cone questions
SWEEP_DIAGRAMS = ENUMERATION_DIAGRAMS + (
    "A6", "B6", "C6", "D6", "E6", "A1,A5", "B3,B3", "A2,A2,A2", "G2,G2,G2")

# Second tier: E types, rank 8 and larger products, with the primitive
# count the search finds on each.
SECOND_TIER_COUNTS = {
    "E6": 6, "E7": 5, "E8": 4, "A8": 6, "B8": 32, "C8": 19, "D8": 20,
    "F4,G2": 0, "B3,B3": 1, "D4,D4": 1, "E6,A1": 0,
}

NON_STRICT_FAMILIES = frozenset(
    {"b(n)", "a(p)+b(q)", "ac*(p)+b(q)", "g(2)", "cc(p+q)"})

AFFINE_LIST = [
    ("ac*(n)", {"n": 4}), ("ac*(n)", {"n": 6}),
    ("bc'(n)", {"n": 2}), ("bc'(n)", {"n": 3}),
    ("b**(3)", {}),
    ("b*(4)+b**(3)", {}),
    ("aa(1,1)+c*(n)", {"n": 2}), ("aa(1,1)+c*(n)", {"n": 3}),
    ("aa(1,1)+c*(n1)+c*(n2)", {"n1": 2, "n2": 2}),
    ("a'(1)+c*(q)", {"q": 3}), ("a'(1)+c*(q)", {"q": 4}),
    ("ds*(4)", {}),
    ("g(2)", {}),
    ("g'(2)", {}),
]

PARABOLIC_CONTAINED = [("b*(n)", {"n": n}) for n in (2, 3, 4, 5)] \
    + [("c*(n)", {"n": n}) for n in (3, 4, 5)]


def _report(n, message):
    print(f"PASS  {n}. {message}")


def test_1_rank_one_table():
    start = time.perf_counter()
    rows = row_catalog()
    assert len(rows) == 15
    for row in rows:
        d = parse_diagram(row["support"])
        sys = SphericalSystem(d, sp=[p - 1 for p in row["trace"]],
                              sigma=(row["weight"],))
        assert sys.validate().ok, row["label"]
        assert sys.root_label(sys.sigma[0]) == row["label"]
    # the three duplicate shapes resolve to table labels, not to
    # themselves, through both the alias map and the labeller
    table_labels = {r["label"] for r in rows}
    assert set(ALIASES.values()) <= table_labels
    assert not set(ALIASES) & table_labels
    assert rank1_label(parse_diagram("A1,A1"), (1, 1), frozenset()) \
        == ALIASES["d(2)"]
    assert rank1_label(parse_diagram("A1"), (2,), frozenset()) \
        == ALIASES["b'(1)"]
    assert rank1_label(parse_diagram("C2"), (1, 1), frozenset()) \
        == ALIASES["c*(2)"]
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report(1, f"rank-one table: 15 rows validate, labels round-trip, "
               f"3 aliases resolve ({elapsed:.2f}s)")


def test_2_primitive_enumeration_matches_catalog():
    start = time.perf_counter()
    counts = {}
    for spec in ENUMERATION_DIAGRAMS:
        check = search.verify_catalog(spec)
        assert check.ok, (spec, check.missing, check.extra)
        assert check.found == check.expected
        counts[spec] = check.found
    assert counts["G2"] == 4
    assert counts["F4"] == 6
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _report(2, f"exhaustive search equals catalog on all "
               f"{len(ENUMERATION_DIAGRAMS)} diagrams, "
               f"{sum(counts.values())} primitives ({elapsed:.1f}s)")


def test_2b_second_tier_enumeration_matches_catalog():
    start = time.perf_counter()
    counts = {}
    for spec in SECOND_TIER_COUNTS:
        check = search.verify_catalog(spec)
        assert check.ok, (spec, check.missing, check.extra)
        assert check.found == check.expected
        counts[spec] = check.found
    assert counts == SECOND_TIER_COUNTS
    elapsed = time.perf_counter() - start
    _report("2b", f"exhaustive search equals catalog on "
                  f"{len(SECOND_TIER_COUNTS)} more diagrams (E6-E8, rank 8, "
                  f"products), {sum(counts.values())} primitives "
                  f"({elapsed:.1f}s)")


def diagrams_up_to_rank(top):
    """Every diagram of rank at most top, connected or not, one spec per
    multiset of components."""
    types = [(fam, r) for fam, (lo, hi) in sorted(_RANK_RANGE.items())
             for r in range(lo, min(hi or top, top) + 1)]

    def combos(k, first, room):
        # itertools.combinations_with_replacement(types, k) order, skipping
        # every prefix whose rank leaves no room for the rest
        if k == 0:
            yield ()
            return
        for i in range(first, len(types)):
            if types[i][1] + k - 1 <= room:
                for rest in combos(k - 1, i, room - types[i][1]):
                    yield (types[i],) + rest

    return [",".join(f"{fam}{r}" for fam, r in combo)
            for k in range(1, top + 1) for combo in combos(k, 0, top)]


def test_2c_every_diagram_up_to_rank_six_matches_catalog():
    start = time.perf_counter()
    specs = diagrams_up_to_rank(6)
    connected = [spec for spec in specs if "," not in spec]
    assert (len(connected), len(specs)) == (21, 128)
    primitives = 0
    for spec in specs:
        check = search.verify_catalog(spec)
        assert check.ok, (spec, check.missing, check.extra)
        assert check.found == check.expected, spec
        primitives += check.found
    elapsed = time.perf_counter() - start
    _report("2c", f"exhaustive search equals catalog on all {len(specs)} "
                  f"diagrams of rank <= 6 ({len(connected)} connected), "
                  f"{primitives} primitives ({elapsed:.1f}s)")


def test_2d_every_diagram_of_rank_seven_matches_catalog():
    start = time.perf_counter()
    smaller = set(diagrams_up_to_rank(6))
    specs = [spec for spec in diagrams_up_to_rank(7) if spec not in smaller]
    connected = [spec for spec in specs if "," not in spec]
    assert (len(connected), len(specs)) == (5, 117)
    primitives = 0
    for spec in specs:
        check = search.verify_catalog(spec)
        assert check.ok, (spec, check.missing, check.extra)
        assert check.found == check.expected, spec
        primitives += check.found
    elapsed = time.perf_counter() - start
    _report("2d", f"exhaustive search equals catalog on all {len(specs)} "
                  f"diagrams of rank 7 ({len(connected)} connected), "
                  f"{primitives} primitives ({elapsed:.1f}s)")


def test_2e_every_diagram_of_rank_eight_matches_catalog():
    start = time.perf_counter()
    smaller = set(diagrams_up_to_rank(7))
    specs = [spec for spec in diagrams_up_to_rank(8) if spec not in smaller]
    connected = [spec for spec in specs if "," not in spec]
    assert (len(connected), len(specs)) == (5, 227)
    primitives = 0
    for spec in specs:
        check = search.verify_catalog(spec)
        assert check.ok, (spec, check.missing, check.extra)
        assert check.found == check.expected, spec
        primitives += check.found
    assert primitives == 90
    elapsed = time.perf_counter() - start
    _report("2e", f"exhaustive search equals catalog on all {len(specs)} "
                  f"diagrams of rank 8 ({len(connected)} connected), "
                  f"{primitives} primitives ({elapsed:.1f}s)")


def test_2f_every_diagram_of_rank_nine_matches_catalog():
    start = time.perf_counter()
    smaller = set(diagrams_up_to_rank(8))
    specs = [spec for spec in diagrams_up_to_rank(9) if spec not in smaller]
    connected = [spec for spec in specs if "," not in spec]
    assert (len(connected), len(specs)) == (4, 390)
    checks = [search.verify_catalog(spec) for spec in specs]
    for spec, check in zip(specs, checks):
        assert check.ok, (spec, check.missing, check.extra)
        assert check.found == check.expected, spec
    primitives = sum(check.found for check in checks)
    assert primitives == 92
    # sha256 over the reprs in spec order, recorded before the pair matrix
    # was filled from one pairwise_faults pass
    text = "\n".join(map(repr, checks))
    assert hashlib.sha256(text.encode()).hexdigest() == \
        "f87a0c15c1cea0af3e3817c5792330a687420aa2f2e8dafe4ea33db7077a40e0"
    elapsed = time.perf_counter() - start
    _report("2f", f"exhaustive search equals catalog on all {len(specs)} "
                  f"diagrams of rank 9 ({len(connected)} connected), "
                  f"{primitives} primitives ({elapsed:.1f}s)")


def test_2g_every_diagram_of_rank_ten_matches_catalog():
    start = time.perf_counter()
    smaller = set(diagrams_up_to_rank(9))
    specs = [spec for spec in diagrams_up_to_rank(10) if spec not in smaller]
    connected = [spec for spec in specs if "," not in spec]
    assert (len(connected), len(specs)) == (4, 707)
    checks = [search.verify_catalog(spec) for spec in specs]
    for spec, check in zip(specs, checks):
        assert check.ok, (spec, check.missing, check.extra)
        assert check.found == check.expected, spec
    primitives = sum(check.found for check in checks)
    assert primitives == 108
    # sha256 over the reprs in spec order, recorded before the walk banned
    # paired nodes and branched on the least-covered node
    text = "\n".join(map(repr, checks))
    assert hashlib.sha256(text.encode()).hexdigest() == \
        "4f5f41cbdf03bc9d0b7b14874ef6bb1b2241550f5ea452e9bbcaf5cb494b0a3d"
    elapsed = time.perf_counter() - start
    _report("2g", f"exhaustive search equals catalog on all {len(specs)} "
                  f"diagrams of rank 10 ({len(connected)} connected), "
                  f"{primitives} primitives ({elapsed:.1f}s)")


def test_3_strictness_partition():
    checked = non_strict = 0
    seen_families = set()
    for spec in ENUMERATION_DIAGRAMS:
        for entry in families.expand_catalog(spec):
            in_five = entry.family in NON_STRICT_FAMILIES and (
                entry.family != "cc(p+q)" or entry.params.get("q") == 2)
            assert entry.system.is_strict == (not in_five), entry.label
            assert entry.strict == entry.system.is_strict, entry.label
            checked += 1
            if in_five:
                non_strict += 1
                seen_families.add(entry.family)
    assert seen_families == NON_STRICT_FAMILIES
    _report(3, f"non-strict primitives are exactly the 5 doubling "
               f"families ({non_strict} of {checked} catalog members)")


def test_4_symmetric_space_cross_check():
    done = set()
    for label, params, name in SYMMETRIC_CASES:
        if label in done:        # first listed parameters are minimal
            continue
        done.add(label)
        sys = tables.symmetric_system(label, **params)
        assert sys.validate().ok, label
        assert families.classify(sys) == name, label
    assert len(done) == 28
    for label, params, name in HALVED_CASES:
        if label != "B II":
            continue
        sys = tables.symmetric_system(label, selfnormalising=False, **params)
        assert sys.validate().ok
        assert families.classify(sys) == name
    _report(4, "all 28 involution rows classify to the predicted family "
               "at minimal rank; odd-quadric row valid in both variants")


def test_5_affinity_lemma():
    for name, params in AFFINE_LIST:
        sys = families.instantiate(name, **params)
        witness = ops.affine_witness(sys)
        assert witness is not None, (name, params)
        # the witness really pairs positively with every colour
        rho = sys.rho_matrix
        for row in rho:
            assert sum(c * x for c, x in zip(row, witness)) > 0
        assert ops.affine_witness(sys) is not None
    for name, params in PARABOLIC_CONTAINED:
        sys = families.instantiate(name, **params)
        assert ops.affine_witness(sys) is None, (name, params)
    _report(5, f"affinity list: {len(AFFINE_LIST)} members feasible with "
               f"checked witnesses, {len(PARABOLIC_CONTAINED)} "
               f"parabolic-contained members infeasible")


def test_6_nilpotent_heights():
    start = time.perf_counter()
    minimal = {"B(2r+1)": {"r": 1}, "B(2r+s+1)": {"r": 1, "s": 1},
               "D(2r+2)": {"r": 1}, "D(2r+s+2)": {"r": 1, "s": 1}}
    rows = tables.HEIGHT3
    assert len(rows) == 11
    for row in rows:
        inst = row.realise(**minimal.get(row.label, {}))
        assert tables.height(inst.diagram, inst.characteristic) == 3, row.label
    for char, h in (((0, 1), 2), ((1, 0), 3), ((0, 2), 4)):
        assert tables.height("G2", char) == h
    total_checked = 0
    for spec in ("A3", "B3", "C3", "D4", "F4", "G2"):
        d = parse_diagram(spec)
        dim_g = d.n_nodes + 2 * len(d.positive_roots)
        for char in itertools.product((0, 1, 2), repeat=d.n_nodes):
            assert sum(tables.grading_dims(d, char).values()) == dim_g
            total_checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report(6, f"11 orbit rows have height 3; G2 anchors 2/3/4; grading "
               f"sums = dim g on {total_checked} characteristics "
               f"({elapsed:.2f}s)")


def test_7_dictionary_property_suite(monkeypatch):
    rng = random.Random(20260816)

    # quotient by the empty colour set changes nothing
    pool = [s for spec in ("B3", "A3", "G2", "A1,A1")
            for s in search.enumerate_systems(spec)]
    for sys in pool:
        res = ops.quotient(sys, ())
        assert res.system.to_json() == sys.to_json()

    # Hilbert bases agree with a grid-scan oracle
    hilbert_cases = 0
    with monkeypatch.context() as m:
        m.setenv("SPHSYS_MAX_STATES", "200000")
        for _ in range(520):
            n = rng.randint(1, 4)
            rows = [tuple(rng.randint(-4, 4) for _ in range(n))
                    for _ in range(rng.randint(1, 3))]
            basis = hilbert_basis(rows, n)
            expect = box_minimal(rows, n, bound=6)
            assert {x for x in basis if max(x) <= 6} == expect, rows
            hilbert_cases += 1
    assert hilbert_cases >= 500

    # localising at the union of root supports keeps every root
    for sys in pool:
        if not sys.sigma:
            continue
        keep = set()
        for g in sys.sigma:
            keep |= {i for i, c in enumerate(g) if c}
        assert ops.localize(sys, keep).is_cuspidal

    # the decomposition relation does not depend on argument order
    sym_cases = 0
    for sys in pool:
        n = len(sys.colours)
        if n < 2:
            continue
        for _ in range(4):
            split = rng.randint(1, n - 1)
            order = rng.sample(range(n), n)
            s1, s2 = order[:split], order[split:]
            assert ops.decomposes(sys, s1, s2) == ops.decomposes(sys, s2, s1)
            sym_cases += 1

    # every predicate is blind to diagram relabelling
    invariance_cases = 0
    for spec in ("A2", "A3", "A4", "D4", "A1,A1"):
        d = parse_diagram(spec)
        perms = [p for p in d.automorphisms
                 if any(p[i] != i for i in range(d.n_nodes))]
        for sys in search.enumerate_systems(d):
            for perm in perms:
                other = sys.permuted(perm)
                assert other.validate().ok
                assert other.is_cuspidal == sys.is_cuspidal
                assert other.is_strict == sys.is_strict
                assert (ops.affine_witness(other) is not None) \
                    == (ops.affine_witness(sys) is not None)
                invariance_cases += 3
                colour_map = {}
                for ci, col in enumerate(sys.colours):
                    image = frozenset(perm[i] for i in col.nodes)
                    colour_map[ci] = next(
                        cj for cj, oc in enumerate(other.colours)
                        if oc.nodes == image)
                for _ in range(2):
                    k = rng.randint(0, len(sys.colours))
                    subset = rng.sample(range(len(sys.colours)), k)
                    assert ops.is_distinguished(sys, subset) \
                        == ops.is_distinguished(
                            other, [colour_map[c] for c in subset])
                    invariance_cases += 1
    assert invariance_cases >= 1000
    _report(7, f"dictionary properties: {len(pool)} empty-set quotients, "
               f"{hilbert_cases} Hilbert oracles, {sym_cases} symmetric "
               f"decompositions, {invariance_cases} relabelling checks")


def test_7b_quotient_sweep_every_connected_member_up_to_rank_eight():
    # Every colour subset of every catalog member: distinguished? then
    # the quotient, checked against invariants re-derived here and
    # validated.  distinguished_witness eliminates (Fourier-Motzkin), so it
    # referees is_distinguished's sign masks and ray lookup.
    start = time.perf_counter()
    specs = [f"{fam}{r}" for fam, (lo, hi) in sorted(_RANK_RANGE.items())
             for r in range(lo, min(hi or 8, 8) + 1)]
    members = subsets = quotients = 0
    for spec in specs:
        for entry in families.expand_catalog(parse_diagram(spec)):
            sys = entry.system
            rho, k = sys.rho_matrix, len(sys.sigma)
            members += 1
            for r in range(1, len(sys.colours) + 1):
                for subset in itertools.combinations(range(len(rho)), r):
                    subsets += 1
                    phi = ops.distinguished_witness(sys, subset)
                    assert ops.is_distinguished(sys, subset) == (
                        phi is not None), (entry.label, subset)
                    if phi is None:
                        assert any(sum(rho[c][j] for c in subset) < 0
                                   for j in range(k)), (entry.label, subset)
                        continue
                    assert min(phi) > 0 and all(
                        sum(f * rho[c][j] for f, c in zip(phi, subset)) >= 0
                        for j in range(k)), (entry.label, subset)
                    q = ops.quotient(sys, subset)
                    quotients += 1
                    for x in q.coefficients:
                        assert len(x) == k and min(x) >= 0 and any(x)
                        assert not any(sum(a * v for a, v in zip(rho[c], x))
                                       for c in subset), (entry.label, x)
                    for a, b in itertools.permutations(q.coefficients, 2):
                        assert not all(u <= v for u, v in zip(a, b))
                    assert list(q.sigma) == sorted(
                        tuple(sum(c * g[i] for c, g in zip(x, sys.sigma))
                              for i in range(sys.diagram.n_nodes))
                        for x in q.coefficients)
                    assert q.sp == sys.sp.union(
                        *(sys.colours[c].nodes for c in subset))
                    assert q.is_valid_system, (entry.label, subset)
    assert (len(specs), members, subsets, quotients) == (31, 328, 9566, 1001)
    elapsed = time.perf_counter() - start
    _report("7b", f"quotient sweep: {subsets} colour subsets of {members} "
                  f"catalog members on {len(specs)} connected diagrams of "
                  f"rank <= 8, {quotients} quotients ({elapsed:.1f}s)")


def test_7c_localisation_sweep_every_connected_member_up_to_rank_seven():
    # Luna: the localisation of a spherical system at any set of nodes is
    # again a spherical system.  Every node subset of every catalog member,
    # the empty one and the whole diagram included.
    start = time.perf_counter()
    specs = [f"{fam}{r}" for fam, (lo, hi) in sorted(_RANK_RANGE.items())
             for r in range(lo, min(hi or 7, 7) + 1)]
    members = localisations = 0
    for spec in specs:
        d = parse_diagram(spec)
        for entry in families.expand_catalog(d):
            members += 1
            for r in range(d.n_nodes + 1):
                for keep in itertools.combinations(range(d.n_nodes), r):
                    localisations += 1
                    assert ops.localize(entry.system, keep).is_valid, (
                        entry.label, keep)
    assert (len(specs), members, localisations) == (26, 247, 15238)
    elapsed = time.perf_counter() - start
    _report("7c", f"localisation sweep: {localisations} node subsets of "
                  f"{members} catalog members on {len(specs)} connected "
                  f"diagrams of rank <= 7, all valid ({elapsed:.1f}s)")


def test_7d_closure_sweep_every_searched_system_up_to_rank_four():
    # the same closure properties on the search's own systems, not only on
    # catalog members: every valid system on every diagram of rank <= 4,
    # each node subset localised and each nonempty distinguished colour
    # subset quotiented
    start = time.perf_counter()
    systems = localisations = quotients = 0
    for spec in diagrams_up_to_rank(4):
        d = parse_diagram(spec)
        for sys in search.enumerate_systems(d):
            systems += 1
            for r in range(d.n_nodes + 1):
                for keep in itertools.combinations(range(d.n_nodes), r):
                    localisations += 1
                    assert ops.localize(sys, keep).is_valid, (sys, keep)
            for r in range(1, len(sys.colours) + 1):
                for subset in itertools.combinations(range(len(sys.colours)),
                                                     r):
                    if ops.is_distinguished(sys, subset):
                        quotients += 1
                        assert ops.quotient(sys, subset).is_valid_system, (
                            sys, subset)
    assert (systems, localisations, quotients) == (1978, 29442, 9731)
    elapsed = time.perf_counter() - start
    _report("7d", f"closure sweep: {localisations} localisations and "
                  f"{quotients} quotients of the {systems} valid systems "
                  f"on the diagrams of rank <= 4, all valid "
                  f"({elapsed:.1f}s)")


def test_8_dimension_identities():
    # group dimensions computed from the classical formulas, not the library
    def so(m):
        return m * (m - 1) // 2

    def sl(m):
        return m * m - 1

    for n in (2, 3, 4, 5):
        sys = families.instantiate("b(n)", n=n)
        assert ops.expected_dims(sys) == (so(2 * n + 1) - so(2 * n), 0)
    for n in (1, 2, 3, 4, 5):
        sys = families.instantiate("ao(n)", n=n)
        assert ops.expected_dims(sys) == (sl(n + 1) - so(n + 1), 0)
    sys = families.instantiate("aa(p,p)", p=1)
    assert ops.expected_dims(sys) == (2 * sl(2) - sl(2), 0)
    _report(8, "homogeneous-space dimensions match classical group "
               "arithmetic for b(n) n=2..5, ao(n) n=1..5, aa(1,1)")


def test_9_golden_renderings():
    files = 0
    for slug, sys in FIXTURES:
        assert render.render_text(sys) == (GOLDEN / f"{slug}.txt").read_text()
        assert render.render_svg(sys) == (GOLDEN / f"{slug}.svg").read_text()
        files += 2
    assert files == 50
    assert len(list(GOLDEN.glob("*"))) == 50
    _report(9, "50 golden files byte-identical (15 rank-one + 10 catalog "
               "diagrams, text and SVG)")
