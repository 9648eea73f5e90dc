import hashlib
import itertools
import re

import pytest

from sphsys import families, ops, rankone, tables
from sphsys.dynkin import parse_diagram
from sphsys.system import SphericalSystem

# involution rows: (label, params, catalog name of the selfnormalising
# system), at the smallest admissible parameters and one larger choice
SYMMETRIC_CASES = [
    ("A I", {"n": 1}, "ao(1)"),
    ("A I", {"n": 4}, "ao(4)"),
    ("A II", {"n": 3}, "ac(3)"),
    ("A II", {"n": 5}, "ac(5)"),
    ("A III (q >= 2)", {"p": 1, "q": 2}, "aa(1+2+1)"),
    ("A III (q >= 2)", {"p": 2, "q": 3}, "aa(2+3+2)"),
    ("A III (q = 1)", {"p": 1}, "aa'(1+1+1)"),
    ("A III (q = 1)", {"p": 2}, "aa'(2+1+2)"),
    ("A IV (n >= 2)", {"n": 2}, "a(2)"),
    ("A IV (n >= 2)", {"n": 4}, "a(4)"),
    # rank one: the gl(1) involution coincides with the so(2) one
    ("A IV (n = 1)", {}, "ao(1)"),
    ("B I", {"p": 1, "q": 1}, "bo(1+1)"),
    ("B I", {"p": 2, "q": 2}, "bo(2+2)"),
    ("B I", {"p": 3, "q": 1}, "bo(3+1)"),
    ("B II", {"n": 2}, "b'(2)"),
    ("B II", {"n": 4}, "b'(4)"),
    ("C I", {"n": 3}, "co(3)"),
    ("C I", {"n": 4}, "co(4)"),
    ("C II (q >= 3)", {"p": 0, "q": 3}, "c(3)"),
    ("C II (q >= 3)", {"p": 0, "q": 4}, "c(4)"),
    ("C II (q >= 3)", {"p": 2, "q": 3}, "cc(2+3)"),
    ("C II (q >= 3)", {"p": 2, "q": 4}, "cc(2+4)"),
    ("C II (q = 2)", {"p": 2}, "cc'(2+2)"),
    ("C II (q = 2)", {"p": 4}, "cc'(4+2)"),
    ("D I (q >= 2)", {"p": 1, "q": 3}, "do(1+3)"),
    ("D I (q >= 2)", {"p": 2, "q": 2}, "do(2+2)"),
    ("D I (q >= 2)", {"p": 2, "q": 3}, "do(2+3)"),
    ("D I (q = 0)", {"p": 4}, "do(4)"),
    ("D I (q = 0)", {"p": 5}, "do(5)"),
    ("D II", {"n": 4}, "d(4)"),
    ("D II", {"n": 5}, "d(5)"),
    # at rank 4 the gl(4) involution lands on a fork swap of so(1)+so(7)
    ("D III (n even)", {"n": 4}, "do(1+3)"),
    ("D III (n even)", {"n": 6}, "dc'(6)"),
    ("D III (n odd)", {"n": 5}, "dc(5)"),
    ("D III (n odd)", {"n": 7}, "dc(7)"),
    ("E I", {}, "eo(6)"),
    ("E II", {}, "ea(6)"),
    ("E III", {}, "ed(6)"),
    ("E IV", {}, "ef(6)"),
    ("E V", {}, "eo(7)"),
    ("E VI", {}, "ec(7)"),
    ("E VII", {}, "ef(7)"),
    ("E VIII", {}, "eo(8)"),
    ("E IX", {}, "ef(8)"),
    ("F I", {}, "fo(4)"),
    ("F II", {}, "f(4)"),
    ("G", {}, "go(2)"),
]

HALVED_CASES = [
    ("B II", {"n": 2}, "b(2)"),
    ("B II", {"n": 4}, "b(4)"),
    ("C II (q = 2)", {"p": 2}, "cc(2+2)"),
    ("C II (q = 2)", {"p": 4}, "cc(4+2)"),
]


def _same_type(a, b):
    if len(a) != len(b):
        return False
    idx = range(len(a))
    return any(all(a[p[i]][p[j]] == b[i][j] for i in idx for j in idx)
               for p in itertools.permutations(idx))


class TestSymmetricTable:
    def test_row_count_and_labels(self):
        rows = tables.SYMMETRIC
        assert len(rows) == 28
        labels = [r.label for r in rows]
        assert len(set(labels)) == 28
        assert labels[0] == "A I" and labels[-1] == "G"

    def test_g_row_basis(self):
        _, inst = tables.symmetric_instance("G")
        assert set(inst.basis) == {(2, 0), (0, 2)}

    def test_a2_minimal_basis(self):
        _, inst = tables.symmetric_instance("A II", n=3)
        assert inst.basis == ((1, 2, 1),)

    def test_e4_joint_support(self):
        _, inst = tables.symmetric_instance("E IV")
        assert len(inst.basis) == 2
        covered = set()
        for g in inst.basis:
            covered |= {i for i, c in enumerate(g) if c}
        assert covered == set(range(6))

    @pytest.mark.parametrize("label,params,_name", SYMMETRIC_CASES)
    def test_restricted_type(self, label, params, _name):
        _, inst = tables.symmetric_instance(label, **params)
        got = tables.restricted_cartan(inst.diagram, inst.basis)
        assert _same_type(got, tables.cartan_of_type(*inst.restricted))

    def test_printed_order_is_conventional_where_possible(self):
        # all rows except three exceptional ones list the basis in the
        # node order of the restricted type itself
        off = []
        for label, params, _ in SYMMETRIC_CASES:
            _, inst = tables.symmetric_instance(label, **params)
            got = tables.restricted_cartan(inst.diagram, inst.basis)
            if got != tables.cartan_of_type(*inst.restricted):
                off.append(label)
        assert set(off) == {"E II", "E III", "E IX"}

    def test_bad_parameters_rejected(self):
        with pytest.raises(ValueError):
            tables.symmetric_instance("A II", n=4)
        with pytest.raises(ValueError):
            tables.symmetric_instance("B I", p=0, q=2)
        with pytest.raises(ValueError):
            tables.symmetric_instance("C II (q = 2)", p=3)
        with pytest.raises(ValueError):
            tables.symmetric_instance("nonsense")

    @pytest.mark.parametrize("label,params,message", [
        ("E I", {"n": 3}, "E I takes no parameters"),
        ("A I", {}, "A I takes n"),
        ("A III", {"n": 3}, "A III (q >= 2) takes p, q; "
                            "A III (q = 1) takes p"),
        # a wrong name is named as such even when its value passes the cap
        ("E I", {"n": 100}, "E I takes no parameters"),
        ("A II", {"p": 60}, "A II takes n"),
        # a right name with a value that is no integer names the value
        ("A II", {"n": "x"}, "A II: n = 'x' is not an integer"),
        ("A II", {"n": 3.0}, "A II: n = 3.0 is not an integer"),
        ("A II", {"n": None}, "A II: n = None is not an integer"),
        ("A II", {"n": True}, "A II: n = True is not an integer"),
        ("A II", {"n": 2001.0}, "A II: n = 2001.0 is not an integer"),
    ])
    def test_wrong_parameters_name_what_the_row_takes(self, label, params,
                                                      message):
        with pytest.raises(ValueError) as exc:
            tables.symmetric_instance(label, **params)
        assert str(exc.value) == (f"no sub-case of {label!r} accepts "
                                  f"{params!r} ({message})")

    def test_subcase_resolution_by_parameters(self):
        row, _ = tables.symmetric_instance("A III", p=1, q=1)
        assert row.label == "A III (q = 1)"
        row, _ = tables.symmetric_instance("A III", p=1, q=4)
        assert row.label == "A III (q >= 2)"
        row, _ = tables.symmetric_instance("D I", p=4, q=0)
        assert row.label == "D I (q = 0)"


class TestSymmetricSystem:
    @pytest.mark.parametrize("label,params,name", SYMMETRIC_CASES)
    def test_validates_and_classifies(self, label, params, name):
        sys = tables.symmetric_system(label, **params)
        assert sys.validate().ok
        assert families.classify(sys) == name

    @pytest.mark.parametrize("label,params,name", HALVED_CASES)
    def test_fixed_point_variants(self, label, params, name):
        sys = tables.symmetric_system(label, selfnormalising=False, **params)
        assert sys.validate().ok
        assert families.classify(sys) == name

    def test_single_variant_rows_refuse_halving(self):
        with pytest.raises(ValueError):
            tables.symmetric_system("A I", selfnormalising=False, n=3)
        with pytest.raises(ValueError):
            tables.symmetric_system("C II (q >= 3)", selfnormalising=False,
                                    p=0, q=3)

    def test_parabolic_prefers_larger_set(self):
        # the lone restricted root of sp(2)+sp(4) in sp(6) also fits a
        # smaller parabolic; the symmetric subgroup takes the larger one
        sys = tables.symmetric_system("C II", p=0, q=3)
        assert sorted(sys.sp) == [0, 2]

    def test_full_sweep_is_fast(self):
        for label, params, _ in SYMMETRIC_CASES:
            assert tables.symmetric_system(label, **params).validate().ok


# sha256 of _involution_identity(), recorded while each row still built its
# system with a catalog builder
INVOLUTION_IDENTITY_DIGEST = \
    "4ba35073ac9c3bfc89113a7d8e553da0cdf6cfe4fe046fdc31fac317dd12695c"


def _involution_identity() -> list:
    """Every involution row at each parameter tuple in 0..9 whose rank is
    at most 20: the diagram, sorted sp, the basis in order and the
    restricted type, or "rejected" for a refused tuple."""
    out = []
    for row in tables.SYMMETRIC:
        for values in itertools.product(range(10), repeat=len(row.params)):
            params = dict(zip(row.params, values))
            try:
                inst = row.realise(**params)
            except (ValueError, TypeError):
                out.append((row.label, params, "rejected"))
                continue
            if inst.diagram.n_nodes <= 20:
                out.append((row.label, params, inst.diagram.spec(),
                            sorted(inst.system.sp), inst.basis,
                            inst.restricted))
    return out


def test_involution_rows_pinned():
    text = repr(_involution_identity())
    assert hashlib.sha256(text.encode()).hexdigest() \
        == INVOLUTION_IDENTITY_DIGEST


# dimensions of the subalgebras a row's description names: a classical one
# by the size m of its matrices, an exceptional one by name
_SERIES = {"sl": lambda m: m * m - 1, "gl": lambda m: m * m,
           "so": lambda m: m * (m - 1) // 2, "sp": lambda m: m * (m + 1) // 2}
_EXCEPTIONAL = {"e6": 78, "e7": 133, "f4": 52}


def _dim_k(subalgebra, values) -> int:
    """Dimension of a description like "so(p+1) + so(2n-p)", with the
    row's parameters and n, the rank, bound to their values."""
    total = 0
    for part in subalgebra.split(" + "):
        m = re.fullmatch(r"(sl|gl|so|sp)\((.+)\)", part)
        if m is None:
            total += _EXCEPTIONAL[part]
            continue
        size = eval(re.sub(r"(\d)([a-z])", r"\1*\2", m[2]),
                    {"__builtins__": {}}, values)
        total += _SERIES[m[1]](size)
    return total


def test_dimension_is_dim_g_minus_dim_k():
    # dim G/K read off the row's subalgebra must be the dimension of the
    # wonderful variety's open orbit that the system predicts, at every
    # realisation with parameters 0..7 and in both variants where halved
    seen = set()
    for row in tables.SYMMETRIC:
        for values in itertools.product(range(8), repeat=len(row.params)):
            params = dict(zip(row.params, values))
            try:
                inst = row.realise(**params)
            except ValueError:      # outside the row's constraints
                continue
            d = inst.diagram
            dim_g = d.n_nodes + 2 * len(d.positive_roots)
            dim_k = _dim_k(row.subalgebra, dict(params, n=d.n_nodes))
            halved = row.label in tables._TWO_VARIANTS
            for selfnormalising in (True, False) if halved else (True,):
                sys = tables.symmetric_system(
                    row.label, selfnormalising=selfnormalising, **params)
                assert ops.expected_dims(sys)[0] == dim_g - dim_k, (
                    row.label, params, selfnormalising)
            seen.add((row.label, tuple(params.items())))
    assert len(seen) == 214
    assert {label for label, _ in seen} == {r.label for r in tables.SYMMETRIC}


def _maximal_parabolic(sys):
    """Reference oracle for the parabolic set of a restricted basis.

    Tries every combination of admissible per-root traces and keeps the
    unions that validate.  Returns the largest one, or None when some
    valid union is not contained in it.
    """
    d, sigma = sys.diagram, sys.sigma
    options = [rankone.admissible_traces(d, g) for g in sigma]
    assert all(options), f"a root of {sys!r} has no admissible trace"
    valid = set()
    for combo in itertools.product(*options):
        sp = frozenset().union(*combo)
        if SphericalSystem(d, sp, sigma).validate().ok:
            valid.add(sp)
    assert valid, f"no parabolic set completes {sys!r}"
    best = max(valid, key=len)
    return best if all(sp <= best for sp in valid) else None


@pytest.mark.parametrize(
    "label,params,selfnormalising",
    [(label, params, True) for label, params, _ in SYMMETRIC_CASES]
    + [(label, params, False) for label, params, _ in HALVED_CASES])
def test_parabolic_is_the_largest_valid_trace_union(label, params,
                                                    selfnormalising):
    sys = tables.symmetric_system(label, selfnormalising=selfnormalising,
                                  **params)
    best = _maximal_parabolic(sys)
    assert best is not None, "incomparable parabolic sets"
    assert sys.sp == best


class TestRestrictedCartan:
    def test_diagonal_is_two(self):
        d = parse_diagram("B3")
        mat = tables.restricted_cartan(d, [(2, 0, 0), (0, 2, 2)])
        assert all(mat[i][i] == 2 for i in range(2))

    def test_cross_component_normalisation_pinned(self):
        # the basis meets both components, so its pairings hang on the
        # relative scale of their symmetrizers: with the B2 weights doubled
        # against the A1 one, 2(g1, g2)/(g1, g1) would be -10/11
        d = parse_diagram("A1,B2")
        assert tables.restricted_cartan(d, [(1, 1, 0), (-1, -1, 2)]) == (
            (2, -3), (-1, 2))

    def test_non_integral_pairing_rejected(self):
        d = parse_diagram("A2")
        with pytest.raises(ValueError):
            tables.restricted_cartan(d, [(2, 0), (0, 1)])

    def test_zero_weight_rejected_by_name(self):
        d = parse_diagram("A2")
        with pytest.raises(ValueError, match=r"weight \[0, 0\] is zero"):
            tables.restricted_cartan(d, [(0, 0), (1, 0)])
        with pytest.raises(ValueError, match=r"weight \[0, 0\] is zero"):
            tables.restricted_cartan(d, [(1, 0), (0, 0)])

    @pytest.mark.parametrize("weight,message", [
        ((1, 0), r"weight \[1, 0\] has 2 coefficients, but B3 has 3"),
        ((1, 0, 0, 0), r"weight \[1, 0, 0, 0\] has 4 coefficients"),
        ((1, True, 0), r"weight \(1, True, 0\) has a coefficient that is "
                       "not an integer"),
        ((1, 0.5, 0), r"weight \(1, 0.5, 0\) has a coefficient"),
        (5, r"a weight must be a list of coefficients, not 5"),
    ], ids=["short", "long", "bool", "float", "scalar"])
    def test_malformed_weight_rejected_by_name(self, weight, message):
        d = parse_diagram("B3")
        with pytest.raises(ValueError, match=message):
            tables.restricted_cartan(d, [weight])
        with pytest.raises(ValueError, match=message):
            tables.restricted_cartan(d, [(0, 0, 1), weight])

    def test_bc1_and_c2_shapes(self):
        assert tables.cartan_of_type("BC", 1) == ((2,),)
        assert tables.cartan_of_type("C", 2) == ((2, -2), (-1, 2))
        assert tables.cartan_of_type("BC", 3) == tables.cartan_of_type("B", 3)


class TestGrading:
    def test_g2_anchor(self):
        dims = tables.grading_dims("G2", (1, 0))
        assert dims == {0: 4, 1: 2, -1: 2, 2: 1, -2: 1, 3: 2, -3: 2}
        assert sum(dims.values()) == 14

    def test_b3_anchor(self):
        dims = tables.grading_dims("B3", (1, 0, 1))
        assert dims == {0: 5, 1: 4, -1: 4, 2: 2, -2: 2, 3: 2, -3: 2}

    def test_zero_characteristic(self):
        for spec, total in [("A3", 15), ("G2", 14), ("B3", 21)]:
            d = parse_diagram(spec)
            assert tables.grading_dims(d, (0,) * d.n_nodes) == {0: total}
            assert tables.orbit_dims(d, (0,) * d.n_nodes) == (total, 0, 0)

    def test_g2_heights(self):
        assert tables.height("G2", (1, 0)) == 3
        assert tables.height("G2", (0, 1)) == 2
        assert tables.height("G2", (0, 2)) == 4

    def test_orbit_dims_anchors(self):
        assert tables.orbit_dims("G2", (1, 0)) == (6, 3, 8)
        assert tables.orbit_dims("B3", (1, 0, 1)) == (9, 6, 12)

    def test_entry_range_enforced(self):
        with pytest.raises(ValueError):
            tables.grading_dims("A2", (3, 0))
        with pytest.raises(ValueError):
            tables.grading_dims("A2", (1, -1))
        with pytest.raises(ValueError):
            tables.grading_dims("A2", (1, 0, 0))

    @pytest.mark.parametrize("char", [(1.9, 0), (True, False), (1, "0"),
                                      (1.0, 0)])
    def test_non_integer_entries_rejected(self, char):
        with pytest.raises(ValueError, match="characteristic entry"):
            tables.grading_dims("G2", char)
        with pytest.raises(ValueError, match="characteristic entry"):
            tables.height("G2", char)

    def test_conservation(self):
        for spec in ["A4", "B4", "C4", "D4", "F4", "E6"]:
            d = parse_diagram(spec)
            total = d.n_nodes + 2 * len(d.positive_roots)
            for char in itertools.islice(
                    itertools.product((0, 1, 2), repeat=d.n_nodes), 40):
                assert sum(tables.grading_dims(d, char).values()) == total

    def test_height_is_the_top_layer(self):
        # height reads the highest roots; the grading lists every layer
        for fam, lo, hi in (("A", 1, 5), ("B", 2, 5), ("C", 3, 5),
                            ("D", 4, 5), ("G", 2, 2), ("F", 4, 4)):
            for n in range(lo, hi + 1):
                d = parse_diagram(f"{fam}{n}")
                for char in itertools.product((0, 1, 2), repeat=n):
                    assert tables.height(d, char) \
                        == max(tables.grading_dims(d, char)), (d, char)
        assert tables.height("", ()) == 0

    def test_spherical_filter_matches_height_bound(self):
        for spec in ["A1", "A2", "A3", "B2", "B3", "C3", "G2", "A1,A1"]:
            d = parse_diagram(spec)
            for char in itertools.product((0, 1, 2), repeat=d.n_nodes):
                assert (tables.is_spherical_orbit(d, char)
                        == (tables.height(d, char) <= 3))


HEIGHT3_SAMPLES = [
    ("B(2r+1)", {"r": 1}), ("B(2r+1)", {"r": 2}),
    ("B(2r+s+1)", {"r": 1, "s": 1}), ("B(2r+s+1)", {"r": 2, "s": 2}),
    ("D(2r+2)", {"r": 1}), ("D(2r+2)", {"r": 2}),
    ("D(2r+s+2)", {"r": 1, "s": 1}), ("D(2r+s+2)", {"r": 1, "s": 3}),
    ("E6 (000100)", {}), ("E7 (0010000)", {}), ("E7 (0100001)", {}),
    ("E8 (00000010)", {}), ("E8 (01000000)", {}),
    ("F4 (0100)", {}), ("G2 (10)", {}),
]


class TestHeight3Table:
    def test_row_count(self):
        assert len(tables.HEIGHT3) == 11

    def _row(self, label):
        return next(r for r in tables.HEIGHT3 if r.label == label)

    @pytest.mark.parametrize("label,params", HEIGHT3_SAMPLES)
    def test_height_is_three(self, label, params):
        inst = self._row(label).realise(**params)
        assert tables.height(inst.diagram, inst.characteristic) == 3
        assert tables.is_spherical_orbit(inst.diagram, inst.characteristic)

    @pytest.mark.parametrize("label,params", HEIGHT3_SAMPLES)
    def test_grading_sums_to_algebra_dim(self, label, params):
        inst = self._row(label).realise(**params)
        d = inst.diagram
        dims = tables.grading_dims(d, inst.characteristic)
        assert sum(dims.values()) == d.n_nodes + 2 * len(d.positive_roots)

    @pytest.mark.parametrize("label,params", HEIGHT3_SAMPLES)
    def test_partitions_fill_the_natural_module(self, label, params):
        inst = self._row(label).realise(**params)
        if inst.partition is None:
            return
        fam, rank = inst.diagram.components[0]
        expected = 2 * rank + 1 if fam == "B" else 2 * rank
        assert sum(inst.partition) == expected
        assert sorted(inst.partition, reverse=True) == list(inst.partition)

    def test_b_minimal_characteristic(self):
        inst = self._row("B(2r+1)").realise(r=1)
        assert inst.characteristic == (1, 0, 1)
        assert inst.partition == (3, 2, 2)

    def test_constraints_enforced(self):
        with pytest.raises(ValueError):
            self._row("B(2r+1)").realise(r=0)
        with pytest.raises(ValueError):
            self._row("D(2r+s+2)").realise(r=1, s=0)


def _height3_characteristics(diagram) -> set:
    """Characteristics of the height-3 rows realised on a diagram."""
    out = set()
    for row in tables.HEIGHT3:
        for values in itertools.product(range(diagram.n_nodes + 1),
                                        repeat=len(row.params)):
            try:
                inst = row.realise(**dict(zip(row.params, values)))
            except ValueError:      # outside the row's parameter range
                continue
            if inst.diagram == diagram:
                out.add(inst.characteristic)
    return out


# model rows keyed by (group, parity): rank -> catalog name of the system
MODEL_RANKS = {
    ("A", "even"): {4: "ac*(4)", 6: "ac*(6)"},
    ("A", "odd"): {3: "ac*(3)", 5: "ac*(5)"},
    ("B", "even"): {4: "bc*(4)", 6: "bc*(6)"},
    ("B", "odd"): {3: "bc*(3)", 5: "bc*(5)"},
    ("C", "even"): {4: "ac*(3)+c*(2)", 6: "ac*(5)+c*(2)"},
    ("C", "odd"): {5: "ac*(4)+c*(2)", 7: "ac*(6)+c*(2)"},
    ("D", "even"): {4: "dc*(4)", 6: "dc*(6)"},
    ("D", "odd"): {5: "dc*(5)", 7: "dc*(7)"},
    ("E6", ""): {6: "ec*(6)"}, ("E7", ""): {7: "ec*(7)"},
    ("E8", ""): {8: "ec*(8)"}, ("F4", ""): {4: "fc*(4)"},
    ("G2", ""): {2: "g*(2)"},
    ("B adjoint", ""): {2: "bc'(2)", 4: "bc'(4)"},
}


class TestModelTable:
    def test_row_count(self):
        assert len(tables.MODEL) == 14

    def test_all_rows_covered(self):
        assert {(r.group, r.parity) for r in tables.MODEL} \
            == set(MODEL_RANKS)

    def test_systems_instantiate_and_classify(self):
        for row in tables.MODEL:
            for n, name in MODEL_RANKS[(row.group, row.parity)].items():
                sys = row.instantiate(n)
                assert sys.validate().ok
                assert families.classify(sys) == name

    def test_simply_connected_roots_are_adjacent_sums(self):
        for row in tables.MODEL:
            if row.group == "B adjoint":
                continue
            n = min(MODEL_RANKS[(row.group, row.parity)])
            sys = row.instantiate(n)
            for g in sys.sigma:
                sup = [i for i, c in enumerate(g) if c]
                assert len(sup) == 2
                assert all(g[i] == 1 for i in sup)
                assert sys.diagram.adjacent(*sup)

    def test_nilpotent_rows_have_height_three_characteristics(self):
        for row in tables.MODEL:
            if row.characteristic is None:
                continue
            for n in MODEL_RANKS[(row.group, row.parity)]:
                sys = row.instantiate(n)
                char = row.characteristic(n)
                assert tables.height(sys.diagram, char) == 3

    def test_nilpotent_rows_match_height3_table(self):
        # every model row with a characteristic restates the characteristic
        # of a height-3 row on the same diagram
        rows = [r for r in tables.MODEL if r.characteristic]
        assert [r.group for r in rows] == ["B", "D", "E7", "E8", "G2"]
        for row in rows:
            for n in MODEL_RANKS[(row.group, row.parity)]:
                d = row.instantiate(n).diagram
                assert row.characteristic(n) in _height3_characteristics(d)

    def test_affine_isogeny_cases(self):
        # the even symplectic-subgroup row and the adjoint-B row are the
        # affine members of the list
        for row in tables.MODEL:
            if row.group == "A" and row.parity == "even":
                assert ops.affine_witness(row.instantiate(4)) is not None
            if row.group == "B adjoint":
                assert ops.affine_witness(row.instantiate(3)) is not None


# sha256 of _orbit_identity(), recorded while the classical height-3 rows
# and the B-odd and D-even model rows still typed their characteristics
ORBIT_IDENTITY_DIGEST = \
    "a2252869f5e5ce7e484b66d271078c169f71830416494df1f0f39f813770e51a"


def _orbit_identity() -> list:
    """Every height-3 row realised at each parameter choice below 18 whose
    rank is at most 20, or its error; then the B-odd model characteristic
    for n = 2..20 and the D-even one for n = 4..20."""
    out = []
    for row in tables.HEIGHT3:
        for values in itertools.product(range(18), repeat=len(row.params)):
            params = dict(zip(row.params, values))
            try:
                inst = row.realise(**params)
            except ValueError as exc:   # outside the row's range or the cap
                out.append((row[:5], params, str(exc)))
                continue
            if inst.diagram.n_nodes <= 20:
                out.append((row[:5], params, inst))
    model = {(r.group, r.parity): r.characteristic for r in tables.MODEL}
    out += [("B", "odd", n, model["B", "odd"](n)) for n in range(2, 21)]
    out += [("D", "even", n, model["D", "even"](n)) for n in range(4, 21)]
    return out


def test_orbit_rows_pinned():
    text = repr(_orbit_identity())
    assert hashlib.sha256(text.encode()).hexdigest() == ORBIT_IDENTITY_DIGEST


def _partitions(m, largest=None):
    """Partitions of m as non-increasing tuples."""
    if m == 0:
        yield ()
        return
    for first in range(min(m, largest or m), 0, -1):
        for rest in _partitions(m - first, first):
            yield (first,) + rest


def _classical_orbits(family, n):
    """(partition, characteristic) of every nilpotent orbit of type
    family and rank n: in so an even part, in sp an odd part, has even
    multiplicity, and a very even partition of so(2n) gives two orbits,
    whose characteristics swap the last two labels."""
    dim = {"A": n + 1, "B": 2 * n + 1, "C": 2 * n, "D": 2 * n}[family]
    paired = {"A": None, "B": 0, "C": 1, "D": 0}[family]
    for lam in _partitions(dim):
        if any(lam.count(d) % 2 for d in lam if d % 2 == paired):
            continue
        char = tables._characteristic(family, lam)
        yield lam, char
        if family == "D" and all(d % 2 == 0 for d in lam):
            yield lam, char[:-2] + (char[-1], char[-2])


def _classical_diagrams(top):
    return [(fam, n) for fam, lo in (("A", 1), ("B", 2), ("C", 3), ("D", 4))
            for n in range(lo, top + 1)]


class TestClassicalOrbits:
    def test_height3_table_is_complete(self):
        # every classical orbit of height 3 is a row of the table, and only
        # those; on A and C none has height 3
        for fam, n in _classical_diagrams(12):
            d = parse_diagram(f"{fam}{n}")
            found = set()
            for lam, char in _classical_orbits(fam, n):
                assert set(char) <= {0, 1, 2}, (fam, n, lam)
                if tables.height(d, char) == 3:
                    found.add(char)
            assert found == _height3_characteristics(d), (fam, n)
            assert fam in "BD" or not found, (fam, n)

    def test_sphericity_and_dimension_follow_the_partition(self):
        # Panyushev (Manuscripta Math. 83, 1994): the spherical orbits are
        # (2^a, 1^b), and also (3, 2^a, 1^b) in so.  Collingwood and
        # McGovern (1993), section 6.1: with s the transpose partition and
        # k the number of odd parts, the orbit has dimension
        # m^2 - sum s_i^2 in sl(m), dim g - (sum s_i^2 - k) / 2 in so(m)
        # and dim g - (sum s_i^2 + k) / 2 in sp(m).
        orbits = 0
        for fam, n in _classical_diagrams(10):
            d = parse_diagram(f"{fam}{n}")
            for lam, char in _classical_orbits(fam, n):
                orbits += 1
                spherical = lam[0] <= 2 or (
                    fam in "BD" and lam[0] == 3
                    and (len(lam) == 1 or lam[1] <= 2))
                assert tables.is_spherical_orbit(d, char) == spherical, lam
                m = sum(lam)
                squares = sum(sum(1 for p in lam if p > i) ** 2
                              for i in range(lam[0]))
                k = sum(p % 2 for p in lam)
                if fam == "A":
                    dim = m * m - squares
                elif fam == "C":
                    dim = (m * (m + 1) - squares - k) // 2
                else:
                    dim = (m * (m - 1) - squares + k) // 2
                assert tables.orbit_dims(d, char).dim_orbit == dim, lam
        assert orbits == 1826
