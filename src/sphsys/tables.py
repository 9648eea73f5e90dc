"""Reference tables: involutions, graded nilpotent orbits, model spaces.

Three bodies of fixture data with their derived computations:

* restricted root bases attached to the involutions of the simple groups,
  turned into spherical systems by ``symmetric_system``;
* integer gradings of a simple Lie algebra cut out by a characteristic
  vector, with the height filter for spherical orbits and the table of
  height-3 cases, each classical case stated by its Jordan partition;
* the model homogeneous spaces and the catalog families naming them.

Each involution row states its Satake diagram (Araki, 1962) as the ordered
orbits of its white nodes, and one derivation reads the system off it (De
Concini and Procesi, 1983): the black nodes form the parabolic set, and
each orbit gives a restricted basis element, a spherical root.  Nothing
there reads ``sphsys.families``, so naming the result by the catalog is a
check of both.  Subalgebra and module descriptions are opaque strings kept
for documentation; nothing interprets them.
"""

from __future__ import annotations

import operator
from collections import Counter
from typing import Callable, NamedTuple

from . import families
from .dynkin import Diagram, _check_rank, parse_diagram, per_diagram
from .families import _need
from .system import SphericalSystem, _coefficients, _listed


# -- restricted root bases of involutions -------------------------------------

class SymmetricInstance(NamedTuple):
    diagram: Diagram
    basis: tuple
    restricted: tuple  # (family, rank) of the restricted root system
    system: SphericalSystem  # read off the Satake diagram, basis as roots


class SymmetricDatum(NamedTuple):
    label: str
    constraints: str
    subalgebra: str
    params: tuple
    realise: Callable  # (**params) -> SymmetricInstance


def _satake(spec, orbits, restricted) -> SymmetricInstance:
    """System of G/N_G(H) read off the Satake diagram of the involution.

    De Concini and Procesi, "Complete symmetric varieties" (1983): the
    black nodes, those in no orbit of white nodes, form sp, and each orbit,
    a pair (i, j) joined by an arrow or a lone node i = j, gives the
    spherical root alpha_i - theta(alpha_i) = alpha_i + w_B(alpha_j).  As
    alpha_j pairs <= 0 with every black coroot, w_B(alpha_j) is reached by
    reflecting through black simple roots while one of them pairs
    negatively.  The roots keep the order of the orbits.
    """
    d = parse_diagram(spec)
    # below its family's range a chain is another type: D3 is A3
    _need(d.spec() == spec, f"{spec} is the diagram {d.spec()}")
    pairs = [o if isinstance(o, tuple) else (o, o) for o in orbits]
    black = set(range(d.n_nodes)).difference(*pairs)
    basis = []
    for i, j in pairs:
        w = [0] * d.n_nodes
        w[j] = 1
        while any(d.pairing_weight(b, w) < 0 for b in black):
            for b in black:
                w[b] -= min(0, d.pairing_weight(b, w))
        w[i] += 1
        basis.append(tuple(w))
    system = SphericalSystem(d, black, basis)
    return SymmetricInstance(d, system.sigma, restricted, system)


def _involution(label, constraints, subalgebra, params, satake):
    """A row whose satake(**params) gives its Satake diagram as (spec,
    white orbits in basis order, restricted type), or False outside the
    row's constraints."""
    def realise(**values):
        # a name the row lacks fails as the call would, ahead of the cap
        code = satake.__code__
        unknown = set(values) - set(code.co_varnames[:code.co_argcount])
        if unknown:
            raise TypeError(f"{label} takes no {', '.join(sorted(unknown))}")
        for name, value in values.items():
            _need(isinstance(value, int) and not isinstance(value, bool),
                  f"{name} = {value!r} is not an integer")
        # no parameter exceeds the rank it builds, so none may pass the cap
        _check_rank(max(values.values(), default=0))
        found = satake(**values)
        _need(found, f"needs {constraints}")
        return _satake(*found)
    return SymmetricDatum(label, constraints, subalgebra, params, realise)


SYMMETRIC = (
    _involution("A I", "n >= 1", "so(n+1)", ("n",),
                lambda n: n >= 1 and (f"A{n}", range(n), ("A", n))),
    _involution("A II", "odd n >= 3", "sp(n+1)", ("n",),
                lambda n: n >= 3 and n % 2 == 1 and (
                    f"A{n}", range(1, n, 2), ("A", n // 2))),
    _involution("A III (q >= 2)", "n = 2p+q, p >= 1, q >= 2",
                "sl(p+1) + sl(p+q) + gl(1)", ("p", "q"),
                lambda p, q: p >= 1 and q >= 2 and (
                    f"A{2 * p + q}", [(i, 2 * p + q - 1 - i) for i in range(p)]
                    + [(p, p + q - 1)], ("BC", p + 1))),
    _involution("A III (q = 1)", "n = 2p+1, p >= 1",
                "sl(p+1) + sl(p+1) + gl(1)", ("p",),
                lambda p, q=1: p >= 1 and q == 1 and (
                    f"A{2 * p + 1}", [(i, 2 * p - i) for i in range(p)] + [p],
                    ("C", p + 1))),
    _involution("A IV (n >= 2)", "n >= 2", "gl(n)", ("n",),
                lambda n: n >= 2 and (f"A{n}", [(0, n - 1)], ("A", 1))),
    _involution("A IV (n = 1)", "n = 1", "gl(1)", ("n",),
                lambda n=1: n == 1 and ("A1", [0], ("A", 1))),
    _involution("B I", "n = p+q, p, q >= 1", "so(p+1) + so(2n-p)",
                ("p", "q"), lambda p, q: p >= 1 and q >= 1 and (
                    f"B{p + q}", range(p + 1), ("B", p + 1))),
    _involution("B II", "n >= 2", "so(2n)", ("n",),
                lambda n: n >= 2 and (f"B{n}", [0], ("A", 1))),
    _involution("C I", "n >= 3", "gl(n)", ("n",),
                lambda n: n >= 3 and (f"C{n}", range(n), ("C", n))),
    _involution("C II (q >= 3)", "n = p+q, even p >= 0, q >= 3",
                "sp(p+2) + sp(2n-p-2)", ("p", "q"),
                lambda p, q: p >= 0 and p % 2 == 0 and q >= 3 and (
                    f"C{p + q}", range(1, p + 2, 2), ("BC", p // 2 + 1))),
    _involution("C II (q = 2)", "n = p+2, even p >= 2", "sp(n) + sp(n)",
                ("p",), lambda p, q=2: p >= 2 and p % 2 == 0 and q == 2 and (
                    f"C{p + 2}", range(1, p + 2, 2), ("C", p // 2 + 1))),
    # at q = 2 an arrow joins the last white node to the other fork end
    _involution("D I (q >= 2)", "n = p+q, p >= 1, q >= 2",
                "so(p+1) + so(2n-p-1)", ("p", "q"),
                lambda p, q: p >= 1 and q >= 2 and (
                    f"D{p + q}", [*range(p), (p, p + 1) if q == 2 else p],
                    ("B", p + 1))),
    _involution("D I (q = 0)", "n = p >= 4", "so(n) + so(n)", ("p",),
                lambda p, q=0: p >= 4 and q == 0 and (
                    f"D{p}", range(p), ("D", p))),
    _involution("D II", "n >= 4", "so(2n-1)", ("n",),
                lambda n: n >= 4 and (f"D{n}", [0], ("A", 1))),
    _involution("D III (n even)", "even n >= 4", "gl(n)", ("n",),
                lambda n: n >= 4 and n % 2 == 0 and (
                    f"D{n}", [*range(1, n - 2, 2), n - 1], ("C", n // 2))),
    _involution("D III (n odd)", "odd n >= 5", "gl(n)", ("n",),
                lambda n: n >= 5 and n % 2 == 1 and (
                    f"D{n}", [*range(1, n - 3, 2), (n - 2, n - 1)],
                    ("BC", n // 2))),
    _involution("E I", "", "sp(8)", (), lambda: ("E6", range(6), ("E", 6))),
    # the two arrow orbits first, as the catalog's ea(6) lists them
    _involution("E II", "", "sl(6) + sl(2)", (),
                lambda: ("E6", [(0, 5), (2, 4), 1, 3], ("F", 4))),
    _involution("E III", "", "so(10) + gl(1)", (),
                lambda: ("E6", [(0, 5), 1], ("BC", 2))),
    _involution("E IV", "", "f4", (), lambda: ("E6", [0, 5], ("A", 2))),
    _involution("E V", "", "sl(8)", (), lambda: ("E7", range(7), ("E", 7))),
    _involution("E VI", "", "so(12) + sl(2)", (),
                lambda: ("E7", [0, 2, 3, 5], ("F", 4))),
    _involution("E VII", "", "e6 + gl(1)", (),
                lambda: ("E7", [0, 5, 6], ("C", 3))),
    _involution("E VIII", "", "so(16)", (),
                lambda: ("E8", range(8), ("E", 8))),
    _involution("E IX", "", "e7 + sl(2)", (),
                lambda: ("E8", [0, 5, 6, 7], ("F", 4))),
    _involution("F I", "", "sp(6) + sl(2)", (),
                lambda: ("F4", range(4), ("F", 4))),
    _involution("F II", "", "so(9)", (), lambda: ("F4", [3], ("BC", 1))),
    _involution("G", "", "sl(2) + sl(2)", (),
                lambda: ("G2", range(2), ("G", 2))),
)

# Rows whose fixed-point subgroup is wonderful on its own, next to the
# normaliser; the fixture halves the doubled basis element.
_TWO_VARIANTS = frozenset({"B II", "C II (q = 2)"})


def _resolve_rows(label: str) -> list:
    rows = [r for r in SYMMETRIC
            if r.label == label or r.label.startswith(label + " (")]
    if not rows:
        known = ", ".join(sorted({r.label.split(" (")[0]
                                  for r in SYMMETRIC}))
        raise ValueError(f"unknown involution label {label!r} "
                         f"(expected one of: {known})")
    return rows


def symmetric_instance(label: str, **params):
    """Resolve a label (and parameters) to (row, SymmetricInstance).

    Sub-case rows share a prefix ("A III" covers both q ranges); the
    parameters decide which one applies and must fit exactly one.
    """
    hits = []
    errors = []
    for row in _resolve_rows(label):
        try:
            hits.append((row, row.realise(**params)))
        except ValueError as exc:
            errors.append(f"{row.label}: {exc}")
        except TypeError:
            # Python's message names the builder, often a lambda, not the row
            errors.append(f"{row.label} takes "
                          + (", ".join(row.params) or "no parameters"))
    if len(hits) == 1:
        return hits[0]
    if not hits:
        raise ValueError(f"no sub-case of {label!r} accepts "
                         f"{params!r} ({'; '.join(errors)})")
    raise ValueError(f"{label!r} with {params!r} fits several sub-cases: "
                     + ", ".join(row.label for row, _ in hits))


def symmetric_system(label: str, selfnormalising: bool = True,
                     **params) -> SphericalSystem:
    """Spherical system of the wonderful symmetric subgroup of a row.

    The spherical roots are exactly the restricted basis elements, and the
    parabolic set is the set of black nodes of the row's Satake diagram.

    With ``selfnormalising=False`` the doubled basis element is halved,
    giving the system of the plain fixed-point subgroup on the same
    parabolic set; only the rows with the so(2n) and sp(n)+sp(n) fixed
    subalgebras admit this.
    """
    return _variant(*symmetric_instance(label, **params), selfnormalising)


def _variant(row, inst, selfnormalising) -> SphericalSystem:
    # symmetric_system's answer for a row already resolved, so a caller
    # holding (row, inst) derives the Satake system once
    if selfnormalising:
        return inst.system
    if row.label not in _TWO_VARIANTS:
        raise ValueError(f"{row.label} has a single wonderful variant")
    sigma = [tuple(c // 2 for c in g) if all(c % 2 == 0 for c in g)
             else g for g in inst.basis]
    return SphericalSystem(inst.diagram, inst.system.sp, sigma)


def restricted_cartan(diagram: Diagram, basis) -> tuple:
    """Cartan matrix of the root subsystem spanned by ``basis``.

    Entries 2(g_i, g_j)/(g_i, g_i) must come out integral; fractions mean
    the given weights do not form the basis of a root system.  ValueError
    names a weight whose length is wrong or whose entries are not integers.
    """
    shape = "a weight must be a list of coefficients"
    basis = [_coefficients(diagram, _listed(g, shape), g, "weight")
             for g in basis]
    mat = []
    for gi in basis:
        nii = diagram.inner(gi, gi)
        if not nii:     # the form is positive definite
            raise ValueError(f"weight {list(gi)} is zero, so it is no root")
        row = []
        for gj in basis:
            v, r = divmod(2 * diagram.inner(gi, gj), nii)
            if r:
                raise ValueError(f"non-integral pairing between {list(gi)} "
                                 f"and {list(gj)}")
            row.append(v)
        mat.append(tuple(row))
    return tuple(mat)


def cartan_of_type(family: str, rank: int) -> tuple:
    """Cartan matrix of a simple (or BC) type in conventional node order."""
    if family == "BC":
        return ((2,),) if rank == 1 else cartan_of_type("B", rank)
    if family == "C" and rank == 2:
        # below the generic C range; the long root keeps the last place
        return ((2, -2), (-1, 2))
    return parse_diagram(f"{family}{rank}").cartan


# -- gradings from a characteristic vector -------------------------------------

class OrbitDims(NamedTuple):
    dim_h: int
    dim_hu: int
    dim_orbit: int


def _checked(diagram, characteristic):
    d = parse_diagram(diagram)
    char = []
    for c in characteristic:
        try:
            if type(c) is bool:     # True is no characteristic entry
                raise TypeError
            char.append(operator.index(c))
        except TypeError:
            raise ValueError(f"characteristic entry {c!r} is not an "
                             "integer") from None
    char = tuple(char)
    if len(char) != d.n_nodes:
        raise ValueError(f"characteristic length {len(char)} != "
                         f"{d.n_nodes} nodes")
    bad = [c for c in char if c not in (0, 1, 2)]
    if bad:
        raise ValueError(f"characteristic entries must be 0, 1 or 2; "
                         f"got {bad}")
    return d, char


def grading_dims(diagram, characteristic) -> dict:
    """Dimensions of the grading layers cut out by a characteristic.

    Every root contributes to the layer given by its evaluation against
    the characteristic; the Cartan subalgebra sits in layer 0.  Keys run
    over all nonzero layers and their negatives.
    """
    d, char = _checked(diagram, characteristic)
    levels = Counter(sum(c * k for c, k in zip(r, char))
                     for r in d.positive_roots)
    dims = {0: d.n_nodes + 2 * levels.pop(0, 0)}
    for lev in sorted(levels):
        dims[lev] = levels[lev]
        dims[-lev] = levels[lev]
    return dims


@per_diagram
def _highest_roots(d: Diagram) -> tuple:
    # the highest root of a component is its tallest root of full support
    return tuple(max((r for r in d.positive_roots
                      if all(r[i] for i in d.component_nodes(ci))), key=sum)
                 for ci in range(len(d.components)))


def height(diagram, characteristic) -> int:
    # every positive root lies coefficientwise below its component's
    # highest root, and the entries are >= 0, so that root is the top layer
    d, char = _checked(diagram, characteristic)
    return max((sum(c * k for c, k in zip(r, char))
                for r in _highest_roots(d)), default=0)


def is_spherical_orbit(diagram, characteristic) -> bool:
    # nonzero nilpotent elements always reach layer 2, so "height 2 or 3"
    # and "height at most 3" agree wherever the vector is a genuine
    # characteristic; the latter keeps degenerate vectors total
    return height(diagram, characteristic) <= 3


def orbit_dims(diagram, characteristic) -> OrbitDims:
    dims = grading_dims(diagram, characteristic)
    total = sum(dims.values())
    dim_h = dims[0] + dims.get(1, 0)
    dim_hu = dims.get(1, 0) + dims.get(2, 0)
    return OrbitDims(dim_h, dim_hu, total - dim_h)


# -- height-3 orbit table ------------------------------------------------------

class OrbitInstance(NamedTuple):
    diagram: Diagram
    characteristic: tuple
    partition: tuple | None


class OrbitDatum(NamedTuple):
    label: str
    constraints: str
    fixed_part: str  # centraliser piece in layer 0, documentation only
    module: str      # its action on the odd tail, documentation only
    params: tuple
    realise: Callable  # (**params) -> OrbitInstance


def _characteristic(family, partition) -> tuple:
    """Characteristic of the nilpotent orbit with this Jordan partition.

    Collingwood and McGovern, "Nilpotent Orbits in Semisimple Lie
    Algebras" (1993), section 5.3: a part d gives the eigenvalues d-1,
    d-3, ..., 1-d of h; sort them all as h_1 >= h_2 >= ...  In type A
    node i gets h_i - h_(i+1).  Otherwise, at rank n, node i < n gets
    h_i - h_(i+1), and the last node h_n in B, 2 h_n in C and
    h_(n-1) + h_n in D.  The partition is not checked.
    """
    h = sorted((d - 1 - 2 * j for d in partition for j in range(d)),
               reverse=True)
    if family == "A":
        return tuple(a - b for a, b in zip(h, h[1:]))
    n = len(h) // 2
    last = {"B": h[n - 1], "C": 2 * h[n - 1], "D": h[n - 2] + h[n - 1]}
    return tuple(h[i] - h[i + 1] for i in range(n - 1)) + (last[family],)


def _orb_so(family, r, s=None):
    """The orbit (3, 2^2r, 1^k) of so(2n+1) in B, k = 2s, or of so(2n) in
    D, k = 2s + 1.  The tall rows take r alone: they are the case s = 0."""
    if s is None:
        _need(r >= 1, "needs r >= 1")
    else:
        _need(r >= 1 and s >= 1, "needs r, s >= 1")
    k = 2 * (s or 0) + (family == "D")
    partition = (3,) + (2,) * (2 * r) + (1,) * k
    return OrbitInstance(parse_diagram(f"{family}{sum(partition) // 2}"),
                         _characteristic(family, partition), partition)


def _orb_fixed(spec, char):
    inst = OrbitInstance(parse_diagram(spec), char, None)
    return lambda: inst


HEIGHT3 = (
    OrbitDatum("B(2r+1)", "r >= 1", "sp(2r)", "V(w1)", ("r",),
               lambda r: _orb_so("B", r)),
    OrbitDatum("B(2r+s+1)", "r, s >= 1", "sp(2r) + so(2s)", "V(w1)",
               ("r", "s"), lambda r, s: _orb_so("B", r, s)),
    OrbitDatum("D(2r+2)", "r >= 1", "sp(2r)", "V(w1)", ("r",),
               lambda r: _orb_so("D", r)),
    OrbitDatum("D(2r+s+2)", "r, s >= 1", "sp(2r) + so(2s+1)", "V(w1)",
               ("r", "s"), lambda r, s: _orb_so("D", r, s)),
    OrbitDatum("E6 (000100)", "", "sl(3) + sl(2)", "V(w1')", (),
               _orb_fixed("E6", (0, 0, 0, 1, 0, 0))),
    OrbitDatum("E7 (0010000)", "", "sl(2) + sp(6)", "V(w1)", (),
               _orb_fixed("E7", (0, 0, 1, 0, 0, 0, 0))),
    OrbitDatum("E7 (0100001)", "", "sp(6)", "V(w1)", (),
               _orb_fixed("E7", (0, 1, 0, 0, 0, 0, 1))),
    OrbitDatum("E8 (00000010)", "", "f4 + sl(2)", "V(w1')", (),
               _orb_fixed("E8", (0, 0, 0, 0, 0, 0, 1, 0))),
    OrbitDatum("E8 (01000000)", "", "sp(8)", "V(w1)", (),
               _orb_fixed("E8", (0, 1, 0, 0, 0, 0, 0, 0))),
    OrbitDatum("F4 (0100)", "", "sl(2) + so(3)", "V(w1)", (),
               _orb_fixed("F4", (0, 1, 0, 0))),
    OrbitDatum("G2 (10)", "", "sl(2)", "V(w1)", (),
               _orb_fixed("G2", (1, 0))),
)


# -- model homogeneous spaces --------------------------------------------------

class ModelDatum(NamedTuple):
    group: str
    parity: str
    construction: str
    system: str                    # catalog family naming the system
    system_params: Callable        # rank -> family parameters
    characteristic: Callable | None = None  # rank -> orbit characteristic

    def instantiate(self, n: int = 0) -> SphericalSystem:
        return families.instantiate(self.system, **self.system_params(n))


def _n(n):
    return {"n": n}


MODEL = (
    ModelDatum("A", "even", "Sp(n) x GL(1)", "ac*(n)", _n),
    ModelDatum("A", "odd",
               "parabolic of semisimple type C((n-1)/2) in the fixed "
               "subgroup of row A II", "ac*(n)", _n),
    ModelDatum("B", "even",
               "inside the type-A(n-1) parabolic of the row B II subgroup, "
               "same radical, semisimple type C(n/2)", "bc*(n)", _n),
    ModelDatum("B", "odd",
               "normaliser of the centraliser of a nilpotent element",
               "bc*(n)", _n,
               lambda n: _characteristic("B", (3,) + (2,) * (n - 1))),
    ModelDatum("C", "even",
               "parabolic of semisimple type C(n/2-1) x C(n/2) in the "
               "row C II (q = 2) subgroup", "ac*(p)+c*(q)",
               lambda n: {"p": n - 1, "q": 2}),
    ModelDatum("C", "odd",
               "parabolic of semisimple type C((n-1)/2) x C((n-1)/2) in "
               "the row C II (q >= 3) subgroup", "ac*(p)+c*(q)",
               lambda n: {"p": n - 1, "q": 2}),
    ModelDatum("D", "even",
               "normaliser of the centraliser of a nilpotent element",
               "dc*(n)", _n,
               lambda n: _characteristic("D", (3,) + (2,) * (n - 2) + (1,))),
    ModelDatum("D", "odd",
               "inside the type-A(n-2) parabolic of the row D II subgroup, "
               "same radical, semisimple type C((n-1)/2)", "dc*(n)", _n),
    ModelDatum("E6", "", "parabolic of semisimple type C3 in the row E IV "
               "subgroup", "ec*(n)", lambda n: {"n": 6}),
    ModelDatum("E7", "", "normaliser of the centraliser of a nilpotent "
               "element", "ec*(n)", lambda n: {"n": 7},
               lambda n: (0, 1, 0, 0, 0, 0, 1)),
    ModelDatum("E8", "", "normaliser of the centraliser of a nilpotent "
               "element", "ec*(n)", lambda n: {"n": 8},
               lambda n: (0, 1, 0, 0, 0, 0, 0, 0)),
    ModelDatum("F4", "", "parabolic of semisimple type A1 x B2 in the "
               "row F I subgroup", "fc*(4)", lambda n: {}),
    ModelDatum("G2", "", "normaliser of the centraliser of a nilpotent "
               "element", "g*(2)", lambda n: {},
               lambda n: (1, 0)),
    ModelDatum("B adjoint", "", "isogeny-sensitive case: the adjoint "
               "group's model subgroup", "bc'(n)", _n),
)

