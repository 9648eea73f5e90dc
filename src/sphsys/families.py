"""Catalog of the primitive spherical systems without simple spherical roots.

Every known primitive system belongs to one of the parameterized families
listed here.  Each family carries a generic name like ``"a(p)+b(q)"``, a
builder whose own check states the family's parameter range, and the
candidate parameters on a diagram, mostly every nonnegative solution of one
rank equation on a single chain (n = p + q on B_n for ``a(p)+b(q)``).

A member is a list of rank-one rows placed on nodes: each spherical root is
one row of ``sphsys.rankone.ROWS`` on its support, so ``a(p)+b(q)`` is
``a`` on the first p nodes of B_n and ``b`` on the others.  Every member
is cuspidal, and each root's support meets the parabolic set in its row's
trace (Luna, "Variétés sphériques de type A", 2001), so the parabolic set
is the union of the traces and no member states it.  A family with a
single member on a fixed diagram is one row that states the diagram and
the placements once.

``instantiate`` builds one member.  ``catalog_index`` maps the canonical
key of every member living on a diagram to its entry (earliest family wins
when two recipes coincide); ``expand_catalog`` lists those entries,
``classify`` is the reverse lookup used to name enumerated systems, and
``search.verify_catalog`` reads its predictions off the same index.

Strictness is not listed: ``CatalogEntry.strict`` asks the member itself.
"""

from __future__ import annotations

import itertools
import re
from types import MappingProxyType
from typing import Callable, NamedTuple

from .dynkin import (_RANK_RANGE, Diagram, DiagramError, parse_diagram,
                     per_diagram)
from .rankone import ROWS
from .system import SphericalSystem


@per_diagram
def _diag(spec: str) -> Diagram:
    return parse_diagram(spec)


# a row by its base; of the two "d" rows the dict keeps the later, the D
# row, and on three nodes, branch node first, that reads as the A3 row d(3)
_ROW = {row.base: row for row in ROWS}


def _placed(d: Diagram, placements) -> SphericalSystem:
    """The member of d with one root per (row base, nodes) placement.

    The nodes list the row's support in its Bourbaki order, and the row is
    read at their number, also below its own range: b' on one node is
    a'(1), c and c* on two are b(2) and b*(2), d on three is d(3).  The
    parabolic set is the union of the traces.  Each builder makes d first,
    so the rank cap trips before any weight exists.
    """
    sigma, sp = [], set()
    for base, nodes in placements:
        row, k = _ROW[base], len(nodes)
        w = [0] * d.n_nodes
        for v, c in zip(nodes, row.coeffs(k)):
            w[v] = c
        sigma.append(tuple(w))
        sp.update(nodes[i - 1] for i in row.trace(k))
    return SphericalSystem(d, sp, sigma)


def _c_positions(d: Diagram, ci: int) -> list:
    """Nodes of a symplectic chain component, double bond last.

    A rank-2 component is stored as B (long node first), which is the same
    chain walked from the other end.
    """
    nodes = list(d.component_nodes(ci))
    if d.components[ci][0] == "B":
        nodes.reverse()
    return nodes


def _need(cond: bool, msg: str):
    if not cond:
        raise ValueError(msg)


# -- builders, one per family ------------------------------------------------
# A short chain places d on the nodes (i + 1, i, i + 2) for even i: the
# weight 1, 2, 1 with both ends in the trace.

def _need_rank(fam, n, name):
    # outside its family's range a chain is another type (C2 is B2, D3 is
    # A3), and the recipe would build a member of another family
    lo, hi = _RANK_RANGE[fam]
    _need(lo <= n <= (hi or n), f"{name} needs rank {lo}"
          + (f" to {hi}" if hi else " or more") + f", not {n}")


def _b_group_pair(fam, p):
    _need_rank(fam, p, f"{fam.lower() * 2}(p,p)")
    d = _diag(f"{fam}{p},{fam}{p}")
    return _placed(d, [("aa", pair) for pair in zip(d.component_nodes(0),
                                                     d.component_nodes(1))])


def _b_all_doubled(fam, n):
    _need_rank(fam, n, f"{fam.lower()}o(n)")
    return _placed(_diag(f"{fam}{n}"), [("a'", [i]) for i in range(n)])


def _b_ac(n):
    _need(n >= 3 and n % 2 == 1, "ac(n) needs odd n >= 3")
    return _placed(_diag(f"A{n}"),
                   [("d", (i + 1, i, i + 2)) for i in range(0, n - 1, 2)])


def _b_aa_pqp(p, q):
    _need(p >= 1 and q >= 2, "aa(p+q+p) needs p >= 1, q >= 2")
    n = 2 * p + q
    return _placed(_diag(f"A{n}"), [("aa", (i, n - 1 - i)) for i in range(p)]
                   + [("a", range(p, p + q))])


def _b_aa_p1p(p):
    _need(p >= 1, "aa'(p+1+p) needs p >= 1")
    n = 2 * p + 1
    return _placed(_diag(f"A{n}"), [("aa", (i, n - 1 - i)) for i in range(p)]
                   + [("a'", [p])])


def _b_a(n):
    _need(n >= 2, "a(n) needs n >= 2")
    return _placed(_diag(f"A{n}"), [("a", range(n))])


def _b_acstar(n):
    _need(n >= 3, "ac*(n) needs n >= 3")
    return _placed(_diag(f"A{n}"), [("a", (i, i + 1)) for i in range(n - 1)])


def _b_bo(p, q):
    _need(p >= 1 and q >= 1, "bo(p+q) needs p, q >= 1")
    n = p + q
    return _placed(_diag(f"B{n}"), [("a'", [i]) for i in range(p)]
                   + [("b'", range(p, n))])


def _b_b(n, base="b"):
    _need(n >= 2, "needs n >= 2")
    return _placed(_diag(f"B{n}"), [(base, range(n))])


def _b_bstar(n):
    _need(n >= 2, "b*(n) needs n >= 2")
    return _placed(_diag(f"B{n}"), [("b*", range(n))])


def _b_bcstar(n):
    _need(n >= 3, "bc*(n) needs n >= 3")
    return _placed(_diag(f"B{n}"), [("a", (i, i + 1)) for i in range(n - 2)]
                   + [("b*", (n - 2, n - 1))])


def _b_bcprime(n):
    _need(n >= 2, "bc'(n) needs n >= 2")
    return _placed(_diag(f"B{n}"), [("a", (i, i + 1)) for i in range(n - 2)]
                   + [("b*", (n - 2, n - 1)), ("a'", [n - 1])])


def _b_a_b(p, q, head_pairs=False, tail="b"):
    _need(p >= 2 and q >= (2 if tail == "b" else 1),
          "tail too short for this family")
    n = p + q
    d = _diag(f"B{n}")
    head = ([("a", (i, i + 1)) for i in range(p - 1)] if head_pairs
            else [("a", range(p))])
    return _placed(d, head + [(tail, range(p, n))])


def _b_c(n):
    _need(n >= 3, "c(n) needs n >= 3")
    return _placed(_diag(f"C{n}"), [("c", range(n))])


def _b_cc_pq(p, q):
    _need(p >= 2 and p % 2 == 0 and q >= 2,
          "cc(p+q) needs even p >= 2 and q >= 2")
    n = p + q
    return _placed(_diag(f"C{n}"),
                   [("d", (i + 1, i, i + 2)) for i in range(0, p, 2)]
                   + [("c", range(p, n))])


def _b_ccprime(p):
    _need(p >= 2 and p % 2 == 0, "cc'(p+2) needs even p >= 2")
    n = p + 2
    return _placed(_diag(f"C{n}"),
                   [("d", (i + 1, i, i + 2)) for i in range(0, p, 2)]
                   + [("b'", (n - 1, n - 2))])


def _b_cstar(n):
    _need(n >= 3, "c*(n) needs n >= 3")
    return _placed(_diag(f"C{n}"), [("c*", range(n))])


def _b_ca(q):
    _need(q >= 2, "ca(1+q+1) needs q >= 2")
    n = q + 2
    return _placed(_diag(f"C{n}"),
                   [("aa", (0, n - 1)), ("a", range(1, n - 1))])


def _b_aa1p1_cstar(p, q):
    _need(p >= 2 and q >= 2, "aa(1+p+1)+c*(q) needs p, q >= 2")
    n = p + q + 1
    return _placed(_diag(f"C{n}"), [("aa", (0, p + 1)), ("a", range(1, p + 1)),
                                    ("c*", range(p + 1, n))])


def _b_aa11_cstar(n):
    _need(n >= 2, "aa(1,1)+c*(n) needs n >= 2")
    d = _diag(f"A1,C{n}")
    c = _c_positions(d, 1)
    return _placed(d, [("aa", (d.component_nodes(0)[0], c[0])), ("c*", c)])


def _b_aa11_cstar_cstar(n1, n2):
    _need(2 <= n1 <= n2, "aa(1,1)+c*(n1)+c*(n2) needs 2 <= n1 <= n2")
    d = _diag(f"C{n1},C{n2}")
    c1, c2 = (_c_positions(d, ci) for ci in range(2))
    return _placed(d, [("aa", (c1[0], c2[0])), ("c*", c1), ("c*", c2)])


def _b_acstar_cstar(p, q):
    _need(p >= 2 and q >= 2, "ac*(p)+c*(q) needs p, q >= 2")
    n = p + q - 1
    return _placed(_diag(f"C{n}"), [("a", (i, i + 1)) for i in range(p - 1)]
                   + [("c*", range(p - 1, n))])


def _b_aprime_cstar(q):
    _need(q >= 3, "a'(1)+c*(q) needs q >= 3")
    return _placed(_diag(f"C{q}"), [("a'", [0]), ("c*", range(q))])


def _b_do_pq(p, q):
    _need(p >= 1 and q >= 2 and p + q >= 4, "do(p+q) needs q >= 2, p+q >= 4")
    n = p + q
    d = _diag(f"D{n}")
    # read on two nodes d would put one in the trace, so the two fork ends
    # take aa(1,1)
    tail = ("aa", (n - 2, n - 1)) if q == 2 else ("d", range(p, n))
    return _placed(d, [("a'", [i]) for i in range(p)] + [tail])


def _b_d(n):
    _need(n >= 4, "d(n) needs n >= 4")
    return _placed(_diag(f"D{n}"), [("d", range(n))])


def _b_dcprime(n):
    _need(n >= 6 and n % 2 == 0, "dc'(n) needs even n >= 6")
    return _placed(_diag(f"D{n}"),
                   [("d", (i + 1, i, i + 2)) for i in range(0, n - 2, 2)]
                   + [("a'", [n - 1])])


def _b_dc(n):
    _need(n >= 5 and n % 2 == 1, "dc(n) needs odd n >= 5")
    return _placed(_diag(f"D{n}"),
                   [("d", (i + 1, i, i + 2)) for i in range(0, n - 3, 2)]
                   + [("a", (n - 2, n - 3, n - 1))])


def _b_ds(n):
    _need(n >= 4, "ds(n) needs n >= 4")
    return _placed(_diag(f"D{n}"),
                   [("a", range(n - 1)), ("a", [*range(n - 2), n - 1])])


def _b_dcstar(n):
    _need(n >= 4, "dc*(n) needs n >= 4")
    return _placed(_diag(f"D{n}"), [("a", (i, i + 1)) for i in range(n - 2)]
                   + [("a", (n - 3, n - 1))])


def _b_a_d(p, q, head_pairs=False):
    _need(p >= 2 and q >= 2, "needs p, q >= 2")
    n = p + q
    d = _diag(f"D{n}")
    head = ([("a", (i, i + 1)) for i in range(p - 1)] if head_pairs
            else [("a", range(p))])
    tail = ("aa", (n - 2, n - 1)) if q == 2 else ("d", range(p, n))
    return _placed(d, head + [tail])


# the two D5 roots of ef(n) on the E6 nodes, shared with ef(6)+a(2)
_EF_ROOTS = [("d", (0, 2, 3, 1, 4)), ("d", (5, 4, 3, 1, 2))]


def _b_ef(n):
    _need(n in (6, 7, 8), "ef(n) needs n in {6,7,8}")
    return _placed(_diag(f"E{n}"),
                   _EF_ROOTS + [("a'", [i]) for i in range(6, n)])


def _b_ecstar(n):
    _need(n in (6, 7, 8), "ec*(n) needs n in {6,7,8}")
    return _placed(_diag(f"E{n}"), [("a", (0, 2)), ("a", (1, 3))]
                   + [("a", (i, i + 1)) for i in range(2, n - 1)])


# -- the table ----------------------------------------------------------------

class Family(NamedTuple):
    """A catalog entry: generic name, builder, candidate parameters.

    space(d) yields parameter dicts that may fit d; the builder raises
    ValueError on those outside the family's range.
    """

    name: str
    build: Callable
    space: Callable

    @property
    def display(self) -> str:
        # the name with each parameter in braces: "aa({p}+{q}+{p})"
        return re.sub(r"\b(n[12]?|p|q)\b", r"{\1}", self.name)

    def label(self, params) -> str:
        return self.display.format(**params)


def _chain(fam, const=0, **coeffs):
    # every nonnegative solution of rank == const + sum(coeff * param) on a
    # single chain of fam, the first parameter counting slowest; the
    # builder's own check then decides which of them are members
    *free, last = coeffs

    def space(d):
        if len(d.components) != 1 or d.components[0][0] != fam:
            return
        n = d.components[0][1] - const
        for vals in itertools.product(
                *(range(n // coeffs[k] + 1) for k in free)):
            left = n - sum(coeffs[k] * v for k, v in zip(free, vals))
            if left >= 0 and left % coeffs[last] == 0:
                yield dict(zip(free, vals), **{last: left // coeffs[last]})
    return space


def _pair_space(fam):
    def space(d):
        c = d.components
        if len(c) == 2 and c[0] == c[1] and c[0][0] == fam:
            yield {"p": c[0][1]}
    return space


def _fixed(spec):
    def space(d):
        if d == _diag(spec):
            yield {}
    return space


def _member(name, spec, placements):
    """A family with one member, stated by its diagram and placements."""
    return Family(name, lambda: _placed(_diag(spec), placements),
                  _fixed(spec))


def _c_rank(component):
    # a C chain of rank r, with B2 counting as C2; None for any other chain
    fam, r = component
    return r if fam == "C" or (fam, r) == ("B", 2) else None


def _space_aa11_cstar(d):
    c = d.components
    if len(c) == 2 and c[0] == ("A", 1) and _c_rank(c[1]):
        yield {"n": c[1][1]}


def _space_aa11_cstar2(d):
    ranks = [_c_rank(c) for c in d.components]
    if len(ranks) == 2 and all(ranks):
        n1, n2 = sorted(ranks)
        yield {"n1": n1, "n2": n2}


CATALOG = (
    Family("aa(p,p)", lambda p: _b_group_pair("A", p), _pair_space("A")),
    Family("ao(n)", lambda n: _b_all_doubled("A", n), _chain("A", n=1)),
    Family("ac(n)", _b_ac, _chain("A", n=1)),
    Family("aa(p+q+p)", _b_aa_pqp, _chain("A", p=2, q=1)),
    Family("aa'(p+1+p)", _b_aa_p1p, _chain("A", 1, p=2)),
    Family("a(n)", _b_a, _chain("A", n=1)),
    Family("ac*(n)", _b_acstar, _chain("A", n=1)),

    Family("bb(p,p)", lambda p: _b_group_pair("B", p), _pair_space("B")),
    Family("bo(p+q)", _b_bo, _chain("B", p=1, q=1)),
    Family("b(n)", _b_b, _chain("B", n=1)),
    Family("b'(n)", lambda n: _b_b(n, "b'"), _chain("B", n=1)),
    Family("b*(n)", _b_bstar, _chain("B", n=1)),
    Family("bc*(n)", _b_bcstar, _chain("B", n=1)),
    Family("bc'(n)", _b_bcprime, _chain("B", n=1)),
    Family("a(p)+b(q)", _b_a_b, _chain("B", p=1, q=1)),
    Family("a(p)+b'(q)", lambda p, q: _b_a_b(p, q, tail="b'"),
           _chain("B", p=1, q=1)),
    Family("ac*(p)+b(q)", lambda p, q: _b_a_b(p, q, head_pairs=True),
           _chain("B", p=1, q=1)),
    Family("ac*(p)+b'(q)",
           lambda p, q: _b_a_b(p, q, head_pairs=True, tail="b'"),
           _chain("B", p=1, q=1)),
    _member("b**(3)", "B3", [("b**", range(3))]),
    _member("b*(4)+b**(3)", "B4", [("b*", range(4)), ("b**", (1, 2, 3))]),

    Family("cc(p,p)", lambda p: _b_group_pair("C", p), _pair_space("C")),
    Family("co(n)", lambda n: _b_all_doubled("C", n), _chain("C", n=1)),
    Family("c(n)", _b_c, _chain("C", n=1)),
    Family("cc(p+q)", _b_cc_pq, _chain("C", p=1, q=1)),
    Family("cc'(p+2)", _b_ccprime, _chain("C", 2, p=1)),
    Family("c*(n)", _b_cstar, _chain("C", n=1)),
    Family("ca(1+q+1)", _b_ca, _chain("C", 2, q=1)),
    Family("aa(1+p+1)+c*(q)", _b_aa1p1_cstar, _chain("C", 1, p=1, q=1)),
    Family("aa(1,1)+c*(n)", _b_aa11_cstar, _space_aa11_cstar),
    Family("aa(1,1)+c*(n1)+c*(n2)", _b_aa11_cstar_cstar, _space_aa11_cstar2),
    Family("ac*(p)+c*(q)", _b_acstar_cstar, _chain("C", -1, p=1, q=1)),
    Family("a'(1)+c*(q)", _b_aprime_cstar, _chain("C", q=1)),

    Family("dd(p,p)", lambda p: _b_group_pair("D", p), _pair_space("D")),
    Family("do(p+q)", _b_do_pq, _chain("D", p=1, q=1)),
    Family("do(n)", lambda n: _b_all_doubled("D", n), _chain("D", n=1)),
    Family("d(n)", _b_d, _chain("D", n=1)),
    Family("dc'(n)", _b_dcprime, _chain("D", n=1)),
    Family("dc(n)", _b_dc, _chain("D", n=1)),
    Family("ds(n)", _b_ds, _chain("D", n=1)),
    _member("ds*(4)", "D4",
            [("a", (0, 1, 2)), ("a", (2, 1, 3)), ("a", (0, 1, 3))]),
    Family("dc*(n)", _b_dcstar, _chain("D", n=1)),
    Family("a(p)+d(q)", _b_a_d, _chain("D", p=1, q=1)),
    Family("ac*(p)+d(q)", lambda p, q: _b_a_d(p, q, head_pairs=True),
           _chain("D", p=1, q=1)),

    Family("ee(p,p)", lambda p: _b_group_pair("E", p), _pair_space("E")),
    Family("eo(n)", lambda n: _b_all_doubled("E", n), _chain("E", n=1)),
    _member("ea(6)", "E6", [("aa", (0, 5)), ("aa", (2, 4)),
                            ("a'", [1]), ("a'", [3])]),
    _member("ed(6)", "E6", [("a", (0, 2, 3, 4, 5)), ("d", (1, 3, 2, 4))]),
    Family("ef(6)", lambda: _b_ef(6), _fixed("E6")),
    _member("ec(7)", "E7", [("a'", [0]), ("a'", [2]),
                            ("d", (3, 1, 4)), ("d", (5, 4, 6))]),
    Family("ef(n)", _b_ef, _chain("E", n=1)),
    Family("ec*(n)", _b_ecstar, _chain("E", n=1)),
    _member("ef(6)+a(2)", "E8", _EF_ROOTS + [("a", (6, 7))]),
    _member("aa(2,2)+a(2)", "E6",
            [("aa", (0, 5)), ("aa", (2, 4)), ("a", (1, 3))]),
    _member("ac(5)+a(2)", "E7",
            [("a", (0, 2)), ("d", (3, 1, 4)), ("d", (5, 4, 6))]),

    Family("ff(4,4)", lambda: _b_group_pair("F", 4), _fixed("F4,F4")),
    Family("fo(4)", lambda: _b_all_doubled("F", 4), _fixed("F4")),
    _member("f(4)", "F4", [("f", range(4))]),
    _member("fa(1+2+1)", "F4", [("aa", (0, 3)), ("b*", (1, 2))]),
    _member("fd(4)", "F4", [("b*", (0, 1, 2)), ("c*", (3, 2, 1))]),
    _member("ao(2)+a(2)", "F4", [("a", (0, 1)), ("a'", [2]), ("a'", [3])]),
    _member("fc*(4)", "F4", [("a", (0, 1)), ("b*", (1, 2)), ("a", (2, 3))]),

    Family("gg(2,2)", lambda: _b_group_pair("G", 2), _fixed("G2,G2")),
    Family("go(2)", lambda: _b_all_doubled("G", 2), _fixed("G2")),
    _member("g(2)", "G2", [("g", range(2))]),
    _member("g'(2)", "G2", [("g'", range(2))]),
    _member("g*(2)", "G2", [("g*", range(2))]),
)

_BY_NAME = {f.name: f for f in CATALOG}


def instantiate(name: str, **params) -> SphericalSystem:
    """Build one catalog member; raises KeyError or ValueError."""
    return _BY_NAME[name].build(**params)


class CatalogEntry(NamedTuple):
    family: str
    params: dict
    label: str
    system: SphericalSystem

    @property
    def strict(self) -> bool:
        # asked lazily: is_strict builds the rank-one tables of the diagram
        return self.system.is_strict

    def __repr__(self):
        return (f"CatalogEntry(family={self.family!r}, params={self.params!r}"
                f", label={self.label!r}, system={self.system!r}, "
                f"strict={self.strict!r})")


@per_diagram
def _index(d: Diagram) -> MappingProxyType:
    index = {}
    for fam in CATALOG:
        for params in fam.space(d):
            try:
                sys = fam.build(**params)
            except ValueError:
                continue    # the builder's check: outside the family's range
            if sys.diagram != d:
                raise DiagramError(f"family {fam.name} built a system on "
                                   f"{sys.diagram.spec()}, not {d.spec()}")
            index.setdefault(sys.canonical_key(), CatalogEntry(
                fam.name, params, fam.label(params), sys))
    return MappingProxyType(index)


def catalog_index(diagram) -> MappingProxyType:
    """Canonical key -> CatalogEntry for every member on a diagram, in
    catalog order, one entry per automorphism orbit.

    Two recipes can coincide (a length-2 consecutive-sum head is the same
    root as a length-2 chain sum); the earlier family keeps the entry.
    """
    return _index(parse_diagram(diagram))


def expand_catalog(diagram) -> tuple:
    """All catalog members on a diagram, in catalog order, deduped."""
    return tuple(catalog_index(diagram).values())


def classify(sys: SphericalSystem) -> str | None:
    """Catalog label of a system, or None if it is not a catalog member."""
    index = _index(sys.diagram)
    # a key minimises over every automorphism, and the diagrams with the
    # most (A1 x 7 has 5,040) carry no member: they get no key
    if not index:
        return None
    entry = index.get(sys.canonical_key())
    return entry.label if entry else None
