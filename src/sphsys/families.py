"""Catalog of the primitive spherical systems without simple spherical roots.

Every known primitive system belongs to one of the parameterized families
listed here.  Each family carries a generic name like ``"a(p)+b(q)"``, a
recipe building the system on its ambient diagram, and a generator of the
parameter values that fit a given diagram.  ``instantiate`` builds one
member.  ``catalog_index`` maps the canonical key of every member living
on a diagram to its entry (earliest family wins when two recipes
coincide); ``expand_catalog`` lists those entries, ``classify`` is the
reverse lookup used to name enumerated systems, and
``search.verify_catalog`` reads its predictions off the same index.

Strictness is not listed: ``CatalogEntry.strict`` asks the member itself.
"""

from __future__ import annotations

import functools
import re
from types import MappingProxyType
from typing import Callable, NamedTuple

from .dynkin import (_RANK_RANGE, Diagram, DiagramError, _check_rank,
                     parse_diagram)
from .system import SphericalSystem


@functools.lru_cache(maxsize=None)
def _diag(spec: str) -> Diagram:
    return parse_diagram(spec)


def _wt(n, coeffs) -> tuple:
    # most builders make their weights before their diagram, so the rank
    # cap is checked here: an over-cap n raises before n^2/2 entries exist
    _check_rank(n)
    w = [0] * n
    for i, c in coeffs.items():
        w[i] += c
    return tuple(w)


def _pairs_row(n, lo, count):
    """Consecutive-node sums starting at lo: (lo,lo+1), (lo+1,lo+2), ..."""
    return [_wt(n, {lo + i: 1, lo + i + 1: 1}) for i in range(count)]


def _chain_row(n, lo, hi, coeff=1):
    return _wt(n, {i: coeff for i in range(lo, hi + 1)})


def _short_chain(n, lo, count):
    """Coefficient pattern 1,2,1 repeated along even offsets from lo."""
    return [_wt(n, {lo + 2 * k: 1, lo + 2 * k + 1: 2, lo + 2 * k + 2: 1})
            for k in range(count)]


def _c_tail(n, start, chain=None):
    # 1, 2, ..., 2, 1 from chain[start] to the double-bond end of a C chain,
    # given double bond last (the whole diagram by default)
    c = range(n) if chain is None else chain
    w = {c[i]: 2 for i in range(start + 1, len(c) - 1)}
    w[c[start]] = 1
    w[c[-1]] = w.get(c[-1], 0) + 1
    return _wt(n, w)


def _d_tail(n, start):
    # 2, ..., 2, 1, 1 from start to the fork of a D chain
    w = {i: 2 for i in range(start, n - 2)}
    w[n - 2] = 1
    w[n - 1] = 1
    return _wt(n, w)


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

def _need_rank(fam, n, name):
    # outside its family's range a chain is another type (C2 is B2, D3 is
    # A3), and the recipe would build a member of another family
    lo, hi = _RANK_RANGE[fam]
    _need(lo <= n <= (hi or n), f"{name} needs rank {lo}"
          + (f" to {hi}" if hi else " or more") + f", not {n}")


def _b_group_pair(fam, p):
    _need_rank(fam, p, f"{fam.lower() * 2}(p,p)")
    d = _diag(f"{fam}{p},{fam}{p}")
    a, b = d.component_nodes(0), d.component_nodes(1)
    sigma = [_wt(d.n_nodes, {a[i]: 1, b[i]: 1}) for i in range(p)]
    return SphericalSystem(d, (), sigma)


def _b_all_doubled(fam, n):
    _need_rank(fam, n, f"{fam.lower()}o(n)")
    return SphericalSystem(_diag(f"{fam}{n}"), (),
                           [_wt(n, {i: 2}) for i in range(n)])


def _b_ac(n):
    _need(n >= 3 and n % 2 == 1, "ac(n) needs odd n >= 3")
    sigma = _short_chain(n, 0, (n - 1) // 2)
    return SphericalSystem(_diag(f"A{n}"), range(0, n, 2), sigma)


def _b_aa_pqp(p, q):
    _need(p >= 1 and q >= 2, "aa(p+q+p) needs p >= 1, q >= 2")
    n = 2 * p + q
    sigma = [_wt(n, {i: 1, n - 1 - i: 1}) for i in range(p)]
    sigma.append(_chain_row(n, p, p + q - 1))
    return SphericalSystem(_diag(f"A{n}"), range(p + 1, p + q - 1), sigma)


def _b_aa_p1p(p):
    _need(p >= 1, "aa'(p+1+p) needs p >= 1")
    n = 2 * p + 1
    sigma = [_wt(n, {i: 1, n - 1 - i: 1}) for i in range(p)]
    sigma.append(_wt(n, {p: 2}))
    return SphericalSystem(_diag(f"A{n}"), (), sigma)


def _b_a(n):
    _need(n >= 2, "a(n) needs n >= 2")
    return SphericalSystem(_diag(f"A{n}"), range(1, n - 1),
                           [_chain_row(n, 0, n - 1)])


def _b_acstar(n):
    _need(n >= 3, "ac*(n) needs n >= 3")
    return SphericalSystem(_diag(f"A{n}"), (), _pairs_row(n, 0, n - 1))


def _b_bo(p, q):
    _need(p >= 1 and q >= 1, "bo(p+q) needs p, q >= 1")
    n = p + q
    sigma = [_wt(n, {i: 2}) for i in range(p)]
    sigma.append(_chain_row(n, p, n - 1, coeff=2))
    return SphericalSystem(_diag(f"B{n}"), range(p + 1, n), sigma)


def _b_b(n, coeff=1):
    _need(n >= 2, "needs n >= 2")
    return SphericalSystem(_diag(f"B{n}"), range(1, n),
                           [_chain_row(n, 0, n - 1, coeff=coeff)])


def _b_bstar(n):
    _need(n >= 2, "b*(n) needs n >= 2")
    return SphericalSystem(_diag(f"B{n}"), range(1, n - 1),
                           [_chain_row(n, 0, n - 1)])


def _b_bcstar(n):
    _need(n >= 3, "bc*(n) needs n >= 3")
    return SphericalSystem(_diag(f"B{n}"), (), _pairs_row(n, 0, n - 1))


def _b_bcprime(n):
    _need(n >= 2, "bc'(n) needs n >= 2")
    sigma = _pairs_row(n, 0, n - 1) + [_wt(n, {n - 1: 2})]
    return SphericalSystem(_diag(f"B{n}"), (), sigma)


def _a_head(n, p, consecutive):
    if consecutive:
        return _pairs_row(n, 0, p - 1), set()
    return [_chain_row(n, 0, p - 1)], set(range(1, p - 1))


def _b_a_b(p, q, head_pairs=False, coeff=1):
    _need(p >= 2 and q >= (2 if coeff == 1 else 1),
          "tail too short for this family")
    n = p + q
    sigma, sp = _a_head(n, p, head_pairs)
    sigma.append(_chain_row(n, p, n - 1, coeff=coeff))
    sp |= set(range(p + 1, n))
    return SphericalSystem(_diag(f"B{n}"), sp, sigma)


def _b_bss():
    return SphericalSystem(_diag("B3"), {0, 1}, [(1, 2, 3)])


def _b_bstar4_bss3():
    return SphericalSystem(_diag("B4"), {1, 2},
                           [(1, 1, 1, 1), (0, 1, 2, 3)])


def _b_c(n):
    _need(n >= 3, "c(n) needs n >= 3")
    sp = {0} | set(range(2, n))
    return SphericalSystem(_diag(f"C{n}"), sp, [_c_tail(n, 0)])


def _b_cc_pq(p, q):
    _need(p >= 2 and p % 2 == 0 and q >= 2,
          "cc(p+q) needs even p >= 2 and q >= 2")
    n = p + q
    sigma = _short_chain(n, 0, p // 2) + [_c_tail(n, p)]
    sp = set(range(0, p + 1, 2)) | set(range(p + 2, n))
    return SphericalSystem(_diag(f"C{n}"), sp, sigma)


def _b_ccprime(p):
    _need(p >= 2 and p % 2 == 0, "cc'(p+2) needs even p >= 2")
    n = p + 2
    sigma = _short_chain(n, 0, p // 2)
    sigma.append(_wt(n, {n - 2: 2, n - 1: 2}))
    return SphericalSystem(_diag(f"C{n}"), range(0, n - 1, 2), sigma)


def _b_cstar(n):
    _need(n >= 3, "c*(n) needs n >= 3")
    return SphericalSystem(_diag(f"C{n}"), range(2, n), [_c_tail(n, 0)])


def _b_ca(q):
    _need(q >= 2, "ca(1+q+1) needs q >= 2")
    n = q + 2
    sigma = [_wt(n, {0: 1, n - 1: 1}), _chain_row(n, 1, n - 2)]
    return SphericalSystem(_diag(f"C{n}"), range(2, q), sigma)


def _b_aa1p1_cstar(p, q):
    _need(p >= 2 and q >= 2, "aa(1+p+1)+c*(q) needs p, q >= 2")
    n = p + q + 1
    sigma = [_wt(n, {0: 1, p + 1: 1}),
             _chain_row(n, 1, p),
             _c_tail(n, p + 1)]
    sp = set(range(2, p)) | set(range(p + 3, n))
    return SphericalSystem(_diag(f"C{n}"), sp, sigma)


def _b_aa11_cstar(n):
    _need(n >= 2, "aa(1,1)+c*(n) needs n >= 2")
    d = _diag(f"A1,C{n}")
    a = d.component_nodes(0)[0]
    c = _c_positions(d, 1)
    m = d.n_nodes
    sigma = [_wt(m, {a: 1, c[0]: 1}), _c_tail(m, 0, c)]
    return SphericalSystem(d, c[2:], sigma)


def _b_aa11_cstar_cstar(n1, n2):
    _need(2 <= n1 <= n2, "aa(1,1)+c*(n1)+c*(n2) needs 2 <= n1 <= n2")
    d = _diag(f"C{n1},C{n2}")
    m = d.n_nodes
    c1, c2 = (_c_positions(d, ci) for ci in range(2))
    sigma = [_wt(m, {c1[0]: 1, c2[0]: 1}), _c_tail(m, 0, c1),
             _c_tail(m, 0, c2)]
    return SphericalSystem(d, c1[2:] + c2[2:], sigma)


def _b_acstar_cstar(p, q):
    _need(p >= 2 and q >= 2, "ac*(p)+c*(q) needs p, q >= 2")
    n = p + q - 1
    sigma = _pairs_row(n, 0, p - 1) + [_c_tail(n, p - 1)]
    return SphericalSystem(_diag(f"C{n}"), range(p + 1, n), sigma)


def _b_aprime_cstar(q):
    _need(q >= 3, "a'(1)+c*(q) needs q >= 3")
    n = q
    sigma = [_wt(n, {0: 2}), _c_tail(n, 0)]
    return SphericalSystem(_diag(f"C{n}"), range(2, n), sigma)


def _b_do_pq(p, q):
    _need(p >= 1 and q >= 2 and p + q >= 4, "do(p+q) needs q >= 2, p+q >= 4")
    n = p + q
    sigma = [_wt(n, {i: 2}) for i in range(p)] + [_d_tail(n, p)]
    sp = () if q == 2 else range(p + 1, n)
    return SphericalSystem(_diag(f"D{n}"), sp, sigma)


def _b_d(n):
    _need(n >= 4, "d(n) needs n >= 4")
    return SphericalSystem(_diag(f"D{n}"), range(1, n), [_d_tail(n, 0)])


def _b_dcprime(n):
    _need(n >= 6 and n % 2 == 0, "dc'(n) needs even n >= 6")
    return _dc_prime(n)


def _dc_prime(n):
    # unchecked: at n = 4 this is the fork swap of do(1+3), the D III
    # involution of so(8)
    sigma = _short_chain(n, 0, (n - 2) // 2) + [_wt(n, {n - 1: 2})]
    return SphericalSystem(_diag(f"D{n}"), range(0, n - 1, 2), sigma)


def _b_dc(n):
    _need(n >= 5 and n % 2 == 1, "dc(n) needs odd n >= 5")
    sigma = _short_chain(n, 0, (n - 3) // 2)
    sigma.append(_wt(n, {n - 3: 1, n - 2: 1, n - 1: 1}))
    return SphericalSystem(_diag(f"D{n}"), range(0, n - 2, 2), sigma)


def _b_ds(n):
    _need(n >= 4, "ds(n) needs n >= 4")
    sigma = [_chain_row(n, 0, n - 2),
             _wt(n, {i: 1 for i in range(n - 2)} | {n - 1: 1})]
    return SphericalSystem(_diag(f"D{n}"), range(1, n - 2), sigma)


def _b_dsstar():
    return SphericalSystem(_diag("D4"), {1},
                           [(1, 1, 1, 0), (0, 1, 1, 1), (1, 1, 0, 1)])


def _b_dcstar(n):
    _need(n >= 4, "dc*(n) needs n >= 4")
    sigma = _pairs_row(n, 0, n - 2) + [_wt(n, {n - 3: 1, n - 1: 1})]
    return SphericalSystem(_diag(f"D{n}"), (), sigma)


def _b_a_d(p, q, head_pairs=False):
    _need(p >= 2 and q >= 2, "needs p, q >= 2")
    n = p + q
    sigma, sp = _a_head(n, p, head_pairs)
    sigma.append(_d_tail(n, p))
    if q != 2:
        sp |= set(range(p + 1, n))
    return SphericalSystem(_diag(f"D{n}"), sp, sigma)


def _b_ea6():
    return SphericalSystem(_diag("E6"), (), [
        (1, 0, 0, 0, 0, 1), (0, 0, 1, 0, 1, 0),
        (0, 2, 0, 0, 0, 0), (0, 0, 0, 2, 0, 0)])


def _b_ed6():
    return SphericalSystem(_diag("E6"), {2, 3, 4}, [
        (1, 0, 1, 1, 1, 1), (0, 2, 1, 2, 1, 0)])


# the two long weights of ef(n) on the E6 nodes, shared with ef(6)+a(2)
_EF_ROOTS = ((2, 1, 2, 2, 1, 0), (0, 1, 1, 2, 2, 2))


def _b_ef(n):
    _need(n in (6, 7, 8), "ef(n) needs n in {6,7,8}")
    sigma = [w + (0,) * (n - 6) for w in _EF_ROOTS]
    for i in range(6, n):
        sigma.append(_wt(n, {i: 2}))
    return SphericalSystem(_diag(f"E{n}"), {1, 2, 3, 4}, sigma)


def _b_ec7():
    return SphericalSystem(_diag("E7"), {1, 4, 6}, [
        (2, 0, 0, 0, 0, 0, 0), (0, 0, 2, 0, 0, 0, 0),
        (0, 1, 0, 2, 1, 0, 0), (0, 0, 0, 0, 1, 2, 1)])


def _b_ecstar(n):
    _need(n in (6, 7, 8), "ec*(n) needs n in {6,7,8}")
    sigma = [_wt(n, {0: 1, 2: 1}), _wt(n, {1: 1, 3: 1})]
    sigma += [_wt(n, {i: 1, i + 1: 1}) for i in range(2, n - 1)]
    return SphericalSystem(_diag(f"E{n}"), (), sigma)


def _b_ef6_a2():
    sigma = [w + (0, 0) for w in _EF_ROOTS]
    sigma.append(_wt(8, {6: 1, 7: 1}))
    return SphericalSystem(_diag("E8"), {1, 2, 3, 4}, sigma)


def _b_aa22_a2():
    return SphericalSystem(_diag("E6"), (), [
        (1, 0, 0, 0, 0, 1), (0, 0, 1, 0, 1, 0), (0, 1, 0, 1, 0, 0)])


def _b_ac5_a2():
    return SphericalSystem(_diag("E7"), {1, 4, 6}, [
        (1, 0, 1, 0, 0, 0, 0), (0, 1, 0, 2, 1, 0, 0),
        (0, 0, 0, 0, 1, 2, 1)])


def _b_f4():
    return SphericalSystem(_diag("F4"), {0, 1, 2}, [(1, 2, 3, 2)])


def _b_fa():
    return SphericalSystem(_diag("F4"), (), [(1, 0, 0, 1), (0, 1, 1, 0)])


def _b_fd4():
    return SphericalSystem(_diag("F4"), {1}, [(1, 1, 1, 0), (0, 1, 2, 1)])


def _b_ao2_a2():
    return SphericalSystem(_diag("F4"), (), [
        (1, 1, 0, 0), (0, 0, 2, 0), (0, 0, 0, 2)])


def _b_fcstar():
    return SphericalSystem(_diag("F4"), (), _pairs_row(4, 0, 3))


def _b_g(coeff):
    return SphericalSystem(_diag("G2"), {1}, [(2 * coeff, coeff)])


def _b_gstar():
    return SphericalSystem(_diag("G2"), (), [(1, 1)])


# -- the table ----------------------------------------------------------------

class Family(NamedTuple):
    """A catalog entry: generic name, builder, parameter space."""

    name: str
    build: Callable
    space: Callable

    @property
    def display(self) -> str:
        # the name with each parameter in braces: "aa({p}+{q}+{p})"
        return re.sub(r"\b(n[12]?|p|q)\b", r"{\1}", self.name)

    def label(self, params) -> str:
        return self.display.format(**params)


def _single(fam, minrank, step=1):
    def space(d):
        if len(d.components) == 1 and d.components[0][0] == fam:
            n = d.components[0][1]
            if n >= minrank and (n - minrank) % step == 0:
                yield {"n": n}
    return space


def _split(fam, pmin, qmin, shift=0, peven=False):
    # parameters p, q on a single chain with p + q - shift == rank
    def space(d):
        if len(d.components) != 1 or d.components[0][0] != fam:
            return
        n = d.components[0][1]
        for p in range(pmin, n + shift - qmin + 1):
            if peven and p % 2:
                continue
            yield {"p": p, "q": n + shift - p}
    return space


def _pair_space(fam, minrank):
    def space(d):
        c = d.components
        if (len(c) == 2 and c[0] == c[1]
                and c[0][0] == fam and c[0][1] >= minrank):
            yield {"p": c[0][1]}
    return space


def _fixed(spec):
    def space(d):
        if d == _diag(spec):
            yield {}
    return space


def _chain_param(fam, key, of_rank, ok):
    # one parameter derived from the rank of a single chain
    def space(d):
        if len(d.components) == 1 and d.components[0][0] == fam:
            n = d.components[0][1]
            if ok(n):
                yield {key: of_rank(n)}
    return space


def _space_aa_pqp(d):
    if len(d.components) == 1 and d.components[0][0] == "A":
        n = d.components[0][1]
        for p in range(1, (n - 2) // 2 + 1):
            yield {"p": p, "q": n - 2 * p}


def _space_aa11_cstar(d):
    c = d.components
    if len(c) == 2 and c[0] == ("A", 1):
        fam, r = c[1]
        if (fam == "C" and r >= 3) or (fam, r) == ("B", 2):
            yield {"n": r}


def _space_aa11_cstar2(d):
    if len(d.components) != 2:
        return
    ranks = []
    for fam, r in d.components:
        if (fam == "C" and r >= 3) or (fam, r) == ("B", 2):
            ranks.append(r)
        else:
            return
    n1, n2 = sorted(ranks)
    yield {"n1": n1, "n2": n2}


CATALOG = (
    Family("aa(p,p)", lambda p: _b_group_pair("A", p), _pair_space("A", 1)),
    Family("ao(n)", lambda n: _b_all_doubled("A", n), _single("A", 1)),
    Family("ac(n)", _b_ac, _single("A", 3, step=2)),
    Family("aa(p+q+p)", _b_aa_pqp, _space_aa_pqp),
    Family("aa'(p+1+p)", _b_aa_p1p,
           _chain_param("A", "p", lambda n: (n - 1) // 2,
                        lambda n: n >= 3 and n % 2 == 1)),
    Family("a(n)", _b_a, _single("A", 2)),
    Family("ac*(n)", _b_acstar, _single("A", 3)),

    Family("bb(p,p)", lambda p: _b_group_pair("B", p), _pair_space("B", 2)),
    Family("bo(p+q)", _b_bo, _split("B", 1, 1)),
    Family("b(n)", _b_b, _single("B", 2)),
    Family("b'(n)", lambda n: _b_b(n, coeff=2), _single("B", 2)),
    Family("b*(n)", _b_bstar, _single("B", 2)),
    Family("bc*(n)", _b_bcstar, _single("B", 3)),
    Family("bc'(n)", _b_bcprime, _single("B", 2)),
    Family("a(p)+b(q)", _b_a_b, _split("B", 2, 2)),
    Family("a(p)+b'(q)", lambda p, q: _b_a_b(p, q, coeff=2),
           _split("B", 2, 1)),
    Family("ac*(p)+b(q)", lambda p, q: _b_a_b(p, q, head_pairs=True),
           _split("B", 2, 2)),
    Family("ac*(p)+b'(q)",
           lambda p, q: _b_a_b(p, q, head_pairs=True, coeff=2),
           _split("B", 2, 1)),
    Family("b**(3)", _b_bss, _fixed("B3")),
    Family("b*(4)+b**(3)", _b_bstar4_bss3, _fixed("B4")),

    Family("cc(p,p)", lambda p: _b_group_pair("C", p), _pair_space("C", 3)),
    Family("co(n)", lambda n: _b_all_doubled("C", n), _single("C", 3)),
    Family("c(n)", _b_c, _single("C", 3)),
    Family("cc(p+q)", _b_cc_pq, _split("C", 2, 2, peven=True)),
    Family("cc'(p+2)", _b_ccprime,
           _chain_param("C", "p", lambda n: n - 2,
                        lambda n: n >= 4 and n % 2 == 0)),
    Family("c*(n)", _b_cstar, _single("C", 3)),
    Family("ca(1+q+1)", _b_ca,
           _chain_param("C", "q", lambda n: n - 2, lambda n: n >= 4)),
    Family("aa(1+p+1)+c*(q)", _b_aa1p1_cstar,
           _split("C", 2, 2, shift=-1)),
    Family("aa(1,1)+c*(n)", _b_aa11_cstar, _space_aa11_cstar),
    Family("aa(1,1)+c*(n1)+c*(n2)", _b_aa11_cstar_cstar, _space_aa11_cstar2),
    Family("ac*(p)+c*(q)", _b_acstar_cstar, _split("C", 2, 2, shift=1)),
    Family("a'(1)+c*(q)", _b_aprime_cstar,
           _chain_param("C", "q", lambda n: n, lambda n: n >= 3)),

    Family("dd(p,p)", lambda p: _b_group_pair("D", p), _pair_space("D", 4)),
    Family("do(p+q)", _b_do_pq, _split("D", 1, 2)),
    Family("do(n)", lambda n: _b_all_doubled("D", n), _single("D", 4)),
    Family("d(n)", _b_d, _single("D", 4)),
    Family("dc'(n)", _b_dcprime, _single("D", 6, step=2)),
    Family("dc(n)", _b_dc, _single("D", 5, step=2)),
    Family("ds(n)", _b_ds, _single("D", 4)),
    Family("ds*(4)", _b_dsstar, _fixed("D4")),
    Family("dc*(n)", _b_dcstar, _single("D", 4)),
    Family("a(p)+d(q)", _b_a_d, _split("D", 2, 2)),
    Family("ac*(p)+d(q)", lambda p, q: _b_a_d(p, q, head_pairs=True),
           _split("D", 2, 2)),

    Family("ee(p,p)", lambda p: _b_group_pair("E", p), _pair_space("E", 6)),
    Family("eo(n)", lambda n: _b_all_doubled("E", n), _single("E", 6)),
    Family("ea(6)", _b_ea6, _fixed("E6")),
    Family("ed(6)", _b_ed6, _fixed("E6")),
    Family("ef(6)", lambda: _b_ef(6), _fixed("E6")),
    Family("ec(7)", _b_ec7, _fixed("E7")),
    Family("ef(n)", _b_ef, _single("E", 7)),
    Family("ec*(n)", _b_ecstar, _single("E", 6)),
    Family("ef(6)+a(2)", _b_ef6_a2, _fixed("E8")),
    Family("aa(2,2)+a(2)", _b_aa22_a2, _fixed("E6")),
    Family("ac(5)+a(2)", _b_ac5_a2, _fixed("E7")),

    Family("ff(4,4)", lambda: _b_group_pair("F", 4), _fixed("F4,F4")),
    Family("fo(4)", lambda: _b_all_doubled("F", 4), _fixed("F4")),
    Family("f(4)", _b_f4, _fixed("F4")),
    Family("fa(1+2+1)", _b_fa, _fixed("F4")),
    Family("fd(4)", _b_fd4, _fixed("F4")),
    Family("ao(2)+a(2)", _b_ao2_a2, _fixed("F4")),
    Family("fc*(4)", _b_fcstar, _fixed("F4")),

    Family("gg(2,2)", lambda: _b_group_pair("G", 2), _fixed("G2,G2")),
    Family("go(2)", lambda: _b_all_doubled("G", 2), _fixed("G2")),
    Family("g(2)", lambda: _b_g(1), _fixed("G2")),
    Family("g'(2)", lambda: _b_g(2), _fixed("G2")),
    Family("g*(2)", _b_gstar, _fixed("G2")),
)

_BY_NAME = {f.name: f for f in CATALOG}


def family_names() -> tuple:
    return tuple(f.name for f in CATALOG)


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


@functools.lru_cache(maxsize=None)
def _index(d: Diagram) -> MappingProxyType:
    index = {}
    for fam in CATALOG:
        for params in fam.space(d):
            sys = fam.build(**params)
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
