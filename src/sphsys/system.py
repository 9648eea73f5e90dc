"""Spherical systems: a parabolic node set plus a set of spherical roots.

A system is a triple (diagram, sp, sigma) where sp is a set of nodes and
sigma a sequence of weights.  Validation checks the two pairwise axioms on
sigma, rank-one realizability of every root against the table in
sphsys.rankone, that no root is simple, that roots are distinct, and linear
independence.  The checks come in two layers of raw fault records:
sigma_faults decides what reads sigma alone, once per root set, and
rank_one_faults the rank-one axiom, the only one that reads sp, and that
only on the roots' supports and paired nodes, so the search's final gate
asks it once per trace assignment.  validation_report formats the records
of both; the gate reads them raw, and pairwise_faults fills its pair matrix.
A root set without faults, the common case in the search, costs sigma_faults
one pass of int ORs over its roots and no record: the doubled bits meet no
unfit mask, the pair bits no unequal mask, no root is simple and the
support masks are nonempty and pairwise disjoint, which skips the repeat
scan and the rank.  rank_one_faults reads sp as one bitmask against each
root's support, paired and trace masks.

The axioms single out three root shapes: a simple root alpha_i, a doubled
root 2*alpha_i and an orthogonal pair alpha_i + alpha_j.  simple_node,
doubled_node and orthogonal_pair recognise them for the whole package.

Everything the axioms ask of a single root (its support, its pairing with
each node, its admissible traces, its shape and the nodes on which it
breaks the doubled-root axiom) is a RootFacts record, which also holds
these as bitmasks.  It is read through root_facts from a per-diagram
table, so validate, the colour pairing and the search compute it once per
root rather than once per system.

A colour of one node is shared: every system on a diagram takes it from
the diagram's table _one_node_colours, so a system with no orthogonal pair
root builds no Colour, and rho_matrix takes such a colour's row, when it
is undoubled, straight from the node's pairings.

A SphericalSystem keeps what it computes in a memo created on the first
value it keeps; a system built and never asked, as most that the search
returns are, shares one read-only empty memo with all the others.
"""

from __future__ import annotations

import json
import operator
from functools import reduce
from types import MappingProxyType
from typing import NamedTuple

from sphsys import rankone
from sphsys.dynkin import Diagram, parse_diagram, per_diagram, support
from sphsys.feasible import extreme_ray_supports, rank


def _lone_node(w, coefficient):
    supp = [i for i, c in enumerate(w) if c]
    if len(supp) == 1 and w[supp[0]] == coefficient:
        return supp[0]
    return None


def simple_node(w):
    """i when w is the simple root alpha_i, else None."""
    return _lone_node(w, 1)


def doubled_node(w):
    """i when w is the doubled root 2*alpha_i, else None."""
    return _lone_node(w, 2)


def orthogonal_pair(d: Diagram, w):
    """(i, j), i < j, when w is alpha_i + alpha_j for orthogonal nodes,
    else None."""
    supp = [i for i, c in enumerate(w) if c]
    if (len(supp) == 2 and w[supp[0]] == 1 and w[supp[1]] == 1
            and d.orthogonal(*supp)):
        return tuple(supp)
    return None


class RootFacts(NamedTuple):
    """What the axioms ask of one weight g on a diagram."""
    support: frozenset
    pairings: tuple      # <alpha_i^vee, g> for every node i
    paired: frozenset    # nodes off the support that pair nonzero with g
    traces: frozenset    # rankone.admissible_traces(d, g)
    simple: int | None   # simple_node(g)
    doubled: int | None  # doubled_node(g)
    pair: tuple | None   # orthogonal_pair(d, g)
    # nodes i other than `doubled` with an odd or positive pairing: g breaks
    # the doubled-root axiom with a root 2*alpha_i exactly on these
    odd_or_positive: frozenset
    # the same as bitmasks (bit i for node i, or the bit of an orthogonal
    # node pair from _node_table), for the gate's screens
    doubled_bit: int     # 1 << doubled, or 0 when doubled is None
    unfit_mask: int      # odd_or_positive
    support_mask: int    # support
    simple_bit: int      # 1 << simple, or 0 when simple is None
    pair_bit: int        # the bit of pair, or 0 when pair is None
    unequal_mask: int    # the orthogonal node pairs g pairs unequally with
    paired_mask: int     # paired
    trace_masks: frozenset   # traces, each as a bitmask


def _mask(nodes) -> int:
    """The bitmask of a node set, bit i for node i."""
    return sum(map((1).__lshift__, nodes))


@per_diagram
def _node_table(d: Diagram) -> tuple:
    """(columns, stars) of d: columns[j] lists the (i, cartan[i][j]) that
    are nonzero, and stars[i] is the mask of the orthogonal node pairs that
    hold node i, one bit per orthogonal pair of d, so pair (i, j) has the
    one bit that stars[i] and stars[j] share."""
    n = d.n_nodes
    columns = tuple(tuple((i, row[j]) for i, row in enumerate(d.cartan)
                          if row[j]) for j in range(n))
    stars = [0] * n
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)
             if d.orthogonal(i, j)]
    for b, (i, j) in enumerate(pairs):
        stars[i] |= 1 << b
        stars[j] |= 1 << b
    return columns, tuple(stars)


@per_diagram
def _root_table(d: Diagram) -> dict:
    """The RootFacts of the weights looked up on d since d last entered
    the per_diagram cache."""
    return {}


def root_facts(d: Diagram, g) -> RootFacts:
    """The RootFacts of weight g on d, from the diagram's table."""
    g = tuple(g)
    table = _root_table(d)
    facts = table.get(g)
    if facts is None:
        columns, stars = _node_table(d)
        supp = support(g)
        # only the support's columns of the Cartan matrix, and in each only
        # its nonzero entries, add to a pairing
        sums = [0] * d.n_nodes
        for j in supp:
            for i, a in columns[j]:
                sums[i] += a * g[j]
        pairings = tuple(sums)
        simple, doubled = simple_node(g), doubled_node(g)
        pair = orthogonal_pair(d, g)
        unfit = frozenset(i for i, v in enumerate(pairings)
                          if (v % 2 or v > 0) and i != doubled)
        paired = frozenset(i for i, v in enumerate(pairings)
                           if v and i not in supp)
        traces = rankone.admissible_traces(d, g)
        # Exact: the stars of the nodes sharing one pairing XOR to the pairs
        # with just one node among them, and a pair that g pairs unequally
        # is such a pair for each of its two pairings, one of them nonzero
        leaving = {}
        for i, v in enumerate(pairings):
            if v:
                leaving[v] = leaving.get(v, 0) ^ stars[i]
        facts = RootFacts(
            supp, pairings, paired, traces, simple, doubled, pair, unfit,
            0 if doubled is None else 1 << doubled, _mask(unfit),
            _mask(supp), 0 if simple is None else 1 << simple,
            0 if pair is None else stars[pair[0]] & stars[pair[1]],
            reduce(operator.or_, leaving.values(), 0),
            _mask(paired), frozenset(map(_mask, traces)))
        # stray weights (no admissible trace) stay out, so the table holds
        # at most the candidate roots
        if traces:
            table[g] = facts
    return facts


def _sigma_facts(d: Diagram, sigma) -> list:
    """The RootFacts of each root of sigma, a tuple of tuples, with one
    lookup of the diagram's table for them all."""
    table = _root_table(d)
    return [table.get(g) or root_facts(d, g) for g in sigma]


def pairwise_faults(sigma, roots):
    """The pairwise axioms on sigma, whose RootFacts are roots, as raw fault
    records: a root other than 2*alpha_i pairs with alpha_i to an even
    nonpositive integer, and i and j pair equally with every root when
    alpha_i + alpha_j is an orthogonal pair root.  Yields ("doubled", i, g,
    pairing) and then ("orthogonal", (i, j), h, (pairing_i, pairing_j)), in
    report order.  Without a fault, the doubled-root axiom costs two ORs
    of bitmasks and an AND, and the orthogonal one a pairing comparison
    per root and pair root; only a fault looks up its weight."""
    doubled = unfit = 0
    for f in roots:
        doubled |= f.doubled_bit
        unfit |= f.unfit_mask
    # a doubled node that no root pairs with oddly or positively has no
    # record; the lowest bit first, so the nodes come in sorted order
    met = doubled & unfit
    while met:
        i = (met & -met).bit_length() - 1
        met &= met - 1
        for k, f in enumerate(roots):
            if i in f.odd_or_positive:
                yield "doubled", i, sigma[k], f.pairings[i]
    for f in roots:
        if f.pair is not None:
            i, j = f.pair
            for k, fh in enumerate(roots):
                p = fh.pairings
                if p[i] != p[j]:
                    yield "orthogonal", f.pair, sigma[k], (p[i], p[j])


def sigma_faults(sigma, roots) -> list:
    """What the axioms ask of sigma alone, whose RootFacts are roots, as raw
    fault records in report order: the pairwise_faults records, then
    ("simple", k) for each simple root sigma[k], ("repeated", first, k) for
    each root sigma[k] listed before at sigma[first], and ("dependent",)
    when sigma is linearly dependent.  The parabolic set plays no part, so
    the search asks this once per root set.  One pass over the roots ORs
    their masks, and each kind of record is built only when its screen
    fires."""
    doubled = unfit = pairs = unequal = simple = covered = 0
    disjoint = True
    for f in roots:
        doubled |= f.doubled_bit
        unfit |= f.unfit_mask
        pairs |= f.pair_bit
        unequal |= f.unequal_mask
        simple |= f.simple_bit
        if not f.support_mask or covered & f.support_mask:
            disjoint = False
        covered |= f.support_mask
    # Exact: a record of the doubled-root axiom names a doubled node that a
    # root pairs with oddly or positively, one of the orthogonal axiom an
    # orthogonal pair root's pair on which a root pairs unequally.
    faults = (list(pairwise_faults(sigma, roots))
              if doubled & unfit or pairs & unequal else [])
    if simple:
        faults += [("simple", k) for k, f in enumerate(roots)
                   if f.simple is not None]
    # Exact: nonzero roots on pairwise disjoint supports are distinct and
    # independent, since on one root's support every other root is zero.
    if disjoint:
        return faults
    # the quadratic scan only when some root is listed twice
    if len(set(sigma)) < len(sigma):
        faults += [("repeated", sigma.index(g), k)
                   for k, g in enumerate(sigma) if sigma.index(g) < k]
    if rank(sigma) < len(sigma):
        faults.append(("dependent",))
    return faults


def rank_one_faults(sp, sigma, roots):
    """The rank-one axiom on the system (sp, sigma), whose RootFacts are
    roots, as raw fault records in report order: ("trace", k, trace) when
    sp meets the support of sigma[k] in no admissible trace, else
    ("parabolic-pairing", k, nodes) when the nodes of sp off that support
    pair nonzero with sigma[k].  The tests read sp as a bitmask, and a
    record is built only on a fault.  The search asks only whether it
    yields anything."""
    sp_mask = _mask(sp)
    for k, f in enumerate(roots):
        if sp_mask & f.support_mask not in f.trace_masks:
            yield "trace", k, sp & f.support
        elif sp_mask & f.paired_mask:
            yield ("parabolic-pairing", k,
                   [i for i in sp - f.support if f.pairings[i]])


def _listed(value, message) -> list:
    """value as a list; ValueError naming it when it is no list."""
    if isinstance(value, (str, dict)) or not hasattr(value, "__iter__"):
        raise ValueError(f"{message}, not {value!r}")
    return list(value)


def _coefficients(diagram, t, shown, noun="root") -> tuple:
    """The list t as a tuple of ints, one per node of the diagram; ValueError
    naming `shown` when the length is wrong or an entry is no integer."""
    if len(t) != diagram.n_nodes:
        raise ValueError(f"{noun} {t} has {len(t)} coefficients, but "
                         f"{diagram.spec()} has {diagram.n_nodes} nodes")
    try:
        if bool in map(type, t):    # JSON true is no coefficient
            raise TypeError
        return tuple(map(operator.index, t))
    except TypeError:
        raise ValueError(f"{noun} {shown!r} has a coefficient that is not "
                         "an integer") from None


def _same_kind_eq(self, other):
    # a record equals only a record of its own kind, never a bare tuple
    return other.__class__ is self.__class__ and tuple.__eq__(self, other)


def _same_kind_ne(self, other):
    return not _same_kind_eq(self, other)


class Colour(NamedTuple):
    """An equivalence class of active simple roots.

    doubled means twice the representative is itself a spherical root; its
    functional then takes half pairings.
    """
    nodes: frozenset
    doubled: bool

    __eq__, __ne__ = _same_kind_eq, _same_kind_ne
    __hash__ = tuple.__hash__


@per_diagram
def _one_node_colours(d: Diagram) -> tuple:
    """Per node i of d, the one-node colours (Colour({i}, False),
    Colour({i}, True)), indexed by doubled: every system on d shares them."""
    return tuple((Colour(frozenset((i,)), False),
                  Colour(frozenset((i,)), True)) for i in range(d.n_nodes))


class _Faults(NamedTuple):
    pairwise_doubled: list      # axiom on 2*alpha roots
    pairwise_orthogonal: list   # axiom on alpha+beta roots
    rank_one: list
    simple_roots: list
    duplicates: list
    dependent: bool


class ValidationReport(_Faults):
    """The faults validate found, one list per axiom; ok when there are
    none.  Unhashable, like the lists it holds."""
    __slots__ = ()      # no instance dict beside the tuple

    def __new__(cls, pairwise_doubled=None, pairwise_orthogonal=None,
                rank_one=None, simple_roots=None, duplicates=None,
                dependent=False):
        # a list left out is a fresh one, never shared between reports
        lists = (pairwise_doubled, pairwise_orthogonal, rank_one,
                 simple_roots, duplicates)
        return super().__new__(cls, *([] if v is None else v for v in lists),
                               dependent)

    __eq__, __ne__ = _same_kind_eq, _same_kind_ne

    @property
    def ok(self) -> bool:
        return not any(self)

    def to_json(self) -> dict:
        return {"valid": self.ok, **self._asdict()}


def validation_report(d: Diagram, sp: frozenset,
                      sigma: tuple) -> ValidationReport:
    """A fresh ValidationReport of the system (d, sp, sigma), given in the
    normal form of SphericalSystem._from_normal: the records of
    sigma_faults and rank_one_faults, formatted.  SphericalSystem.validate
    caches it per system; the search reads the raw records instead."""
    roots = tuple(_sigma_facts(d, sigma))
    report = ValidationReport()
    for fault in sigma_faults(sigma, roots):
        kind = fault[0]
        if kind == "doubled":
            _, i, g, v = fault
            report.pairwise_doubled.append(
                {"alpha": d.node_id(i), "gamma": list(g), "pairing": v})
        elif kind == "orthogonal":
            _, pair, g, v = fault
            report.pairwise_orthogonal.append(
                {"pair": [d.node_id(i) for i in pair], "gamma": list(g),
                 "pairings": list(v)})
        elif kind == "simple":
            report.simple_roots.append({"gamma": list(sigma[fault[1]])})
        elif kind == "repeated":
            _, first, k = fault
            report.duplicates.append(
                {"gamma": list(sigma[k]), "positions": [first, k]})
        else:
            report = report._replace(dependent=True)
    for reason, k, at in rank_one_faults(sp, sigma, roots):
        entry = {"gamma": list(sigma[k]), "reason": reason}
        if reason == "trace":
            entry["actual_trace"] = sorted(d.node_id(i) for i in at)
            entry["admissible_traces"] = [
                sorted(d.node_id(i) for i in t)
                for t in sorted(roots[k].traces, key=sorted)]
        else:
            entry["nodes"] = [d.node_id(i) for i in at]
        report.rank_one.append(entry)
    return report


# The memo of every system that has kept no value yet: one shared read-only
# empty mapping, so a system built and never asked carries no dict of its
# own.  SphericalSystem._memo swaps in a dict on the first value it keeps.
_NO_MEMO = MappingProxyType({})


class SphericalSystem:
    __slots__ = ("diagram", "sp", "sigma", "_cache")

    def __init__(self, diagram, sp=(), sigma=()):
        diagram = parse_diagram(diagram)
        _set_diagram(self, diagram)
        spx = frozenset(diagram.node_index(a)
                        for a in _listed(sp, "sp must be a list of nodes"))
        _set_sp(self, spx)
        sig = []
        for w in _listed(sigma, "sigma must be a list of roots"):
            if isinstance(w, dict):
                t = [0] * diagram.n_nodes
                for nd, c in w.items():
                    t[diagram.node_index(nd)] = c
            else:
                t = _listed(w, "a root must be a list of coefficients or an "
                               "object of node: coefficient")
            sig.append(_coefficients(diagram, t, w))
            if not any(sig[-1]):
                raise ValueError(f"root {w!r} is zero")
        _set_sigma(self, tuple(sig))
        _set_cache(self, _NO_MEMO)

    @classmethod
    def _from_normal(cls, diagram, sp, sigma) -> "SphericalSystem":
        """A system from values already in normal form, stored unchecked:
        a Diagram, a frozenset of node indices, and a tuple of nonzero
        tuples of ints, each of length diagram.n_nodes.  For the library's
        own builders only; the constructor and from_json are the input
        boundary.  validate() still checks every axiom, since normal form
        speaks only of types and shapes, never of the axioms."""
        self = object.__new__(cls)
        _set_diagram(self, diagram)
        _set_sp(self, sp)
        _set_sigma(self, sigma)
        _set_cache(self, _NO_MEMO)
        return self

    def __setattr__(self, name, value):
        raise AttributeError("SphericalSystem is immutable")

    def __reduce__(self):   # copy and pickle rebuild with no memo
        return SphericalSystem._from_normal, (self.diagram, self.sp,
                                              self.sigma)

    def __eq__(self, other):
        return (isinstance(other, SphericalSystem)
                and self.diagram == other.diagram
                and self.sp == other.sp
                and sorted(self.sigma) == sorted(other.sigma))

    def __hash__(self):
        return hash((self.diagram, self.sp, tuple(sorted(self.sigma))))

    def __repr__(self):
        return (f"SphericalSystem({self.diagram.spec()!r}, "
                f"sp={sorted(self.sp)}, sigma={list(self.sigma)})")

    def _memo(self) -> dict:
        """The system's own memo, created on the first value it keeps."""
        if self._cache is _NO_MEMO:
            _set_cache(self, {})
        return self._cache

    # -- validation ---------------------------------------------------------

    def validate(self) -> ValidationReport:
        """validation_report of this system, built on the first call and
        returned again, the same object, on every later one."""
        if "report" not in self._cache:
            self._memo()["report"] = validation_report(
                self.diagram, self.sp, self.sigma)
        return self._cache["report"]

    @property
    def is_valid(self) -> bool:
        return self.validate().ok

    # -- colours ------------------------------------------------------------

    @property
    def colours(self) -> tuple[Colour, ...]:
        """One colour per class of active nodes, in the order of each
        class's least node; alpha_i + alpha_j in sigma joins the classes of
        i and j.  A one-node colour is the shared one of _one_node_colours."""
        if "colours" not in self._cache:
            d, sp = self.diagram, self.sp
            doubled = set()
            cls = {}        # the class of each node a pair root joins
            for f in _sigma_facts(d, self.sigma):
                doubled.add(f.doubled)
                if f.pair is not None:
                    i, j = f.pair
                    if i not in sp and j not in sp:
                        ci, cj = cls.get(i, {i}), cls.get(j, {j})
                        if ci is not cj:
                            joined = ci | cj
                            for k in joined:
                                cls[k] = joined
            one = _one_node_colours(d)
            self._memo()["colours"] = tuple([
                one[i][i in doubled] if i not in cls
                else Colour(frozenset(cls[i]), i in doubled)
                for i in range(d.n_nodes)
                if i not in sp and (i not in cls or min(cls[i]) == i)])
        return self._cache["colours"]

    @property
    def rho_matrix(self) -> tuple[tuple[int, ...], ...]:
        """Rows per colour (in colour order), columns per spherical root:
        the pairing of a node of the colour with the root, halved for a
        doubled colour.  ValueError names the first root on which the
        colour's nodes pair unequally, or a doubled colour oddly (only on
        systems that break a pairwise axiom)."""
        if "rho" not in self._cache:
            d = self.diagram
            # per node, its pairings with the roots: one lookup per root
            facts = _sigma_facts(d, self.sigma)
            by_node = (tuple(zip(*[f.pairings for f in facts]))
                       or ((),) * d.n_nodes)
            rows = []
            for c in self.colours:
                row = by_node[min(c.nodes)]
                # only a colour of two or more nodes needs the node scan
                if (len(c.nodes) > 1 and any(by_node[a] != row
                                             for a in c.nodes)
                        or c.doubled and any(v % 2 for v in row)):
                    bad = next(k for k, v in enumerate(row)
                               if c.doubled and v % 2
                               or any(by_node[a][k] != v for a in c.nodes))
                    nodes = ", ".join(d.node_id(i) for i in sorted(c.nodes))
                    raise ValueError(
                        f"colour {{{nodes}}} does not pair to one integer "
                        f"with root {list(self.sigma[bad])}")
                rows.append(tuple(v // 2 for v in row) if c.doubled else row)
            self._memo()["rho"] = tuple(rows)
        return self._cache["rho"]

    @property
    def distinguished_rays(self) -> tuple[int, ...]:
        """Supports of the extreme rays of the cone {phi >= 0 : <rho(phi),
        gamma> >= 0 for every spherical root gamma} of colour
        multiplicities, as bitmasks with bit c for colour c.  A colour
        subset is distinguished when it is the support of a point of the
        cone; ops.is_distinguished decides that from these rays."""
        if "rays" not in self._cache:
            rho = self.rho_matrix
            self._memo()["rays"] = extreme_ray_supports(zip(*rho), len(rho))
        return self._cache["rays"]

    @property
    def sign_masks(self) -> tuple[tuple[int, int], ...]:
        """Per spherical root, the bitmasks (bit c for colour c) of the
        colours pairing negatively and of those pairing positively with
        it: the sign tests of ops.is_distinguished read these."""
        if "signs" not in self._cache:
            k = len(self.sigma)
            neg, pos = [0] * k, [0] * k
            for c, row in enumerate(self.rho_matrix):
                for j, v in enumerate(row):
                    if v < 0:
                        neg[j] |= 1 << c
                    elif v > 0:
                        pos[j] |= 1 << c
            self._memo()["signs"] = tuple(zip(neg, pos))
        return self._cache["signs"]

    # -- derived predicates ---------------------------------------------------

    @property
    def sigma_support(self) -> frozenset:
        out = frozenset()
        for g in self.sigma:
            out |= support(g)
        return out

    @property
    def is_cuspidal(self) -> bool:
        # every node column of sigma has a nonzero entry; read column-wise,
        # since the primitive search asks this of every valid system it finds
        if not self.sigma:
            return self.diagram.n_nodes == 0
        return all(map(any, zip(*self.sigma)))

    def root_label(self, gamma) -> str | None:
        """Rank-one row naming this root under the system's parabolic set."""
        trace = self.sp & support(gamma)
        return rankone.rank1_label(self.diagram, gamma, trace)

    def doubling_realizable(self, gamma) -> bool:
        """True when 2*gamma is itself realizable with the same trace."""
        two = tuple(2 * c for c in gamma)
        trace = frozenset(self.sp & support(gamma))
        return trace in rankone.admissible_traces(self.diagram, two)

    @property
    def is_strict(self) -> bool:
        return not any(self.doubling_realizable(g) for g in self.sigma)

    # -- transforms ----------------------------------------------------------

    def permuted(self, perm) -> "SphericalSystem":
        """The system moved by a permutation of the node indices (node i
        goes to perm[i]), such as one of Diagram.automorphisms.  Raises
        ValueError when perm is no such permutation."""
        d = self.diagram
        perm = tuple(perm)
        if (any(type(p) is not int for p in perm)
                or sorted(perm) != list(range(d.n_nodes))):
            raise ValueError(f"{list(perm)} is no permutation of the "
                             f"{d.n_nodes} nodes of {d.spec()}")
        return SphericalSystem._from_normal(
            d, frozenset(perm[i] for i in self.sp),
            tuple(d.permute_weight(perm, g) for g in self.sigma))

    def canonical_key(self):
        """Smallest (sp, sigma) over all diagram automorphisms."""
        if "canon" not in self._cache:
            d = self.diagram
            self._memo()["canon"] = min(
                (tuple(sorted(perm[i] for i in self.sp)),
                 tuple(sorted(d.permute_weight(perm, g) for g in self.sigma)))
                for perm in d.automorphisms)
        return self._cache["canon"]

    # -- serialization ---------------------------------------------------------

    def to_json(self) -> dict:
        d = self.diagram
        return {
            "diagram": d.to_json(),
            "sp": [d.node_id(i) for i in sorted(self.sp)],
            "sigma": [{d.node_id(i): c for i, c in enumerate(g) if c}
                      for g in self.sigma],
        }

    @classmethod
    def from_json(cls, data) -> "SphericalSystem":
        if isinstance(data, str):
            data = json.loads(data)
        if not isinstance(data, dict) or "diagram" not in data:
            raise ValueError('a system must be a JSON object with a '
                             '"diagram" key')
        d = Diagram.from_json(data["diagram"])
        return cls(d, data.get("sp", ()), data.get("sigma", ()))


# The slots' own setters, which pass by the refusing __setattr__.  The
# search builds tens of thousands of systems, and a slot setter takes about
# half the time of object.__setattr__ by name.
_set_diagram, _set_sp, _set_sigma, _set_cache = (
    getattr(SphericalSystem, name).__set__
    for name in SphericalSystem.__slots__)
