"""Spherical systems: a parabolic node set plus a set of spherical roots.

A system is a triple (diagram, sp, sigma) where sp is a set of nodes and
sigma a sequence of weights.  Validation checks the two pairwise axioms on
sigma, rank-one realizability of every root against the table in
sphsys.rankone, that no root is simple, that roots are distinct, and linear
independence.  Only rank-one realizability reads sp, so the rest is decided
once per root tuple; pairwise_faults also fills the search's pair matrix.

The axioms single out three root shapes: a simple root alpha_i, a doubled
root 2*alpha_i and an orthogonal pair alpha_i + alpha_j.  simple_node,
doubled_node and orthogonal_pair recognise them for the whole package.

Everything the axioms ask of a single root (its support, its pairing with
each node, its admissible traces and its shape) is a RootFacts record,
read through root_facts from a per-diagram table, so validate, the colour
pairing and the search compute it once per root rather than once per
system.
"""

from __future__ import annotations

import json
import operator
from functools import lru_cache
from typing import NamedTuple

from sphsys import rankone
from sphsys.dynkin import Diagram, parse_diagram, support
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


@lru_cache(maxsize=None)
def _root_table(d: Diagram) -> dict:
    """The RootFacts of the realizable weights looked up so far on d."""
    return {}


def root_facts(d: Diagram, g) -> RootFacts:
    """The RootFacts of weight g on d, from the diagram's table."""
    g = tuple(g)
    table = _root_table(d)
    facts = table.get(g)
    if facts is None:
        supp = support(g)
        pairings = tuple(sum(row[j] * g[j] for j in supp) for row in d.cartan)
        facts = RootFacts(
            supp, pairings,
            frozenset(i for i, v in enumerate(pairings)
                      if v and i not in supp),
            rankone.admissible_traces(d, g),
            simple_node(g), doubled_node(g), orthogonal_pair(d, g))
        # stray weights (no admissible trace) stay out, so the table holds
        # at most the candidate roots
        if facts.traces:
            table[g] = facts
    return facts


def pairwise_faults(sigma, roots):
    """The pairwise axioms on sigma, whose RootFacts are roots, as raw fault
    records: a root other than 2*alpha_i pairs with alpha_i to an even
    nonpositive integer, and i and j pair equally with every root when
    alpha_i + alpha_j is an orthogonal pair root.  Yields ("doubled", i, g,
    pairing) and then ("orthogonal", (i, j), h, (pairing_i, pairing_j)), in
    report order."""
    for i in sorted({f.doubled for f in roots} - {None}):
        for g, f in zip(sigma, roots):
            if f.doubled == i:
                continue
            v = f.pairings[i]
            if v % 2 or v > 0:
                yield "doubled", i, g, v
    for f in roots:
        if f.pair is not None:
            i, j = f.pair
            for h, fh in zip(sigma, roots):
                vi, vj = fh.pairings[i], fh.pairings[j]
                if vi != vj:
                    yield "orthogonal", f.pair, h, (vi, vj)


@lru_cache(maxsize=1)
def _sigma_checks(d: Diagram, sigma: tuple) -> tuple:
    """What validate asks of sigma alone, as immutable raw records: its
    RootFacts, the (first, k) positions of each repeated root, the
    positions of the simple roots, the pairwise_faults records, and linear
    dependence.  The search validates one root tuple under each of its
    parabolic sets in a row, so a memo of the last tuple keeps every
    hit."""
    roots = tuple(root_facts(d, g) for g in sigma)
    repeats = tuple((sigma.index(g), k) for k, g in enumerate(sigma)
                    if sigma.index(g) < k)
    simple = tuple(k for k, f in enumerate(roots) if f.simple is not None)
    return (roots, repeats, simple, tuple(pairwise_faults(sigma, roots)),
            rank(sigma) < len(sigma))


def _listed(value, message) -> list:
    """value as a list; ValueError naming it when it is no list."""
    if isinstance(value, (str, dict)) or not hasattr(value, "__iter__"):
        raise ValueError(f"{message}, not {value!r}")
    return list(value)


class Colour:
    """An equivalence class of active simple roots.

    doubled means twice the representative is itself a spherical root; its
    functional then takes half pairings.
    """
    __slots__ = ("nodes", "doubled")

    def __init__(self, nodes: frozenset, doubled: bool):
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "doubled", doubled)

    def __setattr__(self, name, value):
        raise AttributeError("Colour is immutable")

    def __delattr__(self, name):
        raise AttributeError("Colour is immutable")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.nodes, self.doubled) == (other.nodes, other.doubled)

    def __hash__(self):
        return hash((self.nodes, self.doubled))

    def __repr__(self):
        return f"Colour(nodes={self.nodes!r}, doubled={self.doubled!r})"

    def __reduce__(self):   # copy and pickle rebuild through __init__
        return Colour, (self.nodes, self.doubled)


class ValidationReport:
    """The faults validate found, one list per axiom; ok when there are
    none."""
    _FIELDS = ("pairwise_doubled",      # axiom on 2*alpha roots
               "pairwise_orthogonal",   # axiom on alpha+beta roots
               "rank_one", "simple_roots", "duplicates", "dependent")
    __slots__ = _FIELDS
    __hash__ = None     # mutable, like the lists it holds

    def __init__(self, pairwise_doubled=None, pairwise_orthogonal=None,
                 rank_one=None, simple_roots=None, duplicates=None,
                 dependent=False):
        # a list left out is a fresh one, never shared between reports;
        # one assignment each, since validate builds a report per system
        self.pairwise_doubled = (
            [] if pairwise_doubled is None else pairwise_doubled)
        self.pairwise_orthogonal = (
            [] if pairwise_orthogonal is None else pairwise_orthogonal)
        self.rank_one = [] if rank_one is None else rank_one
        self.simple_roots = [] if simple_roots is None else simple_roots
        self.duplicates = [] if duplicates is None else duplicates
        self.dependent = dependent

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._FIELDS)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self):
        return "ValidationReport(" + ", ".join(
            f"{name}={value!r}"
            for name, value in zip(self._FIELDS, self._values())) + ")"

    @property
    def ok(self) -> bool:
        return not (self.pairwise_doubled or self.pairwise_orthogonal
                    or self.rank_one or self.simple_roots
                    or self.duplicates or self.dependent)

    def to_json(self) -> dict:
        return {"valid": self.ok, **dict(zip(self._FIELDS, self._values()))}


class SphericalSystem:
    __slots__ = ("diagram", "sp", "sigma", "_cache")

    def __init__(self, diagram, sp=(), sigma=()):
        diagram = parse_diagram(diagram)
        object.__setattr__(self, "diagram", diagram)
        spx = frozenset(diagram.node_index(a)
                        for a in _listed(sp, "sp must be a list of nodes"))
        object.__setattr__(self, "sp", spx)
        sig = []
        for w in _listed(sigma, "sigma must be a list of roots"):
            if isinstance(w, dict):
                t = [0] * diagram.n_nodes
                for nd, c in w.items():
                    t[diagram.node_index(nd)] = c
            else:
                t = _listed(w, "a root must be a list of coefficients or an "
                               "object of node: coefficient")
                if len(t) != diagram.n_nodes:
                    raise ValueError(
                        f"root {t} has {len(t)} coefficients, but "
                        f"{diagram.spec()} has {diagram.n_nodes} nodes")
            try:
                if bool in map(type, t):    # JSON true is no coefficient
                    raise TypeError
                sig.append(tuple(map(operator.index, t)))
            except TypeError:
                raise ValueError(f"root {w!r} has a coefficient that is not "
                                 "an integer") from None
            if not any(sig[-1]):
                raise ValueError(f"root {w!r} is zero")
        object.__setattr__(self, "sigma", tuple(sig))
        object.__setattr__(self, "_cache", {})

    @classmethod
    def _from_normal(cls, diagram, sp, sigma) -> "SphericalSystem":
        """A system from values already in normal form, stored unchecked:
        a Diagram, a frozenset of node indices, and a tuple of nonzero
        tuples of ints, each of length diagram.n_nodes.  For the library's
        own builders only; the constructor and from_json are the input
        boundary.  validate() still checks every axiom, since normal form
        speaks only of types and shapes, never of the axioms."""
        self = object.__new__(cls)
        object.__setattr__(self, "diagram", diagram)
        object.__setattr__(self, "sp", sp)
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "_cache", {})
        return self

    def __setattr__(self, name, value):
        raise AttributeError("SphericalSystem is immutable")

    def __reduce__(self):   # copy and pickle rebuild with an empty cache
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

    # -- validation ---------------------------------------------------------

    def validate(self) -> ValidationReport:
        """Full validation; the report is computed once and reused."""
        if "report" in self._cache:
            return self._cache["report"]
        d, sp, sigma = self.diagram, self.sp, self.sigma
        roots, repeats, simple, faults, dependent = _sigma_checks(d, sigma)
        doubled, orthogonal = [], []
        for kind, at, g, v in faults:
            if kind == "doubled":
                doubled.append({"alpha": d.node_id(at), "gamma": list(g),
                                "pairing": v})
            else:
                orthogonal.append({"pair": [d.node_id(i) for i in at],
                                   "gamma": list(g), "pairings": list(v)})
        rank_one = []
        for g, f in zip(sigma, roots):
            trace = sp & f.support
            if trace not in f.traces:
                rank_one.append(
                    {"gamma": list(g), "reason": "trace",
                     "actual_trace": sorted(d.node_id(i) for i in trace),
                     "admissible_traces": [sorted(d.node_id(i) for i in t)
                                           for t in sorted(f.traces,
                                                           key=sorted)]})
            elif sp & f.paired:
                rank_one.append(
                    {"gamma": list(g), "reason": "parabolic-pairing",
                     "nodes": [d.node_id(i) for i in sp - f.support
                               if f.pairings[i]]})
        rep = ValidationReport(
            doubled, orthogonal, rank_one,
            [{"gamma": list(sigma[k])} for k in simple],
            [{"gamma": list(sigma[k]), "positions": [first, k]}
             for first, k in repeats], dependent)
        self._cache["report"] = rep
        return rep

    @property
    def is_valid(self) -> bool:
        return self.validate().ok

    # -- colours ------------------------------------------------------------

    @property
    def colours(self) -> tuple[Colour, ...]:
        if "colours" not in self._cache:
            d = self.diagram
            roots = [root_facts(d, g) for g in self.sigma]
            doubled = {f.doubled for f in roots}
            # the class of each active node; alpha_i + alpha_j joins two
            cls = {i: {i} for i in range(d.n_nodes) if i not in self.sp}
            for f in roots:
                if f.pair is not None:
                    i, j = f.pair
                    if i in cls and j in cls and cls[i] is not cls[j]:
                        joined = cls[i] | cls[j]
                        for k in joined:
                            cls[k] = joined
            self._cache["colours"] = tuple(
                Colour(frozenset(c), i in doubled)
                for i, c in cls.items() if min(c) == i)
        return self._cache["colours"]

    def rho(self, colour: Colour, gamma) -> int:
        """Value of the colour's functional on a weight.

        Raises ValueError when it is not one integer: colour members pairing
        unequally, or a doubled colour pairing oddly (only on systems that
        break a pairwise axiom)."""
        pairings = root_facts(self.diagram, gamma).pairings
        v = pairings[min(colour.nodes)]
        if (colour.doubled and v % 2) or any(pairings[a] != v
                                             for a in colour.nodes):
            d = self.diagram
            nodes = ", ".join(d.node_id(i) for i in sorted(colour.nodes))
            raise ValueError(f"colour {{{nodes}}} does not pair to one "
                             f"integer with root {list(gamma)}")
        return v // 2 if colour.doubled else v

    @property
    def rho_matrix(self) -> tuple[tuple[int, ...], ...]:
        """Rows per colour (in colour order), columns per spherical root."""
        if "rho" not in self._cache:
            d = self.diagram
            # per node, its pairings with the roots: one lookup per root
            by_node = tuple(zip(*(root_facts(d, g).pairings
                                  for g in self.sigma))) or ((),) * d.n_nodes
            rows = []
            for c in self.colours:
                row = by_node[min(c.nodes)]
                if (any(by_node[a] != row for a in c.nodes)
                        or c.doubled and any(v % 2 for v in row)):
                    for g in self.sigma:
                        self.rho(c, g)    # raises, naming the first bad root
                rows.append(tuple(v // 2 for v in row) if c.doubled else row)
            self._cache["rho"] = tuple(rows)
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
            self._cache["rays"] = extreme_ray_supports(zip(*rho), len(rho))
        return self._cache["rays"]

    # -- derived predicates ---------------------------------------------------

    @property
    def sigma_support(self) -> frozenset:
        out = frozenset()
        for g in self.sigma:
            out |= support(g)
        return out

    @property
    def is_cuspidal(self) -> bool:
        return self.sigma_support == frozenset(range(self.diagram.n_nodes))

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
            self._cache["canon"] = min(
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
