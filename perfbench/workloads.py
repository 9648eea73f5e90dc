"""The four benchmark workloads: their inputs, operations and output checks.

Each workload's constructor imports the library parts it calls and builds
its inputs from the seed; that is what ``setup_s`` times.  A
workload hands out one *pass* at a time: a fixed multiset of operations in
a seed-dependent order.  An operation is one call into the public API (or
one ``python -m sphsys.cli`` process on ``cli-mix``); ``check`` then tests
its result against facts the measured code did not produce: reference
counts and digests recorded in ``reference.json``, or invariants re-derived
here from the inputs.  ``check`` returns None or a one-line problem.
``in_process`` tells whether the work runs in this process (then the
harness rescales its CPU time, see ``speed.py``); ``clock`` reads the CPU
seconds of whatever process does the work.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import random
import resource
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Callable, NamedTuple

REFERENCE = Path(__file__).with_name("reference.json")
CLI_CHILD = Path(__file__).with_name("cli_child.py")

# the enumeration diagrams of the acceptance gate (tests/test_acceptance.py)
GATE_DIAGRAMS = (
    "A1", "A2", "A3", "A4", "B2", "B3", "B4", "C3", "C4", "D4", "F4", "G2",
    "A5", "B5", "C5", "D5",
    "A1,A1", "A1,A3", "B2,B2", "C3,C3", "G2,G2", "F4,F4",
)
SWEEP_DIAGRAMS = GATE_DIAGRAMS + (
    "A6", "B6", "C6", "D6", "E6", "A1,A5", "B3,B3", "A2,A2,A2", "G2,G2,G2")
ENUMERATE_DIAGRAMS = (
    "A1,A1,A1,A1,A1,A1,A1,A1", "A2,A2,A2,A2", "A1,A2,B2,G2", "G2,G2,G2")


class Op(NamedTuple):
    kind: str           # what the op is, for per-kind numbers
    key: Any            # the same op in every pass has the same key
    call: Callable[[], Any]


def children_cpu() -> float:
    """CPU seconds used so far by this process's finished children."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def system_key(sys_) -> str:
    """A system's parabolic set and roots in sorted order, as text."""
    return json.dumps([sorted(sys_.sp), sorted(list(g) for g in sys_.sigma)])


def systems_digest(systems) -> str:
    keys = sorted(system_key(s) for s in systems)
    return hashlib.sha256("\n".join(keys).encode()).hexdigest()


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text(encoding="utf-8"))


def _dominates(a, b) -> bool:
    return all(x <= y for x, y in zip(a, b))


def _pairings(rho, colours, x):
    """<rho(c), sum_j x_j gamma_j> for each colour c."""
    return [sum(r * v for r, v in zip(rho[c], x)) for c in colours]


# -- gate ---------------------------------------------------------------------

class Gate:
    """search.verify_catalog over the 22 acceptance-gate diagrams."""

    name = "gate"
    in_process = True
    clock = staticmethod(time.process_time)

    def __init__(self, seed, diagrams=GATE_DIAGRAMS, reference=None):
        from sphsys import families, rankone, search
        from sphsys.dynkin import parse_diagram
        self.search = search
        self.diagrams = [parse_diagram(d) for d in diagrams]
        for d in self.diagrams:         # per-diagram caches of the library
            rankone.rank1_embeddings(d)
            families.expand_catalog(d)
        self.rng = random.Random(seed)
        self.expected = (reference or load_reference())["gate"]

    def pass_ops(self):
        order = list(self.diagrams)
        self.rng.shuffle(order)
        search = self.search
        return [Op(d.spec(), d.spec(),
                   lambda d=d: search.verify_catalog(d)) for d in order]

    def check(self, op, result):
        if not result.ok:
            return f"{op.key}: missing {result.missing} extra {result.extra}"
        want = self.expected.get(op.key)
        if want != [result.found, result.expected]:
            return (f"{op.key}: found/expected {result.found}/"
                    f"{result.expected}, reference {want}")
        return None


# -- enumerate-all ------------------------------------------------------------

class EnumerateAll:
    """Full search.enumerate_systems (not cuspidal-only) on four diagrams."""

    name = "enumerate-all"
    in_process = True
    clock = staticmethod(time.process_time)

    def __init__(self, seed, diagrams=ENUMERATE_DIAGRAMS, reference=None):
        from sphsys import rankone, search
        from sphsys.dynkin import parse_diagram
        self.search = search
        self.diagrams = [parse_diagram(d) for d in diagrams]
        for d in self.diagrams:
            rankone.rank1_embeddings(d)
        self.rng = random.Random(seed)
        self.expected = (reference or load_reference())["enumerate-all"]

    def pass_ops(self):
        order = list(self.diagrams)
        self.rng.shuffle(order)
        search = self.search
        return [Op(d.spec(), d.spec(),
                   lambda d=d: search.enumerate_systems(d)) for d in order]

    def check(self, op, result):
        want = self.expected.get(op.key)
        got = {"count": len(result), "sha256": systems_digest(result)}
        if got != want:
            return f"{op.key}: got {got}, reference {want}"
        return None


# -- quotient-sweep -----------------------------------------------------------

class QuotientSweep:
    """Every nonempty colour subset of every catalog member: distinguished?
    then quotient; plus one affinity witness per member."""

    name = "quotient-sweep"
    in_process = True
    clock = staticmethod(time.process_time)

    def __init__(self, seed, diagrams=SWEEP_DIAGRAMS):
        from sphsys import families, ops
        from sphsys.dynkin import parse_diagram
        self.ops = ops
        self.members = []
        for spec in diagrams:
            for entry in families.expand_catalog(parse_diagram(spec)):
                entry.system.rho_matrix         # colours and pairings
                self.members.append((entry.label, entry.system))
        self.requests = []
        for m, (_label, s) in enumerate(self.members):
            n = len(s.colours)
            for r in range(1, n + 1):
                for subset in itertools.combinations(range(n), r):
                    self.requests.append(("quotient", m, subset))
            self.requests.append(("affine", m, None))
        self.rng = random.Random(seed)
        self.verified = {}      # op key -> result that passed every check

    def pass_ops(self):
        order = list(self.requests)
        self.rng.shuffle(order)
        return [Op(kind, (kind, m, subset),
                   self._call(kind, self.members[m][1], subset))
                for kind, m, subset in order]

    def _call(self, kind, s, subset):
        ops = self.ops
        if kind == "affine":
            return lambda: ops.affine_witness(s)

        def request():
            if not ops.is_distinguished(s, subset):
                return None
            return ops.quotient(s, subset)
        return request

    def check(self, op, result):
        kind, m, subset = op.key
        s = self.members[m][1]
        if kind == "affine":
            fingerprint = result
        else:
            fingerprint = None if result is None else (
                result.coefficients, result.sigma, result.sp)
        if op.key in self.verified:
            if self.verified[op.key] != fingerprint:
                return f"{self._name(op)}: result differs from an earlier pass"
            return None
        problem = (self._check_affine(s, result) if kind == "affine"
                   else self._check_quotient(s, subset, result))
        if problem:
            return f"{self._name(op)}: {problem}"
        self.verified[op.key] = fingerprint
        return None

    def _name(self, op):
        kind, m, subset = op.key
        label, s = self.members[m]
        return f"{kind} {label} on {s.diagram.spec()} colours {subset}"

    @staticmethod
    def _check_affine(s, witness):
        rho, colours = s.rho_matrix, range(len(s.colours))
        if witness is None:
            ones = (1,) * len(s.sigma)
            if s.sigma and all(v > 0 for v in _pairings(rho, colours, ones)):
                return "no witness, yet all-ones pairs positively"
            return None
        if len(witness) != len(s.sigma) or min(witness, default=0) < 0:
            return f"witness {witness} is not a nonnegative root vector"
        if not all(v > 0 for v in _pairings(rho, colours, witness)):
            return f"witness {witness} does not pair positively"
        return None

    def _check_quotient(self, s, subset, q):
        rho = s.rho_matrix
        k = len(s.sigma)
        # the subset is distinguished iff a witness phi > 0 on the subset
        # has <rho(phi), gamma> >= 0 on every spherical root gamma
        phi = self.ops.distinguished_witness(s, subset)
        if (phi is None) != (q is None):
            return f"is_distinguished {q is not None}, witness {phi}"
        if q is None:
            ones = [sum(rho[c][j] for c in subset) for j in range(k)]
            if all(v >= 0 for v in ones):
                return "not distinguished, yet all-ones is a witness"
            return None
        if len(phi) != len(subset) or min(phi) <= 0:
            return f"witness {phi} is not positive on the subset"
        if any(sum(f * rho[c][j] for f, c in zip(phi, subset)) < 0
               for j in range(k)):
            return f"witness {phi} pairs negatively with a root"
        basis = q.coefficients
        for x in basis:
            if len(x) != k or min(x) < 0 or not any(x):
                return f"Hilbert element {x} is not a nonzero x >= 0"
            if any(_pairings(rho, subset, x)):
                return f"Hilbert element {x} is not in the kernel"
        for a, b in itertools.permutations(basis, 2):
            if _dominates(a, b):
                return f"Hilbert element {a} is dominated by {b}"
        combos = sorted(
            tuple(sum(c * g[i] for c, g in zip(x, s.sigma))
                  for i in range(s.diagram.n_nodes)) for x in basis)
        if list(q.sigma) != combos:
            return "quotient roots are not the Hilbert combinations"
        sp = set(s.sp).union(*(s.colours[c].nodes for c in subset))
        if set(q.sp) != sp:
            return "quotient parabolic set is not sp plus the colours"
        return None


# -- cli-mix ------------------------------------------------------------------

# (kind, argv after "python -m sphsys.cli", needs a system on stdin)
CLI_KINDS = (
    ("validate", ["validate"], True),
    ("colours", ["colours"], True),
    ("quotient", ["quotient"], True),
    ("localize", ["localize"], True),
    ("components", ["components", "--classify"], True),
    ("enumerate", ["enumerate", "--primitive", "--classify"], False),
    ("classify", ["classify"], True),
    ("catalog-rank1", ["catalog", "rank1"], False),
    ("catalog-families", ["catalog", "families"], False),
    ("symmetric", ["symmetric"], False),
    ("orbit", ["orbit"], False),
    ("affine-check", ["affine-check"], True),
    ("identities", ["identities"], True),
    ("diagram", ["diagram"], True),
    ("diagram-svg", ["diagram", "--format", "svg"], True),
)
CLI_SYSTEMS = (("b(n)", {"n": 3}), ("g(2)", {}), ("g*(2)", {}),
               ("go(2)", {}), ("ao(n)", {"n": 3}), ("c*(n)", {"n": 3}),
               ("aa(1,1)+c*(n)", {"n": 2}), ("ds*(4)", {}))
CLI_ENUMERATE = ("G2", "A2", "B2", "A3", "C3")
CLI_SYMMETRIC = (("A III", {"p": 2, "q": 3}), ("A I", {"n": 3}),
                 ("B I", {"p": 1, "q": 2}), ("C I", {"n": 3}), ("G", {}))
CLI_ORBIT = (("G2", "1,0"), ("G2", "0,1"), ("B3", "0,1,0"), ("A3", "1,0,1"))
CLI_CALLS_PER_KIND = 3


class CliMix:
    """One ``python -m sphsys.cli`` process at a time over the README
    subcommands, on small systems.

    With ``rescale`` each child runs under ``cli_child.py``, which probes
    the machine's speed inside it; ``begin``/``end`` then time an operation
    like a ``speed.SpeedClock``: the child's CPU seconds less the probes',
    raw and rescaled.  Without it they return the raw CPU seconds twice."""

    name = "cli-mix"
    in_process = False
    clock = staticmethod(children_cpu)

    def __init__(self, seed, root, env, kinds=CLI_KINDS,
                 per_kind=CLI_CALLS_PER_KIND, rescale=False):
        from sphsys import families, ops, rankone
        self.root, self.env, self.per_kind = root, env, per_kind
        self.kinds = kinds
        self.rescale = rescale
        self._start = 0.0
        self._report = None     # the last child's probe report
        systems = [families.instantiate(name, **params)
                   for name, params in CLI_SYSTEMS]
        self.stdin = [json.dumps(s.to_json()).encode() for s in systems]
        self.quotients = []       # (system index, distinguished colours)
        for i, s in enumerate(systems):
            for r in (1, 2):
                for sub in itertools.combinations(range(len(s.colours)), r):
                    if ops.is_distinguished(s, sub):
                        self.quotients.append((i, sub))
        self.rank1 = [row["label"] for row in rankone.row_catalog()]
        self.rng = random.Random(seed)

    def _argv(self, kind, base):
        """Concrete argv and stdin for one call of this kind."""
        rng = self.rng
        extra, i = [], rng.randrange(len(self.stdin))
        if kind == "quotient":
            i, sub = rng.choice(self.quotients)
            extra = ["--colours", ",".join(f"D{c}" for c in sub)]
        elif kind == "localize":        # every pool system has 2+ nodes
            extra = ["--nodes", "0,1"]
        elif kind == "enumerate":
            extra = ["--diagram", rng.choice(CLI_ENUMERATE)]
        elif kind == "catalog-rank1":
            extra = ["--label", rng.choice(self.rank1)]
        elif kind == "symmetric":
            label, params = rng.choice(CLI_SYMMETRIC)
            extra = ["--label", label]
            for k, v in params.items():
                extra += [f"--{k}", str(v)]
        elif kind == "orbit":
            diagram, char = rng.choice(CLI_ORBIT)
            extra = ["--diagram", diagram, "--char", char]
        return base + extra, self.stdin[i]

    def pass_ops(self):
        calls = []
        for kind, base, needs_system in self.kinds:
            for _ in range(self.per_kind):
                argv, data = self._argv(kind, list(base))
                calls.append((kind, argv, data if needs_system else b""))
        self.rng.shuffle(calls)
        return [Op(kind, (kind, tuple(argv)),
                   lambda argv=argv, data=data: self.run_cli(argv, data))
                for kind, argv, data in calls]

    def run_cli(self, argv, data):
        if not self.rescale:
            return subprocess.run(
                [sys.executable, "-m", "sphsys.cli", *argv], input=data,
                capture_output=True, cwd=self.root, env=self.env,
                timeout=120, check=False)
        read, write = os.pipe()
        try:
            proc = subprocess.run(
                [sys.executable, str(CLI_CHILD), str(write), *argv],
                input=data, capture_output=True, cwd=self.root, env=self.env,
                timeout=120, check=False, pass_fds=(write,))
            os.close(write)
            write = None
            with os.fdopen(read, encoding="utf-8") as fh:
                read = None
                report = fh.read().strip()
        finally:
            for fd in (read, write):
                if fd is not None:
                    os.close(fd)
        self._report = json.loads(report) if report else None
        return proc

    def begin(self):
        self._report = None
        self._start = children_cpu()

    def end(self):
        cpu = children_cpu() - self._start
        rep = self._report
        if rep is None or rep["raw_s"] <= 0:   # not rescaled, or no report
            return cpu, cpu
        cpu -= rep["probes_s"]
        return cpu, cpu * rep["scaled_s"] / rep["raw_s"]

    @staticmethod
    def check(op, proc):
        kind, argv = op.key
        if proc.returncode != 0:
            err = (proc.stdout or proc.stderr).decode(errors="replace")
            return f"{' '.join(argv)}: exit {proc.returncode}: {err[:200]}"
        out = proc.stdout.decode()
        if kind == "diagram":
            return None if out.strip() else f"{kind}: empty picture"
        if kind == "diagram-svg":
            return None if "<svg" in out else f"{kind}: no <svg> element"
        try:
            doc = json.loads(out)
        except json.JSONDecodeError as exc:
            return f"{' '.join(argv)}: stdout is not JSON ({exc})"
        if kind == "validate" and doc.get("valid") is not True:
            return f"{' '.join(argv)}: catalog member reported invalid"
        return None


WORKLOADS = {w.name: w for w in (Gate, EnumerateAll, QuotientSweep, CliMix)}
