"""Outside-in tracer: wraps sphsys's public functions from the benchmark.

Nothing in the library is edited.  ``Tracer.install`` replaces each traced
function under every name it is bound to in a loaded ``sphsys`` module (the
library from-imports several of them, so patching only the defining module
would miss those call sites), and the two traced methods on the
``SphericalSystem`` class.  ``uninstall`` puts the originals back.

Every call becomes a span with a name, start, end, parent span and the id of
the benchmark operation it ran under; start and end are process CPU seconds.
Spans are kept in flat arrays in memory and written out once, at the end.
Self time is a span's duration minus the time its child spans cover; spans
nest on one thread, so the covered time is the sum of the children's
durations.
"""

from __future__ import annotations

import gzip
import importlib
import json
import sys
from array import array
from collections import Counter
from time import process_time

# (module, attribute, span name, outcome): outcome maps a return value to a
# number summed per span name, e.g. "was the answer useful"
TARGETS = (
    ("search", "enumerate_systems", "search.enumerate_systems", len),
    ("search", "verify_catalog", "search.verify_catalog", None),
    ("feasible", "feasible_nonneg", "feasible.feasible_nonneg",
     lambda r: r is not None),
    ("ops", "is_distinguished", "ops.is_distinguished", bool),
    ("ops", "is_decomposable", "ops.is_decomposable", None),
    ("ops", "is_primitive", "ops.is_primitive", bool),
    ("ops", "quotient", "ops.quotient", None),
    ("ops", "affine_witness", "ops.affine_witness", None),
    ("hilbert", "hilbert_basis", "hilbert.hilbert_basis", len),
    ("rankone", "rank1_embeddings", "rankone.rank1_embeddings", None),
    ("rankone", "admissible_traces", "rankone.admissible_traces", None),
    ("families", "expand_catalog", "families.expand_catalog", len),
    ("system", "SphericalSystem.validate", "system.validate",
     lambda r: r.ok),
    ("system", "SphericalSystem.canonical_key", "system.canonical_key",
     None),
)


class Tracer:
    """Span recorder; one instance per traced run."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.calls: Counter = Counter()
        self.self_s: Counter = Counter()
        self.outcome: Counter = Counter()
        self.raised: Counter = Counter()      # (name, exception class)
        self.op = 0
        self._stack: list[list] = []          # [span index, child seconds]
        self._patches: list[tuple] = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def span(self, name: str, fn, args=(), kwargs=None, outcome=None):
        """Run fn(*args, **kwargs) as one span called name."""
        idx = len(self.span_name)
        self.span_name.append(self._name_id(name))
        self.span_parent.append(self._stack[-1][0] if self._stack else -1)
        self.span_op.append(self.op)
        self.span_start.append(0.0)
        self.span_end.append(0.0)
        frame = [idx, 0.0]
        self._stack.append(frame)
        start = process_time()
        try:
            result = fn(*args, **(kwargs or {}))
        except BaseException as exc:
            self.raised[name, type(exc).__name__] += 1
            raise
        finally:
            end = process_time()
            self._stack.pop()
            dur = end - start
            self.span_start[idx] = start
            self.span_end[idx] = end
            self.self_s[name] += dur - frame[1]
            self.calls[name] += 1
            if self._stack:
                self._stack[-1][1] += dur
        if outcome is not None:
            self.outcome[name] += outcome(result)
        return result

    def wrap(self, fn, name: str, outcome=None):
        def traced(*args, **kwargs):
            return self.span(name, fn, args, kwargs, outcome)
        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    # -- patching -----------------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        targets = [(importlib.import_module(f"sphsys.{mod}"), attr, name,
                    outcome) for mod, attr, name, outcome in TARGETS]
        # listed after the imports above, which may load more of sphsys
        loaded = [m for key, m in list(sys.modules.items())
                  if m is not None and (key == "sphsys"
                                        or key.startswith("sphsys."))]
        for mod, attr, name, outcome in targets:
            if "." in attr:                       # a method on a class
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                orig = cls.__dict__[meth]
                self._patch(cls, meth, orig, self.wrap(orig, name, outcome))
                continue
            orig = getattr(mod, attr)
            traced = self.wrap(orig, name, outcome)
            for m in loaded:
                for key, value in list(vars(m).items()):
                    if value is orig:
                        self._patch(m, key, orig, traced)

    def _patch(self, owner, key, orig, traced) -> None:
        setattr(owner, key, traced)
        self._patches.append((owner, key, orig))

    def uninstall(self) -> None:
        while self._patches:
            owner, key, orig = self._patches.pop()
            setattr(owner, key, orig)

    # -- output -------------------------------------------------------------

    def inclusive_by_op(self, name: str) -> dict:
        """Seconds of the outermost spans called name, per operation id."""
        out: dict = {}
        nid = self._ids.get(name)
        if nid is None:
            return out
        names, parents = self.span_name, self.span_parent
        for i in range(len(names)):
            if names[i] != nid:
                continue
            p = parents[i]
            while p >= 0 and names[p] != nid:
                p = parents[p]
            if p < 0:
                op = self.span_op[i]
                out[op] = (out.get(op, 0.0)
                           + self.span_end[i] - self.span_start[i])
        return out

    def write(self, path, meta: dict) -> None:
        """Write every span, column by column, as gzipped JSON."""
        columns = (("name", self.span_name), ("parent", self.span_parent),
                   ("op", self.span_op), ("start", self.span_start),
                   ("end", self.span_end))
        head = {"meta": meta, "names": self.names,
                "columns": [key for key, _ in columns]}
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write(json.dumps(head)[:-1])
            for key, col in columns:
                fh.write(f', "{key}": [')
                for lo in range(0, len(col), 65536):
                    if lo:
                        fh.write(", ")
                    fh.write(", ".join(map(repr, col[lo:lo + 65536])))
                fh.write("]")
            fh.write("}\n")
