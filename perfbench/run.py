"""sphsys benchmark: one closed-loop workload per run, checked outputs.

    python3 perfbench/run.py --workload gate --seed 1 --seconds 20 --trace 0

Run from anywhere: the library is imported from ``src/`` next to this
directory, never from an installed copy.  One client on one thread sends the
next operation when the previous one has returned.  Operations come in
passes (a fixed multiset in a seed-dependent order); passes repeat while
the next one is predicted to end inside ``--seconds`` of wall-clock time,
and at least one always runs, so a pass longer than the window overruns it.

Times are CPU seconds (user + system) of the process doing the work: this
one, or the ``sphsys.cli`` child on cli-mix.  They are rescaled to a
reference machine speed measured by probes around and during each
operation (``speed.py``; ``cli_child.py`` probes inside the child), since
on a shared virtual machine the same code runs up to twice as slow at some
moments as at others, in CPU time as in wall-clock time.  Set-up is timed
the same way.  Raw CPU and wall-clock figures are printed alongside.

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json; ``--trace 1``
runs one untraced and one traced pass and prints the per-layer metrics,
with the spans written to ``.perfbench_out/``.  The last line of stdout is
one JSON object: correct, attempted, failed, metrics.  Exit status 0 when
every output check passed, 1 when one failed, 2 when the run cannot start.
"""

from time import perf_counter

import speed

SETUP_CLOCK = speed.SpeedClock()
if __name__ == "__main__":
    SETUP_CLOCK.begin()   # set-up time counts from here

import argparse           # noqa: E402  (imports are part of set-up)
import gc                 # noqa: E402
import hashlib            # noqa: E402
import json               # noqa: E402
import math               # noqa: E402
import os                 # noqa: E402
import platform           # noqa: E402
import resource           # noqa: E402
import statistics         # noqa: E402
import subprocess         # noqa: E402
import sys                # noqa: E402
import traceback          # noqa: E402
from pathlib import Path  # noqa: E402

import workloads          # noqa: E402
from tracer import Tracer  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_SAMPLES = 5         # set-ups timed per run: this process plus children
CLI_STARTUP_SAMPLES = 5


def fail(message: str):
    print(f"perfbench: {message}", file=sys.stderr)
    raise SystemExit(2)


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=list(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="time one set-up, print its rescaled CPU seconds "
                        "and exit")
    return p.parse_args(argv)


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC))


def make_workload(name: str, seed: int, rescale: bool = False):
    cls = workloads.WORKLOADS[name]
    if cls is workloads.CliMix:
        return cls(seed, ROOT, child_env(), rescale=rescale)
    return cls(seed)


# -- statistics ---------------------------------------------------------------

def nearest_rank(values, pct):
    """The pct-th percentile by nearest rank (pct in (0, 100])."""
    xs = sorted(values)
    return xs[max(1, math.ceil(pct / 100 * len(xs))) - 1]


def tail_pct(per_pass: int) -> float:
    """Highest percentile with at least ten of one pass's ops beyond it; the
    same percentile is then read off the ops of all passes pooled."""
    return 100.0 * (per_pass - 10) / per_pass if per_pass > 10 else 100.0


class Record:
    """Operation timings and failures of one run: rescaled CPU seconds
    (``op_s``, ``pass_s``), raw CPU seconds and wall-clock seconds."""

    def __init__(self):
        self.op_s: list[float] = []
        self.op_cpu: list[float] = []
        self.op_wall: list[float] = []
        self.pass_s: list[float] = []
        self.pass_cpu: list[float] = []
        self.pass_wall: list[float] = []
        self.per_pass = 0
        self.failed = 0
        self.problems: list[str] = []
        self.kind_of_op: dict[int, str] = {}     # traced op id -> kind

    @property
    def attempted(self) -> int:
        return len(self.op_cpu)


class PlainClock:
    """Times an operation with a CPU clock as read: raw = rescaled."""

    def __init__(self, read):
        self.read = read
        self.start = 0.0

    def begin(self):
        self.start = self.read()

    def end(self):
        took = self.read() - self.start
        return took, took


def run_pass(wl, rec: Record, tracer=None, clock=None) -> float:
    """Run one pass; returns the raw CPU seconds spent inside operations.
    ``clock`` (begin/end, as ``speed.SpeedClock``) times each operation,
    raw and rescaled; by default the workload's CPU clock as read."""
    clock = clock or PlainClock(wl.clock)
    ops = wl.pass_ops()
    rec.per_pass = len(ops)
    scaled_total = cpu_total = wall_total = 0.0
    for op in ops:
        if tracer is not None:
            tracer.op += 1
            rec.kind_of_op[tracer.op] = op.kind
        if wl.in_process:
            # Start every op from the same collector state: the earlier ops'
            # garbage gone, and what survived them frozen out of later
            # collections.  Else a full collection lands in whichever op the
            # seed's order puts it in.
            gc.collect()
            gc.freeze()
        wall = perf_counter()
        clock.begin()
        try:
            if tracer is None:
                result = op.call()
            else:
                result = tracer.span(f"bench.{wl.name}", op.call)
            problem = None
        except Exception as exc:   # an op that raises is a failed op
            result = None
            problem = f"{op.kind}: {type(exc).__name__}: {exc}"
            traceback.print_exc(file=sys.stderr)
        finally:
            cpu, scaled = clock.end()
        wall = perf_counter() - wall
        if problem is None:
            problem = wl.check(op, result)
        del result
        scaled_total += scaled
        cpu_total += cpu
        wall_total += wall
        rec.op_s.append(scaled)
        rec.op_cpu.append(cpu)
        rec.op_wall.append(wall)
        if problem is not None:
            rec.failed += 1
            rec.problems.append(problem)
    rec.pass_s.append(scaled_total)
    rec.pass_cpu.append(cpu_total)
    rec.pass_wall.append(wall_total)
    return cpu_total


def measure(wl, seconds: float, rec: Record) -> float:
    """Run passes for the window; returns the peak RSS in MB at the end of
    the first pass, which does not depend on how many passes fit."""
    clock = speed.SpeedClock() if wl.in_process else wl
    start = perf_counter()
    peak_mb = None
    while True:
        begun = perf_counter()
        run_pass(wl, rec, clock=clock)
        took = perf_counter() - begun
        if peak_mb is None:
            peak_mb = peak_rss_mb(wl.name)
        if perf_counter() - start + took > seconds:
            return peak_mb


# -- set-up and environment ---------------------------------------------------

def setup_sample(workload: str, seed: int) -> float:
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-only",
         "--workload", workload, "--seed", str(seed)],
        capture_output=True, text=True, env=child_env(), timeout=120,
        check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up child failed: {proc.stderr[-500:]}")
    return float(proc.stdout.strip().splitlines()[-1])


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30,
                              check=False)
    except OSError:
        return None
    return proc.stdout.strip() or None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "sphsys").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment(args) -> dict:
    from sphsys.budget import max_states
    return {
        "python": platform.python_version(),
        "host": platform.node(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "commit": git_commit(),
        "src_sha256": source_digest(),
        "probe_ref_s": speed.PROBE_REF_S,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "budget": {"SPHSYS_MAX_STATES": os.environ.get("SPHSYS_MAX_STATES"),
                   "max_states": max_states()},
    }


# -- metrics ------------------------------------------------------------------

def peak_rss_mb(workload: str) -> float:
    """Peak RSS of this process, or of its largest child on cli-mix; read
    before any set-up child has run."""
    usage = (resource.RUSAGE_CHILDREN if workload == "cli-mix"
             else resource.RUSAGE_SELF)
    return resource.getrusage(usage).ru_maxrss / 1024


def end_to_end(rec: Record, setup_s: float, peak_mb: float,
               workload: str) -> tuple[dict, dict]:
    pct = tail_pct(rec.per_pass)
    n = rec.attempted

    def alongside(cpu, wall, stat, unit):
        return (f"raw CPU {stat(cpu):.6g} {unit}, "
                f"wall clock {stat(wall):.6g} {unit}")

    def p50_ms(xs):
        return 1000 * statistics.median(xs)

    def tail_ms(xs):
        return 1000 * nearest_rank(xs, pct)

    values = {
        "setup_s": setup_s,
        "pass_s": statistics.median(rec.pass_s),
        "op_p50_ms": p50_ms(rec.op_s),
        "op_tail_ms": tail_ms(rec.op_s),
        "peak_rss_mb": peak_mb,
    }
    tail = f"p{pct:.2f}" if pct < 100 else "max (10 ops a pass or fewer)"
    notes = {
        "setup_s": f"median of {SETUP_SAMPLES} set-ups",
        "pass_s": f"median over {len(rec.pass_s)} passes of "
                  f"{rec.per_pass} ops; " + alongside(
                      rec.pass_cpu, rec.pass_wall, statistics.median, "s"),
        "op_p50_ms": f"p50 of {n} ops; " + alongside(
            rec.op_cpu, rec.op_wall, p50_ms, "ms"),
        "op_tail_ms": f"{tail} of {n} ops; " + alongside(
            rec.op_cpu, rec.op_wall, tail_ms, "ms"),
        "peak_rss_mb": "max RSS of the " + (
            "cli processes" if workload == "cli-mix"
            else "benchmark process"),
    }
    return values, notes


def layer_values(names, tracer, extra: dict) -> dict:
    """Per-layer metrics, named <span>.calls, <span>.self_s, <span>.<x>_ratio
    or listed in extra."""
    special = {
        "search.systems_emitted": "search.enumerate_systems",
        "hilbert.basis_elements": "hilbert.hilbert_basis",
        "families.catalog_members": "families.expand_catalog",
    }
    out = {}
    for name in names:
        if name in extra:
            out[name] = extra[name]
        elif name in special:
            out[name] = tracer.outcome[special[name]]
        elif name == "hilbert.hilbert_basis.budget_exceeded":
            out[name] = tracer.raised["hilbert.hilbert_basis",
                                      "BudgetExceeded"]
        elif name.endswith(".calls"):
            out[name] = tracer.calls[name[:-len(".calls")]]
        elif name.endswith(".self_s"):
            out[name] = tracer.self_s[name[:-len(".self_s")]]
        elif name.endswith("_ratio"):
            span = name.rsplit(".", 1)[0]
            calls = tracer.calls[span]
            out[name] = tracer.outcome[span] / calls if calls else 0.0
        else:
            raise KeyError(f"no rule for per-layer metric {name}")
    return out


def startup_ms(code: str) -> float:
    """Median CPU milliseconds of `python -c code`."""
    samples = []
    for _ in range(CLI_STARTUP_SAMPLES):
        start = workloads.children_cpu()
        subprocess.run([sys.executable, "-c", code], env=child_env(),
                       cwd=ROOT, check=True, timeout=120)
        samples.append(workloads.children_cpu() - start)
    return 1000 * statistics.median(samples)


def traced_run(args, names) -> tuple[dict, Record]:
    tracer = Tracer()
    rec = Record()
    tracer.install()
    try:
        wl = tracer.span("bench.setup", make_workload,
                         (args.workload, args.seed))
    finally:
        tracer.uninstall()
    untraced = run_pass(wl, rec)
    tracer.install()
    try:
        traced = run_pass(wl, rec, tracer)
    finally:
        tracer.uninstall()

    extra = {"trace.overhead_s": traced - untraced}
    verify = tracer.inclusive_by_op("search.verify_catalog")
    for spec in workloads.GATE_DIAGRAMS:
        extra[f"search.verify_catalog.{spec.replace(',', '-')}_s"] = sum(
            s for op, s in verify.items() if rec.kind_of_op[op] == spec)
    cli = args.workload == "cli-mix"
    interp = startup_ms("pass") if cli else 0.0
    extra["cli.interp_ms"] = interp
    extra["cli.import_ms"] = (startup_ms("import sphsys.cli") - interp
                              if cli else 0.0)
    traced_ops = rec.op_cpu[-rec.per_pass:]
    kinds = [rec.kind_of_op[op] for op in sorted(rec.kind_of_op)]
    for kind, *_ in workloads.CLI_KINDS:
        mine = [t for k, t in zip(kinds, traced_ops) if k == kind]
        extra[f"cli.{kind}.p50_ms"] = (1000 * statistics.median(mine)
                                       if cli and mine else 0.0)
    values = layer_values(names, tracer, extra)
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.json.gz",
                 {"environment": environment(args), "metrics": values})
    return values, rec


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "sphsys" / "__init__.py").is_file():
        fail(f"no sphsys sources under {SRC}")
    if "SPHSYS_MAX_STATES" in os.environ:
        fail("SPHSYS_MAX_STATES is set; the benchmark runs with the "
             "library's default budget only")
    sys.path.insert(0, str(SRC))
    if args.setup_only:
        make_workload(args.workload, args.seed)
        print(SETUP_CLOCK.end()[1])
        return 0
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        fail(f"cannot read BENCHMARK.json: {exc}")

    print("env " + json.dumps(environment(args), sort_keys=True))
    if args.trace:
        SETUP_CLOCK.end()         # no probes inside the traced run
        wanted = spec["per_layer"]
        values, rec = traced_run(args, [m["name"] for m in wanted])
        notes = {}
    else:
        wanted = spec["end_to_end"]
        wl = make_workload(args.workload, args.seed, rescale=True)
        setup_here = SETUP_CLOCK.end()[1]
        rec = Record()
        peak_mb = measure(wl, args.seconds, rec)
        samples = [setup_here] + [setup_sample(args.workload, args.seed)
                                  for _ in range(SETUP_SAMPLES - 1)]
        values, notes = end_to_end(rec, statistics.median(samples), peak_mb,
                                   args.workload)

    for problem in rec.problems[:20]:
        print(f"perfbench: FAILED {problem}", file=sys.stderr)
    metrics = {}
    for m in wanted:
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        note = notes.get(m["name"], "")
        print(f"{m['name']:<40} {values[m['name']]:>14.6g} {m['unit']:<6} "
              f"{note}".rstrip())
    ratio = rec.failed / rec.attempted if rec.attempted else 1.0
    print(f"{'fail_ratio':<40} {ratio:>14.6g} ratio  "
          f"{rec.failed} failed of {rec.attempted} ops")
    correct = rec.failed == 0 and rec.attempted > 0
    print(json.dumps({"correct": correct, "attempted": rec.attempted,
                      "failed": rec.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    try:
        status = main()
    finally:
        SETUP_CLOCK.disarm()    # a timer left armed would kill the exit
    sys.exit(status)
