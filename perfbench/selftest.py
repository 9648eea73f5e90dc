"""Self-tests of the benchmark harness, on small inputs (a few seconds).

    python3 perfbench/selftest.py

Checks that each layer counter moves on the workload meant to exercise it,
that the search counters stay at zero on quotient-sweep, that corrupted or
miscounted outputs are reported as failures, and that the command refuses
to run where it must.
"""

import dataclasses
import json
import os
import shutil
import signal
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run                                  # noqa: E402
import speed                                # noqa: E402
import workloads                            # noqa: E402
from tracer import Tracer                   # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def traced_pass(wl):
    """One checked untraced pass, then one traced pass, like --trace 1."""
    rec = run.Record()
    run.run_pass(wl, rec)
    tracer = Tracer()
    tracer.install()
    try:
        run.run_pass(wl, rec, tracer)
    finally:
        tracer.uninstall()
    return tracer, rec


class Statistics(unittest.TestCase):
    def test_nearest_rank(self):
        xs = list(range(1, 101))
        self.assertEqual(run.nearest_rank(xs, 50), 50)
        self.assertEqual(run.nearest_rank(xs, 90), 90)
        self.assertEqual(run.nearest_rank(xs, 100), 100)

    def test_tail_leaves_ten_per_pass_beyond(self):
        pct = run.tail_pct(22)
        for passes in (1, 3):
            xs = list(range(22 * passes))
            tail = run.nearest_rank(xs, pct)
            self.assertEqual(sum(x > tail for x in xs), 10 * passes)
        self.assertEqual(run.tail_pct(4), 100.0)


class SpeedClock(unittest.TestCase):
    def setUp(self):
        self.probe = speed.probe

    def tearDown(self):
        speed.probe = self.probe

    def test_rescales_by_probe_length_and_leaves_probes_out(self):
        speed.probe = lambda: 2 * speed.PROBE_REF_S   # a machine half as fast
        clock = speed.SpeedClock()
        clock.begin()
        sum(i * i for i in range(300000))
        raw, scaled = clock.end()
        self.assertGreater(raw, 0)
        self.assertAlmostEqual(scaled, raw / 2, places=12)
        self.assertEqual(signal.getitimer(signal.ITIMER_REAL), (0.0, 0.0))

    def test_real_probe_counts_and_takes_time(self):
        self.assertGreater(speed.probe(), 0)

    def test_a_raising_op_disarms_the_timer(self):
        wl = workloads.Gate(3, diagrams=("A1", "A2"))
        ops = wl.pass_ops()
        wl.pass_ops = lambda: [ops[0]._replace(call=lambda: 1 / 0), ops[1]]
        rec = run.Record()
        run.run_pass(wl, rec, clock=speed.SpeedClock())
        self.assertEqual((rec.attempted, rec.failed), (2, 1))
        self.assertIn("ZeroDivisionError", rec.problems[0])
        self.assertEqual(signal.getitimer(signal.ITIMER_REAL), (0.0, 0.0))
        self.assertIs(signal.getsignal(signal.SIGALRM), signal.SIG_DFL)


class TracerMechanics(unittest.TestCase):
    def test_self_time_subtracts_children(self):
        tr = Tracer()

        def inner():
            return sum(range(20000))

        wrapped_inner = tr.wrap(inner, "inner")
        tr.span("outer", lambda: wrapped_inner() + wrapped_inner())
        self.assertEqual(tr.calls["inner"], 2)
        total = tr.span_end[0] - tr.span_start[0]
        self.assertAlmostEqual(tr.self_s["outer"] + tr.self_s["inner"],
                               total, places=9)
        self.assertEqual(list(tr.span_parent), [-1, 0, 0])

    def test_install_patches_every_binding_and_restores(self):
        from sphsys import feasible, ops, rankone, search, system
        originals = (feasible.feasible_nonneg, ops.feasible_nonneg,
                     search.admissible_traces, rankone.admissible_traces,
                     system.SphericalSystem.validate)
        tr = Tracer()
        tr.install()
        try:
            self.assertIsNot(ops.feasible_nonneg, originals[1])
            self.assertIsNot(search.admissible_traces, originals[2])
            self.assertIs(search.admissible_traces,
                          rankone.admissible_traces)
            self.assertIsNot(system.SphericalSystem.validate, originals[4])
        finally:
            tr.uninstall()
        self.assertEqual((feasible.feasible_nonneg, ops.feasible_nonneg,
                          search.admissible_traces,
                          rankone.admissible_traces,
                          system.SphericalSystem.validate), originals)

    def test_install_before_the_library_is_imported(self):
        code = ("import sys; sys.path[:0] = [sys.argv[1], sys.argv[2]]\n"
                "import sphsys.budget, tracer\n"
                "tracer.Tracer().install()\n"
                "from sphsys import ops, search\n"
                "print(hasattr(ops.feasible_nonneg, '__wrapped__'),\n"
                "      hasattr(search.admissible_traces, '__wrapped__'))\n")
        proc = subprocess.run(
            [sys.executable, "-c", code, str(run.SRC), str(HERE)],
            capture_output=True, text=True, timeout=120, check=True)
        self.assertEqual(proc.stdout.split(), ["True", "True"])

    def test_every_per_layer_metric_has_a_rule_and_a_row(self):
        names = [m["name"] for m in SPEC["per_layer"]]
        extra = {n: 0.0 for n in names
                 if n.startswith(("cli.", "trace.", "search.verify_catalog."))}
        values = run.layer_values(names, Tracer(), extra)
        self.assertEqual(set(values), set(names))
        readme = (HERE / "README.md").read_text()
        for n in names:
            if not n.startswith(("search.verify_catalog.", "cli.")) \
                    or n in ("cli.interp_ms", "cli.import_ms"):
                self.assertIn(f"`{n}`", readme)


class Counters(unittest.TestCase):
    def test_gate(self):
        tr, rec = traced_pass(workloads.Gate(3, diagrams=("A3", "B3", "G2")))
        self.assertEqual(rec.failed, 0, rec.problems)
        for name in ("search.enumerate_systems", "search.verify_catalog",
                     "feasible.feasible_nonneg", "ops.is_distinguished",
                     "ops.is_decomposable", "ops.is_primitive",
                     "system.validate", "system.canonical_key",
                     "families.expand_catalog", "rankone.rank1_embeddings",
                     "rankone.admissible_traces"):
            self.assertGreater(tr.calls[name], 0, name)
        self.assertGreater(tr.outcome["search.enumerate_systems"], 0)

    def test_quotient_sweep_leaves_search_alone(self):
        tr, rec = traced_pass(
            workloads.QuotientSweep(3, diagrams=("B3", "C3", "G2")))
        self.assertEqual(rec.failed, 0, rec.problems)
        for name in ("hilbert.hilbert_basis", "ops.quotient",
                     "ops.is_distinguished", "ops.affine_witness",
                     "feasible.feasible_nonneg"):
            self.assertGreater(tr.calls[name], 0, name)
        self.assertGreater(tr.outcome["hilbert.hilbert_basis"], 0)
        for name in ("search.enumerate_systems", "search.verify_catalog"):
            self.assertEqual(tr.calls[name], 0, name)

    def test_enumerate_all(self):
        tr, rec = traced_pass(
            workloads.EnumerateAll(3, diagrams=("G2,G2,G2",)))
        self.assertEqual(rec.failed, 0, rec.problems)
        self.assertEqual(tr.calls["system.validate"],
                         tr.outcome["search.enumerate_systems"])
        self.assertGreater(tr.calls["rankone.admissible_traces"], 0)
        self.assertEqual(tr.calls["hilbert.hilbert_basis"], 0)

    def test_cli_mix(self):
        kinds = [k for k in workloads.CLI_KINDS
                 if k[0] in ("validate", "quotient", "catalog-families")]
        wl = workloads.CliMix(3, run.ROOT, run.child_env(), kinds=kinds,
                              per_kind=1)
        rec = run.Record()
        run.run_pass(wl, rec)
        self.assertEqual((rec.attempted, rec.failed), (3, 0), rec.problems)

    def test_cli_mix_rescaled_children_report(self):
        kinds = [k for k in workloads.CLI_KINDS
                 if k[0] in ("validate", "diagram")]
        wl = workloads.CliMix(3, run.ROOT, run.child_env(), kinds=kinds,
                              per_kind=1, rescale=True)
        rec = run.Record()
        run.run_pass(wl, rec, clock=wl)
        self.assertEqual((rec.attempted, rec.failed), (2, 0), rec.problems)
        self.assertIsNotNone(wl._report)
        for raw, scaled in zip(rec.op_cpu, rec.op_s):
            self.assertGreater(raw, 0)
            self.assertGreater(scaled, 0)
            self.assertNotEqual(raw, scaled)


class FailuresAreReported(unittest.TestCase):
    def test_wrong_catalog_count(self):
        ref = workloads.load_reference()
        ref["gate"]["B3"] = [ref["gate"]["B3"][0] + 1,
                             ref["gate"]["B3"][1] + 1]
        wl = workloads.Gate(3, diagrams=("A3", "B3"), reference=ref)
        rec = run.Record()
        run.run_pass(wl, rec)
        self.assertEqual(rec.failed, 1)
        self.assertIn("B3", rec.problems[0])

    def test_wrong_enumeration_digest(self):
        ref = workloads.load_reference()
        ref["enumerate-all"]["G2,G2,G2"]["sha256"] = "0" * 64
        wl = workloads.EnumerateAll(3, diagrams=("G2,G2,G2",), reference=ref)
        rec = run.Record()
        run.run_pass(wl, rec)
        self.assertEqual(rec.failed, 1)

    def test_corrupted_hilbert_element(self):
        wl = workloads.QuotientSweep(3, diagrams=("B3", "C3"))
        ops = [op for op in wl.pass_ops() if op.kind == "quotient"]
        good = None
        for op in ops:
            result = op.call()
            if result is not None and result.coefficients:
                good = (op, result)
                break
        self.assertIsNotNone(good)
        op, result = good
        x = result.coefficients[0]
        bumped = (x[0] + 1,) + x[1:]
        fresh = workloads.QuotientSweep(3, diagrams=("B3", "C3"))
        for coefficients in (
                (bumped,) + result.coefficients[1:],            # off kernel
                result.coefficients + (tuple(2 * v for v in x),),  # dominated
                ((-1,) * len(x),)):                              # negative
            bad = dataclasses.replace(result, coefficients=coefficients)
            self.assertIsNotNone(fresh.check(op, bad), coefficients)
        self.assertIsNone(fresh.check(op, result))
        # once verified, a later pass must return the same answer
        bad = dataclasses.replace(result, coefficients=(bumped,))
        self.assertIsNotNone(fresh.check(op, bad))

    def test_cli_exit_and_json(self):
        op = workloads.Op("colours", ("colours", ("colours",)), None)
        proc = subprocess.CompletedProcess([], 1, b'{"error": {}}', b"")
        self.assertIsNotNone(workloads.CliMix.check(op, proc))
        proc = subprocess.CompletedProcess([], 0, b"not json", b"")
        self.assertIsNotNone(workloads.CliMix.check(op, proc))
        proc = subprocess.CompletedProcess([], 0, b'{"colours": []}', b"")
        self.assertIsNone(workloads.CliMix.check(op, proc))


class Refusals(unittest.TestCase):
    def _run(self, cwd, script, env=None):
        return subprocess.run(
            [sys.executable, str(script), "--workload", "gate", "--seed",
             "1", "--seconds", "1"], cwd=cwd, env=env, capture_output=True,
            text=True, timeout=120, check=False)

    def test_refuses_a_budget_override(self):
        env = dict(os.environ, SPHSYS_MAX_STATES="1000")
        proc = self._run(run.ROOT, HERE / "run.py", env)
        self.assertEqual(proc.returncode, 2)
        self.assertNotIn('"correct"', proc.stdout)

    def test_refuses_without_sources(self):
        bare = run.OUT / "selftest-bare"
        shutil.rmtree(bare, ignore_errors=True)
        try:
            shutil.copytree(HERE, bare / HERE.name,
                            ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(run.ROOT / "BENCHMARK.json", bare)
            proc = self._run(bare, bare / HERE.name / "run.py")
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
