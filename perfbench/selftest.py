"""Self-tests for the benchmark harness, at tiny sizes (about half a minute).

    python3 perfbench/selftest.py

Kept out of the repository's pytest suite on purpose (the file name does
not match test_*.py): it checks the harness, not the program.
"""

import contextlib
import io
import json
import shutil
import subprocess
import sys
import tempfile
import time
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import child  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_tiny(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace), "--scale", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=120)


def child_tiny(workload):
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        child.main(["--workload", workload, "--seed", "7", "--scale", "tiny"])
    return json.loads(printed.getvalue().splitlines()[-1])


class Contract(unittest.TestCase):
    def test_names_match_benchmark_json(self):
        self.assertEqual([w["name"] for w in BENCHMARK["workloads"]], list(run.WORKLOADS))
        self.assertEqual(list(run.WORKLOADS), list(workloads.WORKLOADS))
        self.assertEqual([(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]],
                         list(run.END_TO_END))
        self.assertEqual([(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]],
                         list(spans.LAYER_METRICS))

    def test_every_metric_emitted_with_its_unit(self):
        for trace, declared in ((0, "end_to_end"), (1, "per_layer")):
            want = {m["name"]: m["unit"] for m in BENCHMARK[declared]}
            for workload in run.WORKLOADS:
                with self.subTest(workload=workload, trace=trace):
                    proc = run_tiny(workload, trace)
                    self.assertEqual(proc.returncode, 0, proc.stderr)
                    result = json.loads(proc.stdout.strip().splitlines()[-1])
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreater(result["attempted"], 0)
                    got = {name: m["unit"] for name, m in result["metrics"].items()}
                    self.assertEqual(got, want)
                    if trace:
                        self.assertGreater(result["metrics"]["trace.spans"]["value"], 0)
                        self.assertGreater(
                            result["metrics"]["moduli.build_complex.s"]["value"], 0)

    def test_from_import_bindings_are_traced(self):
        # verify reaches dihedral_canonical only through operad's own
        # `from .polygon import dihedral_canonical` binding
        proc = run_tiny("verify-n7", 1)
        metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
        self.assertGreater(metrics["polygon.dihedral_canonical.s"]["value"], 0)
        self.assertGreater(metrics["acceptance.c11.s"]["value"], 0)

    def test_fails_without_the_program(self):
        run.OUT.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=run.OUT) as bare:
            bare = Path(bare)
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            shutil.copytree(HERE, bare / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = run_tiny("lookup-n7", 0, cwd=bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


class WrongExpectations(unittest.TestCase):
    def test_wrong_cell_count_fails(self):
        right = workloads.BUILD_SIZES[5]
        workloads.BUILD_SIZES[5] = (right[0] + 1, right[1])
        try:
            result = child_tiny("build-n8")
        finally:
            workloads.BUILD_SIZES[5] = right
        self.assertEqual([f["operation"] for f in result["failures"]], ["cells"])
        self.assertGreater(len(result["failures"]) / result["attempted"], 0)

    def test_wrong_criterion_count_fails(self):
        workloads.CRITERIA += 1
        try:
            result = child_tiny("verify-n7")
        finally:
            workloads.CRITERIA -= 1
        names = [f["operation"] for f in result["failures"]]
        self.assertEqual(names, ["criterion 12", "[PASS] lines"])
        self.assertEqual(result["failures"][0]["workload"], "verify-n7")

    def test_wrong_oracle_fails(self):
        right = workloads.dihedral_least
        workloads.dihedral_least = lambda labels, diags: (labels[::-1], diags)
        try:
            result = child_tiny("lookup-n7")
        finally:
            workloads.dihedral_least = right
        names = {f["operation"] for f in result["failures"]}
        self.assertEqual(names, {"dihedral_canonical"})


    def test_twist_properties_catch_a_wrong_twist(self):
        from mosaic import moduli, polygon
        labels, diags = (3, 1, 7, 2, 6, 4, 5), ((0, 3), (1, 3), (3, 5))
        right = moduli.twist(polygon.Dissection(labels, frozenset(diags)), (0, 3))
        self.assertEqual(right.labels, workloads.reversed_arc(labels, 0, 3))
        self.assertEqual(workloads.splits(right.labels, right.diagonals),
                         workloads.splits(labels, diags))
        # the reversed labels with the diagonals left where they were
        self.assertNotEqual(workloads.splits(right.labels, diags),
                            workloads.splits(labels, diags))


class Probe(unittest.TestCase):
    def test_timer_samples_while_waiting(self):
        with run.SpeedProbe() as probe:
            time.sleep(0.35)
        self.assertGreaterEqual(len(probe.samples), 3)

    def test_factor_is_reference_over_median_loop_time_in_the_section(self):
        probe = run.SpeedProbe()
        probe.samples = [(0.0, 1e-3), (1.0, 2e-3), (2.0, 4e-3), (3.0, 9e-3)]
        reference = run.SpeedProbe.REFERENCE_S
        self.assertAlmostEqual(probe.factor(0.5, 3.5), reference / 4e-3)
        # too short for three samples: the three nearest its middle
        self.assertAlmostEqual(probe.factor(1.9, 2.2), reference / 4e-3)
        self.assertAlmostEqual(probe.factor(-0.5, 0.2), reference / 2e-3)


class SelfTime(unittest.TestCase):
    def test_self_time_subtracts_direct_children(self):
        recorded = [("a", 0.0, 10.0, -1, None), ("b", 1.0, 4.0, 0, None),
                    ("c", 2.0, 3.0, 1, None), ("b", 5.0, 6.0, 0, None)]
        self.assertEqual(spans.self_times(recorded), [6.0, 2.0, 1.0, 1.0])
        metrics = spans.layer_metrics([("moduli.cell_for", 0.0, 2e-6, -1, None)])
        self.assertEqual(metrics["moduli.cell_for.calls"], 1)
        self.assertAlmostEqual(metrics["moduli.cell_for.p99_us"], 2.0)

    def test_tracer_records_nesting(self):
        tracer = spans.Tracer(clock=iter(range(100)).__next__)
        inner = tracer.wrap("inner", lambda x: x + 1)
        outer = tracer.wrap("outer{0}", lambda x: inner(x) * 2)
        self.assertEqual(outer(3), 8)
        self.assertEqual(tracer.spans, [("outer3", 0, 3, -1, None), ("inner", 1, 2, 0, None)])


if __name__ == "__main__":
    unittest.main()
