"""Self-tests of the benchmark.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

The span arithmetic tests are instant (select them alone with
``-k SpanArithmetic``). The end-to-end tests build the simulator and run
each workload briefly on a held-out seed (one never used while tuning
the benchmark), so they take a few minutes on two cores.
"""

import json
import subprocess
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402
import spans  # noqa: E402

HELD_OUT_SEED = 9_000_001


def span(name, start, end, parent=None):
    return {"name": name, "start": start, "end": end, "parent": parent, "run": 0}


class SpanArithmetic(unittest.TestCase):
    def test_leaf_self_time_is_its_duration(self):
        self.assertEqual(spans.self_times([span("a", 10, 25)]), [15])

    def test_nested_children_are_subtracted_at_each_level(self):
        s = [span("root", 0, 100), span("mid", 10, 60, 0), span("leaf", 20, 30, 1)]
        self.assertEqual(spans.self_times(s), [50, 40, 10])

    def test_overlapping_children_count_once(self):
        s = [span("p", 0, 100), span("a", 10, 50, 0), span("b", 30, 70, 0), span("c", 60, 65, 0)]
        self.assertEqual(spans.self_times(s)[0], 100 - 60)

    def test_children_outside_the_parent_are_clipped(self):
        s = [span("p", 10, 20), span("early", 0, 15, 0), span("late", 18, 40, 0)]
        self.assertEqual(spans.self_times(s)[0], 3)

    def test_totals_group_by_name(self):
        s = [span("p", 0, 10), span("x", 1, 3, 0), span("x", 4, 8, 0)]
        self.assertEqual(spans.totals(s), {"p": (1, 4, 10), "x": (2, 6, 6)})

    def test_recorder_nests_spans(self):
        rec = spans.Recorder()
        outer = rec.open("outer")
        inner = rec.open("inner", outer)
        rec.close(inner)
        rec.close(outer)
        self.assertEqual(rec.spans[inner]["parent"], outer)
        self.assertGreaterEqual(spans.self_times(rec.spans)[outer], 0)


def bench(workload, seed, trace, seconds=1):
    """Runs the benchmark command; returns (exit code, result, stdout)."""
    cmd = [sys.executable, str(run.BENCH / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True, timeout=900)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if done.returncode == 0 and lines else None
    return done.returncode, result, done.stdout


def info_line(stdout, key):
    prefix = f"{key}: "
    return next(line[len(prefix):] for line in stdout.splitlines() if line.startswith(prefix))


class HeldOutSeed(unittest.TestCase):
    """A seed never used while tuning gives the declared metric set, no
    failed operation, and the same simulated outputs when repeated."""

    def test_every_workload_and_mode(self):
        workloads, units = run.declared()
        for workload in workloads:
            for trace in (0, 1):
                with self.subTest(workload=workload, trace=trace):
                    code, result, _ = bench(workload, HELD_OUT_SEED, trace)
                    self.assertEqual(code, 0)
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertEqual(set(result["metrics"]), set(units[trace]))

    def test_seeded_outputs_repeat_exactly(self):
        first = bench("serve_unique", HELD_OUT_SEED, 0)
        again = bench("serve_unique", HELD_OUT_SEED, 0)
        other = bench("serve_unique", HELD_OUT_SEED + 1, 0)
        self.assertEqual(info_line(first[2], "digest"), info_line(again[2], "digest"))
        self.assertNotEqual(info_line(first[2], "digest"), info_line(other[2], "digest"))
        for name in ("sim_p99_us", "sim_uj_per_req", "sim_kreq_per_s"):
            self.assertEqual(first[1]["metrics"][name], again[1]["metrics"][name])


if __name__ == "__main__":
    unittest.main()
