"""Self-tests of the benchmark's own code.

    python3 perfbench/run.py --selftest      # builds the tool first
    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import os
import re
import shutil
import subprocess
import tempfile
import unittest

import build
import percentiles
import run
import scripts
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class PercentileTests(unittest.TestCase):
    def test_p95_needs_ten_samples_beyond_it(self):
        self.assertEqual(percentiles.min_samples(95), 200)
        self.assertEqual(percentiles.min_samples(50), 20)
        with self.assertRaises(percentiles.TooFewSamples):
            percentiles.percentile(list(range(199)), 95)
        # loadgen's default 32 requests cannot support a p95.
        with self.assertRaises(percentiles.TooFewSamples):
            percentiles.percentile([1.0] * 32, 95)

    def test_nearest_rank(self):
        values = list(range(1, 201))
        self.assertEqual(percentiles.percentile(values, 95), 190)
        self.assertEqual(percentiles.samples_beyond(200, 95), 10)
        self.assertEqual(percentiles.percentile(values[::-1], 50), 100)

    def test_median(self):
        self.assertEqual(percentiles.median([3, 1, 2]), 2)
        self.assertEqual(percentiles.median([4, 1, 2, 3]), 2.5)
        with self.assertRaises(percentiles.TooFewSamples):
            percentiles.median([])


class ScriptTests(unittest.TestCase):
    @staticmethod
    def requests(lines):
        return [json.loads(line.split("\t", 5)[5]) for line in lines]

    def test_same_seed_same_inputs(self):
        self.assertEqual(scripts.serve_mixed(7), scripts.serve_mixed(7))
        self.assertNotEqual(scripts.serve_mixed(7), scripts.serve_mixed(8))

    def test_mixed_traffic(self):
        prime, main = scripts.serve_mixed(3, cycles_per_conn=4)
        kinds = [line.split("\t")[1] for line in main]
        self.assertEqual(kinds.count("cold8"), 4 * 4)
        # Half the sweeps shared, as loadgen's default --overlap 50.
        self.assertEqual(kinds.count("shared8"), kinds.count("cold8"))
        # SMALL_PER_GAP 1-point requests per sweep on average: enough
        # for the floor in the sweeps of one run.
        self.assertEqual(scripts.SMALL_FLOOR, percentiles.min_samples(95))
        self.assertGreaterEqual(
            scripts.SMALL_PER_GAP * scripts.SWEEPS_PER_RUN, scripts.SMALL_FLOOR)
        gaps = 2 * 4 * 4
        self.assertGreaterEqual(kinds.count("small1"),
                                gaps * (scripts.SMALL_PER_GAP - 2))
        self.assertLessEqual(kinds.count("small1"),
                             gaps * (scripts.SMALL_PER_GAP + 2) +
                             4 * 2 * scripts.SMALL_PER_GAP)
        cold = [r["seed"] for line, r in zip(main, self.requests(main))
                if line.split("\t")[1] == "cold8"]
        self.assertEqual(len(cold), len(set(cold)))
        shared = {}
        for line, r in zip(main, self.requests(main)):
            if line.split("\t")[1] == "shared8":
                shared.setdefault(r["seed"], set()).add(line[0])
        self.assertLessEqual(len(shared), scripts.SHARED_SWEEPS)
        self.assertTrue(any(len(conns) > 1 for conns in shared.values()))
        self.assertNotIn(self.requests(prime)[0]["seed"],
                         {r["seed"] for r in self.requests(main)})


class GuardTests(unittest.TestCase):
    def test_refuses_unfit_builds(self):
        with self.assertRaises(build.BuildError):
            build.guard({"CMAKE_BUILD_TYPE": "Debug", "MOMSIM_SANITIZE": ""})
        with self.assertRaises(build.BuildError):
            build.guard({"CMAKE_BUILD_TYPE": "Release",
                         "MOMSIM_SANITIZE": "address,undefined"})
        build.guard({"CMAKE_BUILD_TYPE": "Release", "MOMSIM_SANITIZE": ""})


def _context(tmp, workload="fig6_cold"):
    cwd = os.getcwd()
    os.chdir(tmp)
    try:
        return workloads.Context(workload, 1, 1)
    finally:
        os.chdir(cwd)


class ExactCountTests(unittest.TestCase):
    def test_moved_count_fails(self):
        with tempfile.TemporaryDirectory() as tmp:
            ctx = _context(tmp)
            counts = {k: 5 for k in workloads.EXACT_COUNTS}
            workloads.check_exact_counts(ctx, counts, dict(counts))
            self.assertEqual(ctx.ledger.failed, 0)
            moved = dict(counts, **{"cpu.squashed": 6})
            workloads.check_exact_counts(ctx, counts, moved)
            self.assertEqual(ctx.ledger.failed, 1)
            self.assertIn("cpu.squashed", ctx.ledger.reasons[0])
            workloads.check_exact_counts(ctx, counts, {})
            self.assertEqual(ctx.ledger.failed, 2)


class FailureReportTests(unittest.TestCase):
    DECLARED = [{"name": "lat_p95_ms", "unit": "ms"},
                {"name": "ok_share", "unit": "ratio"}]

    def test_failed_check_is_reported_not_a_sampling_error(self):
        def wrong_sweep(ctx):
            ctx.ledger.op(True)
            ctx.ledger.op(False, "stdout differs from golden")
            return {"lat_p95_ms": percentiles.percentile([1.0], 95)}

        with tempfile.TemporaryDirectory() as tmp:
            ctx = _context(tmp)
            result = run.result_of(ctx, run.collect(ctx, wrong_sweep),
                                   self.DECLARED, True)
        self.assertFalse(result["correct"])
        self.assertEqual((result["attempted"], result["failed"]), (2, 1))
        self.assertIsNone(result["metrics"]["lat_p95_ms"]["value"])
        self.assertEqual(result["metrics"]["ok_share"]["value"], 0.5)
        self.assertEqual(ctx.ledger.reasons, ["stdout differs from golden"])

    def test_thin_tail_without_failure_still_refused(self):
        with tempfile.TemporaryDirectory() as tmp:
            ctx = _context(tmp)
            ctx.ledger.op(True)
            with self.assertRaises(percentiles.TooFewSamples):
                run.collect(ctx, lambda c: percentiles.percentile([1.0], 95))


class SpecTests(unittest.TestCase):
    def test_benchmark_json(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        self.assertEqual(set(spec), {"command", "paths", "run_seconds",
                                     "workloads", "end_to_end", "per_layer"})
        self.assertEqual([w["name"] for w in spec["workloads"]],
                         ["fig6_cold", "serve_mixed"])
        names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertRegex(name, r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
        bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
        self.assertTrue(all(0 < b <= 0.25 for b in bounds.values()))
        self.assertEqual(bounds["setup_s"], max(bounds.values()))
        exact = set(workloads.EXACT_COUNTS)
        self.assertTrue(exact <= {m["name"] for m in spec["per_layer"]})


@unittest.skipUnless(os.path.exists(os.path.join(ROOT, build.TOOL)) and
                     os.path.exists(os.path.join(ROOT, build.MOMSIM)),
                     "not built (run.py --selftest builds it)")
class ToolTests(unittest.TestCase):
    def test_wrong_fig6_stdout_fails_the_run(self):
        cwd = os.getcwd()
        golden = workloads.GOLDEN_FIG6
        with tempfile.TemporaryDirectory() as tmp:
            wrong = os.path.join(tmp, "wrong.stdout")
            with open(os.path.join(ROOT, golden), "rb") as f:
                with open(wrong, "wb") as g:
                    g.write(f.read().replace(b"MOM", b"M0M", 1))
            os.chdir(ROOT)
            workloads.GOLDEN_FIG6 = wrong
            try:
                ctx = workloads.Context("fig6_cold", 1, 1)
                values = run.collect(ctx, workloads.fig6_cold)
            finally:
                workloads.GOLDEN_FIG6 = golden
                os.chdir(cwd)
                shutil.rmtree(os.path.join(ROOT, ctx.work),
                              ignore_errors=True)
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            declared = json.load(f)["end_to_end"]
        result = run.result_of(ctx, values, declared, True)
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"], 0)
        self.assertIn("differs from golden", " ".join(ctx.ledger.reasons))
        self.assertLess(result["metrics"]["ok_share"]["value"], 1.0)

    def test_wrong_row_counts_as_failed(self):
        out = subprocess.run([os.path.join(ROOT, build.TOOL), "selftest"],
                             capture_output=True, text=True)
        self.assertEqual(out.returncode, 0, out.stderr)
        self.assertIn("selftest ok", out.stdout)

    def test_reference_rows_are_seedless(self):
        with open(os.path.join(ROOT, workloads.SHAPES)) as f:
            rows = [l.split("\t") for l in f if not l.startswith("#")]
        self.assertEqual(len(rows), 16)
        for key, row in rows:
            self.assertRegex(key, r"^paper/(MMX|MOM)/[1248]thr/perfect/RR@")
            self.assertIsNone(re.search(r'"(seed|wall_ms|sim_kcps)"', row))


if __name__ == "__main__":
    unittest.main()
