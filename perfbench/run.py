#!/usr/bin/env python3
"""The momsim benchmark: one command per workload run.

    python3 perfbench/run.py --workload fig6_cold --seed 1 --seconds 30 --trace 0

Builds momsim and perfbench_tool from the checkout (Release, into
.bench_build/), refuses builds unfit for timing, runs one workload and
checks every output. --trace 0 prints the end-to-end metrics of
BENCHMARK.json, --trace 1 the per-layer ones. The last stdout line is
the result; the line before it reports the host fingerprint, a
host-speed index and the sample count behind every timing.
`--selftest` runs the benchmark's own tests. See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
import traceback

import build
import percentiles
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def host_index_ms():
    """Time of a fixed pure-Python loop, independent of the program.

    Reported beside every result so host-speed drift between runs can be
    told apart from a change in the program; it is not a metric.
    """
    t0 = time.perf_counter()
    total = 0
    for i in range(1000000):
        total += i * i
    return (time.perf_counter() - t0) * 1000.0


def collect(ctx, run):
    """Metric values of run(ctx).

    A failed check can leave too few good samples for a median or a
    percentile. The run then reports the failure, with the metrics that
    cannot be computed as null, rather than a sampling error.
    """
    try:
        return run(ctx)
    except (ValueError, ZeroDivisionError):
        if not ctx.ledger.failed:
            raise
        return {}


def result_of(ctx, values, declared, end_to_end):
    """The result line: checks from ctx.ledger, the declared metrics."""
    ledger = ctx.ledger
    values = dict(values)
    if end_to_end:
        values["ok_share"] = ((ledger.attempted - ledger.failed) /
                              ledger.attempted)
    metrics = {m["name"]: {"value": values.get(m["name"]), "unit": m["unit"]}
               for m in declared}
    return {"correct": ledger.failed == 0, "attempted": ledger.attempted,
            "failed": ledger.failed, "metrics": metrics}


def measure(args):
    host_before = host_index_ms()
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    build.build()
    cache = build.cache_vars()
    build.guard(cache)

    ctx = workloads.Context(args.workload, args.seed, args.seconds)
    run = workloads.traced if args.trace else workloads.UNTRACED[args.workload]
    declared = spec["per_layer" if args.trace else "end_to_end"]
    result = result_of(ctx, collect(ctx, run), declared, not args.trace)
    report = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, "fingerprint": build.fingerprint(cache),
              "host_index_ms": [host_before, host_index_ms()],
              "samples": ctx.samples, "failures": ctx.ledger.reasons}
    results = os.path.join(".bench_build", "results")
    os.makedirs(results, exist_ok=True)
    stem = os.path.join(results, "%s-%d-t%d-%d" % (
        args.workload, args.seed, args.trace, time.time_ns()))
    with open(stem + ".json", "w") as f:
        json.dump({"report": report, "result": result}, f, indent=1)
    if args.trace and os.path.exists(ctx.path("spans.jsonl")):
        os.replace(ctx.path("spans.jsonl"), stem + ".spans.jsonl")
    if result["correct"]:
        # Scripts, replies and logs stay only where a check failed.
        shutil.rmtree(ctx.work)
    print(json.dumps({"report": report}))
    print(json.dumps(result))


def selftest():
    build.build()
    tests = subprocess.call([sys.executable, "-m", "unittest", "discover",
                             "-s", "perfbench", "-p", "test_*.py"])
    return 0 if tests == 0 else 1


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=sorted(workloads.UNTRACED))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--selftest", action="store_true")
    args = p.parse_args()
    os.chdir(ROOT)
    try:
        if args.selftest:
            return selftest()
        if not args.workload:
            p.error("--workload is required")
        measure(args)
        return 0
    except (build.BuildError, percentiles.TooFewSamples) as e:
        print("perfbench: %s" % e, file=sys.stderr)
    except Exception:
        traceback.print_exc()
    return 1


if __name__ == "__main__":
    sys.exit(main())
