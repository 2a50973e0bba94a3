#!/usr/bin/env python3
"""Gate a change on the benchmark: parent against change, on one host.

    python3 tools/perf_gate.py PARENT_DIR CHANGE_DIR | --selftest

Runs the benchmark's command (`--workload W --seed i --seconds
<run_seconds> --trace 0`) PAIRS times per workload in each checkout,
alternating which side goes first. Fails (exit 1) if a run exits
non-zero or is not "correct", or if the change's median of an
end_to_end metric is worse than the parent's by more than its relative
`bound`, in its `better` direction. The parent's BENCHMARK.json decides,
so a change cannot loosen its own gate. Prints the medians and writes
every result and verdict to perf_gate.json.
"""

import json
import os
import statistics
import subprocess
import sys

PAIRS = 3
SIDES = ("parent", "change")


def run_once(spec, checkout, workload, seed):
    """The result line of one benchmark run, tagged with its exit code."""
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]),
                             "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE,
                          universal_newlines=True)
    try:
        result = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        result = {}
    result.update(exit=proc.returncode, seed=seed)
    return result


def median(results, name):
    vals = [r.get("metrics", {}).get(name, {}).get("value") for r in results]
    vals = [v for v in vals if v is not None]
    return statistics.median(vals) if vals else None


def decide(spec, runs):
    """(rows, failures) for runs = {workload: {side: [result line]}}."""
    rows, failures = [], []
    for workload, sides in runs.items():
        for side in SIDES:
            failures += ["%s %s seed %s: exit %s, correct %s" % (
                workload, side, r.get("seed"), r.get("exit", 0),
                r.get("correct")) for r in sides[side]
                if r.get("exit", 0) != 0 or r.get("correct") is not True]
        for m in spec["end_to_end"]:
            old = median(sides["parent"], m["name"])
            new = median(sides["change"], m["name"])
            if old is None:
                continue    # the workload does not report this metric
            if new is None:
                verdict = "MISSING"
            elif m["better"] == "lower":
                verdict = "WORSE" if new > old * (1 + m["bound"]) else "ok"
            else:
                verdict = "WORSE" if new < old * (1 - m["bound"]) else "ok"
            rows.append({"workload": workload, "metric": m["name"],
                         "parent": old, "change": new, "bound": m["bound"],
                         "verdict": verdict})
    return rows, failures + ["%(workload)s %(metric)s: %(verdict)s (parent "
                             "%(parent)s, change %(change)s)" % r
                             for r in rows if r["verdict"] != "ok"]


def gate(parent, change):
    with open(os.path.join(parent, "BENCHMARK.json")) as f:
        spec = json.load(f)
    runs = {w["name"]: {side: [] for side in SIDES} for w in spec["workloads"]}
    for w in runs:
        for i in range(PAIRS):
            for side in SIDES[::-1] if i % 2 else SIDES:
                runs[w][side].append(run_once(
                    spec, parent if side == "parent" else change, w, i + 1))
                print("perf_gate: ran %s %s seed %d" % (w, side, i + 1),
                      file=sys.stderr, flush=True)
    rows, failures = decide(spec, runs)
    fmt = "%-12s %-17s %10s %10s %8s %6s  %s"
    print(fmt % ("workload", "metric", "parent", "change", "delta",
                 "bound", "verdict"))
    for r in rows:
        old, new = r["parent"], r["change"]
        print(fmt % (r["workload"], r["metric"], "%.4g" % old,
                     "-" if new is None else "%.4g" % new,
                     "%+.1f%%" % (100.0 * (new - old) / old)
                     if old and new is not None else "-",
                     "%.0f%%" % (100.0 * r["bound"]), r["verdict"]))
    with open("perf_gate.json", "w") as f:
        json.dump({"pairs": PAIRS, "runs": runs, "rows": rows,
                   "failures": failures}, f, indent=1)
    print("\n".join("perf_gate: " + line for line in ["FAIL " + why for why
                     in failures] + ["FAIL" if failures else "pass"]))
    return 1 if failures else 0


def selftest():
    """Canned result lines around each declared bound must gate right."""
    with open(os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "..", "BENCHMARK.json")) as f:
        spec = json.load(f)
    base = {m["name"]: 1.0 for m in spec["end_to_end"]}

    def line(values, correct=True):
        return {"correct": correct,
                "metrics": {k: {"value": v} for k, v in values.items()}}

    def passes(change, correct):
        changed = dict(base, **change)
        runs = {"w": {"parent": [line(base)] * PAIRS,
                      "change": [line(changed, correct)] +
                      [line(changed)] * (PAIRS - 1)}}
        return not decide(spec, runs)[1]

    cases = [("a run with correct: false", {}, False, False),
             ("a metric the change stopped reporting",
              {spec["end_to_end"][0]["name"]: None}, True, False)]
    for m in spec["end_to_end"]:
        sign = 1 if m["better"] == "lower" else -1
        for what, by, want in (("worse past", 1.2, False),
                               ("worse inside", 0.8, True),
                               ("better by", -1.0, True)):
            cases.append(("%s %s its bound" % (m["name"], what),
                          {m["name"]: 1.0 + sign * by * m["bound"]}, True,
                          want))
    bad = [c[0] for c in cases if passes(c[1], c[2]) != c[3]]
    print("perf_gate selftest: %d/%d cases right%s" % (
        len(cases) - len(bad), len(cases), "".join(
            "\n  wrong verdict: " + name for name in bad)))
    return 1 if bad else 0


def main(argv):
    if argv == ["--selftest"]:
        return selftest()
    if len(argv) != 2 or any(a.startswith("-") for a in argv):
        print(__doc__.strip(), file=sys.stderr)
        return 2
    return gate(*argv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
