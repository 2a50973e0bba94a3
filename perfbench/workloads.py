"""The workloads, measured untraced (end-to-end metrics) or traced
(per-layer metrics). See README.md for why each exists."""

import json
import os
import signal
import subprocess
import time

import build
import percentiles
import scripts

GOLDEN_FIG6 = os.path.join("tests", "golden", "cli", "fig6_quick.stdout")
SHAPES = os.path.join("perfbench", "reference", "serve_rows.tsv")
FIG6_POINTS = 28
SERVE_JOBS = 2
SETUPS = {"fig6_cold": 9, "serve_mixed": 9}
MIN_SMALL = percentiles.min_samples(95)


class Ledger:
    """Operations attempted and failed (wrong output counts as failed)."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons = []

    def op(self, ok, why=""):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.reasons) < 10:
                self.reasons.append(why)

    def add(self, summary, what):
        """Fold in a perfbench_tool summary."""
        self.attempted += summary["attempted"]
        self.failed += summary["failed"]
        for why in summary["reasons"]:
            if len(self.reasons) < 10:
                self.reasons.append("%s: %s" % (what, why))


class Context:
    def __init__(self, workload, seed, seconds):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.ledger = Ledger()
        self.samples = {}
        self.work = os.path.join(".bench_build", "runs",
                                 "%s-%d-%d" % (workload, seed, os.getpid()))
        os.makedirs(self.work, exist_ok=True)

    def path(self, name):
        return os.path.join(self.work, name)

    def script(self, name, lines):
        p = self.path(name)
        scripts.write(p, lines)
        return p


def _tool(ctx, args, timeout=170):
    out = subprocess.run([build.TOOL] + args, capture_output=True, text=True,
                         timeout=timeout)
    if out.returncode != 0:
        raise RuntimeError("perfbench_tool %s exited %d: %s"
                           % (args[0], out.returncode, out.stderr.strip()))
    return json.loads(out.stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------- fig6


def _run_cli(ctx, args, tag):
    """Run momsim; returns (wall_s, stdout bytes, exit code, maxrss_kb)."""
    out_path, err_path = ctx.path(tag + ".out"), ctx.path(tag + ".err")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen([build.MOMSIM] + args, stdout=out, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, "rb") as f:
        return wall, f.read(), proc.returncode, usage.ru_maxrss


def _csv_wall_ms(path):
    with open(path) as f:
        header = f.readline().rstrip("\n").split(",")
        col = header.index("wall_ms")
        return [float(line.rstrip("\n").split(",")[col]) for line in f]


def _fig6_sweep(ctx, jobs, golden, tag):
    csv = ctx.path(tag + ".csv")
    wall, out, rc, rss = _run_cli(
        ctx, ["fig6", "--quick", "--jobs", str(jobs), "--seed",
              str(ctx.seed), "--csv", csv], tag)
    ok = rc == 0 and out == golden
    points = _csv_wall_ms(csv) if ok else []
    ok = ok and len(points) == FIG6_POINTS
    ctx.ledger.op(ok, "fig6 --jobs %d: exit %d, stdout %s golden, %d rows"
                  % (jobs, rc, "matches" if out == golden else "differs from",
                     len(points)))
    return wall, points, rss


def fig6_cold(ctx):
    with open(GOLDEN_FIG6, "rb") as f:
        golden = f.read()
    setup = []
    for i in range(SETUPS["fig6_cold"]):
        wall, out, rc, _ = _run_cli(
            ctx, ["fig6", "--quick", "--dry-run", "--seed", str(ctx.seed)],
            "dry%d" % i)
        ctx.ledger.op(rc == 0 and out.startswith(b"plan fig6: total=28 "),
                      "fig6 --dry-run: exit %d" % rc)
        setup.append(wall)

    serial, parallel, point_ms, rss = [], [], [], []
    start = time.perf_counter()
    # Whole --jobs 1/--jobs 4 pairs until the run time is spent and the
    # per-point p95 has its ten samples beyond it.
    while not ctx.ledger.failed and (time.perf_counter() - start <
                                     ctx.seconds or len(point_ms) < MIN_SMALL):
        for jobs, walls in ((1, serial), (4, parallel)):
            wall, points, peak = _fig6_sweep(
                ctx, jobs, golden, "sweep%d-j%d" % (len(serial), jobs))
            walls.append(wall)
            point_ms.extend(points)
            rss.append(peak)
    ctx.samples.update({"setup_s": len(setup), "sweep_s": len(serial),
                        "sweep_jobs4_s": len(parallel),
                        "lat_ms": len(point_ms)})
    p95 = percentiles.percentile(point_ms, 95)
    return {
        "setup_s": percentiles.median(setup),
        "sweep_s": percentiles.median(serial),
        "sweep_jobs4_s": percentiles.median(parallel),
        "points_per_s": FIG6_POINTS * (len(serial) + len(parallel)) /
        (sum(serial) + sum(parallel)),
        "lat_p50_ms": percentiles.median(point_ms),
        "lat_p95_ms": p95,
        # Every unit of work in a CLI sweep is one point.
        "small_lat_p95_ms": p95,
        "peak_rss_mb": max(rss) / 1024.0,
    }


# ---------------------------------------------------------------- serve


class Daemon:
    """A `momsim serve --jobs 2` daemon on a unix socket."""

    def __init__(self, ctx, tag, cache_dir=None):
        self.dir = ctx.path(tag)
        os.makedirs(self.dir, exist_ok=True)
        self.sock = os.path.join(self.dir, "s.sock")
        ready = os.path.join(self.dir, "ready")
        args = [build.MOMSIM, "serve", "--unix", self.sock, "--jobs",
                str(SERVE_JOBS), "--ready-file", ready]
        if cache_dir:
            args += ["--cache-dir", cache_dir]
        self._log = open(os.path.join(self.dir, "serve.log"), "wb")
        self.proc = subprocess.Popen(args, stdout=subprocess.DEVNULL,
                                     stderr=self._log)
        deadline = time.monotonic() + 30
        while not os.path.exists(ready):
            if self.proc.poll() is not None or time.monotonic() > deadline:
                self.kill()
                raise RuntimeError("momsim serve did not become ready")
            time.sleep(0.0005)

    def reset_peak(self):
        """Restart VmHWM, so it covers only what runs from now on."""
        with open("/proc/%d/clear_refs" % self.proc.pid, "w") as f:
            f.write("5")

    def vm_hwm_mb(self):
        with open("/proc/%d/status" % self.proc.pid) as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM for the daemon")

    def stop(self):
        """Drain with SIGTERM; returns the exit code."""
        self.proc.send_signal(signal.SIGTERM)
        try:
            return self.proc.wait(timeout=60)
        finally:
            self.kill()

    def kill(self):
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()
        self._log.close()


def _client(ctx, daemon, script, tag, *extra):
    lat = ctx.path(tag + ".lat")
    summary = _tool(ctx, ["client", "--unix", daemon.sock, "--script", script,
                          "--shapes", SHAPES, "--latencies", lat] +
                    list(extra))
    ctx.ledger.add(summary, tag)
    return lat


def _read_latencies(path):
    """[(kind, latency_ms, points, end_s)] of the replies that checked."""
    out = []
    with open(path) as f:
        for line in f:
            kind, ms, points, end, ok = line.split("\t")
            if ok.strip() == "1":
                out.append((kind, float(ms), int(points), float(end)))
    return out


def _serve_metrics(ctx, lat_path, rss_mb):
    """End-to-end metrics of one measured client run."""
    rows = _read_latencies(lat_path)
    every = [ms for _, ms, _, _ in rows]
    sweeps = [ms for kind, ms, _, _ in rows if kind == "cold8"]
    small = [ms for _, ms, points, _ in rows if points == 1]
    # Throughput counts the replies completed inside the measured
    # window, up to the last of them.
    done = [(points, end) for _, _, points, end in rows
            if end <= ctx.seconds]
    span_s = max(end for _, end in done)
    ctx.samples.update({"lat_ms": len(every), "sweep_ms": len(sweeps),
                        "small_lat_ms": len(small)})
    return {
        "sweep_s": percentiles.median(sweeps) / 1000.0,
        # Four closed-loop connections answer four sweeps in this time.
        "sweep_jobs4_s": 4.0 * span_s /
        sum(1 for points, _ in done if points > 1),
        "points_per_s": sum(points for points, _ in done) / span_s,
        "lat_p50_ms": percentiles.median(every),
        "lat_p95_ms": percentiles.percentile(every, 95),
        "small_lat_p95_ms": percentiles.percentile(small, 95),
        "peak_rss_mb": rss_mb,
    }


def _stop(ctx, daemon):
    rc = daemon.stop()
    ctx.ledger.op(rc == 0, "daemon drain exited %s" % rc)


def serve_mixed(ctx):
    prime, main = scripts.serve_mixed(ctx.seed)
    prime_path = ctx.script("prime.tsv", prime)
    main_path = ctx.script("main.tsv", main)
    setup, daemon = [], None
    for i in range(SETUPS["serve_mixed"]):
        if daemon:
            _stop(ctx, daemon)
        t0 = time.perf_counter()
        daemon = Daemon(ctx, "daemon%d" % i, cache_dir=ctx.path("store%d" % i))
        try:
            _client(ctx, daemon, prime_path, "prime%d" % i)
        except Exception:
            daemon.kill()
            raise
        setup.append(time.perf_counter() - t0)
    try:
        daemon.reset_peak()
        lat = _client(ctx, daemon, main_path, "main", "--seconds",
                      str(ctx.seconds), "--min-small", str(MIN_SMALL))
        metrics = _serve_metrics(ctx, lat, daemon.vm_hwm_mb())
    except Exception:
        daemon.kill()
        raise
    _stop(ctx, daemon)
    ctx.samples["setup_s"] = len(setup)
    metrics["setup_s"] = percentiles.median(setup)
    return metrics


UNTRACED = {"fig6_cold": fig6_cold, "serve_mixed": serve_mixed}


# ---------------------------------------------------------------- traced

# Cycles per connection of the traced serve_mixed script.
TRACED_MIXED_CYCLES = 2

EXACT_COUNTS = ("core.cycles", "core.committed_eq", "cpu.fetched",
                "cpu.issued", "cpu.squashed", "cpu.iq_full_stalls",
                "cpu.rob_full_stalls", "mem.l1.accesses", "mem.l1.misses",
                "mem.l1.mshr_wait", "mem.l1.bank_conflicts",
                "mem.icache.misses", "mem.l2.misses", "mem.dram.reads",
                "driver.points_simulated")


def _socket_p50(ctx, main_path):
    """Median latency of the script over a daemon's socket, once."""
    daemon = Daemon(ctx, "traced-daemon", cache_dir=ctx.path("traced-store"))
    try:
        lat = _client(ctx, daemon, main_path, "traced-main")
    except Exception:
        daemon.kill()
        raise
    _stop(ctx, daemon)
    return percentiles.median([ms for _, ms, _, _ in _read_latencies(lat)])


def check_exact_counts(ctx, metrics, repeat):
    """The traced replay's second phase-1 pass must repeat every count."""
    moved = sorted(k for k in EXACT_COUNTS if repeat.get(k) != metrics[k])
    ctx.ledger.op(not moved, "exact counts differ between two traced "
                  "passes: %s" % ", ".join(moved))


def traced(ctx):
    if ctx.workload == "fig6_cold":
        main_path = ctx.script("trace.tsv", scripts.fig6(ctx.seed))
        args = ["--jobs", "1"]
    else:
        _, main = scripts.serve_mixed(ctx.seed, TRACED_MIXED_CYCLES)
        main_path = ctx.script("trace.tsv", main)
        args = ["--jobs", str(SERVE_JOBS), "--shapes", SHAPES,
                "--cache-dir", ctx.path("trace-store")]
    result = _tool(ctx, ["trace", "--script", main_path, "--spans",
                         ctx.path("spans.jsonl")] + args)
    ctx.ledger.add(result, "trace")
    metrics = dict(result["metrics"])

    # svc.transport_ms: the same requests over the daemon's socket,
    # minus their in-process parse + submit + serialize. The CLI sweep
    # of fig6_cold has no transport, so it reads 0 there.
    metrics["svc.transport_ms"] = 0.0
    if ctx.workload != "fig6_cold":
        metrics["svc.transport_ms"] = (_socket_p50(ctx, main_path) -
                                       result["inproc_p50_ms"])
    check_exact_counts(ctx, metrics, result["repeat"])
    return metrics
