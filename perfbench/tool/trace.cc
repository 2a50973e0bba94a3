/**
 * @file
 * `perfbench_tool trace`: the traced run. It replays a workload's
 * script in process and times each layer from outside, by calling the
 * layer's public functions with a span around each call:
 *
 *  - phase 1 composes the request path itself, the way SimService does
 *    — SimRequest::fromJson, planSweep, ResultStore::find, a
 *    PointScheduler::Request whose ExecFn is this file's own (Simulation
 *    ctor + begin, advance, finish), ResultStore::put and
 *    SimResponse::toJson — so queue wait, construction and simulation
 *    are separable, and reads the exact counters of every simulated
 *    point (SmtCore::stats(), MemorySystem::statsOf());
 *  - phase 2 sends the same script through SimService::submit with
 *    spans only around parse, submit and serialize. It is the untraced
 *    reference: its wall time against phase 1's is the tracing
 *    overhead, and its replies must equal phase 1's;
 *  - phase 1 then runs once more with fresh state and no spans kept; its
 *    exact counts are printed beside the first pass's, which they must
 *    equal.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/simulation.hh"
#include "driver/bench_harness.hh"
#include "driver/experiment.hh"
#include "driver/point_scheduler.hh"
#include "driver/result_store.hh"
#include "svc/axis_parse.hh"
#include "svc/bench_registry.hh"
#include "svc/sim_request.hh"
#include "svc/sim_response.hh"
#include "svc/sim_service.hh"
#include "workloads/workload_repo.hh"

#include "rowcheck.hh"
#include "script.hh"
#include "spans.hh"
#include "tool.hh"

namespace perfbench
{

namespace
{

using namespace momsim;

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

/** Exact per-point counts, summed over every simulated point. */
struct Counts
{
    uint64_t cycles = 0, committedEq = 0, idleSkipped = 0;
    uint64_t fetched = 0, issued = 0, squashed = 0;
    uint64_t iqFullStalls = 0, robFullStalls = 0;
    uint64_t l1Accesses = 0, l1Misses = 0, l1MshrWait = 0;
    uint64_t l1BankConflicts = 0, icacheMisses = 0, l2Misses = 0;
    uint64_t dramReads = 0;
};

uint64_t
statOf(mem::MemorySystem &m, const char *group, const char *key)
{
    StatGroup *g = m.statsOf(group);
    return g ? g->get(key) : 0;
}

/** Identity of one sweep point inside a script (workload is fixed). */
std::string
pointTag(const driver::ExperimentSpec &spec)
{
    return spec.canonicalId() + "#" + std::to_string(spec.seed) + "@" +
           std::to_string(spec.maxCycles);
}

/** The grid SimService would build for @p req (its success path). */
bool
resolveGrid(const svc::SimRequest &req, driver::SweepGrid &grid,
            std::string &bench, std::string &why)
{
    if (!req.quick) {
        why = "benchmark scripts run at quick scale";
        return false;
    }
    if (!req.bench.empty()) {
        const svc::BenchDef *def = svc::findBench(req.bench);
        if (!def || !def->hasSweep()) {
            why = "no sweep bench " + req.bench;
            return false;
        }
        driver::BenchOptions opts;
        opts.quick = req.quick;
        opts.workloads = req.workloads;
        grid = def->grid(opts);
        bench = def->name;
    } else {
        std::vector<isa::SimdIsa> isas(req.isas.size());
        std::vector<mem::MemModel> mems(req.memModels.size());
        std::vector<cpu::FetchPolicy> policies(req.policies.size());
        for (size_t i = 0; i < isas.size(); ++i) {
            if (!svc::parseIsaToken(req.isas[i], isas[i]))
                why = "bad isa";
        }
        for (size_t i = 0; i < mems.size(); ++i) {
            if (!svc::parseMemModelToken(req.memModels[i], mems[i]))
                why = "bad memModel";
        }
        for (size_t i = 0; i < policies.size(); ++i) {
            if (!svc::parsePolicyToken(req.policies[i], policies[i]))
                why = "bad policy";
        }
        if (!why.empty())
            return false;
        if (!isas.empty())
            grid.isas(isas);
        if (!req.threads.empty())
            grid.threadCounts(req.threads);
        if (!mems.empty())
            grid.memModels(mems);
        if (!policies.empty())
            grid.policies(policies);
    }
    driver::applyRunSelection(grid, req.workloads, req.maxCycles);
    return true;
}

/** Phase 1: the request path composed from public calls, with spans. */
class TracedPath
{
  public:
    TracedPath(SpanLog &log, int workers)
        : _log(log), _sched(driver::PointScheduler::Config{ workers, 4096 })
    {}

    /** Put results through a store in @p dir, as a daemon with --cache-dir. */
    bool openStore(const std::string &dir)
    {
        if (!_storage.openDir(dir))
            return false;
        _store = &_storage;
        return true;
    }

    bool serve(const ScriptLine &line, uint64_t request, RowRefs &refs,
               std::string &why);

    driver::PointScheduler::Counters counters() const
    {
        return _sched.counters();
    }

    /** Build @p workload before the first request plans against it. */
    void prebuild(const std::string &workload)
    {
        Span s(_log, "workloads.build", Layer::Workloads, 0, 0);
        _repo.get(workload);
    }

    // Read once every request has finished.
    Counts counts;
    std::vector<double> planUsPerPoint, storeFindUs, storePutUs;
    std::vector<double> queueWaitMs, execMs;
    double constructNs = 0.0, advanceNs = 0.0;
    std::set<std::string> keys;             ///< distinct uncached keys
    std::vector<driver::ResultRow> sampleRows;

  private:
    std::vector<driver::ResultRow>
    execute(const std::vector<const driver::ExperimentSpec *> &specs);

    struct Added
    {
        int64_t ns = 0;
        uint64_t parent = 0;
        uint64_t request = 0;
    };

    SpanLog &_log;
    driver::ResultStore _storage;
    driver::ResultStore *_store = nullptr;
    workloads::WorkloadRepo _repo{ workloads::WorkloadScale::Tiny };
    std::mutex _mutex;      ///< guards _added and the public results
    std::unordered_map<std::string, Added> _added;
    // Last: its workers call execute(), which uses the members above.
    driver::PointScheduler _sched;
};

bool
TracedPath::serve(const ScriptLine &line, uint64_t request, RowRefs &refs,
                  std::string &why)
{
    Span root(_log, "svc.request", Layer::Svc, 0, request);
    svc::SimRequest req;
    {
        Span s(_log, "svc.parse", Layer::Svc, root.id(), request);
        if (!svc::SimRequest::fromJson(line.json, req, why))
            return false;
    }

    driver::RunPlan plan;
    std::string bench;
    {
        Span s(_log, "driver.plan", Layer::Driver, root.id(), request);
        driver::SweepGrid grid;
        if (!resolveGrid(req, grid, bench, why))
            return false;
        plan = driver::planSweep(grid.expand(req.seed), _repo);
        const double us = static_cast<double>(s.close()) / 1e3;
        std::lock_guard<std::mutex> lock(_mutex);
        planUsPerPoint.push_back(
            us / static_cast<double>(std::max<size_t>(1, plan.points.size())));
    }

    std::vector<size_t> todo;
    for (size_t i = 0; i < plan.points.size(); ++i) {
        driver::PlannedPoint &p = plan.points[i];
        if (_store) {
            Span s(_log, "driver.store_find", Layer::Driver, root.id(),
                   request);
            p.cached = _store->find(p.key, p.row);
            const double us = static_cast<double>(s.close()) / 1e3;
            std::lock_guard<std::mutex> lock(_mutex);
            storeFindUs.push_back(us);
        }
        if (!p.cached) {
            todo.push_back(i);
            std::lock_guard<std::mutex> lock(_mutex);
            keys.insert(p.key);
        }
    }

    std::vector<driver::ResultRow> fresh(todo.size());
    {
        Span sched(_log, "driver.schedule", Layer::Driver, root.id(),
                   request);
        std::mutex deliverMutex;
        driver::PointScheduler::Request pending(
            _sched,
            [this](const std::vector<const driver::ExperimentSpec *> &specs) {
                return execute(specs);
            },
            [&](size_t slot, const driver::ResultRow &row) {
                std::lock_guard<std::mutex> lock(deliverMutex);
                if (_store) {
                    Span s(_log, "driver.store_put", Layer::Driver,
                           sched.id(), request);
                    _store->put(plan.points[todo[slot]].key, row);
                    const double us = static_cast<double>(s.close()) / 1e3;
                    std::lock_guard<std::mutex> guard(_mutex);
                    storePutUs.push_back(us);
                }
                fresh[slot] = row;
            });
        for (size_t i : todo) {
            {
                std::lock_guard<std::mutex> lock(_mutex);
                _added.emplace(pointTag(plan.points[i].spec),
                               Added{ _log.nowNs(), sched.id(), request });
            }
            pending.add(plan.points[i].spec, plan.points[i].key);
        }
        pending.wait();
    }

    svc::SimResponse resp;
    resp.id = req.id;
    resp.ok = true;
    resp.bench = bench;
    resp.totalPoints = plan.points.size();
    resp.simulatedPoints = todo.size();
    resp.cachedPoints = plan.points.size() - todo.size();
    size_t next = 0;
    for (const driver::PlannedPoint &p : plan.points)
        resp.rows.push_back(p.cached ? p.row : fresh[next++]);
    resp.wallMs = static_cast<double>(_log.nowNs() - root.startNs()) / 1e6;
    std::string reply;
    {
        Span s(_log, "svc.serialize", Layer::Svc, root.id(), request);
        reply = resp.toJson();
    }
    {
        std::lock_guard<std::mutex> lock(_mutex);
        for (const driver::ResultRow &r : fresh) {
            if (sampleRows.size() < 256)
                sampleRows.push_back(r);
        }
    }
    root.close();
    return checkReply(reply, line, refs, why);
}

std::vector<driver::ResultRow>
TracedPath::execute(const std::vector<const driver::ExperimentSpec *> &specs)
{
    std::vector<driver::ResultRow> rows;
    for (const driver::ExperimentSpec *sp : specs) {
        const driver::ExperimentSpec &spec = *sp;
        const int64_t startNs = _log.nowNs();
        Added added;
        {
            std::lock_guard<std::mutex> lock(_mutex);
            auto it = _added.find(pointTag(spec));
            if (it != _added.end())
                added = it->second;
        }
        Span exec(_log, "driver.exec", Layer::Driver, added.parent,
                  added.request);

        // The same construction runSpecBatch performs per point.
        Span construct(_log, "core.construct", Layer::Core, exec.id(),
                       added.request);
        cpu::CoreConfig cfg =
            cpu::CoreConfig::preset(spec.threads, spec.simd, spec.policy);
        if (spec.tweakCore)
            spec.tweakCore(cfg);
        mem::MemConfig memCfg;
        if (spec.tweakMem)
            spec.tweakMem(memCfg);
        auto workload = _repo.get(spec.workload);
        core::Simulation sim(cfg, spec.memModel,
                             workload->rotation(spec.simd), memCfg);
        sim.begin(spec.targetCompletions, spec.maxCycles);
        const int64_t setupNs = construct.close();

        Span advance(_log, "core.advance", Layer::Core, exec.id(),
                     added.request);
        while (!sim.advance(driver::ExperimentRunner::kBatchQuantumCycles)) {
        }
        const int64_t advanceSpanNs = advance.close();

        core::RunResult run;
        {
            Span finish(_log, "core.finish", Layer::Core, exec.id(),
                        added.request);
            run = sim.finish();
        }

        driver::ResultRow row;
        row.id = spec.id.empty() ? spec.canonicalId() : spec.id;
        row.workload = spec.workload;
        row.simd = spec.simd;
        row.threads = spec.threads;
        row.memModel = spec.memModel;
        row.policy = spec.policy;
        row.variant = spec.variant;
        row.seed = spec.seed;
        row.run = run;
        row.headline = driver::ResultSink::headlineOf(run, spec.simd);
        row.wallMs = static_cast<double>(setupNs) / 1e6 + run.wallMs;
        rows.push_back(row);

        StatGroup &cs = sim.coreRef().stats();
        mem::MemorySystem &ms = sim.memRef();
        const double execNs = static_cast<double>(exec.close());
        std::lock_guard<std::mutex> lock(_mutex);
        counts.cycles += run.cycles;
        counts.committedEq += run.committedEq;
        counts.idleSkipped += cs.get("idleCyclesSkipped");
        counts.fetched += cs.get("fetched");
        counts.issued += cs.get("issued");
        counts.squashed += cs.get("squashed");
        counts.iqFullStalls += cs.get("iqFullStalls");
        counts.robFullStalls += cs.get("robFullStalls");
        counts.l1Accesses += statOf(ms, "l1", "accesses");
        counts.l1Misses += statOf(ms, "l1", "misses");
        counts.l1MshrWait += statOf(ms, "l1", "mshrWait");
        counts.l1BankConflicts += statOf(ms, "l1", "bankConflicts");
        counts.icacheMisses += statOf(ms, "icache", "misses");
        counts.l2Misses += statOf(ms, "l2", "misses");
        counts.dramReads += statOf(ms, "dram", "reads");
        constructNs += static_cast<double>(setupNs);
        advanceNs += static_cast<double>(advanceSpanNs);
        queueWaitMs.push_back(static_cast<double>(startNs - added.ns) / 1e6);
        execMs.push_back(execNs / 1e6);
    }
    return rows;
}

void
addMetric(std::string &out, const std::string &name, double v)
{
    char buf[160];
    std::snprintf(buf, sizeof(buf), "%s\"%s\":%.9g", out.empty() ? "" : ",",
                  name.c_str(), v);
    out += buf;
}

/** A phase-1 pass's exact counts, as JSON members. */
std::string
exactCounts(const TracedPath &path)
{
    const Counts &k = path.counts;
    std::string m;
    addMetric(m, "core.cycles", double(k.cycles));
    addMetric(m, "core.committed_eq", double(k.committedEq));
    addMetric(m, "cpu.fetched", double(k.fetched));
    addMetric(m, "cpu.issued", double(k.issued));
    addMetric(m, "cpu.squashed", double(k.squashed));
    addMetric(m, "cpu.iq_full_stalls", double(k.iqFullStalls));
    addMetric(m, "cpu.rob_full_stalls", double(k.robFullStalls));
    addMetric(m, "mem.l1.accesses", double(k.l1Accesses));
    addMetric(m, "mem.l1.misses", double(k.l1Misses));
    addMetric(m, "mem.l1.mshr_wait", double(k.l1MshrWait));
    addMetric(m, "mem.l1.bank_conflicts", double(k.l1BankConflicts));
    addMetric(m, "mem.icache.misses", double(k.icacheMisses));
    addMetric(m, "mem.l2.misses", double(k.l2Misses));
    addMetric(m, "mem.dram.reads", double(k.dramReads));
    addMetric(m, "driver.points_simulated",
              double(path.counters().pointsSimulated));
    return m;
}

/** Phase-2 timings, per request, through SimService::submit. */
struct ServiceTimes
{
    std::vector<double> parseUs, submitMs, serializeUs, bytes;
    std::vector<double> totalMs;    ///< parse+submit+serialize
};

struct Failures
{
    std::mutex mutex;
    long attempted = 0, failed = 0;
    std::vector<std::string> reasons;

    void note(bool ok, const std::string &what)
    {
        std::lock_guard<std::mutex> lock(mutex);
        ++attempted;
        if (!ok) {
            ++failed;
            if (reasons.size() < 5)
                reasons.push_back(what);
        }
    }
};

/** Run @p fn(conn, line, index) over every line, one thread per conn. */
template <typename Fn>
void
replay(const Script &script, Fn fn)
{
    std::vector<std::thread> threads;
    for (size_t c = 0; c < script.size(); ++c) {
        threads.emplace_back([&script, &fn, c] {
            for (size_t i = 0; i < script[c].size(); ++i)
                fn(c, script[c][i], i);
        });
    }
    for (std::thread &t : threads)
        t.join();
}

double
elapsedS(std::chrono::steady_clock::time_point since)
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         since)
        .count();
}

} // namespace

int
runTrace(const Args &args)
{
    Script main;
    RowRefs refs;
    std::string error;
    if (!loadScript(args.get("--script"), main, error) ||
        (args.has("--shapes") &&
         !refs.loadShapes(args.get("--shapes"), error))) {
        std::fprintf(stderr, "perfbench_tool trace: %s\n", error.c_str());
        return 2;
    }
    // Phase 1 takes each point's row from the first reply carrying it;
    // every later reply, and all of phase 2, must agree.
    const int jobs = static_cast<int>(args.number("--jobs", 2));
    Failures failures;
    SpanLog log;

    // workloads.build_ms: a fresh repository per build, as every new
    // process (CLI run or daemon) pays it.
    std::vector<double> buildMs;
    for (int i = 0; i < 3; ++i) {
        workloads::WorkloadRepo repo(workloads::WorkloadScale::Tiny);
        Span s(log, "workloads.build", Layer::Workloads, 0, 0);
        repo.get("paper");
        buildMs.push_back(static_cast<double>(s.close()) / 1e6);
    }

    // ---- phase 1: traced composition ----
    // One pass over the scripts with a fresh scheduler, repository and
    // store in @p storeName; returns nullptr if the store cannot open.
    const bool useStore = args.has("--cache-dir");
    auto tracedPass = [&](SpanLog &spans, const std::string &storeName) {
        auto path = std::make_unique<TracedPath>(spans, jobs);
        if (useStore &&
            !path->openStore(args.get("--cache-dir") + "/" + storeName))
            return std::unique_ptr<TracedPath>();
        // Every script runs the paper workload at quick scale. Both
        // phases build it before their first request, as the CLI and
        // the daemon do, so planning times exclude it.
        path->prebuild("paper");
        uint64_t nextRequest = 1;
        std::mutex requestMutex;
        auto tracedLine = [&](size_t, const ScriptLine &line, size_t) {
            uint64_t request;
            {
                std::lock_guard<std::mutex> lock(requestMutex);
                request = nextRequest++;
            }
            std::string why;
            bool ok = path->serve(line, request, refs, why);
            failures.note(ok, "traced " + line.id + ": " + why);
        };
        replay(main, tracedLine);
        return path;
    };
    auto t1 = std::chrono::steady_clock::now();
    std::unique_ptr<TracedPath> traced = tracedPass(log, "phase1");
    const double phase1S = elapsedS(t1);
    if (!traced) {
        std::fprintf(stderr, "perfbench_tool trace: cannot open store\n");
        return 2;
    }
    TracedPath &path = *traced;

    // ---- phase 2: SimService::submit, untraced inside ----
    auto t2 = std::chrono::steady_clock::now();
    svc::SimService service(svc::SimServiceConfig{ jobs, 4096 });
    if (useStore &&
        !service.openCache(args.get("--cache-dir") + "/phase2", error)) {
        std::fprintf(stderr, "perfbench_tool trace: %s\n", error.c_str());
        return 2;
    }
    service.repo(true).get("paper");
    ServiceTimes times;
    long serviceFailed = 0;
    std::mutex timesMutex;
    auto submitLine = [&](size_t, const ScriptLine &line, size_t) {
        using clock = std::chrono::steady_clock;
        auto a = clock::now();
        svc::SimRequest req;
        std::string why;
        bool ok = svc::SimRequest::fromJson(line.json, req, why);
        auto b = clock::now();
        svc::SimResponse resp;
        if (ok)
            resp = service.submit(req);
        auto c = clock::now();
        const std::string reply = resp.toJson();
        auto d = clock::now();
        ok = ok && checkReply(reply, line, refs, why);
        failures.note(ok, "service " + line.id + ": " + why);
        std::lock_guard<std::mutex> lock(timesMutex);
        serviceFailed += ok ? 0 : 1;
        times.parseUs.push_back(
            std::chrono::duration<double, std::micro>(b - a).count());
        times.submitMs.push_back(
            std::chrono::duration<double, std::milli>(c - b).count());
        times.serializeUs.push_back(
            std::chrono::duration<double, std::micro>(d - c).count());
        times.bytes.push_back(static_cast<double>(reply.size()));
        times.totalMs.push_back(
            std::chrono::duration<double, std::milli>(d - a).count());
    };
    replay(main, submitLine);
    const double phase2S = elapsedS(t2);

    // A second phase-1 pass, spans discarded: its exact counts must
    // equal the first pass's (the caller compares them).
    SpanLog repeatLog;
    std::unique_ptr<TracedPath> repeat = tracedPass(repeatLog, "repeat");
    if (!repeat) {
        std::fprintf(stderr, "perfbench_tool trace: cannot open store\n");
        return 2;
    }

    // driver.row_serialize_us: serializeResultRow over sampled rows.
    std::vector<double> rowUs;
    for (const driver::ResultRow &row : path.sampleRows) {
        for (int rep = 0; rep < 3; ++rep) {
            auto a = std::chrono::steady_clock::now();
            std::string text = driver::serializeResultRow(row);
            auto b = std::chrono::steady_clock::now();
            if (text.empty())
                failures.note(false, "empty serialized row");
            rowUs.push_back(
                std::chrono::duration<double, std::micro>(b - a).count());
        }
    }

    // Exactly one simulation per distinct uncached key, in both phases.
    const driver::PointScheduler::Counters pc = path.counters();
    const driver::PointScheduler::Counters sc = service.counters();
    const uint64_t distinct = path.keys.size();
    failures.note(pc.pointsSimulated == distinct,
                  "traced path simulated " +
                      std::to_string(pc.pointsSimulated) + " points for " +
                      std::to_string(distinct) + " distinct keys");
    failures.note(sc.pointsSimulated == distinct,
                  "service simulated " + std::to_string(sc.pointsSimulated) +
                      " points for " + std::to_string(distinct) +
                      " distinct keys");

    if (args.has("--spans") && !log.write(args.get("--spans"))) {
        std::fprintf(stderr, "perfbench_tool trace: cannot write spans\n");
        return 2;
    }

    const Counts &k = path.counts;
    const double requested = static_cast<double>(
        pc.pointsSimulated + pc.pointsDeduped + pc.memCacheHits);
    const auto self = log.selfNs();
    std::string m = exactCounts(path);
    auto metric = [&m](const std::string &name, double v) {
        addMetric(m, name, v);
    };
    metric("workloads.build_ms", median(buildMs));
    metric("core.construct_ms", path.constructNs / 1e6);
    metric("core.advance_ms", path.advanceNs / 1e6);
    metric("core.ns_per_eq", ratio(path.advanceNs, double(k.committedEq)));
    metric("core.ff_share", ratio(double(k.idleSkipped), double(k.cycles)));
    metric("driver.plan_us_per_point", median(path.planUsPerPoint));
    metric("driver.row_serialize_us", median(rowUs));
    metric("driver.memcache_hit_share",
           ratio(double(pc.memCacheHits), requested));
    metric("driver.queue_wait_ms", median(path.queueWaitMs));
    metric("driver.exec_ms", median(path.execMs));
    metric("driver.dedup_share", ratio(double(pc.pointsDeduped), requested));
    metric("driver.store_put_us", median(path.storePutUs));
    metric("driver.store_find_us", median(path.storeFindUs));
    metric("svc.parse_us", median(times.parseUs));
    metric("svc.serialize_us", median(times.serializeUs));
    metric("svc.response_bytes", median(times.bytes));
    metric("svc.submit_ms", median(times.submitMs));
    metric("svc.failed", double(serviceFailed));
    for (size_t l = 0; l < self.size(); ++l) {
        metric(std::string("layer.") + layerName(static_cast<Layer>(l)) +
                   ".self_ms",
               self[l] / 1e6);
    }
    metric("trace.overhead_share", ratio(phase1S - phase2S, phase2S));
    metric("trace.spans", double(log.size()));

    std::string why;
    for (size_t i = 0; i < failures.reasons.size(); ++i)
        why += (i ? "," : "") + jsonString(failures.reasons[i]);
    std::printf("{\"attempted\":%ld,\"failed\":%ld,\"reasons\":[%s],"
                "\"inproc_p50_ms\":%.9g,\"metrics\":{%s},"
                "\"repeat\":{%s}}\n",
                failures.attempted, failures.failed, why.c_str(),
                median(times.totalMs), m.c_str(), exactCounts(*repeat).c_str());
    return 0;
}

} // namespace perfbench
