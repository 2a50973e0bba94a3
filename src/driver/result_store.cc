#include "driver/result_store.hh"

#include <sys/stat.h>
#include <sys/types.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <numeric>

#include "common/hash.hh"
#include "common/logging.hh"

namespace momsim::driver
{

namespace
{

/**
 * Exact double rendering: 17 significant digits guarantee that strtod
 * of the output returns the bit-identical value, so a cached row
 * re-renders (CSV %.6g, table %.2f, ...) byte-identically to the run
 * that produced it. Presentation formats live in ResultSink; this one
 * is for storage only.
 */
std::string
exactNum(double v)
{
    return strfmt("%.17g", v);
}

bool
skipWs(const std::string &s, size_t &i)
{
    while (i < s.size() && (s[i] == ' ' || s[i] == '\t'))
        ++i;
    return i < s.size();
}

bool
parseQuoted(const std::string &s, size_t &i, std::string &out)
{
    if (i >= s.size() || s[i] != '"')
        return false;
    ++i;
    out.clear();
    while (i < s.size() && s[i] != '"') {
        char c = s[i++];
        if (c != '\\') {
            out += c;
            continue;
        }
        if (i >= s.size())
            return false;
        char e = s[i++];
        switch (e) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case 'n': out += '\n'; break;
          case 't': out += '\t'; break;
          case 'u': {
            if (i + 4 > s.size())
                return false;
            unsigned v = 0;
            for (int k = 0; k < 4; ++k) {
                char h = s[i++];
                v <<= 4;
                if (h >= '0' && h <= '9')
                    v |= static_cast<unsigned>(h - '0');
                else if (h >= 'a' && h <= 'f')
                    v |= static_cast<unsigned>(h - 'a' + 10);
                else if (h >= 'A' && h <= 'F')
                    v |= static_cast<unsigned>(h - 'A' + 10);
                else
                    return false;
            }
            if (v > 0xff)   // we never emit beyond Latin-1
                return false;
            out += static_cast<char>(v);
            break;
          }
          default:
            return false;
        }
    }
    if (i >= s.size())
        return false;
    ++i;    // closing quote
    return true;
}

/** A bare value (number / true / false) up to the next ',' or '}'. */
bool
parseBare(const std::string &s, size_t &i, std::string &out)
{
    out.clear();
    while (i < s.size() && s[i] != ',' && s[i] != '}')
        out += s[i++];
    return !out.empty();
}

bool
toU64(const std::string &tok, uint64_t &out)
{
    char *end = nullptr;
    out = std::strtoull(tok.c_str(), &end, 10);
    return end && *end == '\0' && !tok.empty();
}

bool
toInt(const std::string &tok, int &out)
{
    char *end = nullptr;
    long v = std::strtol(tok.c_str(), &end, 10);
    if (!end || *end != '\0' || tok.empty())
        return false;
    out = static_cast<int>(v);
    return true;
}

bool
toDouble(const std::string &tok, double &out)
{
    char *end = nullptr;
    out = std::strtod(tok.c_str(), &end);
    return end && *end == '\0' && !tok.empty();
}

/** Bit positions of the required row fields, for presence checking. */
enum RowField : uint32_t
{
    kFSchema, kFId, kFWorkload, kFIsa, kFThreads, kFMem, kFPolicy,
    kFVariant, kFSeed, kFCycles, kFCommittedEq, kFIpc, kFEipc, kFHeadline,
    kFL1Hit, kFIcacheHit, kFL1Lat, kFMispredicts, kFCondBranches,
    kFCompletions, kFHitCycleLimit, kFSimKcps, kFWallMs,
    kFCount,
};

std::string
serializeRowFields(const ResultRow &r)
{
    std::string out;
    out += strfmt("\"schema\":%d,", kResultSchemaVersion);
    out += "\"id\":\"" + jsonEscape(r.id) + "\",";
    out += "\"workload\":\"" + jsonEscape(r.workload) + "\",";
    out += strfmt("\"isa\":\"%s\",\"threads\":%d,", isa::toString(r.simd),
                  r.threads);
    out += strfmt("\"mem\":\"%s\",\"policy\":\"%s\",",
                  mem::toString(r.memModel), cpu::toString(r.policy));
    out += "\"variant\":\"" + jsonEscape(r.variant) + "\",";
    out += strfmt("\"seed\":%llu,\"cycles\":%llu,\"committed_eq\":%llu,",
                  static_cast<unsigned long long>(r.seed),
                  static_cast<unsigned long long>(r.run.cycles),
                  static_cast<unsigned long long>(r.run.committedEq));
    out += "\"ipc\":" + exactNum(r.run.ipc) +
           ",\"eipc\":" + exactNum(r.run.eipc) +
           ",\"headline\":" + exactNum(r.headline) +
           ",\"l1_hit_rate\":" + exactNum(r.run.l1HitRate) +
           ",\"icache_hit_rate\":" + exactNum(r.run.icacheHitRate) +
           ",\"l1_avg_latency\":" + exactNum(r.run.l1AvgLatency) + ",";
    out += strfmt("\"mispredicts\":%llu,\"cond_branches\":%llu,"
                  "\"completions\":%d,",
                  static_cast<unsigned long long>(r.run.mispredicts),
                  static_cast<unsigned long long>(r.run.condBranches),
                  r.run.completions);
    out += strfmt("\"hit_cycle_limit\":%s,",
                  r.run.hitCycleLimit ? "true" : "false");
    out += "\"sim_kcps\":" + exactNum(r.run.simKcps) +
           ",\"wall_ms\":" + exactNum(r.run.wallMs);
    return out;
}

/** True when @p line carries a parseable "schema" field != current. */
bool
hasForeignSchema(const std::string &line)
{
    const std::string tag = "\"schema\":";
    size_t i = line.find(tag);
    if (i == std::string::npos)
        return false;
    i += tag.size();
    std::string tok;
    int v = 0;
    return parseBare(line, i, tok) && toInt(tok, v) &&
           v != kResultSchemaVersion;
}

/** Create every missing component of @p dir (mkdir -p). */
bool
makeDirs(const std::string &dir)
{
    size_t start = 0;
    while (start <= dir.size()) {
        size_t slash = dir.find('/', start);
        if (slash == std::string::npos)
            slash = dir.size();
        std::string prefix = dir.substr(0, slash);
        if (!prefix.empty() && prefix != ".")
            ::mkdir(prefix.c_str(), 0755);      // EEXIST is fine
        start = slash + 1;
    }
    struct stat st;
    return ::stat(dir.c_str(), &st) == 0 && S_ISDIR(st.st_mode);
}

} // namespace

std::string
serializeResultRow(const ResultRow &row)
{
    return "{" + serializeRowFields(row) + "}";
}

bool
parseStoreLine(const std::string &line, std::string &key, ResultRow &out)
{
    key.clear();
    ResultRow row;
    uint32_t seen = 0;
    auto mark = [&seen](RowField f) { seen |= 1u << f; };

    size_t i = 0;
    if (!skipWs(line, i) || line[i] != '{')
        return false;
    ++i;
    for (;;) {
        if (!skipWs(line, i))
            return false;
        if (line[i] == '}') {
            ++i;
            break;
        }
        if (line[i] == ',') {
            ++i;
            continue;
        }
        std::string name;
        if (!parseQuoted(line, i, name))
            return false;
        if (!skipWs(line, i) || line[i] != ':')
            return false;
        ++i;
        if (!skipWs(line, i))
            return false;
        if (line[i] == '"') {
            std::string v;
            if (!parseQuoted(line, i, v))
                return false;
            if (name == "key") {
                key = v;
            } else if (name == "id") {
                row.id = v;
                mark(kFId);
            } else if (name == "workload") {
                row.workload = v;
                mark(kFWorkload);
            } else if (name == "isa") {
                if (!isa::fromString(v.c_str(), row.simd))
                    return false;
                mark(kFIsa);
            } else if (name == "mem") {
                if (!mem::fromString(v.c_str(), row.memModel))
                    return false;
                mark(kFMem);
            } else if (name == "policy") {
                if (!cpu::fromString(v.c_str(), row.policy))
                    return false;
                mark(kFPolicy);
            } else if (name == "variant") {
                row.variant = v;
                mark(kFVariant);
            }
            // Unknown string fields are ignored (forward compatibility
            // within a schema version).
        } else {
            std::string tok;
            if (!parseBare(line, i, tok))
                return false;
            bool ok = true;
            if (name == "schema") {
                int v = 0;
                ok = toInt(tok, v) && v == kResultSchemaVersion;
                mark(kFSchema);
            } else if (name == "threads") {
                ok = toInt(tok, row.threads);
                mark(kFThreads);
            } else if (name == "seed") {
                ok = toU64(tok, row.seed);
                mark(kFSeed);
            } else if (name == "cycles") {
                ok = toU64(tok, row.run.cycles);
                mark(kFCycles);
            } else if (name == "committed_eq") {
                ok = toU64(tok, row.run.committedEq);
                mark(kFCommittedEq);
            } else if (name == "ipc") {
                ok = toDouble(tok, row.run.ipc);
                mark(kFIpc);
            } else if (name == "eipc") {
                ok = toDouble(tok, row.run.eipc);
                mark(kFEipc);
            } else if (name == "headline") {
                ok = toDouble(tok, row.headline);
                mark(kFHeadline);
            } else if (name == "l1_hit_rate") {
                ok = toDouble(tok, row.run.l1HitRate);
                mark(kFL1Hit);
            } else if (name == "icache_hit_rate") {
                ok = toDouble(tok, row.run.icacheHitRate);
                mark(kFIcacheHit);
            } else if (name == "l1_avg_latency") {
                ok = toDouble(tok, row.run.l1AvgLatency);
                mark(kFL1Lat);
            } else if (name == "mispredicts") {
                ok = toU64(tok, row.run.mispredicts);
                mark(kFMispredicts);
            } else if (name == "cond_branches") {
                ok = toU64(tok, row.run.condBranches);
                mark(kFCondBranches);
            } else if (name == "completions") {
                ok = toInt(tok, row.run.completions);
                mark(kFCompletions);
            } else if (name == "hit_cycle_limit") {
                if (tok == "true")
                    row.run.hitCycleLimit = true;
                else if (tok == "false")
                    row.run.hitCycleLimit = false;
                else
                    ok = false;
                mark(kFHitCycleLimit);
            } else if (name == "sim_kcps") {
                ok = toDouble(tok, row.run.simKcps);
                mark(kFSimKcps);
            } else if (name == "wall_ms") {
                ok = toDouble(tok, row.run.wallMs);
                mark(kFWallMs);
            }
            if (!ok)
                return false;
        }
    }
    if (seen != (1u << kFCount) - 1)
        return false;
    out = std::move(row);
    return true;
}

bool
parseResultRow(const std::string &line, ResultRow &out)
{
    std::string key;
    return parseStoreLine(line, key, out);
}

uint64_t
configFingerprint(const ExperimentSpec &spec)
{
    // NOTE: adding a field to CoreConfig/MemConfig/CacheConfig/
    // DramConfig requires folding it here, or rows cached across the
    // change may be replayed stale. Kept exhaustive on purpose — this
    // hash is what makes a tweak closure's *parameters* part of the
    // cache key instead of just its label.
    cpu::CoreConfig c =
        cpu::CoreConfig::preset(spec.threads, spec.simd, spec.policy);
    if (spec.tweakCore)
        spec.tweakCore(c);
    mem::MemConfig m;
    if (spec.tweakMem)
        spec.tweakMem(m);

    uint64_t h = kHashSeed;
    auto fold = [&h](uint64_t v) { h = hashMix64(h, v); };
    auto foldInt = [&fold](int v) { fold(static_cast<uint64_t>(v)); };
    auto foldCache = [&](const mem::CacheConfig &cc) {
        h = hashMixString(h, cc.name);
        fold(cc.sizeBytes);
        fold(cc.lineBytes);
        fold(cc.ways);
        fold(cc.banks);
        fold(cc.bankShift);
        fold(cc.hitLatency);
        fold(cc.numMshrs);
        fold(cc.writeBufferEntries);
        fold(cc.writeBack ? 1 : 0);
        fold(cc.portsPerCycle);
        fold(cc.bankPumps);
        fold(cc.fillBytesPerCycle);
    };

    foldInt(c.numThreads);
    foldInt(static_cast<int>(c.simd));
    foldInt(static_cast<int>(c.fetchPolicy));
    foldInt(c.fetchGroups);
    foldInt(c.fetchGroupSize);
    foldInt(c.fetchQueueDepth);
    foldInt(c.decodeWidth);
    foldInt(c.mispredictPenalty);
    foldInt(c.intIssue);
    foldInt(c.memIssue);
    foldInt(c.fpIssue);
    foldInt(c.simdIssue);
    foldInt(c.vectorLanes);
    foldInt(c.commitWidth);
    foldInt(c.windowPerThread);
    foldInt(c.intQueue);
    foldInt(c.memQueue);
    foldInt(c.fpQueue);
    foldInt(c.simdQueue);
    foldInt(c.intPhysRegs);
    foldInt(c.fpPhysRegs);
    foldInt(c.simdPhysRegs);
    // Results-neutral by contract (the differential test enforces it),
    // but folded anyway: the fingerprint is exhaustive over config
    // fields, full stop.
    foldInt(c.enableFastForward ? 1 : 0);

    foldCache(m.l1);
    foldCache(m.icache);
    foldCache(m.l2);
    fold(m.dram.accessLatency);
    fold(m.dram.bytesPerCycle);
    fold(m.dram.numDevices);
    fold(m.dram.deviceShift);
    fold(m.dram.deviceBusy);
    fold(m.vectorPorts);
    fold(m.invalidatePenalty);
    return h;
}

std::string
resultCacheKey(const ExperimentSpec &spec, uint64_t workloadFingerprint)
{
    // The per-task seed participates: a row records its seed (and any
    // future stochastic component consumes it), so a --seed 7 run must
    // never replay rows produced under --seed 0. The config fingerprint
    // keys variants by their actual post-tweak parameters, and the code
    // version invalidates on simulator-semantics changes.
    return strfmt("%s|tc%d|mc%llu|s%016llx|cc%016llx|fp%016llx|v%d.%d",
                  spec.canonicalId().c_str(), spec.targetCompletions,
                  static_cast<unsigned long long>(spec.maxCycles),
                  static_cast<unsigned long long>(spec.seed),
                  static_cast<unsigned long long>(configFingerprint(spec)),
                  static_cast<unsigned long long>(workloadFingerprint),
                  kResultSchemaVersion, kSimCodeVersion);
}

double
specCost(const ExperimentSpec &spec, int workloadPrograms)
{
    // Linear fit through cost(1thr)=1, cost(8thr)=4 (ROADMAP's measured
    // ratio for the sweep-aware-scheduling item).
    double cost = (4.0 + 3.0 * spec.threads) / 7.0;
    if (spec.memModel != mem::MemModel::Perfect)
        cost *= 1.5;
    // One run is one pass over the rotation: a 16-program mix is ~2x
    // the work of the 8-program paper mix at the same configuration.
    cost *= static_cast<double>(workloadPrograms) / 8.0;
    return cost;
}

namespace
{

/**
 * The process-wide append lock for one store file, keyed by the
 * canonical (realpath) directory so "cache" and "./cache" — or two
 * ResultStore instances different requests opened on one --cache-dir —
 * resolve to the same mutex. Entries are never removed: the set of
 * distinct cache dirs a process touches is tiny, and a stable address
 * is what lets stores cache the pointer.
 */
Mutex &
appendLockFor(const std::string &dir)
{
    // registry is guarded by registryMutex; every access below is
    // inside one MutexLock hold, so the guard needs no attribute (and
    // GUARDED_BY is not specified for function-local statics).
    static Mutex registryMutex;
    static std::unordered_map<std::string, std::unique_ptr<Mutex>>
        registry;
    std::string key = dir;
    if (char *canon = ::realpath(dir.c_str(), nullptr)) {
        key.assign(canon);
        std::free(canon);
    }
    MutexLock lock(registryMutex);
    std::unique_ptr<Mutex> &slot = registry[key];
    if (!slot)
        slot = std::make_unique<Mutex>();
    return *slot;
}

} // namespace

bool
ResultStore::openDir(const std::string &dir)
{
    if (dir.empty() || !makeDirs(dir))
        return false;
    std::string path = dir + "/" + kFileName;
    Mutex *appendLock = &appendLockFor(dir);
    {
        MutexLock lock(_mutex);
        _path = path;
        _appendLock = appendLock;
    }
    std::FILE *f = std::fopen(path.c_str(), "r");
    if (!f)
        return true;    // nothing persisted yet: an empty, bound store
    std::fclose(f);
    return loadFile(path);
}

bool
ResultStore::loadFile(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "r");
    if (!f)
        return false;
    std::string text;
    char buf[1 << 16];
    size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0)
        text.append(buf, n);
    bool ok = std::ferror(f) == 0;
    std::fclose(f);
    if (!ok)
        return false;

    // Parse the whole file into file-ordered rows first, then merge
    // under one lock hold: the parse is the expensive part, and doing
    // it unlocked keeps a big --merge load from stalling concurrent
    // find()/put() traffic on a shared store.
    std::vector<std::pair<std::string, ResultRow>> parsed;
    size_t foreignRows = 0;
    size_t start = 0;
    while (start < text.size()) {
        size_t eol = text.find('\n', start);
        bool lastLine = eol == std::string::npos;
        if (lastLine)
            eol = text.size();
        std::string line = text.substr(start, eol - start);
        start = eol + 1;
        if (line.empty())
            continue;
        std::string key;
        ResultRow row;
        if (!parseStoreLine(line, key, row) || key.empty()) {
            // Rows written under another schema version are not
            // corruption — they simply can never hit (the key embeds
            // the version), so a bumped binary reuses the same store
            // and old rows fall away as misses.
            if (hasForeignSchema(line)) {
                ++foreignRows;
                continue;
            }
            // A truncated final line means a writer died mid-append;
            // the rows before it are still good. Anything else is
            // corruption the caller must know about.
            if (lastLine) {
                warn("result store: ignoring truncated final line in " +
                     path);
                continue;
            }
            return false;
        }
        parsed.emplace_back(std::move(key), std::move(row));
    }
    if (foreignRows)
        warn(strfmt("result store: skipped %zu row(s) of another schema "
                    "version in %s", foreignRows, path.c_str()));
    MutexLock lock(_mutex);
    for (auto &kv : parsed)
        _rows[kv.first] = std::move(kv.second);     // last wins
    return true;
}

const ResultRow *
ResultStore::lookup(const std::string &key) const
{
    auto it = _rows.find(key);
    return it == _rows.end() ? nullptr : &it->second;
}

bool
ResultStore::find(const std::string &key, ResultRow &out) const
{
    MutexLock lock(_mutex);
    auto it = _rows.find(key);
    if (it == _rows.end())
        return false;
    out = it->second;
    return true;
}

void
ResultStore::put(const std::string &key, const ResultRow &row)
{
    // Snapshot the path *and* the append lock together: a concurrent
    // openDir() may rebind both, and appending to the new path under
    // the old file's lock would lose the whole-line guarantee.
    std::string path;
    Mutex *appendLock = nullptr;
    {
        MutexLock lock(_mutex);
        _rows[key] = row;
        path = _path;
        appendLock = _appendLock;
    }
    if (path.empty())
        return;
    std::string line = "{\"key\":\"" + jsonEscape(key) + "\"," +
                       serializeRowFields(row) + "}\n";
    bool shortWrite;
    {
        // One whole line per lock hold: concurrent puts — from this
        // store's workers or a sibling store another request bound to
        // the same file — append whole lines, never interleaved bytes.
        MutexLock appendHold(*appendLock);
        std::FILE *f = std::fopen(path.c_str(), "a");
        if (!f) {
            warn("result store: cannot append to " + path);
            return;
        }
        size_t written = std::fwrite(line.data(), 1, line.size(), f);
        shortWrite = std::fclose(f) != 0 || written != line.size();
    }
    if (shortWrite) {
        // A partial line may now be on disk. Stop appending: another
        // put would continue on the same line and turn a tolerable
        // truncated *tail* into corruption in the *middle* of the
        // file, which loadFile rightly refuses.
        warn("result store: short write to " + path +
             "; disabling persistence for this run");
        MutexLock lock(_mutex);
        _path.clear();
    }
}

size_t
RunPlan::mineCount() const
{
    size_t count = 0;
    for (const PlannedPoint &p : points)
        count += p.shard == shardIndex;
    return count;
}

size_t
RunPlan::cachedMineCount() const
{
    size_t count = 0;
    for (const PlannedPoint &p : points)
        count += p.shard == shardIndex && p.cached;
    return count;
}

size_t
RunPlan::simulateCount() const
{
    size_t count = 0;
    for (const PlannedPoint &p : points)
        count += p.shard == shardIndex && !p.cached;
    return count;
}

namespace
{

/** Longest-processing-time deal of @p points onto @p binCount shards;
 *  ties break toward sweep order and the lowest shard. */
void
dealByCost(std::vector<PlannedPoint> &points, int binCount)
{
    std::vector<size_t> order(points.size());
    std::iota(order.begin(), order.end(), size_t { 0 });
    std::stable_sort(order.begin(), order.end(),
                     [&points](size_t a, size_t b) {
                         return points[a].cost > points[b].cost;
                     });
    std::vector<double> load(static_cast<size_t>(binCount), 0.0);
    for (size_t idx : order) {
        size_t best = 0;
        for (size_t s = 1; s < load.size(); ++s) {
            if (load[s] < load[best])
                best = s;
        }
        points[idx].shard = static_cast<int>(best);
        load[best] += points[idx].cost;
    }
}

} // namespace

RunPlan
planSweep(std::vector<ExperimentSpec> specs,
          const WorkloadFingerprintFn &fingerprintOf,
          const SpecCostFn &costOf, const ResultStore *store,
          int shardIndex, int shardCount)
{
    MOMSIM_ASSERT(shardCount >= 1 && shardIndex >= 0 &&
                      shardIndex < shardCount,
                  "invalid shard selection");

    RunPlan plan;
    plan.shardIndex = shardIndex;
    plan.shardCount = shardCount;
    plan.points.reserve(specs.size());
    for (ExperimentSpec &spec : specs) {
        PlannedPoint p;
        p.key = resultCacheKey(spec, fingerprintOf(spec.workload));
        p.cost = costOf(spec);
        p.spec = std::move(spec);
        if (store) {
            // find(), not lookup(): on a serve daemon's shared store
            // another request may be put()ting concurrently.
            ResultRow hit;
            if (store->find(p.key, hit)) {
                p.cached = true;
                p.row = std::move(hit);
            }
        }
        plan.points.push_back(std::move(p));
    }

    // Cost-weighted dealing: heaviest points first, each onto the
    // least-loaded shard. Depends only on the spec list — never on the
    // cache — so independent shard processes agree on the assignment.
    dealByCost(plan.points, shardCount);
    return plan;
}

RunPlan
planSweep(std::vector<ExperimentSpec> specs, workloads::WorkloadRepo &repo,
          const ResultStore *store, int shardIndex, int shardCount)
{
    // Keys need every workload's fingerprint: build the distinct
    // missing ones concurrently instead of one by one on first use.
    std::vector<std::string> names;
    names.reserve(specs.size());
    for (const ExperimentSpec &spec : specs)
        names.push_back(spec.workload);
    repo.prebuild(names);
    return planSweep(
        std::move(specs),
        [&repo](const std::string &name) {
            return repo.fingerprintOf(name);
        },
        [&repo](const ExperimentSpec &spec) {
            return specCost(spec, repo.get(spec.workload)->numPrograms());
        },
        store, shardIndex, shardCount);
}

} // namespace momsim::driver
