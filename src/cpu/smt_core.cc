#include "cpu/smt_core.hh"

#include <algorithm>
#include <cstring>

#include "common/logging.hh"

namespace momsim::cpu
{

using isa::OpClass;
using isa::QueueKind;
using isa::RegClass;

CoreConfig
CoreConfig::preset(int threads, isa::SimdIsa simd, FetchPolicy policy)
{
    CoreConfig cfg;
    cfg.numThreads = threads;
    cfg.simd = simd;
    cfg.fetchPolicy = policy;

    // Near-saturation sizes from the table1_saturation sweep.
    switch (threads) {
      case 1:
        cfg.windowPerThread = 64;
        cfg.intQueue = 16;
        cfg.memQueue = 16;
        cfg.fpQueue = 12;
        cfg.simdQueue = 12;
        break;
      case 2:
        cfg.windowPerThread = 64;
        cfg.intQueue = 24;
        cfg.memQueue = 24;
        cfg.fpQueue = 16;
        cfg.simdQueue = 16;
        break;
      case 4:
        cfg.windowPerThread = 48;
        cfg.intQueue = 32;
        cfg.memQueue = 32;
        cfg.fpQueue = 24;
        cfg.simdQueue = 24;
        break;
      default:
        cfg.windowPerThread = 40;
        cfg.intQueue = 48;
        cfg.memQueue = 48;
        cfg.fpQueue = 32;
        cfg.simdQueue = 32;
        break;
    }

    cfg.intPhysRegs = 32 * threads + 64;
    cfg.fpPhysRegs = 32 * threads + 32;
    if (simd == isa::SimdIsa::Mmx) {
        cfg.simdPhysRegs = 32 * threads + 32;
        cfg.simdIssue = 2;
    } else {
        // 16 stream registers + 2 accumulators per thread, plus slack.
        cfg.simdPhysRegs = 18 * threads + 12;
        cfg.simdIssue = 1;
    }
    return cfg;
}

SmtCore::SmtCore(const CoreConfig &cfg, mem::MemorySystem &mem)
    : _cfg(cfg), _mem(mem), _threads(cfg.numThreads), _stats("core")
{
    // Checked unconditionally (not via MOMSIM_ASSERT, which Release
    // compiles away): the per-cycle commit/dispatch rounds use
    // 8-slot stack arrays sized to this bound, so an oversized config
    // must fail loudly here rather than corrupt the stack later.
    if (cfg.numThreads < 1 || cfg.numThreads > 8)
        panic(strfmt("numThreads=%d outside the supported 1..8 hardware "
                     "contexts", cfg.numThreads));

    // Structure-of-arrays ROB state: one arena carries the hot columns
    // for every (thread, window slot), the per-thread rename tables and
    // the fetch-ring buffers. Storage per thread is rounded up to a
    // power of two so position lookup is a mask; the logical capacity
    // stays exactly windowPerThread (dispatch checks tail - head
    // against the configured window).
    uint64_t robSize = pow2Ceil(static_cast<uint64_t>(cfg.windowPerThread));
    _robMask = robSize - 1;
    _numSlots = static_cast<size_t>(cfg.numThreads) *
                static_cast<size_t>(robSize);
    size_t fqCap = static_cast<size_t>(
        pow2Ceil(static_cast<uint64_t>(cfg.fetchQueueDepth)));

    size_t off = 0;
    auto carve = [&off](size_t bytes) {
        size_t at = off;
        off = (off + bytes + 63) & ~static_cast<size_t>(63);
        return at;
    };
    size_t oPos = carve(_numSlots * sizeof(uint64_t));
    size_t oHot = carve(_numSlots * sizeof(SlotHot));
    size_t oRename = carve(static_cast<size_t>(cfg.numThreads) * 256 *
                           sizeof(int64_t));
    size_t oRings = carve(static_cast<size_t>(cfg.numThreads) * fqCap *
                          sizeof(FetchedInst));

    _arenaStore = std::make_unique<std::byte[]>(off + 64);
    std::byte *base = _arenaStore.get();
    base += (64 - reinterpret_cast<uintptr_t>(base) % 64) % 64;
    // All-zero bytes are the correct initial value for every column
    // (pos 0, zero hot record = cycle 0 + gen 0 + State::Empty, null
    // fetch records); the rename tables are refilled with -1 below.
    std::memset(base, 0, off);
    _colPos = reinterpret_cast<uint64_t *>(base + oPos);
    _hot = reinterpret_cast<SlotHot *>(base + oHot);
    int64_t *renameBase = reinterpret_cast<int64_t *>(base + oRename);
    FetchedInst *ringBase = reinterpret_cast<FetchedInst *>(base + oRings);

    _cold.assign(_numSlots, RobCold{});
    _waiters.assign(_numSlots, {});

    // Fixed-capacity issue queues and stream list, in one allocation.
    const int iqCaps[4] = { cfg.intQueue, cfg.memQueue, cfg.fpQueue,
                            cfg.simdQueue };
    size_t queueEntries = _numSlots;
    for (int cap : iqCaps)
        queueEntries += static_cast<size_t>(std::max(cap, 0));
    _queueStore = std::make_unique<IqEntry[]>(queueEntries);
    IqEntry *qbase = _queueStore.get();
    for (int k = 0; k < 4; ++k) {
        _iq[k].at = qbase;
        _iq[k].cap = static_cast<uint32_t>(std::max(iqCaps[k], 0));
        qbase += _iq[k].cap;
    }
    _activeStreams.at = qbase;
    _activeStreams.cap = static_cast<uint32_t>(_numSlots);

    for (int tid = 0; tid < cfg.numThreads; ++tid) {
        Thread &t = _threads[static_cast<size_t>(tid)];
        t.slotBase = static_cast<uint32_t>(
            static_cast<uint64_t>(tid) * robSize);
        t.rename = renameBase + static_cast<size_t>(tid) * 256;
        std::fill(t.rename, t.rename + 256, -1);
        t.fetchQ.init(ringBase + static_cast<size_t>(tid) * fqCap, fqCap);
    }

    int logicalSimd =
        cfg.simd == isa::SimdIsa::Mmx ? isa::kNumLogicalMmx
                                      : isa::kNumLogicalMomStream +
                                        isa::kNumLogicalMomAcc;
    _freeRegs[0] = cfg.intPhysRegs - 32 * cfg.numThreads;
    _freeRegs[1] = cfg.fpPhysRegs - 32 * cfg.numThreads;
    _freeRegs[2] = cfg.simdPhysRegs - logicalSimd * cfg.numThreads;
    // MMX code also names MMX registers under the MOM machine (both
    // extensions share the SIMD file organization).
    if (cfg.simd == isa::SimdIsa::Mom)
        _freeRegs[2] = std::max(_freeRegs[2], 12);
    for (int p = 0; p < 3; ++p) {
        if (_freeRegs[p] < 8)
            panic("physical register file too small for rename slack");
    }
    // Never gates: at most one register per in-flight slot is taken.
    _freeRegs[kNoDstPool] = 1 << 30;

    // Resolve the hot-path counters once: every per-event update below
    // is an indexed increment instead of a string-keyed lookup (StatIds
    // stay valid as the group grows).
    _ctrCommits = _stats.id("commits");
    _ctrCommitMix[static_cast<int>(isa::MixGroup::Int)] =
        _stats.id("commitInt");
    _ctrCommitMix[static_cast<int>(isa::MixGroup::Fp)] =
        _stats.id("commitFp");
    _ctrCommitMix[static_cast<int>(isa::MixGroup::SimdArith)] =
        _stats.id("commitSimd");
    _ctrCommitMix[static_cast<int>(isa::MixGroup::Mem)] =
        _stats.id("commitMem");
    _ctrIssued = _stats.id("issued");
    _ctrDispatched = _stats.id("dispatched");
    _ctrFetched = _stats.id("fetched");
    _ctrCondBranches = _stats.id("condBranches");
    _ctrGateStalls[static_cast<int>(DispatchGate::RobFull)] =
        _stats.id("robFullStalls");
    _ctrGateStalls[static_cast<int>(DispatchGate::IqFull)] =
        _stats.id("iqFullStalls");
    _ctrGateStalls[static_cast<int>(DispatchGate::RegFull)] =
        _stats.id("regFullStalls");
    _ctrIdleCyclesSkipped = _stats.id("idleCyclesSkipped");
    _ctrCommitStoreStalls = _stats.id("commitStoreStalls");
    _ctrMispredicts = _stats.id("mispredicts");
    _ctrFlushes = _stats.id("flushes");
    _ctrSquashed = _stats.id("squashed");
    _ctrIfetchRejected = _stats.id("ifetchRejected");
    _ctrIcacheMissStalls = _stats.id("icacheMissStalls");
}

void
SmtCore::attachProgram(int tid, const trace::Program *prog)
{
    MOMSIM_ASSERT(threadIdle(tid), "attach to a busy context");
    Thread &t = _threads[static_cast<size_t>(tid)];
    t.prog = prog;
    t.cursor = 0;
    t.head = t.tail = 0;
    t.fetchReady = _now;
    t.fetchQ.clear();
    std::fill(t.rename, t.rename + 256, -1);
    t.committedEq = 0;
    t.iqCount = 0;
    t.oqCount = 0;
}

bool
SmtCore::threadIdle(int tid) const
{
    const Thread &t = _threads[static_cast<size_t>(tid)];
    return t.prog == nullptr ||
           (t.cursor >= t.prog->size() && t.head == t.tail &&
            t.fetchQ.empty());
}

uint64_t
SmtCore::threadCommittedEq(int tid) const
{
    return _threads[static_cast<size_t>(tid)].committedEq;
}

namespace
{

/// Physical register pool by isa::RegClass: int, fp, and one SIMD file
/// shared by MMX and MOM registers.
constexpr uint8_t kPoolOfRegClass[4] = { 0, 1, 2, 2 };

static_assert(isa::kNoReg == 255,
              "rename-table entry kNoReg must stay the always -1 entry");

} // namespace

SmtCore::DecodedOp
SmtCore::decode(const isa::TraceInst &inst)
{
    const isa::OpInfo &info = isa::opInfo(inst.opcode());
    DecodedOp d;
    d.cls = static_cast<uint8_t>(info.cls);
    d.qkind = static_cast<uint8_t>(isa::queueKind(info.cls));
    d.enqueues = info.cls != OpClass::Nop;
    d.pool = isa::isValidReg(inst.dst)
        ? kPoolOfRegClass[static_cast<int>(isa::regClass(inst.dst))]
        : kNoDstPool;
    d.mix = static_cast<uint8_t>(isa::mixGroup(info.cls));
    d.eq = static_cast<uint8_t>(inst.eqInsts());
    d.latency = info.latency;
    return d;
}

// ---------------------------------------------------------------------
// Readiness tracking
// ---------------------------------------------------------------------

int
SmtCore::trackProducers(Thread &t, size_t slot, uint64_t pos, uint64_t gen)
{
    int pending = 0;
    uint64_t ready = 0;
    for (int64_t p : _cold[slot].prod) {
        // In flight iff head <= p < pos: the one unsigned compare also
        // rejects "no producer" (-1) and graduated producers. Every
        // position in [head, tail) is live (a flush pulls tail back to
        // the branch), so an in-flight producer still owns its slot.
        uint64_t pp = static_cast<uint64_t>(p);
        if (pp - t.head >= pos - t.head)
            continue;
        size_t sp = slotOf(t, pp);
        MOMSIM_ASSERT(_colPos[sp] == pp, "in-flight producer lost its slot");
        const SlotHot h = _hot[sp];
        if (metaState(h.meta) == State::Done) {
            ready = std::max(ready, h.when);
        } else {
            _waiters[sp].push_back({ pos, gen });
            pending += 1;
        }
    }
    _hot[slot].when = ready;
    return pending;
}

void
SmtCore::wakeDependents(Thread &t, size_t slot)
{
    std::vector<Waiter> &ws = _waiters[slot];
    uint64_t done = _hot[slot].when;
    for (const Waiter &w : ws) {
        size_t sc = slotOf(t, w.pos);
        uint64_t m = _hot[sc].meta;
        // Generations are unique per allocation, so a tag match proves
        // the registration still names this slot's current instruction;
        // it must then also still be waiting (only a Dispatched slot
        // can carry a pending count — nops carry no sources).
        if (metaGen(m) != w.gen || metaState(m) != State::Dispatched)
            continue;       // consumer was squashed since registering
        _hot[sc].when = std::max(_hot[sc].when, done);
        m -= kMetaPendOne;
        _hot[sc].meta = m;
        if (metaPending(m) == 0)
            relaxQueueBound(sc);
    }
    ws.clear();
}

void
SmtCore::debugDump() const
{
    std::string out;
    out += strfmt("cycle %llu  momFuBusy=%lld  IQ sizes "
                  "int=%zu mem=%zu fp=%zu simd=%zu streams=%zu  "
                  "freeRegs=%d/%d/%d\n",
                  static_cast<unsigned long long>(_now),
                  static_cast<long long>(_momFuBusyUntil) -
                      static_cast<long long>(_now),
                  static_cast<size_t>(_iq[0].size),
                  static_cast<size_t>(_iq[1].size),
                  static_cast<size_t>(_iq[2].size),
                  static_cast<size_t>(_iq[3].size),
                  static_cast<size_t>(_activeStreams.size),
                  _freeRegs[0], _freeRegs[1], _freeRegs[2]);
    for (int tid = 0; tid < _cfg.numThreads; ++tid) {
        const Thread &t = _threads[static_cast<size_t>(tid)];
        out += strfmt("  t%d cursor=%zu/%zu inflight=%llu fq=%zu "
                      "fetchReady=%+lld iq=%d",
                      tid, t.cursor, t.prog ? t.prog->size() : 0,
                      static_cast<unsigned long long>(t.tail - t.head),
                      t.fetchQ.size(),
                      static_cast<long long>(t.fetchReady) -
                          static_cast<long long>(_now),
                      t.iqCount);
        if (t.head != t.tail) {
            size_t s = slotOf(t, t.head);
            out += strfmt("  head: %s state=%d done=%+lld",
                          isa::opName(_cold[s].inst->opcode()),
                          static_cast<int>(metaState(_hot[s].meta)),
                          static_cast<long long>(_hot[s].when) -
                              static_cast<long long>(_now));
        }
        out += "\n";
    }
    // One atomic write: dumps from concurrent pool workers must not
    // interleave mid-line.
    dumpRaw(out);
}

std::string
SmtCore::debugLayoutIssue() const
{
    uint64_t robSize = _robMask + 1;
    if (static_cast<uint64_t>(_commitRotate) !=
        _now % static_cast<uint64_t>(_cfg.numThreads))
        return strfmt("commit rotation %d != now %% threads at %llu",
                      _commitRotate, static_cast<unsigned long long>(_now));
    auto decodedIssue = [](const DecodedOp &d, const isa::TraceInst &inst) {
        DecodedOp w = decode(inst);
        return d.cls != w.cls || d.qkind != w.qkind ||
               d.enqueues != w.enqueues || d.pool != w.pool ||
               d.mix != w.mix || d.eq != w.eq || d.latency != w.latency;
    };
    for (int tid = 0; tid < _cfg.numThreads; ++tid) {
        const Thread &t = _threads[static_cast<size_t>(tid)];
        for (size_t i = 0; i < t.fetchQ.size(); ++i) {
            const FetchedInst &f = t.fetchQ.at(i);
            if (f.inst == nullptr || decodedIssue(f.op, *f.inst))
                return strfmt("t%d fetch entry %zu: decoded bytes differ "
                              "from its trace record", tid, i);
        }
    }
    for (int tid = 0; tid < _cfg.numThreads; ++tid) {
        const Thread &t = _threads[static_cast<size_t>(tid)];
        if (t.slotBase != static_cast<uint64_t>(tid) * robSize)
            return strfmt("t%d slotBase %u != tid*robSize", tid, t.slotBase);
        if (t.tail - t.head > static_cast<uint64_t>(_cfg.windowPerThread))
            return strfmt("t%d inflight %llu exceeds window", tid,
                          static_cast<unsigned long long>(t.tail - t.head));
        for (uint64_t pos = t.head; pos < t.tail; ++pos) {
            size_t s = slotOf(t, pos);
            if (_colPos[s] != pos && _colPos[s] != ~0ull)
                return strfmt("t%d pos %llu: slot holds foreign pos", tid,
                              static_cast<unsigned long long>(pos));
            if (_colPos[s] != pos)
                continue;   // squashed slot awaiting reallocation
            if (metaState(_hot[s].meta) == State::Empty)
                return strfmt("t%d pos %llu: live slot is Empty", tid,
                              static_cast<unsigned long long>(pos));
            if (_cold[s].inst == nullptr)
                return strfmt("t%d pos %llu: live slot has no inst", tid,
                              static_cast<unsigned long long>(pos));
            if (decodedIssue(_cold[s].op, *_cold[s].inst))
                return strfmt("t%d pos %llu: decoded bytes differ from "
                              "its trace record", tid,
                              static_cast<unsigned long long>(pos));
            uint64_t g = metaGen(_hot[s].meta);
            if (g == 0 || g > (t.genTick & kMetaGenMask))
                return strfmt("t%d pos %llu: gen %llu outside (0, %llu]",
                              tid, static_cast<unsigned long long>(pos),
                              static_cast<unsigned long long>(g),
                              static_cast<unsigned long long>(t.genTick));
        }
    }

    // Queue references must resolve to their slot and stay within the
    // fixed capacity; an issue queue holds only live Dispatched entries
    // of its own kind (the issue scan's early exit relies on it), the
    // stream list only Executing ones; live per-thread occupancy must
    // match the iq/oq fetch-policy counters.
    int64_t iqLive[8] = {};
    int64_t oqLive[8] = {};
    for (int k = 0; k < 5; ++k) {
        const IssueQueue &q = k < 4 ? _iq[k] : _activeStreams;
        State want = k < 4 ? State::Dispatched : State::Executing;
        uint32_t capWant = k < 4
            ? static_cast<uint32_t>(std::max(
                  k == 0 ? _cfg.intQueue : k == 1 ? _cfg.memQueue
                  : k == 2 ? _cfg.fpQueue : _cfg.simdQueue, 0))
            : static_cast<uint32_t>(_numSlots);
        if (q.cap != capWant || q.size > q.cap)
            return strfmt("queue %d holds %u of capacity %u (want %u)", k,
                          q.size, q.cap, capWant);
        for (uint32_t i = 0; i < q.size; ++i) {
            const IqEntry &ref = q.at[i];
            if (ref.tid < 0 || ref.tid >= _cfg.numThreads)
                return strfmt("queue ref tid %d out of range", ref.tid);
            const Thread &t = _threads[static_cast<size_t>(ref.tid)];
            if (ref.slot != slotOf(t, ref.pos))
                return strfmt("t%d pos %llu: ref slot %u != slotOf",
                              ref.tid,
                              static_cast<unsigned long long>(ref.pos),
                              ref.slot);
            uint64_t m = _hot[ref.slot].meta;
            if (metaGen(m) != ref.gen || metaState(m) != want ||
                _colPos[ref.slot] != ref.pos)
                return strfmt("queue %d: t%d pos %llu is stale", k, ref.tid,
                              static_cast<unsigned long long>(ref.pos));
            if (k < 4 && _cold[ref.slot].op.qkind != k)
                return strfmt("queue %d: t%d pos %llu belongs to queue %d",
                              k, ref.tid,
                              static_cast<unsigned long long>(ref.pos),
                              _cold[ref.slot].op.qkind);
            if (k < 4) {
                iqLive[ref.tid] += 1;
                oqLive[ref.tid] += _cold[ref.slot].inst->eqInsts();
            }
        }
    }
    for (int tid = 0; tid < _cfg.numThreads; ++tid) {
        const Thread &t = _threads[static_cast<size_t>(tid)];
        if (iqLive[tid] != t.iqCount)
            return strfmt("t%d iqCount %d != live dispatched %lld", tid,
                          t.iqCount, static_cast<long long>(iqLive[tid]));
        if (oqLive[tid] != t.oqCount)
            return strfmt("t%d oqCount %lld != live eq %lld", tid,
                          static_cast<long long>(t.oqCount),
                          static_cast<long long>(oqLive[tid]));
    }

    // Wakeup registrations never run ahead of the owning thread's
    // generation source (a tag from the future could resurrect).
    for (size_t s = 0; s < _numSlots; ++s) {
        int tid = static_cast<int>(s / robSize);
        const Thread &t = _threads[static_cast<size_t>(tid)];
        for (const Waiter &w : _waiters[s]) {
            if (w.gen == 0 || w.gen > (t.genTick & kMetaGenMask))
                return strfmt("t%d slot %zu: waiter gen %llu outside "
                              "(0, %llu]", tid, s,
                              static_cast<unsigned long long>(w.gen),
                              static_cast<unsigned long long>(t.genTick));
        }
    }
    return std::string();
}

// ---------------------------------------------------------------------
// Stepping and idle fast-forward
// ---------------------------------------------------------------------

uint64_t
SmtCore::nextEventCycle() const
{
    // In-flight stream expansions issue elements every cycle.
    if (_activeStreams.size != 0)
        return _now;

    uint64_t next = ~0ull;

    for (int tid = 0; tid < _cfg.numThreads; ++tid) {
        const Thread &t = _threads[static_cast<size_t>(tid)];
        // Commit: a Done head graduates (or retries its store) the
        // cycle its result is ready. A non-Done head completes through
        // an issue/stream event accounted below.
        if (t.head != t.tail) {
            const SlotHot h = _hot[slotOf(t, t.head)];
            if (metaState(h.meta) == State::Done) {
                if (h.when <= _now)
                    return _now;
                next = std::min(next, h.when);
            }
        }
        // Dispatch: a fetch-queue head that passes the structural
        // gates renames this cycle. A gated head unblocks only through
        // commit/issue events.
        if (!t.fetchQ.empty() &&
            dispatchGate(t, t.fetchQ.front()) == DispatchGate::Ok)
            return _now;
        // Fetch: an eligible thread accesses the I-cache this cycle.
        if (t.prog && t.cursor < t.prog->size() &&
            static_cast<int>(t.fetchQ.size()) + _cfg.fetchGroupSize <=
                _cfg.fetchQueueDepth) {
            if (t.fetchReady <= _now)
                return _now;
            next = std::min(next, t.fetchReady);
        }
    }

    // Issue: a ready entry attempts to issue every cycle, even when the
    // attempt keeps failing on a busy FU or a rejected memory access —
    // so readiness, not executability, is what schedules the machine.
    // One 16-byte hot-record load per entry answers the pending count
    // and the ready cycle.
    for (const IssueQueue &q : _iq) {
        for (uint32_t i = 0; i < q.size; ++i) {
            const SlotHot h = _hot[q.at[i].slot];
            MOMSIM_ASSERT(metaGen(h.meta) == q.at[i].gen &&
                              metaState(h.meta) == State::Dispatched,
                          "stale issue-queue entry");
            if (metaPending(h.meta) > 0)
                continue;       // wakes through a producer completion
            if (h.when <= _now)
                return _now;
            next = std::min(next, h.when);
        }
    }
    return next;
}

void
SmtCore::fastForwardTo(uint64_t target)
{
    uint64_t skipped = target - _now;
    uint64_t n = static_cast<uint64_t>(_cfg.numThreads);

    // The naive path runs every stage on a no-op cycle; the only
    // residue is the per-cycle rotation advance and one dispatch-stall
    // count per gated thread per cycle. Replay both exactly.
    auto advance = [skipped, n](int &rotate) {
        rotate = static_cast<int>(
            (static_cast<uint64_t>(rotate) + skipped) % n);
    };
    advance(_commitRotate);
    advance(_fetchRotate);
    advance(_dispatchRotate);
    for (int tid = 0; tid < _cfg.numThreads; ++tid) {
        const Thread &t = _threads[static_cast<size_t>(tid)];
        if (t.fetchQ.empty())
            continue;
        // Never Ok here: an Ok gate prevents fast-forward.
        DispatchGate gate = dispatchGate(t, t.fetchQ.front());
        if (gate != DispatchGate::Ok)
            _stats.at(_ctrGateStalls[static_cast<int>(gate)]) += skipped;
    }
    _stats.at(_ctrIdleCyclesSkipped) += skipped;
    _now = target;
    // The jump landed on the next event; the machine acts this cycle.
    _probablyIdle = false;
}

void
SmtCore::step(uint64_t horizon)
{
    // Only pay for the idle scan when the previous cycle made no
    // visible progress — a cheap heuristic that keeps the fast-forward
    // machinery entirely off the busy path. Skipping the scan on an
    // idle cycle is harmless (the stages no-op and account their own
    // stalls), so results are identical either way.
    if (_cfg.enableFastForward && _probablyIdle) {
        uint64_t next = nextEventCycle();
        if (next > _now) {
            // Let the memory hierarchy cap the jump at its own next
            // structural event (bank frees, miss completes, write
            // buffer drains), then never skip past the caller's cycle
            // horizon.
            next = std::min(next, _mem.nextEventCycle(_now));
            uint64_t target = std::min(next, horizon);
            if (target <= _now)
                target = _now + 1;
            fastForwardTo(target);
            return;
        }
    }
    uint64_t before =
        _stats.at(_ctrCommits) + _stats.at(_ctrIssued) +
        _stats.at(_ctrDispatched) + _stats.at(_ctrFetched);
    commitStage();
    streamStage();
    issueStage();
    dispatchStage();
    fetchStage();
    ++_now;
    _commitRotate =
        _commitRotate + 1 == _cfg.numThreads ? 0 : _commitRotate + 1;
    uint64_t after =
        _stats.at(_ctrCommits) + _stats.at(_ctrIssued) +
        _stats.at(_ctrDispatched) + _stats.at(_ctrFetched);
    _probablyIdle = after == before;
}

// ---------------------------------------------------------------------
// Commit
// ---------------------------------------------------------------------

void
SmtCore::commitStage()
{
    int budget = _cfg.commitWidth;
    int n = _cfg.numThreads;
    const uint64_t now = _now;

    // Try to graduate one instruction from @p tid; false when the head
    // is absent, not ready, or its store was rejected — all conditions
    // that cannot clear within this cycle, so the thread drops out of
    // the round-robin for the rest of the stage. The ready check reads
    // only the hot record; the cold payload is touched once a
    // graduation is certain, and its decoded bytes do the accounting.
    auto tryCommitOne = [this, now](int tid) -> bool {
        Thread &t = _threads[static_cast<size_t>(tid)];
        if (t.head == t.tail)
            return false;
        size_t s = slotOf(t, t.head);
        const SlotHot h = _hot[s];
        if (metaState(h.meta) != State::Done || h.when > now)
            return false;

        RobCold &cold = _cold[s];
        if (cold.storePending) {
            mem::MemAccess req;
            req.addr = cold.inst->addr;
            req.size = cold.inst->accessSize;
            req.isWrite = true;
            req.isVector = cold.op.cls == static_cast<uint8_t>(
                                              OpClass::MmxStore);
            req.threadId = tid;
            mem::MemReply rep = _mem.access(now, req);
            if (!rep.accepted) {
                _stats.at(_ctrCommitStoreStalls) += 1;
                return false;   // write buffer full; retry next cycle
            }
            cold.storePending = false;
        }

        // Graduate.
        _freeRegs[cold.op.pool] += 1;
        uint32_t eq = cold.op.eq;
        _committedRecords += 1;
        _committedEq += eq;
        t.committedEq += eq;
        _stats.at(_ctrCommits) += 1;
        _stats.at(_ctrCommitMix[cold.op.mix]) += eq;
        setMetaState(s, State::Empty);
        ++t.head;
        return true;
    };

    // Round-robin starting at (_now % n), one commit per thread per
    // round; after the first round only the threads that just committed
    // can commit again, so later rounds visit exactly those.
    int active[8];
    int numActive = 0;
    int tid = _commitRotate;
    for (int i = 0; i < n && budget > 0;
         ++i, tid = (tid + 1 == n ? 0 : tid + 1)) {
        if (tryCommitOne(tid)) {
            --budget;
            active[numActive++] = tid;
        }
    }
    while (budget > 0 && numActive > 0) {
        int stillActive = 0;
        for (int i = 0; i < numActive && budget > 0; ++i) {
            if (tryCommitOne(active[i])) {
                --budget;
                active[stillActive++] = active[i];
            }
        }
        numActive = stillActive;
    }
}

// ---------------------------------------------------------------------
// Stream memory expansion
// ---------------------------------------------------------------------

void
SmtCore::streamStage()
{
    // The stream memory unit sustains at most `vectorLanes` element
    // accesses per cycle in total, shared by all in-flight streams (two
    // address generators feeding the two vector ports).
    int budget = _cfg.vectorLanes;
    const uint64_t now = _now;
    for (uint32_t i = 0; i < _activeStreams.size;) {
        if (budget <= 0)
            break;
        IqEntry ref = _activeStreams.at[i];
        Thread &t = _threads[static_cast<size_t>(ref.tid)];
        size_t s = ref.slot;
        // A flush scrubs a squashed stream from the list at once.
        MOMSIM_ASSERT(metaGen(_hot[s].meta) == ref.gen &&
                          metaState(_hot[s].meta) == State::Executing,
                      "stale stream-list entry");
        RobCold &cold = _cold[s];
        uint32_t total = cold.inst->memAccesses();
        int issuedThisCycle = 0;
        while (cold.elemsIssued < total && issuedThisCycle < budget) {
            mem::MemAccess req;
            req.addr = cold.inst->elementAddr(cold.elemsIssued);
            req.size = cold.inst->accessSize;
            req.isWrite = isa::isStore(static_cast<OpClass>(cold.op.cls));
            req.isVector = true;
            req.nonTemporal = false;
            req.threadId = ref.tid;
            mem::MemReply rep = _mem.access(now, req);
            if (!rep.accepted)
                break;
            cold.streamReady = std::max(cold.streamReady, rep.readyCycle);
            ++cold.elemsIssued;
            ++issuedThisCycle;
        }
        budget -= issuedThisCycle;
        if (cold.elemsIssued >= total) {
            setMetaState(s, State::Done);
            _hot[s].when = std::max(cold.streamReady, now + 1);
            wakeDependents(t, s);
            _activeStreams.erase(i);
            continue;
        }
        ++i;
    }
}

// ---------------------------------------------------------------------
// Issue
// ---------------------------------------------------------------------

bool
SmtCore::tryExecute(int tid, size_t slot, QueueKind kind)
{
    RobCold &cold = _cold[slot];
    const OpClass cls = static_cast<OpClass>(cold.op.cls);
    const uint64_t now = _now;
    const uint64_t latency = cold.op.latency;

    switch (kind) {
      case QueueKind::Int:
        if (cls == OpClass::IntDiv) {
            if (_divBusyUntil > now)
                return false;
            _divBusyUntil = now + latency;
        }
        setMetaState(slot, State::Done);
        _hot[slot].when = now + latency;
        if (cold.mispredicted) {
            _stats.at(_ctrMispredicts) += 1;
            flushThread(tid, _colPos[slot]);
        }
        return true;

      case QueueKind::Fp:
        if (cls == OpClass::FpDiv) {
            if (_fdivBusyUntil > now)
                return false;
            _fdivBusyUntil = now + latency;
        }
        setMetaState(slot, State::Done);
        _hot[slot].when = now + latency;
        return true;

      case QueueKind::Simd:
        if (isa::isMom(cls)) {
            if (_momFuBusyUntil > now)
                return false;
            uint32_t len = std::max<uint32_t>(1, cold.inst->streamLen);
            uint64_t occupancy =
                (len + _cfg.vectorLanes - 1) /
                static_cast<uint32_t>(_cfg.vectorLanes);
            _momFuBusyUntil = now + occupancy;
            setMetaState(slot, State::Done);
            _hot[slot].when = now + latency + occupancy - 1;
        } else {
            setMetaState(slot, State::Done);
            _hot[slot].when = now + latency;
        }
        return true;

      case QueueKind::Mem: {
        if (cls == OpClass::MomLoad || cls == OpClass::MomStore) {
            // Hand over to the stream engine.
            setMetaState(slot, State::Executing);
            cold.elemsIssued = 0;
            cold.streamReady = 0;
            _activeStreams.push({ _colPos[slot], metaGen(_hot[slot].meta),
                                  static_cast<uint32_t>(slot), tid });
            return true;
        }
        if (isa::isStore(cls)) {
            // Address generation; the access happens at graduation.
            setMetaState(slot, State::Done);
            _hot[slot].when = now + 1;
            return true;
        }
        mem::MemAccess req;
        req.addr = cold.inst->addr;
        req.size = cold.inst->accessSize;
        req.isWrite = false;
        req.isVector = isa::isMmx(cls);
        req.threadId = tid;
        mem::MemReply rep = _mem.access(now, req);
        if (!rep.accepted)
            return false;       // retry next cycle
        setMetaState(slot, State::Done);
        _hot[slot].when = rep.readyCycle;
        return true;
      }
    }
    return false;
}

void
SmtCore::issueFromQueue(IssueQueue &q, int width, QueueKind kind)
{
    // Nothing can possibly be ready before the queue's bound: skip the
    // scan outright. A skipped scan has no side effects (no entry
    // issues, no compaction, no counters), so results are unchanged.
    uint64_t &bound = _queueMinReady[static_cast<int>(kind)];
    const uint64_t now = _now;
    if (bound > now)
        return;

    // The scan body reads one 16-byte hot record per entry: the pending
    // count and the timestamp decide readiness. The queue holds only
    // live Dispatched entries (issue removes them, a flush scrubs
    // them), so no entry needs validating. q.size is re-read every
    // iteration: a mispredicted branch issuing here flushes its thread,
    // which scrubs that thread's younger entries — all of them later in
    // this queue than the branch, since each thread enqueues in
    // program order.
    uint64_t nextReady = ~0ull;
    int used = 0;
    uint32_t keep = 0;
    for (uint32_t i = 0; i < q.size; ++i) {
        if (used >= width) {
            // Out of issue slots: the unscanned rest stays queued, in
            // order, and may hold entries ready now — so the bound
            // becomes the next cycle.
            if (keep != i)
                std::memmove(q.at + keep, q.at + i,
                             (q.size - i) * sizeof(IqEntry));
            keep += q.size - i;
            nextReady = now + 1;
            break;
        }
        IqEntry ref = q.at[i];
        size_t s = ref.slot;
        const SlotHot h = _hot[s];
        MOMSIM_ASSERT(metaGen(h.meta) == ref.gen &&
                          metaState(h.meta) == State::Dispatched,
                      "stale issue-queue entry");
        if (metaPending(h.meta) == 0 && h.when <= now) {
            ++used;             // an issue slot is consumed by the attempt
            if (tryExecute(ref.tid, s, kind)) {
                Thread &t = _threads[static_cast<size_t>(ref.tid)];
                if (metaState(_hot[s].meta) == State::Done)
                    wakeDependents(t, s);
                t.iqCount -= 1;
                t.oqCount -= _cold[s].op.eq;
                _stats.at(_ctrIssued) += 1;
                continue;
            }
            // FU busy / access rejected: retry next cycle.
        }
        // Stays queued. A pending entry's wakeup will relax the bound;
        // otherwise its ready cycle bounds the next scan.
        if (metaPending(h.meta) == 0)
            nextReady = std::min(nextReady, h.when);
        // Compaction writes only once the kept range diverges from the
        // scanned range (i.e. after the first issue) — on most cycles
        // most entries just stay put.
        if (keep != i)
            q.at[keep] = ref;
        ++keep;
    }
    q.size = keep;
    // Exact as of this scan (or the next cycle after an early exit);
    // later dispatches/wakeups only lower it.
    bound = nextReady;
}

void
SmtCore::issueStage()
{
    issueFromQueue(_iq[static_cast<int>(QueueKind::Mem)], _cfg.memIssue,
                   QueueKind::Mem);
    issueFromQueue(_iq[static_cast<int>(QueueKind::Int)], _cfg.intIssue,
                   QueueKind::Int);
    issueFromQueue(_iq[static_cast<int>(QueueKind::Fp)], _cfg.fpIssue,
                   QueueKind::Fp);
    issueFromQueue(_iq[static_cast<int>(QueueKind::Simd)], _cfg.simdIssue,
                   QueueKind::Simd);
}

// ---------------------------------------------------------------------
// Dispatch (decode + rename)
// ---------------------------------------------------------------------

SmtCore::DispatchGate
SmtCore::dispatchGate(const Thread &t, const FetchedInst &f) const
{
    // All three tests read counters indexed by decoded bytes, so they
    // are evaluated unconditionally and combined by priority (ROB, then
    // issue queue, then registers) instead of branching on each. A nop
    // enqueues nothing, so no issue queue can refuse it; an instruction
    // without a destination draws on the pseudo-pool that never runs
    // out.
    bool robFull =
        t.tail - t.head >= static_cast<uint64_t>(_cfg.windowPerThread);
    const IssueQueue &q = _iq[f.op.qkind];
    bool iqFull = q.size + f.op.enqueues > q.cap;
    bool regFull = _freeRegs[f.op.pool] <= 0;
    DispatchGate gate = regFull ? DispatchGate::RegFull : DispatchGate::Ok;
    gate = iqFull ? DispatchGate::IqFull : gate;
    return robFull ? DispatchGate::RobFull : gate;
}

void
SmtCore::dispatchStage()
{
    int budget = _cfg.decodeWidth;
    int n = _cfg.numThreads;
    const uint64_t now = _now;

    // Decode/rename one instruction from @p tid; false when its fetch
    // queue is empty or a structural gate blocks it (the gates only
    // tighten within a cycle, so a refused thread drops out of the
    // round-robin for the rest of the stage).
    auto tryDispatchOne = [this, now](int tid) -> bool {
        Thread &t = _threads[static_cast<size_t>(tid)];
        if (t.fetchQ.empty())
            return false;

        // Structural checks.
        const FetchedInst &f = t.fetchQ.front();
        DispatchGate gate = dispatchGate(t, f);
        if (gate != DispatchGate::Ok) {
            _stats.at(_ctrGateStalls[static_cast<int>(gate)]) += 1;
            return false;
        }
        const isa::TraceInst &inst = *f.inst;

        // Allocate and rename: reset the recycled slot's columns and
        // cold payload (the waiter vector is cleared, not replaced, so
        // it keeps its capacity). The metadata word — generation,
        // pending count, queue kind, state — is assembled in registers
        // and written once.
        uint64_t pos = t.tail++;
        size_t s = slotOf(t, pos);
        RobCold &cold = _cold[s];
        cold.inst = f.inst;
        cold.op = f.op;
        _colPos[s] = pos;
        cold.mispredicted = f.mispredicted;
        cold.storePending =
            f.op.cls == static_cast<uint8_t>(OpClass::Store) ||
            f.op.cls == static_cast<uint8_t>(OpClass::MmxStore);
        cold.elemsIssued = 0;
        cold.streamReady = 0;
        uint64_t gen = ++t.genTick & kMetaGenMask;
        _waiters[s].clear();

        // Rename-table entry kNoReg always holds -1, so an absent
        // source reads "no producer" and an absent destination writes
        // -1 back: no validity branches.
        cold.prod[0] = t.rename[inst.src0];
        cold.prod[1] = t.rename[inst.src1];
        cold.prod[2] = t.rename[inst.src2];
        int pending = trackProducers(t, s, pos, gen);
        cold.prevWriter = t.rename[inst.dst];
        t.rename[inst.dst] =
            inst.dst == isa::kNoReg ? -1 : static_cast<int64_t>(pos);
        _freeRegs[f.op.pool] -= 1;

        QueueKind kind = static_cast<QueueKind>(f.op.qkind);
        if (!f.op.enqueues) {
            _hot[s].meta = metaPack(gen, pending, kind, State::Done);
            _hot[s].when = now;
        } else {
            _hot[s].meta = metaPack(gen, pending, kind, State::Dispatched);
            _iq[f.op.qkind].push({ pos, gen, static_cast<uint32_t>(s),
                                   tid });
            t.iqCount += 1;
            t.oqCount += f.op.eq;
            if (pending == 0)
                relaxQueueBound(s);
        }

        t.fetchQ.pop_front();
        _stats.at(_ctrDispatched) += 1;
        return true;
    };

    // Round-robin from _dispatchRotate, one instruction per thread per
    // round; only threads that just dispatched stay in later rounds
    // (a stall counter fires at the moment a thread drops out gated,
    // exactly like the naive every-pass walk did).
    int active[8];
    int numActive = 0;
    int tid = _dispatchRotate;
    for (int i = 0; i < n && budget > 0;
         ++i, tid = (tid + 1 == n ? 0 : tid + 1)) {
        if (tryDispatchOne(tid)) {
            --budget;
            active[numActive++] = tid;
        }
    }
    while (budget > 0 && numActive > 0) {
        int stillActive = 0;
        for (int i = 0; i < numActive && budget > 0; ++i) {
            if (tryDispatchOne(active[i])) {
                --budget;
                active[stillActive++] = active[i];
            }
        }
        numActive = stillActive;
    }
    _dispatchRotate = (_dispatchRotate + 1 == n ? 0 : _dispatchRotate + 1);
}

// ---------------------------------------------------------------------
// Fetch
// ---------------------------------------------------------------------

bool
SmtCore::vectorPipeEmpty() const
{
    return _iq[static_cast<int>(QueueKind::Simd)].size == 0 &&
           _momFuBusyUntil <= _now;
}

int
SmtCore::fetchOrder(int order[8])
{
    int n = _cfg.numThreads;
    int tid = _fetchRotate;
    for (int i = 0; i < n; ++i, tid = (tid + 1 == n ? 0 : tid + 1))
        order[i] = tid;

    // Stable insertion sort over a precomputed key array: at most 8
    // threads, runs every cycle, and loads each thread's counter once
    // instead of per comparison.
    int64_t keys[8];
    auto sortByKeys = [order, n, &keys]() {
        for (int i = 1; i < n; ++i) {
            int v = order[i];
            int64_t k = keys[v];
            int j = i;
            while (j > 0 && k < keys[order[j - 1]]) {
                order[j] = order[j - 1];
                --j;
            }
            order[j] = v;
        }
    };
    switch (_cfg.fetchPolicy) {
      case FetchPolicy::RoundRobin:
        break;
      case FetchPolicy::ICount:
        for (int t = 0; t < n; ++t)
            keys[t] = _threads[static_cast<size_t>(t)].iqCount;
        sortByKeys();
        break;
      case FetchPolicy::OCount:
        for (int t = 0; t < n; ++t)
            keys[t] = _threads[static_cast<size_t>(t)].oqCount;
        sortByKeys();
        break;
      case FetchPolicy::Balance: {
        // Promote one thread of the class the vector pipeline needs to
        // the front; the rest keep the round-robin rotation (the paper
        // breaks same-priority ties round-robin — a full class sort
        // would let two permanently-scalar threads monopolize both
        // fetch groups and starve the machine).
        bool wantVector = vectorPipeEmpty();
        for (int i = 0; i < n; ++i) {
            int chosen = order[i];
            if (_threads[static_cast<size_t>(chosen)].lastFetchVector ==
                wantVector) {
                for (int j = i; j > 0; --j)
                    order[j] = order[j - 1];
                order[0] = chosen;
                break;
            }
        }
        break;
      }
    }
    _fetchRotate = (_fetchRotate + 1 == n ? 0 : _fetchRotate + 1);
    return n;
}

void
SmtCore::fetchStage()
{
    int order[8];
    const int n = fetchOrder(order);
    int orderIdx = 0;
    const uint64_t now = _now;

    for (int g = 0; g < _cfg.fetchGroups; ++g) {
        // Find the next eligible thread (the same thread may supply both
        // groups when it is the only one ready), wrapping around the
        // priority order from where the previous group's search ended.
        int tid = -1;
        int idx = orderIdx;
        for (int scanned = 0; scanned < n; ++scanned) {
            int cand = order[idx];
            idx = idx + 1 == n ? 0 : idx + 1;
            Thread &t = _threads[static_cast<size_t>(cand)];
            if (!t.prog || t.cursor >= t.prog->size())
                continue;
            if (t.fetchReady > now)
                continue;
            if (static_cast<int>(t.fetchQ.size()) + _cfg.fetchGroupSize >
                _cfg.fetchQueueDepth)
                continue;
            tid = cand;
            orderIdx = idx;
            break;
        }
        if (tid < 0)
            return;

        Thread &t = _threads[static_cast<size_t>(tid)];
        const auto &insts = t.prog->insts();
        uint64_t groupPc = insts[t.cursor].pc;
        mem::FetchReply rep = _mem.ifetch(now, groupPc);
        if (!rep.accepted) {
            _stats.at(_ctrIfetchRejected) += 1;
            continue;       // I-cache port/bank conflict this cycle
        }
        if (!rep.hit) {
            t.fetchReady = rep.readyCycle;
            _stats.at(_ctrIcacheMissStalls) += 1;
            continue;
        }

        bool fetchedVector = false;
        for (int k = 0; k < _cfg.fetchGroupSize &&
                        t.cursor < t.prog->size(); ++k) {
            FetchedInst f;
            f.inst = &insts[t.cursor];
            f.op = decode(*f.inst);
            ++t.cursor;
            OpClass cls = static_cast<OpClass>(f.op.cls);

            if (f.inst->isCondBranch()) {
                bool pred = _bpred.predict(tid, f.inst->pc);
                bool actual = f.inst->taken();
                f.mispredicted = (pred != actual);
                _bpred.update(tid, f.inst->pc, actual);
                _stats.at(_ctrCondBranches) += 1;
            }
            fetchedVector |= isa::isSimd(cls);

            t.fetchQ.push_back(f);
            _stats.at(_ctrFetched) += 1;

            // A group ends at taken control flow.
            if (isa::isControl(cls) && f.inst->taken())
                break;
        }
        t.lastFetchVector = fetchedVector;
    }
}

// ---------------------------------------------------------------------
// Flush
// ---------------------------------------------------------------------

void
SmtCore::scrubQueue(IssueQueue &q, int tid, uint64_t branchPos)
{
    uint32_t keep = 0;
    for (uint32_t i = 0; i < q.size; ++i) {
        IqEntry ref = q.at[i];
        if (ref.tid == tid && ref.pos > branchPos)
            continue;
        if (keep != i)
            q.at[keep] = ref;
        ++keep;
    }
    q.size = keep;
}

void
SmtCore::flushThread(int tid, uint64_t branchPos)
{
    Thread &t = _threads[static_cast<size_t>(tid)];

    // Roll back rename state and free registers, youngest first.
    // Squashed slots keep their generation tag until reallocated, so
    // wakeup records pointing at them stay inert (the pos column is
    // set to the squash sentinel here; a recycled slot gets a fresh
    // gen). As at dispatch, an absent destination rolls back rename
    // entry kNoReg to its constant -1 and returns its pseudo-register.
    while (t.tail > branchPos + 1) {
        uint64_t pos = --t.tail;
        size_t s = slotOf(t, pos);
        if (_colPos[s] != pos)
            continue;
        const RobCold &cold = _cold[s];
        t.rename[cold.inst->dst] = cold.prevWriter;
        _freeRegs[cold.op.pool] += 1;
        if (metaState(_hot[s].meta) == State::Dispatched) {
            t.iqCount -= 1;
            t.oqCount -= cold.op.eq;
        }
        setMetaState(s, State::Empty);
        _colPos[s] = ~0ull;
        _stats.at(_ctrSquashed) += 1;
    }

    for (IssueQueue &q : _iq)
        scrubQueue(q, tid, branchPos);
    scrubQueue(_activeStreams, tid, branchPos);

    // Redirect the front end. Dispatch follows fetch order exactly, so a
    // thread's ROB position equals its trace index; the correct-path
    // continuation starts right after the branch.
    t.fetchQ.clear();
    t.cursor = static_cast<size_t>(branchPos + 1);

    t.fetchReady = std::max(t.fetchReady,
                            _hot[slotOf(t, branchPos)].when +
                            static_cast<uint64_t>(_cfg.mispredictPenalty));
    _stats.at(_ctrFlushes) += 1;
}

} // namespace momsim::cpu
