#include "core/simulation.hh"

#include <chrono>

#include "common/logging.hh"

namespace momsim::core
{

Simulation::Simulation(const cpu::CoreConfig &cfg, mem::MemModel memModel,
                       std::vector<WorkloadProgram> rotation,
                       const mem::MemConfig &memCfg)
    : _cfg(cfg),
      _rotation(std::move(rotation)),
      _mem(mem::makeMemorySystem(memModel, memCfg)),
      _core(std::make_unique<cpu::SmtCore>(cfg, *_mem)),
      _running(static_cast<size_t>(cfg.numThreads), 0)
{
    // Unconditional (not MOMSIM_ASSERT, which Release compiles away):
    // these validate caller-supplied configuration, once per run.
    if (_rotation.empty())
        panic("empty workload rotation");
    for (const auto &wp : _rotation) {
        if (wp.prog == nullptr)
            panic("null program in rotation");
        if (wp.prog->simdIsa() != cfg.simd)
            panic("program ISA does not match core ISA");
    }
    for (int tid = 0; tid < cfg.numThreads; ++tid)
        attachNext(tid);
}

void
Simulation::attachNext(int tid)
{
    size_t idx = _nextProgram % _rotation.size();
    _nextProgram += 1;
    _running[static_cast<size_t>(tid)] = idx;
    _core->attachProgram(tid, _rotation[idx].prog);
}

RunResult
Simulation::run(int targetCompletions, uint64_t maxCycles)
{
    begin(targetCompletions, maxCycles);
    while (!advance(maxCycles)) {
    }
    return finish();
}

void
Simulation::begin(int targetCompletions, uint64_t maxCycles)
{
    if (_phase != Phase::Fresh)
        panic("Simulation::begin on an already-started run");
    if (targetCompletions < 0)
        targetCompletions = static_cast<int>(_rotation.size());
    _target = targetCompletions;
    _maxCycles = maxCycles;
    _cycleStart = _core->now();
    _phase = Phase::Running;
    if (_completions >= _target || _core->now() >= _maxCycles)
        _phase = Phase::Done;
}

bool
Simulation::advance(uint64_t cycleBudget)
{
    if (_phase == Phase::Fresh)
        panic("Simulation::advance before begin");
    if (_phase == Phase::Done)
        return true;

    // momlint: allow(nondet-source) self-measurement: wallMs feeds the
    // reporting-only wall_ms/sim_kcps fields, never simulation state
    auto wallStart = std::chrono::steady_clock::now();
    // The slice's horizon caps the core's idle fast-forward at a
    // nearer cycle, which is byte-identical to an uncapped run: the
    // core simulates exactly the cycles a naive per-cycle walk would.
    uint64_t headroom = _maxCycles - _core->now();
    uint64_t horizon = _core->now() +
                       (cycleBudget < headroom ? cycleBudget : headroom);
    while (_completions < _target && _core->now() < horizon) {
        uint64_t committedBefore = _core->committedRecords();
        _core->step(horizon);
        if (!_idleScanPending &&
            _core->committedRecords() == committedBefore)
            continue;
        _idleScanPending = false;
        for (int tid = 0; tid < _cfg.numThreads; ++tid) {
            if (!_core->threadIdle(tid))
                continue;
            const WorkloadProgram &wp =
                _rotation[_running[static_cast<size_t>(tid)]];
            // Conservation: a completed context committed its whole
            // trace, each record weighted as the program's mix counts it.
            MOMSIM_ASSERT(_core->threadCommittedEq(tid) ==
                              wp.prog->mix().eqInsts,
                          "completed context's committed eq != its "
                          "program's eqInsts");
            _completions += 1;
            _mmxWorkDone += wp.mmxEq;
            if (_completions >= _target) {
                // Keep remaining contexts' partial work for EIPC.
                break;
            }
            attachNext(tid);
            _idleScanPending = true;
        }
    }
    _wallMs += std::chrono::duration<double, std::milli>(
                   // momlint: allow(nondet-source) self-measurement, as above
                   std::chrono::steady_clock::now() - wallStart)
                   .count();

    if (_completions >= _target || _core->now() >= _maxCycles)
        _phase = Phase::Done;
    return _phase == Phase::Done;
}

RunResult
Simulation::finish()
{
    if (_phase != Phase::Done)
        panic("Simulation::finish before the run completed");

    // Partial credit for programs still in flight, scaled into
    // MMX-equivalent work by each program's own ratio.
    uint64_t partial = 0;
    for (int tid = 0; tid < _cfg.numThreads; ++tid) {
        if (_core->threadIdle(tid))
            continue;
        const WorkloadProgram &wp =
            _rotation[_running[static_cast<size_t>(tid)]];
        uint64_t progEq = wp.prog->mix().eqInsts;
        if (progEq == 0)
            continue;
        double frac = static_cast<double>(_core->threadCommittedEq(tid)) /
                      static_cast<double>(progEq);
        partial += static_cast<uint64_t>(frac *
                       static_cast<double>(wp.mmxEq));
    }

    // Conservation: the commit counter counts every graduated record.
    MOMSIM_ASSERT(_core->stats().get("commits") ==
                      _core->committedRecords(),
                  "core commits counter != committed records");

    RunResult res;
    res.cycles = _core->now();
    res.committedEq = _core->committedEq();
    res.ipc = _core->ipc();
    res.eipc = res.cycles
        ? static_cast<double>(_mmxWorkDone + partial) /
          static_cast<double>(res.cycles)
        : 0.0;
    res.l1HitRate = _mem->l1HitRate();
    res.icacheHitRate = _mem->icacheHitRate();
    res.l1AvgLatency = _mem->l1AvgLatency();
    res.mispredicts = _core->stats().get("mispredicts");
    res.condBranches = _core->stats().get("condBranches");
    res.completions = _completions;
    res.hitCycleLimit = _core->now() >= _maxCycles &&
                        _completions < _target;
    res.wallMs = _wallMs;
    // Simulated kilocycles per wall second == cycles per wall ms.
    uint64_t simmed = _core->now() - _cycleStart;
    res.simKcps = res.wallMs > 0.0
        ? static_cast<double>(simmed) / res.wallMs
        : 0.0;
    return res;
}

} // namespace momsim::core
