/**
 * @file
 * A Program is the dynamic instruction stream of one benchmark instance,
 * produced by the emulation libraries and consumed by the SMT core.
 *
 * A Program has two storage modes. While being built it owns a growable
 * vector; once finished it can be seal()ed into an InstArena, which
 * copies the records into the arena's contiguous block and drops the
 * vector — every consumer reads through the InstView returned by
 * insts(), which works identically in both modes.
 */

#ifndef MOMSIM_TRACE_PROGRAM_HH
#define MOMSIM_TRACE_PROGRAM_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "isa/simd_isa.hh"
#include "isa/trace_inst.hh"

namespace momsim::trace
{

class InstArena;

/** Table-3-style instruction accounting for one program. */
struct MixSummary
{
    uint64_t records = 0;       ///< TraceInst records (MOM stream op = 1)
    uint64_t eqInsts = 0;       ///< equivalent instructions (stream op = L)
    uint64_t intOps = 0;        ///< eq-weighted integer arithmetic+control
    uint64_t fpOps = 0;
    uint64_t simdOps = 0;       ///< eq-weighted SIMD arithmetic
    uint64_t memOps = 0;        ///< eq-weighted memory operations
    uint64_t memAccesses = 0;   ///< individual cache accesses
    uint64_t branches = 0;      ///< conditional branches
    uint64_t takenBranches = 0;

    double intPct() const { return frac(intOps); }
    double fpPct() const { return frac(fpOps); }
    double simdPct() const { return frac(simdOps); }
    double memPct() const { return frac(memOps); }

  private:
    double
    frac(uint64_t n) const
    {
        return eqInsts ? static_cast<double>(n) / eqInsts : 0.0;
    }
};

/**
 * Read-only span over a program's trace records. Mirrors the subset of
 * the std::vector interface the consumers use (indexing, iteration,
 * back), so sealed and in-build programs read the same way.
 */
class InstView
{
  public:
    InstView() = default;
    InstView(const isa::TraceInst *data, size_t size)
        : _data(data), _size(size)
    {}

    const isa::TraceInst *begin() const { return _data; }
    const isa::TraceInst *end() const { return _data + _size; }
    const isa::TraceInst *data() const { return _data; }
    const isa::TraceInst &operator[](size_t i) const { return _data[i]; }
    const isa::TraceInst &back() const { return _data[_size - 1]; }
    size_t size() const { return _size; }
    bool empty() const { return _size == 0; }

  private:
    const isa::TraceInst *_data = nullptr;
    size_t _size = 0;
};

/** A finished benchmark trace plus its identity and layout. */
class Program
{
  public:
    Program() = default;
    Program(std::string name, isa::SimdIsa simd)
        : _name(std::move(name)), _simd(simd)
    {}

    const std::string &name() const { return _name; }
    isa::SimdIsa simdIsa() const { return _simd; }

    InstView
    insts() const
    {
        return _sealed ? InstView(_span, _spanSize)
                       : InstView(_insts.data(), _insts.size());
    }

    /** Mutable access to the in-build trace; illegal once sealed. */
    std::vector<isa::TraceInst> &
    insts()
    {
        if (_sealed)
            panic("mutating a sealed Program");
        _mixValid = false;      // caller may mutate the trace
        return _insts;
    }

    size_t size() const { return _sealed ? _spanSize : _insts.size(); }
    bool empty() const { return size() == 0; }
    bool sealed() const { return _sealed; }

    void
    append(const isa::TraceInst &inst)
    {
        if (_sealed)
            panic("appending to a sealed Program");
        _mixValid = false;
        _insts.push_back(inst);
    }

    /**
     * Move the trace into @p arena's contiguous block and drop the
     * build vector. Identity, layout and the memoized mix are
     * unchanged (the mix is warmed first so sealed programs shared
     * read-only across worker threads never compute it concurrently).
     * Idempotent per program; the arena must have capacity reserved.
     */
    void seal(InstArena &arena);

    /**
     * The Table-3 accounting over the whole trace. Memoized: the
     * simulation driver reads eqInsts per run (partial-credit EIPC), so
     * recomputing the O(trace) walk each time would dominate short
     * runs. The cache is warmed by TraceBuilder::take()/rebased() and
     * by seal(), so programs shared read-only across worker threads never
     * write it concurrently; warm (call once) before sharing any
     * Program built another way.
     */
    const MixSummary &
    mix() const
    {
        if (!_mixValid) {
            _mix = computeMix();
            _mixValid = true;
        }
        return _mix;
    }

    /**
     * A copy with every code and data address shifted by @p delta.
     * Used to give the second instance of a benchmark (the paper runs
     * MPEG-2 decode twice) its own address space. The copy is always
     * in build storage (unsealed), whatever the source mode.
     */
    Program rebased(uint32_t delta, const std::string &newName) const;

  private:
    MixSummary computeMix() const;

    std::string _name;
    isa::SimdIsa _simd = isa::SimdIsa::Mmx;
    std::vector<isa::TraceInst> _insts;     ///< build storage (unsealed)
    const isa::TraceInst *_span = nullptr;  ///< arena storage (sealed)
    size_t _spanSize = 0;
    bool _sealed = false;
    mutable MixSummary _mix;
    mutable bool _mixValid = false;
};

} // namespace momsim::trace

#endif // MOMSIM_TRACE_PROGRAM_HH
