/**
 * @file
 * A Program is the dynamic instruction stream of one benchmark instance,
 * produced by the emulation libraries and consumed by the SMT core.
 *
 * A Program is immutable: a name, the InstStore its TraceBuilder wrote
 * the records into (contiguous, never copied on the way), and the
 * Table-3 mix computed once when the program is made. Every consumer
 * reads the records through the InstView returned by insts().
 */

#ifndef MOMSIM_TRACE_PROGRAM_HH
#define MOMSIM_TRACE_PROGRAM_HH

#include <cstdint>
#include <string>

#include "isa/simd_isa.hh"
#include "isa/trace_inst.hh"
#include "trace/inst_store.hh"

namespace momsim::trace
{

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
 * back).
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
    /** Take ownership of a finished trace (none: empty) and its mix. */
    Program(std::string name, isa::SimdIsa simd,
            InstStore insts = InstStore());

    const std::string &name() const { return _name; }
    isa::SimdIsa simdIsa() const { return _simd; }

    InstView insts() const { return InstView(_insts.data(), _insts.size()); }

    size_t size() const { return _insts.size(); }
    bool empty() const { return size() == 0; }

    /**
     * The Table-3 accounting over the whole trace, computed once at
     * construction: the simulation driver reads eqInsts per run
     * (partial-credit EIPC), and a program shared read-only across
     * worker threads has nothing left to compute.
     */
    const MixSummary &mix() const { return _mix; }

    /**
     * A copy with every code and data address shifted by @p delta.
     * Used to give the second instance of a benchmark (the paper runs
     * MPEG-2 decode twice) its own address space. Each record is
     * written once, already shifted, into the copy's own store.
     */
    Program rebased(uint32_t delta, const std::string &newName) const;

  private:
    MixSummary computeMix() const;

    std::string _name;
    isa::SimdIsa _simd = isa::SimdIsa::Mmx;
    InstStore _insts;
    MixSummary _mix;
};

} // namespace momsim::trace

#endif // MOMSIM_TRACE_PROGRAM_HH
