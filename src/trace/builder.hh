/**
 * @file
 * TraceBuilder: the infrastructure of the emulation libraries.
 *
 * A TraceBuilder owns, for one benchmark instance:
 *  - the simulated data memory (allocated with alloc(), accessed by the
 *    emitters, so the codecs genuinely compute through simulated memory;
 *    zero pages from the kernel, so only the pages a codec touches cost
 *    memory or time);
 *  - the synthetic code layout: every routine gets a code region, each
 *    invocation re-emits the same PCs, and loop helpers re-emit identical
 *    loop-body PCs with an explicit backward branch — so the I-cache and
 *    branch predictor observe realistic static/dynamic code behaviour;
 *  - compiler-style round-robin logical register allocation;
 *  - the InstStore the trace records are written into, once each.
 *
 * The typed emitters (ScalarEmitter, MmxEmitter, MomEmitter) layer the
 * instruction-set semantics on top of this class.
 */

#ifndef MOMSIM_TRACE_BUILDER_HH
#define MOMSIM_TRACE_BUILDER_HH

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/logging.hh"
#include "isa/simd_isa.hh"
#include "trace/program.hh"

namespace momsim::trace
{

/** Default virtual span reserved for one routine's code. */
constexpr uint32_t kDefaultRoutineSpan = 2048;

class TraceBuilder
{
  public:
    /**
     * @param name benchmark instance name
     * @param simd which µ-SIMD extension the vectorized kernels use
     * @param base start of this instance's address space (code then data)
     * @param dataCapacity simulated data memory size in bytes
     */
    TraceBuilder(std::string name, isa::SimdIsa simd, uint32_t base,
                 uint32_t dataCapacity = 4u << 20);

    isa::SimdIsa simdIsa() const { return _simd; }

    // -----------------------------------------------------------------
    // Simulated data memory
    // -----------------------------------------------------------------

    /** Reserve @p bytes of simulated memory; returns its address. */
    uint32_t alloc(uint32_t bytes, uint32_t align = 64);

    uint8_t peek8(uint32_t addr) const;
    uint16_t peek16(uint32_t addr) const;
    uint32_t peek32(uint32_t addr) const;
    uint64_t peek64(uint32_t addr) const;

    void poke8(uint32_t addr, uint8_t v);
    void poke16(uint32_t addr, uint16_t v);
    void poke32(uint32_t addr, uint32_t v);
    void poke64(uint32_t addr, uint64_t v);

    /** Bulk initialization helper (synthetic inputs, tables). */
    void pokeBytes(uint32_t addr, const uint8_t *data, uint32_t len);
    void peekBytes(uint32_t addr, uint8_t *out, uint32_t len) const;

    uint32_t dataBase() const { return _dataBase; }
    uint32_t dataBrk() const { return _dataBrk; }

    // -----------------------------------------------------------------
    // Code layout and control flow
    // -----------------------------------------------------------------

    /**
     * Enter the named routine: emits a JSR and moves the PC cursor to the
     * routine's region base (identical PCs on every invocation).
     */
    void callRoutine(const std::string &name,
                     uint32_t span = kDefaultRoutineSpan);

    /** Emit RET and restore the caller's PC cursor. */
    void returnFromRoutine();

    /** Mark the top of a loop body; returns the PC to branch back to. */
    uint32_t loopHead() const { return _pc; }

    /**
     * Close one loop iteration with a conditional backward branch reading
     * @p condReg. If @p again, the branch is taken and the PC cursor
     * returns to @p head so the next iteration re-emits the same PCs.
     */
    void loopBack(uint32_t head, isa::RegRef condReg, bool again);

    /** Current PC cursor (for tests). */
    uint32_t pc() const { return _pc; }

    // -----------------------------------------------------------------
    // Logical register allocation (compiler-style round robin)
    // -----------------------------------------------------------------

    isa::RegRef allocInt();
    isa::RegRef allocFp();
    isa::RegRef allocMmx();
    isa::RegRef allocMom();

    // -----------------------------------------------------------------
    // Raw emission
    // -----------------------------------------------------------------

    /**
     * Append an instruction with opcode @p op at the current PC and
     * advance the cursor. Returns a reference for operand fill-in that
     * stays valid until take().
     */
    isa::TraceInst &emit(isa::Op op);

    size_t instCount() const { return _insts.size(); }

    /** Hand the finished trace over (builder must not be reused). */
    Program take();

    /** Bytes of code span allocated so far (static footprint). */
    uint32_t codeFootprint() const { return _codeBrk - _codeBase; }

  private:
    struct Frame
    {
        uint32_t resumePc;
        uint32_t regionBase;
        uint32_t regionLimit;
    };

    uint32_t advancePc();

    /** Returns the simulated data memory's pages to the kernel. */
    struct Unmap
    {
        size_t bytes;
        void operator()(uint8_t *p) const;
    };

    std::string _name;
    isa::SimdIsa _simd;
    InstStore _insts;
    std::unique_ptr<uint8_t, Unmap> _data;
    uint32_t _base;
    uint32_t _codeBase;
    uint32_t _codeBrk;
    uint32_t _dataBase;
    uint32_t _dataBrk;
    uint32_t _dataLimit;

    uint32_t _pc;
    uint32_t _regionBase;
    uint32_t _regionLimit;
    std::vector<Frame> _callStack;
    std::unordered_map<std::string, std::pair<uint32_t, uint32_t>> _regions;

    int _nextInt = 0;
    int _nextFp = 0;
    int _nextMmx = 0;
    int _nextMom = 0;
};

} // namespace momsim::trace

#endif // MOMSIM_TRACE_BUILDER_HH
