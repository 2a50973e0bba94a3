/**
 * @file
 * The dynamic-instruction record produced by the emulation libraries and
 * consumed by the cycle-level SMT core.
 *
 * One TraceInst is one architected instruction. A MOM stream instruction is
 * a single TraceInst whose streamLen/stride fields describe the stream; the
 * core expands it into per-element work, and the statistics layer counts it
 * as streamLen "equivalent instructions" exactly as the paper's Table 3
 * does.
 */

#ifndef MOMSIM_ISA_TRACE_INST_HH
#define MOMSIM_ISA_TRACE_INST_HH

#include <cstdint>
#include <string>

#include "isa/opcodes.hh"
#include "isa/regs.hh"

namespace momsim::isa
{

/** TraceInst::flags bits. */
enum : uint8_t
{
    kFlagTaken = 0x01,      ///< control op whose branch was taken
    kFlagCond = 0x02,       ///< conditional branch (predictable)
    kFlagKernel = 0x04,     ///< emitted inside a vectorizable kernel
};

/** One dynamic instruction (packed to 20 bytes; traces hold millions). */
struct TraceInst
{
    uint32_t pc = 0;        ///< synthetic instruction address
    uint32_t addr = 0;      ///< effective address / branch target
    uint16_t op = 0;        ///< isa::Op
    uint8_t flags = 0;
    RegRef dst = kNoReg;
    RegRef src0 = kNoReg;
    RegRef src1 = kNoReg;
    RegRef src2 = kNoReg;
    uint8_t accessSize = 0; ///< bytes per element for memory ops
    uint8_t streamLen = 1;  ///< MOM stream length (1 otherwise)
    int16_t stride = 0;     ///< byte distance between stream elements

    Op opcode() const { return static_cast<Op>(op); }
    OpClass opClass() const { return isa::opClass(opcode()); }

    bool isLoad() const { return isa::isLoad(opClass()); }
    bool isStore() const { return isa::isStore(opClass()); }
    bool isMemory() const { return isa::isMemory(opClass()); }
    bool isControl() const { return isa::isControl(opClass()); }
    bool isCondBranch() const { return flags & kFlagCond; }
    bool taken() const { return flags & kFlagTaken; }
    bool isMom() const { return isa::isMom(opClass()); }
    bool isMmx() const { return isa::isMmx(opClass()); }

    /**
     * Equivalent-instruction weight: a MOM stream op of length L counts as
     * L instructions (the paper's accounting for Table 3 and EIPC).
     */
    uint32_t
    eqInsts() const
    {
        // Branch-free: 1 + (max(streamLen, 1) - 1) for stream-counted ops.
        uint32_t len = streamLen + (streamLen == 0);
        return 1 + (len - 1) * isa::countsStreamLen(opClass());
    }

    /** Number of per-element memory accesses this instruction performs. */
    uint32_t
    memAccesses() const
    {
        if (!isMemory())
            return 0;
        return isMom() ? (streamLen ? streamLen : 1) : 1;
    }

    /** Address of the i-th element access. */
    uint64_t
    elementAddr(uint32_t i) const
    {
        return static_cast<uint64_t>(addr) +
               static_cast<int64_t>(stride) * i;
    }
};

static_assert(sizeof(TraceInst) <= 20, "TraceInst must stay compact");

/** Render a TraceInst for debugging. */
std::string disasm(const TraceInst &inst);

} // namespace momsim::isa

#endif // MOMSIM_ISA_TRACE_INST_HH
