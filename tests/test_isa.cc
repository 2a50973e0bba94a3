/**
 * @file
 * Unit tests for the ISA layer: opcode table invariants (including the
 * paper's exact 67/121 extension sizes), register encoding, TraceInst
 * semantics and the disassembler.
 */

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "isa/opcodes.hh"
#include "isa/regs.hh"
#include "isa/trace_inst.hh"

namespace momsim::isa
{
namespace
{

TEST(OpcodeTable, PaperExtensionSizes)
{
    // Section 3: 67 MMX-like instructions, 121 MOM opcodes.
    EXPECT_EQ(kNumMmxOps, 67);
    EXPECT_EQ(kNumMomOps, 121);
    EXPECT_EQ(kNumScalarOps + kNumMmxOps + kNumMomOps,
              static_cast<int>(kNumOps));
}

TEST(OpcodeTable, NamesAreUniqueAndNonEmpty)
{
    std::set<std::string> names;
    for (uint16_t v = 0; v < kNumOps; ++v) {
        const OpInfo &info = opInfo(static_cast<Op>(v));
        ASSERT_NE(info.name, nullptr);
        ASSERT_GT(std::string(info.name).size(), 0u);
        ASSERT_TRUE(names.insert(info.name).second)
            << "duplicate opcode name " << info.name;
    }
}

TEST(OpcodeTable, LatenciesArePositive)
{
    for (uint16_t v = 0; v < kNumOps; ++v) {
        const OpInfo &info = opInfo(static_cast<Op>(v));
        ASSERT_GE(info.latency, 1) << info.name;
        ASSERT_LE(info.latency, 32) << info.name;
    }
}

TEST(OpcodeTable, ClassRangesAreConsistent)
{
    for (uint16_t v = 0; v < kNumOps; ++v) {
        Op op = static_cast<Op>(v);
        OpClass cls = opClass(op);
        if (isMmxOp(op)) {
            EXPECT_TRUE(isMmx(cls)) << opName(op);
        } else if (isMomOp(op)) {
            EXPECT_TRUE(isMom(cls)) << opName(op);
        } else {
            EXPECT_FALSE(isMmx(cls) || isMom(cls)) << opName(op);
        }
    }
}

TEST(OpcodeTable, UnpipelinedOpsAreLongLatency)
{
    for (uint16_t v = 0; v < kNumOps; ++v) {
        const OpInfo &info = opInfo(static_cast<Op>(v));
        if (!info.pipelined) {
            EXPECT_GE(info.latency, 8) << info.name;
        }
    }
}

TEST(OpClassHelpers, Partitions)
{
    // Every class lands in exactly one queue and one mix group.
    for (OpClass c : { OpClass::IntAlu, OpClass::Load, OpClass::MmxAlu,
                       OpClass::MomLoad, OpClass::FpDiv, OpClass::Branch,
                       OpClass::MomAcc, OpClass::MmxStore }) {
        int buckets = 0;
        buckets += isMemory(c) ? 1 : 0;
        buckets += isFp(c) ? 1 : 0;
        buckets += (isSimd(c) && !isMemory(c)) ? 1 : 0;
        MixGroup g = mixGroup(c);
        if (buckets == 0) {
            EXPECT_EQ(g, MixGroup::Int);
        }
    }
    EXPECT_EQ(mixGroup(OpClass::Load), MixGroup::Mem);
    EXPECT_EQ(mixGroup(OpClass::MomLoad), MixGroup::Mem);
    EXPECT_EQ(mixGroup(OpClass::MmxStore), MixGroup::Mem);
    EXPECT_EQ(mixGroup(OpClass::MomAlu), MixGroup::SimdArith);
    EXPECT_EQ(mixGroup(OpClass::MmxMul), MixGroup::SimdArith);
    EXPECT_EQ(mixGroup(OpClass::FpMul), MixGroup::Fp);
    EXPECT_EQ(mixGroup(OpClass::Branch), MixGroup::Int);
    EXPECT_EQ(mixGroup(OpClass::Nop), MixGroup::Int);
}

TEST(OpClassHelpers, QueueAssignment)
{
    EXPECT_EQ(queueKind(OpClass::IntAlu), QueueKind::Int);
    EXPECT_EQ(queueKind(OpClass::Branch), QueueKind::Int);
    EXPECT_EQ(queueKind(OpClass::Load), QueueKind::Mem);
    EXPECT_EQ(queueKind(OpClass::MmxLoad), QueueKind::Mem);
    EXPECT_EQ(queueKind(OpClass::MomStore), QueueKind::Mem);
    EXPECT_EQ(queueKind(OpClass::FpDiv), QueueKind::Fp);
    EXPECT_EQ(queueKind(OpClass::MmxAlu), QueueKind::Simd);
    EXPECT_EQ(queueKind(OpClass::MomAcc), QueueKind::Simd);
}

TEST(OpClassHelpers, TablesMatchThePredicatesTheyReplace)
{
    // mixGroup and queueKind are lookup tables on the simulator's
    // hottest lines; every entry must equal the predicate chain it
    // replaced (memory, then fp, then SIMD, else int).
    EXPECT_EQ(kNumOpClasses, static_cast<int>(OpClass::Nop) + 1);
    for (int i = 0; i < kNumOpClasses; ++i) {
        OpClass c = static_cast<OpClass>(i);
        MixGroup wantMix = isMemory(c) ? MixGroup::Mem
                           : isFp(c)   ? MixGroup::Fp
                           : isSimd(c) ? MixGroup::SimdArith
                                       : MixGroup::Int;
        QueueKind wantQueue = isMemory(c) ? QueueKind::Mem
                              : isFp(c)   ? QueueKind::Fp
                              : isSimd(c) ? QueueKind::Simd
                                          : QueueKind::Int;
        EXPECT_EQ(mixGroup(c), wantMix) << toString(c);
        EXPECT_EQ(queueKind(c), wantQueue) << toString(c);
        EXPECT_EQ(countsStreamLen(c), isMom(c) && c != OpClass::MomCtl)
            << toString(c);
    }
}

TEST(TraceInst, BranchFreeEqInstsMatchesTheDefinition)
{
    // eqInsts() is computed without branches; check it against the
    // definition for every op class and every stream length, 0 included
    // (a zero length counts as one).
    for (int i = 0; i < kNumOps; ++i) {
        Op op = static_cast<Op>(i);
        for (int len : { 0, 1, 2, 11, 16, 255 }) {
            TraceInst inst;
            inst.op = static_cast<uint16_t>(i);
            inst.streamLen = static_cast<uint8_t>(len);
            OpClass c = opClass(op);
            uint32_t want = (isMom(c) && c != OpClass::MomCtl)
                ? static_cast<uint32_t>(len ? len : 1) : 1u;
            EXPECT_EQ(inst.eqInsts(), want) << opName(op) << " len " << len;
        }
    }
}

TEST(Regs, EncodingRoundTrip)
{
    for (int i = 0; i < 32; ++i) {
        EXPECT_EQ(regClass(intReg(i)), RegClass::Int);
        EXPECT_EQ(regIndex(intReg(i)), i);
        EXPECT_EQ(regClass(fpReg(i)), RegClass::Fp);
        EXPECT_EQ(regIndex(fpReg(i)), i);
        EXPECT_EQ(regClass(mmxReg(i)), RegClass::Mmx);
        EXPECT_EQ(regIndex(mmxReg(i)), i);
    }
    for (int i = 0; i < 16; ++i) {
        EXPECT_EQ(regClass(momReg(i)), RegClass::Mom);
        EXPECT_EQ(regIndex(momReg(i)), i);
    }
    EXPECT_EQ(regClass(accReg(0)), RegClass::Mom);
    EXPECT_EQ(regIndex(accReg(0)), 16);
    EXPECT_EQ(regIndex(accReg(1)), 17);
    EXPECT_EQ(regClass(slReg()), RegClass::Int);
    EXPECT_EQ(regIndex(slReg()), kSlRegIndex);
}

TEST(Regs, DistinctAcrossClasses)
{
    std::set<RegRef> all;
    for (int i = 0; i < 32; ++i) {
        all.insert(intReg(i));
        all.insert(fpReg(i));
        all.insert(mmxReg(i));
    }
    for (int i = 0; i < 18; ++i)
        all.insert(momReg(i));
    EXPECT_EQ(all.size(), 32u * 3 + 18);
    EXPECT_EQ(all.count(kNoReg), 0u);
}

TEST(TraceInst, EqInstsWeighting)
{
    TraceInst scalar;
    scalar.op = static_cast<uint16_t>(Op::ADDL);
    EXPECT_EQ(scalar.eqInsts(), 1u);

    TraceInst mmx;
    mmx.op = static_cast<uint16_t>(Op::PADDW);
    EXPECT_EQ(mmx.eqInsts(), 1u);

    TraceInst mom;
    mom.op = static_cast<uint16_t>(Op::MADD_QH);
    mom.streamLen = 11;
    EXPECT_EQ(mom.eqInsts(), 11u);   // the paper's exact example

    TraceInst ctl;
    ctl.op = static_cast<uint16_t>(Op::MSETLEN);
    ctl.streamLen = 16;
    EXPECT_EQ(ctl.eqInsts(), 1u);    // control ops are not weighted
}

TEST(TraceInst, MemAccessExpansion)
{
    TraceInst ld;
    ld.op = static_cast<uint16_t>(Op::MLDQS);
    ld.addr = 0x1000;
    ld.streamLen = 4;
    ld.stride = 64;
    ld.accessSize = 8;
    EXPECT_EQ(ld.memAccesses(), 4u);
    EXPECT_EQ(ld.elementAddr(0), 0x1000u);
    EXPECT_EQ(ld.elementAddr(3), 0x10C0u);

    TraceInst neg = ld;
    neg.stride = -8;
    EXPECT_EQ(neg.elementAddr(2), 0x1000u - 16u);

    TraceInst scalar;
    scalar.op = static_cast<uint16_t>(Op::LDQ);
    scalar.addr = 0x2000;
    EXPECT_EQ(scalar.memAccesses(), 1u);
    TraceInst alu;
    alu.op = static_cast<uint16_t>(Op::ADDL);
    EXPECT_EQ(alu.memAccesses(), 0u);
}

TEST(TraceInst, FlagQueries)
{
    TraceInst br;
    br.op = static_cast<uint16_t>(Op::BNE);
    br.flags = kFlagTaken | kFlagCond;
    EXPECT_TRUE(br.isControl());
    EXPECT_TRUE(br.isCondBranch());
    EXPECT_TRUE(br.taken());

    TraceInst jmp;
    jmp.op = static_cast<uint16_t>(Op::BR);
    jmp.flags = kFlagTaken;
    EXPECT_TRUE(jmp.isControl());
    EXPECT_FALSE(jmp.isCondBranch());
}

TEST(Disasm, RendersOperandsAndStreams)
{
    TraceInst inst;
    inst.pc = 0x400100;
    inst.op = static_cast<uint16_t>(Op::MADD_QH);
    inst.dst = momReg(1);
    inst.src0 = momReg(2);
    inst.src1 = momReg(3);
    inst.streamLen = 8;
    std::string s = disasm(inst);
    EXPECT_NE(s.find("MADD_QH"), std::string::npos);
    EXPECT_NE(s.find("v1"), std::string::npos);
    EXPECT_NE(s.find("len=8"), std::string::npos);

    TraceInst ld;
    ld.op = static_cast<uint16_t>(Op::LDQ);
    ld.dst = intReg(5);
    ld.addr = 0xBEEF;
    std::string t = disasm(ld);
    EXPECT_NE(t.find("LDQ"), std::string::npos);
    EXPECT_NE(t.find("beef"), std::string::npos);

    TraceInst sl;
    sl.op = static_cast<uint16_t>(Op::MSETLEN);
    sl.dst = slReg();
    EXPECT_NE(disasm(sl).find("sl"), std::string::npos);
}

} // namespace
} // namespace momsim::isa
