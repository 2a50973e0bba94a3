/**
 * @file
 * Operation classes and instruction-mix groups.
 *
 * OpClass drives pipeline behaviour (which issue queue, which functional
 * unit, which latency family). MixGroup is the coarser 4-way taxonomy the
 * paper's Table 3 reports (integer / FP / SIMD arithmetic / memory).
 */

#ifndef MOMSIM_ISA_OPCLASS_HH
#define MOMSIM_ISA_OPCLASS_HH

#include <cstdint>

namespace momsim::isa
{

/** Functional class of an instruction; selects queue/FU/latency. */
enum class OpClass : uint8_t
{
    IntAlu,     ///< simple integer ALU / logical / compare / cmov
    IntMul,     ///< integer multiply
    IntDiv,     ///< integer divide (unpipelined)
    Branch,     ///< conditional branch
    Jump,       ///< unconditional jump / call / return
    Load,       ///< scalar load (int or fp data)
    Store,      ///< scalar store
    FpAlu,      ///< FP add/sub/compare/convert/abs/neg
    FpMul,      ///< FP multiply
    FpDiv,      ///< FP divide / sqrt (unpipelined)
    MmxAlu,     ///< packed 64-bit SIMD ALU op
    MmxMul,     ///< packed SIMD multiply / multiply-add / SAD
    MmxLoad,    ///< 64-bit SIMD load
    MmxStore,   ///< 64-bit SIMD store
    MomAlu,     ///< stream SIMD ALU op (per-element MmxAlu semantics)
    MomMul,     ///< stream SIMD multiply family
    MomAcc,     ///< packed-accumulator op (MDMX-style, 192-bit accs)
    MomLoad,    ///< stream SIMD load (strided)
    MomStore,   ///< stream SIMD store (strided)
    MomCtl,     ///< stream control (stream-length register, moves)
    Nop,        ///< no-operation
};

/** Table-3 instruction-mix category. */
enum class MixGroup : uint8_t
{
    Int,        ///< integer arithmetic + control
    Fp,         ///< floating point arithmetic
    SimdArith,  ///< SIMD (MMX or MOM) non-memory work
    Mem,        ///< all memory operations, scalar and vector
};

/** Which back-end issue queue services an OpClass. */
enum class QueueKind : uint8_t
{
    Int,
    Mem,
    Fp,
    Simd,
};

constexpr bool
isLoad(OpClass c)
{
    return c == OpClass::Load || c == OpClass::MmxLoad ||
           c == OpClass::MomLoad;
}

constexpr bool
isStore(OpClass c)
{
    return c == OpClass::Store || c == OpClass::MmxStore ||
           c == OpClass::MomStore;
}

constexpr bool
isMemory(OpClass c)
{
    return isLoad(c) || isStore(c);
}

constexpr bool
isControl(OpClass c)
{
    return c == OpClass::Branch || c == OpClass::Jump;
}

constexpr bool
isMmx(OpClass c)
{
    return c == OpClass::MmxAlu || c == OpClass::MmxMul ||
           c == OpClass::MmxLoad || c == OpClass::MmxStore;
}

constexpr bool
isMom(OpClass c)
{
    return c == OpClass::MomAlu || c == OpClass::MomMul ||
           c == OpClass::MomAcc || c == OpClass::MomLoad ||
           c == OpClass::MomStore || c == OpClass::MomCtl;
}

constexpr bool
isSimd(OpClass c)
{
    return isMmx(c) || isMom(c);
}

constexpr bool
isFp(OpClass c)
{
    return c == OpClass::FpAlu || c == OpClass::FpMul ||
           c == OpClass::FpDiv;
}

/** Number of OpClass values (Nop is the last). */
constexpr int kNumOpClasses = static_cast<int>(OpClass::Nop) + 1;

/** True when an op counts streamLen equivalent instructions (eqInsts). */
constexpr bool
countsStreamLen(OpClass c)
{
    return isMom(c) && c != OpClass::MomCtl;
}

namespace detail
{

/** Table-3 bucket by the predicates (fills kMixGroupTable). */
constexpr MixGroup
mixGroupOf(OpClass c)
{
    if (isMemory(c))
        return MixGroup::Mem;
    if (isFp(c))
        return MixGroup::Fp;
    if (isSimd(c))
        return MixGroup::SimdArith;
    return MixGroup::Int;
}

/** Issue queue by the predicates (fills kQueueKindTable). */
constexpr QueueKind
queueKindOf(OpClass c)
{
    if (isMemory(c))
        return QueueKind::Mem;
    if (isFp(c))
        return QueueKind::Fp;
    if (isSimd(c))
        return QueueKind::Simd;
    return QueueKind::Int;
}

/** A per-OpClass lookup table of @p f's values. */
template <typename T, typename F>
struct OpClassTable
{
    T v[kNumOpClasses];

    constexpr explicit OpClassTable(F f) : v()
    {
        for (int c = 0; c < kNumOpClasses; ++c)
            v[c] = f(static_cast<OpClass>(c));
    }
};

template <typename T, typename F>
constexpr OpClassTable<T, F>
tabulate(F f)
{
    return OpClassTable<T, F>(f);
}

// The simulator asks these per instruction on its hottest lines; a
// table turns each predicate chain into one indexed load.
constexpr auto kMixGroupTable = tabulate<MixGroup>(mixGroupOf);
constexpr auto kQueueKindTable = tabulate<QueueKind>(queueKindOf);

} // namespace detail

/** Table-3 bucket for an OpClass. */
constexpr MixGroup
mixGroup(OpClass c)
{
    return detail::kMixGroupTable.v[static_cast<int>(c)];
}

/** Issue queue servicing an OpClass. */
constexpr QueueKind
queueKind(OpClass c)
{
    return detail::kQueueKindTable.v[static_cast<int>(c)];
}

const char *toString(OpClass c);
const char *toString(MixGroup g);

} // namespace momsim::isa

#endif // MOMSIM_ISA_OPCLASS_HH
