#include "trace/program.hh"

#include <utility>

namespace momsim::trace
{

Program::Program(std::string name, isa::SimdIsa simd, InstStore insts)
    : _name(std::move(name)), _simd(simd), _insts(std::move(insts)),
      _mix(computeMix())
{
}

MixSummary
Program::computeMix() const
{
    MixSummary m;
    for (const auto &inst : insts()) {
        uint32_t eq = inst.eqInsts();
        m.records += 1;
        m.eqInsts += eq;
        m.memAccesses += inst.memAccesses();
        switch (isa::mixGroup(inst.opClass())) {
          case isa::MixGroup::Int:
            m.intOps += eq;
            break;
          case isa::MixGroup::Fp:
            m.fpOps += eq;
            break;
          case isa::MixGroup::SimdArith:
            m.simdOps += eq;
            break;
          case isa::MixGroup::Mem:
            m.memOps += eq;
            break;
        }
        if (inst.isCondBranch()) {
            m.branches += 1;
            if (inst.taken())
                m.takenBranches += 1;
        }
    }
    return m;
}

Program
Program::rebased(uint32_t delta, const std::string &newName) const
{
    InstStore store(size());
    for (isa::TraceInst inst : insts()) {
        inst.pc += delta;
        if (inst.isMemory() || inst.isControl())
            inst.addr += delta;
        store.append(inst);
    }
    return Program(newName, _simd, std::move(store));
}

} // namespace momsim::trace
