/**
 * @file
 * An immutable multiprogrammed workload built from a WorkloadSpec
 * recipe: one program instance per rotation slot, in both ISAs, with
 * the MMX equivalent-instruction counts that feed the EIPC metric for
 * MOM runs.
 *
 * The default recipe is the paper's Table-2 mix (eight program
 * instances approximating the MPEG-4 profiles, in the exact rotation
 * order of Section 5.1 — "the most significant program is included
 * twice"), but any registry spec builds the same way: duplicate slots
 * share one synthesis and are rebased into their own address space,
 * and decoder slots whose matching encoder is absent from the mix get
 * their bitstream from a throwaway encoder build.
 *
 * The MMX and MOM halves share nothing, so build() synthesizes them
 * concurrently: MOM on one helper thread, MMX on the caller. Each
 * program keeps the InstStore its TraceBuilder wrote it into, so every
 * trace record is written once, where the simulator reads it.
 */

#ifndef MOMSIM_WORKLOADS_MEDIA_WORKLOAD_HH
#define MOMSIM_WORKLOADS_MEDIA_WORKLOAD_HH

#include <memory>
#include <string>
#include <vector>

#include "core/simulation.hh"
#include "trace/program.hh"
#include "workloads/workload_spec.hh"

namespace momsim::workloads
{

class MediaWorkload
{
  public:
    /** Rotation size of the paper's Table-2 mix (the default spec). */
    static constexpr int kNumPrograms = 8;

    /** Build every program of both ISAs for @p spec's recipe. */
    static std::unique_ptr<MediaWorkload> build(const WorkloadSpec &spec);

    /** The paper mix at the given scale (the pre-spec default). */
    static std::unique_ptr<MediaWorkload> build(WorkloadScale scale);

    /** The spec name this workload was built from ("paper", ...). */
    const std::string &specName() const { return _specName; }

    int numPrograms() const { return static_cast<int>(_names.size()); }

    /** Program instance name in rotation slot @p i ("mpeg2dec2"). */
    const std::string &name(int i) const { return _names[static_cast<size_t>(i)]; }

    /** Benchmark role filling rotation slot @p i. */
    ProgramKind kind(int i) const { return _kinds[static_cast<size_t>(i)]; }

    const trace::Program &program(isa::SimdIsa simd, int i) const
    {
        const auto &arr = (simd == isa::SimdIsa::Mom) ? _mom : _mmx;
        return arr[static_cast<size_t>(i)];
    }

    /** Equivalent-instruction count of slot @p i under @p simd. */
    uint64_t eqInsts(isa::SimdIsa simd, int i) const
    {
        return program(simd, i).mix().eqInsts;
    }

    /** The spec's rotation for a given ISA, with EIPC weights. */
    std::vector<core::WorkloadProgram> rotation(isa::SimdIsa simd) const;

    /**
     * Content hash over every program of both ISAs (names plus the full
     * dynamic instruction streams), computed once at build time. Any
     * change to workload synthesis — recipe, scale, codec parameters,
     * emitter fixes — changes the fingerprint, which is what keys
     * persisted ResultRows so stale cached results can never be
     * replayed. Deliberately content-only: two spec names with an
     * identical recipe hash equal, so their cached rows are shared.
     */
    uint64_t fingerprint() const { return _fingerprint; }

  private:
    /** Synthesize every program of one ISA into _mmx or _mom. */
    void buildIsa(isa::SimdIsa simd, const WorkloadSpec &spec,
                  const std::vector<int> &firstSlot);

    std::vector<trace::Program> _mmx;
    std::vector<trace::Program> _mom;
    std::vector<std::string> _names;
    std::vector<ProgramKind> _kinds;
    std::string _specName;
    uint64_t _fingerprint = 0;
};

} // namespace momsim::workloads

#endif // MOMSIM_WORKLOADS_MEDIA_WORKLOAD_HH
