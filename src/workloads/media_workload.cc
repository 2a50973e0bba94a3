#include "workloads/media_workload.hh"

#include <exception>
#include <thread>

#include "common/hash.hh"
#include "common/logging.hh"
#include "workloads/gsm.hh"
#include "workloads/jpeg.hh"
#include "workloads/mesa.hh"
#include "workloads/mpeg2.hh"

namespace momsim::workloads
{

namespace
{

/**
 * Address-space slot for each program instance (128 MB main memory).
 * The per-slot stagger keeps different programs' hot lines from landing
 * on identical cache indices (as an OS's varied text/heap placement
 * does); perfectly aligned slots would make all eight threads thrash a
 * single I-cache set.
 */
uint32_t
slotBase(int slot)
{
    return (4u << 20) + static_cast<uint32_t>(slot) * (15u << 20) +
           static_cast<uint32_t>(slot) * 0x21840u;
}

struct ScaledConfigs
{
    VideoConfig video;
    JpegConfig jpeg;
    GsmConfig gsm;
    MesaConfig mesa;
};

ScaledConfigs
configsFor(WorkloadScale scale)
{
    ScaledConfigs c;
    if (scale == WorkloadScale::Tiny) {
        c.video = { 48, 48, 2, 2, 14, 11 };
        c.jpeg = { 48, 48, 14, 77 };
        c.gsm = { 3, 99 };
        c.mesa = { 64, 48, 8, 6, 1, 3 };
    } else {
        c.video = { 176, 144, 3, 4, 16, 11 };
        c.jpeg = { 160, 128, 14, 77 };
        c.gsm = { 55, 99 };
        c.mesa = { 160, 120, 14, 10, 3, 3 };
    }
    return c;
}

/** Hash the complete dynamic instruction stream of one program. */
uint64_t
mixProgram(uint64_t h, const trace::Program &prog)
{
    h = hashMixString(h, prog.name());
    h = hashMix64(h, prog.size());
    for (const isa::TraceInst &ti : prog.insts()) {
        h = hashMix64(h, (static_cast<uint64_t>(ti.pc) << 32) | ti.addr);
        h = hashMix64(h, static_cast<uint64_t>(ti.op) |
                             (static_cast<uint64_t>(ti.flags) << 16) |
                             (static_cast<uint64_t>(ti.dst) << 24) |
                             (static_cast<uint64_t>(ti.src0) << 32) |
                             (static_cast<uint64_t>(ti.src1) << 40) |
                             (static_cast<uint64_t>(ti.src2) << 48) |
                             (static_cast<uint64_t>(ti.accessSize) << 56));
        h = hashMix64(h, static_cast<uint64_t>(ti.streamLen) |
                             (static_cast<uint64_t>(
                                  static_cast<uint16_t>(ti.stride))
                              << 8));
    }
    return h;
}

bool
isEncoder(ProgramKind kind)
{
    return kind == ProgramKind::Mpeg2Enc || kind == ProgramKind::GsmEnc ||
           kind == ProgramKind::JpegEnc;
}

/**
 * Per-ISA build state: codec bitstreams flow from encoder builds to
 * decoder builds. When a recipe holds a decoder but not its encoder,
 * the stream comes from a throwaway encoder build placed in a scratch
 * slot past the rotation's end — deterministic, so the decoder trace
 * (and the fingerprint) depends only on the spec.
 */
struct BuildStreams
{
    Mpeg2Bitstream video;
    GsmStream gsm;
    JpegStream jpeg;
    bool haveVideo = false, haveGsm = false, haveJpeg = false;
    int scratchSlot = 0;        ///< next scratch slot (starts at size)
};

} // namespace

std::unique_ptr<MediaWorkload>
MediaWorkload::build(WorkloadScale scale)
{
    return build(WorkloadSpec::paper(scale));
}

void
MediaWorkload::buildIsa(isa::SimdIsa simd, const WorkloadSpec &spec,
                        const std::vector<int> &firstSlot)
{
    ScaledConfigs cfg = configsFor(spec.scale);
    const int n = static_cast<int>(spec.slots.size());
    auto &arr = (simd == isa::SimdIsa::Mom) ? _mom : _mmx;
    arr.resize(static_cast<size_t>(n));
    BuildStreams st;
    st.scratchSlot = n;

    // Pass 1: encoders at their first slots, producing the codec
    // streams the decoder builds consume.
    for (int i = 0; i < n; ++i) {
        ProgramKind kind = spec.slots[static_cast<size_t>(i)];
        if (firstSlot[static_cast<size_t>(i)] != i || !isEncoder(kind))
            continue;
        uint32_t base = slotBase(i);
        if (kind == ProgramKind::Mpeg2Enc) {
            arr[static_cast<size_t>(i)] =
                buildMpeg2Encoder(simd, base, cfg.video, &st.video);
            st.haveVideo = true;
        } else if (kind == ProgramKind::GsmEnc) {
            arr[static_cast<size_t>(i)] =
                buildGsmEncoder(simd, base, cfg.gsm, &st.gsm);
            st.haveGsm = true;
        } else {
            arr[static_cast<size_t>(i)] =
                buildJpegEncoder(simd, base, cfg.jpeg, &st.jpeg);
            st.haveJpeg = true;
        }
    }

    // Pass 2: decoders and mesa at their first slots; streams still
    // missing come from throwaway scratch-slot encoder builds.
    for (int i = 0; i < n; ++i) {
        ProgramKind kind = spec.slots[static_cast<size_t>(i)];
        if (firstSlot[static_cast<size_t>(i)] != i || isEncoder(kind))
            continue;
        uint32_t base = slotBase(i);
        switch (kind) {
          case ProgramKind::Mpeg2Dec:
            if (!st.haveVideo) {
                buildMpeg2Encoder(simd, slotBase(st.scratchSlot++),
                                  cfg.video, &st.video);
                st.haveVideo = true;
            }
            arr[static_cast<size_t>(i)] =
                buildMpeg2Decoder(simd, base, st.video);
            break;
          case ProgramKind::GsmDec:
            if (!st.haveGsm) {
                buildGsmEncoder(simd, slotBase(st.scratchSlot++),
                                cfg.gsm, &st.gsm);
                st.haveGsm = true;
            }
            arr[static_cast<size_t>(i)] =
                buildGsmDecoder(simd, base, st.gsm);
            break;
          case ProgramKind::JpegDec:
            if (!st.haveJpeg) {
                buildJpegEncoder(simd, slotBase(st.scratchSlot++),
                                 cfg.jpeg, &st.jpeg);
                st.haveJpeg = true;
            }
            arr[static_cast<size_t>(i)] =
                buildJpegDecoder(simd, base, st.jpeg);
            break;
          default:
            arr[static_cast<size_t>(i)] =
                buildMesa(simd, base, cfg.mesa);
            break;
        }
    }

    // Pass 3: duplicate slots share the first instance's synthesis,
    // rebased into their own address space.
    for (int i = 0; i < n; ++i) {
        int first = firstSlot[static_cast<size_t>(i)];
        if (first == i)
            continue;
        arr[static_cast<size_t>(i)] =
            arr[static_cast<size_t>(first)].rebased(
                slotBase(i) - slotBase(first),
                _names[static_cast<size_t>(i)]);
    }
}

std::unique_ptr<MediaWorkload>
MediaWorkload::build(const WorkloadSpec &spec)
{
    MOMSIM_ASSERT(!spec.slots.empty(), "workload spec has no slots");
    auto wl = std::make_unique<MediaWorkload>();
    const int n = static_cast<int>(spec.slots.size());

    wl->_specName = spec.name;
    wl->_kinds = spec.slots;

    // Instance names: the base benchmark name, with an ordinal suffix
    // from the second copy on (the paper's second MPEG-2 decoder is
    // "mpeg2dec2"). firstSlot[i] is the slot a duplicate rebases from.
    std::vector<int> firstSlot(static_cast<size_t>(n));
    int copies[kNumProgramKinds] = {};
    for (int i = 0; i < n; ++i) {
        ProgramKind kind = spec.slots[static_cast<size_t>(i)];
        int &count = copies[static_cast<int>(kind)];
        count += 1;
        std::string name = toString(kind);
        if (count > 1)
            name += strfmt("%d", count);
        wl->_names.push_back(std::move(name));
        firstSlot[static_cast<size_t>(i)] = i;
        for (int j = 0; j < i; ++j) {
            if (spec.slots[static_cast<size_t>(j)] == kind) {
                firstSlot[static_cast<size_t>(i)] = j;
                break;
            }
        }
    }

    // The two ISAs share nothing: MOM synthesizes on a helper thread
    // while MMX runs here, and the MMX half of the fingerprint chain is
    // hashed before waiting for MOM. The chain order (MMX programs,
    // then MOM programs) is fixed, so the fingerprint does not depend
    // on which half finishes first.
    std::exception_ptr momError;
    std::thread mom([&] {
        try {
            wl->buildIsa(isa::SimdIsa::Mom, spec, firstSlot);
        } catch (...) {
            momError = std::current_exception();
        }
    });
    uint64_t h = kHashSeed;
    try {
        wl->buildIsa(isa::SimdIsa::Mmx, spec, firstSlot);
        for (const trace::Program &prog : wl->_mmx)
            h = mixProgram(h, prog);
    } catch (...) {
        mom.join();
        throw;
    }
    mom.join();
    if (momError)
        std::rethrow_exception(momError);
    for (const trace::Program &prog : wl->_mom)
        h = mixProgram(h, prog);
    wl->_fingerprint = h;

    return wl;
}

std::vector<core::WorkloadProgram>
MediaWorkload::rotation(isa::SimdIsa simd) const
{
    std::vector<core::WorkloadProgram> rot;
    rot.reserve(_names.size());
    for (int i = 0; i < numPrograms(); ++i) {
        core::WorkloadProgram wp;
        wp.prog = &program(simd, i);
        wp.mmxEq = eqInsts(isa::SimdIsa::Mmx, i);
        rot.push_back(wp);
    }
    return rot;
}

} // namespace momsim::workloads
