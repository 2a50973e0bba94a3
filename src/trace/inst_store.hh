/**
 * @file
 * InstStore: write-once storage for one program's trace records.
 *
 * A TraceBuilder appends records one at a time without knowing how many
 * its program will have. InstStore reserves address space for the
 * largest program up front and makes pages writable in geometric steps
 * as the write cursor reaches them. So every record is written exactly
 * once, where the simulator reads it: the block never moves (no growth
 * copy), it is never pre-zeroed (the kernel supplies zero pages on
 * first touch, so untouched pages cost no memory), and a finished
 * program keeps the block it was built in (no copy into another one).
 * finish() hands the address space past the last record back.
 */

#ifndef MOMSIM_TRACE_INST_STORE_HH
#define MOMSIM_TRACE_INST_STORE_HH

#include <cstddef>

#include "isa/trace_inst.hh"

namespace momsim::trace
{

class InstStore
{
  public:
    /**
     * Records reserved for one program: about 25x the largest
     * paper-scale program (mpeg2enc under MMX, 5.3M records). Only
     * address space; memory is used as records are written.
     */
    static constexpr size_t kMaxRecords = size_t{1} << 27;

    InstStore() = default;
    /** Reserve room for @p maxRecords records (none written yet). */
    explicit InstStore(size_t maxRecords);
    ~InstStore();

    InstStore(InstStore &&other) noexcept;
    InstStore &operator=(InstStore &&other) noexcept;
    InstStore(const InstStore &) = delete;
    InstStore &operator=(const InstStore &) = delete;

    /**
     * Write @p inst into the next slot and return it. The reference
     * stays valid for the store's lifetime: records never move.
     */
    isa::TraceInst &
    append(const isa::TraceInst &inst)
    {
        if (_size == _writable)
            grow();
        isa::TraceInst *slot = _data + _size++;
        *slot = inst;
        return *slot;
    }

    /** Release the reservation past the last record's page. */
    void finish();

    const isa::TraceInst *data() const { return _data; }
    size_t size() const { return _size; }

  private:
    /** Make the next geometric step of the reservation writable. */
    void grow();

    isa::TraceInst *_data = nullptr;
    size_t _size = 0;
    size_t _writable = 0;       ///< records that fit in writable pages
    size_t _writableBytes = 0;  ///< writable prefix of the mapping
    size_t _mappedBytes = 0;    ///< address space held (munmap length)
};

} // namespace momsim::trace

#endif // MOMSIM_TRACE_INST_STORE_HH
