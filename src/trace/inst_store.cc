#include "trace/inst_store.hh"

#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <new>
#include <utility>

#include "common/logging.hh"

namespace momsim::trace
{

namespace
{

/** Smallest step by which the writable part of a store grows. */
constexpr size_t kMinStepBytes = size_t{64} << 10;

size_t
pageBytes()
{
    static const size_t page = static_cast<size_t>(sysconf(_SC_PAGESIZE));
    return page;
}

size_t
roundUpToPage(size_t bytes)
{
    size_t page = pageBytes();
    return (bytes + page - 1) / page * page;
}

} // namespace

InstStore::InstStore(size_t maxRecords)
    : _mappedBytes(roundUpToPage(maxRecords * sizeof(isa::TraceInst)))
{
    if (_mappedBytes == 0)
        return;
    // Address space only: PROT_NONE pages are neither backed nor
    // charged against the commit limit until grow() opens them.
    void *p = mmap(nullptr, _mappedBytes, PROT_NONE,
                   MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
    if (p == MAP_FAILED)
        throw std::bad_alloc();
    _data = static_cast<isa::TraceInst *>(p);
}

InstStore::~InstStore()
{
    if (_mappedBytes != 0)
        munmap(_data, _mappedBytes);
}

InstStore::InstStore(InstStore &&other) noexcept
    : _data(std::exchange(other._data, nullptr)),
      _size(std::exchange(other._size, 0)),
      _writable(std::exchange(other._writable, 0)),
      _writableBytes(std::exchange(other._writableBytes, 0)),
      _mappedBytes(std::exchange(other._mappedBytes, 0))
{
}

InstStore &
InstStore::operator=(InstStore &&other) noexcept
{
    InstStore taken(std::move(other));
    std::swap(_data, taken._data);
    std::swap(_size, taken._size);
    std::swap(_writable, taken._writable);
    std::swap(_writableBytes, taken._writableBytes);
    std::swap(_mappedBytes, taken._mappedBytes);
    return *this;
}

void
InstStore::grow()
{
    if (_writableBytes == _mappedBytes)
        panic(strfmt("trace program exceeds the %zu records reserved "
                     "for it",
                     _mappedBytes / sizeof(isa::TraceInst)));
    size_t step = std::max(_writableBytes, roundUpToPage(kMinStepBytes));
    size_t target = std::min(_writableBytes + step, _mappedBytes);
    char *base = reinterpret_cast<char *>(_data);
    if (mprotect(base + _writableBytes, target - _writableBytes,
                 PROT_READ | PROT_WRITE) != 0)
        throw std::bad_alloc();
    _writableBytes = target;
    _writable = target / sizeof(isa::TraceInst);
}

void
InstStore::finish()
{
    size_t keep = roundUpToPage(_size * sizeof(isa::TraceInst));
    if (keep < _mappedBytes) {
        munmap(reinterpret_cast<char *>(_data) + keep, _mappedBytes - keep);
        _mappedBytes = keep;
        _writableBytes = std::min(_writableBytes, keep);
        _writable = _writableBytes / sizeof(isa::TraceInst);
    }
    if (_mappedBytes == 0)
        _data = nullptr;
}

} // namespace momsim::trace
