/**
 * @file
 * In-memory span log for the traced run. Each span records a name, its
 * layer, start and end, the span that caused it and the request it
 * serves; the log is written out once the run ends. A layer's self time
 * is its spans' durations minus the parts their child spans cover.
 */

#ifndef PERFBENCH_SPANS_HH
#define PERFBENCH_SPANS_HH

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench
{

enum class Layer : uint8_t { Svc, Driver, Core, Workloads, Count };

const char *layerName(Layer layer);

class SpanLog
{
  public:
    struct Record
    {
        const char *name = "";
        Layer layer = Layer::Svc;
        uint64_t id = 0;
        uint64_t parent = 0;        ///< 0 = a root span
        uint64_t request = 0;
        int64_t startNs = 0;
        int64_t endNs = 0;
    };

    SpanLog() : _origin(std::chrono::steady_clock::now()) {}

    SpanLog(const SpanLog &) = delete;
    SpanLog &operator=(const SpanLog &) = delete;

    int64_t nowNs() const
    {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(
                   std::chrono::steady_clock::now() - _origin)
            .count();
    }

    uint64_t newId() { return _next.fetch_add(1); }

    void add(const Record &r);

    size_t size() const;

    /** Self time per layer, in nanoseconds. */
    std::array<double, static_cast<size_t>(Layer::Count)> selfNs() const;

    /** Write every span as one JSON object per line. */
    bool write(const std::string &path) const;

  private:
    const std::chrono::steady_clock::time_point _origin;
    std::atomic<uint64_t> _next{ 1 };
    mutable std::mutex _mutex;
    std::vector<Record> _records;
};

/** A span open from construction until close() or destruction. */
class Span
{
  public:
    Span(SpanLog &log, const char *name, Layer layer, uint64_t parent,
         uint64_t request)
        : _log(log)
    {
        _r.name = name;
        _r.layer = layer;
        _r.id = log.newId();
        _r.parent = parent;
        _r.request = request;
        _r.startNs = log.nowNs();
    }

    ~Span() { close(); }

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

    uint64_t id() const { return _r.id; }
    int64_t startNs() const { return _r.startNs; }

    /** Record the span (once) and return its duration in ns. */
    int64_t close()
    {
        if (!_closed) {
            _r.endNs = _log.nowNs();
            _log.add(_r);
            _closed = true;
        }
        return _r.endNs - _r.startNs;
    }

  private:
    SpanLog &_log;
    SpanLog::Record _r;
    bool _closed = false;
};

} // namespace perfbench

#endif // PERFBENCH_SPANS_HH
