#include "spans.hh"

#include <algorithm>
#include <cstdio>
#include <unordered_map>

namespace perfbench
{

const char *
layerName(Layer layer)
{
    switch (layer) {
    case Layer::Svc: return "svc";
    case Layer::Driver: return "driver";
    case Layer::Core: return "core";
    case Layer::Workloads: return "workloads";
    case Layer::Count: break;
    }
    return "?";
}

void
SpanLog::add(const Record &r)
{
    std::lock_guard<std::mutex> lock(_mutex);
    _records.push_back(r);
}

size_t
SpanLog::size() const
{
    std::lock_guard<std::mutex> lock(_mutex);
    return _records.size();
}

std::array<double, static_cast<size_t>(Layer::Count)>
SpanLog::selfNs() const
{
    std::lock_guard<std::mutex> lock(_mutex);
    std::unordered_map<uint64_t, std::vector<size_t>> children;
    for (size_t i = 0; i < _records.size(); ++i) {
        if (_records[i].parent != 0)
            children[_records[i].parent].push_back(i);
    }
    std::array<double, static_cast<size_t>(Layer::Count)> self{};
    std::vector<std::pair<int64_t, int64_t>> spans;
    for (const Record &r : _records) {
        int64_t covered = 0;
        auto it = children.find(r.id);
        if (it != children.end()) {
            // Children may run on other threads and overlap each other;
            // count the union of their intervals inside this span.
            spans.clear();
            for (size_t c : it->second) {
                int64_t lo = std::max(_records[c].startNs, r.startNs);
                int64_t hi = std::min(_records[c].endNs, r.endNs);
                if (hi > lo)
                    spans.emplace_back(lo, hi);
            }
            std::sort(spans.begin(), spans.end());
            int64_t reach = r.startNs;
            for (const auto &s : spans) {
                int64_t lo = std::max(s.first, reach);
                if (s.second > lo) {
                    covered += s.second - lo;
                    reach = s.second;
                }
            }
        }
        self[static_cast<size_t>(r.layer)] +=
            static_cast<double>(r.endNs - r.startNs - covered);
    }
    return self;
}

bool
SpanLog::write(const std::string &path) const
{
    std::lock_guard<std::mutex> lock(_mutex);
    std::FILE *out = std::fopen(path.c_str(), "w");
    if (!out)
        return false;
    for (const Record &r : _records) {
        std::fprintf(out,
                     "{\"name\":\"%s\",\"layer\":\"%s\",\"id\":%llu,"
                     "\"parent\":%llu,\"request\":%llu,\"start_ns\":%lld,"
                     "\"end_ns\":%lld}\n",
                     r.name, layerName(r.layer),
                     static_cast<unsigned long long>(r.id),
                     static_cast<unsigned long long>(r.parent),
                     static_cast<unsigned long long>(r.request),
                     static_cast<long long>(r.startNs),
                     static_cast<long long>(r.endNs));
    }
    return std::fclose(out) == 0;
}

} // namespace perfbench
