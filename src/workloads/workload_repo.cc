#include "workloads/workload_repo.hh"

#include <exception>
#include <optional>
#include <set>
#include <thread>

#include "common/logging.hh"

namespace momsim::workloads
{

std::shared_ptr<const MediaWorkload>
WorkloadRepo::get(const std::string &name)
{
    Built inFlight;
    std::optional<std::promise<std::shared_ptr<const MediaWorkload>>> mine;
    WorkloadSpec spec;
    bool known = true;
    {
        MutexLock lock(_mutex);
        auto it = _cache.find(name);
        if (it != _cache.end()) {
            inFlight = it->second;
        } else {
            known = WorkloadSpec::byName(name, spec);
            if (known) {
                _cache.emplace(name, mine.emplace().get_future().share());
                _builds += 1;
            }
        }
    }
    if (!known)
        fatal("unknown workload '" + name + "' (see --list-workloads)");
    // A later caller waits for the build already in flight.
    if (inFlight.valid())
        return inFlight.get();

    // Build outside the lock so distinct specs synthesize concurrently.
    spec.scale = _scale;
    try {
        std::shared_ptr<const MediaWorkload> built =
            MediaWorkload::build(spec);
        mine->set_value(built);
        return built;
    } catch (...) {
        {
            MutexLock lock(_mutex);
            _cache.erase(name);
        }
        mine->set_exception(std::current_exception());
        throw;
    }
}

uint64_t
WorkloadRepo::fingerprintOf(const std::string &name)
{
    return get(name)->fingerprint();
}

std::vector<std::string>
WorkloadRepo::missing(const std::vector<std::string> &names) const
{
    MutexLock lock(_mutex);
    std::vector<std::string> out;
    std::set<std::string> seen;
    for (const std::string &name : names) {
        if (_cache.count(name) == 0 && seen.insert(name).second)
            out.push_back(name);
    }
    return out;
}

size_t
WorkloadRepo::prebuild(const std::vector<std::string> &names)
{
    std::vector<std::string> todo = missing(names);
    std::vector<std::exception_ptr> errors(todo.size());
    auto build = [this, &todo, &errors](size_t i) {
        try {
            get(todo[i]);
        } catch (...) {
            errors[i] = std::current_exception();
        }
    };
    std::vector<std::thread> helpers;
    for (size_t i = 1; i < todo.size(); ++i)
        helpers.emplace_back(build, i);
    if (!todo.empty())
        build(0);
    for (std::thread &t : helpers)
        t.join();
    for (const std::exception_ptr &e : errors) {
        if (e)
            std::rethrow_exception(e);
    }
    return todo.size();
}

size_t
WorkloadRepo::size() const
{
    MutexLock lock(_mutex);
    return _cache.size();
}

size_t
WorkloadRepo::builds() const
{
    MutexLock lock(_mutex);
    return _builds;
}

} // namespace momsim::workloads
