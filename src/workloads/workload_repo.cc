#include "workloads/workload_repo.hh"

#include <exception>
#include <set>
#include <thread>

#include "common/logging.hh"

namespace momsim::workloads
{

std::shared_ptr<const MediaWorkload>
WorkloadRepo::get(const std::string &name)
{
    {
        MutexLock lock(_mutex);
        auto it = _cache.find(name);
        if (it != _cache.end())
            return it->second;
    }

    WorkloadSpec spec;
    if (!WorkloadSpec::byName(name, spec))
        fatal("unknown workload '" + name + "' (see --list-workloads)");
    spec.scale = _scale;

    // Build outside the lock so distinct specs synthesize concurrently.
    std::shared_ptr<const MediaWorkload> built = MediaWorkload::build(spec);

    MutexLock lock(_mutex);
    auto [it, inserted] = _cache.emplace(name, std::move(built));
    (void)inserted;     // lost race: the earlier identical build wins
    return it->second;
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

} // namespace momsim::workloads
