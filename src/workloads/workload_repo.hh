/**
 * @file
 * Lazily-built, cached, immutable workloads keyed by spec name — the
 * shared source every sweep point draws from. One MediaWorkload is
 * built per (name, scale) for the whole process, shared across all
 * sweep points and benches that reference it; prebuild() builds the
 * distinct missing specs of a sweep concurrently.
 */

#ifndef MOMSIM_WORKLOADS_WORKLOAD_REPO_HH
#define MOMSIM_WORKLOADS_WORKLOAD_REPO_HH

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/thread_annotations.hh"
#include "workloads/media_workload.hh"

namespace momsim::workloads
{

class WorkloadRepo
{
  public:
    explicit WorkloadRepo(WorkloadScale scale = WorkloadScale::Paper)
        : _scale(scale)
    {}

    WorkloadScale scale() const { return _scale; }

    /**
     * The workload for registry spec @p name, built on first use and
     * cached for the process lifetime. Thread-safe: concurrent calls
     * for distinct names build concurrently; concurrent calls for the
     * same missing name may both build, and the first insert wins (the
     * builds are deterministic, so the loser's copy is identical and
     * simply dropped). Unknown names are fatal — CLI layers validate
     * against WorkloadSpec::isKnown first.
     */
    std::shared_ptr<const MediaWorkload> get(const std::string &name);

    /** Content fingerprint of @p name's workload (builds on demand). */
    uint64_t fingerprintOf(const std::string &name);

    /**
     * Deduplicated subset of @p names not yet built, in first-seen
     * order.
     */
    std::vector<std::string> missing(
        const std::vector<std::string> &names) const;

    /**
     * Build every name of @p names that is missing, concurrently: the
     * first on the calling thread, each further one on its own
     * std::thread. planSweep calls this before fingerprinting, so every
     * planner gets concurrent builds. Returns how many it built (0 on a
     * warm repo).
     */
    size_t prebuild(const std::vector<std::string> &names);

    size_t size() const;

  private:
    WorkloadScale _scale;
    mutable momsim::Mutex _mutex;
    std::unordered_map<std::string, std::shared_ptr<const MediaWorkload>>
        _cache GUARDED_BY(_mutex);
};

} // namespace momsim::workloads

#endif // MOMSIM_WORKLOADS_WORKLOAD_REPO_HH
