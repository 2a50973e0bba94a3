/**
 * @file
 * Lazily-built, cached, immutable workloads keyed by spec name — the
 * shared source every sweep point draws from. One MediaWorkload is
 * built per (name, scale) for the whole process, shared across all
 * sweep points and benches that reference it; prebuild() builds the
 * distinct missing specs of a sweep concurrently. Builds are
 * single-flight: a name is built once however many callers ask for it
 * while it is being built.
 */

#ifndef MOMSIM_WORKLOADS_WORKLOAD_REPO_HH
#define MOMSIM_WORKLOADS_WORKLOAD_REPO_HH

#include <future>
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
     * for distinct names build concurrently; the first call for a
     * missing name builds it and later callers wait for that build.
     * A build that throws is forgotten (its waiters get the exception,
     * the next call builds afresh). Unknown names are fatal — CLI
     * layers validate against WorkloadSpec::isKnown first.
     */
    std::shared_ptr<const MediaWorkload> get(const std::string &name);

    /** Content fingerprint of @p name's workload (builds on demand). */
    uint64_t fingerprintOf(const std::string &name);

    /**
     * Deduplicated subset of @p names neither built nor being built,
     * in first-seen order.
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

    /** Workloads built or being built. */
    size_t size() const;

    /** MediaWorkload::build calls this repo has started. */
    size_t builds() const;

  private:
    using Built = std::shared_future<std::shared_ptr<const MediaWorkload>>;

    WorkloadScale _scale;
    mutable momsim::Mutex _mutex;
    std::unordered_map<std::string, Built> _cache GUARDED_BY(_mutex);
    size_t _builds GUARDED_BY(_mutex) = 0;
};

} // namespace momsim::workloads

#endif // MOMSIM_WORKLOADS_WORKLOAD_REPO_HH
