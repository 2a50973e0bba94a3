/**
 * @file
 * The response half of the momsim service API.
 *
 * A SimResponse is what SimService::submit returns for every request —
 * success or failure, always a value, never an exit(): the rows of the
 * executed sweep (in sweep order, the same rows the CSV/JSON sinks
 * render), a plan summary (total/cached/simulated points), the
 * request's wall time, and on failure a structured (code, message)
 * error where the old bench binaries called fatal() or usage().
 *
 * Serialization is one JSON line (JSONL-ready for `momsim batch`).
 * The two self-measurement fields of every row (sim_kcps, wall_ms) and
 * the response's own wallMs are wall-clock facts that vary run to run;
 * toJson(withTiming=false) zeroes them so two executions of the same
 * request compare byte-identically — the contract the batch
 * determinism gate checks.
 */

#ifndef MOMSIM_SVC_SIM_RESPONSE_HH
#define MOMSIM_SVC_SIM_RESPONSE_HH

#include <cstddef>
#include <string>
#include <vector>

#include "driver/result_sink.hh"

namespace momsim::svc
{

/** Version of the SimResponse wire format. Bump on any field change. */
constexpr int kSimResponseSchemaVersion = 1;

/** Machine-readable failure categories of SimService::submit. */
namespace errc
{
/** Request is structurally or semantically malformed. */
constexpr const char *kBadRequest = "bad_request";
/** Named bench is not in the registry. */
constexpr const char *kUnknownBench = "unknown_bench";
/** Named bench has no sweep stage (table2/table3): CLI-only. */
constexpr const char *kNoSweep = "no_sweep";
/** A workload name is not in the registry. */
constexpr const char *kUnknownWorkload = "unknown_workload";
/** An isa/memModel/policy/threads axis value does not parse. */
constexpr const char *kBadAxis = "bad_axis";
/** shardIndex/shardCount out of range. */
constexpr const char *kBadShard = "bad_shard";
/** cacheDir could not be opened or its store not read. */
constexpr const char *kCacheDir = "cache_dir";
/** Load shed: admission queue full or --max-clients reached. The
 *  request was NOT executed; retry against a less-loaded server. */
constexpr const char *kOverloaded = "overloaded";
/** A serve request line exceeded Connection::kMaxLineBytes; the
 *  connection answers this once and closes. */
constexpr const char *kLineTooLong = "line_too_long";
} // namespace errc

struct SimResponse
{
    std::string id;             ///< echo of SimRequest.id
    /**
     * The client this response answers: the request's own client tag,
     * or the transport's default (connection id under `momsim serve`,
     * `--client` under `momsim batch`). Serialized only when non-empty
     * so untagged single-client streams keep the original wire shape.
     */
    std::string client;
    bool ok = false;

    // ---- failure (valid when !ok) ----
    std::string errorCode;      ///< one of errc::*
    std::string errorMessage;   ///< human-readable one-liner

    // ---- success (valid when ok) ----
    std::string bench;          ///< resolved bench name; "" for axes
    size_t totalPoints = 0;     ///< full plan size (all shards)
    size_t cachedPoints = 0;    ///< this shard's store hits
    size_t simulatedPoints = 0; ///< this shard's fresh simulations
    double wallMs = 0.0;        ///< submit() wall time
    /** This shard's rows, in sweep order. */
    std::vector<driver::ResultRow> rows;

    /**
     * One JSON line. @p withTiming=false zeroes wallMs and each row's
     * sim_kcps/wall_ms so deterministic requests serialize
     * deterministically.
     */
    std::string toJson(bool withTiming = true) const;

    /** Shorthand for a failure response. */
    static SimResponse failure(const std::string &id,
                               const std::string &code,
                               const std::string &message);
};

} // namespace momsim::svc

#endif // MOMSIM_SVC_SIM_RESPONSE_HH
