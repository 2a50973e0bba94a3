/**
 * @file
 * Output checks for served replies: every row must equal its reference
 * row once the self-timed fields are removed.
 *
 * Rows are the flat JSON objects serializeResultRow writes. A reply is
 * checked with string scanning only, not with the program's own JSON
 * parser, so a parser defect cannot hide a wrong reply. Two references
 * exist:
 *  - shape rows (committed, perfbench/reference/serve_rows.tsv): the
 *    row of each point shape ("<id>@<maxCycles>") without its seed,
 *    which the simulation never reads, so they hold for every seed;
 *  - exact rows ("<id>#<seed>"): taken from the first reply that
 *    carries the point, after which every reply must agree.
 */

#ifndef PERFBENCH_ROWCHECK_HH
#define PERFBENCH_ROWCHECK_HH

#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "script.hh"

namespace perfbench
{

/** @p row without its self-timed members (sim_kcps, wall_ms). */
std::string normalizeRow(const std::string &row);

class RowRefs
{
  public:
    bool loadShapes(const std::string &path, std::string &error);

    /** Check one raw row of a request capped at @p cap cycles. */
    bool checkRow(const std::string &row, uint64_t cap, std::string &why);

  private:
    std::unordered_map<std::string, std::string> _shapes;
    std::mutex _mutex;
    std::unordered_map<std::string, std::string> _exact;
};

/**
 * Check one reply line against the request that produced it: the id
 * echo, ok:true, the planned point count and every row. Sets @p why on
 * failure.
 */
bool checkReply(const std::string &reply, const ScriptLine &request,
                RowRefs &refs, std::string &why);

} // namespace perfbench

#endif // PERFBENCH_ROWCHECK_HH
