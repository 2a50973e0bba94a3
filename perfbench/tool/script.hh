/**
 * @file
 * The request scripts the benchmark generates (perfbench/scripts.py)
 * and its C++ tool replays, either over the serve socket (client) or
 * in process (trace).
 *
 * One request per line, tab-separated:
 *   conn  kind  points  cap  id  request-json
 * `conn` is the connection that sends it, `points` the rows the reply
 * must carry, `cap` the request's maxCycles (0 = none) and `id` the id
 * the reply must echo. Lines starting with '#' are comments.
 */

#ifndef PERFBENCH_SCRIPT_HH
#define PERFBENCH_SCRIPT_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench
{

struct ScriptLine
{
    std::string kind;
    size_t points = 0;
    uint64_t cap = 0;
    std::string id;
    std::string json;

    /** One-point requests are the "small" traffic class. */
    bool small() const { return points == 1; }
};

/** Lines grouped by connection, each list in script order. */
using Script = std::vector<std::vector<ScriptLine>>;

bool loadScript(const std::string &path, Script &out, std::string &error);

} // namespace perfbench

#endif // PERFBENCH_SCRIPT_HH
