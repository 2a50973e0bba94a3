/**
 * @file
 * perfbench_tool: the compiled half of the momsim benchmark
 * (perfbench/run.py drives it).
 *
 *   perfbench_tool client --unix PATH --script FILE [...]
 *   perfbench_tool trace --script FILE --jobs N [...]
 *   perfbench_tool selftest
 */

#include <cstdio>
#include <string>

#include "rowcheck.hh"
#include "tool.hh"

namespace perfbench
{

int
runSelftest()
{
    const std::string row =
        "{\"schema\":4,\"id\":\"paper/MOM/2thr/perfect/RR\",\"seed\":17,"
        "\"cycles\":5000,\"committed_eq\":26464,\"sim_kcps\":1241.5,"
        "\"wall_ms\":4.02}";
    ScriptLine req;
    req.id = "r1";
    req.points = 1;
    req.cap = 5000;
    auto reply = [](const std::string &id, const std::string &rows,
                    int total) {
        return "{\"schemaVersion\":1,\"id\":\"" + id +
               "\",\"client\":\"c1\",\"ok\":true,\"bench\":\"\","
               "\"plan\":{\"total\":" + std::to_string(total) +
               ",\"cached\":0,\"simulated\":1},\"wallMs\":3.5,\"rows\":[" +
               rows + "]}";
    };
    std::string wrong = row;
    wrong.replace(wrong.find("26464"), 5, "26465");
    std::string retimed = row;
    retimed.replace(retimed.find("4.02"), 4, "9.99");

    RowRefs refs;
    std::string why;
    int failures = 0;
    auto expect = [&](bool want, const std::string &what, bool got) {
        if (got != want) {
            std::fprintf(stderr, "selftest: %s: got %s (%s)\n", what.c_str(),
                         got ? "pass" : "fail", why.c_str());
            ++failures;
        }
    };
    expect(true, "first reply",
           checkReply(reply("r1", row, 1), req, refs, why));
    expect(true, "same row, other timing",
           checkReply(reply("r1", retimed, 1), req, refs, why));
    expect(false, "deliberately wrong row",
           checkReply(reply("r1", wrong, 1), req, refs, why));
    expect(false, "wrong id echo",
           checkReply(reply("r2", row, 1), req, refs, why));
    expect(false, "extra row",
           checkReply(reply("r1", row + "," + row, 1), req, refs, why));
    expect(false, "wrong planned total",
           checkReply(reply("r1", row, 2), req, refs, why));
    expect(false, "ok:false reply",
           checkReply("{\"schemaVersion\":1,\"id\":\"r1\",\"ok\":false,"
                      "\"error\":{\"code\":\"overloaded\",\"message\":\"x\"}}",
                      req, refs, why));
    expect(false, "truncated reply",
           checkReply(reply("r1", row, 1).substr(0, 150), req, refs, why));
    expect(true, "normalization drops only timing",
           normalizeRow(row) ==
               "{\"schema\":4,\"id\":\"paper/MOM/2thr/perfect/RR\","
               "\"seed\":17,\"cycles\":5000,\"committed_eq\":26464}");
    std::printf("selftest %s\n", failures ? "FAILED" : "ok");
    return failures ? 1 : 0;
}

} // namespace perfbench

int
main(int argc, char **argv)
{
    const std::string cmd = argc > 1 ? argv[1] : "";
    perfbench::Args args(argc - 2 > 0 ? argc - 2 : 0, argv + 2);
    if (cmd == "client")
        return perfbench::runClient(args);
    if (cmd == "trace")
        return perfbench::runTrace(args);
    if (cmd == "selftest")
        return perfbench::runSelftest();
    std::fprintf(stderr, "usage: perfbench_tool client|trace|selftest ...\n");
    return 2;
}
