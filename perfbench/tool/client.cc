/**
 * @file
 * `perfbench_tool client`: closed-loop clients against a running
 * `momsim serve` daemon. One thread per script connection sends a
 * request, waits for its reply, checks it and only then sends the
 * next, so concurrency is exactly the number of connections.
 *
 * With --seconds the connections stop sending at the deadline (past it
 * only until --min-small one-point replies have arrived); without it
 * each connection sends its script once. Every reply is checked against
 * the shape reference rows (--shapes) and against every other reply
 * that carried the same point. Every reply's latency, kind, point count
 * and completion time go to --latencies; a JSON summary goes to stdout.
 */

#include <atomic>
#include <chrono>
#include <cstdio>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/net.hh"
#include "rowcheck.hh"
#include "script.hh"
#include "tool.hh"

namespace perfbench
{

namespace
{

using Clock = std::chrono::steady_clock;

struct Sample
{
    const ScriptLine *req = nullptr;
    double latencyMs = 0.0;
    double endS = 0.0;          ///< completion, seconds after the start
    bool ok = false;
};

bool
readLine(int fd, std::string &carry, std::string &line)
{
    for (;;) {
        size_t nl = carry.find('\n');
        if (nl != std::string::npos) {
            line.assign(carry, 0, nl);
            carry.erase(0, nl + 1);
            return true;
        }
        char buf[65536];
        long got = momsim::net::readSome(fd, buf, sizeof(buf));
        if (got <= 0)
            return false;
        carry.append(buf, static_cast<size_t>(got));
    }
}

} // namespace

int
runClient(const Args &args)
{
    Script script;
    RowRefs refs;
    std::string error;
    const std::string unixPath = args.get("--unix");
    if (unixPath.empty() ||
        !loadScript(args.get("--script"), script, error) ||
        (args.has("--shapes") &&
         !refs.loadShapes(args.get("--shapes"), error))) {
        std::fprintf(stderr, "perfbench_tool client: %s\n",
                     error.empty() ? "need --unix and --script"
                                   : error.c_str());
        return 2;
    }
    const bool timed = args.has("--seconds");
    const double seconds = args.number("--seconds", 0.0);
    const long minSmall = static_cast<long>(args.number("--min-small", 0.0));

    momsim::net::ignoreSigpipe();
    std::atomic<long> smallDone{ 0 };
    std::atomic<long> attempted{ 0 }, failed{ 0 };
    std::mutex reasonMutex;
    std::vector<std::string> reasons;
    auto fail = [&](const std::string &why) {
        failed.fetch_add(1);
        std::lock_guard<std::mutex> lock(reasonMutex);
        if (reasons.size() < 5)
            reasons.push_back(why);
    };

    std::vector<std::vector<Sample>> samples(script.size());
    const Clock::time_point start = Clock::now();
    const Clock::time_point deadline =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(seconds));
    // Past the deadline a run only continues to collect enough small
    // requests for their p95; this bounds that tail.
    const Clock::time_point hardStop = deadline + std::chrono::seconds(90);

    std::vector<std::thread> threads;
    for (size_t c = 0; c < script.size(); ++c) {
        threads.emplace_back([&, c] {
            const std::vector<ScriptLine> &lines = script[c];
            if (lines.empty())
                return;
            auto dial = [&](std::string &err) {
                return momsim::net::connectUnix(unixPath, err);
            };
            std::string err;
            int raw = momsim::net::connectRetry(dial, 5, 100, err, nullptr);
            if (raw < 0) {
                attempted.fetch_add(1);
                fail("connect failed: " + err);
                return;
            }
            momsim::net::FdGuard fd(raw);
            std::string carry, reply, wire;
            std::vector<Sample> &mine = samples[c];
            for (size_t i = 0; i < lines.size(); ++i) {
                if (timed) {
                    Clock::time_point now = Clock::now();
                    if ((now >= deadline && smallDone.load() >= minSmall) ||
                        now >= hardStop)
                        break;
                }
                const ScriptLine &req = lines[i];
                wire.assign(req.json).push_back('\n');
                attempted.fetch_add(1);
                const Clock::time_point t0 = Clock::now();
                if (!momsim::net::writeAll(fd.get(), wire.data(),
                                           wire.size()) ||
                    !readLine(fd.get(), carry, reply)) {
                    fail("connection dropped");
                    return;
                }
                const Clock::time_point t1 = Clock::now();
                Sample s;
                s.req = &req;
                s.latencyMs =
                    std::chrono::duration<double, std::milli>(t1 - t0).count();
                s.endS = std::chrono::duration<double>(t1 - start).count();
                std::string why;
                s.ok = checkReply(reply, req, refs, why);
                if (!s.ok)
                    fail(req.id + ": " + why);
                else if (req.small())
                    smallDone.fetch_add(1);
                mine.push_back(s);
            }
        });
    }
    for (std::thread &t : threads)
        t.join();
    const double elapsedS =
        std::chrono::duration<double>(Clock::now() - start).count();

    if (args.has("--latencies")) {
        std::FILE *out = std::fopen(args.get("--latencies").c_str(), "w");
        if (!out) {
            std::fprintf(stderr, "perfbench_tool client: cannot write %s\n",
                         args.get("--latencies").c_str());
            return 2;
        }
        for (const std::vector<Sample> &conn : samples) {
            for (const Sample &s : conn) {
                std::fprintf(out, "%s\t%.6f\t%zu\t%.6f\t%d\n",
                             s.req->kind.c_str(), s.latencyMs,
                             s.ok ? s.req->points : 0, s.endS, s.ok ? 1 : 0);
            }
        }
        std::fclose(out);
    }

    std::string why;
    for (size_t i = 0; i < reasons.size(); ++i)
        why += (i ? "," : "") + jsonString(reasons[i]);
    std::printf("{\"attempted\":%ld,\"failed\":%ld,\"elapsed_s\":%.6f,"
                "\"reasons\":[%s]}\n",
                attempted.load(), failed.load(), elapsedS, why.c_str());
    return 0;
}

} // namespace perfbench
