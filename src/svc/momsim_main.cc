/**
 * @file
 * `momsim` — the single multi-tool CLI in front of the simulation
 * engine, replacing the per-figure bench binaries:
 *
 *   momsim <bench> [flags]   run a registered figure/table (byte-
 *                            identical stdout to the removed binary)
 *   momsim list              print the bench registry (old binary ->
 *                            subcommand migration table)
 *   momsim help [bench]      generated usage + flag table
 *   momsim batch [...]       read JSONL SimRequests on stdin, execute
 *                            them through one shared SimService with
 *                            concurrent client threads, stream JSONL
 *                            SimResponses to stdout in input order
 *   momsim serve [...]       the same service as a long-lived daemon:
 *                            JSONL per connection over TCP and/or a
 *                            unix socket, warm across requests
 *   momsim client [...]      loopback client for serve (stdin -> wire
 *                            -> stdout); also the test harness's tool
 *
 * batch flags:
 *   --jobs N      simulation pool workers, max 256 (default: all hardware)
 *   --parallel M  concurrent client submitters (default 2; capped 16)
 *   --client C    client tag echoed in every response (default none)
 *   --no-timing   zero wallMs/sim_kcps in responses so identical
 *                 request streams produce byte-identical output (the
 *                 batch determinism gate runs this)
 *
 * batch and serve are two transports over one state machine
 * (svc/sequencer.hh): responses are emitted strictly in request
 * order, tagged with each request's echoed id (salvaged from the
 * line even when it does not parse), so output is deterministic no
 * matter how the submitters interleave; a malformed line produces an
 * error response in its slot rather than aborting the stream; SIGPIPE
 * is ignored and a dead output pipe drains the remaining input
 * without simulating it.
 */

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "common/net.hh"
#include "svc/bench_registry.hh"
#include "svc/ping.hh"
#include "svc/sequencer.hh"
#include "svc/serve_main.hh"
#include "svc/sim_service.hh"

namespace momsim::svc
{

namespace
{

int
usage(std::FILE *to, int rc)
{
    std::fprintf(to,
                 "usage: momsim <command> [flags]\n"
                 "\n"
                 "commands:\n"
                 "  <bench>       one of the registered figures/tables "
                 "(momsim list)\n"
                 "  list          print the bench registry\n"
                 "  help [bench]  flag table and per-bench usage\n"
                 "  batch         serve JSONL SimRequests from stdin\n"
                 "  serve         long-lived JSONL daemon (TCP/unix "
                 "socket)\n"
                 "  client        stream stdin to a momsim serve "
                 "daemon\n"
                 "\n"
                 "run `momsim help` for the shared bench flags.\n");
    return rc;
}

int
runList()
{
    std::printf("registered benches (momsim <name> [flags]):\n");
    std::printf("  %-15s %-34s %s\n", "name", "replaces", "summary");
    for (const BenchDef &def : benchRegistry()) {
        std::printf("  %-15s %-34s %s\n", def.name.c_str(),
                    def.oldBinary.c_str(), def.summary.c_str());
    }
    std::printf("\nplus: batch (JSONL request server), serve (socket "
                "daemon), client, help, list\n");
    return 0;
}

int
runHelp(int argc, char **argv)
{
    if (argc >= 1) {
        if (std::strcmp(argv[0], "batch") == 0) {
            std::printf(
                "momsim batch — serve JSONL SimRequests from stdin\n"
                "\n"
                "usage: momsim batch [--jobs N] [--parallel M] "
                "[--client C] [--no-timing]\n"
                "                    [--mem-cache-rows N] [--stats]\n"
                "\n"
                "flags:\n"
                "  --jobs, -j N     scheduler workers, max 256 (default: "
                "all hardware)\n"
                "  --parallel M     concurrent client submitters "
                "(default 2, max 16)\n"
                "  --client C       client tag echoed in every "
                "response (default none)\n"
                "  --no-timing      zero wallMs/sim_kcps in responses "
                "so identical\n"
                "                   request streams emit byte-identical "
                "output\n"
                "  --mem-cache-rows N  in-memory result-row LRU "
                "capacity (default 4096,\n"
                "                   0 disables)\n"
                "  --stats          print scheduler counters (points "
                "simulated /\n"
                "                   dedup-joined / memory- and "
                "disk-cache hits) to\n"
                "                   stderr after the stream drains\n"
                "\n"
                "One SimRequest JSON object per input line "
                "(schemaVersion %d); one\nSimResponse per output line, "
                "in input order, tagged with the request's\nid. "
                "Malformed lines produce ok:false responses in their "
                "slot.\n",
                kSimRequestSchemaVersion);
            return 0;
        }
        if (std::strcmp(argv[0], "serve") == 0) {
            std::printf(
                "momsim serve — long-lived SimRequest daemon over TCP "
                "and/or a unix socket\n"
                "\n"
                "usage: momsim serve (--port N [--host H] | --unix "
                "PATH) [flags]\n"
                "\n"
                "flags:\n"
                "  --port N         listen on TCP HOST:N (0 = pick an "
                "ephemeral port)\n"
                "  --host H         TCP bind address (default "
                "127.0.0.1)\n"
                "  --unix PATH      listen on a unix-domain socket\n"
                "  --jobs, -j N     scheduler workers, max 256 (default: "
                "all hardware)\n"
                "  --parallel M     submitter threads per connection "
                "(default 2, max 16)\n"
                "  --mem-cache-rows N  in-memory result-row LRU "
                "capacity (default 4096,\n"
                "                   0 disables)\n"
                "  --max-clients N  concurrent connections before "
                "shedding (default 32)\n"
                "  --max-pending N  per-connection admission queue "
                "bound (default 2*M+8)\n"
                "  --cache-dir DIR  persistent result store shared "
                "across all requests\n"
                "  --ready-file P   write the bound addresses to P "
                "once listening\n"
                "  --no-timing      zero wall-clock fields (byte-"
                "stable responses)\n"
                "\n"
                "Wire format: one SimRequest JSON object per line in, "
                "one SimResponse\nper line out, in request order per "
                "connection. Responses carry a\n\"client\" tag (the "
                "request's own, or the connection's id). Over quota\n"
                "the server answers ok:false code:overloaded instead "
                "of stalling.\nSIGINT/SIGTERM drains gracefully: stop "
                "accepting, finish in-flight\nrequests, flush, exit 0 "
                "(second signal: stop reading new requests).\n"
                "\n"
                "Ping: a {\"kind\":\"ping\",\"id\":\"p\"} line "
                "(id optional) is answered in its\nslot with one "
                "{\"kind\":\"pong\"} line carrying the same id, the "
                "version\nfingerprint (%s; equal strings agree on "
                "every\nwire format and result-cache key), uptimeMs, "
                "inFlight (requests\nexecuting now) and the scheduler's "
                "lifetime gauges: pointsSimulated,\npointsDeduped "
                "(joined in flight), memCacheHits and diskCacheHits.\n"
                "Any other line that is not a SimRequest is a "
                "bad_request. momsim batch\nanswers pings too.\n",
                serviceVersionString().c_str());
            return 0;
        }
        if (std::strcmp(argv[0], "client") == 0) {
            std::printf(
                "momsim client — stream JSONL requests to a momsim "
                "serve daemon\n"
                "\n"
                "usage: momsim client (--connect HOST:PORT | --unix "
                "PATH)\n"
                "                     [--connect-retries N] "
                "[--retry-backoff-ms MS] [--abort]\n"
                "\n"
                "Sends stdin to the server (half-closing at EOF) and "
                "prints response\nlines to stdout until the server "
                "finishes. --abort resets the\nconnection after "
                "sending without reading responses (fault-injection\n"
                "for the disconnect-hardening tests).\n"
                "\n"
                "--connect-retries N (default 0) re-dials a refused "
                "connection up to N\nextra times with jittered "
                "exponential backoff starting at\n--retry-backoff-ms "
                "MS (default 200, doubled per attempt, capped 10 s) —\n"
                "for clients racing a daemon's startup. Exhaustion "
                "prints one\nstructured {\"error\":{\"code\":"
                "\"connect_failed\",...}} line and exits 1.\n");
            return 0;
        }
        const BenchDef *def = findBench(argv[0]);
        if (!def) {
            std::fprintf(stderr, "momsim help: unknown bench '%s'\n",
                         argv[0]);
            return 2;
        }
        std::string name = "momsim " + def->name;
        std::printf("%s — %s\n\n%s\n\nflags:\n%s",
                    name.c_str(), def->summary.c_str(),
                    driver::BenchOptions::usageText(name.c_str()).c_str(),
                    driver::BenchOptions::helpText().c_str());
        return 0;
    }
    std::printf("momsim — DLP+TLP media-workload simulator "
                "multi-tool\n\n");
    usage(stdout, 0);
    std::printf("\nshared bench flags:\n%s",
                driver::BenchOptions::helpText().c_str());
    std::printf(
        "\nstatic analysis: byte-determinism and lock discipline are\n"
        "also checked at compile/lint time (clang -Wthread-safety,\n"
        "clang-tidy, tools/momlint.py) — see README \"Static "
        "analysis\".\n");
    return 0;
}

/**
 * The JSONL request loop: stdin/stdout as a transport over the shared
 * ResponseSequencer. The main thread reads stdin and push()es lines;
 * the sequencer's M submitters call SimService::submit (the service
 * serializes actual pool use — M buys request pipelining and
 * exercises the concurrent-submit contract, not extra simulation
 * parallelism) and its emitter writes responses in sequence order.
 */
int
runBatch(int argc, char **argv)
{
    const char *cmd = "momsim batch";
    int jobs = 0;
    int parallel = 2;
    int memCacheRows = -1;
    bool withTiming = true;
    bool stats = false;
    std::string clientTag;
    for (int i = 0; i < argc; ++i) {
        const char *arg = argv[i];
        if (std::strcmp(arg, "--jobs") == 0 ||
            std::strcmp(arg, "-j") == 0) {
            if (!intFlag(cmd, argc, argv, i, 1, jobs,
                         driver::PointScheduler::kMaxWorkers))
                return 2;
        } else if (std::strcmp(arg, "--parallel") == 0) {
            if (!intFlag(cmd, argc, argv, i, 1, parallel,
                         driver::PointScheduler::kMaxWorkers))
                return 2;
            if (parallel > 16)
                parallel = 16;
        } else if (std::strcmp(arg, "--mem-cache-rows") == 0) {
            if (!intFlag(cmd, argc, argv, i, 0, memCacheRows))
                return 2;
        } else if (std::strcmp(arg, "--stats") == 0) {
            stats = true;
        } else if (std::strcmp(arg, "--client") == 0) {
            if (!stringFlag(cmd, argc, argv, i, clientTag))
                return 2;
        } else if (std::strcmp(arg, "--no-timing") == 0) {
            withTiming = false;
        } else {
            std::fprintf(stderr, "%s: unknown argument %s\n", cmd, arg);
            return 2;
        }
    }

    // A downstream consumer closing the pipe must surface as a write
    // error the emitter handles, not a SIGPIPE kill mid-stream.
    net::ignoreSigpipe();

    SimServiceConfig cfg;
    cfg.jobs = jobs;
    if (memCacheRows >= 0)
        cfg.memCacheRows = static_cast<size_t>(memCacheRows);
    SimService service(cfg);

    ResponseSequencer::Config scfg;
    scfg.submit = [&service](const SimRequest &req) {
        return service.submit(req);
    };
    scfg.pong = [&service](const std::string &id) {
        return pongJson(id, service);
    };
    scfg.emit = [](const std::string &line) {
        // In-order, line-buffered: each response is one line, flushed,
        // so a streaming client sees it as soon as its turn comes.
        if (std::fwrite(line.data(), 1, line.size(), stdout) !=
            line.size())
            return false;
        if (std::fputc('\n', stdout) == EOF)
            return false;
        return std::fflush(stdout) == 0;
    };
    scfg.parallel = parallel;
    scfg.shedOnFull = false;    // stdin backpressure, never shed
    scfg.withTiming = withTiming;
    scfg.clientTag = clientTag;
    ResponseSequencer seq(scfg);

    // The main thread is the reader: one request per input line; blank
    // lines are skipped (convenient for hand-written request files).
    std::string line;
    int c;
    while ((c = std::fgetc(stdin)) != EOF) {
        if (c == '\n') {
            seq.push(std::move(line));
            line.clear();
            if (seq.writeFailed())
                break;  // undeliverable: drain, don't simulate
        } else {
            line += static_cast<char>(c);
        }
    }
    seq.push(std::move(line));  // a final line without trailing newline
    seq.finish();

    if (stats) {
        // The same gauge set the serve ping reports, for the one-shot
        // transport: where every answered point actually came from.
        const driver::PointScheduler::Counters gauges =
            service.counters();
        std::fprintf(stderr,
                     "momsim batch: scheduler stats: %llu request(s), "
                     "%llu point(s) simulated, %llu dedup-joined, "
                     "%llu memory-cache hit(s), %llu disk-cache "
                     "hit(s)\n",
                     (unsigned long long)gauges.requestsStarted,
                     (unsigned long long)gauges.pointsSimulated,
                     (unsigned long long)gauges.pointsDeduped,
                     (unsigned long long)gauges.memCacheHits,
                     (unsigned long long)gauges.diskCacheHits);
    }

    if (seq.writeFailed()) {
        std::fprintf(stderr,
                     "momsim batch: stdout write failed (consumer "
                     "closed the pipe?); emitted %zu of %zu accepted "
                     "response(s), remaining input dropped without "
                     "simulating\n",
                     seq.emitted(), seq.accepted());
        return 1;
    }
    return 0;
}

int
runRegistered(const BenchDef &def, int argc, char **argv)
{
    // Synthesize argv[0] = "momsim <bench>" so usage/error text names
    // the subcommand; the remaining tokens pass through unchanged.
    std::string argv0 = "momsim " + def.name;
    std::vector<char *> args;
    args.push_back(argv0.data());
    for (int i = 0; i < argc; ++i)
        args.push_back(argv[i]);
    return runBench(def, static_cast<int>(args.size()), args.data());
}

} // namespace

} // namespace momsim::svc

int
main(int argc, char **argv)
{
    using namespace momsim::svc;

    if (argc < 2)
        return usage(stderr, 2);
    const char *cmd = argv[1];
    if (std::strcmp(cmd, "list") == 0)
        return runList();
    if (std::strcmp(cmd, "help") == 0 || std::strcmp(cmd, "--help") == 0 ||
        std::strcmp(cmd, "-h") == 0)
        return runHelp(argc - 2, argv + 2);
    if (std::strcmp(cmd, "batch") == 0)
        return runBatch(argc - 2, argv + 2);
    if (std::strcmp(cmd, "serve") == 0)
        return runServe(argc - 2, argv + 2);
    if (std::strcmp(cmd, "client") == 0)
        return runClient(argc - 2, argv + 2);
    if (const BenchDef *def = findBench(cmd))
        return runRegistered(*def, argc - 2, argv + 2);
    std::fprintf(stderr, "momsim: unknown command '%s'\n\n", cmd);
    return usage(stderr, 2);
}
