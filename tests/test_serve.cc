/**
 * @file
 * Tests for the socket transport behind `momsim serve`: the shared
 * ResponseSequencer state machine (in-order emission, id salvage,
 * blank-line skipping, kOverloaded shedding, write-failure draining),
 * the Listener (TCP + unix accept, wake), Connection end to end
 * over a real loopback socket — including the abrupt-disconnect case
 * the daemon must survive — and the ping answered in its slot.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <unistd.h>

#include "common/logging.hh"
#include "common/net.hh"
#include "svc/connection.hh"
#include "svc/listener.hh"
#include "svc/ping.hh"
#include "svc/sequencer.hh"
#include "svc/serve_main.hh"
#include "svc/sim_service.hh"

namespace momsim::svc
{
namespace
{

// ---------------------------------------------------------------------
// ResponseSequencer
// ---------------------------------------------------------------------

/** A submit hook that echoes ok responses without simulating. */
SimResponse
echoSubmit(const SimRequest &req)
{
    SimResponse resp;
    resp.id = req.id;
    resp.ok = true;
    return resp;
}

std::string
requestLine(const std::string &id)
{
    SimRequest req;
    req.id = id;
    return req.toJson();
}

TEST(Sequencer, EmitsInInputOrderDespiteOutOfOrderCompletion)
{
    std::vector<std::string> out;
    ResponseSequencer::Config cfg;
    cfg.submit = [](const SimRequest &req) {
        // The first request finishes last: emission order must still
        // be input order.
        if (req.id == "slow")
            std::this_thread::sleep_for(std::chrono::milliseconds(100));
        return echoSubmit(req);
    };
    cfg.emit = [&out](const std::string &line) {
        out.push_back(line);
        return true;
    };
    cfg.parallel = 4;
    {
        ResponseSequencer seq(cfg);
        seq.push(requestLine("slow"));
        seq.push(requestLine("fast1"));
        seq.push(requestLine("fast2"));
        seq.finish();
        EXPECT_EQ(seq.accepted(), 3u);
        EXPECT_EQ(seq.emitted(), 3u);
        EXPECT_FALSE(seq.writeFailed());
    }
    ASSERT_EQ(out.size(), 3u);
    EXPECT_NE(out[0].find("\"id\":\"slow\""), std::string::npos);
    EXPECT_NE(out[1].find("\"id\":\"fast1\""), std::string::npos);
    EXPECT_NE(out[2].find("\"id\":\"fast2\""), std::string::npos);
}

TEST(Sequencer, MalformedLineSalvagesIdAndBlankLinesSkip)
{
    std::vector<std::string> out;
    ResponseSequencer::Config cfg;
    cfg.submit = echoSubmit;
    cfg.emit = [&out](const std::string &line) {
        out.push_back(line);
        return true;
    };
    cfg.clientTag = "c9";
    ResponseSequencer seq(cfg);
    seq.push("");
    seq.push(requestLine("good"));
    seq.push("");
    seq.push("{\"id\":\"lost-req\", this is not json");
    seq.push("");
    seq.finish();

    ASSERT_EQ(out.size(), 2u);  // blank lines produce no slots
    EXPECT_EQ(seq.accepted(), 2u);
    EXPECT_NE(out[0].find("\"id\":\"good\""), std::string::npos);
    // The bad_request response echoes the salvaged id and the
    // transport's client tag, so the client can correlate it.
    EXPECT_NE(out[1].find("\"id\":\"lost-req\""), std::string::npos);
    EXPECT_NE(out[1].find("\"ok\":false"), std::string::npos);
    EXPECT_NE(out[1].find("\"code\":\"bad_request\""), std::string::npos);
    EXPECT_NE(out[1].find("\"client\":\"c9\""), std::string::npos);
}

TEST(Sequencer, ShedsWithOverloadedWhenQueueFull)
{
    // One submitter parked inside submit; maxPending 1. Line A is
    // in-flight, line B queued (fills the queue), line C must shed
    // with a structured kOverloaded error in its slot, in order.
    std::mutex m;
    std::condition_variable cv;
    bool release = false;
    std::atomic<int> entered{ 0 };

    std::vector<std::string> out;
    ResponseSequencer::Config cfg;
    cfg.submit = [&](const SimRequest &req) {
        entered.fetch_add(1);
        std::unique_lock<std::mutex> lock(m);
        cv.wait(lock, [&] { return release; });
        return echoSubmit(req);
    };
    cfg.emit = [&out](const std::string &line) {
        out.push_back(line);
        return true;
    };
    cfg.parallel = 1;
    cfg.maxPending = 1;
    cfg.shedOnFull = true;
    ResponseSequencer seq(cfg);

    seq.push(requestLine("a"));
    // Wait until the submitter holds "a" so the queue is empty again.
    while (entered.load() == 0)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    seq.push(requestLine("b"));     // queued: pending = 1 = max
    seq.push(requestLine("c"));     // full: shed
    {
        std::lock_guard<std::mutex> lock(m);
        release = true;
    }
    cv.notify_all();
    seq.finish();

    EXPECT_EQ(seq.shedCount(), 1u);
    ASSERT_EQ(out.size(), 3u);
    EXPECT_NE(out[0].find("\"id\":\"a\""), std::string::npos);
    EXPECT_NE(out[1].find("\"id\":\"b\""), std::string::npos);
    EXPECT_NE(out[2].find("\"id\":\"c\""), std::string::npos);
    EXPECT_NE(out[2].find("\"code\":\"overloaded\""), std::string::npos);
    EXPECT_NE(out[2].find("\"ok\":false"), std::string::npos);
    // Shed requests are never executed.
    EXPECT_EQ(entered.load(), 2);
}

TEST(Sequencer, WriteFailureDrainsWithoutSimulating)
{
    // Delivery dies on the first emit. With one submitter and a
    // 1-deep queue, at most two requests can already be in the
    // pipeline; everything after must drain unexecuted.
    std::atomic<int> executed{ 0 };
    ResponseSequencer::Config cfg;
    cfg.submit = [&](const SimRequest &req) {
        executed.fetch_add(1);
        // Slow enough that the emitter's failure lands before the
        // pipeline can race far ahead.
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        return echoSubmit(req);
    };
    cfg.emit = [](const std::string &) { return false; };
    cfg.parallel = 1;
    cfg.maxPending = 1;
    ResponseSequencer seq(cfg);

    for (int i = 0; i < 20; ++i)
        seq.push(requestLine(strfmt("r%d", i)));
    seq.finish();

    EXPECT_TRUE(seq.writeFailed());
    EXPECT_EQ(seq.emitted(), 0u);
    EXPECT_LE(executed.load(), 3);  // in-flight + queued at failure
    EXPECT_LT(seq.accepted(), 20u); // pushes after failure are dropped
}

// ---------------------------------------------------------------------
// Listener
// ---------------------------------------------------------------------

TEST(Listener, BindsTcpAndUnixAndWakes)
{
    const std::string sock = "test_serve.listener.sock";
    Listener listener;
    Listener::Options opts;
    opts.tcpPort = 0;       // ephemeral
    opts.unixPath = sock;
    std::string error;
    ASSERT_TRUE(listener.open(opts, error)) << error;
    EXPECT_GT(listener.boundPort(), 0);
    ASSERT_EQ(listener.boundAddresses().size(), 2u);

    // A TCP client and a unix client both get accepted.
    std::thread tcpClient([&] {
        std::string err;
        int fd = net::connectTcp("127.0.0.1", listener.boundPort(), err);
        ASSERT_GE(fd, 0) << err;
        ::close(fd);
    });
    int accepted = listener.acceptClient();
    EXPECT_GE(accepted, 0);
    ::close(accepted);
    tcpClient.join();

    std::thread unixClient([&] {
        std::string err;
        int fd = net::connectUnix(sock, err);
        ASSERT_GE(fd, 0) << err;
        ::close(fd);
    });
    accepted = listener.acceptClient();
    EXPECT_GE(accepted, 0);
    ::close(accepted);
    unixClient.join();

    // wake() unblocks a pending accept with -1 (the drain signal).
    std::thread waker([&] {
        std::this_thread::sleep_for(std::chrono::milliseconds(30));
        listener.wake();
    });
    EXPECT_EQ(listener.acceptClient(), -1);
    waker.join();
    listener.close();
}

TEST(Listener, RejectsEmptyOptionsAndBadAddresses)
{
    Listener listener;
    std::string error;
    EXPECT_FALSE(listener.open({}, error));
    EXPECT_FALSE(error.empty());

    Listener::Options bad;
    bad.tcpPort = 80;
    bad.host = "not-an-ip";
    error.clear();
    EXPECT_FALSE(listener.open(bad, error));
    EXPECT_NE(error.find("not-an-ip"), std::string::npos);
}

// ---------------------------------------------------------------------
// Connection over a real loopback socket
// ---------------------------------------------------------------------

/** Read from fd until EOF; returns everything received. */
std::string
readAll(int fd)
{
    std::string out;
    char buf[4096];
    for (;;) {
        long got = net::readSome(fd, buf, sizeof(buf));
        if (got <= 0)
            return out;
        out.append(buf, static_cast<size_t>(got));
    }
}

std::vector<std::string>
splitLines(const std::string &text)
{
    std::vector<std::string> lines;
    std::string cur;
    for (char c : text) {
        if (c == '\n') {
            lines.push_back(cur);
            cur.clear();
        } else {
            cur += c;
        }
    }
    if (!cur.empty())
        lines.push_back(cur);
    return lines;
}

/** A tiny explicit-axes request that simulates in milliseconds. */
SimRequest
tinyRequest(const std::string &id)
{
    SimRequest req;
    req.id = id;
    req.isas = { "mmx" };
    req.threads = { 1 };
    req.memModels = { "perfect" };
    req.quick = true;
    req.maxCycles = 50000;
    return req;
}

TEST(ServeConnection, ServesATaggedStreamInOrder)
{
    SimService service;
    Listener listener;
    Listener::Options opts;
    opts.tcpPort = 0;
    std::string error;
    ASSERT_TRUE(listener.open(opts, error)) << error;

    std::string err;
    int clientFd =
        net::connectTcp("127.0.0.1", listener.boundPort(), err);
    ASSERT_GE(clientFd, 0) << err;
    int serverFd = listener.acceptClient();
    ASSERT_GE(serverFd, 0);

    Connection conn(serverFd, service, {}, "c1");
    conn.start();

    // Two valid requests (one carrying its own client tag), one
    // malformed line with a salvageable id, and no trailing newline on
    // the last request — all answered, in order.
    SimRequest tagged = tinyRequest("t2");
    tagged.client = "external-7";
    std::string wire = tinyRequest("t1").toJson() + "\n" +
                       "{\"id\":\"broken\" not json\n" +
                       tagged.toJson();
    ASSERT_TRUE(net::writeAll(clientFd, wire.data(), wire.size()));
    ::shutdown(clientFd, SHUT_WR);

    std::vector<std::string> lines = splitLines(readAll(clientFd));
    ::close(clientFd);
    conn.join();
    EXPECT_TRUE(conn.done());

    ASSERT_EQ(lines.size(), 3u);
    EXPECT_NE(lines[0].find("\"id\":\"t1\""), std::string::npos);
    EXPECT_NE(lines[0].find("\"client\":\"c1\""), std::string::npos);
    EXPECT_NE(lines[0].find("\"ok\":true"), std::string::npos);
    EXPECT_NE(lines[1].find("\"id\":\"broken\""), std::string::npos);
    EXPECT_NE(lines[1].find("\"code\":\"bad_request\""),
              std::string::npos);
    EXPECT_NE(lines[1].find("\"client\":\"c1\""), std::string::npos);
    // A request's own client tag wins over the connection's.
    EXPECT_NE(lines[2].find("\"id\":\"t2\""), std::string::npos);
    EXPECT_NE(lines[2].find("\"client\":\"external-7\""),
              std::string::npos);
}

TEST(ServeConnection, OverlongLineGetsOneErrorThenEof)
{
    SimService service;
    Listener listener;
    Listener::Options opts;
    opts.tcpPort = 0;
    std::string error;
    ASSERT_TRUE(listener.open(opts, error)) << error;

    // A 2 MiB line with no newline: one line_too_long error, then EOF.
    std::string err;
    int clientFd =
        net::connectTcp("127.0.0.1", listener.boundPort(), err);
    ASSERT_GE(clientFd, 0) << err;
    int serverFd = listener.acceptClient();
    ASSERT_GE(serverFd, 0);
    Connection conn(serverFd, service, {}, "c1");
    conn.start();

    // A receive timeout turns a server that never answers into a
    // failed assertion instead of a hung test.
    timeval limit {};
    limit.tv_sec = 30;
    ASSERT_EQ(::setsockopt(clientFd, SOL_SOCKET, SO_RCVTIMEO, &limit,
                           sizeof(limit)),
              0);
    // The writer may block once the server stops reading; it is
    // unblocked by the shutdown below.
    std::thread writer([clientFd] {
        std::string junk(2u << 20, 'x');
        net::writeAll(clientFd, junk.data(), junk.size());
    });
    std::vector<std::string> lines = splitLines(readAll(clientFd));
    ::shutdown(clientFd, SHUT_RDWR);
    writer.join();
    ::close(clientFd);
    conn.join();
    EXPECT_TRUE(conn.done());

    ASSERT_EQ(lines.size(), 1u);
    EXPECT_NE(lines[0].find("\"ok\":false"), std::string::npos);
    EXPECT_NE(lines[0].find("\"code\":\"line_too_long\""),
              std::string::npos);
    EXPECT_NE(lines[0].find("\"client\":\"c1\""), std::string::npos);

    // A second connection to the same service is still served.
    clientFd = net::connectTcp("127.0.0.1", listener.boundPort(), err);
    ASSERT_GE(clientFd, 0) << err;
    serverFd = listener.acceptClient();
    ASSERT_GE(serverFd, 0);
    Connection next(serverFd, service, {}, "c2");
    next.start();
    std::string wire = tinyRequest("n1").toJson() + "\n";
    ASSERT_TRUE(net::writeAll(clientFd, wire.data(), wire.size()));
    ::shutdown(clientFd, SHUT_WR);
    lines = splitLines(readAll(clientFd));
    ::close(clientFd);
    next.join();
    ASSERT_EQ(lines.size(), 1u);
    EXPECT_NE(lines[0].find("\"id\":\"n1\""), std::string::npos);
    EXPECT_NE(lines[0].find("\"ok\":true"), std::string::npos);
}

TEST(ServeConnection, SurvivesAbruptClientDisconnect)
{
    SimService service;
    Listener listener;
    Listener::Options opts;
    opts.tcpPort = 0;
    std::string error;
    ASSERT_TRUE(listener.open(opts, error)) << error;

    // Client sends requests then resets the connection without
    // reading a byte. The connection must finish (dropping what it
    // cannot deliver) and the service must stay healthy.
    std::string err;
    int clientFd =
        net::connectTcp("127.0.0.1", listener.boundPort(), err);
    ASSERT_GE(clientFd, 0) << err;
    int serverFd = listener.acceptClient();
    ASSERT_GE(serverFd, 0);

    Connection conn(serverFd, service, {}, "c1");
    conn.start();

    std::string wire;
    for (int i = 0; i < 8; ++i)
        wire += tinyRequest(strfmt("d%d", i)).toJson() + "\n";
    ASSERT_TRUE(net::writeAll(clientFd, wire.data(), wire.size()));
    net::setAbortiveClose(clientFd);
    ::close(clientFd);      // RST: the server's next write must fail

    conn.join();            // must terminate, not hang or crash
    EXPECT_TRUE(conn.done());

    // The daemon (and its warm service) keeps serving after the rude
    // client is gone.
    SimResponse after = service.submit(tinyRequest("after"));
    EXPECT_TRUE(after.ok) << after.errorMessage;
}

// ---------------------------------------------------------------------
// Ping
// ---------------------------------------------------------------------

/** A sequencer config that collects emitted lines and answers pings
 *  from @p service, as both transports wire it. */
ResponseSequencer::Config
pingingConfig(SimService &service, std::vector<std::string> &out,
              std::mutex &outMutex)
{
    ResponseSequencer::Config cfg;
    cfg.pong = [&service](const std::string &id) {
        return pongJson(id, service);
    };
    cfg.emit = [&out, &outMutex](const std::string &line) {
        std::lock_guard<std::mutex> lock(outMutex);
        out.push_back(line);
        return true;
    };
    return cfg;
}

TEST(ServeFlags, ThreadCountsAreBoundedAtParseTime)
{
    // --jobs and --parallel of `momsim serve` and `momsim batch` parse
    // through intFlag bounded by PointScheduler::kMaxWorkers; a value
    // the scheduler would turn into that many threads rejects here,
    // before anything starts.
    auto parse = [](const char *value, int &out) {
        std::string flag = "--jobs";
        std::string v = value;
        char *argv[] = { &flag[0], &v[0] };
        int i = 0;
        return intFlag("test", 2, argv, i, 1, out,
                       driver::PointScheduler::kMaxWorkers);
    };
    int n = 0;
    EXPECT_TRUE(parse("1", n));
    EXPECT_EQ(n, 1);
    EXPECT_TRUE(parse("256", n));
    EXPECT_EQ(n, driver::PointScheduler::kMaxWorkers);
    for (const char *bad : { "0", "257", "1048576", "99999999999999999999",
                             "-1", "4x", "" }) {
        n = -7;
        EXPECT_FALSE(parse(bad, n)) << "'" << bad << "'";
        EXPECT_EQ(n, -7) << "'" << bad << "'";
    }
    // serve's own flag loop applies the bound: usage error, exit 2,
    // before it binds or starts a worker.
    for (const char *flag : { "--jobs", "-j", "--parallel" }) {
        std::string f = flag;
        std::string v = "257";
        char *argv[] = { &f[0], &v[0] };
        EXPECT_EQ(runServe(2, argv), 2) << flag;
    }
}

TEST(Ping, PongCarriesIdVersionAndTheServiceGauges)
{
    SimService service;
    ASSERT_TRUE(service.submit(tinyRequest("warm")).ok);

    std::vector<std::string> out;
    std::mutex outMutex;
    ResponseSequencer::Config cfg = pingingConfig(service, out, outMutex);
    cfg.submit = [&service](const SimRequest &req) {
        return service.submit(req);
    };
    {
        ResponseSequencer seq(cfg);
        seq.push("{\"kind\":\"ping\",\"id\":\"p\"}");
        seq.finish();
    }
    ASSERT_EQ(out.size(), 1u);
    const std::string head = "{\"kind\":\"pong\",\"id\":\"p\","
                             "\"version\":\"" +
                             serviceVersionString() + "\",\"uptimeMs\":";
    EXPECT_EQ(out[0].rfind(head, 0), 0u) << out[0];
    // The one point simulated above, and nothing running now.
    const std::string tail = ",\"inFlight\":0,\"pointsSimulated\":1,"
                             "\"pointsDeduped\":0,\"memCacheHits\":0,"
                             "\"diskCacheHits\":0}";
    ASSERT_GE(out[0].size(), tail.size());
    EXPECT_EQ(out[0].substr(out[0].size() - tail.size()), tail) << out[0];
}

TEST(Ping, RequestsAndOtherKindsKeepTheirSlots)
{
    SimService service;
    std::vector<std::string> out;
    std::mutex outMutex;
    ResponseSequencer::Config cfg = pingingConfig(service, out, outMutex);
    cfg.submit = echoSubmit;
    cfg.parallel = 4;
    {
        ResponseSequencer seq(cfg);
        seq.push(requestLine("r1"));
        seq.push("{\"kind\":\"ping\",\"id\":\"p\"}");
        seq.push("{\"kind\":\"run\",\"id\":\"s\",\"points\":[]}");
        seq.push("{\"kind\":\"ping\",\"id\":\"q\",\"extra\":1}");
        seq.push(requestLine("r2"));
        seq.finish();
    }
    ASSERT_EQ(out.size(), 5u);
    EXPECT_NE(out[0].find("\"id\":\"r1\",\"ok\":true"),
              std::string::npos) << out[0];
    EXPECT_EQ(out[1].rfind("{\"kind\":\"pong\",\"id\":\"p\",", 0), 0u)
        << out[1];
    // No other "kind" is served: an unknown kind and a ping with an
    // unknown field are ordinary bad requests, in their slots.
    for (size_t i : { size_t { 2 }, size_t { 3 } }) {
        EXPECT_NE(out[i].find("\"code\":\"bad_request\""),
                  std::string::npos) << out[i];
    }
    EXPECT_NE(out[2].find("\"id\":\"s\""), std::string::npos) << out[2];
    EXPECT_NE(out[3].find("\"id\":\"q\""), std::string::npos) << out[3];
    EXPECT_NE(out[4].find("\"id\":\"r2\",\"ok\":true"),
              std::string::npos) << out[4];
}

TEST(SimService, SharedCacheWarmsAcrossRequests)
{
    const std::string dir = "test_serve.cache";
    std::remove((dir + "/results.jsonl").c_str());
    ::rmdir(dir.c_str());

    SimService service;
    std::string error;
    ASSERT_TRUE(service.openCache(dir, error)) << error;
    EXPECT_EQ(service.cacheDir(), dir);

    SimRequest req = tinyRequest("warm1");
    SimResponse cold = service.submit(req);
    ASSERT_TRUE(cold.ok) << cold.errorMessage;
    EXPECT_EQ(cold.simulatedPoints, 1u);
    EXPECT_EQ(cold.cachedPoints, 0u);

    // Same request again, no cacheDir named in the request: the
    // service-lifetime store answers it without simulating.
    req.id = "warm2";
    SimResponse warm = service.submit(req);
    ASSERT_TRUE(warm.ok) << warm.errorMessage;
    EXPECT_EQ(warm.simulatedPoints, 0u);
    EXPECT_EQ(warm.cachedPoints, 1u);
    ASSERT_EQ(warm.rows.size(), 1u);
    EXPECT_EQ(warm.rows[0].run.cycles, cold.rows[0].run.cycles);

    // A fresh service on the same dir starts warm (persistence), and
    // a request naming the same dir explicitly shares the store.
    SimService reopened;
    ASSERT_TRUE(reopened.openCache(dir, error)) << error;
    req.id = "warm3";
    req.cacheDir = dir;
    SimResponse again = reopened.submit(req);
    ASSERT_TRUE(again.ok) << again.errorMessage;
    EXPECT_EQ(again.simulatedPoints, 0u);
    EXPECT_EQ(again.cachedPoints, 1u);
}

} // namespace
} // namespace momsim::svc
