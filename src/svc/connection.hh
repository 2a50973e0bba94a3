/**
 * @file
 * Connection — one accepted `momsim serve` client: a thread that
 * reads newline-delimited SimRequest JSON from the socket, drives the
 * shared ResponseSequencer (the same state machine `momsim batch`
 * runs over stdin/stdout), and streams SimResponse JSONL back, in
 * request order, tagged with this connection's client id.
 *
 * Lifecycle: start() spawns the thread; the connection runs until the
 * client stops sending (EOF / half-close), the client stops *reading*
 * (a write error flips the sequencer into drain mode and queued work
 * is discarded unsimulated), or the server forces drain via
 * shutdownRead(). In every case in-flight responses are flushed
 * before the socket closes — an abrupt client disconnect never takes
 * down the daemon, only its own connection. A request line longer than
 * kMaxLineBytes is answered with one line_too_long error, after the
 * responses to the lines before it, and the connection closes: a
 * client that never sends a newline cannot grow daemon memory.
 */

#ifndef MOMSIM_SVC_CONNECTION_HH
#define MOMSIM_SVC_CONNECTION_HH

#include <atomic>
#include <cstddef>
#include <string>
#include <thread>

#include "common/net.hh"

namespace momsim::svc
{

class SimService;

class Connection
{
  public:
    /** Longest accepted request line, newline excluded. Far above any
     *  SimRequest a client sends (a whole sweep fits in well under a
     *  kilobyte), yet a bound on what one unterminated line can cost. */
    static constexpr size_t kMaxLineBytes = size_t { 1 } << 20;

    struct Options
    {
        int parallel = 2;       ///< submitter threads per connection
        size_t maxPending = 0;  ///< admission queue bound; 0 => auto
        bool withTiming = true;
    };

    /** Takes ownership of @p fd. @p clientTag is this connection's
     *  default client id ("c1", "c2", ...), echoed in every response
     *  whose request does not carry its own. */
    Connection(int fd, SimService &service, Options opts,
               std::string clientTag);

    /** join() must have completed (or start() never called). */
    ~Connection();

    Connection(const Connection &) = delete;
    Connection &operator=(const Connection &) = delete;

    void start();

    /** The handler finished; join() will not block. */
    bool done() const { return _done.load(std::memory_order_acquire); }

    /**
     * Force drain: half-close the read side so the handler sees EOF
     * after the requests already received, answers them, flushes and
     * exits. Used on the second shutdown signal.
     */
    void shutdownRead();

    void join();

    const std::string &clientTag() const { return _clientTag; }

  private:
    void run();

    net::FdGuard _fd;
    SimService &_service;
    Options _opts;
    std::string _clientTag;
    std::thread _thread;
    std::atomic<bool> _done{ false };
};

} // namespace momsim::svc

#endif // MOMSIM_SVC_CONNECTION_HH
