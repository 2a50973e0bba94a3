/**
 * @file
 * The service's health probe: a `{"kind":"ping"}` line answered with
 * one pong line carrying the daemon's compatibility fingerprint and
 * its live gauges — "what is the daemon doing right now?".
 *
 * A ping is not a SimRequest (it carries no schemaVersion), so the
 * ResponseSequencer tries it only on lines SimRequest::fromJson has
 * rejected: request lines are parsed once, and the ping costs nothing
 * on the request path. The pong is emitted in the ping's sequence
 * slot like any response, so it also answers in input order.
 *
 *   {"kind":"ping","id":"p"}
 *   {"kind":"pong","id":"p","version":"req1/resp1/rows4/sim1",
 *    "uptimeMs":N,"inFlight":N,"pointsSimulated":N,"pointsDeduped":N,
 *    "memCacheHits":N,"diskCacheHits":N}
 */

#ifndef MOMSIM_SVC_PING_HH
#define MOMSIM_SVC_PING_HH

#include <string>

namespace momsim::svc
{

class SimService;

/** Version of the ping/pong wire format. Bump on any field change. */
constexpr int kPingSchemaVersion = 1;

/**
 * "req<R>/resp<S>/rows<V>/sim<C>": two processes with equal strings
 * agree on every wire format *and* on result-cache keys.
 */
std::string serviceVersionString();

/**
 * True when @p line is a ping: a JSON object whose "kind" is "ping",
 * with at most a string "id" besides (returned in @p id, "" if none).
 */
bool parsePing(const std::string &line, std::string &id);

/** The pong answering ping @p id ("" omits the field), with
 *  @p service's uptime, in-flight count and scheduler gauges. */
std::string pongJson(const std::string &id, const SimService &service);

} // namespace momsim::svc

#endif // MOMSIM_SVC_PING_HH
