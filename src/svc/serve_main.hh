/**
 * @file
 * The socket transport front ends of the momsim CLI:
 *
 *   momsim serve   — long-lived daemon: SimRequest JSONL per
 *                    connection in, SimResponse JSONL out, over TCP
 *                    (loopback by default) and/or a unix-domain
 *                    socket, with one warm SimService (thread pool,
 *                    workload repos, optional persistent result
 *                    store) shared across all connections.
 *   momsim client  — line-streaming loopback client: stdin to the
 *                    server, responses to stdout. The test harness's
 *                    counterpart to serve, and a worked example of
 *                    the wire protocol.
 *
 * Load under concurrent clients is measured by the benchmark's
 * serve_mixed workload (perfbench/README.md), not by a subcommand.
 * Both take (argc, argv) past their subcommand token, batch-style,
 * and share the flag readers below with `momsim batch`.
 */

#ifndef MOMSIM_SVC_SERVE_MAIN_HH
#define MOMSIM_SVC_SERVE_MAIN_HH

#include <string>

namespace momsim::svc
{

int runServe(int argc, char **argv);
int runClient(int argc, char **argv);

/**
 * Read the value of flag argv[i] into @p out, advancing @p i past it;
 * on a missing value (or, for intFlag, anything but an integer in
 * [@p minValue, @p maxValue]) print "<cmd>: ..." on stderr and return
 * false.
 */
bool intFlag(const char *cmd, int argc, char **argv, int &i, int minValue,
             int &out, int maxValue = 1 << 20);
bool stringFlag(const char *cmd, int argc, char **argv, int &i,
                std::string &out);

} // namespace momsim::svc

#endif // MOMSIM_SVC_SERVE_MAIN_HH
