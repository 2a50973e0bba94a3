/**
 * @file
 * The registry that turned 12 bench binaries and an example into one
 * `momsim` multi-tool: every paper figure/table (and the explorer) is
 * a named BenchDef — a grid factory plus a stdout printer — instead of
 * a main(). The CLI dispatches `momsim <name> [flags]` through
 * runBench(), whose output is byte-identical to the removed per-bench
 * binaries (gated by the cli_equivalence CTest against goldens
 * captured from them), and SimService resolves request bench names
 * through the same grid factories, so the CLI tables and the service
 * rows can never disagree about what a figure sweeps.
 */

#ifndef MOMSIM_SVC_BENCH_REGISTRY_HH
#define MOMSIM_SVC_BENCH_REGISTRY_HH

#include <functional>
#include <string>
#include <vector>

#include "driver/bench_harness.hh"

namespace momsim::svc
{

/**
 * One registered bench. Exactly one of the three run shapes is set:
 *  - grid + print: the normal sweeping figure/table — runBench()
 *    executes the grid through BenchHarness::run and hands the sink to
 *    print for the stdout tables;
 *  - runNoSweep: trace-analysis benches with no sweep stage (table2,
 *    table3) — runBench() calls declareNoSweep() first, exactly as the
 *    old mains did;
 *  - runCustom: benches with their own argv contract (the explorer's
 *    positional point spec) — wantsPositionals routes non-flag tokens
 *    to it instead of rejecting them.
 */
struct BenchDef
{
    std::string name;           ///< subcommand: "fig6", "table2", ...
    std::string oldBinary;      ///< the binary this entry replaced
    std::string summary;        ///< one-liner for `momsim list`

    std::function<driver::SweepGrid(const driver::BenchOptions &)> grid;
    std::function<void(driver::BenchHarness &,
                       const driver::ResultSink &)> print;
    std::function<void(driver::BenchHarness &)> runNoSweep;
    std::function<int(driver::BenchHarness &,
                      const std::vector<std::string> &)> runCustom;
    bool wantsPositionals = false;

    bool hasSweep() const { return static_cast<bool>(grid); }
};

/** All registered benches, in `momsim list` order. */
const std::vector<BenchDef> &benchRegistry();

/** Lookup by subcommand name; nullptr when absent. */
const BenchDef *findBench(const std::string &name);

/**
 * Run @p def exactly as its old standalone main() did: parse argv
 * (argv[0] is the display name for usage, e.g. "momsim fig6"),
 * construct a BenchHarness, execute, print. Exits on CLI errors and
 * --dry-run/--list-workloads, like the harness always has — the
 * no-exit() path into the same grids is SimService.
 */
int runBench(const BenchDef &def, int argc, char **argv);

// ---- per-bench factories (one per converted bench/*.cc) ----
BenchDef makeFig4Def();
BenchDef makeFig5Def();
BenchDef makeFig6Def();
BenchDef makeFig8Def();
BenchDef makeFig9Def();
BenchDef makeTable1Def();
BenchDef makeTable2Def();
BenchDef makeTable3Def();
BenchDef makeTable4Def();
BenchDef makeAblationDef();
BenchDef makeWorkloadMixDef();
BenchDef makeExplorerDef();

} // namespace momsim::svc

#endif // MOMSIM_SVC_BENCH_REGISTRY_HH
