/**
 * @file
 * Interactive-style configuration explorer: run any combination of ISA,
 * thread count, memory model and fetch policy over the full workload.
 * Registered as `momsim explorer`; the example_fetch_policy_explorer
 * binary is a thin wrapper over this entry.
 *
 *   $ momsim explorer [--quick] [--jobs N] \
 *         [--cache-dir DIR] [--shard I/N] [--merge FILES] [--dry-run] \
 *         [mmx|mom] [threads] [perfect|conventional|decoupled] \
 *         [rr|ic|oc|bl]
 *
 * With no positional arguments, sweeps the fetch policies at 8 threads
 * on the decoupled MOM machine through the threaded experiment runner.
 * Flag/positional splitting is the harness parser's positional mode
 * (BenchOptions::parseInto).
 */

#include <cstdio>
#include <cstring>
#include <vector>

#include "svc/bench_registry.hh"

namespace momsim::svc
{

namespace
{

using driver::ResultRow;
using driver::ResultSink;
using driver::SweepGrid;

cpu::FetchPolicy
parsePolicy(const char *str)
{
    if (std::strcmp(str, "ic") == 0)
        return cpu::FetchPolicy::ICount;
    if (std::strcmp(str, "oc") == 0)
        return cpu::FetchPolicy::OCount;
    if (std::strcmp(str, "bl") == 0)
        return cpu::FetchPolicy::Balance;
    return cpu::FetchPolicy::RoundRobin;
}

mem::MemModel
parseMem(const char *str)
{
    if (std::strcmp(str, "perfect") == 0)
        return mem::MemModel::Perfect;
    if (std::strcmp(str, "decoupled") == 0)
        return mem::MemModel::Decoupled;
    return mem::MemModel::Conventional;
}

void
printRow(const ResultRow &r)
{
    std::printf("%s x%d %-12s %-3s | IPC %5.2f  EIPC %5.2f | L1 %5.1f%% "
                "lat %5.2f | IC %5.1f%%\n",
                isa::toString(r.simd), r.threads, toString(r.memModel),
                toString(r.policy), r.run.ipc, r.run.eipc,
                100 * r.run.l1HitRate, r.run.l1AvgLatency,
                100 * r.run.icacheHitRate);
}

int
runExplorer(driver::BenchHarness &bench,
            const std::vector<std::string> &positional)
{
    if (positional.size() >= 4) {
        SweepGrid grid;
        int threads = std::atoi(positional[1].c_str());
        if (threads < 1 || threads > 8)
            threads = 8;
        grid.isas({ positional[0] == "mom" ? isa::SimdIsa::Mom
                                           : isa::SimdIsa::Mmx })
            .threadCounts({ threads })
            .memModels({ parseMem(positional[2].c_str()) })
            .policies({ parsePolicy(positional[3].c_str()) });
        ResultSink sink = bench.run(grid);
        if (sink.empty()) {
            // Under --shard the single point may belong to another
            // shard; nothing of ours to print.
            std::printf("(point assigned to another shard)\n");
            return 0;
        }
        // One row per selected --workload (a single one by default).
        for (const ResultRow &r : sink.rows())
            printRow(r);
        return 0;
    }

    std::printf("sweeping fetch policies (MOM, 8 threads, decoupled):\n");
    SweepGrid grid;
    grid.isas({ isa::SimdIsa::Mom })
        .threadCounts({ 8 })
        .memModels({ mem::MemModel::Decoupled })
        .policies({ cpu::FetchPolicy::RoundRobin, cpu::FetchPolicy::ICount,
                    cpu::FetchPolicy::OCount, cpu::FetchPolicy::Balance });
    ResultSink all = bench.run(grid);
    bench.perWorkload(all, [](const ResultSink &sink,
                              const std::string &) {
        for (const ResultRow &r : sink.rows())
            printRow(r);

        std::vector<double> headlines;
        for (const ResultRow &r : sink.rows())
            headlines.push_back(r.headline);
        std::printf("geomean %s across policies: %.2f\n",
                    ResultSink::headlineName(isa::SimdIsa::Mom),
                    ResultSink::geomean(headlines));
    });
    return 0;
}

} // namespace

BenchDef
makeExplorerDef()
{
    BenchDef def;
    def.name = "explorer";
    def.oldBinary = "example_fetch_policy_explorer";
    def.summary = "Explore one configuration point or a policy sweep";
    def.wantsPositionals = true;
    def.runCustom = runExplorer;
    return def;
}

} // namespace momsim::svc
