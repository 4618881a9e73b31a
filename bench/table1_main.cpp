/**
 * @file
 * Reproduces Table 1: simulated cycles and dynamic operation counts for
 * all nine workloads under the six runtime configurations (two static
 * stack variants and four work-stealing placement variants).
 *
 * Every cell is one supervised FleetServer job built by rowRequest(),
 * and the whole table is one batch submitted up front (as Fig. 9 does).
 * Dynamic-op and steal counts flow back through a side channel filled
 * in each job's digest stage, the last point its machine is alive.
 *
 * Expected shape (paper): work-stealing matches or beats the static
 * runtime everywhere it applies, with the largest wins on irregular
 * inputs; dynamic instruction counts are higher under work-stealing
 * (spawn/steal overhead and idle-core steal attempts), and higher again
 * with the SPM task queue (failed steals get cheaper, so idle cores
 * issue more of them).
 */

#include <memory>

#include "bench/rows.hpp"

using namespace spmrt;
using namespace spmrt::bench;

namespace {

/** Per-cell counts read in the digest stage, where the machine is alive. */
struct CellCounts
{
    uint64_t instructions = 0;
    uint64_t steals = 0;
};

/** One Table 1 cell, recording its op and steal counts into @p counts. */
serve::JobRequest
tableCell(const WorkloadRow &row, const Variant &variant,
          std::shared_ptr<CellCounts> counts)
{
    serve::JobRequest req = rowRequest(
        row, MachineConfig{}, variant.cfg, variant.isStatic,
        log::format("table1/%s/%s/%s", row.workload.c_str(),
                    row.input.c_str(), variant.label));
    req.prepare = [inner = std::move(req.prepare),
                   counts](Machine &machine, serve::AssetCache &assets) {
        serve::PreparedJob prep = inner(machine, assets);
        prep.digest = [digest = std::move(prep.digest),
                       counts](Machine &m) {
            counts->instructions = m.totalInstructions();
            counts->steals = m.totalStat(&RuntimeStats::stealHits);
            return digest(m);
        };
        return prep;
    };
    return req;
}

} // namespace

int
main(int argc, char **argv)
{
    Report report("table1_main", argc, argv);
    report.comment("Table 1: cycles (K) and dynamic ops (K) per workload "
                   "and runtime configuration");
    if (quickMode())
        report.comment("QUICK MODE: shrunken inputs");

    serve::FleetServer server(benchFleetConfig());
    report.comment("batch of supervised fleet jobs across %u host workers",
                   server.workerCount());

    // Submit the whole table up front, then settle cell by cell.
    struct PendingCell
    {
        std::string workload;
        std::string input;
        const char *config;
        serve::FleetServer::JobId id;
        std::shared_ptr<CellCounts> counts;
    };
    std::vector<PendingCell> pending;
    for (const WorkloadRow &row : table1Rows()) {
        if (!report.wants(row.workload + "/" + row.input))
            continue;
        for (const Variant &variant : table1Variants()) {
            if (variant.isStatic && !row.hasStatic)
                continue;
            auto counts = std::make_shared<CellCounts>();
            pending.push_back(
                {row.workload, row.input, variant.label,
                 server.submit(tableCell(row, variant, counts)), counts});
        }
    }

    for (const PendingCell &cell : pending) {
        serve::JobReport job = server.wait(cell.id);
        bool ok = job.status == serve::JobStatus::Ok;
        if (!ok)
            report.fail("%s/%s under '%s': %s (%s)", cell.workload.c_str(),
                        cell.input.c_str(), cell.config,
                        serve::jobStatusName(job.status), job.error.c_str());
        report.row()
            .cell("workload", cell.workload)
            .cell("input", cell.input)
            .cell("config", cell.config)
            .cell("cycles_k", job.cycles / 1000.0)
            .cell("ops_k", cell.counts->instructions / 1000.0)
            .cell("steals", cell.counts->steals)
            .cell("ok", ok);
    }

    assertFleetTotals(report, server, pending.size());
    return report.finish();
}
