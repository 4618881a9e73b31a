/**
 * @file
 * Host-performance trajectory bench: how fast the simulator itself runs.
 *
 * Runs fib/cilksort/uts/nqueens under the work-stealing runtime at 16 and
 * 128 cores, once with the winner-tree scheduler and once with the
 * linear-scan reference scheduler, and records host wall-clock, context
 * switches, sync points, and simulated cycles. Like every bench it
 * reports through bench::Report: `--out=BENCH_host_perf.json` writes the
 * rows as spmrt-bench-v1 JSON (fields in EXPERIMENTS.md E13), which
 * tools/check_host_perf.py gates against the committed baseline and
 * trajectory. The gated quantity is the fast-vs-reference speedup, which
 * is machine-independent in a way absolute wall-clock is not.
 *
 * Each workload is built by serve::makeWorkloadRequest(), the same
 * builder fleet jobs use. Both schedulers must produce the host
 * reference digest and agree on cycles and switches — this bench asserts
 * it (cheaply re-checking test_engine_equiv's contract at bench scale)
 * so the recorded speedup is never a speedup into wrongness.
 *
 * A second series ("throughput") measures batch simulation throughput
 * through the FleetServer: the same job mix on 1 worker vs 4 workers,
 * recorded as sims/sec with speedup = multi/serial throughput. Every job
 * carries its host reference digest, so the speedup is only recorded as
 * equivalent when all results byte-match a standalone run.
 */

#include <chrono>
#include <string>
#include <vector>

#include "bench/support.hpp"
#include "common/host.hpp"
#include "runtime/ws_runtime.hpp"
#include "serve/server.hpp"
#include "serve/workloads.hpp"

namespace spmrt {
namespace {

/** The four trajectory workloads (quick mode shrinks them). */
std::vector<serve::FleetWorkload>
trajectoryWorkloads()
{
    return {
        {"fib", bench::scaled(17u, 11u), 0, 0.0},
        {"cilksort", bench::scaled(6000u, 800u), 900, 0.0},
        {"uts", bench::scaled(9u, 6u), 42, 2.2},
        {"nqueens", bench::scaled(8u, 6u), 0, 0.0},
    };
}

/** The two machine scales of the trajectory. */
MachineConfig
machineFor(uint32_t cores)
{
    if (cores == 128)
        return MachineConfig(); // the paper's 16x8 platform
    MachineConfig cfg;
    cfg.meshCols = 4;
    cfg.meshRows = 4;
    cfg.llcBanks = 8;
    cfg.llcSetsPerBank = 32;
    cfg.dramBytes = 128ull * 1024 * 1024;
    return cfg;
}

/** One measured execution. */
struct Sample
{
    uint64_t digest = 0;
    double wallMs = 0;
    uint64_t switches = 0;
    uint64_t syncPoints = 0;
    Cycles simCycles = 0;
};

/** One fleet batch at @p workers threads: sims/sec + all-verified. */
struct FleetSample
{
    uint32_t workers = 0;
    double simsPerSec = 0;
    double wallMs = 0;
    uint64_t jobs = 0;
    bool allOk = true;
};

FleetSample
measureFleet(uint32_t workers)
{
    const uint32_t fib_n = bench::scaled(14u, 11u);
    const uint32_t sort_n = bench::scaled(2000u, 800u);
    const uint32_t uts_depth = bench::scaled(7u, 6u);
    const uint32_t queens_n = bench::scaled(7u, 6u);

    serve::FleetConfig cfg;
    cfg.workers = workers;
    serve::FleetServer server(cfg);
    std::vector<serve::FleetServer::JobId> ids;
    for (uint64_t seed = 1; seed <= 3; ++seed) {
        std::vector<serve::FleetWorkload> mix = {
            {"fib", fib_n, 0, 0.0},
            {"cilksort", sort_n, 100 * seed, 0.0},
            {"uts", uts_depth, seed, 2.2},
            {"nqueens", queens_n, 0, 0.0},
        };
        for (const serve::FleetWorkload &spec : mix) {
            serve::JobRequest req = serve::makeWorkloadRequest(spec);
            req.machine = machineFor(16);
            req.scheduleSeed = seed; // distinct interleavings per seed
            req.armChecker = false;
            req.bypassCache = true; // every job must actually simulate
            ids.push_back(server.submit(std::move(req)));
        }
    }
    FleetSample sample;
    sample.workers = workers;
    for (serve::FleetServer::JobId id : ids)
        sample.allOk = sample.allOk &&
                       server.wait(id).status == serve::JobStatus::Ok;
    serve::FleetServer::Totals totals = server.totals();
    sample.simsPerSec = totals.simsPerSec;
    sample.wallMs = totals.wallMs;
    sample.jobs = totals.jobs;
    return sample;
}

// The runtime is built before prepare() uploads the input, so its
// allocations come first and the simulated timeline is the one every
// trajectory point recorded.
Sample
measureOnce(const serve::JobRequest &req, uint32_t cores, bool reference)
{
    Machine machine(machineFor(cores));
    machine.engine().setScheduler(reference ? SchedMode::Reference
                                            : SchedMode::Fast);
    Sample sample;
    uint64_t switches0 = machine.engine().switchCount();
    uint64_t syncs0 = machine.engine().syncPointCount();
    WorkStealingRuntime rt(machine, RuntimeConfig::full());
    serve::AssetCache assets;
    auto start = std::chrono::steady_clock::now();
    serve::PreparedJob prep = req.prepare(machine, assets);
    rt.run(prep.root);
    auto stop = std::chrono::steady_clock::now();
    sample.digest = prep.digest(machine);
    sample.wallMs =
        std::chrono::duration<double, std::milli>(stop - start).count();
    sample.simCycles = machine.engine().maxTime();
    sample.switches = machine.engine().switchCount() - switches0;
    sample.syncPoints = machine.engine().syncPointCount() - syncs0;
    return sample;
}

/** The fast and reference measurements of one workload at one scale. */
struct SamplePair
{
    Sample fast;
    Sample ref;
};

// Best-of-3: the gated quantity is the fast-vs-reference wall ratio, and
// a single timing on a shared CI runner can swing 30%+ from background
// load. The min across reps is the standard noise-robust estimator (load
// only ever adds time). The reps alternate fast, reference, fast, ... so
// host drift over the measurement hits both sides of the ratio alike.
// Every rep must reproduce the same digest, cycle count, and
// switch/syncPoint counts — a rep that diverges is a determinism bug,
// not noise, and fataling here beats gating on it.
SamplePair
measure(const serve::JobRequest &req, uint32_t cores)
{
    constexpr int kReps = 3;
    Sample best[2];
    for (int rep = 0; rep < kReps; ++rep) {
        for (bool reference : {false, true}) {
            Sample s = measureOnce(req, cores, reference);
            Sample &side = best[reference];
            if (rep == 0) {
                side = s;
                continue;
            }
            if (s.digest != side.digest || s.simCycles != side.simCycles ||
                s.switches != side.switches ||
                s.syncPoints != side.syncPoints)
                SPMRT_FATAL("host_perf: %s/%u %s rep %d diverged from rep "
                            "0 (digest %llx vs %llx)",
                            req.name.c_str(), cores,
                            reference ? "reference" : "fast", rep,
                            (unsigned long long)s.digest,
                            (unsigned long long)side.digest);
            if (s.wallMs < side.wallMs)
                side.wallMs = s.wallMs;
        }
    }
    return {best[0], best[1]};
}

} // namespace
} // namespace spmrt

int
main(int argc, char **argv)
{
    using namespace spmrt;
    bench::Report report("host_perf", argc, argv);
    // Recorded in every row: a wall-clock ratio (the fleet series'
    // multi-worker scaling above all) only means anything relative to
    // how many host cores the measuring machine had.
    const uint32_t host_cores = host::usableCores();

    for (const serve::FleetWorkload &workload : trajectoryWorkloads()) {
        const serve::JobRequest req = serve::makeWorkloadRequest(workload);
        for (uint32_t cores : {16u, 128u}) {
            if (!report.wants(
                    log::format("%s/%u", workload.kind.c_str(), cores)))
                continue;
            const auto [fast, ref] = measure(req, cores);
            // The speedup is only meaningful if it is a speedup into the
            // identical, correct simulation.
            bool ok = fast.digest == req.expectedDigest &&
                      ref.digest == req.expectedDigest &&
                      fast.simCycles == ref.simCycles &&
                      fast.switches == ref.switches;
            if (!ok)
                report.fail("%s at %u cores: the schedulers disagree or "
                            "miss the host reference digest",
                            req.name.c_str(), cores);
            report.row()
                .cell("workload", workload.kind)
                .cell("cores", cores)
                .cell("geometry", machineFor(cores).geometry())
                .cell("host_cores", host_cores)
                .cell("wall_ms", fast.wallMs)
                .cell("wall_ms_reference", ref.wallMs)
                .cell("speedup",
                      fast.wallMs > 0 ? ref.wallMs / fast.wallMs : 0.0)
                .cell("switches", fast.switches)
                .cell("syncpoints", fast.syncPoints)
                .cell("sim_cycles", fast.simCycles)
                .cell("equivalent", ok);
        }
    }

    // ---- Fleet batch-throughput series ---------------------------------
    if (report.wants("fleet")) {
        FleetSample serial = measureFleet(1);
        FleetSample multi = measureFleet(4);
        for (const FleetSample *sample : {&serial, &multi}) {
            report.row()
                .cell("workload", "fleet")
                .cell("cores", sample->workers)
                .cell("geometry", machineFor(16).geometry())
                .cell("series", "throughput")
                .cell("host_cores", host_cores)
                .cell("wall_ms", sample->wallMs)
                .cell("sims_per_sec", sample->simsPerSec)
                .cell("jobs", sample->jobs)
                .cell("speedup", serial.simsPerSec > 0
                                     ? sample->simsPerSec / serial.simsPerSec
                                     : 0.0)
                .cell("equivalent", sample->allOk);
            if (!sample->allOk)
                report.fail("fleet batch on %u workers: some jobs did not "
                            "verify against their host references",
                            sample->workers);
        }
        report.comment("fleet: %.2f sims/sec serial, %.2f sims/sec on 4 "
                       "workers",
                       serial.simsPerSec, multi.simsPerSec);
    }
    return report.finish();
}
