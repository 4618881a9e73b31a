/**
 * @file
 * Schedule-exploration sweep: the work-stealing protocol under seeded
 * perturbation of the engine's ready-core order, with the concurrency
 * checker armed.
 *
 * Each schedule seed is one alternative — fully reproducible —
 * interleaving of the same program: lock races resolve differently,
 * thieves hit different victims, queue occupancy histories diverge. The
 * protocol's correctness claim is that none of this is observable:
 *
 *  - the checker reports zero violations on every interleaving;
 *  - every interleaving computes the reference result;
 *  - the same seed replays to the exact cycle (determinism);
 *  - different seeds genuinely produce different interleavings
 *    (otherwise the sweep tests nothing);
 *  - arming the checker changes no cycle count (it is an observer).
 *
 * The per-seed sweep runs through the FleetServer: each seed is one
 * supervised job (checker armed, expected digest = host reference), and
 * the replay leg is the server's cache validation — a bypassCache
 * recompute that disagrees on digest or cycles reports digest_mismatch,
 * so an Ok status certifies deterministic replay.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <set>
#include <string>
#include <vector>

#include "runtime/ws_runtime.hpp"
#include "serve/server.hpp"
#include "serve/workloads.hpp"
#include "sim/checker.hpp"
#include "workloads/cilksort.hpp"
#include "workloads/fib.hpp"
#include "workloads/nqueens.hpp"
#include "workloads/uts.hpp"

namespace spmrt {
namespace {

using namespace spmrt::workloads;

constexpr uint64_t kNumSeeds = 16;
constexpr Cycles kWindow = 8; ///< admission window around the min clock

/** Outcome of one timed run. */
struct Outcome
{
    uint64_t digest = 0; ///< workload result, order-independent
    Cycles cycles = 0;
    size_t violations = 0;
    std::string report;
};

/** FNV-1a over a result vector, so array outputs digest to one word. */
template <typename T>
uint64_t
fnvDigest(const std::vector<T> &values)
{
    uint64_t h = 0xcbf29ce484222325ULL;
    for (const T &v : values) {
        h ^= static_cast<uint64_t>(v);
        h *= 0x100000001b3ULL;
    }
    return h;
}

/** One workload: reference digest + a run returning digest. */
struct Workload
{
    const char *name;
    uint64_t reference;
    std::function<uint64_t(Machine &, WorkStealingRuntime &)> run;
};

std::vector<Workload>
makeWorkloads()
{
    std::vector<Workload> w;

    w.push_back({"fib", static_cast<uint64_t>(fibReference(12)),
                 [](Machine &machine, WorkStealingRuntime &rt) {
                     Addr out = machine.dramAlloc(8, 8);
                     rt.run([&](TaskContext &tc) { fibKernel(tc, 12, out); });
                     return static_cast<uint64_t>(
                         machine.mem().peekAs<int64_t>(out));
                 }});

    {
        // Host-side reference sort for the digest.
        constexpr uint32_t kN = 400;
        constexpr uint64_t kDataSeed = 900;
        Machine ref_machine(MachineConfig::tiny());
        CilkSortData ref = cilksortSetup(ref_machine, kN, kDataSeed);
        std::vector<uint32_t> sorted =
            downloadArray<uint32_t>(ref_machine, ref.data, kN);
        std::sort(sorted.begin(), sorted.end());
        w.push_back({"cilksort", fnvDigest(sorted),
                     [](Machine &machine, WorkStealingRuntime &rt) {
                         CilkSortData data =
                             cilksortSetup(machine, kN, kDataSeed);
                         rt.run([&](TaskContext &tc) {
                             cilksortKernel(tc, data);
                         });
                         return fnvDigest(downloadArray<uint32_t>(
                             machine, data.data, kN));
                     }});
    }

    {
        UtsParams params = UtsParams::geometric(7, 2.2, 42);
        w.push_back({"uts", utsReference(params),
                     [params](Machine &machine, WorkStealingRuntime &rt) {
                         UtsData data = utsSetup(machine, params);
                         rt.run([&](TaskContext &tc) {
                             utsKernel(tc, data);
                         });
                         return utsResult(machine, data);
                     }});
    }

    w.push_back({"nqueens", nqueensReference(6),
                 [](Machine &machine, WorkStealingRuntime &rt) {
                     NQueensData data = nqueensSetup(machine, 6);
                     rt.run([&](TaskContext &tc) {
                         nqueensKernel(tc, data);
                     });
                     return nqueensResult(machine, data);
                 }});

    return w;
}

/** Run @p workload once; optionally perturbed, optionally checked. */
Outcome
runOnce(const Workload &workload, bool perturb, uint64_t sched_seed,
        bool armed)
{
    Machine machine(MachineConfig::tiny());
    ConcurrencyChecker *ck = armed ? machine.armChecker() : nullptr;
    if (perturb)
        machine.engine().perturbSchedule(sched_seed, kWindow);

    Outcome out;
    Cycles start = machine.engine().maxTime();
    WorkStealingRuntime rt(machine, RuntimeConfig::full());
    out.digest = workload.run(machine, rt);
    out.cycles = machine.engine().maxTime() - start;
    if (ck != nullptr) {
        out.violations = ck->violations().size();
        out.report = ck->report();
    }
    return out;
}

class ScheduleSweep : public ::testing::TestWithParam<size_t>
{
};

TEST_P(ScheduleSweep, SeededPerturbationIsCleanAndDeterministic)
{
    static const serve::FleetWorkload kSpecs[] = {
        {"fib", 12, 0, 0.0},
        {"cilksort", 400, 900, 0.0},
        {"uts", 7, 42, 2.2},
        {"nqueens", 6, 0, 0.0},
    };
    const serve::FleetWorkload spec = kSpecs[GetParam()];
    SCOPED_TRACE(spec.kind);

    serve::FleetConfig fcfg;
    fcfg.workers = 2;
    serve::FleetServer server(fcfg);
    std::set<Cycles> distinct_cycles;
    for (uint64_t seed = 1; seed <= kNumSeeds; ++seed) {
        serve::JobRequest req = serve::makeWorkloadRequest(spec);
        req.scheduleSeed = seed;
        req.scheduleWindow = kWindow;
        serve::JobReport a = server.wait(server.submit(std::move(req)));
        // Ok subsumes the old assertions: a race would come back as
        // checker_violation, a wrong result as digest_mismatch.
        EXPECT_EQ(a.status, serve::JobStatus::Ok)
            << spec.kind << " seed " << seed << ": " << a.error << "\n"
            << a.dump;

        // The same seed must replay bit-identically, to the cycle: the
        // bypassCache recompute is validated against the cached run.
        serve::JobRequest again = serve::makeWorkloadRequest(spec);
        again.scheduleSeed = seed;
        again.scheduleWindow = kWindow;
        again.bypassCache = true;
        serve::JobReport b = server.wait(server.submit(std::move(again)));
        EXPECT_EQ(b.status, serve::JobStatus::Ok)
            << spec.kind << " is nondeterministic under seed " << seed
            << ": " << b.error;
        EXPECT_EQ(b.cycles, a.cycles);
        distinct_cycles.insert(a.cycles);
    }

    // The sweep must actually explore: if every seed produced the same
    // cycle count, the perturbation is a no-op and the 16 "schedules"
    // were one schedule.
    EXPECT_GE(distinct_cycles.size(), 2u)
        << spec.kind
        << ": all schedule seeds collapsed to one interleaving";
}

std::string
workloadName(const ::testing::TestParamInfo<size_t> &info)
{
    static const char *const names[] = {"fib", "cilksort", "uts", "nqueens"};
    return names[info.param];
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, ScheduleSweep,
                         ::testing::Range<size_t>(0, 4), workloadName);

TEST(ScheduleSweep, UnperturbedRunIsCleanToo)
{
    for (const Workload &workload : makeWorkloads()) {
        Outcome out = runOnce(workload, false, 0, true);
        EXPECT_EQ(out.violations, 0u)
            << workload.name << ":\n" << out.report;
        EXPECT_EQ(out.digest, workload.reference) << workload.name;
    }
}

TEST(ScheduleSweep, ArmingTheCheckerChangesNoCycle)
{
    // The checker is a pure observer: with it armed and disarmed the
    // same program must take exactly the same number of cycles.
    for (const Workload &workload : makeWorkloads()) {
        Outcome armed = runOnce(workload, false, 0, true);
        Outcome bare = runOnce(workload, false, 0, false);
        EXPECT_EQ(armed.cycles, bare.cycles)
            << workload.name << ": arming the checker perturbed timing";
        EXPECT_EQ(armed.digest, bare.digest) << workload.name;

        // Same under a perturbed schedule (same seed, armed vs not).
        Outcome armed_p = runOnce(workload, true, 3, true);
        Outcome bare_p = runOnce(workload, true, 3, false);
        EXPECT_EQ(armed_p.cycles, bare_p.cycles)
            << workload.name
            << ": checker perturbed a perturbed schedule";
        EXPECT_EQ(armed_p.digest, bare_p.digest) << workload.name;
    }
}

TEST(SchedulePerturbation, WindowRelaxedSyncPointStillTerminatesAlone)
{
    // A machine where only one core has a body: otherReadyMin() is the
    // "alone" sentinel; the window-relaxed bound must not overflow it.
    Machine machine(MachineConfig::tiny());
    machine.engine().perturbSchedule(99, 1000);
    Addr scratch = machine.dramAlloc(8, 8);
    std::vector<std::function<void(Core &)>> bodies(machine.numCores());
    bodies[0] = [scratch](Core &core) {
        for (int i = 0; i < 64; ++i)
            core.store<uint32_t>(scratch, i);
        core.fence();
    };
    for (CoreId i = 1; i < machine.numCores(); ++i)
        bodies[i] = [](Core &) {};
    machine.runPerCore(bodies);
    EXPECT_EQ(machine.mem().peekAs<uint32_t>(scratch), 63u);
}

} // namespace
} // namespace spmrt
