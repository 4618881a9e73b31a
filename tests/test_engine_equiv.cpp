/**
 * @file
 * Scheduler equivalence suite: the winner-tree fast scheduler vs. the
 * linear-scan reference oracle.
 *
 * Both modes run the engine's one dispatch path; the oracle only answers
 * the ready-set queries (the argmin, the other runnable cores' minimum
 * clock, the perturbation window's candidates) by a fresh scan of the
 * core slots. The engine contract is that the tree and its cache change
 * *host* cost only: same deterministic argmin with lowest-id tie-break,
 * same RNG consumption under perturbation. So for every workload and
 * scheduling regime — strict, seed-perturbed, and fault-injected — the
 * two modes must produce byte-identical results, identical final cycle
 * counts, and identical context-switch counts, with the concurrency
 * checker armed and reporting zero violations on both. Any drift here
 * means the fast scheduler is not a pure optimization and invalidates
 * every recorded experiment.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <string>
#include <vector>

#include "runtime/ws_runtime.hpp"
#include "sim/checker.hpp"
#include "sim/fault.hpp"
#include "workloads/cilksort.hpp"
#include "workloads/fib.hpp"
#include "workloads/nqueens.hpp"
#include "workloads/uts.hpp"

namespace spmrt {
namespace {

using namespace spmrt::workloads;

constexpr Cycles kWindow = 8; ///< perturbation admission window

/** Scheduling regime of one equivalence run. */
struct Regime
{
    const char *name;
    bool perturb = false;
    uint64_t schedSeed = 0;
    bool fault = false;
    uint64_t faultSeed = 0;
};

std::vector<Regime>
makeRegimes()
{
    std::vector<Regime> regimes;
    regimes.push_back({"strict", false, 0, false, 0});
    for (uint64_t seed = 1; seed <= 4; ++seed)
        regimes.push_back({"perturbed", true, seed, false, 0});
    regimes.push_back({"faulted", false, 0, true, 5});
    regimes.push_back({"perturbed+faulted", true, 2, true, 9});
    return regimes;
}

/** The oracle when @p reference, else the fast scheduler. */
SchedMode
schedFor(bool reference)
{
    return reference ? SchedMode::Reference : SchedMode::Fast;
}

/** Everything the two schedulers must agree on. */
struct Outcome
{
    uint64_t digest = 0;
    Cycles cycles = 0;
    uint64_t switches = 0;
    uint64_t syncPoints = 0;
    uint64_t compiledTraversals = 0;
    uint64_t walkedTraversals = 0;
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

/**
 * Run @p workload once under @p regime on the chosen scheduler, on an
 * arbitrary machine geometry. @p compiled_routes additionally toggles
 * the NoC's compiled route tables, so the memory fast paths can be
 * crossed against the uncached per-hop reference walk.
 */
Outcome
runOnceOn(const MachineConfig &cfg, const Workload &workload,
          const Regime &regime, bool reference, bool compiled_routes = true)
{
    Machine machine(cfg);
    machine.engine().setScheduler(schedFor(reference));
    machine.mem().noc().setCompiledRoutes(compiled_routes);
    ConcurrencyChecker *ck = machine.armChecker();
    if (regime.perturb)
        machine.engine().perturbSchedule(regime.schedSeed, kWindow);
    FaultPlan plan;
    if (regime.fault) {
        plan = FaultPlan::chaos(regime.faultSeed, machine.config());
        machine.setFaultPlan(&plan);
    }

    Outcome out;
    Cycles start = machine.engine().maxTime();
    uint64_t switches0 = machine.engine().switchCount();
    uint64_t syncs0 = machine.engine().syncPointCount();
    WorkStealingRuntime rt(machine, RuntimeConfig::full());
    out.digest = workload.run(machine, rt);
    out.cycles = machine.engine().maxTime() - start;
    out.switches = machine.engine().switchCount() - switches0;
    out.syncPoints = machine.engine().syncPointCount() - syncs0;
    out.compiledTraversals = machine.mem().noc().compiledTraversals();
    out.walkedTraversals = machine.mem().noc().walkedTraversals();
    machine.setFaultPlan(nullptr);
    if (ck != nullptr) {
        out.violations = ck->violations().size();
        out.report = ck->report();
    }
    return out;
}

/** The historical single-geometry entry point: runs on tiny(). */
Outcome
runOnce(const Workload &workload, const Regime &regime, bool reference,
        bool compiled_routes = true)
{
    return runOnceOn(MachineConfig::tiny(), workload, regime, reference,
                     compiled_routes);
}

class SchedulerEquivalence : public ::testing::TestWithParam<size_t>
{
};

TEST_P(SchedulerEquivalence, FastMatchesReferenceBitForBit)
{
    const Workload workload = makeWorkloads()[GetParam()];
    SCOPED_TRACE(workload.name);

    for (const Regime &regime : makeRegimes()) {
        SCOPED_TRACE(regime.name);
        Outcome fast = runOnce(workload, regime, false);
        Outcome oracle = runOnce(workload, regime, true);

        EXPECT_EQ(fast.digest, workload.reference)
            << regime.name << ": fast scheduler computed a wrong result";
        EXPECT_EQ(fast.digest, oracle.digest)
            << regime.name << ": result diverged between schedulers";
        EXPECT_EQ(fast.cycles, oracle.cycles)
            << regime.name << ": simulated cycle counts diverged";
        EXPECT_EQ(fast.switches, oracle.switches)
            << regime.name << ": context-switch counts diverged";
        EXPECT_EQ(fast.syncPoints, oracle.syncPoints)
            << regime.name << ": syncPoint counts diverged";
        EXPECT_EQ(fast.violations, 0u)
            << regime.name << " (fast):\n" << fast.report;
        EXPECT_EQ(oracle.violations, 0u)
            << regime.name << " (reference):\n" << oracle.report;
    }
}

std::string
workloadName(const ::testing::TestParamInfo<size_t> &info)
{
    static const char *const names[] = {"fib", "cilksort", "uts", "nqueens"};
    return names[info.param];
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, SchedulerEquivalence,
                         ::testing::Range<size_t>(0, 4), workloadName);

// ---- Free machine geometry: equivalence off the paper floorplan ----------

/**
 * A machine the paper never built: Y-ruched, single-edge LLC, dual
 * DRAM channel. Nothing in the engine-equivalence contract is allowed
 * to depend on the floorplan, so this leg crosses the fast scheduler
 * against the reference oracle on such a machine, checker armed.
 */
MachineConfig
offPaperConfig()
{
    MachineConfig cfg = MachineConfig::small(); // 8x4, 32 cores
    cfg.rucheY = 2;
    cfg.dramChannels = 2;
    cfg.llcPlacement = LlcPlacement::Top;
    cfg.validate();
    return cfg;
}

TEST(GeometryEquivalence, OffPaperMachineMatchesSequentialBitForBit)
{
    const MachineConfig cfg = offPaperConfig();
    const std::vector<Workload> workloads = makeWorkloads();
    const Regime regimes[] = {
        {"strict", false, 0, false, 0},
        {"faulted", false, 0, true, 5},
    };
    for (size_t wi : {size_t{0}, size_t{1}}) { // fib, cilksort
        const Workload &workload = workloads[wi];
        SCOPED_TRACE(workload.name);
        for (const Regime &regime : regimes) {
            SCOPED_TRACE(regime.name);
            Outcome fast = runOnceOn(cfg, workload, regime, false);
            Outcome oracle = runOnceOn(cfg, workload, regime, true);
            EXPECT_EQ(fast.digest, workload.reference)
                << "fast run computed a wrong result off-paper";
            EXPECT_EQ(fast.digest, oracle.digest)
                << "result diverged off the paper floorplan";
            EXPECT_EQ(fast.cycles, oracle.cycles)
                << "cycle counts diverged off the paper floorplan";
            EXPECT_EQ(fast.switches, oracle.switches);
            EXPECT_EQ(fast.syncPoints, oracle.syncPoints);
            EXPECT_EQ(fast.violations, 0u) << fast.report;
            EXPECT_EQ(oracle.violations, 0u) << oracle.report;
        }
    }
}

/**
 * The scale gate: on the 32x32 four-channel big1024() preset every
 * equivalence workload must compute the host reference result with the
 * checker armed and silent. A 1024-core machine is where a route table
 * compiled for the 16x8 floorplan, or an id field too narrow for the
 * packed scheduling key, actually breaks.
 */
TEST(GeometryEquivalence, Big1024FastMatchesHostReference)
{
    const MachineConfig cfg = MachineConfig::big1024();
    const Regime strict{"strict", false, 0, false, 0};
    for (const Workload &workload : makeWorkloads()) {
        SCOPED_TRACE(workload.name);
        Outcome fast = runOnceOn(cfg, workload, strict, false);
        EXPECT_EQ(fast.digest, workload.reference)
            << "fast run computed a wrong result on big1024";
        EXPECT_EQ(fast.violations, 0u) << fast.report;
    }
}

// ---- Memory fast paths vs. the fully-uncached reference ------------------

/**
 * Cross the memory hot paths against their reference implementations:
 * fast scheduler + compiled route tables vs. reference scheduler +
 * uncached per-hop walk. Every digest, cycle count, and switch/syncPoint
 * count must match, with the checker armed and silent — proving the
 * local-SPM fast path, burst accounting, and route tables are pure host
 * optimizations in combination, not just individually.
 */
TEST(SchedulerEquivalence, MemoryFastPathsMatchUncachedReference)
{
    const std::vector<Workload> workloads = makeWorkloads();
    const Regime regimes[] = {
        {"strict", false, 0, false, 0},
        {"perturbed", true, 3, false, 0},
        {"faulted", false, 0, true, 7},
    };
    for (const Workload &workload : workloads) {
        SCOPED_TRACE(workload.name);
        for (const Regime &regime : regimes) {
            SCOPED_TRACE(regime.name);
            Outcome fast = runOnce(workload, regime, false, true);
            Outcome oracle = runOnce(workload, regime, true, false);

            EXPECT_EQ(fast.digest, workload.reference);
            EXPECT_EQ(fast.digest, oracle.digest);
            EXPECT_EQ(fast.cycles, oracle.cycles);
            EXPECT_EQ(fast.switches, oracle.switches);
            EXPECT_EQ(fast.syncPoints, oracle.syncPoints);
            EXPECT_EQ(oracle.compiledTraversals, 0u)
                << "reference run must not use compiled routes";
            EXPECT_EQ(fast.violations, 0u) << fast.report;
            EXPECT_EQ(oracle.violations, 0u) << oracle.report;
        }
    }
}

/**
 * The route-table fallback must provably engage whenever the fault plan
 * carries link-delay windows, and re-engage the compiled tables when it
 * does not.
 */
TEST(SchedulerEquivalence, RouteFallbackEngagesDuringFaultWindows)
{
    const Workload workload = makeWorkloads()[0]; // fib

    FaultPlan probe = FaultPlan::chaos(5, MachineConfig::tiny());
    ASSERT_TRUE(probe.hasLinkDelays())
        << "chaos seed 5 must include link-delay windows for this test";

    Outcome faulted = runOnce(workload, {"faulted", false, 0, true, 5},
                              false, true);
    EXPECT_EQ(faulted.compiledTraversals, 0u)
        << "a plan with link windows must force the per-hop walk";
    EXPECT_GT(faulted.walkedTraversals, 0u);

    Outcome strict = runOnce(workload, {"strict", false, 0, false, 0},
                             false, true);
    EXPECT_EQ(strict.walkedTraversals, 0u)
        << "without link windows every packet takes the compiled tables";
    EXPECT_GT(strict.compiledTraversals, 0u);
}

// ---- Engine-level equivalence of the primitive operations ----------------

/** Drive raw engine primitives and compare the two schedulers' traces. */
struct EngineTrace
{
    std::vector<std::pair<CoreId, Cycles>> order;
    uint64_t switches = 0;
    Cycles maxTime = 0;
};

/**
 * Core counts for the primitive-level legs: a lone core, counts that
 * leave the ready tree's power-of-two leaves partly empty (3, 5, 17,
 * 129), and the paper's 128.
 */
constexpr uint32_t kCoreCounts[] = {1, 3, 5, 17, 128, 129};

/** Perturbation seeds for the primitive-level legs; 0 means strict. */
constexpr uint64_t kPerturbSeeds[] = {0, 1, 2, 3};

EngineTrace
interleaveTrace(bool reference, uint32_t cores, uint64_t perturb_seed)
{
    Engine engine(cores, 64 * 1024);
    engine.setScheduler(schedFor(reference));
    if (perturb_seed != 0)
        engine.perturbSchedule(perturb_seed, 4);
    EngineTrace trace;
    for (CoreId i = 0; i < cores; ++i) {
        engine.setBody(i, [&engine, &trace, i] {
            for (int k = 0; k < 20; ++k) {
                engine.advance(i, 3 + (i * 7 + k) % 5);
                engine.syncPoint(i);
                trace.order.emplace_back(i, engine.time(i));
            }
        });
    }
    engine.run();
    trace.switches = engine.switchCount();
    trace.maxTime = engine.maxTime();
    return trace;
}

TEST(SchedulerEquivalence, PrimitiveInterleavingsMatch)
{
    for (uint32_t cores : kCoreCounts) {
        for (uint64_t seed : kPerturbSeeds) {
            SCOPED_TRACE(::testing::Message()
                         << cores << " cores, seed " << seed);
            EngineTrace fast = interleaveTrace(false, cores, seed);
            EngineTrace oracle = interleaveTrace(true, cores, seed);
            EXPECT_EQ(fast.order, oracle.order);
            EXPECT_EQ(fast.switches, oracle.switches);
            EXPECT_EQ(fast.maxTime, oracle.maxTime);
        }
    }
}

/**
 * Even cores below the last park at time 0; the last core advances past
 * them and then wakes each at a later time, after which everyone
 * interleaves. Exercises ready-tree erase/insert and the cached
 * other-min fold on unblock. With one core nothing parks.
 */
EngineTrace
blockUnblockTrace(bool reference, uint32_t cores, uint64_t perturb_seed)
{
    Engine engine(cores, 64 * 1024);
    engine.setScheduler(schedFor(reference));
    if (perturb_seed != 0)
        engine.perturbSchedule(perturb_seed, 4);
    EngineTrace trace;
    const CoreId waker = cores - 1;
    for (CoreId i = 0; i < cores; ++i) {
        const bool parks = i != waker && i % 2 == 0;
        engine.setBody(i, [&engine, &trace, i, parks, waker] {
            if (parks)
                engine.block(i);
            for (int k = 0; k < 10; ++k) {
                engine.advance(i, i == waker ? 5 : 2 + i % 3);
                engine.syncPoint(i);
                trace.order.emplace_back(i, engine.time(i));
            }
            if (i == waker) {
                for (CoreId j = 0; j < waker; j += 2)
                    engine.unblock(j, 17 + j);
            }
        });
    }
    engine.run();
    trace.switches = engine.switchCount();
    trace.maxTime = engine.maxTime();
    return trace;
}

TEST(SchedulerEquivalence, BlockUnblockMatches)
{
    for (uint32_t cores : kCoreCounts) {
        for (uint64_t seed : kPerturbSeeds) {
            SCOPED_TRACE(::testing::Message()
                         << cores << " cores, seed " << seed);
            EngineTrace fast = blockUnblockTrace(false, cores, seed);
            EngineTrace oracle = blockUnblockTrace(true, cores, seed);
            EXPECT_EQ(fast.order, oracle.order);
            EXPECT_EQ(fast.switches, oracle.switches);
            EXPECT_EQ(fast.maxTime, oracle.maxTime);
        }
    }
    // Two cores, strict: core 1 ends at 50 and wakes core 0 at 17, which
    // then finishes at 37.
    EXPECT_EQ(blockUnblockTrace(false, 2, 0).maxTime, 50u);
}

TEST(SchedulerEquivalence, MaxTimeIsLiveDuringARun)
{
    // maxTime() is O(1) via the high-water mark; it must still be exact
    // when sampled from inside guest code, where the running core can be
    // ahead of every fold point.
    Engine engine(2, 64 * 1024);
    Cycles sampled = 0;
    engine.setBody(0, [&engine, &sampled] {
        engine.advance(0, 100);
        sampled = engine.maxTime();
        engine.syncPoint(0);
    });
    engine.setBody(1, [&engine] {
        engine.advance(1, 40);
        engine.syncPoint(1);
    });
    engine.run();
    EXPECT_EQ(sampled, 100u);
    EXPECT_EQ(engine.maxTime(), 100u);
}

TEST(SchedulerEquivalence, SchedulerSelectionIsExplicit)
{
    Engine engine(1, 64 * 1024);
    const SchedMode initial = engine.scheduler();
    const SchedMode other = initial == SchedMode::Reference
                                ? SchedMode::Fast
                                : SchedMode::Reference;
    engine.setScheduler(other);
    EXPECT_EQ(engine.scheduler(), other);
    engine.setScheduler(initial);
    EXPECT_EQ(engine.scheduler(), initial);
}

// The suite name dates from when the engine also had host-parallel
// scheduling modes; the property it pins is unchanged.
TEST(ShardEngine, ReusableAcrossModeChanges)
{
    // One engine, alternating fast and reference runs: coroutine stacks
    // parked under one scheduler must resume correctly under the other,
    // and clocks persist across runs in every mode.
    Engine engine(4, 64 * 1024);
    int counters[4] = {0, 0, 0, 0};
    auto arm = [&] {
        for (CoreId i = 0; i < 4; ++i)
            engine.setBody(i, [&engine, &counters, i] {
                engine.advance(i, 10);
                engine.syncPoint(i);
                ++counters[i];
            });
    };
    const SchedMode runs[] = {SchedMode::Fast, SchedMode::Reference,
                              SchedMode::Reference, SchedMode::Fast,
                              SchedMode::Reference};
    for (SchedMode mode : runs) {
        engine.setScheduler(mode);
        arm();
        engine.run();
    }
    for (CoreId i = 0; i < 4; ++i) {
        EXPECT_EQ(counters[i], 5) << "core " << i;
        EXPECT_EQ(engine.time(i), 50u) << "core " << i;
    }
}

} // namespace
} // namespace spmrt
