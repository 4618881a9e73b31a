/**
 * @file
 * Telemetry subsystem tests.
 *
 * The load-bearing property is cycle-neutrality: arming the tracer and
 * stat registry must not change the simulation. Fib, CilkSort, and UTS
 * are run twice — telemetry off and armed — and compared bit-identically
 * on result digest, final simulated time, context switches, and sync
 * points. The rest checks the trace-event schema (per-track monotonic
 * timestamps, balanced begin/end nesting), heatmap geometry against the
 * mesh, StatRegistry snapshots against the live counters, and the
 * tracer's bounded-buffer drop accounting.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "common/env.hpp"
#include "obs/telemetry.hpp"
#include "runtime/ws_runtime.hpp"
#include "workloads/cilksort.hpp"
#include "workloads/fib.hpp"
#include "workloads/uts.hpp"

namespace spmrt {
namespace {

using namespace spmrt::workloads;

/** Everything that must be identical between armed and off runs. */
struct RunCapture
{
    uint64_t digest = 0;
    Cycles maxTime = 0;
    uint64_t switches = 0;
    uint64_t syncPoints = 0;
};

uint64_t
fnv1a(const std::vector<uint32_t> &values)
{
    uint64_t hash = 1469598103934665603ull;
    for (uint32_t value : values) {
        hash ^= value;
        hash *= 1099511628211ull;
    }
    return hash;
}

/** Run one of the three reference workloads, optionally with telemetry. */
RunCapture
runWorkload(const std::string &name, bool armed,
            const MachineConfig &cfg = MachineConfig::tiny())
{
    Machine machine(cfg);
    if (armed)
        machine.armTelemetry();
    WorkStealingRuntime rt(machine, RuntimeConfig::full());
    RunCapture capture;
    if (name == "fib") {
        Addr out = machine.dramAlloc(8, 8);
        rt.run([&](TaskContext &tc) { fibKernel(tc, 11, out); });
        capture.digest =
            static_cast<uint64_t>(machine.mem().peekAs<int64_t>(out));
    } else if (name == "cilksort") {
        CilkSortData data = cilksortSetup(machine, 600, 900);
        rt.run([&](TaskContext &tc) { cilksortKernel(tc, data); });
        capture.digest = fnv1a(
            downloadArray<uint32_t>(machine, data.data, data.n));
    } else {
        UtsParams params = UtsParams::geometric(6, 2.2, 42);
        UtsData data = utsSetup(machine, params);
        rt.run([&](TaskContext &tc) { utsKernel(tc, data); });
        capture.digest = utsResult(machine, data);
    }
    capture.maxTime = machine.engine().maxTime();
    capture.switches = machine.engine().switchCount();
    capture.syncPoints = machine.engine().syncPointCount();
    return capture;
}

TEST(TelemetryNeutrality, ArmedRunsBitIdenticalToOff)
{
    for (const char *workload : {"fib", "cilksort", "uts"}) {
        RunCapture off = runWorkload(workload, false);
        RunCapture armed = runWorkload(workload, true);
        EXPECT_EQ(off.digest, armed.digest) << workload;
        EXPECT_EQ(off.maxTime, armed.maxTime) << workload;
        EXPECT_EQ(off.switches, armed.switches) << workload;
        EXPECT_EQ(off.syncPoints, armed.syncPoints) << workload;
    }
}

TEST(TelemetryNeutrality, ReferenceSchedulerAlsoUnperturbed)
{
    auto run = [](bool armed) {
        Machine machine(MachineConfig::tiny());
        machine.engine().setScheduler(SchedMode::Reference);
        if (armed)
            machine.armTelemetry();
        WorkStealingRuntime rt(machine, RuntimeConfig::full());
        Addr out = machine.dramAlloc(8, 8);
        rt.run([&](TaskContext &tc) { fibKernel(tc, 10, out); });
        return std::make_tuple(machine.mem().peekAs<int64_t>(out),
                               machine.engine().maxTime(),
                               machine.engine().switchCount());
    };
    EXPECT_EQ(run(false), run(true));
}

#if SPMRT_TELEMETRY_ENABLED

/** A 16-core machine, the acceptance scenario for Perfetto traces. */
MachineConfig
sixteenCores()
{
    MachineConfig cfg;
    cfg.meshCols = 4;
    cfg.meshRows = 4;
    cfg.llcBanks = 8;
    cfg.llcSetsPerBank = 32;
    cfg.dramBytes = 128ull * 1024 * 1024;
    return cfg;
}

TEST(TraceSchema, CilkSortTimelineWellFormed)
{
    Machine machine(sixteenCores());
    obs::Telemetry *telemetry = machine.armTelemetry();
    ASSERT_NE(telemetry, nullptr);
    uint64_t switches_at_arm = machine.engine().switchCount();

    WorkStealingRuntime rt(machine, RuntimeConfig::full());
    CilkSortData data = cilksortSetup(machine, 800, 7);
    rt.run([&](TaskContext &tc) { cilksortKernel(tc, data); });

    const std::vector<obs::TraceEvent> &events =
        telemetry->tracer.events();
    ASSERT_FALSE(events.empty());
    EXPECT_EQ(telemetry->tracer.dropped(), 0u);

    // Per-track timestamps must be monotonic in emission order for
    // B/E/i events (X spans on the fault track are plan-install-time
    // and exempt), and begin/end must nest with matching names.
    std::map<uint32_t, Cycles> last_ts;
    std::map<uint32_t, std::vector<const char *>> open;
    uint64_t switch_events = 0;
    for (const obs::TraceEvent &event : events) {
        ASSERT_NE(event.name, nullptr);
        if (event.phase == 'X')
            continue;
        auto it = last_ts.find(event.track);
        if (it != last_ts.end()) {
            EXPECT_GE(event.ts, it->second)
                << "track " << event.track << " event " << event.name;
        }
        last_ts[event.track] = event.ts;
        if (event.phase == 'B') {
            open[event.track].push_back(event.name);
        } else if (event.phase == 'E') {
            ASSERT_FALSE(open[event.track].empty())
                << "unbalanced end on track " << event.track;
            EXPECT_STREQ(open[event.track].back(), event.name);
            open[event.track].pop_back();
        }
        if (event.category == obs::kTraceSwitch)
            ++switch_events;
        EXPECT_LT(event.track, machine.config().numCores());
    }
    for (const auto &[track, stack] : open)
        EXPECT_TRUE(stack.empty()) << "unclosed begin on track " << track;

    // One switch instant per dispatch since arming.
    EXPECT_EQ(switch_events,
              machine.engine().switchCount() - switches_at_arm);

    // The serialized form is one JSON object per event plus metadata.
    std::string json = telemetry->tracer.chromeJson();
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("\"spmrt-trace-v1\""), std::string::npos);
    EXPECT_NE(json.find("thread_name"), std::string::npos);

    // CI's trace-smoke job points SPMRT_TRACE_OUT at a scratch path and
    // validates the file with tools/check_trace.py.
    std::string out = env::stringValue("SPMRT_TRACE_OUT");
    if (!out.empty())
        telemetry->tracer.writeChromeJson(out.c_str());
}

TEST(TraceSchema, FaultWindowsLandOnFaultTrack)
{
    Machine machine(MachineConfig::tiny());
    obs::Telemetry *telemetry = machine.armTelemetry();
    ASSERT_NE(telemetry, nullptr);
    FaultPlan plan;
    plan.stallCore(1, 100, 2000, 7);
    machine.setFaultPlan(&plan);

    bool saw_window = false;
    for (const obs::TraceEvent &event : telemetry->tracer.events()) {
        if (event.phase != 'X')
            continue;
        saw_window = true;
        EXPECT_EQ(event.track, obs::kTraceFaultTrack);
        EXPECT_STREQ(event.name, "core_stall");
        EXPECT_EQ(event.ts, 100u);
        EXPECT_EQ(event.dur, 1900u);
    }
    EXPECT_TRUE(saw_window);
    machine.setFaultPlan(nullptr);
}

TEST(Heatmaps, GeometryMatchesMesh)
{
    MachineConfig cfg = sixteenCores();
    Machine machine(cfg);
    machine.armTelemetry();
    WorkStealingRuntime rt(machine, RuntimeConfig::full());
    CilkSortData data = cilksortSetup(machine, 400, 3);
    rt.run([&](TaskContext &tc) { cilksortKernel(tc, data); });

    const MeshNoc &noc = machine.mem().noc();
    obs::Heatmap links = noc.linkHeatmap();
    EXPECT_EQ(links.labels.size(), noc.numLinks());
    EXPECT_EQ(links.rows.size(), noc.numLinks());
    uint64_t flits = 0;
    for (size_t i = 0; i < noc.numLinks(); ++i) {
        uint32_t x = 0, y = 0, dir = 0;
        noc.linkCoords(i, x, y, dir);
        EXPECT_LT(x, cfg.meshCols);
        EXPECT_LT(y, cfg.meshRows);
        EXPECT_LT(dir, 8u); // E/W/N/S + ruche X and Y expresses
        ASSERT_EQ(links.rows[i].size(), links.columns.size());
        EXPECT_EQ(links.rows[i][0], x);
        EXPECT_EQ(links.rows[i][1], y);
        EXPECT_EQ(links.rows[i][2], dir);
        flits += links.rows[i][3];
    }
    EXPECT_GT(flits, 0u) << "a cilksort run must move NoC traffic";

    const LlcModel &llc = machine.mem().llc();
    obs::Heatmap banks = llc.bankHeatmap();
    EXPECT_EQ(banks.rows.size(), llc.numBanks());
    uint64_t accesses = 0;
    for (const std::vector<uint64_t> &row : banks.rows) {
        ASSERT_EQ(row.size(), banks.columns.size());
        accesses += row[0];
        EXPECT_EQ(row[0], row[1] + row[2]); // accesses = hits + misses
    }
    EXPECT_GT(accesses, 0u);

    // CSV shape: header + one line per row, headed by the label column.
    std::string csv = links.csv();
    EXPECT_EQ(static_cast<size_t>(
                  std::count(csv.begin(), csv.end(), '\n')),
              noc.numLinks() + 1);
    EXPECT_EQ(csv.rfind("link,x,y,dir,", 0), 0u);
}

TEST(StatRegistry, SnapshotsTrackLiveCounters)
{
    Machine machine(MachineConfig::tiny());
    obs::Telemetry *telemetry = machine.armTelemetry();
    ASSERT_NE(telemetry, nullptr);
    WorkStealingRuntime rt(machine, RuntimeConfig::full());
    Addr out = machine.dramAlloc(8, 8);
    rt.run([&](TaskContext &tc) { fibKernel(tc, 10, out); });

    obs::StatRegistry &stats = telemetry->stats;
    EXPECT_EQ(stats.value("core/000/isa/instructions"),
              machine.core(0).stats().isa.instructions);
    EXPECT_EQ(stats.value("engine/switches"),
              machine.engine().switchCount());
    EXPECT_EQ(stats.sum("core/", "/rt/tasks_executed"),
              machine.totalStat(&RuntimeStats::tasksExecuted));
    EXPECT_EQ(stats.sum("core/", "/isa/instructions"),
              machine.totalInstructions());
    EXPECT_GT(stats.value("mem/dram_loads"), 0u);

    std::string json = stats.json();
    EXPECT_NE(json.find("\"core/000/isa/instructions\""),
              std::string::npos);

    // Re-arming must not duplicate entries (add() replaces in place).
    size_t count = 0;
    stats.forEach([&](const std::string &, uint64_t) { ++count; });
    machine.armTelemetry();
    size_t count_after = 0;
    stats.forEach([&](const std::string &, uint64_t) { ++count_after; });
    EXPECT_EQ(count, count_after);
}

TEST(Tracer, BoundedBufferCountsDrops)
{
    obs::Tracer tracer(obs::kTraceAll, 4);
    for (uint32_t i = 0; i < 6; ++i)
        tracer.instant(obs::kTraceTask, 0, i, "tick");
    EXPECT_EQ(tracer.events().size(), 4u);
    EXPECT_EQ(tracer.dropped(), 2u);
    tracer.clear();
    EXPECT_TRUE(tracer.events().empty());
    EXPECT_EQ(tracer.dropped(), 0u);
}

TEST(Tracer, CategoryMaskFilters)
{
    obs::Tracer tracer(obs::kTraceTask);
    tracer.instant(obs::kTraceSteal, 0, 1, "steal_attempt");
    tracer.instant(obs::kTraceTask, 0, 2, "task");
    EXPECT_EQ(tracer.events().size(), 1u);
    EXPECT_STREQ(tracer.events()[0].name, "task");
}

#else // !SPMRT_TELEMETRY_ENABLED

TEST(Telemetry, CompiledOutArmReturnsNull)
{
    Machine machine(MachineConfig::tiny());
    EXPECT_EQ(machine.armTelemetry(), nullptr);
    EXPECT_EQ(machine.telemetry(), nullptr);
}

#endif // SPMRT_TELEMETRY_ENABLED

} // namespace
} // namespace spmrt
