/**
 * @file
 * Unit tests for the simulation engine: coroutine scheduling, clock
 * ordering, determinism, and the guest Core API.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <functional>
#include <string>
#include <vector>

#include "sim/engine.hpp"
#include "sim/machine.hpp"

namespace spmrt {
namespace {

TEST(Engine, RunsAllBodies)
{
    Engine engine(4, 64 * 1024);
    std::vector<int> ran(4, 0);
    for (CoreId i = 0; i < 4; ++i)
        engine.setBody(i, [&ran, i] { ran[i] = 1; });
    engine.run();
    for (int flag : ran)
        EXPECT_EQ(flag, 1);
}

TEST(Engine, SyncPointOrdersByTimestamp)
{
    // Two cores interleave strictly by local time at sync points.
    Engine engine(2, 64 * 1024);
    std::vector<std::pair<CoreId, Cycles>> order;

    auto body = [&engine, &order](CoreId id, Cycles step) {
        return [&engine, &order, id, step] {
            for (int i = 0; i < 5; ++i) {
                engine.advance(id, step);
                engine.syncPoint(id);
                order.emplace_back(id, engine.time(id));
            }
        };
    };
    engine.setBody(0, body(0, 10));
    engine.setBody(1, body(1, 25));
    engine.run();

    for (size_t i = 1; i < order.size(); ++i)
        EXPECT_LE(order[i - 1].second, order[i].second)
            << "sync point " << i << " ran out of timestamp order";
}

TEST(Engine, ReusableAcrossRuns)
{
    Engine engine(2, 64 * 1024);
    int counter = 0;
    for (int round = 0; round < 3; ++round) {
        for (CoreId i = 0; i < 2; ++i)
            engine.setBody(i, [&counter] { ++counter; });
        engine.run();
    }
    EXPECT_EQ(counter, 6);
}

TEST(Engine, ClocksPersistAcrossRuns)
{
    Engine engine(1, 64 * 1024);
    engine.setBody(0, [&engine] { engine.advance(0, 100); });
    engine.run();
    EXPECT_EQ(engine.time(0), 100u);
    engine.setBody(0, [&engine] { engine.advance(0, 50); });
    engine.run();
    EXPECT_EQ(engine.time(0), 150u);
}

TEST(Engine, DeepGuestRecursionFits)
{
    Engine engine(1, 256 * 1024);
    // Recursion with a real frame per level; 2000 levels must fit in the
    // coroutine's 256 KB host stack.
    struct Recur
    {
        static int
        go(int n)
        {
            volatile char pad[64] = {0};
            (void)pad;
            return n == 0 ? 0 : 1 + go(n - 1);
        }
    };
    int depth = 0;
    engine.setBody(0, [&depth] { depth = Recur::go(2000); });
    engine.run();
    EXPECT_EQ(depth, 2000);
}

/** Lines in /proc/self/maps: one per mapping (or protection run). */
size_t
mappingCount()
{
    std::ifstream maps("/proc/self/maps");
    size_t lines = 0;
    for (std::string line; std::getline(maps, line);)
        ++lines;
    return lines;
}

/** Build a paper machine, run every core once, tear it down; returns
 *  the mapping count seen while the machine was alive. */
size_t
paperMachineCycle()
{
    Machine machine(MachineConfig::paper());
    machine.run([](Core &core) { core.tick(1, 1); });
    return mappingCount();
}

TEST(Machine, TeardownReleasesStackMapping)
{
    // A machine's coroutine stacks are one mapping, guarded per core and
    // unmapped whole on teardown. Build/run/teardown cycles must
    // therefore leave the process's mapping count where it was; a
    // leaked stack mapping (or any of its guard-page splits) shows up as
    // growth. One warm-up cycle lets the allocator settle first.
    paperMachineCycle();
    const size_t before = mappingCount();
    for (int cycle = 0; cycle < 3; ++cycle) {
        const size_t alive = paperMachineCycle();
        EXPECT_GT(alive, before + 128)
            << "the running machine's guarded stacks are not visible";
#if defined(SPMRT_ASAN)
        // ASan's allocator maps more memory as its quarantine fills, a
        // line now and then; a leaked stack mapping adds hundreds.
        EXPECT_LT(mappingCount(), before + 16) << "after cycle " << cycle;
#else
        EXPECT_EQ(mappingCount(), before) << "after cycle " << cycle;
#endif
    }
}

TEST(Machine, TickAdvancesClockAndCounts)
{
    Machine machine(MachineConfig::tiny());
    machine.run([](Core &core) { core.tick(5, 3); });
    for (CoreId i = 0; i < machine.numCores(); ++i) {
        EXPECT_EQ(machine.engine().time(i), 5u);
        EXPECT_EQ(machine.core(i).stats().isa.instructions, 3u);
    }
}

TEST(Machine, LocalSpmRoundTrip)
{
    Machine machine(MachineConfig::tiny());
    machine.run([](Core &core) {
        Addr addr = core.spmBase();
        core.store<uint32_t>(addr, 0xdeadbeef + core.id());
        uint32_t value = core.load<uint32_t>(addr);
        SPMRT_ASSERT(value == 0xdeadbeef + core.id(), "bad SPM readback");
    });
    // Local SPM latency is 2 cycles; store + load must cost at least 4.
    EXPECT_GE(machine.engine().time(0), 4u);
}

TEST(Machine, RemoteSpmVisibleAndSlower)
{
    MachineConfig cfg = MachineConfig::tiny();
    Machine machine(cfg);
    auto &mem = machine.mem();
    // Core 7 is the far corner from core 0 in the 4x2 tiny mesh.
    Addr remote = mem.map().spmBase(7);
    mem.pokeAs<uint32_t>(remote, 777);

    Cycles local_cost = 0, remote_cost = 0;
    machine.run([&](Core &core) {
        if (core.id() != 0)
            return;
        Cycles t0 = core.now();
        (void)core.load<uint32_t>(core.spmBase());
        local_cost = core.now() - t0;
        t0 = core.now();
        uint32_t value = core.load<uint32_t>(remote);
        remote_cost = core.now() - t0;
        SPMRT_ASSERT(value == 777, "remote SPM load returned %u", value);
    });
    EXPECT_GT(remote_cost, local_cost);
}

TEST(Machine, DramSlowerThanSpm)
{
    Machine machine(MachineConfig::tiny());
    Addr dram = machine.dramAlloc(64);
    machine.mem().pokeAs<uint32_t>(dram, 41);

    Cycles spm_cost = 0, dram_cold = 0, dram_warm = 0;
    machine.run([&](Core &core) {
        if (core.id() != 0)
            return;
        Cycles t0 = core.now();
        (void)core.load<uint32_t>(core.spmBase());
        spm_cost = core.now() - t0;

        t0 = core.now();
        (void)core.load<uint32_t>(dram);
        dram_cold = core.now() - t0;

        t0 = core.now();
        (void)core.load<uint32_t>(dram);
        dram_warm = core.now() - t0;
    });
    EXPECT_GT(dram_cold, spm_cost);
    // The second access hits in the LLC and must be cheaper than the miss.
    EXPECT_LT(dram_warm, dram_cold);
    EXPECT_GT(dram_warm, spm_cost);
}

TEST(Machine, AmoAtomicAcrossCores)
{
    Machine machine(MachineConfig::tiny());
    Addr counter = machine.dramAlloc(4);
    machine.mem().pokeAs<uint32_t>(counter, 0);

    constexpr int kIncrementsPerCore = 50;
    machine.run([&](Core &core) {
        for (int i = 0; i < kIncrementsPerCore; ++i)
            core.amoAdd(counter, 1);
    });
    uint32_t total = machine.mem().peekAs<uint32_t>(counter);
    EXPECT_EQ(total, machine.numCores() * kIncrementsPerCore);
}

TEST(Machine, AmoReturnsOldValue)
{
    Machine machine(MachineConfig::tiny());
    Addr cell = machine.dramAlloc(4);
    machine.mem().pokeAs<uint32_t>(cell, 10);
    machine.run([&](Core &core) {
        if (core.id() != 0)
            return;
        EXPECT_EQ(core.amoAdd(cell, 5), 10u);
        EXPECT_EQ(core.amo(cell, AmoOp::Swap, 99), 15u);
        EXPECT_EQ(core.load<uint32_t>(cell), 99u);
    });
}

TEST(Machine, FenceDrainsPostedStores)
{
    MachineConfig cfg = MachineConfig::tiny();
    Machine machine(cfg);
    Addr dram = machine.dramAlloc(4);
    machine.run([&](Core &core) {
        if (core.id() != 0)
            return;
        Cycles t0 = core.now();
        core.store<uint32_t>(dram, 1); // posted: costs ~1 cycle
        Cycles posted = core.now() - t0;
        core.fence(); // must wait for the DRAM store to land
        Cycles fenced = core.now() - t0;
        EXPECT_LE(posted, 3u);
        EXPECT_GT(fenced, posted);
    });
}

TEST(Machine, BulkReadWriteMovesData)
{
    Machine machine(MachineConfig::tiny());
    Addr dram = machine.dramAlloc(256);
    std::vector<uint8_t> pattern(256);
    for (size_t i = 0; i < pattern.size(); ++i)
        pattern[i] = static_cast<uint8_t>(i * 7 + 1);

    machine.run([&](Core &core) {
        if (core.id() != 0)
            return;
        core.write(dram, pattern.data(), pattern.size());
        std::vector<uint8_t> readback(256, 0);
        core.read(dram, readback.data(), readback.size());
        EXPECT_EQ(readback, pattern);
    });
}

TEST(Machine, DeterministicAcrossRuns)
{
    auto experiment = [] {
        Machine machine(MachineConfig::tiny());
        Addr counter = machine.dramAlloc(4);
        machine.run([&](Core &core) {
            for (int i = 0; i < 20; ++i) {
                uint32_t old_value = core.amoAdd(counter, 1);
                core.tick(1 + old_value % 3);
            }
        });
        return machine.engine().maxTime();
    };
    Cycles first = experiment();
    EXPECT_EQ(first, experiment());
    EXPECT_EQ(first, experiment());
}

TEST(Machine, PerCoreBodiesAndSyncClocks)
{
    Machine machine(MachineConfig::tiny());
    std::vector<std::function<void(Core &)>> bodies(machine.numCores());
    for (CoreId i = 0; i < machine.numCores(); ++i)
        bodies[i] = [i](Core &core) { core.tick(10 * (i + 1)); };
    Cycles elapsed = machine.runPerCore(bodies);
    EXPECT_EQ(elapsed, 10u * machine.numCores());
    machine.syncClocks();
    for (CoreId i = 0; i < machine.numCores(); ++i)
        EXPECT_EQ(machine.engine().time(i), elapsed);
}

// ---- Commit route ----------------------------------------------------------
//
// A globally visible op whose commit key is not yet globally next is
// captured into the issuer's FIFO and applied later by the engine
// (Core::executeHeadOp). In these cases core 1 ticks to the issuer's
// clock and holds it, so Engine::remoteInlineOk fails at the issue site
// and each op takes that route. The clocks and switch/syncPoint counts
// pin the commit route's timing; both schedulers must reproduce them.

/** What one commit-route run observed on the issuing core (core 0). */
struct CommitObservation
{
    Cycles afterOp = 0;    ///< issuer's clock right after the op returns
    Cycles afterFence = 0; ///< issuer's clock after a trailing fence()
    uint64_t switches = 0;
    uint64_t syncPoints = 0;
};

/**
 * Run @p op on core 0 of @p machine under @p mode at cycle 10, while
 * core 1 ties that clock, then fence.
 */
CommitObservation
runCommitRoute(Machine &machine, SchedMode mode,
               const std::function<void(Core &)> &op)
{
    machine.engine().setScheduler(mode);
    CommitObservation seen;
    std::vector<std::function<void(Core &)>> bodies(machine.numCores(),
                                                    [](Core &) {});
    bodies[0] = [&](Core &core) {
        core.tick(10);
        op(core);
        seen.afterOp = core.now();
        core.fence();
        seen.afterFence = core.now();
    };
    bodies[1] = [](Core &core) {
        core.tick(10);
        core.idle(0);
    };
    const uint64_t switches0 = machine.engine().switchCount();
    const uint64_t syncs0 = machine.engine().syncPointCount();
    machine.runPerCore(bodies);
    seen.switches = machine.engine().switchCount() - switches0;
    seen.syncPoints = machine.engine().syncPointCount() - syncs0;
    return seen;
}

/** Both scheduler modes, for the per-kind loops below. */
constexpr SchedMode kBothModes[] = {SchedMode::Fast, SchedMode::Reference};

/** The 100-byte, line-crossing payload of the burst cases. */
std::vector<uint8_t>
burstPattern()
{
    std::vector<uint8_t> pattern(100);
    for (size_t i = 0; i < pattern.size(); ++i)
        pattern[i] = static_cast<uint8_t>(i * 13 + 5);
    return pattern;
}

TEST(CommitRoute, Load)
{
    for (SchedMode mode : kBothModes) {
        Machine machine(MachineConfig::tiny());
        const Addr remote = machine.mem().map().spmBase(7) + 16;
        machine.mem().pokeAs<uint32_t>(remote, 0x1234abcd);
        uint32_t value = 0;
        CommitObservation seen = runCommitRoute(
            machine, mode,
            [&](Core &core) { value = core.load<uint32_t>(remote); });
        EXPECT_EQ(value, 0x1234abcdu);
        EXPECT_EQ(machine.mem().peekAs<uint32_t>(remote), 0x1234abcdu);
        EXPECT_EQ(seen.afterOp, 20u);
        EXPECT_EQ(seen.afterFence, 20u);
        EXPECT_EQ(seen.switches, 11u);
        EXPECT_EQ(seen.syncPoints, 4u);
    }
}

TEST(CommitRoute, LoadSync)
{
    for (SchedMode mode : kBothModes) {
        Machine machine(MachineConfig::tiny());
        const Addr remote = machine.mem().map().spmBase(6) + 8;
        machine.mem().pokeAs<uint64_t>(remote, 0x0102030405060708ull);
        uint64_t value = 0;
        CommitObservation seen =
            runCommitRoute(machine, mode, [&](Core &core) {
                value = core.loadSync<uint64_t>(remote);
            });
        EXPECT_EQ(value, 0x0102030405060708ull);
        EXPECT_EQ(machine.mem().peekAs<uint64_t>(remote),
                  0x0102030405060708ull);
        EXPECT_EQ(seen.afterOp, 19u);
        EXPECT_EQ(seen.afterFence, 19u);
        EXPECT_EQ(seen.switches, 11u);
        EXPECT_EQ(seen.syncPoints, 4u);
    }
}

TEST(CommitRoute, LoadBurst)
{
    const std::vector<uint8_t> pattern = burstPattern();
    for (SchedMode mode : kBothModes) {
        Machine machine(MachineConfig::tiny());
        // Offset 40 into a line: the 100 bytes split into 3 chunks.
        const Addr dram = machine.dramAlloc(256, 64) + 40;
        machine.mem().poke(dram, pattern.data(), pattern.size());
        std::vector<uint8_t> readback(pattern.size(), 0);
        CommitObservation seen =
            runCommitRoute(machine, mode, [&](Core &core) {
                core.read(dram, readback.data(), readback.size());
            });
        EXPECT_EQ(readback, pattern);
        std::vector<uint8_t> image(pattern.size());
        machine.mem().peek(dram, image.data(), image.size());
        EXPECT_EQ(image, pattern);
        EXPECT_EQ(machine.core(0).stats().isa.loads, 3u);
        EXPECT_EQ(seen.afterOp, 106u);
        EXPECT_EQ(seen.afterFence, 106u);
        EXPECT_EQ(seen.switches, 11u);
        EXPECT_EQ(seen.syncPoints, 4u);
    }
}

TEST(CommitRoute, Store)
{
    for (SchedMode mode : kBothModes) {
        Machine machine(MachineConfig::tiny());
        const Addr dram = machine.dramAlloc(8);
        CommitObservation seen =
            runCommitRoute(machine, mode, [&](Core &core) {
                core.store<uint32_t>(dram, 0xfeedf00d);
            });
        EXPECT_EQ(machine.mem().peekAs<uint32_t>(dram), 0xfeedf00du);
        EXPECT_EQ(seen.afterOp, 11u);
        EXPECT_EQ(seen.afterFence, 83u);
        EXPECT_EQ(seen.switches, 11u);
        EXPECT_EQ(seen.syncPoints, 3u);
    }
}

TEST(CommitRoute, StoreRelease)
{
    for (SchedMode mode : kBothModes) {
        Machine machine(MachineConfig::tiny());
        const Addr remote = machine.mem().map().spmBase(5) + 32;
        CommitObservation seen =
            runCommitRoute(machine, mode, [&](Core &core) {
                core.storeRelease<uint64_t>(remote, 0xa5a5a5a55a5a5a5aull);
            });
        EXPECT_EQ(machine.mem().peekAs<uint64_t>(remote),
                  0xa5a5a5a55a5a5a5aull);
        EXPECT_EQ(seen.afterOp, 11u);
        EXPECT_EQ(seen.afterFence, 16u);
        EXPECT_EQ(seen.switches, 11u);
        EXPECT_EQ(seen.syncPoints, 4u);
    }
}

TEST(CommitRoute, StoreBurst)
{
    const std::vector<uint8_t> pattern = burstPattern();
    for (SchedMode mode : kBothModes) {
        Machine machine(MachineConfig::tiny());
        // Offset 40 into core 7's window: 3 line-sized chunks.
        const Addr remote = machine.mem().map().spmBase(7) + 40;
        CommitObservation seen =
            runCommitRoute(machine, mode, [&](Core &core) {
                core.write(remote, pattern.data(), pattern.size());
            });
        std::vector<uint8_t> image(pattern.size());
        machine.mem().peek(remote, image.data(), image.size());
        EXPECT_EQ(image, pattern);
        EXPECT_EQ(machine.core(0).stats().isa.stores, 3u);
        EXPECT_EQ(seen.afterOp, 13u);
        EXPECT_EQ(seen.afterFence, 42u);
        EXPECT_EQ(seen.switches, 11u);
        EXPECT_EQ(seen.syncPoints, 3u);
    }
}

TEST(CommitRoute, Amo)
{
    for (SchedMode mode : kBothModes) {
        Machine machine(MachineConfig::tiny());
        const Addr remote = machine.mem().map().spmBase(3) + 4;
        machine.mem().pokeAs<uint32_t>(remote, 40);
        uint32_t old_value = 0;
        CommitObservation seen =
            runCommitRoute(machine, mode, [&](Core &core) {
                old_value = core.amoAdd(remote, 2);
            });
        EXPECT_EQ(old_value, 40u);
        EXPECT_EQ(machine.mem().peekAs<uint32_t>(remote), 42u);
        EXPECT_EQ(seen.afterOp, 20u);
        EXPECT_EQ(seen.afterFence, 20u);
        EXPECT_EQ(seen.switches, 11u);
        EXPECT_EQ(seen.syncPoints, 4u);
    }
}

// A posted store captured after the last dispatch — its issuer returns
// with no fence while core 1 still holds clock 0, so the store is never
// globally next before the run ends — must still land before run()
// returns, under either scheduler.
TEST(CommitRoute, PostedStoreDrainsAtRunEnd)
{
    for (SchedMode mode : kBothModes) {
        Machine machine(MachineConfig::tiny());
        machine.engine().setScheduler(mode);
        const Addr dram = machine.dramAlloc(8);
        std::vector<std::function<void(Core &)>> bodies(machine.numCores(),
                                                        [](Core &) {});
        bodies[0] = [&](Core &core) { core.store<uint32_t>(dram, 42); };
        bodies[1] = [](Core &core) {
            for (int i = 0; i < 3; ++i)
                core.tick(0);
        };
        machine.runPerCore(bodies);
        EXPECT_EQ(machine.mem().peekAs<uint32_t>(dram), 42u);
        EXPECT_EQ(machine.engine().switchCount(), 8u);
        EXPECT_EQ(machine.engine().syncPointCount(), 1u);
    }
}

} // namespace
} // namespace spmrt
