/**
 * @file
 * Deterministic discrete-event execution engine.
 *
 * Every simulated core runs guest code on its own coroutine and keeps a
 * local clock. The engine's scheduling invariant is: only the runnable core
 * with the globally minimal local timestamp executes globally visible
 * operations. Guest code reaches a @e sync @e point before every such
 * operation (loads, AMOs, remote stores); if the core is not the minimum it
 * yields and is resumed once it is. Local compute merely advances the local
 * clock with no context switch.
 *
 * Because the host scheduler is a deterministic argmin (ties broken by core
 * id), the entire simulation — including lock acquisition order and steal
 * interleavings — is reproducible run-to-run.
 *
 * The argmin is maintained in a binary winner (tournament) tree over core
 * ids whose nodes hold packed (time, id) keys, so the tie-break is
 * structural: picking the next core is an O(1) root read and every clock
 * mutation is one leaf-to-root replay of min(self, sibling) instead of
 * the historical O(N) scan per context switch. Two fast paths ride on it:
 *
 *  - syncPoint keeps the minimum clock among *other* runnable cores cached
 *    (exact, maintained incrementally), so the common case — the running
 *    core still holds the global minimum — is a single compare with no
 *    scan and no context switch;
 *  - a yielding core switches guest-to-guest directly to the next argmin
 *    core instead of bouncing through the scheduler context, halving host
 *    context switches (watchdog and perturbation hooks run inline on the
 *    yielding side).
 *
 * Both scheduling modes share one dispatch path; the reference oracle
 * (see setScheduler and SPMRT_ENGINE_SCHED, the engine's one knob) only
 * answers the ready-set queries — the argmin, the other runnable cores'
 * minimum clock, the perturbation window's candidates — by a fresh
 * linear scan instead of from the tree. tests/test_engine_equiv.cpp
 * checks that results, cycle counts, and switch counts are bit-identical.
 *
 * Schedule exploration (perturbSchedule) deliberately loosens the argmin:
 * among candidates whose clocks lie within a window of the global minimum,
 * the scheduler picks one with a seeded RNG, and syncPoint admits any core
 * within that window. Each seed is one alternative — still perfectly
 * reproducible — interleaving of the same program: lock races resolve
 * differently, steals hit different victims. Sweeping seeds with the
 * ConcurrencyChecker armed turns the simulator into a protocol fuzzer.
 *
 * Every globally visible operation that leaves the issuing core's own
 * scratchpad commits a uniform delta after its issue gate, through the
 * remote-op commit queue (CoreOpSink, scheduleRemoteOp). That discipline
 * is part of the timing model; see DESIGN.md Sec. 14. The engine is
 * single-threaded: host parallelism lives at the job level, in
 * serve::FleetServer's worker pool.
 */

#ifndef SPMRT_SIM_ENGINE_HPP
#define SPMRT_SIM_ENGINE_HPP

#include <atomic>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "common/log.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"
#include "obs/trace.hpp"
#include "sim/abort.hpp"
#include "sim/context.hpp"

namespace spmrt {

/**
 * How the engine answers its ready-set queries.
 *
 *  - Reference: O(N) linear scans of the core slots, the equivalence
 *    oracle.
 *  - Fast: the winner tree and its cached other-min (the default).
 */
enum class SchedMode : uint8_t
{
    Reference,
    Fast,
};

/** Parse a scheduler name ("reference" or "fast"). */
bool parseSchedMode(const char *text, SchedMode &out, std::string &error);

/**
 * Per-core executor for captured remote operations (implemented by Core).
 *
 * Every globally visible memory operation that does not target the
 * issuing core's own scratchpad commits a uniform delta after its issue
 * gate (see DESIGN.md Sec. 14). The issuing core captures the operation
 * into its per-core FIFO and tells the engine the head's commit time;
 * the engine calls executeHeadOp() when that commit key is globally next.
 */
class CoreOpSink
{
  public:
    /**
     * Execute this core's oldest captured operation against the memory
     * system (waking the core if the op was blocking). Returns the
     * commit time of the next captured op, or Engine::kNoPendingOp when
     * the FIFO is drained.
     */
    virtual Cycles executeHeadOp() = 0;

  protected:
    ~CoreOpSink() = default;
};

/**
 * Coroutine scheduler with per-core virtual clocks.
 */
class Engine
{
  public:
    /** Sentinel commit time: the op FIFO is empty. */
    static constexpr Cycles kNoPendingOp =
        std::numeric_limits<Cycles>::max();

    /**
     * Why a core is parked. Guest wakes (unblock) only release Barrier
     * parks; Commit parks wait for the core's own captured op to commit
     * and Drain parks wait for its posted stores to land — both are
     * released by the commit path (commitWake), never by guests. The
     * distinction matters because a guest wake can race a target that is
     * still waiting on its own commit: the wake must then be held
     * pending, not applied to the wrong park.
     */
    enum class ParkKind : uint8_t { Barrier = 0, Drain = 1, Commit = 2 };

    /**
     * @param num_cores number of simulated cores.
     * @param host_stack_bytes host stack size for each core's coroutine.
     */
    Engine(uint32_t num_cores, size_t host_stack_bytes);

    ~Engine();

    Engine(const Engine &) = delete;
    Engine &operator=(const Engine &) = delete;

    /** Install the guest body executed by core @p id during run(). */
    void setBody(CoreId id, std::function<void()> body);

    /** Execute all installed bodies to completion. */
    void run();

    /** Local clock of core @p id. */
    Cycles time(CoreId id) const { return slots_[id].time; }

    /** Advance core @p id's clock by @p dt cycles (local compute). */
    void
    advance(CoreId id, Cycles dt)
    {
        Slot &slot = slots_[id];
        slot.time += dt;
        // Only the running core advances itself on the hot path; any
        // other clock change (phase barriers, tests) must be reflected
        // in the ready tree and the high-water mark immediately.
        if (id != running_)
            foreignClockChange(slot);
    }

    /** Move core @p id's clock forward to @p t if @p t is later. */
    void
    advanceTo(CoreId id, Cycles t)
    {
        Slot &slot = slots_[id];
        if (t > slot.time) {
            slot.time = t;
            if (id != running_)
                foreignClockChange(slot);
        }
    }

    /**
     * Block until core @p id holds the minimal clock among unfinished
     * cores. Guest code must call this immediately before any globally
     * visible operation.
     */
    void syncPoint(CoreId id);

    /** Unconditionally return control to the scheduler. */
    void yield(CoreId id);

    /**
     * Park core @p id: it is removed from scheduling until a wake
     * arrives. Used by barriers to model cores sleeping rather than
     * burning spin cycles, and by the capture path for cores waiting on
     * their own remote-op commit (ParkKind::Commit) or posted-store
     * drain (ParkKind::Drain). A Barrier park with a pending guest wake
     * consumes the wake and returns immediately without parking.
     */
    void block(CoreId id, ParkKind kind = ParkKind::Barrier);

    /**
     * Guest wake: release core @p id from a Barrier park at time @p t
     * (or its own clock if later). If the target is not Barrier-parked —
     * it is runnable but has not reached its park yet, or it is still
     * waiting on its own commit/drain — the wake is recorded as pending
     * and consumed by the target's next Barrier block(). Each target
     * must consume a pending wake before the waker can post another
     * (true for barrier episodes, the only guest-wake user).
     */
    void unblock(CoreId id, Cycles t);

    /**
     * Commit-path wake: @p t > 0 releases a Commit park (blocking
     * capture done at @p t); @p t == 0 releases a Drain park (the
     * core's last posted store landed). Panics if the target is parked
     * for any other reason.
     */
    void commitWake(CoreId id, Cycles t);

    /** True while core @p id is parked. */
    bool blocked(CoreId id) const { return slots_[id].blocked; }

    /** True when core @p id's body has returned. */
    bool finished(CoreId id) const { return slots_[id].finished; }

    /** Core currently executing guest code (or kInvalidCore). */
    CoreId running() const { return running_; }

    /** Number of context switches performed (diagnostics). */
    uint64_t switchCount() const { return switches_; }

    /** Number of syncPoint() calls observed (diagnostics). */
    uint64_t syncPointCount() const { return syncPoints_; }

    /** Stable pointers to the counters, for StatRegistry registration. */
    const uint64_t *switchCountPtr() const { return &switches_; }
    const uint64_t *syncPointCountPtr() const { return &syncPoints_; }

    /** Attach (or detach, with nullptr) the timeline tracer. */
    void setTracer(obs::Tracer *tracer) { tracer_ = tracer; }

    /**
     * The attached tracer, or nullptr — a compile-time nullptr when
     * telemetry is compiled out, so the context-switch hook in the
     * dispatch path folds away.
     */
    obs::Tracer *
    tracer() const
    {
#if SPMRT_TELEMETRY_ENABLED
        return tracer_;
#else
        return nullptr;
#endif
    }

    /**
     * Largest clock reached by any core so far. O(1): the engine folds
     * every suspended core's clock into a high-water mark at each switch
     * point, so only the running core (if any) can be ahead of it.
     */
    Cycles
    maxTime() const
    {
        Cycles t = highWater_;
        if (running_ != kInvalidCore && slots_[running_].time > t)
            t = slots_[running_].time;
        return t;
    }

    /**
     * @name Scheduler selection
     *
     * The winner-tree scheduler (SchedMode::Fast) is the default;
     * SchedMode::Reference is the linear-scan oracle (see the file
     * comment). The SPMRT_ENGINE_SCHED environment variable
     * (reference|fast) sets the default at engine construction, so one
     * binary can serve as its own oracle.
     * @{
     */
    void
    setScheduler(SchedMode mode)
    {
        SPMRT_ASSERT(running_ == kInvalidCore,
                     "cannot switch scheduler while guest code runs");
        mode_ = mode;
    }

    /** The selected scheduling policy. */
    SchedMode scheduler() const { return mode_; }
    /** @} */

    /**
     * @name Remote-operation commit queue
     *
     * Cores capture globally visible memory operations (anything not
     * targeting their own scratchpad) into per-core FIFOs and schedule
     * the head's commit key here; the engine executes each op — in both
     * scheduling modes — exactly when its (commit time, issuer id) key
     * is globally next, so the commit order is a pure function of the
     * simulated program. An op whose commit key is already globally next
     * may instead run inline at the issue site (remoteInlineOk), which
     * keeps the fast path free of context switches.
     * @{
     */

    /** Register @p sink as the executor for ops issued by core @p id. */
    void
    setOpSink(CoreId id, CoreOpSink *sink)
    {
        if (opSinks_.size() < numCores_)
            opSinks_.resize(numCores_, nullptr);
        opSinks_[id] = sink;
    }

    /**
     * Announce that core @p issuer's op FIFO just became non-empty with
     * a head committing at @p commit. At most one pending entry per
     * issuer exists at any time (the FIFO head).
     */
    void scheduleRemoteOp(CoreId issuer, Cycles commit);

    /**
     * True when an op issued now by core @p id committing at @p commit
     * is already globally next — no other runnable gate strictly before
     * @p commit and no pending op with a smaller commit key — so the
     * issue site may execute it inline with no capture and no switch.
     */
    bool
    remoteInlineOk(CoreId id, Cycles commit)
    {
        if (!events_.empty() && events_[0] < packKey(id, commit))
            return false;
        return otherReadyMin(id) >= commit;
    }
    /** @} */

    /**
     * @name Hang watchdog
     *
     * Once armed, the scheduler checks before every switch whether any
     * progress (a noteProgress() call, normally one per completed task)
     * happened within the last @p max_cycles simulated cycles and
     * @p max_switches context switches. If both bounds are exceeded the
     * engine prints @p dump plus its own per-core state table to stderr
     * and panics — turning a silent infinite hang into a diagnosable
     * failure. Either bound can be 0 to disable that dimension; arming
     * with both 0 disables the watchdog.
     * @{
     */
    void
    armWatchdog(Cycles max_cycles, uint64_t max_switches,
                std::function<std::string()> dump)
    {
        wdCycles_ = max_cycles;
        wdSwitches_ = max_switches;
        wdDump_ = std::move(dump);
        noteProgressAt(maxTime());
    }

    /** Disarm the watchdog (leaves progress markers untouched). */
    void
    disarmWatchdog()
    {
        wdCycles_ = 0;
        wdSwitches_ = 0;
        wdDump_ = nullptr;
    }

    /**
     * @name Supervised aborts
     *
     * With supervise(true), every interrupt source — the hang watchdog,
     * the simulated-cycle limit, and the host-side cancel flag — raises
     * a catchable SimAbort out of run() (thrown on the host stack, with
     * the structured dump attached) instead of printing and panicking.
     * The default stays unsupervised: standalone runs keep the
     * print-and-abort behaviour. An aborted engine is dead — interrupted
     * guest stacks stay suspended — so catch the SimAbort, harvest the
     * report, and destroy the Machine; retries need a fresh one.
     * @{
     */
    void supervise(bool on) { supervised_ = on; }

    /** True when interrupts raise SimAbort instead of panicking. */
    bool supervised() const { return supervised_; }

    /**
     * Arm (nonzero) or disarm (0) a simulated-cycle ceiling: the run is
     * interrupted as soon as the next core to dispatch sits past
     * @p limit on the global clock. The limit is absolute, so budgets
     * on a reused machine are maxTime() + budget.
     */
    void armCycleLimit(Cycles limit) { cycleLimit_ = limit; }

    /**
     * Install (or clear, with nullptr) a host-shared cancel flag polled
     * at every dispatch. Store kCancelDeadline or kCancelShutdown from
     * any host thread to interrupt the run; the flag must outlive the
     * run. This is the only engine input that may be written from
     * another thread.
     */
    void
    setCancelFlag(const std::atomic<uint32_t> *flag)
    {
        cancelFlag_ = flag;
    }
    /** @} */

    /** Record forward progress (called by the runtime per task retired). */
    void
    noteProgress()
    {
        noteProgressAt(running_ == kInvalidCore ? maxTime()
                                                : slots_[running_].time);
    }
    /** @} */

    /**
     * @name Schedule exploration
     *
     * Enable seeded perturbation of the ready-core order: the scheduler
     * picks uniformly among runnable cores whose clocks are within
     * @p window cycles of the global minimum (window 0 still perturbs
     * exact ties), and syncPoint admits cores within the same window.
     * Timing results under perturbation are *different* valid
     * interleavings, not noise — each seed is fully reproducible. The RNG
     * discipline matches FaultPlan: one generator, seeded once, consumed
     * only by scheduling decisions.
     * @{
     */
    void
    perturbSchedule(uint64_t seed, Cycles window = 0)
    {
        schedPerturb_ = true;
        schedWindow_ = window;
        schedRng_ = Xoshiro256StarStar(hash64(seed ^ 0x5c4ed01eULL));
    }

    /** Restore the strict deterministic argmin order. */
    void
    clearSchedulePerturbation()
    {
        schedPerturb_ = false;
        schedWindow_ = 0;
    }

    /** True while schedule perturbation is active. */
    bool schedulePerturbed() const { return schedPerturb_; }
    /** @} */

  private:
    struct Slot
    {
        // Hot scheduling fields first: syncPoint/advance touch time and
        // the flags on every simulated operation, the rest only on
        // switches and (re)initialization.
        Cycles time = 0;
        CoreId id = kInvalidCore;
        bool finished = false;
        bool blocked = false;
        bool hasBody = false;
        ParkKind park = ParkKind::Barrier;
        // A guest wake that arrived while the core was not Barrier-parked
        // (still runnable, or waiting on its own commit/drain): the next
        // Barrier block() consumes it instead of parking.
        bool wakePending = false;
        Cycles wakeTime = 0;
        GuestContext ctx;
        std::function<void()> body;
        // No back-pointer to the engine: the coroutine entry point
        // receives the Engine* as its argument and identifies its slot
        // via running_ on first activation (see entryThunk).
    };

    /**
     * Scheduling key: (time, id) packed into one word as
     * (time << idShift_) | id, so the lexicographic (time, id) compare —
     * lowest wins, ties favor lower id — is a single branch-free integer
     * compare. The packing is exact while time < 2^(64 - idShift_); with
     * id widths of ≤16 bits that is ~2.8e14 simulated cycles, far beyond
     * any run, and packKey asserts it — strictly below, so no real key
     * equals kAbsent.
     */
    using PackedKey = uint64_t;

    /** Ready-tree node over no runnable core (greater than any key). */
    static constexpr PackedKey kAbsent = ~PackedKey(0);
    static constexpr Cycles kNoOtherCore =
        std::numeric_limits<Cycles>::max();

    static void entryThunk(void *opaque);

    /** True while the linear-scan oracle answers the ready-set queries;
     *  read only by those queries. */
    bool reference() const { return mode_ == SchedMode::Reference; }

    void
    noteProgressAt(Cycles t)
    {
        progressTime_ = t;
        progressSwitches_ = switches_;
    }

    /**
     * Inline armed-watchdog precheck: true when *some* enabled bound has
     * expired. Conservative superset of watchdogCheck()'s expiry rule
     * (which additionally requires every enabled bound to expire), so
     * the out-of-line check — which never fires on a healthy run — only
     * costs two compares per dispatch until a bound actually trips.
     */
    bool
    watchdogDue(Cycles next_time) const
    {
        return (wdCycles_ != 0 && next_time > progressTime_ + wdCycles_) ||
               (wdSwitches_ != 0 &&
                switches_ > progressSwitches_ + wdSwitches_);
    }

    /**
     * Inline per-dispatch interrupt precheck: watchdog bounds, cycle
     * limit, cancel flag. Disarmed sources cost one compare each; only
     * when something is (possibly) due does the out-of-line
     * checkInterrupts() run.
     */
    bool
    interruptDue(Cycles next_time) const
    {
        if (watchdogDue(next_time))
            return true;
        if (cycleLimit_ != 0 && next_time > cycleLimit_)
            return true;
        return cancelFlag_ != nullptr &&
               cancelFlag_->load(std::memory_order_relaxed) != 0;
    }

    /**
     * Re-verify every due interrupt source; on expiry either record a
     * pending SimAbort (supervised: returns true, caller unwinds to
     * run()) or print the dump and panic (unsupervised: no return).
     * Returns false when nothing actually fired (the watchdog precheck
     * is a conservative superset of its expiry rule).
     */
    bool checkInterrupts(Cycles next_time);

    /** Check the watchdog bounds against @p next_time; raise on expiry. */
    bool watchdogCheck(Cycles next_time);

    /** Per-core engine state table + the armed runtime dump, if any. */
    std::string stateDump() const;

    /** Record @p kind as pending (supervised) or print + panic. */
    bool raiseOrPanic(AbortKind kind, std::string summary);

    /** Throw the recorded pending abort (clears it first). */
    [[noreturn]] void throwPendingAbort();

    /**
     * @name Ready-set queries
     *
     * The only scheduling decisions; everything else is shared control
     * flow. Fast mode reads the winner tree and cachedOtherMin_; the
     * reference oracle answers each query by a fresh O(N) scan of the
     * slots.
     * @{
     */

    /** Least (time, id) key among runnable cores; kAbsent when none. */
    PackedKey
    minReadyKey() const
    {
        return reference() ? scanMinKey() : tree_[1];
    }

    /** Minimum clock among runnable cores other than the running core
     *  @p self; kNoOtherCore when none. */
    Cycles
    otherReadyMin(CoreId self) const
    {
        return reference() ? scanOtherMin(self) : cachedOtherMin_;
    }

    /** Ids of the runnable cores within the window of @p min_time,
     *  ascending, into candidateIds_ (tree descent or id-ordered scan). */
    void collectWindowCandidates(Cycles min_time);

    /** The oracle's answers to the first two queries. */
    PackedKey scanMinKey() const;
    Cycles scanOtherMin(CoreId self) const;
    /** @} */

    /** @name Remote-op commit queue internals
     *
     * events_ is a binary min-heap of packed (commit time, issuer id)
     * keys with at most one entry per issuer (its FIFO head), so no
     * positional index is needed: the only operations are push, pop-min,
     * and push-next-head. cachedEventMin_ mirrors the root's time
     * (kNoOtherCore when empty) for the syncPoint fast-path compare.
     * @{
     */

    /** Commit time of the earliest pending op (kNoOtherCore when none). */
    Cycles eventMinTime() const { return cachedEventMin_; }

    /** Pop and execute the earliest pending op; reschedules the issuer's
     *  next head, if any. */
    void executeOneEvent();

    /** Execute every pending op with commit time <= @p limit. */
    void
    drainDueEvents(Cycles limit)
    {
        while (cachedEventMin_ <= limit)
            executeOneEvent();
    }

    /** Execute every pending op unconditionally (end of run). */
    void drainAllEvents();
    /** @} */

    /** Fold a suspended core's clock into the high-water mark. */
    void
    foldHighWater(Cycles t)
    {
        if (t > highWater_)
            highWater_ = t;
    }

    /** Slow path for clock changes on a non-running core. */
    void foreignClockChange(Slot &slot);

    /** Body-return bookkeeping for the current core. */
    void finishCurrent(Slot &slot);

    /**
     * Commit the remote ops that precede the earliest gate, pick the next
     * core (the argmin, or a seeded within-window candidate under
     * perturbation), run the interrupt checks, and switch from @p from
     * into it. Called with all ready-tree keys fresh.
     */
    void dispatchFrom(GuestContext &from);

    /**
     * @name Winner tree over runnable cores
     *
     * tree_ is a complete binary tree in an array: node n has children
     * 2n and 2n+1, the root is node 1, and core c's leaf is node
     * leafBase_ + c (leafBase_ = 2^idShift_, so the leaves pad to a power
     * of two). Each node holds the least key of its subtree, kAbsent when
     * no runnable core lies below it, so the root is the argmin. The
     * running core keeps its (stale) leaf while it runs; clocks only
     * increase, so one replay at switch-out restores the tree.
     * @{
     */
    PackedKey
    packKey(CoreId id, Cycles t) const
    {
        SPMRT_ASSERT(t < maxPackTime_,
                     "clock %llu overflows the packed scheduling key",
                     static_cast<unsigned long long>(t));
        return (static_cast<PackedKey>(t) << idShift_) | id;
    }

    CoreId keyId(PackedKey key) const
    {
        return static_cast<CoreId>(key & idMask_);
    }

    Cycles keyTime(PackedKey key) const { return key >> idShift_; }

    /** True while core @p id has a leaf key in the ready tree. */
    bool ready(CoreId id) const { return tree_[leafBase_ + id] != kAbsent; }

    /** Set core @p id's leaf to @p key and replay min(self, sibling)
     *  up to the root. */
    void treeSet(CoreId id, PackedKey key);

    void readyInsert(CoreId id, Cycles t);
    void readyErase(CoreId id);
    void readyUpdate(CoreId id, Cycles t);

    /** Min time over ready cores other than @p self (the siblings along
     *  @p self's leaf-to-root path); kNoOtherCore when none. */
    Cycles minReadyTimeExcluding(CoreId self) const;
    /** @} */

    GuestContext schedCtx_;
    CoroutineStacks stacks_;        ///< every core's stack, one mapping
    std::unique_ptr<Slot[]> slots_; ///< contiguous, one indirection
    uint32_t numCores_ = 0;
    CoreId running_ = kInvalidCore;
    uint32_t live_ = 0;
    uint64_t switches_ = 0;
    uint64_t syncPoints_ = 0;
    SchedMode mode_;

    // Remote-op commit queue (see the public @name block).
    std::vector<PackedKey> events_;   ///< min-heap, one entry per issuer
    std::vector<CoreOpSink *> opSinks_;
    Cycles cachedEventMin_ = kNoOtherCore;

    // Winner-tree scheduler state.
    std::vector<PackedKey> tree_; ///< 2 * leafBase_ nodes; [0] unused
    uint32_t leafBase_ = 0;       ///< leaf count (power of two)
    uint32_t idShift_ = 0;        ///< bits reserved for the id field
    PackedKey idMask_ = 0;        ///< low idShift_ bits
    Cycles maxPackTime_ = 0;      ///< keyTime(kAbsent); clocks stay below
    /**
     * Exact minimum clock among runnable cores other than running_,
     * recomputed at every dispatch and min-folded on unblock (kept in
     * both modes; only fast mode reads it). Exactness holds because
     * suspended cores' clocks are frozen: only the running core can
     * change the runnable-other set (by waking a core), and that path
     * updates the cache. syncPoint's no-scan fast path compares against
     * this value.
     */
    Cycles cachedOtherMin_ = kNoOtherCore;
    Cycles highWater_ = 0; ///< max clock ever folded (see maxTime())

    // Watchdog state. wdCycles_/wdSwitches_ of 0 = that bound disabled.
    Cycles wdCycles_ = 0;
    uint64_t wdSwitches_ = 0;
    std::function<std::string()> wdDump_;
    Cycles progressTime_ = 0;
    uint64_t progressSwitches_ = 0;

    // Supervised-abort state. The cancel flag is the one engine input
    // another host thread may write; everything else is single-threaded.
    bool supervised_ = false;
    Cycles cycleLimit_ = 0; ///< 0 = no simulated-cycle ceiling
    const std::atomic<uint32_t> *cancelFlag_ = nullptr;
    bool abortPending_ = false;
    AbortKind abortKind_ = AbortKind::Hang;
    std::string abortSummary_;
    std::string abortDump_;

    obs::Tracer *tracer_ = nullptr;

    // Schedule-exploration state.
    bool schedPerturb_ = false;
    Cycles schedWindow_ = 0;
    Xoshiro256StarStar schedRng_;
    std::vector<CoreId> candidateIds_;   ///< scratch (window candidates)
    std::vector<uint32_t> descentStack_; ///< scratch (tree descent)
};

} // namespace spmrt

#endif // SPMRT_SIM_ENGINE_HPP
