/**
 * @file
 * The guest-facing core API.
 *
 * Guest code (runtime + workloads) runs as ordinary C++ on the core's
 * coroutine, but every access to simulated memory and every unit of modelled
 * compute goes through this class, which charges time against the core's
 * clock and counts dynamic operations (the analogue of the paper's dynamic
 * instruction counts).
 */

#ifndef SPMRT_SIM_CORE_HPP
#define SPMRT_SIM_CORE_HPP

#include <deque>
#include <utility>
#include <vector>

#include "common/log.hpp"
#include "common/types.hpp"
#include "mem/memory_system.hpp"
#include "obs/trace.hpp"
#include "sim/config.hpp"
#include "sim/engine.hpp"
#include "sim/fault.hpp"

namespace spmrt {

namespace obs {
class StatRegistry;
} // namespace obs

/**
 * ISA-level dynamic execution counters, charged by the Core itself (the
 * analogue of the paper's dynamic instruction counts).
 */
struct IsaStats
{
    uint64_t instructions = 0; ///< dynamic operations charged
    uint64_t loads = 0;
    uint64_t stores = 0;
    uint64_t amos = 0;
    uint64_t fences = 0;
};

/** Runtime-level counters, incremented by the task runtime layers. */
struct RuntimeStats
{
    uint64_t tasksExecuted = 0;
    uint64_t tasksSpawned = 0;
    uint64_t stealAttempts = 0;
    uint64_t stealHits = 0;
    uint64_t stackFramesPushed = 0;
    uint64_t stackFramesOverflowed = 0;
    uint64_t spawnsInlined = 0; ///< queue-full spawns executed inline
};

/**
 * Per-core dynamic execution counters: the ISA-level scope (what the
 * modelled hardware retires) and the runtime-level scope (what the task
 * runtime does with it), kept separate so the telemetry registry can
 * export them as distinct hierarchies (core/NNN/isa/... vs core/NNN/rt/...).
 */
struct CoreStats
{
    IsaStats isa;
    RuntimeStats rt;
};

/**
 * Handle through which guest code interacts with the simulated machine.
 *
 * Every memory op is one MemOp record that takes one of three routes,
 * and every route ends in apply(), which makes the op's one timed
 * memory-system call and fires its one checker hook:
 *
 *  - local: an op on this core's own scratchpad applies at the issue
 *    site;
 *  - inline: a globally visible op (anything else) whose commit key is
 *    already globally next (Engine::remoteInlineOk) also applies at the
 *    issue site, with no capture and no context switch;
 *  - commit: any other globally visible op is captured into this core's
 *    FIFO and applied by the engine, via executeHeadOp(), when its key
 *    is globally next. Blocking ops park the core until then; posted
 *    stores charge their issue slots and run on (fence() waits for
 *    stragglers).
 *
 * Memory-model note: every globally visible op commits a uniform delta
 * (max(1, linkLatency) cycles) after its issue gate, in (commit time,
 * core id) order. Because the delta is uniform, that commit order is
 * exactly the issue-gate order, so the memory system observes the same
 * call sequence with the same timestamps regardless of how guest
 * execution is interleaved (DESIGN.md Sec. 14).
 */
class Core : public CoreOpSink
{
  public:
    Core(Engine &engine, MemorySystem &mem, CoreId id,
         const MachineConfig &cfg)
        : engine_(engine), mem_(mem), id_(id), cfg_(cfg),
          localSpmBase_(mem.map().spmBase(id)),
          commitDelta_(cfg.linkLatency > 1 ? cfg.linkLatency : 1)
    {
        engine.setOpSink(id, this);
    }

    Core(const Core &) = delete;
    Core &operator=(const Core &) = delete;

    /** This core's id. */
    CoreId id() const { return id_; }
    /** This core's current clock. */
    Cycles now() const { return engine_.time(id_); }
    /** The machine configuration. */
    const MachineConfig &config() const { return cfg_; }

    /**
     * Charge local compute: @p cycles of latency and @p instrs dynamic
     * operations. No context switch.
     */
    void
    tick(Cycles cycles, uint64_t instrs = 1)
    {
        if (fault_ != nullptr)
            cycles += fault_->coreStall(id_, engine_.time(id_));
        engine_.advance(id_, cycles);
        stats_.isa.instructions += instrs;
    }

    /** Blocking typed load. */
    template <typename T>
    T
    load(Addr addr)
    {
        static_assert(std::is_trivially_copyable_v<T>);
        T value;
        issueBlocking<MemOp::Load>(
            {.addr = addr, .bytes = sizeof(T), .dst = &value},
            isLocalSpm(addr));
        ++stats_.isa.loads;
        ++stats_.isa.instructions;
        return value;
    }

    /**
     * Blocking typed load with acquire semantics for the checker. Use it
     * for the protocol's sanctioned racy reads — the lock-free head/tail
     * emptiness probe and the termination-flag poll — which are exempt
     * from race checking but observe release edges on the word. Timing is
     * identical to load().
     */
    template <typename T>
    T
    loadSync(Addr addr)
    {
        static_assert(std::is_trivially_copyable_v<T>);
        T value;
        issueBlocking<MemOp::LoadSync>(
            {.addr = addr, .bytes = sizeof(T), .dst = &value},
            isLocalSpm(addr));
        ++stats_.isa.loads;
        ++stats_.isa.instructions;
        return value;
    }

    /** Posted typed store. */
    template <typename T>
    void
    store(Addr addr, T value)
    {
        static_assert(std::is_trivially_copyable_v<T>);
        static_assert(sizeof(T) <= sizeof(CapturedOp::value));
        issuePosted<MemOp::Store>(
            {.addr = addr, .bytes = sizeof(T), .src = &value},
            isLocalSpm(addr));
        ++stats_.isa.stores;
        ++stats_.isa.instructions;
    }

    /**
     * Store with release semantics: drains prior posted stores, then
     * stores. Timing is exactly fence() + store(); for the checker the
     * write publishes a release edge on the word (flag broadcasts) instead
     * of being race-checked.
     */
    template <typename T>
    void
    storeRelease(Addr addr, T value)
    {
        static_assert(std::is_trivially_copyable_v<T>);
        static_assert(sizeof(T) <= sizeof(CapturedOp::value));
        fence();
        issuePosted<MemOp::StoreRelease>(
            {.addr = addr, .bytes = sizeof(T), .src = &value},
            isLocalSpm(addr));
        ++stats_.isa.stores;
        ++stats_.isa.instructions;
    }

    /**
     * Timed bulk read (a DMA-like pipelined burst): chunks are issued
     * back-to-back and the core blocks until the last response.
     */
    void read(Addr addr, void *out, uint32_t bytes);

    /** Timed bulk write, pipelined and posted per chunk. */
    void write(Addr addr, const void *in, uint32_t bytes);

    /** Atomic read-modify-write; returns the previous value. */
    uint32_t
    amo(Addr addr, AmoOp op, uint32_t operand)
    {
        uint32_t old_value = 0;
        issueBlocking<MemOp::Amo>({.amoOp = op,
                                   .addr = addr,
                                   .bytes = sizeof(uint32_t),
                                   .amoOperand = operand,
                                   .dst = &old_value},
                                  isLocalSpm(addr));
        ++stats_.isa.amos;
        ++stats_.isa.instructions;
        return old_value;
    }

    /** Fetch-and-add convenience wrapper. */
    uint32_t
    amoAdd(Addr addr, int32_t delta)
    {
        return amo(addr, AmoOp::Add, static_cast<uint32_t>(delta));
    }

    /** Fetch-and-add with release semantics (drains prior stores first). */
    uint32_t
    amoAddRelease(Addr addr, int32_t delta)
    {
        fence();
        return amoAdd(addr, delta);
    }

    /** Block until all posted stores by this core have landed. */
    void
    fence()
    {
        if (pendingPosted_ != 0) {
            // Captured posted stores have not reached the memory system
            // yet, so the drain time is not final: park until the last
            // one commits (executeHeadOp wakes us), then drain as usual.
            fenceWaiting_ = true;
            engine_.block(id_, Engine::ParkKind::Drain);
            fenceWaiting_ = false;
        }
        engine_.advanceTo(id_, mem_.storeDrainTime(id_));
        // Completion gate: the drain time can jump far past other cores'
        // clocks (remote store arrivals), so re-enter admission before
        // running on — see issueBlocking() for why every engine must
        // split its segments at the same points.
        engine_.syncPoint(id_);
        ++stats_.isa.fences;
        ++stats_.isa.instructions;
    }

    /** Cooperative yield with a small idle charge (backoff loops). */
    void
    idle(Cycles cycles)
    {
        if (fault_ != nullptr)
            cycles += fault_->coreStall(id_, engine_.time(id_));
        engine_.advance(id_, cycles);
        engine_.syncPoint(id_);
    }

    /** True iff @p addr is inside this core's own scratchpad. The base is
     *  cached at construction: this predicate runs on every store. */
    bool
    isLocalSpm(Addr addr) const
    {
        return addr - localSpmBase_ < cfg_.spmBytes;
    }

    /** Base address of this core's scratchpad window. */
    Addr spmBase() const { return localSpmBase_; }

    /** Mutable access to the counters (the runtime updates them). */
    CoreStats &stats() { return stats_; }
    const CoreStats &stats() const { return stats_; }

    /** Escape hatches for infrastructure code. */
    Engine &engine() { return engine_; }
    MemorySystem &mem() { return mem_; }

    /** Install (or clear, with nullptr) the fault plan for this core. */
    void setFaultPlan(FaultPlan *plan) { fault_ = plan; }
    /** The active fault plan, or nullptr (consulted by the runtime). */
    FaultPlan *faultPlan() { return fault_; }

    /** Attach (or detach, with nullptr) the timeline tracer. */
    void setTracer(obs::Tracer *tracer) { tracer_ = tracer; }

    /**
     * The attached tracer, or nullptr. A compile-time nullptr when the
     * telemetry subsystem is compiled out, so `if (auto *t = tracer())`
     * hook sites in the runtime and stack model fold away entirely.
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

    /** Register this core's counters under core/NNN/{isa,rt}/. */
    void registerStats(obs::StatRegistry &registry) const;

    /** Engine callback: commit this core's oldest captured op. */
    Cycles executeHeadOp() override;

  private:
    /** One memory op: the record the local, inline and commit routes
     *  share. Its kind is a compile-time constant at every issue site. */
    struct MemOp
    {
        enum Kind : uint8_t
        {
            // Blocking kinds: the issuer waits for the result.
            Load,      ///< scalar load into dst
            LoadSync,  ///< as Load; fires an acquire checker edge
            LoadBurst, ///< bulk read into dst
            Amo,       ///< read-modify-write; the old value lands in dst
            // Posted kinds: the issuer runs on.
            Store,        ///< scalar store from src
            StoreRelease, ///< as Store; fires a release checker edge
            StoreBurst,   ///< bulk write from src
        };
        Kind kind = Load;
        AmoOp amoOp = AmoOp::Add;
        Addr addr = 0;
        uint32_t bytes = 0;
        uint32_t amoOperand = 0;
        void *dst = nullptr;
        const void *src = nullptr;

        static constexpr bool posted(Kind kind) { return kind >= Store; }
    };

    /**
     * A globally visible op captured at its issue gate, waiting for the
     * engine to commit it in global (commit time, core id) order.
     * Blocking kinds keep the issuing core parked, so their guest-owned
     * dst stays alive. Posted payloads are copied in, because the issuer
     * runs on, and op.src points at the copy: the record is applied in
     * place at the FIFO head, and deque push_back/pop_front never move
     * the other records.
     */
    struct CapturedOp
    {
        MemOp op;
        Cycles issue = 0;
        uint64_t value = 0;           ///< scalar store payload
        std::vector<uint8_t> payload; ///< burst payload
    };

    /**
     * Apply @p op to the memory system at @p issue: the one timed
     * memory-system call and the one checker hook, for every route.
     * Returns the core-visible completion time — the response for
     * blocking kinds, the end of the issue slots for posted ones.
     *
     * Checker hooks ride the memory-system call: the checker's
     * happens-before graph must observe accesses in exactly the order
     * their effects land, which is the mem_ call order — the issue site
     * for local and inline ops, the commit (executeHeadOp) for captured
     * ones. Hooking captured ops at the issue or wake site instead
     * reorders them against other cores' effects within the commit-delta
     * window and the checker reports phantom races (or misses real ones).
     * Forced inline, like both issue decisions, so every guest call site
     * folds to a fixed-size copy and MemorySystem's local fast path.
     */
    template <MemOp::Kind K>
    [[gnu::always_inline]] Cycles
    apply(const MemOp &op, Cycles issue)
    {
        Cycles done = 0;
        if constexpr (K == MemOp::Load || K == MemOp::LoadSync)
            done = mem_.load(id_, issue, op.addr, op.dst, op.bytes);
        else if constexpr (K == MemOp::LoadBurst)
            done = mem_.loadBurst(id_, issue, op.addr, op.dst, op.bytes)
                       .lastDone;
        else if constexpr (K == MemOp::Amo)
            done = mem_.amo(id_, issue, op.addr, op.amoOp, op.amoOperand,
                            *static_cast<uint32_t *>(op.dst));
        else if constexpr (K == MemOp::Store || K == MemOp::StoreRelease)
            done = mem_.store(id_, issue, op.addr, op.src, op.bytes);
        else
            done = mem_.storeBurst(id_, issue, op.addr, op.src, op.bytes)
                       .lastIssue;
        if (ConcurrencyChecker *ck = mem_.checker()) {
            if constexpr (K == MemOp::LoadSync)
                ck->onLoadSync(id_, op.addr, op.bytes);
            else if constexpr (K == MemOp::StoreRelease)
                ck->onStoreRelease(id_, op.addr);
            else if constexpr (K == MemOp::Amo)
                ck->onAmo(id_, op.addr, done);
            else if constexpr (MemOp::posted(K))
                ck->onStore(id_, op.addr, op.bytes, done);
            else
                ck->onLoad(id_, op.addr, op.bytes, done);
        }
        return done;
    }

    /** apply() for a kind known only at run time (the commit): one
     *  inlined instantiation per kind, picked by comparing kinds. */
    template <size_t... Ks>
    Cycles
    applyKind(const MemOp &op, Cycles issue, std::index_sequence<Ks...>)
    {
        Cycles done = 0;
        ((op.kind == Ks && (done = apply<MemOp::Kind(Ks)>(op, issue), true)) ||
         ...);
        return done;
    }

    /**
     * The issue decision for blocking ops (Load, LoadSync, LoadBurst,
     * Amo): gate at a syncPoint; apply here if @p local or if the commit
     * key is already globally next; otherwise capture and park until the
     * commit applies the op and wakes this core at its done time.
     */
    template <MemOp::Kind K>
    [[gnu::always_inline]] void
    issueBlocking(MemOp op, bool local)
    {
        engine_.syncPoint(id_);
        if (local || engine_.remoteInlineOk(id_, now() + commitDelta_)) {
            engine_.advanceTo(id_, apply<K>(op, now()));
        } else {
            op.kind = K;
            capture(op);
            engine_.block(id_, Engine::ParkKind::Commit);
        }
        // Completion gate (remote only): the clock jumped to the
        // response time while other cores may still sit below it, so
        // re-enter admission before running on. The inline and commit
        // routes gate at the same point, which keeps every engine's
        // segment boundaries — and therefore the host order of stateful
        // memory-model charges — the same.
        if (!local)
            engine_.syncPoint(id_);
    }

    /**
     * The issue decision for posted ops (Store, StoreRelease,
     * StoreBurst): a @p local op applies here with no gate. A remote one
     * is globally visible traffic, so it gates at a syncPoint, then
     * applies here if its commit key is already globally next and is
     * captured otherwise. The posted issue cost never depends on memory
     * state — storeRemote returns start + 1 and a burst issues one chunk
     * per cycle — so a captured op charges it here and the core runs on.
     */
    template <MemOp::Kind K>
    [[gnu::always_inline]] void
    issuePosted(MemOp op, bool local)
    {
        if (!local) {
            engine_.syncPoint(id_);
            if (!engine_.remoteInlineOk(id_, now() + commitDelta_)) {
                op.kind = K;
                capture(op);
                ++pendingPosted_;
                engine_.advance(id_, K == MemOp::StoreBurst
                                         ? MemorySystem::burstChunks(
                                               op.addr, op.bytes)
                                         : 1);
                return;
            }
        }
        engine_.advanceTo(id_, apply<K>(op, now()));
    }

    /** Append @p op to the commit FIFO, copying a posted payload. Taken
     *  by value so no issue site's op escapes and its size stays constant. */
    void capture(MemOp op);

    Engine &engine_;
    MemorySystem &mem_;
    CoreId id_;
    const MachineConfig &cfg_;
    Addr localSpmBase_; ///< cached: consulted on every store
    Cycles commitDelta_; ///< uniform issue-to-commit delay, max(1, link)
    CoreStats stats_;
    FaultPlan *fault_ = nullptr;
    obs::Tracer *tracer_ = nullptr;
    std::deque<CapturedOp> capturedOps_; ///< issue-order commit FIFO
    uint32_t pendingPosted_ = 0; ///< captured stores not yet committed
    bool fenceWaiting_ = false;  ///< fence() parked on pendingPosted_
};

} // namespace spmrt

#endif // SPMRT_SIM_CORE_HPP
