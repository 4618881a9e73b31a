#include "sim/engine.hpp"

#include <algorithm>
#include <cstdio>

#include "common/env.hpp"

namespace spmrt {

bool
parseSchedMode(const char *text, SchedMode &out, std::string &error)
{
    const std::string name(text);
    if (name == "reference")
        out = SchedMode::Reference;
    else if (name == "fast")
        out = SchedMode::Fast;
    else {
        error = "unknown scheduler \"" + name +
                "\" (expected reference or fast)";
        return false;
    }
    return true;
}

namespace {

/**
 * Default scheduling mode: the fast winner-tree scheduler, unless the
 * SPMRT_ENGINE_SCHED environment variable names another. A typo'd name
 * is a hard error, not a silent fallback (tests/test_errors.cpp).
 */
SchedMode
defaultSchedMode()
{
    SchedMode mode = SchedMode::Fast;
    const std::string text = env::stringValue("SPMRT_ENGINE_SCHED");
    if (!text.empty()) {
        std::string error;
        if (!parseSchedMode(text.c_str(), mode, error))
            SPMRT_FATAL("SPMRT_ENGINE_SCHED: %s", error.c_str());
    }
    return mode;
}

} // namespace

Engine::Engine(uint32_t num_cores, size_t host_stack_bytes)
    : stacks_(num_cores, host_stack_bytes), mode_(defaultSchedMode())
{
    numCores_ = num_cores;
    slots_ = std::make_unique<Slot[]>(num_cores);
    for (uint32_t i = 0; i < num_cores; ++i)
        slots_[i].id = i;
    // Reserve enough id bits in the packed key for every core id; the
    // ready tree has one leaf per id value.
    idShift_ = 1;
    while ((1u << idShift_) < num_cores)
        ++idShift_;
    idMask_ = (PackedKey(1) << idShift_) - 1;
    maxPackTime_ = kAbsent >> idShift_;
    leafBase_ = 1u << idShift_;
    tree_.assign(2 * size_t(leafBase_), kAbsent);
}

Engine::~Engine()
{
    // A supervised abort leaves guests suspended mid-body for good (see
    // supervise()); their frames go with the stacks, unwound by nobody.
    for (uint32_t i = 0; i < numCores_; ++i) {
        const Slot &slot = slots_[i];
        if (slot.ctx.valid() && slot.hasBody && !slot.finished)
            slot.ctx.abandon();
    }
}

void
Engine::setBody(CoreId id, std::function<void()> body)
{
    SPMRT_ASSERT(id < numCores_, "core id %u out of range", id);
    slots_[id].body = std::move(body);
    slots_[id].hasBody = true;
}

void
Engine::entryThunk(void *opaque)
{
    auto *engine = static_cast<Engine *>(opaque);
    // The first activation happens through a dispatch, so running_ names
    // this coroutine's core — no per-slot back-pointer needed.
    Slot *slot = &engine->slots_[engine->running_];
    // Each run() installs a fresh body; the coroutine parks between runs
    // so multi-phase benchmarks can reuse the machine (clocks persist).
    while (true) {
        slot->body();
        engine->finishCurrent(*slot);
    }
}

void
Engine::finishCurrent(Slot &slot)
{
    slot.finished = true;
    --live_;
    foldHighWater(slot.time);
    readyErase(slot.id);
    if (live_ == 0) {
        // Last core out ends the run: hand control back to run().
        GuestContext::switchTo(slot.ctx, schedCtx_);
        return; // resumed by a later run()
    }
    dispatchFrom(slot.ctx);
    // Resumed by a later run(): fall through into the entryThunk loop.
}

void
Engine::run()
{
    live_ = 0;
    for (uint32_t i = 0; i < numCores_; ++i) {
        Slot &slot = slots_[i];
        if (!slot.hasBody) {
            slot.finished = true;
            continue;
        }
        slot.finished = false;
        slot.wakePending = false;
        slot.wakeTime = 0;
        if (!slot.ctx.valid())
            slot.ctx.init(stacks_.guardedStack(i), stacks_.usableBytes(),
                          &Engine::entryThunk, this);
        ++live_;
    }

    // Build the ready tree over runnable cores: fill the leaves, then
    // every internal node bottom-up.
    for (uint32_t i = 0; i < leafBase_; ++i) {
        const bool runnable =
            i < numCores_ && !slots_[i].finished && !slots_[i].blocked;
        tree_[leafBase_ + i] = runnable ? packKey(i, slots_[i].time)
                                        : kAbsent;
    }
    for (uint32_t n = leafBase_ - 1; n >= 1; --n)
        tree_[n] = std::min(tree_[2 * n], tree_[2 * n + 1]);

    // Dispatch chains run guest-to-guest; control only returns here once
    // the last live core finishes or a supervised interrupt unwinds a
    // dispatch back to the scheduler context (the loop guards against
    // nothing else).
    while (live_ > 0) {
        dispatchFrom(schedCtx_);
        running_ = kInvalidCore;
        if (abortPending_)
            throwPendingAbort();
    }
    running_ = kInvalidCore;
    // Posted stores captured near the end of the run commit here, so the
    // memory image is final when run() returns.
    drainAllEvents();
}

void
Engine::dispatchFrom(GuestContext &from)
{
    // Commit every remote op whose key precedes the earliest gate (ops
    // precede gates at equal times). Executions can wake blocked cores,
    // which changes the argmin, so re-ask it each round. The sentinels
    // order themselves: an empty queue (kNoOtherCore) exceeds every
    // gate time, and an empty ready set's time (keyTime(kAbsent))
    // exceeds every commit time, so when all live cores are blocked the
    // queue is the only way forward.
    PackedKey min_key = minReadyKey();
    while (cachedEventMin_ <= keyTime(min_key)) {
        executeOneEvent();
        min_key = minReadyKey();
    }
    SPMRT_ASSERT(min_key != kAbsent,
                 "deadlock: all %u live cores are blocked", live_);
    CoreId next_id = keyId(min_key);
    if (schedPerturb_) {
        // Any candidate satisfies the window-relaxed syncPoint bound
        // (candidate.time <= min + window <= minOther + window), so the
        // seeded pick always makes progress.
        collectWindowCandidates(keyTime(min_key));
        if (candidateIds_.size() > 1)
            next_id = candidateIds_[schedRng_.nextBounded(
                candidateIds_.size())];
    }
    Slot *next = &slots_[next_id];
    if (interruptDue(next->time) && checkInterrupts(next->time)) {
        // Supervised abort: leave the interrupted guest (if any)
        // suspended and unwind this thread, where run() throws the
        // SimAbort on the host stack. The machine is dead from here on;
        // nothing below may run.
        if (&from != &schedCtx_)
            GuestContext::switchTo(from, schedCtx_);
        return;
    }
    cachedOtherMin_ = minReadyTimeExcluding(next->id);
    if (obs::Tracer *t = tracer())
        t->instant(obs::kTraceSwitch, next->id, next->time, "switch");
    ++switches_;
    if (next->id == running_)
        return; // re-picked the yielding core: no host switch needed
    running_ = next->id;
    GuestContext::switchTo(from, next->ctx);
}

void
Engine::syncPoint(CoreId id)
{
    ++syncPoints_;
    Slot &slot = slots_[id];
    // The common case — this core still holds the global minimum — is a
    // single compare against the other runnable cores' minimum; the loop
    // body runs only when the core must actually yield. Under schedule
    // perturbation the bound is relaxed by the window so the scheduler's
    // off-minimum picks are admitted (guarding the "alone" sentinel
    // against overflow).
    while (true) {
        Cycles limit = otherReadyMin(id);
        if (schedPerturb_ && limit != kNoOtherCore)
            limit += schedWindow_;
        if (slot.time <= limit) {
            // Remote ops committing at or before this core's clock
            // precede its upcoming operation; commit them first (inline —
            // no switch), then re-check: a commit can wake an earlier
            // core this one must now yield to.
            if (cachedEventMin_ <= slot.time) {
                drainDueEvents(slot.time);
                continue;
            }
            return;
        }
        yield(id);
    }
}

void
Engine::yield(CoreId id)
{
    Slot &slot = slots_[id];
    foldHighWater(slot.time);
    readyUpdate(id, slot.time);
    dispatchFrom(slot.ctx);
}

void
Engine::block(CoreId id, ParkKind kind)
{
    Slot &slot = slots_[id];
    SPMRT_ASSERT(running_ == id, "block() from a non-running core");
    if (kind == ParkKind::Barrier && slot.wakePending) {
        // The guest wake raced ahead of the park (the waker's release
        // committed before this core was dispatched to its park): the
        // wake is already here, so consume it and keep running.
        slot.wakePending = false;
        if (slot.wakeTime > slot.time)
            slot.time = slot.wakeTime;
        return;
    }
    slot.blocked = true;
    slot.park = kind;
    foldHighWater(slot.time);
    readyErase(id);
    dispatchFrom(slot.ctx);
    SPMRT_ASSERT(!slot.blocked, "blocked core %u resumed while parked", id);
}

void
Engine::unblock(CoreId id, Cycles t)
{
    Slot &slot = slots_[id];
    if (!slot.blocked || slot.park != ParkKind::Barrier) {
        // The target has not reached its park yet (its own commit
        // completes after the waker's), or it is still waiting on its
        // own commit/drain and will only park at the barrier afterwards.
        // Hold the wake; the target's Barrier block() consumes it.
        slot.wakePending = true;
        if (t > slot.wakeTime)
            slot.wakeTime = t;
        return;
    }
    slot.blocked = false;
    if (t > slot.time)
        slot.time = t;
    foldHighWater(slot.time);
    readyInsert(id, slot.time);
    // The woken core joins the running core's "others"; min-fold keeps
    // the syncPoint cache exact.
    if (running_ != kInvalidCore && slot.time < cachedOtherMin_)
        cachedOtherMin_ = slot.time;
}

void
Engine::commitWake(CoreId id, Cycles t)
{
    Slot &slot = slots_[id];
    SPMRT_ASSERT(slot.blocked, "commitWake() of a core that is not parked");
    SPMRT_ASSERT(slot.park == (t > 0 ? ParkKind::Commit : ParkKind::Drain),
                 "commitWake() kind mismatch for core %u", id);
    slot.blocked = false;
    if (t > slot.time)
        slot.time = t;
    foldHighWater(slot.time);
    readyInsert(id, slot.time);
    if (running_ != kInvalidCore && slot.time < cachedOtherMin_)
        cachedOtherMin_ = slot.time;
}

void
Engine::foreignClockChange(Slot &slot)
{
    foldHighWater(slot.time);
    if (ready(slot.id))
        readyUpdate(slot.id, slot.time);
    if (running_ != kInvalidCore)
        cachedOtherMin_ = minReadyTimeExcluding(running_);
}

// ---- Remote-op commit queue ----------------------------------------------

void
Engine::scheduleRemoteOp(CoreId issuer, Cycles commit)
{
    events_.push_back(packKey(issuer, commit));
    std::push_heap(events_.begin(), events_.end(),
                   std::greater<PackedKey>());
    cachedEventMin_ = keyTime(events_[0]);
}

void
Engine::executeOneEvent()
{
    SPMRT_ASSERT(!events_.empty(), "no pending remote op to execute");
    std::pop_heap(events_.begin(), events_.end(),
                  std::greater<PackedKey>());
    const CoreId issuer = keyId(events_.back());
    events_.pop_back();
    SPMRT_ASSERT(issuer < opSinks_.size() && opSinks_[issuer] != nullptr,
                 "remote op scheduled by core %u without a sink", issuer);
    // The sink performs the memory-system call (with the captured issue
    // time) and wakes the issuer if the op was blocking; no context
    // switch happens here, so events drain inline on whichever path
    // noticed them.
    const Cycles next = opSinks_[issuer]->executeHeadOp();
    if (next != kNoPendingOp) {
        events_.push_back(packKey(issuer, next));
        std::push_heap(events_.begin(), events_.end(),
                       std::greater<PackedKey>());
    }
    cachedEventMin_ = events_.empty() ? kNoOtherCore : keyTime(events_[0]);
}

void
Engine::drainAllEvents()
{
    while (!events_.empty())
        executeOneEvent();
}

// ---- Reference oracle: the ready-set queries by linear scan --------------

Engine::PackedKey
Engine::scanMinKey() const
{
    // Deterministic argmin over unfinished, unblocked cores; ties favor
    // lower id.
    const Slot *min_slot = nullptr;
    for (uint32_t i = 0; i < numCores_; ++i) {
        const Slot &slot = slots_[i];
        if (slot.finished || slot.blocked)
            continue;
        if (min_slot == nullptr || slot.time < min_slot->time)
            min_slot = &slot;
    }
    return min_slot == nullptr ? kAbsent
                               : packKey(min_slot->id, min_slot->time);
}

Cycles
Engine::scanOtherMin(CoreId self) const
{
    Cycles min_time = kNoOtherCore;
    for (uint32_t i = 0; i < numCores_; ++i) {
        const Slot &slot = slots_[i];
        if (slot.finished || slot.blocked || slot.id == self)
            continue;
        if (slot.time < min_time)
            min_time = slot.time;
    }
    return min_time;
}

// ---- Winner tree over runnable cores -------------------------------------

void
Engine::treeSet(CoreId id, PackedKey key)
{
    uint32_t pos = leafBase_ + id;
    tree_[pos] = key;
    while (pos > 1) {
        // Conditional-select form: which side wins is effectively
        // random, so a branch here would mispredict often.
        const PackedKey sibling = tree_[pos ^ 1];
        key = sibling < key ? sibling : key;
        pos >>= 1;
        tree_[pos] = key;
    }
}

void
Engine::readyInsert(CoreId id, Cycles t)
{
    SPMRT_ASSERT(!ready(id), "core %u already in the ready tree", id);
    treeSet(id, packKey(id, t));
}

void
Engine::readyErase(CoreId id)
{
    SPMRT_ASSERT(ready(id), "core %u not in the ready tree", id);
    treeSet(id, kAbsent);
}

void
Engine::readyUpdate(CoreId id, Cycles t)
{
    SPMRT_ASSERT(ready(id), "core %u not in the ready tree", id);
    treeSet(id, packKey(id, t));
}

Cycles
Engine::minReadyTimeExcluding(CoreId self) const
{
    // The siblings along self's leaf-to-root path partition every other
    // leaf, so their least key is the minimum over all other cores.
    PackedKey min_key = kAbsent;
    for (uint32_t pos = leafBase_ + self; pos > 1; pos >>= 1) {
        const PackedKey sibling = tree_[pos ^ 1];
        min_key = sibling < min_key ? sibling : min_key;
    }
    return min_key == kAbsent ? kNoOtherCore : keyTime(min_key);
}

void
Engine::collectWindowCandidates(Cycles min_time)
{
    candidateIds_.clear();
    if (reference()) {
        // Oracle: an id-ordered scan of the runnable cores.
        for (uint32_t i = 0; i < numCores_; ++i) {
            const Slot &slot = slots_[i];
            if (!slot.finished && !slot.blocked &&
                slot.time - min_time <= schedWindow_)
                candidateIds_.push_back(slot.id);
        }
        return;
    }
    // Bounded descent: every leaf within the window of the root's time,
    // pruning subtrees whose least key already exceeds it. Pushing the
    // right child first visits leaves left to right, so the ids come out
    // ascending and the RNG consumes exactly the same index stream as
    // the oracle's id-ordered scan.
    descentStack_.clear();
    descentStack_.push_back(1);
    while (!descentStack_.empty()) {
        const uint32_t pos = descentStack_.back();
        descentStack_.pop_back();
        const PackedKey key = tree_[pos];
        if (key == kAbsent || keyTime(key) - min_time > schedWindow_)
            continue;
        if (pos >= leafBase_) {
            candidateIds_.push_back(keyId(key));
            continue;
        }
        descentStack_.push_back(2 * pos + 1);
        descentStack_.push_back(2 * pos);
    }
}

// ---- Interrupts (watchdog, cycle limit, cancel flag) ---------------------

const char *
abortKindName(AbortKind kind)
{
    switch (kind) {
      case AbortKind::Hang:
        return "hang";
      case AbortKind::CycleBudget:
        return "cycle_budget";
      case AbortKind::Deadline:
        return "deadline";
      case AbortKind::Cancelled:
        return "cancelled";
    }
    return "unknown";
}

std::string
Engine::stateDump() const
{
    std::string report = "engine state:\n";
    for (uint32_t i = 0; i < numCores_; ++i) {
        const Slot &slot = slots_[i];
        if (!slot.hasBody)
            continue;
        report += log::format(
            "  core %3u: t=%llu %s\n", slot.id,
            static_cast<unsigned long long>(slot.time),
            slot.finished ? "finished"
                           : (slot.blocked ? "BLOCKED" : "runnable"));
    }
    if (wdDump_)
        report += wdDump_();
    return report;
}

bool
Engine::raiseOrPanic(AbortKind kind, std::string summary)
{
    std::string dump = stateDump();
    if (supervised_) {
        abortPending_ = true;
        abortKind_ = kind;
        abortSummary_ = std::move(summary);
        abortDump_ = std::move(dump);
        return true;
    }
    std::fputs(summary.c_str(), stderr);
    std::fputs("\n", stderr);
    std::fputs(dump.c_str(), stderr);
    std::fflush(stderr);
    SPMRT_PANIC("%s: unrecoverable abort (%u live cores, see dump above)",
                abortKindName(kind), live_);
}

void
Engine::throwPendingAbort()
{
    abortPending_ = false;
    throw SimAbort(abortKind_, std::move(abortSummary_),
                   std::move(abortDump_));
}

bool
Engine::checkInterrupts(Cycles next_time)
{
    if (cancelFlag_ != nullptr) {
        uint32_t request = cancelFlag_->load(std::memory_order_acquire);
        if (request != kCancelNone) {
            AbortKind kind = request == kCancelShutdown
                                 ? AbortKind::Cancelled
                                 : AbortKind::Deadline;
            return raiseOrPanic(
                kind,
                log::format(
                    "%s: supervisor cancelled the run at cycle %llu",
                    abortKindName(kind),
                    static_cast<unsigned long long>(next_time)));
        }
    }
    if (cycleLimit_ != 0 && next_time > cycleLimit_) {
        return raiseOrPanic(
            AbortKind::CycleBudget,
            log::format("cycle budget exceeded: next dispatch at cycle "
                        "%llu is past the armed limit %llu",
                        static_cast<unsigned long long>(next_time),
                        static_cast<unsigned long long>(cycleLimit_)));
    }
    if (watchdogDue(next_time))
        return watchdogCheck(next_time);
    return false;
}

bool
Engine::watchdogCheck(Cycles next_time)
{
    bool cycles_over =
        wdCycles_ != 0 && next_time > progressTime_ + wdCycles_;
    bool switches_over =
        wdSwitches_ != 0 && switches_ > progressSwitches_ + wdSwitches_;
    // Each enabled bound must independently expire: cycle expiry alone can
    // be one long memory stall, switch expiry alone can be legitimate
    // backoff spinning at a nearly frozen clock.
    if ((wdCycles_ != 0 && !cycles_over) ||
        (wdSwitches_ != 0 && !switches_over))
        return false;

    return raiseOrPanic(
        AbortKind::Hang,
        log::format("watchdog expired: no progress for %llu cycles / "
                    "%llu switches (last progress at cycle %llu), "
                    "global quiescence failure",
                    static_cast<unsigned long long>(next_time -
                                                    progressTime_),
                    static_cast<unsigned long long>(switches_ -
                                                    progressSwitches_),
                    static_cast<unsigned long long>(progressTime_)));
}

} // namespace spmrt
