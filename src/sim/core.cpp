#include "sim/core.hpp"

#include "obs/stats.hpp"

namespace spmrt {

namespace {

/** True when [addr, addr+bytes) sits entirely inside one local window. */
inline bool
wholeRangeLocal(const Core &core, Addr addr, uint32_t bytes)
{
    return bytes == 0 ||
           (core.isLocalSpm(addr) && core.isLocalSpm(addr + bytes - 1));
}

} // namespace

void
Core::read(Addr addr, void *out, uint32_t bytes)
{
    // The burst splits on LLC lines, issues one chunk per cycle, and
    // completes at the slowest chunk; stats and checker bookkeeping stay
    // hoisted out of the per-chunk loop. A burst that leaves this core's
    // scratchpad is globally visible traffic and takes the blocking
    // issue decision like a scalar load.
    issueBlocking<MemOp::LoadBurst>(
        {.addr = addr, .bytes = bytes, .dst = out},
        wholeRangeLocal(*this, addr, bytes));
    const uint32_t chunks = MemorySystem::burstChunks(addr, bytes);
    stats_.isa.loads += chunks;
    stats_.isa.instructions += chunks;
}

void
Core::write(Addr addr, const void *in, uint32_t bytes)
{
    // Posted per chunk: the core advances only past the issue slots, not
    // the stores' arrival (fence() waits on the drain time).
    issuePosted<MemOp::StoreBurst>(
        {.addr = addr, .bytes = bytes, .src = in},
        wholeRangeLocal(*this, addr, bytes));
    const uint32_t chunks = MemorySystem::burstChunks(addr, bytes);
    stats_.isa.stores += chunks;
    stats_.isa.instructions += chunks;
}

// ---- Remote-op capture and commit ----------------------------------------

void
Core::capture(MemOp op)
{
    CapturedOp &slot = capturedOps_.emplace_back();
    slot.op = op;
    slot.issue = now();
    if (op.kind == MemOp::StoreBurst) {
        const auto *first = static_cast<const uint8_t *>(op.src);
        slot.payload.assign(first, first + op.bytes);
        slot.op.src = slot.payload.data();
    } else if (MemOp::posted(op.kind)) {
        std::memcpy(&slot.value, op.src, op.bytes);
        slot.op.src = &slot.value;
    }
    if (capturedOps_.size() == 1) // a new head: announce its commit key
        engine_.scheduleRemoteOp(id_, slot.issue + commitDelta_);
}

Cycles
Core::executeHeadOp()
{
    SPMRT_ASSERT(!capturedOps_.empty(),
                 "core %u has no captured op to commit", id_);
    // apply() fires the checker hook here, at the commit, where the op's
    // effect lands in the memory system. The guest's task context cannot
    // have moved past the op — blocking issuers are parked until the
    // commit, and posted issuers fence before every task boundary.
    const CapturedOp &head = capturedOps_.front();
    const MemOp::Kind kind = head.op.kind;
    const Cycles done = applyKind(
        head.op, head.issue, std::make_index_sequence<MemOp::StoreBurst + 1>());
    capturedOps_.pop_front();
    if (!MemOp::posted(kind))
        engine_.commitWake(id_, done);
    else if (--pendingPosted_ == 0 && fenceWaiting_)
        engine_.commitWake(id_, 0);
    return capturedOps_.empty() ? Engine::kNoPendingOp
                                : capturedOps_.front().issue + commitDelta_;
}

void
Core::registerStats(obs::StatRegistry &registry) const
{
    std::string prefix = log::format("core/%03u/", id_);
    auto add = [&](const char *name, const uint64_t &value) {
        registry.add(prefix + name, &value);
    };
    add("isa/instructions", stats_.isa.instructions);
    add("isa/loads", stats_.isa.loads);
    add("isa/stores", stats_.isa.stores);
    add("isa/amos", stats_.isa.amos);
    add("isa/fences", stats_.isa.fences);
    add("rt/tasks_executed", stats_.rt.tasksExecuted);
    add("rt/tasks_spawned", stats_.rt.tasksSpawned);
    add("rt/steal_attempts", stats_.rt.stealAttempts);
    add("rt/steal_hits", stats_.rt.stealHits);
    add("rt/stack_frames_pushed", stats_.rt.stackFramesPushed);
    add("rt/stack_frames_overflowed", stats_.rt.stackFramesOverflowed);
    add("rt/spawns_inlined", stats_.rt.spawnsInlined);
}

} // namespace spmrt
