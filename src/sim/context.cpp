#include "sim/context.hpp"

#include <sys/mman.h>
#include <unistd.h>

#include "common/log.hpp"

#if defined(SPMRT_ASAN)
#include <pthread.h>
#include <sanitizer/asan_interface.h>
#include <sanitizer/common_interface_defs.h>
#include <sanitizer/lsan_interface.h>
#endif

#if defined(SPMRT_TSAN)
#include <sanitizer/tsan_interface.h>
#endif

namespace spmrt {

namespace {

/**
 * ASan redzones inflate every stack frame several-fold, so a guest
 * stack sized for production frames overflows under instrumentation.
 * Scale the caller's request rather than making every config
 * sanitizer-aware.
 */
constexpr size_t
scaledStackBytes(size_t stack_bytes)
{
#if defined(SPMRT_ASAN)
    return stack_bytes * 4;
#else
    return stack_bytes;
#endif
}

/** Entry function and argument, stored at the top of a fresh stack. */
struct StartFrame
{
    void (*entry)(void *);
    void *arg;
};

#if defined(SPMRT_ASAN)
/** The calling thread's own stack, as [@p lo, @p lo + @p bytes). */
void
threadStackBounds(const void *&lo, size_t &bytes)
{
    pthread_attr_t attr;
    void *addr = nullptr;
    size_t size = 0;
    if (::pthread_getattr_np(::pthread_self(), &attr) != 0)
        SPMRT_FATAL("cannot read the host thread's stack bounds");
    ::pthread_attr_getstack(&attr, &addr, &size);
    ::pthread_attr_destroy(&attr);
    lo = addr;
    bytes = size;
}
#endif

} // namespace

extern "C" void spmrt_ctx_swap(void **save_sp, void *restore_sp);
extern "C" void spmrt_ctx_trampoline();

GuestContext::~GuestContext()
{
#if defined(SPMRT_TSAN)
    // Only init()'d contexts own their fiber; a root context's handle
    // is the host thread's implicit fiber, which TSan owns.
    if (stackLo_ != nullptr && tsanFiber_ != nullptr)
        __tsan_destroy_fiber(tsanFiber_);
#endif
}

void
GuestContext::init(void *stack_lo, size_t stack_bytes, void (*entry)(void *),
                   void *arg)
{
    SPMRT_ASSERT(stackLo_ == nullptr, "context initialized twice");
    stackLo_ = stack_lo;
#if defined(SPMRT_ASAN)
    asanLo_ = stack_lo;
    asanBytes_ = stack_bytes;
#endif
#if defined(SPMRT_TSAN)
    tsanFiber_ = __tsan_create_fiber(0);
#endif

    // Build the initial frame that spmrt_ctx_swap will "return" into.
    // Memory layout ascending from the saved sp:
    //   [6 callee-saved slots][trampoline][frame][start][padding x2]
    //   [frame: StartFrame{entry, arg}]
    // The saved sp must be ~= 8 (mod 16) so that the trampoline's call
    // site sees a 16-byte-aligned stack (see context_x86_64.S).
    auto top = reinterpret_cast<uintptr_t>(stack_lo) + stack_bytes;
    top &= ~uintptr_t(15);
    auto *frame = reinterpret_cast<StartFrame *>(top) - 1;
    frame->entry = entry;
    frame->arg = arg;
    auto *slot = reinterpret_cast<uint64_t *>(frame);
    *--slot = 0; // padding
    *--slot = 0; // padding
    *--slot = reinterpret_cast<uint64_t>(&GuestContext::start);
    *--slot = reinterpret_cast<uint64_t>(frame);
    *--slot = reinterpret_cast<uint64_t>(&spmrt_ctx_trampoline);
    for (int i = 0; i < 6; ++i)
        *--slot = 0; // rbp, rbx, r12..r15
    sp_ = slot;
    SPMRT_ASSERT((reinterpret_cast<uintptr_t>(sp_) & 15) == 8,
                 "bad initial coroutine stack alignment");
}

void
GuestContext::start(void *frame)
{
#if defined(SPMRT_ASAN)
    // The switch into a fresh stack ends here, not in switchTo().
    __sanitizer_finish_switch_fiber(nullptr, nullptr, nullptr);
#endif
    const StartFrame *start = static_cast<const StartFrame *>(frame);
    start->entry(start->arg);
    SPMRT_PANIC("coroutine entry returned");
}

#if defined(SPMRT_ASAN)
// The frames carry ASan redzones; reading them must not trip ASan.
__attribute__((no_sanitize_address))
#endif
void
GuestContext::abandon() const
{
#if defined(SPMRT_ASAN)
    // Every heap object a word of the live frames points at (the
    // callee-saved registers are spilled at sp_) becomes a LeakSanitizer
    // root, so what those objects own is not reported either.
    auto *word = static_cast<void *const *>(sp_);
    auto *top = reinterpret_cast<void *const *>(
        static_cast<const char *>(asanLo_) + asanBytes_);
    for (; word < top; ++word)
        __lsan_ignore_object(*word);
#endif
}

void
GuestContext::switchTo(GuestContext &from, GuestContext &to)
{
#if defined(SPMRT_TSAN)
    // The suspending side remembers the fiber it ran on (lazily
    // capturing the thread's implicit fiber for root contexts) and
    // announces the target before the raw stack swap. Flag 0 makes the
    // switch a synchronization point, so TSan orders each coroutine's
    // accesses after whatever ran before the switch.
    from.tsanFiber_ = __tsan_get_current_fiber();
    SPMRT_ASSERT(to.tsanFiber_ != nullptr,
                 "switch into a context TSan has never seen");
    __tsan_switch_to_fiber(to.tsanFiber_, 0);
#endif
#if defined(SPMRT_ASAN)
    if (from.asanLo_ == nullptr)
        threadStackBounds(from.asanLo_, from.asanBytes_);
    SPMRT_ASSERT(to.asanLo_ != nullptr,
                 "switch into a context ASan has never seen");
    void *fake_stack = nullptr;
    __sanitizer_start_switch_fiber(&fake_stack, to.asanLo_, to.asanBytes_);
#endif
    spmrt_ctx_swap(&from.sp_, to.sp_);
#if defined(SPMRT_ASAN)
    __sanitizer_finish_switch_fiber(fake_stack, nullptr, nullptr);
#endif
}

CoroutineStacks::CoroutineStacks(uint32_t count, size_t stack_bytes)
    : count_(count),
      pageBytes_(static_cast<size_t>(::sysconf(_SC_PAGESIZE)))
{
    stack_bytes = scaledStackBytes(stack_bytes);
    slotBytes_ =
        (stack_bytes + pageBytes_ - 1) / pageBytes_ * pageBytes_ + pageBytes_;
}

CoroutineStacks::~CoroutineStacks()
{
    if (base_ == nullptr)
        return;
    const size_t bytes = slotBytes_ * count_;
#if defined(SPMRT_ASAN)
    // A supervised abort leaves guest frames suspended on these stacks,
    // and their redzone poison outlives the munmap in ASan's shadow. The
    // next mapping at the same addresses (a retry's Machine) would
    // inherit it, so clear it first.
    __asan_unpoison_memory_region(base_, bytes);
#endif
    ::munmap(base_, bytes);
}

void *
CoroutineStacks::guardedStack(uint32_t i)
{
    SPMRT_ASSERT(i < count_, "coroutine stack %u out of range", i);
    if (base_ == nullptr) {
        const size_t bytes = slotBytes_ * count_;
        void *base = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                            MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
        if (base == MAP_FAILED)
            SPMRT_FATAL("cannot mmap %zu bytes of coroutine stacks", bytes);
        base_ = base;
    }
    // Guard page at the low (overflow) end of the downward-growing stack.
    char *slot = static_cast<char *>(base_) + size_t(i) * slotBytes_;
    if (::mprotect(slot, pageBytes_, PROT_NONE) != 0)
        SPMRT_FATAL("cannot protect coroutine guard page");
    return slot + pageBytes_;
}

} // namespace spmrt
