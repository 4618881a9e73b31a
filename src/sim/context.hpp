/**
 * @file
 * Stackful coroutine contexts used to give every simulated core its own
 * host call stack, and the one mapping those stacks live in.
 *
 * The switch is a hand-rolled x86-64 System V assembly routine
 * (context_x86_64.S); x86-64 is required.
 */

#ifndef SPMRT_SIM_CONTEXT_HPP
#define SPMRT_SIM_CONTEXT_HPP

#include <cstddef>
#include <cstdint>

#if !defined(__x86_64__)
#error "spmrt requires an x86-64 host: coroutine switches are x86-64 assembly"
#endif

// ThreadSanitizer cannot follow a hand-rolled stack switch; every
// context carries a TSan fiber handle and switchTo() announces the
// switch (see __tsan_switch_to_fiber). Without this, each worker
// thread's coroutine handoffs would read as torn shadow stacks.
#if defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define SPMRT_TSAN 1
#endif
#elif defined(__SANITIZE_THREAD__)
#define SPMRT_TSAN 1
#endif

// AddressSanitizer likewise tracks one stack per thread; switchTo()
// announces each switch (__sanitizer_start/finish_switch_fiber) so its
// stack bookkeeping follows the coroutine actually running.
#if defined(__has_feature)
#if __has_feature(address_sanitizer)
#define SPMRT_ASAN 1
#endif
#elif defined(__SANITIZE_ADDRESS__)
#define SPMRT_ASAN 1
#endif

namespace spmrt {

/**
 * An execution context: a host stack plus saved machine state.
 *
 * A GuestContext is created suspended; the first switch into it invokes
 * @c entry(arg) on the stack it was given. The entry function must never
 * return; it must switch away forever once its work is done. A context
 * that is never init()'d names the host thread's own stack (a root
 * context, like the engine's scheduler context).
 */
class GuestContext
{
  public:
    GuestContext() = default;
    ~GuestContext();

    GuestContext(const GuestContext &) = delete;
    GuestContext &operator=(const GuestContext &) = delete;

    /**
     * Lay out the first activation frame on the stack
     * [@p stack_lo, @p stack_lo + @p stack_bytes) so that the first
     * switch into this context calls @p entry(@p arg) there. The stack
     * stays owned by the caller (see CoroutineStacks).
     */
    void init(void *stack_lo, size_t stack_bytes, void (*entry)(void *),
              void *arg);

    /** True once init() has been called. */
    bool valid() const { return stackLo_ != nullptr; }

    /**
     * Declare that this suspended context never resumes: its frames are
     * dropped without unwinding, and the heap memory they own with them.
     * Under ASan this tells LeakSanitizer the leak is deliberate, so it
     * keeps reporting every other one; elsewhere it does nothing.
     */
    void abandon() const;

    /**
     * Suspend the currently running context into @p from and resume
     * @p to. Returns when something later switches back into @p from.
     */
    static void switchTo(GuestContext &from, GuestContext &to);

  private:
    /** First-activation entry: finishes the sanitizer switch, then
     *  calls the entry function recorded at the top of the stack. */
    static void start(void *frame);

    void *sp_ = nullptr;      ///< saved stack pointer while suspended
    void *stackLo_ = nullptr; ///< low end of the stack (init() only)

#if defined(SPMRT_ASAN)
    /**
     * The stack ASan is told about when something switches into this
     * context: the stack given to init() for coroutines, the host
     * thread's stack (captured the first time it switches away) for a
     * root context.
     */
    const void *asanLo_ = nullptr;
    size_t asanBytes_ = 0;
#endif

#if defined(SPMRT_TSAN)
    /**
     * TSan fiber handle: created by init() for coroutine contexts, or
     * captured lazily (the host thread's implicit fiber) the first time
     * a root context switches away. Owned (and destroyed) only when
     * init() created it.
     */
    void *tsanFiber_ = nullptr;
#endif
};

/**
 * One anonymous mapping carved into @c count equal coroutine stacks, each
 * with an inaccessible guard page at its low (overflow) end.
 *
 * Nothing is mapped until the first guardedStack() call, and each stack's
 * guard page is set when that stack is first handed out, so an engine
 * whose cores never run maps nothing and one whose cores all run pays one
 * mmap, one mprotect per core and one munmap. Under ASan each stack is
 * four times the requested size (redzones inflate every frame).
 */
class CoroutineStacks
{
  public:
    /** Plan @p count stacks of at least @p stack_bytes usable bytes. */
    CoroutineStacks(uint32_t count, size_t stack_bytes);
    ~CoroutineStacks();

    CoroutineStacks(const CoroutineStacks &) = delete;
    CoroutineStacks &operator=(const CoroutineStacks &) = delete;

    /**
     * Low end of stack @p i's usableBytes() (mapping the region on first
     * use and protecting @p i's guard page). Call once per stack.
     */
    void *guardedStack(uint32_t i);

    /** Usable bytes of every stack (the guard page excluded). */
    size_t usableBytes() const { return slotBytes_ - pageBytes_; }

  private:
    uint32_t count_;
    size_t pageBytes_;
    size_t slotBytes_;     ///< guard page + page-rounded stack
    void *base_ = nullptr; ///< the mapping, or nullptr before first use
};

} // namespace spmrt

#endif // SPMRT_SIM_CONTEXT_HPP
