/**
 * @file
 * Hot-loop performance regressions (see DESIGN.md section 11).
 *
 * 1. Steady-state allocation freedom: after warmup, DmtEngine::step()
 *    must not touch the heap.  A counting global operator new asserts
 *    zero allocations across a 10k-cycle window of a warmed-up dmt6
 *    run and of a warmed-up baseline run.  Any change that
 *    reintroduces per-cycle allocation (a temporary vector in a stage,
 *    a node-based container on a hot path) fails this test
 *    deterministically.
 *
 * 2. Construction footprint: the same allocator sums the bytes and
 *    counts the allocations an engine makes while it is built, so
 *    tables sized for the worst case (or for a feature the machine
 *    never uses), per-slot reserves and a second copy of the program
 *    image show up.
 *
 * 3. Issue-order semantics: the ReadyQueue must pop oldest-first (by
 *    the dispatch-time sequence number) and an FU-stalled instruction
 *    re-pushed with its original seq must keep its age priority —
 *    these two properties are what make the indexed ready structure
 *    bit-identical to the old sort-every-cycle implementation.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#if defined(__GLIBC__)
#include <execinfo.h>
#endif

#include "dmt/engine.hh"
#include "dmt/ready_queue.hh"
#include "exp/experiments.hh"
#include "sim/checkpoint.hh"
#include "sim/functional_core.hh"
#include "workloads/workloads.hh"

// ---------------------------------------------------------------------
// Counting global allocator hooks.  Counting is off by default so the
// test harness itself (gtest, workload construction) is not measured;
// the steady-state window toggles it on around engine.step() calls.
// ---------------------------------------------------------------------

namespace
{

std::atomic<bool> g_count_allocs{false};
/** Print a backtrace for the first few counted allocations. */
std::atomic<bool> g_trace_allocs{false};
std::atomic<unsigned long long> g_alloc_count{0};
std::atomic<unsigned long long> g_alloc_bytes{0};

void *
countedAlloc(std::size_t n)
{
    if (g_count_allocs.load(std::memory_order_relaxed)) {
        const auto prior =
            g_alloc_count.fetch_add(1, std::memory_order_relaxed);
        g_alloc_bytes.fetch_add(n, std::memory_order_relaxed);
#if defined(__GLIBC__)
        // Diagnose the first offender: raw return addresses to stderr
        // (feed them to addr2line -e test_hotpath to locate the call).
        if (prior < 6 && g_trace_allocs.load(std::memory_order_relaxed)) {
            void *frames[32];
            const int depth = backtrace(frames, 32);
            backtrace_symbols_fd(frames, depth, 2);
        }
#endif
    }
    if (n == 0)
        n = 1;
    void *p = std::malloc(n);
    if (!p)
        throw std::bad_alloc();
    return p;
}

} // namespace

void *
operator new(std::size_t n)
{
    return countedAlloc(n);
}

void *
operator new[](std::size_t n)
{
    return countedAlloc(n);
}

void *
operator new(std::size_t n, std::align_val_t align)
{
    if (g_count_allocs.load(std::memory_order_relaxed)) {
        g_alloc_count.fetch_add(1, std::memory_order_relaxed);
        g_alloc_bytes.fetch_add(n, std::memory_order_relaxed);
    }
    void *p = std::aligned_alloc(static_cast<std::size_t>(align),
                                 (n + static_cast<std::size_t>(align) - 1)
                                     & ~(static_cast<std::size_t>(align) - 1));
    if (!p)
        throw std::bad_alloc();
    return p;
}

void *
operator new[](std::size_t n, std::align_val_t align)
{
    return ::operator new(n, align);
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::align_val_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::align_val_t) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

namespace dmt
{
namespace
{

// ---------------------------------------------------------------------
// Steady-state allocation freedom
// ---------------------------------------------------------------------

/** Allocations made by 10k steps of a warmed-up engine on go. */
unsigned long long
steadyStateAllocations(SimConfig cfg)
{
    cfg.max_retired = 100000000; // never cap inside the window

    const Program prog = buildWorkload("go");
    DmtEngine engine(cfg, prog);

    // Warm up: let every pool, ring, scratch vector and index table
    // reach its high-water capacity.  40k cycles retires well over
    // 60k instructions on either machine (see tests/golden/go.json).
    constexpr int kWarmupCycles = 40000;
    for (int i = 0; i < kWarmupCycles && !engine.done(); ++i)
        engine.step();
    EXPECT_FALSE(engine.done())
        << "workload finished during warmup; window would be idle";

    constexpr int kWindowCycles = 10000;
    g_alloc_count.store(0, std::memory_order_relaxed);
    g_trace_allocs.store(true, std::memory_order_relaxed);
    g_count_allocs.store(true, std::memory_order_relaxed);
    for (int i = 0; i < kWindowCycles && !engine.done(); ++i)
        engine.step();
    g_count_allocs.store(false, std::memory_order_relaxed);
    g_trace_allocs.store(false, std::memory_order_relaxed);

    EXPECT_FALSE(engine.done());
    EXPECT_TRUE(engine.goldenOk()) << engine.goldenError();
    return g_alloc_count.load(std::memory_order_relaxed);
}

TEST(HotPath, ZeroAllocationsInWarmSteadyState)
{
    // dmt6 exercises every structure; the baseline never opens a
    // lookahead episode, so it covers the trackers' lazy reservation.
    EXPECT_EQ(steadyStateAllocations(SimConfig::dmt(6, 2)), 0ull)
        << "dmt6: steady-state step() touched the heap; a hot-path "
           "container or temporary has regressed (see DESIGN.md "
           "section 11)";
    EXPECT_EQ(steadyStateAllocations(exp::baseline()), 0ull)
        << "baseline: steady-state step() touched the heap (see "
           "DESIGN.md section 11)";
}

// ---------------------------------------------------------------------
// Construction footprint
// ---------------------------------------------------------------------

/** What constructing one engine allocated. */
struct Footprint
{
    unsigned long long bytes = 0;
    unsigned long long allocs = 0;
};

/** Allocations made while constructing an engine for @p prog, resumed
 *  from @p resume when set. */
Footprint
constructionFootprint(const SimConfig &cfg, const Program &prog,
                      const Checkpoint *resume = nullptr)
{
    g_alloc_bytes.store(0, std::memory_order_relaxed);
    g_alloc_count.store(0, std::memory_order_relaxed);
    g_count_allocs.store(true, std::memory_order_relaxed);
    {
        const DmtEngine engine(cfg, prog, resume);
        g_count_allocs.store(false, std::memory_order_relaxed);
    }
    return {g_alloc_bytes.load(std::memory_order_relaxed),
            g_alloc_count.load(std::memory_order_relaxed)};
}

TEST(HotPath, EngineConstructionFootprint)
{
    // Tables are sized for what a machine can use, and reserved when
    // it first does: the lookahead trackers on their first episode,
    // and the per-slot waiter, subscription and calendar lists as
    // their node pools fill, not one reserve per slot.
    constexpr unsigned long long kMiB = 1ull << 20;
    const Program prog = buildWorkload("go");
    const Footprint base = constructionFootprint(exp::baseline(), prog);
    const Footprint dmt6 = constructionFootprint(SimConfig::dmt(6, 2), prog);
    RecordProperty("baseline_bytes", std::to_string(base.bytes));
    RecordProperty("baseline_allocs", std::to_string(base.allocs));
    RecordProperty("dmt6_bytes", std::to_string(dmt6.bytes));
    RecordProperty("dmt6_allocs", std::to_string(dmt6.allocs));
    EXPECT_LT(base.bytes, 3 * kMiB / 4)
        << "baseline engine allocated " << base.bytes << " bytes";
    EXPECT_LT(dmt6.bytes, kMiB)
        << "dmt6 engine allocated " << dmt6.bytes << " bytes";
    EXPECT_LT(dmt6.allocs, 200u)
        << "dmt6 engine made " << dmt6.allocs << " allocations";

    // A resumed engine and its golden checker share the checkpoint's
    // pages, so sixteen more pages in the checkpoint cost map entries,
    // not page bytes.
    FunctionalCore core(prog);
    core.run(20000);
    const Checkpoint small = Checkpoint::capture(core);
    Checkpoint big = small;
    for (u32 i = 0; i < 16; ++i)
        big.mem.write32(0x40000000u + i * MainMemory::kPageSize, i + 1);
    const unsigned long long resumed_small =
        constructionFootprint(SimConfig::dmt(6, 2), prog, &small).bytes;
    const unsigned long long resumed_big =
        constructionFootprint(SimConfig::dmt(6, 2), prog, &big).bytes;
    RecordProperty("dmt6_resumed_bytes", std::to_string(resumed_small));
    EXPECT_LT(resumed_big, resumed_small + MainMemory::kPageSize)
        << "resuming from 16 more pages allocated "
        << (resumed_big - resumed_small) << " more bytes";

    // A fresh engine loads the program image once and forks its
    // checker from it, so it allocates one copy of the data segment
    // more than an engine resumed at instruction 0, whose memory and
    // checker share the checkpoint's pages.  Loading a second copy for
    // the checker would add the segment again.
    for (const char *name : {"compress", "go"}) {
        const Program image = buildWorkload(name);
        const Checkpoint start = Checkpoint::capture(FunctionalCore(image));
        const unsigned long long data_bytes =
            start.mem.numPages() * MainMemory::kPageSize;
        const unsigned long long fresh =
            constructionFootprint(exp::baseline(), image).bytes;
        const unsigned long long resumed =
            constructionFootprint(exp::baseline(), image, &start).bytes;
        RecordProperty(std::string(name) + "_fresh_excess_bytes",
                       std::to_string(fresh - resumed));
        EXPECT_LT(fresh, resumed + data_bytes + MainMemory::kPageSize / 2)
            << name << ": a fresh engine allocated " << (fresh - resumed)
            << " bytes more than one resumed at instruction 0 ("
            << data_bytes << " bytes of data pages)";
    }
}

// ---------------------------------------------------------------------
// Issue-order semantics of the ready structure
// ---------------------------------------------------------------------

TEST(HotPath, ReadyQueuePopsOldestFirst)
{
    ReadyQueue q;
    // Adversarial insertion order: descending, ascending, interleaved.
    const u64 seqs[] = {90, 10, 50, 30, 70, 20, 80, 40, 100, 60};
    for (u64 s : seqs)
        q.push(s, DynRef{static_cast<i32>(s), 0});

    u64 prev = 0;
    size_t n = 0;
    while (!q.empty()) {
        const ReadyQueue::Item &it = q.top();
        EXPECT_GT(it.seq, prev) << "pop order not oldest-first";
        EXPECT_EQ(it.ref.slot, static_cast<i32>(it.seq))
            << "payload does not travel with its seq";
        prev = it.seq;
        q.pop();
        ++n;
    }
    EXPECT_EQ(n, std::size(seqs));
}

TEST(HotPath, FuStallRetryKeepsAgePriority)
{
    // Mirror doIssue's retry protocol: drain the heap for this cycle,
    // collect FU-stalled items, re-push them with their ORIGINAL seq.
    // Next cycle they must come out ahead of anything younger, exactly
    // as the old build-sort-retry vector behaved.
    ReadyQueue q;
    for (u64 s : {5ull, 3ull, 8ull, 1ull})
        q.push(s, DynRef{static_cast<i32>(s), 0});

    // Cycle 1: one FU port — seq 1 issues, everything else stalls.
    std::vector<ReadyQueue::Item> retry;
    bool issued_one = false;
    while (!q.empty()) {
        ReadyQueue::Item it = q.top();
        q.pop();
        if (!issued_one) {
            EXPECT_EQ(it.seq, 1u) << "oldest must issue first";
            issued_one = true;
        } else {
            retry.push_back(it);
        }
    }
    for (const ReadyQueue::Item &it : retry)
        q.push(it.seq, it.ref);

    // A younger instruction becomes ready before the next issue cycle.
    q.push(2, DynRef{2, 0});

    // Cycle 2: stalled-and-retried seq 2? No — seq 2 is the *newly*
    // ready instruction; the retried 3 and 5 are older than 8 but the
    // new 2 is older still.  Global age order must hold regardless of
    // how an item entered the queue.
    const u64 expect[] = {2, 3, 5, 8};
    for (u64 e : expect) {
        ASSERT_FALSE(q.empty());
        EXPECT_EQ(q.top().seq, e);
        q.pop();
    }
    EXPECT_TRUE(q.empty());
}

} // namespace
} // namespace dmt
