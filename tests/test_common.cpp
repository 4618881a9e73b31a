/**
 * @file
 * Unit tests for src/common: RNGs, bit utilities, logging formatting,
 * host-core counting.
 */

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "common/bits.hpp"
#include "common/host.hpp"
#include "common/log.hpp"
#include "common/rng.hpp"

namespace spmrt {
namespace {

TEST(Bits, IsPowerOfTwo)
{
    EXPECT_FALSE(isPowerOfTwo(0));
    EXPECT_TRUE(isPowerOfTwo(1));
    EXPECT_TRUE(isPowerOfTwo(2));
    EXPECT_FALSE(isPowerOfTwo(3));
    EXPECT_TRUE(isPowerOfTwo(1u << 31));
    EXPECT_FALSE(isPowerOfTwo((1u << 31) + 1));
}

TEST(Bits, AlignUpDown)
{
    EXPECT_EQ(alignUp(0u, 8u), 0u);
    EXPECT_EQ(alignUp(1u, 8u), 8u);
    EXPECT_EQ(alignUp(8u, 8u), 8u);
    EXPECT_EQ(alignUp(9u, 8u), 16u);
    EXPECT_EQ(alignDown(9u, 8u), 8u);
    EXPECT_EQ(alignDown(15u, 8u), 8u);
    EXPECT_EQ(alignDown(16u, 8u), 16u);
}

TEST(Bits, Log2)
{
    EXPECT_EQ(floorLog2(1u), 0u);
    EXPECT_EQ(floorLog2(2u), 1u);
    EXPECT_EQ(floorLog2(3u), 1u);
    EXPECT_EQ(floorLog2(1024u), 10u);
    EXPECT_EQ(ceilLog2(1u), 0u);
    EXPECT_EQ(ceilLog2(2u), 1u);
    EXPECT_EQ(ceilLog2(3u), 2u);
    EXPECT_EQ(ceilLog2(1024u), 10u);
    EXPECT_EQ(ceilLog2(1025u), 11u);
}

TEST(Bits, DivCeil)
{
    EXPECT_EQ(divCeil(0u, 4u), 0u);
    EXPECT_EQ(divCeil(1u, 4u), 1u);
    EXPECT_EQ(divCeil(4u, 4u), 1u);
    EXPECT_EQ(divCeil(5u, 4u), 2u);
}

TEST(Log, Format)
{
    EXPECT_EQ(log::format("plain"), "plain");
    EXPECT_EQ(log::format("%d + %d = %d", 1, 2, 3), "1 + 2 = 3");
    EXPECT_EQ(log::format("%s/%x", "core", 0xff), "core/ff");
}

TEST(Host, QuotaCoresParsesCgroupQuota)
{
    EXPECT_EQ(host::quotaCores("max 100000"), 0u);    // v2, unlimited
    EXPECT_EQ(host::quotaCores("200000 100000"), 2u);
    EXPECT_EQ(host::quotaCores("150000 100000"), 2u); // rounds up
    EXPECT_EQ(host::quotaCores("50000 100000\n"), 1u);
    EXPECT_EQ(host::quotaCores("-1 100000"), 0u);     // v1, unlimited
    EXPECT_EQ(host::quotaCores(""), 0u);
    EXPECT_EQ(host::quotaCores(" 100000"), 0u);       // v1, no quota file
    EXPECT_EQ(host::quotaCores("100000 0"), 0u);
}

TEST(Host, UsableCoresIsAtLeastOne)
{
    EXPECT_GE(host::usableCores(), 1u);
}

TEST(Rng, XoshiroDeterministic)
{
    Xoshiro256StarStar a(42), b(42), c(43);
    bool diverged = false;
    for (int i = 0; i < 100; ++i) {
        uint64_t va = a.next();
        EXPECT_EQ(va, b.next());
        if (va != c.next())
            diverged = true;
    }
    EXPECT_TRUE(diverged);
}

TEST(Rng, XoshiroBoundedInRange)
{
    Xoshiro256StarStar rng(7);
    for (int i = 0; i < 1000; ++i) {
        uint64_t v = rng.nextBounded(17);
        EXPECT_LT(v, 17u);
    }
    EXPECT_EQ(rng.nextBounded(0), 0u);
    EXPECT_EQ(rng.nextBounded(1), 0u);
}

TEST(Rng, XoshiroBoundedCoversRange)
{
    Xoshiro256StarStar rng(11);
    std::set<uint64_t> seen;
    for (int i = 0; i < 2000; ++i)
        seen.insert(rng.nextBounded(8));
    EXPECT_EQ(seen.size(), 8u);
}

TEST(Rng, XoshiroDoubleInUnitInterval)
{
    Xoshiro256StarStar rng(3);
    for (int i = 0; i < 1000; ++i) {
        double d = rng.nextDouble();
        EXPECT_GE(d, 0.0);
        EXPECT_LT(d, 1.0);
    }
}

TEST(Rng, SplittableChildIndependence)
{
    SplittableRng root(123);
    SplittableRng child0 = root.split(0);
    SplittableRng child1 = root.split(1);
    EXPECT_NE(child0.raw(), child1.raw());

    // Splitting is a pure function of (state, index).
    SplittableRng again = root.split(0);
    EXPECT_EQ(child0.raw(), again.raw());
}

TEST(Rng, SplittableOrderIndependent)
{
    // The stream of child i does not depend on whether child j was split
    // first — crucial for deterministic UTS trees under work stealing.
    SplittableRng root(99);
    SplittableRng a = root.split(5);
    (void)root.split(2);
    SplittableRng b = root.split(5);
    EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, SplittableDeepTreesStayDistinct)
{
    SplittableRng root(1);
    std::set<uint64_t> states;
    SplittableRng walk = root;
    for (int depth = 0; depth < 100; ++depth) {
        walk = walk.split(0);
        EXPECT_TRUE(states.insert(walk.raw()).second)
            << "state collision at depth " << depth;
    }
}

TEST(Rng, Hash64Mixes)
{
    // Adjacent inputs should differ in many bits (sanity, not a full
    // avalanche test).
    int weak = 0;
    for (uint64_t i = 0; i < 100; ++i) {
        uint64_t d = hash64(i) ^ hash64(i + 1);
        int bits = __builtin_popcountll(d);
        if (bits < 16)
            ++weak;
    }
    EXPECT_LE(weak, 2);
}

} // namespace
} // namespace spmrt
