/**
 * @file
 * Tests for the set-associative tag array.
 */

#include <gtest/gtest.h>

#include "mem/cache_array.hh"
#include "sim/logging.hh"
#include "sim/rng.hh"

using namespace hwdp;
using namespace hwdp::mem;

TEST(CacheArray, GeometryValidation)
{
    EXPECT_THROW(CacheArray("x", 0, 8), FatalError);
    EXPECT_THROW(CacheArray("x", 32768, 0), FatalError);
    EXPECT_THROW(CacheArray("x", 32768, 8, 48), FatalError); // non-pow2
    // 3 sets is not a power of two: 3 * 8 * 64 bytes.
    EXPECT_THROW(CacheArray("x", 3 * 8 * 64, 8, 64), FatalError);
}

TEST(CacheArray, GeometryAccessors)
{
    CacheArray c("c", 32 * 1024, 8, 64);
    EXPECT_EQ(c.sizeBytes(), 32u * 1024);
    EXPECT_EQ(c.associativity(), 8u);
    EXPECT_EQ(c.numSets(), 64u);
    EXPECT_EQ(c.lineBytes(), 64u);
}

TEST(CacheArray, MissThenHit)
{
    CacheArray c("c", 4096, 4);
    EXPECT_FALSE(c.access(0x1000));
    EXPECT_TRUE(c.access(0x1000));
    EXPECT_TRUE(c.access(0x1004)); // same line
    EXPECT_EQ(c.hitCount(), 2u);
    EXPECT_EQ(c.missCount(), 1u);
}

TEST(CacheArray, LruEvictsOldest)
{
    // 2-way, line 64: set count = 4096 / (2*64) = 32 sets.
    CacheArray c("c", 4096, 2);
    std::uint64_t set_stride = 32 * 64; // same set every stride
    // Fill one set with two lines.
    c.access(0 * set_stride);
    c.access(1 * set_stride);
    // Touch the first again so the second becomes LRU.
    c.access(0 * set_stride);
    // Insert a third: must evict line 1.
    c.access(2 * set_stride);
    EXPECT_TRUE(c.probe(0 * set_stride));
    EXPECT_FALSE(c.probe(1 * set_stride));
    EXPECT_TRUE(c.probe(2 * set_stride));
}

TEST(CacheArray, ProbeDoesNotAllocateOrTouch)
{
    CacheArray c("c", 4096, 2);
    EXPECT_FALSE(c.probe(0x40));
    EXPECT_EQ(c.occupancy(), 0u);
    EXPECT_EQ(c.missCount(), 0u);
}

TEST(CacheArray, InvalidateRemovesLine)
{
    CacheArray c("c", 4096, 2);
    c.access(0x80);
    EXPECT_TRUE(c.invalidate(0x80));
    EXPECT_FALSE(c.probe(0x80));
    EXPECT_FALSE(c.invalidate(0x80)); // second time: not present
}

TEST(CacheArray, FlushDropsEverything)
{
    CacheArray c("c", 4096, 2);
    for (int i = 0; i < 32; ++i)
        c.access(i * 64);
    EXPECT_GT(c.occupancy(), 0u);
    c.flush();
    EXPECT_EQ(c.occupancy(), 0u);
}

TEST(CacheArray, WorkingSetWithinCapacityAllHits)
{
    CacheArray c("c", 32 * 1024, 8);
    // 16 KB working set in a 32 KB cache: second pass must fully hit.
    for (int pass = 0; pass < 2; ++pass) {
        for (std::uint64_t a = 0; a < 16 * 1024; a += 64)
            c.access(a);
    }
    EXPECT_EQ(c.missCount(), 256u); // only the first pass
    EXPECT_EQ(c.hitCount(), 256u);
}

TEST(CacheArray, CyclicOversizedSetThrashes)
{
    // Classic LRU pathology: cycling N+1 lines through an N-way set
    // misses every time.
    CacheArray c("c", 2 * 64, 2, 64); // one set, 2 ways
    for (int pass = 0; pass < 4; ++pass) {
        for (int l = 0; l < 3; ++l)
            c.access(static_cast<std::uint64_t>(l) * 64);
    }
    EXPECT_EQ(c.hitCount(), 0u);
}

TEST(CacheArray, OccupancyIsLiveAcrossFillInvalidateFlush)
{
    // occupancy() is an O(1) counter, not a scan; it must track every
    // transition exactly: fill (+1), hit (0), conflict eviction (0,
    // replaces valid with valid), invalidate (-1), flush (reset).
    CacheArray c("c", 2 * 64, 2, 64); // one set, 2 ways
    EXPECT_EQ(c.occupancy(), 0u);
    c.access(0 * 64);
    EXPECT_EQ(c.occupancy(), 1u);
    c.access(0 * 64); // hit: no change
    EXPECT_EQ(c.occupancy(), 1u);
    c.access(1 * 64);
    EXPECT_EQ(c.occupancy(), 2u);
    c.access(2 * 64); // conflict miss: evict + fill, net zero
    EXPECT_EQ(c.occupancy(), 2u);
    EXPECT_TRUE(c.invalidate(2 * 64));
    EXPECT_EQ(c.occupancy(), 1u);
    EXPECT_FALSE(c.invalidate(2 * 64)); // absent: no change
    EXPECT_EQ(c.occupancy(), 1u);
    c.access(3 * 64); // refills the invalidated way
    EXPECT_EQ(c.occupancy(), 2u);
    c.flush();
    EXPECT_EQ(c.occupancy(), 0u);
}

TEST(CacheArray, RenormalizationPreservesLruOrder)
{
    // The packed layout renormalises recency stamps when the clock
    // saturates. Replacement must be bit-identical across that
    // boundary: build a known recency order in one set, push the clock
    // over the renormalisation point from another set, then check the
    // eviction order is exactly the order the stamps encoded. 1-byte
    // lines and 2 sets leave a 1 + 15-bit stamp field, so the clock
    // saturates every 65535 accesses.
    CacheArray c("c", 2 * 4, 4, 1); // 2 sets, 4 ways
    std::uint64_t stride = 2;       // stays in set 0
    for (int w = 0; w < 4; ++w)
        c.access(w * stride);
    // Recency now 0 < 1 < 2 < 3; touch 1 and 0 => order 2 < 3 < 1 < 0.
    c.access(1 * stride);
    c.access(0 * stride);

    // Saturate the clock from set 1, crossing the boundary twice.
    for (int i = 0; i < 140000; ++i)
        c.access(1 + (i % 3) * stride);
    EXPECT_EQ(c.renormalizations(), 2u);

    // Evict from set 0 one line at a time: victims must come out in
    // stamp order 2, 3, 1, 0.
    const int expect[] = {2, 3, 1, 0};
    for (int round = 0; round < 4; ++round) {
        c.access((10 + round) * stride); // new line evicts one victim
        EXPECT_FALSE(c.probe(expect[round] * stride))
            << "round " << round;
        for (int later = round + 1; later < 4; ++later)
            EXPECT_TRUE(c.probe(expect[later] * stride))
                << "round " << round << " line " << later;
    }
}

TEST(CacheArray, HighAddressBitsDistinguishTags)
{
    // The packed word keeps every tag bit of a canonical address (with
    // a +1 bias); addresses differing only far above the index bits —
    // up to bit 47, and the kernel half against the user half — must
    // not alias, and address 0 must not hit in an empty set (the
    // all-zero word is the invalid encoding).
    const std::uint64_t kernel = 0xffff800000000000ull;
    CacheArray c("c", 4096, 4); // 16 sets: all four land in set 0
    EXPECT_FALSE(c.access(0));
    EXPECT_FALSE(c.access(1ull << 40));
    EXPECT_FALSE(c.access(1ull << 46));
    EXPECT_FALSE(c.access(kernel));
    EXPECT_TRUE(c.probe(0));
    EXPECT_TRUE(c.probe(1ull << 40));
    EXPECT_TRUE(c.probe(1ull << 46));
    EXPECT_TRUE(c.probe(kernel));
    EXPECT_FALSE(c.probe(kernel | 1ull << 46));
    CacheArray d("d", 4096, 4);
    EXPECT_FALSE(d.probe(0));
}

TEST(CacheArray, NonCanonicalAddressIsFatal)
{
    // Bits 63..47 must all be equal; the tag drops bits 48..63, so any
    // other address would alias a canonical one.
    for (std::uint64_t bad : {1ull << 47, 1ull << 62, 0x8000000000000000ull,
                              0xffff7fffffffffc0ull}) {
        CacheArray c("l1d0", 32 * 1024, 8);
        EXPECT_THROW(c.access(bad), FatalError);
        EXPECT_THROW(c.probe(bad), FatalError);
        EXPECT_THROW(c.invalidate(bad), FatalError);
        std::uint64_t run[3] = {0x1000, bad, 0x2000};
        std::uint64_t miss[3];
        try {
            c.accessBatch(run, 3, miss);
            ADD_FAILURE() << "batch accepted a non-canonical address";
        } catch (const FatalError &e) {
            EXPECT_NE(std::string(e.what()).find("l1d0"),
                      std::string::npos)
                << e.what();
        }
    }
}

struct CacheGeom
{
    std::uint64_t size;
    unsigned assoc;
};

class CacheArrayProperty : public ::testing::TestWithParam<CacheGeom>
{
};

TEST_P(CacheArrayProperty, OccupancyNeverExceedsCapacity)
{
    auto [size, assoc] = GetParam();
    CacheArray c("c", size, assoc);
    sim::Rng rng(size ^ assoc);
    std::uint64_t capacity = size / 64;
    for (int i = 0; i < 20000; ++i)
        c.access(rng.range(1 << 22) * 64);
    EXPECT_LE(c.occupancy(), capacity);
    EXPECT_EQ(c.hitCount() + c.missCount(), 20000u);
}

TEST_P(CacheArrayProperty, ResidentLineStaysUntilConflict)
{
    auto [size, assoc] = GetParam();
    CacheArray c("c", size, assoc);
    c.access(0);
    // Touching other sets never evicts set 0's line.
    unsigned sets = c.numSets();
    for (unsigned s = 1; s < sets; ++s)
        c.access(static_cast<std::uint64_t>(s) * 64);
    EXPECT_TRUE(c.probe(0));
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheArrayProperty,
    ::testing::Values(CacheGeom{4096, 1}, CacheGeom{4096, 2},
                      CacheGeom{32 * 1024, 8}, CacheGeom{256 * 1024, 8},
                      CacheGeom{1024 * 1024, 16}));
