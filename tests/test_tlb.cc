/**
 * @file
 * Tests for the two-level TLB.
 */

#include <gtest/gtest.h>

#include "cpu/tlb.hh"
#include "sim/logging.hh"
#include "sim/rng.hh"

using namespace hwdp;
using namespace hwdp::cpu;

TEST(Tlb, MissOnEmpty)
{
    Tlb tlb;
    auto r = tlb.lookup(0x1000);
    EXPECT_FALSE(r.hit);
    EXPECT_EQ(tlb.misses(), 1u);
}

TEST(Tlb, InsertThenL1Hit)
{
    Tlb tlb;
    tlb.insert(0x1000, 55);
    auto r = tlb.lookup(0x1234); // same page
    EXPECT_TRUE(r.hit);
    EXPECT_TRUE(r.l1Hit);
    EXPECT_EQ(r.pfn, 55u);
}

TEST(Tlb, L2BacksUpL1Evictions)
{
    Tlb tlb(4, 64, 4); // tiny L1
    for (VAddr v = 0; v < 16; ++v)
        tlb.insert(v << pageShift, v + 100);
    // Entry 0 fell out of the 4-entry L1 but must hit in the L2 and
    // be promoted.
    auto r = tlb.lookup(0);
    EXPECT_TRUE(r.hit);
    EXPECT_FALSE(r.l1Hit);
    EXPECT_EQ(r.pfn, 100u);
    auto r2 = tlb.lookup(0);
    EXPECT_TRUE(r2.l1Hit);
}

TEST(Tlb, InvalidateRemovesBothLevels)
{
    Tlb tlb;
    tlb.insert(0x5000, 9);
    tlb.invalidate(0x5000);
    EXPECT_FALSE(tlb.lookup(0x5000).hit);
}

TEST(Tlb, FlushClearsEverything)
{
    Tlb tlb;
    for (VAddr v = 0; v < 32; ++v)
        tlb.insert(v << pageShift, v);
    tlb.flush();
    for (VAddr v = 0; v < 32; ++v)
        EXPECT_FALSE(tlb.lookup(v << pageShift).hit);
}

TEST(Tlb, L1LruKeepsRecentlyUsed)
{
    Tlb tlb(2, 64, 4);
    tlb.insert(0x1000, 1);
    tlb.insert(0x2000, 2);
    tlb.lookup(0x1000);     // make 0x1000 MRU
    tlb.insert(0x3000, 3);  // evicts 0x2000 from L1
    EXPECT_TRUE(tlb.lookup(0x1000).l1Hit);
    EXPECT_FALSE(tlb.lookup(0x2000).l1Hit); // L2 hit at best
}

TEST(Tlb, UpdateExistingTranslation)
{
    Tlb tlb;
    tlb.insert(0x1000, 1);
    tlb.insert(0x1000, 2);
    EXPECT_EQ(tlb.lookup(0x1000).pfn, 2u);
}

TEST(Tlb, StatsCountMisses)
{
    Tlb tlb;
    tlb.lookup(0x1000);
    tlb.insert(0x1000, 1);
    tlb.lookup(0x1000);
    EXPECT_EQ(tlb.lookups(), 2u);
    EXPECT_EQ(tlb.misses(), 1u);
    EXPECT_EQ(tlb.l1Misses(), 1u);
}

TEST(Tlb, BadGeometryRejected)
{
    EXPECT_THROW(Tlb(0, 64, 4), FatalError);
    EXPECT_THROW(Tlb(4, 0, 4), FatalError);
    EXPECT_THROW(Tlb(4, 63, 4), FatalError); // not divisible by assoc
}

TEST(Tlb, CapacityBoundProperty)
{
    Tlb tlb(8, 32, 4);
    sim::Rng rng(3);
    for (int i = 0; i < 10000; ++i)
        tlb.insert(rng.range(1 << 20) << pageShift, i);
    // No crash and lookups stay sane.
    int hits = 0;
    for (int i = 0; i < 1000; ++i)
        hits += tlb.lookup(rng.range(1 << 20) << pageShift).hit;
    EXPECT_LT(hits, 1000);
}

TEST(Tlb, LatchServesRepeatedLookups)
{
    Tlb tlb;
    tlb.insert(0x1000, 7);
    EXPECT_TRUE(tlb.lookup(0x1000).l1Hit); // primes the latch
    std::uint64_t base = tlb.latchHits();
    for (int i = 0; i < 10; ++i) {
        auto r = tlb.lookup(0x1000 + i * 8); // same page
        EXPECT_TRUE(r.l1Hit);
        EXPECT_EQ(r.pfn, 7u);
    }
    EXPECT_EQ(tlb.latchHits(), base + 10);
}

TEST(Tlb, LatchInvalidationIsExact)
{
    // Invalidate the latched translation, then look it up again: the
    // latch must not serve the stale PFN.
    Tlb tlb;
    tlb.insert(0x1000, 7);
    ASSERT_TRUE(tlb.lookup(0x1000).hit); // latched
    tlb.invalidate(0x1000);
    EXPECT_FALSE(tlb.lookup(0x1000).hit);

    // Same for flush.
    tlb.insert(0x2000, 8);
    ASSERT_TRUE(tlb.lookup(0x2000).hit);
    tlb.flush();
    EXPECT_FALSE(tlb.lookup(0x2000).hit);
}

TEST(Tlb, LatchFollowsRemap)
{
    // A remap of the latched page must be visible on the next lookup
    // even though the latch still points at the same L1 slot.
    Tlb tlb;
    tlb.insert(0x1000, 7);
    ASSERT_EQ(tlb.lookup(0x1000).pfn, 7u);
    tlb.insert(0x1000, 9);
    EXPECT_EQ(tlb.lookup(0x1000).pfn, 9u);
}

TEST(Tlb, InsertIsIdempotentForL2Lru)
{
    // Re-inserting a resident translation with its existing PFN (a
    // re-walk after e.g. an A-bit update) is a no-op: unlike a real
    // *use* (lookup), it must not refresh the entry's L2 recency.
    // Single-entry L1 so L1 refills can't mask the L2 state; 4-entry
    // fully-associative L2.
    Tlb tlb(1, 4, 4);
    for (VAddr v = 1; v <= 4; ++v)
        tlb.insert(v << pageShift, v);
    // A real use: VPN 1 becomes the newest in L2.
    ASSERT_TRUE(tlb.lookup(1ull << pageShift).hit);
    // No-ops: VPN 2 stays the oldest despite three re-inserts.
    for (int i = 0; i < 3; ++i)
        tlb.insert(2ull << pageShift, 2);
    tlb.insert(5ull << pageShift, 5); // evicts VPN 2, not VPN 1
    EXPECT_TRUE(tlb.lookup(1ull << pageShift).hit);
    EXPECT_FALSE(tlb.lookup(2ull << pageShift).hit);
    EXPECT_TRUE(tlb.lookup(5ull << pageShift).hit);
}

TEST(Tlb, InterleavedInsertInvalidateFlush)
{
    // Regression sweep over operation interleavings: after any
    // sequence, a lookup must agree with a shadow map of what was
    // inserted minus what was invalidated/flushed.
    Tlb tlb(4, 16, 4, 2);
    sim::Rng rng(11);
    std::vector<std::pair<std::uint64_t, Pfn>> shadow; // newest wins
    auto shadowLookup = [&](std::uint64_t vpn) -> const Pfn * {
        for (auto it = shadow.rbegin(); it != shadow.rend(); ++it)
            if (it->first == vpn)
                return &it->second;
        return nullptr;
    };
    for (int step = 0; step < 5000; ++step) {
        std::uint64_t vpn = rng.range(64);
        switch (rng.range(8)) {
          case 0:
            tlb.invalidate(vpn << pageShift);
            std::erase_if(shadow,
                          [&](auto &p) { return p.first == vpn; });
            break;
          case 1:
            if (rng.chance(0.02)) {
                tlb.flush();
                shadow.clear();
                break;
            }
            [[fallthrough]];
          default:
            tlb.insert(vpn << pageShift, static_cast<Pfn>(step));
            std::erase_if(shadow,
                          [&](auto &p) { return p.first == vpn; });
            shadow.emplace_back(vpn, static_cast<Pfn>(step));
            break;
        }
        // The TLB may evict (capacity), but it must never hit with a
        // wrong PFN and never hit something invalidated or flushed.
        auto r = tlb.lookup(vpn << pageShift);
        const Pfn *want = shadowLookup(vpn);
        if (!want)
            EXPECT_FALSE(r.hit) << "stale hit at step " << step;
        else if (r.hit)
            EXPECT_EQ(r.pfn, *want) << "wrong PFN at step " << step;
    }
}

TEST(Tlb, EmptyTracksLiveEntries)
{
    // Shootdowns skip a TLB that reports empty(), so its live count
    // must follow every fill, eviction, invalidation and flush.
    Tlb tlb(4, 16, 4, 2, true);
    EXPECT_TRUE(tlb.empty());
    tlb.insert(0x1000, 5);
    EXPECT_FALSE(tlb.empty());
    tlb.invalidate(0x1000);
    EXPECT_TRUE(tlb.empty());
    // Far more pages than entries: evictions replace valid entries.
    for (VAddr v = 0; v < 64; ++v)
        tlb.insert(v << pageShift, v);
    EXPECT_FALSE(tlb.empty());
    tlb.invalidateRange(0, 64);
    EXPECT_TRUE(tlb.empty());
    tlb.insert(VAddr(512) << pageShift, 512, pmdLeafShift);
    EXPECT_FALSE(tlb.empty());
    tlb.invalidate(VAddr(515) << pageShift); // inside the 2 MB entry
    EXPECT_TRUE(tlb.empty());
    tlb.insert(0x5000, 9);
    tlb.flush();
    EXPECT_TRUE(tlb.empty());
}

TEST(Tlb, FlatL1EvictsLeastRecentlyUsed)
{
    // 4-entry 2-way L1: VPNs 0 and 2 land in set 0, VPNs 1 and 3 in
    // set 1 (set index = vpn & 1). Touch one way, insert a third VPN
    // into the same set, and the untouched way must be the victim.
    Tlb tlb(4, 64, 4, 2);
    tlb.insert(0ull << pageShift, 10); // set 0
    tlb.insert(2ull << pageShift, 12); // set 0
    tlb.lookup(0ull << pageShift);     // VPN 0 is now MRU
    tlb.insert(4ull << pageShift, 14); // set 0: evicts VPN 2
    EXPECT_TRUE(tlb.lookup(0ull << pageShift).l1Hit);
    EXPECT_TRUE(tlb.lookup(4ull << pageShift).l1Hit);
    EXPECT_FALSE(tlb.lookup(2ull << pageShift).l1Hit); // L2 at best
}
