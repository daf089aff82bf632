/**
 * @file
 * Bit-identity of the batched pollution engine against per-line
 * references: the cache-array batch API under randomized and
 * adversarial (set-colliding, aliasing) runs, the level-major
 * hierarchy descent, the bulk RNG / branch-predictor streams, and the
 * two pollution streams the simulator runs — kernel phases
 * (KernelExec) and user compute bursts (cpu::runBurstStream) —
 * fuzzed against the per-line oracles defined here, comparing every
 * tag, stamp, predictor counter and rng state after each call.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "cpu/thread_context.hh"
#include "mem/branch_predictor.hh"
#include "mem/cache_array.hh"
#include "mem/cache_hierarchy.hh"
#include "os/kernel_phases.hh"
#include "sim/rng.hh"
#include "sim/serialize.hh"
#include "system/system.hh"
#include "workloads/fio.hh"
#include "workloads/kv_store.hh"
#include "workloads/ycsb.hh"

using namespace hwdp;
using namespace hwdp::mem;

namespace {

/** Drive one run through both paths and require identical everything. */
void
expectBatchMatchesPerLine(CacheArray &batch, CacheArray &ref,
                          const std::vector<std::uint64_t> &run)
{
    std::vector<std::uint64_t> miss_out(run.size() + 1, 0xdead);
    std::vector<std::uint64_t> bitmap((run.size() + 63) / 64 + 1,
                                      0xdead);
    std::size_t hits = batch.accessBatch(run.data(), run.size(),
                                         miss_out.data(), bitmap.data());

    std::size_t ref_hits = 0;
    std::vector<std::uint64_t> ref_miss;
    std::vector<std::uint64_t> ref_bitmap((run.size() + 63) / 64, 0);
    for (std::size_t i = 0; i < run.size(); ++i) {
        if (ref.access(run[i])) {
            ++ref_hits;
            ref_bitmap[i / 64] |= std::uint64_t(1) << (i % 64);
        } else {
            ref_miss.push_back(run[i]);
        }
    }

    ASSERT_EQ(hits, ref_hits);
    ASSERT_EQ(batch.hitCount(), ref.hitCount());
    ASSERT_EQ(batch.missCount(), ref.missCount());
    ASSERT_EQ(batch.occupancy(), ref.occupancy());
    // Full post-state: every tag and every LRU stamp.
    ASSERT_EQ(batch.rawMeta(), ref.rawMeta());
    // Miss list: the missing addresses, compacted, in run order. (The
    // branchless compactor may scribble one slot past the last miss —
    // the contract requires n words of room — so only the compacted
    // prefix is meaningful.)
    for (std::size_t m = 0; m < ref_miss.size(); ++m)
        ASSERT_EQ(miss_out[m], ref_miss[m]) << "miss slot " << m;
    for (std::size_t w = 0; w < ref_bitmap.size(); ++w)
        ASSERT_EQ(bitmap[w], ref_bitmap[w]) << "bitmap word " << w;
}

} // namespace

TEST(PollutionBatch, FuzzRandomRunsAllGeometries)
{
    struct Geo
    {
        std::uint64_t bytes;
        unsigned assoc;
    };
    // The paper machine's L1/L2/LLC geometries plus a narrow oddball.
    const Geo geos[] = {
        {32 * 1024, 8},
        {256 * 1024, 8},
        {20 * 64 * 1024, 20}, // LLC associativity, 1024 sets
        {4096, 4}};
    for (const Geo &g : geos) {
        CacheArray batch("b", g.bytes, g.assoc);
        CacheArray ref("r", g.bytes, g.assoc);
        sim::Rng rng(0xf005ba11 + g.assoc);
        for (int round = 0; round < 40; ++round) {
            std::size_t len = 1 + rng.range(200);
            std::vector<std::uint64_t> run;
            // Confine the rounds to few sets/tags so runs collide in
            // sets, repeat lines, and alias tags heavily.
            std::uint64_t tags = 1 + rng.range(3 * g.assoc);
            std::uint64_t sets = 1 + rng.range(8);
            for (std::size_t i = 0; i < len; ++i) {
                std::uint64_t set = rng.range(sets);
                std::uint64_t tag = rng.range(tags);
                run.push_back(tag * g.bytes / g.assoc + set * 64 +
                              rng.range(64));
            }
            expectBatchMatchesPerLine(batch, ref, run);
        }
    }
}

TEST(PollutionBatch, ForcedSingleSetCollisionRuns)
{
    // Every line in the run maps to one set; runs longer than the
    // associativity force evictions of lines installed earlier in the
    // same batch call, the case a reordering batcher would get wrong.
    CacheArray batch("b", 32 * 1024, 8);
    CacheArray ref("r", 32 * 1024, 8);
    std::uint64_t set_stride = batch.numSets() * batch.lineBytes();
    std::vector<std::uint64_t> run;
    for (int i = 0; i < 20; ++i)
        run.push_back(static_cast<std::uint64_t>(i) * set_stride);
    expectBatchMatchesPerLine(batch, ref, run);

    // Same line repeated back-to-back: the second access must hit the
    // installation made one position earlier in the same batch.
    run.assign(12, 7 * set_stride);
    expectBatchMatchesPerLine(batch, ref, run);

    // Re-run the eviction pattern now that the set is full.
    run.clear();
    for (int i = 0; i < 20; ++i)
        run.push_back(static_cast<std::uint64_t>(19 - i) * set_stride);
    expectBatchMatchesPerLine(batch, ref, run);
}

TEST(PollutionBatch, RenormalizationBoundariesPreserved)
{
    // 8 B of 1-byte lines, 8-way: one set, so the stamp field is just
    // the 15 spare bits and the LRU clock saturates every 32767
    // accesses. Long batches must renormalise at the same access
    // indices as the per-line walk — drive several multiples of the
    // period through both paths in one batch call.
    CacheArray batch("b", 8, 8, 1);
    CacheArray ref("r", 8, 8, 1);
    sim::Rng rng(42);
    std::vector<std::uint64_t> run;
    for (int i = 0; i < 100000; ++i)
        run.push_back(rng.range(64));
    expectBatchMatchesPerLine(batch, ref, run);
    EXPECT_EQ(batch.renormalizations(), 3u);
    // And again from non-zero clock offsets, across further boundaries.
    for (int rep = 0; rep < 3; ++rep) {
        run.clear();
        std::size_t len = 20000 + rng.range(20000);
        for (std::size_t i = 0; i < len; ++i)
            run.push_back(rng.range(80));
        expectBatchMatchesPerLine(batch, ref, run);
    }
    EXPECT_EQ(batch.renormalizations(), ref.renormalizations());
    EXPECT_GT(batch.renormalizations(), 3u);
}

TEST(PollutionBatch, CompiledGeometriesMatchRuntimeScan)
{
    // The default L1/L2/LLC geometries run a scan compiled for them
    // (SIMD where the host has it); every other geometry runs the
    // portable scan. An array of 128-byte lines with the same ways and
    // sets, fed every address doubled, sees the same set and tag
    // sequence through the portable scan, so its hits, misses and
    // victims must match line for line.
    struct Geo
    {
        std::uint64_t bytes;
        unsigned assoc;
    };
    const Geo geos[] = {{32 * 1024, 8}, {256 * 1024, 8},
                        {20 * 1024 * 1024, 20}};
    for (const Geo &g : geos) {
        CacheArray fixed("f", g.bytes, g.assoc);
        CacheArray runtime("r", 2 * g.bytes, g.assoc, 128);
        sim::Rng rng(0x5ca1ab1e + g.assoc);
        std::uint64_t sets = fixed.numSets();
        for (int round = 0; round < 40; ++round) {
            std::size_t len = 1 + rng.range(300);
            std::vector<std::uint64_t> run, doubled;
            std::uint64_t tags = 1 + rng.range(3 * g.assoc);
            for (std::size_t i = 0; i < len; ++i) {
                std::uint64_t a = (rng.range(tags) * sets + rng.range(4)) *
                                      64 +
                                  rng.range(64);
                run.push_back(a);
                doubled.push_back(2 * a);
            }
            std::vector<std::uint64_t> m1(len), m2(len);
            std::vector<std::uint64_t> b1((len + 63) / 64),
                b2((len + 63) / 64);
            std::size_t h1 =
                fixed.accessBatch(run.data(), len, m1.data(), b1.data());
            std::size_t h2 = runtime.accessBatch(doubled.data(), len,
                                                 m2.data(), b2.data());
            ASSERT_EQ(h1, h2) << "ways " << g.assoc << " round " << round;
            ASSERT_EQ(b1, b2) << "ways " << g.assoc << " round " << round;
            // Per-line access on the compiled array too.
            std::uint64_t a = run[rng.range(len)];
            ASSERT_EQ(fixed.access(a), runtime.access(2 * a));
            ASSERT_EQ(fixed.occupancy(), runtime.occupancy());
        }
    }
}

TEST(PollutionBatch, HierarchyLevelMajorMatchesPerLine)
{
    CacheParams cp;
    cp.llcBytes = 20 * 64 * 1024; // 20-way, 1024 sets: test-sized
    CacheHierarchy batch(2, cp);
    CacheHierarchy ref(2, cp);
    sim::Rng rng(0xca11ab1e);

    for (int round = 0; round < 30; ++round) {
        unsigned core = static_cast<unsigned>(rng.range(2));
        bool is_inst = rng.chance(0.5);
        auto mode = rng.chance(0.5) ? ExecMode::kernel : ExecMode::user;
        std::size_t len = 1 + rng.range(300);
        std::vector<std::uint64_t> run;
        for (std::size_t i = 0; i < len; ++i)
            run.push_back(rng.range(4096) * 64);

        CacheBatchResult br =
            batch.accessBatch(core, run.data(), len, is_inst, mode);
        std::uint64_t l1m = 0, l2m = 0, llcm = 0;
        Cycles lat = 0;
        for (auto a : run) {
            CacheAccessResult r = ref.access(core, a, is_inst, mode);
            l1m += r.l1Miss;
            l2m += r.l2Miss;
            llcm += r.llcMiss;
            lat += r.latency;
        }
        ASSERT_EQ(br.l1Misses, l1m);
        ASSERT_EQ(br.l2Misses, l2m);
        ASSERT_EQ(br.llcMisses, llcm);
        ASSERT_EQ(br.totalLatency, lat);
        for (auto m : {ExecMode::user, ExecMode::kernel}) {
            const auto &bc = batch.counters(m);
            const auto &rc = ref.counters(m);
            ASSERT_EQ(bc.l1iAccesses, rc.l1iAccesses);
            ASSERT_EQ(bc.l1iMisses, rc.l1iMisses);
            ASSERT_EQ(bc.l1dAccesses, rc.l1dAccesses);
            ASSERT_EQ(bc.l1dMisses, rc.l1dMisses);
            ASSERT_EQ(bc.l2Misses, rc.l2Misses);
            ASSERT_EQ(bc.llcMisses, rc.llcMisses);
        }
    }
}

TEST(PollutionBatch, RngFillMatchesSequentialChance)
{
    for (std::uint64_t seed : {1ull, 0x9e3779b97f4a7c15ull, 777ull}) {
        for (double p : {0.5, 0.3, 0.999, 0.0, 1.0}) {
            for (std::size_t n : {std::size_t(0), std::size_t(1),
                                  std::size_t(7), std::size_t(64),
                                  std::size_t(1000)}) {
                sim::Rng a(seed);
                sim::Rng b(seed);
                std::vector<std::uint8_t> out(n + 1, 0xcc);
                a.fill(p, out.data(), n);
                for (std::size_t i = 0; i < n; ++i)
                    ASSERT_EQ(out[i] != 0, b.chance(p))
                        << "seed " << seed << " p " << p << " i " << i;
                ASSERT_EQ(out[n], 0xcc);
                // Final generator state must match too: the next draw
                // after a batch equals the next draw after n singles.
                ASSERT_EQ(a.next(), b.next());
            }
        }
    }
}

TEST(PollutionBatch, BranchUpdateBatchMatchesSequential)
{
    BranchPredictor batch;
    BranchPredictor ref;
    sim::Rng rng(314159);
    std::vector<std::uint64_t> pcs;
    for (int i = 0; i < 1024; ++i)
        pcs.push_back(0xffffffff81000000ull + i * 16);

    for (int round = 0; round < 20; ++round) {
        // Cover n < n_pcs, n == n_pcs and several-wrap n > n_pcs.
        std::size_t n = 1 + rng.range(3000);
        std::vector<std::uint8_t> taken(n);
        rng.fill(0.5, taken.data(), n);
        auto mode = round % 2 ? ExecMode::kernel : ExecMode::user;

        std::uint64_t miss =
            batch.updateBatch(pcs.data(), pcs.size(), taken.data(), n,
                              mode);
        std::uint64_t ref_miss = 0;
        for (std::size_t i = 0; i < n; ++i)
            ref_miss += !ref.predictAndUpdate(pcs[i % pcs.size()],
                                              taken[i] != 0, mode);
        ASSERT_EQ(miss, ref_miss);
        for (auto m : {ExecMode::user, ExecMode::kernel}) {
            ASSERT_EQ(batch.lookups(m), ref.lookups(m));
            ASSERT_EQ(batch.mispredicts(m), ref.mispredicts(m));
        }
    }
    // The internal state (GHR + every PHT counter) must have tracked
    // exactly; a shared probe stream exposes any divergence.
    std::vector<std::uint8_t> probe(4096);
    sim::Rng prng(999);
    prng.fill(0.5, probe.data(), probe.size());
    std::uint64_t m1 = batch.updateBatch(pcs.data(), pcs.size(),
                                         probe.data(), probe.size(),
                                         ExecMode::user);
    std::uint64_t m2 = 0;
    for (std::size_t i = 0; i < probe.size(); ++i)
        m2 += !ref.predictAndUpdate(pcs[i % pcs.size()], probe[i] != 0,
                                    ExecMode::user);
    ASSERT_EQ(m1, m2);
}

TEST(PollutionBatch, DefaultGeometryFioRunNeverRenormalises)
{
    // With canonical-address tags the default L1 clock saturates once
    // per 2^27 accesses (it was once per 2^12), so a FIO run of a few
    // thousand ops renormalises no array at all.
    for (auto mode : {system::PagingMode::osdp, system::PagingMode::hwdp}) {
        system::MachineConfig cfg;
        cfg.mode = mode;
        system::System sys(cfg);
        auto mf = sys.mapDataset("f", 8 * 1024);
        auto *wl = sys.makeWorkload<workloads::FioWorkload>(mf.vma, 3000);
        sys.addThread(*wl, 0, *mf.as);
        ASSERT_TRUE(sys.runUntilThreadsDone(seconds(30.0)));
        const auto &k = sys.caches().counters(ExecMode::kernel);
        const auto &u = sys.caches().counters(ExecMode::user);
        // Far more accesses than the old 12-bit L1 stamp period.
        EXPECT_GT(k.l1iAccesses + k.l1dAccesses + u.l1iAccesses +
                      u.l1dAccesses,
                  std::uint64_t(1) << 16)
            << pagingModeName(mode);
        EXPECT_EQ(sys.caches().renormalizations(), 0u)
            << pagingModeName(mode);
    }
}

namespace {

/**
 * Per-line oracle for KernelExec's pollution: one hierarchy descent
 * per line and one predictAndUpdate per branch, in program order. It
 * mirrors KernelExec's state (accounting, invocation counter,
 * pollution rng) and serializes it in the same layout, so the two
 * blobs compare byte for byte.
 */
class RefKernelExec
{
  public:
    RefKernelExec(CacheHierarchy &caches, std::vector<BranchPredictor> &bps,
                  Tick cycle_period, sim::Rng rng)
        : caches(caches), bps(bps), period(cycle_period), rng(rng)
    {
    }

    Tick
    run(unsigned phys_core, const os::KernelPhase &phase)
    {
        auto c = static_cast<unsigned>(phase.cat);
        instrByCat[c] += phase.instructions;
        cyclesByCat[c] += phase.cycles;
        applyPollution(phys_core, phase);
        return phase.cycles * period;
    }

    Tick
    runBatch(unsigned phys_core, const os::KernelPhase &phase,
             std::uint64_t n)
    {
        auto c = static_cast<unsigned>(phase.cat);
        instrByCat[c] += phase.instructions * n;
        cyclesByCat[c] += phase.cycles * n;
        // Code lines once per batch; data lines and branches scaled by
        // the batch size up to 4096 lines and 8192 branches.
        os::KernelPhase scaled = phase;
        scaled.dcLines = static_cast<std::uint16_t>(std::min<std::uint64_t>(
            static_cast<std::uint64_t>(phase.dcLines) * n, 4096));
        scaled.branches = static_cast<std::uint16_t>(
            std::min<std::uint64_t>(
                static_cast<std::uint64_t>(phase.branches) * n, 8192));
        applyPollution(phys_core, scaled);
        return phase.cycles * n * period;
    }

    std::uint64_t
    totalPollutionProbes() const
    {
        std::uint64_t t = 0;
        for (auto p : probesByCat)
            t += p;
        return t;
    }

    std::uint64_t
    totalPollutionBranchUpdates() const
    {
        std::uint64_t t = 0;
        for (auto b : branchesByCat)
            t += b;
        return t;
    }

    /** The layout of KernelExec::serialize. */
    void
    serialize(sim::Serializer &s)
    {
        s.section("kernelexec");
        for (auto &v : instrByCat)
            s.io(v);
        for (auto &v : cyclesByCat)
            s.io(v);
        for (auto &v : probesByCat)
            s.io(v);
        for (auto &v : branchesByCat)
            s.io(v);
        s.io(invocation);
        rng.serialize(s);
    }

  private:
    static constexpr unsigned nCats =
        static_cast<unsigned>(os::KernelCostCat::numCats);

    CacheHierarchy &caches;
    std::vector<BranchPredictor> &bps;
    Tick period;
    sim::Rng rng;
    std::uint64_t instrByCat[nCats] = {};
    Cycles cyclesByCat[nCats] = {};
    std::uint64_t probesByCat[nCats] = {};
    std::uint64_t branchesByCat[nCats] = {};
    std::uint64_t invocation = 0;

    void
    applyPollution(unsigned phys_core, const os::KernelPhase &phase)
    {
        ++invocation;
        // Kernel text/data live in a high region distinct from any
        // user mapping, at per-phase bases hashed from the name.
        std::uint64_t h = 1469598103934665603ULL;
        for (const char *p = phase.name; *p; ++p)
            h = (h ^ static_cast<std::uint64_t>(*p)) * 1099511628211ULL;
        std::uint64_t text_base = 0xffff'ffff'8000'0000ULL + (h & 0x3f'ffc0);
        std::uint64_t data_base =
            0xffff'ea00'0000'0000ULL + ((h >> 20) & 0xff'ffc0);

        auto c = static_cast<unsigned>(phase.cat);
        std::uint64_t probes = 0;
        for (unsigned i = 0; i < phase.icLines; ++i) {
            auto r = caches.access(phys_core, text_base + i * lineSize,
                                   true, ExecMode::kernel);
            probes += 1u + r.l1Miss + r.l2Miss;
        }
        // The odd-index (per-invocation) line indices step by 2 mod
        // 2048, so one modulo seeds a wrapping index for the whole loop.
        std::uint64_t vary = (invocation * 37 + 1) % 2048;
        for (unsigned i = 0; i < phase.dcLines; ++i) {
            // Half the data lines are stable structures, half vary per
            // invocation (struct page, PTE, bio of *this* fault).
            std::uint64_t addr;
            if ((i & 1) == 0) {
                addr = data_base + i * lineSize;
            } else {
                addr = data_base + 0x100'0000 + vary * lineSize;
                vary += 2;
                if (vary >= 2048)
                    vary -= 2048;
            }
            auto r = caches.access(phys_core, addr, false, ExecMode::kernel);
            probes += 1u + r.l1Miss + r.l2Miss;
        }
        probesByCat[c] += probes;
        branchesByCat[c] += phase.branches;
        for (unsigned i = 0; i < phase.branches; ++i) {
            std::uint64_t pc = text_base + (i % 1024) * 16;
            bool taken = rng.chance(0.5);
            bps[phys_core].predictAndUpdate(pc, taken, ExecMode::kernel);
        }
    }
};

/**
 * Per-line oracle for cpu::runBurstStream: the same draws, one
 * hierarchy descent per reference and one predictAndUpdate per
 * branch, with the stall summed line by line.
 */
cpu::BurstStalls
refBurstStream(CacheHierarchy &caches, BranchPredictor &bp, sim::Rng &rng,
               unsigned phys_core, const workloads::ComputeSpec &spec,
               const cpu::CoreParams &prm, std::uint64_t &fetch_seq)
{
    Cycles extra = 0;
    Cycles data_stall = 0;

    auto n_refs = static_cast<std::uint64_t>(
        static_cast<double>(spec.instructions) * spec.memRefFrac);
    for (std::uint64_t i = 0; i < n_refs; ++i) {
        VAddr a;
        if (spec.coldBytes > 0 && rng.chance(spec.coldFrac)) {
            a = spec.hotBase + spec.hotBytes +
                (rng.range(spec.coldBytes) & ~7ULL);
        } else {
            a = spec.hotBase + (rng.range(spec.hotBytes) & ~7ULL);
        }
        auto r = caches.access(phys_core, a, false, ExecMode::user);
        data_stall +=
            std::max(r.latency, prm.l1HitLatency) - prm.l1HitLatency;
    }
    extra += static_cast<Cycles>(static_cast<double>(data_stall) /
                                 std::max(spec.mlp, 1.0));

    std::uint64_t n_lines = spec.instructions / 16 + 1;
    std::uint64_t text_lines = std::max<std::uint64_t>(
        spec.textBytes / lineSize, 1);
    std::uint64_t pos = fetch_seq % text_lines;
    for (std::uint64_t i = 0; i < n_lines; ++i) {
        VAddr a = spec.textBase + pos * lineSize;
        if (++pos == text_lines)
            pos = 0;
        auto r = caches.access(phys_core, a, true, ExecMode::user);
        extra += std::max(r.latency, prm.l1HitLatency) - prm.l1HitLatency;
    }
    for (std::uint32_t i = 0; i < spec.icacheColdLines; ++i) {
        VAddr a = spec.textBase + 0x100'0000 +
                  ((fetch_seq * 13 + i * 67) % 16384) * lineSize;
        auto r = caches.access(phys_core, a, true, ExecMode::user);
        extra += std::max(r.latency, prm.l1HitLatency) - prm.l1HitLatency;
    }
    fetch_seq += n_lines;

    auto n_br = static_cast<std::uint64_t>(
        static_cast<double>(spec.instructions) * spec.branchFrac);
    std::uint64_t mispred = 0;
    for (std::uint64_t i = 0; i < n_br; ++i) {
        std::uint64_t site = rng.range(spec.staticBranches);
        std::uint64_t pc = spec.textBase + site * 16;
        bool taken = rng.chance(spec.branchBias);
        mispred += static_cast<std::uint64_t>(
            !bp.predictAndUpdate(pc, taken, ExecMode::user));
    }
    return {extra, mispred * prm.mispredPenalty};
}

template <typename T>
std::vector<std::uint8_t>
blobOf(T &obj)
{
    sim::Serializer s = sim::Serializer::saver();
    obj.serialize(s);
    return s.blob();
}

/** Require two hierarchies and predictor sets to be in one state. */
void
expectSameMemState(CacheHierarchy &a, CacheHierarchy &b,
                   std::vector<BranchPredictor> &abps,
                   std::vector<BranchPredictor> &bbps)
{
    for (auto m : {ExecMode::user, ExecMode::kernel}) {
        const auto &ac = a.counters(m);
        const auto &bc = b.counters(m);
        ASSERT_EQ(ac.l1iAccesses, bc.l1iAccesses);
        ASSERT_EQ(ac.l1iMisses, bc.l1iMisses);
        ASSERT_EQ(ac.l1dAccesses, bc.l1dAccesses);
        ASSERT_EQ(ac.l1dMisses, bc.l1dMisses);
        ASSERT_EQ(ac.l2Misses, bc.l2Misses);
        ASSERT_EQ(ac.llcMisses, bc.llcMisses);
    }
    // Every tag, LRU stamp, clock and counter.
    ASSERT_TRUE(blobOf(a) == blobOf(b));
    for (std::size_t c = 0; c < abps.size(); ++c) {
        for (auto m : {ExecMode::user, ExecMode::kernel}) {
            ASSERT_EQ(abps[c].lookups(m), bbps[c].lookups(m));
            ASSERT_EQ(abps[c].mispredicts(m), bbps[c].mispredicts(m));
        }
        // GHR and every PHT counter.
        ASSERT_TRUE(blobOf(abps[c]) == blobOf(bbps[c])) << "core " << c;
    }
}

/**
 * Two LLC sizes: a small one that evicts often and runs the runtime
 * geometry scan, and the default, which runs the scan compiled for
 * it. The default pass replays only the fixed call list.
 */
CacheParams
fuzzCacheParams(bool small_llc)
{
    CacheParams cp;
    if (small_llc)
        cp.llcBytes = 20 * 64 * 1024; // 20-way, 1024 sets
    return cp;
}

} // namespace

TEST(PollutionBatch, KernelPhasesMatchPerLineOracle)
{
    const os::KernelPhase *const all[] = {
        &os::phases::exceptionEntry,    &os::phases::vmaLookup,
        &os::phases::pageAlloc,         &os::phases::ioSubmit,
        &os::phases::contextSwitch,     &os::phases::irqDeliver,
        &os::phases::ioComplete,        &os::phases::wakeupSched,
        &os::phases::metadataUpdate,    &os::phases::pteUpdateReturn,
        &os::phases::minorFaultFill,    &os::phases::syscallEntryExit,
        &os::phases::writeSyscall,      &os::phases::mmapSetupPerPage,
        &os::phases::reclaimScanPage,   &os::phases::writebackSubmit,
        &os::phases::writebackComplete, &os::phases::kptedPerPage,
        &os::phases::kptedScanEntry,    &os::phases::kpooldPerPage,
        &os::phases::shootdownIpi,      &os::phases::coalesceScan,
        &os::phases::coalescePromote,   &os::phases::swSmuSubmit,
        &os::phases::swSmuWake,         &os::phases::swSmuComplete};
    // Batch sizes on both sides of the 4096-line and 8192-branch caps
    // (kptedScanEntry: 1 line and 2 branches per page).
    const std::uint64_t batch_sizes[] = {0, 1, 2, 3, 17, 64, 100, 4095,
                                         4096, 4097, 5000, 9000};
    constexpr unsigned nPhys = 2;

    for (bool small_llc : {true, false}) {
        CacheParams cp = fuzzCacheParams(small_llc);
        CacheHierarchy caches(nPhys, cp), ref_caches(nPhys, cp);
        std::vector<BranchPredictor> bps(nPhys), ref_bps(nPhys);
        os::KernelExec kexec(caches, bps, 357, sim::Rng(0xbeef));
        RefKernelExec ref(ref_caches, ref_bps, 357, sim::Rng(0xbeef));
        sim::Rng pick(small_llc ? 11 : 12);
        bool crossed_lines = false, crossed_branches = false;

        // Every phase through run() and runBatch(), then random
        // interleavings of both, each on a random core.
        struct Call
        {
            const os::KernelPhase *phase;
            bool batched;
            std::uint64_t n;
        };
        auto batch_size = [&] {
            return batch_sizes[pick.range(std::size(batch_sizes))];
        };
        std::vector<Call> calls;
        for (const os::KernelPhase *p : all) {
            calls.push_back({p, false, 1});
            calls.push_back({p, true, batch_size()});
        }
        for (int i = 0; i < (small_llc ? 100 : 0); ++i) {
            const os::KernelPhase *p = all[pick.range(std::size(all))];
            bool batched = pick.chance(0.5);
            calls.push_back({p, batched, batched ? batch_size() : 1});
        }

        for (std::size_t i = 0; i < calls.size(); ++i) {
            const auto &[p, batched, n] = calls[i];
            unsigned core = static_cast<unsigned>(pick.range(nPhys));
            SCOPED_TRACE(::testing::Message()
                         << "call " << i << ' ' << p->name << " core "
                         << core << (batched ? " runBatch " : " run ") << n
                         << (small_llc ? " small LLC" : " default LLC"));
            Tick got, want;
            if (batched) {
                got = kexec.runBatch(core, *p, n);
                want = ref.runBatch(core, *p, n);
                crossed_lines |= p->dcLines * n > 4096;
                crossed_branches |= p->branches * n > 8192;
            } else {
                got = kexec.run(core, *p);
                want = ref.run(core, *p);
            }
            ASSERT_EQ(got, want);
            ASSERT_EQ(kexec.totalPollutionProbes(),
                      ref.totalPollutionProbes());
            ASSERT_EQ(kexec.totalPollutionBranchUpdates(),
                      ref.totalPollutionBranchUpdates());
            // Accounting, invocation counter and pollution rng.
            ASSERT_TRUE(blobOf(kexec) == blobOf(ref));
            ASSERT_NO_FATAL_FAILURE(
                expectSameMemState(caches, ref_caches, bps, ref_bps));
        }
        EXPECT_TRUE(crossed_lines);
        EXPECT_TRUE(crossed_branches);
    }
}

namespace {

/** Random burst shapes, covering every edge of the stream model. */
workloads::ComputeSpec
randomComputeSpec(sim::Rng &rng)
{
    workloads::ComputeSpec s;
    s.instructions = rng.chance(0.1) ? rng.range(16) : rng.range(20000);
    s.memRefFrac = rng.chance(0.1) ? 0.0 : rng.uniform() * 0.3;
    s.branchFrac = rng.chance(0.2) ? 0.0 : rng.uniform() * 0.2;
    s.hotBase = 0x10'0000'0000ULL + rng.range(1 << 20) * 64;
    s.hotBytes = 8 + rng.range(64 * 1024);
    s.coldBytes = rng.chance(0.3) ? 0 : 1 + rng.range(4 * 1024 * 1024);
    s.coldFrac = rng.uniform() * 0.3;
    s.textBase = 0x4000'0000ULL + rng.range(1 << 16) * 64;
    // Down to sub-line footprints, so long bursts wrap the text.
    s.textBytes = rng.chance(0.1) ? rng.range(64) : rng.range(32 * 1024);
    s.icacheColdLines =
        rng.chance(0.3) ? 0 : static_cast<std::uint32_t>(1 + rng.range(40));
    s.mlp = rng.chance(0.3) ? rng.uniform() : 1.0 + rng.uniform() * 7.0;
    s.branchBias = rng.uniform();
    s.staticBranches = static_cast<std::uint32_t>(1 + rng.range(1024));
    return s;
}

/** The compute specs the FIO and YCSB-A workloads emit. */
std::vector<workloads::ComputeSpec>
workloadComputeSpecs()
{
    system::MachineConfig cfg;
    cfg.memFrames = 8 * 1024;
    system::System sys(cfg);
    auto mf = sys.mapDataset("data", 1024);
    auto *wal = sys.createFile("wal", 1024);
    workloads::FioWorkload fio(mf.vma, 1000);
    workloads::KvStore store(mf.vma, wal, 1024);
    workloads::YcsbWorkload ycsb('A', store, 1000);
    sim::Rng rng(5);
    std::vector<workloads::ComputeSpec> specs;
    auto harvest = [&](workloads::Workload &wl) {
        for (int i = 0; i < 60; ++i) {
            workloads::Op op = wl.next(rng);
            if (op.kind == workloads::Op::Kind::compute)
                specs.push_back(op.compute);
        }
    };
    harvest(fio);
    harvest(ycsb);
    return specs;
}

} // namespace

TEST(PollutionBatch, ComputeBurstMatchesPerLineOracle)
{
    std::vector<workloads::ComputeSpec> specs = workloadComputeSpecs();
    ASSERT_GE(specs.size(), 40u);
    constexpr unsigned nPhys = 2;
    cpu::CoreParams prm;

    for (bool small_llc : {true, false}) {
        CacheParams cp = fuzzCacheParams(small_llc);
        CacheHierarchy caches(nPhys, cp), ref_caches(nPhys, cp);
        std::vector<BranchPredictor> bps(nPhys), ref_bps(nPhys);
        sim::Rng rng(0xb0b), ref_rng(0xb0b);
        sim::Rng pick(small_llc ? 21 : 22);
        std::uint64_t fetch_seq[nPhys] = {}, ref_fetch_seq[nPhys] = {};
        cpu::BurstScratch scratch;

        // The workload specs in order, then random shapes mixed in.
        std::vector<workloads::ComputeSpec> bursts = specs;
        for (int i = 0; i < (small_llc ? 100 : 0); ++i)
            bursts.push_back(pick.chance(0.5)
                                 ? randomComputeSpec(pick)
                                 : specs[pick.range(specs.size())]);

        // Edges of the stream model the random shapes must reach:
        // coldBytes 0 / > 0, icacheColdLines 0 / > 0, branchFrac 0,
        // mlp < 1 and a text stream that wraps within one burst.
        bool cold[2] = {}, icold[2] = {};
        bool no_branches = false, low_mlp = false, wrapped = false;

        for (std::size_t i = 0; i < bursts.size(); ++i) {
            const workloads::ComputeSpec &b = bursts[i];
            cold[b.coldBytes > 0] = true;
            icold[b.icacheColdLines > 0] = true;
            no_branches |= b.branchFrac == 0.0;
            low_mlp |= b.mlp < 1.0;
            wrapped |= b.instructions / 16 + 1 >
                       std::max<std::uint64_t>(b.textBytes / lineSize, 1);
            unsigned core = static_cast<unsigned>(pick.range(nPhys));
            SCOPED_TRACE(::testing::Message()
                         << "burst " << i << " core " << core
                         << (small_llc ? " small LLC" : " default LLC"));
            cpu::BurstStalls got =
                cpu::runBurstStream(caches, bps[core], rng, core, b, prm,
                                    fetch_seq[core], scratch);
            cpu::BurstStalls want =
                refBurstStream(ref_caches, ref_bps[core], ref_rng, core, b,
                               prm, ref_fetch_seq[core]);
            ASSERT_EQ(got.stall, want.stall);
            ASSERT_EQ(got.mispredict, want.mispredict);
            ASSERT_EQ(fetch_seq[core], ref_fetch_seq[core]);
            ASSERT_TRUE(blobOf(rng) == blobOf(ref_rng));
            ASSERT_NO_FATAL_FAILURE(
                expectSameMemState(caches, ref_caches, bps, ref_bps));
        }
        if (small_llc) {
            EXPECT_TRUE(cold[0] && cold[1]);
            EXPECT_TRUE(icold[0] && icold[1]);
            EXPECT_TRUE(no_branches);
            EXPECT_TRUE(low_mlp);
            EXPECT_TRUE(wrapped);
        }
    }
}
