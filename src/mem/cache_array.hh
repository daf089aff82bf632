/**
 * @file
 * Set-associative cache tag array with true-LRU replacement.
 *
 * Only tags are modelled (no data), which is all the paper's
 * microarchitectural-pollution analysis needs: the OS fault handler
 * evicts user-application lines, and the resulting extra user misses
 * show up as reduced user-level IPC (Figures 4 and 14).
 *
 * Layout: each way is a single 64-bit word packing the tag (upper
 * bits) with its LRU stamp (lower bits), so a set scan — the hottest
 * loop in the whole simulator; every compute-burst data reference and
 * kernel-pollution touch lands here — reads exactly one densely
 * packed stream of ways and a hit updates recency in the word it
 * already loaded. Splitting tags and stamps into parallel arrays
 * doubles the host cache lines touched per scan, which dominates the
 * simulator's wall clock on the LLC (whose metadata exceeds the host
 * L2).
 *
 * Every modelled address is a canonical 48-bit x86-64 address (bits
 * 63..47 all equal: user data below 2^47, kernel text and data at
 * 0xffff...), so the tag keeps only address bits [index, 48) and the
 * stamp field gets the line-offset and set-index bits plus the 15 bits
 * canonical addresses leave free. Two canonical addresses agree in
 * bits 48..63 whenever they agree in bit 47, so the narrower tag
 * distinguishes exactly the lines the full address does. Any other
 * address is rejected with fatal(). An L1 clock saturates once per
 * 2^27 accesses; stamps are then renormalised to their per-set LRU
 * rank, which preserves order — the only thing LRU consults — exactly.
 *
 * Victim selection (the way with the smallest stamp; invalid ways
 * carry stamp 0 and therefore win) is part of the one row scan, so a
 * miss installs its line in the call that found it missing.
 */

#ifndef HWDP_MEM_CACHE_ARRAY_HH
#define HWDP_MEM_CACHE_ARRAY_HH

#include <cstdint>
#include <new>
#include <string>
#include <vector>

#if defined(__AVX512F__)
// GCC's AVX-512 intrinsics pass _mm512_undefined_epi32() as the
// masked-builtin pass-through argument, which -Wmaybe-uninitialized
// flags once the intrinsics inline into our scans (GCC PR105593).
// Suppress at the header, where the warnings are attributed.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#include <immintrin.h>
#pragma GCC diagnostic pop
#endif

#include "sim/types.hh"

namespace hwdp::sim {
class Serializer;
}

namespace hwdp::mem {

/**
 * Allocates on a host cache-line boundary, so an 8-way row of tag
 * words is exactly one host line (one load, one store, no split).
 */
template <typename T>
struct LineAlignedAllocator
{
    using value_type = T;
    static constexpr std::align_val_t align{64};

    LineAlignedAllocator() = default;
    template <typename U>
    LineAlignedAllocator(const LineAlignedAllocator<U> &)
    {
    }
    T *
    allocate(std::size_t n)
    {
        return static_cast<T *>(::operator new(n * sizeof(T), align));
    }
    void
    deallocate(T *p, std::size_t)
    {
        ::operator delete(p, align);
    }
    bool operator==(const LineAlignedAllocator &) const { return true; }
};

class CacheArray
{
  public:
    /**
     * @param name       For diagnostics.
     * @param size_bytes Total capacity; must be assoc * n_sets * line.
     * @param assoc      Ways per set (at most 64).
     * @param line_bytes Line size (default 64 B).
     */
    CacheArray(std::string name, std::uint64_t size_bytes, unsigned assoc,
               unsigned line_bytes = 64);

    /**
     * Look up @p addr, allocating on miss.
     * @return true on hit.
     */
    bool
    access(std::uint64_t addr)
    {
        if (!canonical(addr)) [[unlikely]]
            badAddress(addr);
        if (useClock == stampMask) [[unlikely]]
            renormalize();
        std::uint64_t *row = &meta[setOf(addr) * ways];
        std::uint64_t want = tagWord(addr);
        std::uint64_t word = want | ++useClock;
        std::uint64_t fills = 0;
        bool hit = fixedWays == 8 ? lookupRow<8>(row, 8, want, stampMask,
                                                 word, fills)
                   : fixedWays == 20
                       ? lookupRow<20>(row, 20, want, stampMask, word,
                                       fills)
                       : lookupRow<0>(row, ways, want, stampMask, word,
                                      fills);
        nValid += fills;
        hits += hit;
        misses += !hit;
        return hit;
    }

    /**
     * Look up a run of @p n line addresses, allocating on miss, with
     * identical post-state and counters to n sequential access()
     * calls: lines are processed strictly in order through the same
     * row scan (stamp i is position-determined, each line's scan sees
     * every earlier line's installation, so set collisions and
     * aliasing within the run need no special handling), and
     * renormalisation fires at exactly the same access indices. The
     * wins are on the host: one call replaces n, the loop is compiled
     * for the array's geometry, the counters fold up once, misses
     * compact directly into the next level's input run, and on wide
     * arrays (whose metadata exceeds the host cache) every upcoming
     * set is prefetched a window ahead of its scan.
     *
     * @param miss_out   Receives the missing addresses, in run order,
     *                   compacted; must hold @p n words. This is the
     *                   next level's input in a level-major descent.
     * @param hit_bitmap Optional (tests): bit i set iff line i hit;
     *                   at least (n + 63) / 64 words.
     * @return the number of hits (n minus the miss_out count).
     */
    std::size_t accessBatch(const std::uint64_t *addrs, std::size_t n,
                            std::uint64_t *miss_out,
                            std::uint64_t *hit_bitmap = nullptr);

    /** Look up without allocating or updating recency. */
    bool
    probe(std::uint64_t addr) const
    {
        if (!canonical(addr)) [[unlikely]]
            badAddress(addr);
        const std::uint64_t *row = &meta[setOf(addr) * ways];
        std::uint64_t want = tagWord(addr);
        for (unsigned w = 0; w < ways; ++w) {
            if ((row[w] & ~stampMask) == want)
                return true;
        }
        return false;
    }

    /** Invalidate a single line if present; returns true if it was. */
    bool invalidate(std::uint64_t addr);

    /** Drop all contents (e.g. on simulated power events / tests). */
    void flush();

    /** Number of valid lines currently resident (O(1) live counter). */
    std::uint64_t occupancy() const { return nValid; }

    std::uint64_t sizeBytes() const { return bytes; }
    unsigned associativity() const { return ways; }
    unsigned numSets() const { return sets; }
    unsigned lineBytes() const { return line; }
    const std::string &name() const { return label; }

    std::uint64_t hitCount() const { return hits; }
    std::uint64_t missCount() const { return misses; }

    /**
     * Whole-array stamp renormalisations since construction (host
     * work, not simulated state: not checkpointed).
     */
    std::uint64_t renormalizations() const { return nRenorm; }

    /**
     * Raw tag+stamp words (sets * ways, row-major by set). The
     * differential tests compare this for full post-state equality
     * between the batched and per-line paths.
     */
    const std::vector<std::uint64_t, LineAlignedAllocator<std::uint64_t>> &
    rawMeta() const
    {
        return meta;
    }

    /**
     * Checkpoint the packed tag+stamp words, the LRU clock and the
     * hit/miss/occupancy counters; the geometry is verified.
     */
    void serialize(sim::Serializer &s);

  private:
    /** Address bits a canonical x86-64 address carries. */
    static constexpr unsigned addrBits = 48;
    /**
     * Word bits neither the tag nor the index needs: 64 - 48, less
     * one for the tag's +1 bias. They widen the stamp field.
     */
    static constexpr unsigned spareBits = 64 - addrBits - 1;

    static bool
    canonical(std::uint64_t addr)
    {
        return (addr + (std::uint64_t(1) << (addrBits - 1))) >>
                   addrBits ==
               0;
    }

    /**
     * The one row scan every lookup runs: find @p want in the set
     * @p row, or else its LRU victim, and store @p word (want | the
     * access's stamp) there. @p W is the way count when fixed at
     * compile time, 0 for a runtime @p n_ways. Read-modify-write of
     * the row only, so access() and accessBatch() stay bit-identical
     * by construction.
     *
     * Victim keys pack (stamp << 6 | way) so the argmin is a plain
     * min: valid stamps are unique, and ties among invalid ways
     * (stamp 0) break toward the lowest way, like a strict-< scan.
     * @return true on a hit; @p fills counts a miss into an invalid
     * way.
     */
    template <unsigned W>
    [[gnu::always_inline]] static inline bool
    lookupRow(std::uint64_t *row, unsigned n_ways, std::uint64_t want,
              std::uint64_t stamp_mask, std::uint64_t word,
              std::uint64_t &fills)
    {
#if defined(__AVX512F__)
        if constexpr (W != 0) {
            const __m512i vstamp =
                _mm512_set1_epi64(static_cast<long long>(stamp_mask));
            const __m512i vwant =
                _mm512_set1_epi64(static_cast<long long>(want));
            const __m512i lane = _mm512_setr_epi64(0, 1, 2, 3, 4, 5, 6, 7);
            if constexpr (W == 8) {
                // The whole set is one register. The row is written
                // back whole with the new word blended in: that store's
                // address is known before the scan ends, so the next
                // same-set load forwards from it instead of stalling on
                // a late-addressed 8-byte store.
                __m512i r = _mm512_loadu_si512(row);
                __mmask8 m = _mm512_cmpeq_epi64_mask(
                    _mm512_andnot_si512(vstamp, r), vwant);
                unsigned slot;
                if (m) {
                    slot = static_cast<unsigned>(__builtin_ctz(m));
                } else {
                    __m512i keys = _mm512_or_epi64(
                        _mm512_slli_epi64(_mm512_and_epi64(r, vstamp), 6),
                        lane);
                    std::uint64_t best = _mm512_reduce_min_epu64(keys);
                    slot = static_cast<unsigned>(best & 63);
                    fills += best >> 6 == 0;
                }
                _mm512_storeu_si512(
                    row, _mm512_mask_set1_epi64(
                             r, static_cast<__mmask8>(1u << slot),
                             static_cast<long long>(word)));
                return m != 0;
            } else {
                // Wide set: 8 ways per step, tail lanes via a masked
                // load that never reads past the set. A hit returns at
                // its group; a miss re-walks the (now host-resident)
                // row for the victim, padding lanes losing the min.
                static_assert(W > 8 && W <= 64, "row scan covers 1..64");
                constexpr unsigned full = W / 8 * 8;
                constexpr __mmask8 tail =
                    static_cast<__mmask8>((1u << W % 8) - 1);
                for (unsigned w = 0; w < W; w += 8) {
                    __mmask8 k = w < full ? __mmask8(0xff) : tail;
                    __m512i r = _mm512_maskz_loadu_epi64(k, row + w);
                    __mmask8 m = k & _mm512_cmpeq_epi64_mask(
                                         _mm512_andnot_si512(vstamp, r),
                                         vwant);
                    if (m) {
                        row[w + static_cast<unsigned>(__builtin_ctz(m))] =
                            word;
                        return true;
                    }
                }
                __m512i best = _mm512_set1_epi64(-1);
                for (unsigned w = 0; w < W; w += 8) {
                    __mmask8 k = w < full ? __mmask8(0xff) : tail;
                    __m512i r = _mm512_maskz_loadu_epi64(k, row + w);
                    __m512i keys = _mm512_or_epi64(
                        _mm512_slli_epi64(_mm512_and_epi64(r, vstamp), 6),
                        _mm512_add_epi64(lane, _mm512_set1_epi64(w)));
                    best = _mm512_mask_min_epu64(best, k, best, keys);
                }
                std::uint64_t b = _mm512_reduce_min_epu64(best);
                fills += b >> 6 == 0;
                row[b & 63] = word;
                return false;
            }
        }
#endif
        // Portable scan. The hit way is accumulated with conditional
        // moves: an early-exit loop mispredicts once per access
        // because the hit way is unpredictable. A tag occurs at most
        // once per set, so the last match is the only match.
        const unsigned nw = W ? W : n_ways;
        const std::uint64_t tag_mask = ~stamp_mask;
        bool found = false;
        unsigned slot = 0;
        for (unsigned w = 0; w < nw; ++w) {
            bool eq = (row[w] & tag_mask) == want;
            found |= eq;
            slot = eq ? w : slot;
        }
        if (!found) {
            // Two accumulators keep the cmov chain off the critical
            // path.
            std::uint64_t best = ~std::uint64_t(0);
            std::uint64_t alt = ~std::uint64_t(0);
            unsigned w = 0;
            for (; w + 1 < nw; w += 2) {
                std::uint64_t a = (row[w] & stamp_mask) << 6 | w;
                std::uint64_t b = (row[w + 1] & stamp_mask) << 6 | (w + 1);
                best = best < a ? best : a;
                alt = alt < b ? alt : b;
            }
            if (w < nw) {
                std::uint64_t a = (row[w] & stamp_mask) << 6 | w;
                best = best < a ? best : a;
            }
            best = best < alt ? best : alt;
            slot = static_cast<unsigned>(best & 63);
            fills += best >> 6 == 0;
        }
        row[slot] = word;
        return found;
    }

    /**
     * accessBatch() compiled for one geometry: @p W ways and @p S sets
     * of 64-byte lines, or (0, 0) for the array's runtime geometry.
     */
    template <unsigned W, unsigned S>
    std::size_t runBatch(const std::uint64_t *addrs, std::size_t n,
                         std::uint64_t *miss_out, std::uint64_t *hit_bitmap);

    std::size_t
    setOf(std::uint64_t addr) const
    {
        return addr >> lineShiftBits & (sets - 1);
    }

    std::string label;
    std::uint64_t bytes;
    unsigned ways;
    unsigned line;
    unsigned sets;
    unsigned lineShiftBits;
    unsigned setBits;
    /**
     * Ways of the compiled row scan this array uses (8 for the default
     * L1/L2, 20 for the default LLC, 0 = runtime); see accessBatch().
     */
    unsigned fixedWays = 0;

    /**
     * Stamp field width = line-offset bits + set-index bits +
     * spareBits. Stamps of valid ways are in [1, stampMask); 0 is
     * reserved for invalid ways (and makes the all-zero word the
     * invalid encoding), stampMask triggers renormalisation before it
     * is ever stored.
     */
    std::uint64_t stampMask;

    /** sets * ways, row-major by set. */
    std::vector<std::uint64_t, LineAlignedAllocator<std::uint64_t>> meta;
    std::uint64_t useClock = 0;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t nValid = 0;
    std::uint64_t nRenorm = 0;

    /**
     * Tag field for canonical @p addr: address bits [index, 48),
     * positioned above the stamp. Stored with +1 bias so no valid way
     * ever encodes as zero: the tag field of a real line is therefore
     * never 0 and an invalid way (word 0) can never false-hit address
     * 0. The biased tag needs 49 - index bits, which with the stamp's
     * index + 15 fills the word exactly.
     */
    std::uint64_t
    tagWord(std::uint64_t addr) const
    {
        unsigned index_bits = lineShiftBits + setBits;
        return (((addr & ((std::uint64_t(1) << addrBits) - 1)) >>
                 index_bits) +
                1)
               << (index_bits + spareBits);
    }

    /** fatal() for a non-canonical address, naming the cache. */
    [[noreturn]] void badAddress(std::uint64_t addr) const;

    /**
     * Rewrite every stamp as its per-set LRU rank (1..ways), resetting
     * the clock. Order-preserving, so replacement behaviour is
     * bit-identical; runs when the clock reaches stampMask.
     */
    void renormalize();

    /** renormalize() for one set. */
    void renormalizeSet(unsigned s);
};

} // namespace hwdp::mem

#endif // HWDP_MEM_CACHE_ARRAY_HH
