#include "mem/cache_array.hh"

#include <algorithm>
#include <bit>

#include "sim/logging.hh"
#include "sim/serialize.hh"

namespace hwdp::mem {

void
CacheArray::serialize(sim::Serializer &s)
{
    s.section("cachearray");
    s.check(bytes, "cache size");
    s.check(ways, "cache associativity");
    s.check(line, "cache line size");
    std::uint64_t n = meta.size();
    s.check(n, "cache meta words");
    s.ioRange(meta.begin(), meta.end());
    s.io(useClock);
    s.io(hits);
    s.io(misses);
    s.io(nValid);
}

CacheArray::CacheArray(std::string name, std::uint64_t size_bytes,
                       unsigned assoc, unsigned line_bytes)
    : label(std::move(name)), bytes(size_bytes), ways(assoc),
      line(line_bytes)
{
    if (assoc == 0 || line_bytes == 0 || size_bytes == 0)
        fatal("cache '", label, "': degenerate geometry");
    if (assoc > 64)
        fatal("cache '", label, "': associativity above 64 unsupported");
    if (!std::has_single_bit(static_cast<std::uint64_t>(line_bytes)))
        fatal("cache '", label, "': line size must be a power of two");
    std::uint64_t n_lines = size_bytes / line_bytes;
    if (n_lines % assoc != 0)
        fatal("cache '", label, "': size not divisible by assoc * line");
    sets = static_cast<unsigned>(n_lines / assoc);
    if (!std::has_single_bit(static_cast<std::uint64_t>(sets)))
        fatal("cache '", label, "': set count must be a power of two");
    lineShiftBits = static_cast<unsigned>(
        std::countr_zero(static_cast<std::uint64_t>(line_bytes)));
    setBits = static_cast<unsigned>(
        std::countr_zero(static_cast<std::uint64_t>(sets)));
    if (lineShiftBits + setBits > addrBits)
        fatal("cache '", label, "': index bits exceed the address width");
    stampMask =
        (std::uint64_t(1) << (lineShiftBits + setBits + spareBits)) - 1;
    if (ways >= stampMask)
        fatal("cache '", label, "': stamp field too narrow for ", ways,
              " ways");
    // The geometries the default CacheParams builds get a batch loop
    // compiled for them (see accessBatch); access() uses the same row
    // scan.
    if (line == 64 &&
        ((ways == 8 && (sets == 64 || sets == 512)) ||
         (ways == 20 && sets == 16384)))
        fixedWays = ways;
    meta.assign(static_cast<std::size_t>(sets) * ways, 0);
}

void
CacheArray::badAddress(std::uint64_t addr) const
{
    fatal("cache '", label, "': address 0x", std::hex, addr,
          " is not a canonical 48-bit address");
}

template <unsigned W, unsigned S>
std::size_t
CacheArray::runBatch(const std::uint64_t *addrs, std::size_t n,
                     std::uint64_t *miss_out, std::uint64_t *hit_bitmap)
{
    static_assert((W == 0) == (S == 0), "fix both ways and sets or neither");
    constexpr bool fixed = W != 0;
    const unsigned n_ways = fixed ? W : ways;
    const std::uint64_t set_mask = fixed ? S - 1 : sets - 1;
    const unsigned line_shift = fixed ? 6 : lineShiftBits;
    const unsigned index_bits =
        fixed ? 6 + std::countr_zero(S) : lineShiftBits + setBits;
    const std::uint64_t stamp_mask =
        fixed ? (std::uint64_t(1) << (index_bits + spareBits)) - 1
              : stampMask;
    const std::uint64_t addr_mask = (std::uint64_t(1) << addrBits) - 1;
    std::uint64_t *m = meta.data();
    auto row_of = [&](std::uint64_t addr) {
        return m + (addr >> line_shift & set_mask) * n_ways;
    };

    // Wide arrays only (the LLC): the metadata exceeds the host
    // cache, so a set scan is a host memory stall. Prefetching each
    // set this many lines before its scan overlaps those stalls; the
    // hint is safe under any aliasing (a stale prefetch just warms
    // the line the scan re-reads).
    const bool wide = n_ways > 8;
    constexpr std::size_t lookahead = 12;
    auto prefetch = [&](std::uint64_t addr) {
        const std::uint64_t *row = row_of(addr);
        __builtin_prefetch(row);
        if (n_ways > 8)
            __builtin_prefetch(row + 8);
        if (n_ways > 16)
            __builtin_prefetch(row + 16);
    };
    if (wide) {
        for (std::size_t j = 0; j < std::min(lookahead, n); ++j)
            prefetch(addrs[j]);
    }

    std::uint64_t clock = useClock;
    std::uint64_t fills = 0;
    // OR of every address + 2^47: bit 48 or above set iff some address
    // was not canonical (checked once, after the loop).
    std::uint64_t canon = 0;
    std::size_t nmiss = 0;
    std::size_t i = 0;
    while (i < n) {
        // The per-line path renormalises when the clock saturates at
        // the start of an access; cutting the run at the same
        // headroom reproduces the renormalisation points exactly.
        if (clock == stamp_mask) [[unlikely]] {
            renormalize();
            clock = useClock;
        }
        std::size_t end = i + static_cast<std::size_t>(
                                  std::min<std::uint64_t>(
                                      n - i, stamp_mask - clock));
        for (; i < end; ++i) {
            if (wide && i + lookahead < n)
                prefetch(addrs[i + lookahead]);
            std::uint64_t addr = addrs[i];
            canon |= addr + (std::uint64_t(1) << (addrBits - 1));
            std::uint64_t want = (((addr & addr_mask) >> index_bits) + 1)
                                 << (index_bits + spareBits);
            bool hit = lookupRow<W>(row_of(addr), n_ways, want, stamp_mask,
                                    want | ++clock, fills);
            // Branch-free compaction: the store is unconditional, the
            // cursor advances only on a miss.
            miss_out[nmiss] = addr;
            nmiss += !hit;
            if (hit_bitmap)
                hit_bitmap[i >> 6] |= static_cast<std::uint64_t>(hit)
                                      << (i & 63);
        }
        useClock = clock;
    }

    if (canon >> addrBits) [[unlikely]] {
        for (std::size_t j = 0; j < n; ++j)
            if (!canonical(addrs[j]))
                badAddress(addrs[j]);
    }
    nValid += fills;
    hits += n - nmiss;
    misses += nmiss;
    return n - nmiss;
}

std::size_t
CacheArray::accessBatch(const std::uint64_t *addrs, std::size_t n,
                        std::uint64_t *miss_out,
                        std::uint64_t *hit_bitmap)
{
    if (hit_bitmap) {
        for (std::size_t w = 0; w < (n + 63) / 64; ++w)
            hit_bitmap[w] = 0;
    }
    // One loop source, compiled for each default geometry (constant
    // set mask, shifts and row stride, fully unrolled scan) and once
    // for everything else.
    switch (fixedWays) {
    case 8:
        return sets == 64 ? runBatch<8, 64>(addrs, n, miss_out, hit_bitmap)
                          : runBatch<8, 512>(addrs, n, miss_out, hit_bitmap);
    case 20:
        return runBatch<20, 16384>(addrs, n, miss_out, hit_bitmap);
    default:
        return runBatch<0, 0>(addrs, n, miss_out, hit_bitmap);
    }
}

bool
CacheArray::invalidate(std::uint64_t addr)
{
    if (!canonical(addr))
        badAddress(addr);
    std::uint64_t *row = &meta[setOf(addr) * ways];
    std::uint64_t want = tagWord(addr);
    for (unsigned w = 0; w < ways; ++w) {
        if ((row[w] & ~stampMask) == want) {
            row[w] = 0;
            --nValid;
            return true;
        }
    }
    return false;
}

void
CacheArray::flush()
{
    meta.assign(meta.size(), 0);
    nValid = 0;
    useClock = 0;
}

void
CacheArray::renormalizeSet(unsigned s)
{
    // Insertion-sort the valid ways of the set by stamp, then rewrite
    // each stamp as its 1-based rank. ways <= 64 keeps the scratch on
    // the stack.
    std::uint64_t *row = &meta[static_cast<std::size_t>(s) * ways];
    unsigned order[64];
    unsigned n = 0;
    for (unsigned w = 0; w < ways; ++w) {
        if (row[w] == 0)
            continue;
        unsigned pos = n++;
        while (pos > 0 &&
               (row[order[pos - 1]] & stampMask) > (row[w] & stampMask)) {
            order[pos] = order[pos - 1];
            --pos;
        }
        order[pos] = w;
    }
    for (unsigned r = 0; r < n; ++r) {
        std::uint64_t m = row[order[r]];
        row[order[r]] = (m & ~stampMask) | (r + 1);
    }
}

void
CacheArray::renormalize()
{
    // The clock restarts above the largest assigned rank.
    ++nRenorm;
    for (unsigned s = 0; s < sets; ++s)
        renormalizeSet(s);
    useClock = ways;
}

} // namespace hwdp::mem
