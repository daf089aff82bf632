#include "mem/branch_predictor.hh"

#include <algorithm>

#include "sim/logging.hh"
#include "sim/serialize.hh"

namespace hwdp::mem {

void
BranchPredictor::serialize(sim::Serializer &s)
{
    s.section("branchpredictor");
    s.check(historyBits, "branch history bits");
    s.io(ghr);
    std::uint64_t n = pht.size();
    s.check(n, "pattern table size");
    s.ioRange(pht.begin(), pht.end());
    s.io(nLookups[0]);
    s.io(nLookups[1]);
    s.io(nMiss[0]);
    s.io(nMiss[1]);
}

BranchPredictor::BranchPredictor(unsigned history_bits)
    : historyBits(history_bits)
{
    if (history_bits == 0 || history_bits > 24)
        fatal("branch predictor: unreasonable history length ",
              history_bits);
    historyMask = (1ULL << historyBits) - 1;
    pht.assign(std::size_t(1) << historyBits, 1); // weakly not-taken
}

std::uint64_t
BranchPredictor::updateBatch(const std::uint64_t *pcs, std::size_t n_pcs,
                             const std::uint8_t *taken, std::size_t n,
                             ExecMode mode)
{
    // Same gshare transition as predictAndUpdate, unrolled over the
    // batch: the GHR and the miss count live in locals, the per-mode
    // statistics are written once at the end. The PHT/GHR updates are
    // inherently serial (each index depends on the previous outcome),
    // but they are one table lookup each once the per-call overhead is
    // gone.
    std::uint64_t g = ghr;
    std::uint64_t miss = 0;
    std::uint8_t *table = pht.data();
    std::size_t i = 0;
    std::size_t j = 0;
    while (i < n) {
        // Inner loop over one pass of the PC ring: no wrap check per
        // update (the common case never wraps — runs are at most one
        // ring long).
        std::size_t len = std::min(n - i, n_pcs - j);
        const std::uint64_t *pc = pcs + j;
        for (std::size_t k = 0; k < len; ++k) {
            std::uint64_t idx = ((pc[k] >> 2) ^ g) & historyMask;
            unsigned t = taken[i + k] ? 1u : 0u;
            std::uint8_t e = transition[table[idx] << 1 | t];
            table[idx] = e & 3;
            miss += e >> 2;
            g = ((g << 1) | t) & historyMask;
        }
        i += len;
        j += len;
        if (j == n_pcs)
            j = 0;
    }
    ghr = g;
    auto m = static_cast<unsigned>(mode);
    nLookups[m] += n;
    nMiss[m] += miss;
    return miss;
}

std::uint64_t
BranchPredictor::lookups(ExecMode mode) const
{
    return nLookups[static_cast<unsigned>(mode)];
}

std::uint64_t
BranchPredictor::mispredicts(ExecMode mode) const
{
    return nMiss[static_cast<unsigned>(mode)];
}

double
BranchPredictor::missRate(ExecMode mode) const
{
    auto m = static_cast<unsigned>(mode);
    return nLookups[m]
               ? static_cast<double>(nMiss[m]) /
                     static_cast<double>(nLookups[m])
               : 0.0;
}

void
BranchPredictor::reset()
{
    ghr = 0;
    std::fill(pht.begin(), pht.end(), 1);
    nLookups[0] = nLookups[1] = 0;
    nMiss[0] = nMiss[1] = 0;
}

} // namespace hwdp::mem
