/**
 * @file
 * Gshare branch predictor with a BTB-less interface.
 *
 * Kernel entries on every page fault execute thousands of kernel
 * branches, shifting the global history and retraining pattern-table
 * counters away from the user application's branches — one of the
 * "hidden costs" the paper attributes to OS-based demand paging. The
 * model keeps user/kernel accuracy separately so that cost is visible.
 */

#ifndef HWDP_MEM_BRANCH_PREDICTOR_HH
#define HWDP_MEM_BRANCH_PREDICTOR_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/types.hh"

namespace hwdp::sim {
class Serializer;
}

namespace hwdp::mem {

class BranchPredictor
{
  public:
    /**
     * @param history_bits Global-history length; the pattern table has
     *                     2^history_bits two-bit counters.
     */
    explicit BranchPredictor(unsigned history_bits = 14);

    /**
     * Predict the branch at @p pc, then update with the actual
     * @p taken outcome. Inline: compute bursts and kernel pollution
     * both drive one call per simulated branch, so the table poke
     * must not cost a cross-TU call.
     * @return true when the prediction was correct.
     */
    bool
    predictAndUpdate(std::uint64_t pc, bool taken, ExecMode mode)
    {
        // Classic gshare: XOR the branch address (sans byte offset)
        // with the global history register.
        std::uint64_t idx = ((pc >> 2) ^ ghr) & historyMask;
        unsigned t = taken ? 1u : 0u;
        std::uint8_t e = transition[pht[idx] << 1 | t];
        pht[idx] = e & 3;
        ghr = ((ghr << 1) | t) & historyMask;

        auto m = static_cast<unsigned>(mode);
        ++nLookups[m];
        nMiss[m] += e >> 2;
        return !(e >> 2);
    }

    /**
     * Apply @p n updates in bulk, equivalent to n predictAndUpdate
     * calls with pc = pcs[i % n_pcs] and outcome taken[i] (non-zero =
     * taken). The kernel-pollution model drives hundreds of updates
     * per phase over a memoized PC vector; this keeps the GHR and the
     * counters in registers across the batch and bulk-increments the
     * per-mode statistics once, instead of paying the bookkeeping per
     * branch. @p n_pcs must cover the caller's wrap period (the
     * pollution stream repeats its PCs every 1024 branches).
     * @return the number of mispredicted branches in the batch.
     */
    std::uint64_t updateBatch(const std::uint64_t *pcs, std::size_t n_pcs,
                              const std::uint8_t *taken, std::size_t n,
                              ExecMode mode);

    std::uint64_t lookups(ExecMode mode) const;
    std::uint64_t mispredicts(ExecMode mode) const;

    /** Fraction of mispredicted branches in @p mode. */
    double missRate(ExecMode mode) const;

    /** Reset tables and counters. */
    void reset();

    /** Checkpoint the GHR, pattern table and per-mode counters. */
    void serialize(sim::Serializer &s);

    /**
     * The 2-bit saturating counter as a table, indexed by
     * (counter << 1 | taken): bits 0-1 hold the next counter, bit 2
     * is set when the prediction (taken iff counter >= 2) was wrong.
     * A lookup replaces the compare-and-add arithmetic, and has no
     * host branch on the outcome, which is simulated coin-flip data.
     */
    static constexpr std::uint8_t transition[8] = {
        0,     // 0, not taken: stays 0, predicted right
        1 | 4, // 0, taken: to 1, mispredicted
        0,     // 1, not taken: to 0, predicted right
        2 | 4, // 1, taken: to 2, mispredicted
        1 | 4, // 2, not taken: to 1, mispredicted
        3,     // 2, taken: to 3, predicted right
        2 | 4, // 3, not taken: to 2, mispredicted
        3,     // 3, taken: stays 3, predicted right
    };

  private:
    unsigned historyBits;
    std::uint64_t historyMask;
    std::uint64_t ghr = 0;
    std::vector<std::uint8_t> pht; // 2-bit saturating counters

    std::uint64_t nLookups[2] = {0, 0};
    std::uint64_t nMiss[2] = {0, 0};
};

} // namespace hwdp::mem

#endif // HWDP_MEM_BRANCH_PREDICTOR_HH
