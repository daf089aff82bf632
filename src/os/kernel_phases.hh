/**
 * @file
 * Kernel-execution phase model.
 *
 * Every stretch of kernel work the simulator charges — page-fault
 * handling, the I/O stack, context switches, interrupt handling,
 * metadata updates, kpted/kpoold batches — is described by a
 * KernelPhase: a calibrated cycle/instruction budget plus a
 * microarchitectural footprint (instruction lines, data lines and
 * branches it touches). Running a phase advances time by its cycle
 * budget and *pollutes* the executing core's caches and branch
 * predictor, which is how the paper's indirect cost (user-level IPC
 * loss, Figures 4/14) emerges in the model.
 *
 * The cycle budgets are calibrated so that an OSDP page fault
 * reproduces Figure 3: ~2.2 us of kernel work before the device I/O,
 * ~6.1 us after it, against a 10.9 us Z-SSD device time (76.3% total
 * overhead).
 */

#ifndef HWDP_OS_KERNEL_PHASES_HH
#define HWDP_OS_KERNEL_PHASES_HH

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "mem/branch_predictor.hh"
#include "mem/cache_hierarchy.hh"
#include "sim/rng.hh"
#include "sim/types.hh"

namespace hwdp::sim {
class Serializer;
}

namespace hwdp::os {

/** Attribution buckets for Figure 15 (kernel cost breakdown). */
enum class KernelCostCat : unsigned {
    faultPath = 0,   ///< Exception entry/exit, VMA lookup, PTE update.
    ioStack,         ///< Submission and completion through the block layer.
    contextSwitch,   ///< Switch-out, wakeup, switch-in.
    irq,             ///< Interrupt delivery.
    metadata,        ///< LRU / rmap / page-cache bookkeeping.
    syscall,         ///< read/write/mmap and friends.
    kpted,           ///< Background metadata-sync thread.
    kpoold,          ///< Background free-page refill thread.
    reclaim,         ///< Page replacement and writeback.
    other,
    numCats
};

const char *kernelCostCatName(KernelCostCat cat);

struct KernelPhase
{
    const char *name;
    Cycles cycles;             ///< Calibrated latency contribution.
    std::uint64_t instructions;
    std::uint16_t icLines;     ///< Distinct instruction lines touched.
    std::uint16_t dcLines;     ///< Distinct data lines touched.
    std::uint16_t branches;    ///< Branches executed (pollute the BP).
    KernelCostCat cat;
};

/**
 * The calibrated phase table. Kept as data (not constants sprinkled
 * through the code) so benches can print it and tests can check the
 * calibration invariants against the paper's fractions.
 */
namespace phases {

// --- OSDP page-fault critical path (Figure 3) ------------------------
extern const KernelPhase exceptionEntry;   ///< Trap + early fault entry.
extern const KernelPhase vmaLookup;        ///< find_vma + policy checks.
extern const KernelPhase pageAlloc;        ///< Buddy/per-cpu allocation.
extern const KernelPhase ioSubmit;         ///< FS + block + NVMe driver.
extern const KernelPhase contextSwitch;    ///< One direction of a switch.
extern const KernelPhase irqDeliver;       ///< MSI-X to handler entry.
extern const KernelPhase ioComplete;       ///< Block completion + unlock.
extern const KernelPhase wakeupSched;      ///< try_to_wake_up + enqueue.
extern const KernelPhase metadataUpdate;   ///< LRU/rmap/page-cache insert.
extern const KernelPhase pteUpdateReturn;  ///< Set PTE + iret.

// --- Minor faults and syscalls ---------------------------------------
extern const KernelPhase minorFaultFill;   ///< Page-cache hit fault.
extern const KernelPhase syscallEntryExit;
extern const KernelPhase writeSyscall;     ///< Buffered 4KB write + copy.
extern const KernelPhase mmapSetupPerPage; ///< PTE population at mmap.

// --- Reclaim ----------------------------------------------------------
extern const KernelPhase reclaimScanPage;  ///< Clock-hand work per page.
extern const KernelPhase writebackSubmit;  ///< Per dirty page written.
extern const KernelPhase writebackComplete; ///< Write-I/O completion.

// --- HWDP control plane ------------------------------------------------
extern const KernelPhase kptedPerPage;     ///< Batched metadata sync.
extern const KernelPhase kptedScanEntry;   ///< Per page-table entry visit.
extern const KernelPhase kpooldPerPage;    ///< Batched free-page refill.
extern const KernelPhase shootdownIpi;     ///< Cross-socket TLB/PWC IPI.

// --- Transparent coalescing (kcoalesced, pageMode=coalesce) -----------
extern const KernelPhase coalesceScan;     ///< Per 2 MB window check.
extern const KernelPhase coalescePromote;  ///< Collapse 512 PTEs to a leaf.

// --- Software-emulated SMU (Figure 17 baseline) -----------------------
extern const KernelPhase swSmuSubmit;      ///< Emulated PMSHR + NVMe cmd.
extern const KernelPhase swSmuWake;        ///< mwait wakeup.
extern const KernelPhase swSmuComplete;    ///< Emulated completion + PTE.

} // namespace phases

/**
 * Executes kernel phases: charges time, applies cache/branch-predictor
 * pollution on the executing physical core, and accumulates the
 * per-category instruction/cycle totals Figure 15 reports.
 */
class KernelExec
{
  public:
    KernelExec(mem::CacheHierarchy &caches,
               std::vector<mem::BranchPredictor> &bps, Tick cycle_period,
               sim::Rng rng);

    /**
     * Run @p phase on physical core @p phys_core.
     * @return the phase duration in ticks.
     */
    Tick run(unsigned phys_core, const KernelPhase &phase);

    /** Run a phase @p n times (batch loops), returning total ticks. */
    Tick runBatch(unsigned phys_core, const KernelPhase &phase,
                  std::uint64_t n);

    std::uint64_t instructions(KernelCostCat cat) const;
    Cycles cycles(KernelCostCat cat) const;
    std::uint64_t totalInstructions() const;
    Cycles totalCycles() const;

    void resetAccounting();

    Tick cyclePeriod() const { return period; }

    /** Pollution can be disabled for pure-latency experiments. */
    void setPollutionEnabled(bool on) { pollute = on; }

    /**
     * Cache tag-array probes (across all three levels) issued by
     * pollution on behalf of @p cat — the simulator-hot-path cost,
     * surfaced so benches can report where the probes come from.
     */
    std::uint64_t pollutionProbes(KernelCostCat cat) const;
    std::uint64_t totalPollutionProbes() const;

    /** Branch-predictor updates issued by pollution for @p cat. */
    std::uint64_t pollutionBranchUpdates(KernelCostCat cat) const;
    std::uint64_t totalPollutionBranchUpdates() const;

    /**
     * Checkpoint the accounting arrays, the invocation counter and
     * the pollution rng. The footprint memo and draw scratch are
     * host-side caches rebuilt on demand and are not serialized.
     */
    void serialize(sim::Serializer &s);

  private:
    mem::CacheHierarchy &caches;
    std::vector<mem::BranchPredictor> &bps;
    Tick period;
    sim::Rng rng;
    bool pollute = true;

    std::uint64_t instrByCat[static_cast<unsigned>(KernelCostCat::numCats)] =
        {};
    Cycles cyclesByCat[static_cast<unsigned>(KernelCostCat::numCats)] = {};
    std::uint64_t probesByCat[static_cast<unsigned>(KernelCostCat::numCats)] =
        {};
    std::uint64_t branchesByCat[static_cast<unsigned>(
        KernelCostCat::numCats)] = {};

    /** Monotone counter that spreads per-invocation data addresses. */
    std::uint64_t invocation = 0;

    /**
     * Memoized per-phase footprint: everything about a phase's
     * pollution that does not vary per invocation. The FNV name hash
     * and the derived text/data bases are computed once; the
     * instruction-line run, the stable (even-index) data lines and
     * the branch-PC cycle are flattened into address vectors that
     * applyPollution streams through the batch APIs directly. Odd
     * data slots are per-invocation and rewritten in bulk before each
     * use. Vectors grow on demand because runBatch scales
     * dcLines/branches per call.
     */
    struct Footprint
    {
        std::uint64_t textBase = 0;
        std::uint64_t dataBase = 0;
        std::vector<std::uint64_t> text;
        std::vector<std::uint64_t> data;
        std::vector<std::uint64_t> branchPcs; // cycle: min(branches,1024)
    };

    /**
     * Keyed by the phase's name pointer: phases are static table
     * entries (runBatch's scaled copies share the table entry's name),
     * so pointer identity is both stable and cheaper than hashing the
     * string per invocation.
     */
    std::unordered_map<const char *, Footprint> footprints;

    /** Scratch for the bulk Bernoulli draws (taken flags). */
    std::vector<std::uint8_t> takenScratch;

    Footprint &footprint(const KernelPhase &phase);

    void applyPollution(unsigned phys_core, const KernelPhase &phase);
};

} // namespace hwdp::os

#endif // HWDP_OS_KERNEL_PHASES_HH
