/**
 * @file
 * A hardware thread executing a workload.
 *
 * The ThreadContext pulls operations from its workload and executes
 * them against the machine: compute bursts run real references through
 * the cache hierarchy and branch predictor (so OS pollution is felt),
 * memory accesses go through the MMU (TLB, walker, demand paging),
 * file writes go through the kernel's syscall path. User-mode
 * instruction/cycle accounting follows the PMU convention the paper
 * uses: fault-resolution time is not user time.
 *
 * Execution is batched (the zero-event fast path): ops that complete
 * without OS or SMU interaction — compute bursts, TLB/walk hits, think
 * time — run back-to-back in host code, accruing their latency into a
 * logical clock, and the thread posts a single continuation event per
 * batch. A batch is cut when the logical clock would pass the event
 * queue's next pending event (so no cross-actor interleaving is ever
 * reordered), when memQuantum ops have accrued, or when the next op
 * needs real simulated time (page miss, file write, msync, done).
 * Because nothing else runs inside a batch, the machine state any
 * other actor can observe is identical to event-per-op execution; see
 * DESIGN.md section 6e for the equivalence argument.
 */

#ifndef HWDP_CPU_THREAD_CONTEXT_HH
#define HWDP_CPU_THREAD_CONTEXT_HH

#include <array>
#include <functional>
#include <vector>

#include "cpu/mmu.hh"
#include "os/kernel.hh"
#include "sim/rng.hh"
#include "workloads/workload.hh"

namespace hwdp::cpu {

struct CoreParams
{
    Tick cyclePeriod = 357;   ///< 2.8 GHz.
    double baseCpi = 0.45;    ///< CPI with all-hit caches.
    Cycles mispredPenalty = 15;
    Cycles l1HitLatency = 4;  ///< Folded into baseCpi.

    /**
     * Max ops accrued inline per continuation event. 1 restores
     * event-per-op pacing (the legacy path, kept for differential
     * testing); the default bounds how far one thread's logical clock
     * can run ahead of the event queue within a quantum.
     */
    unsigned memQuantum = 4096;
};

/** Cycles a compute burst loses beyond its all-hit base CPI. */
struct BurstStalls
{
    Cycles stall;      ///< Data (after MLP overlap) plus fetch stalls.
    Cycles mispredict; ///< Mispredicted branches times the penalty.
};

/** Host scratch for runBurstStream, reused so bursts never allocate. */
struct BurstScratch
{
    std::vector<std::uint64_t> addrs;
    std::vector<std::uint64_t> pcs;
    std::vector<std::uint8_t> taken;
};

/**
 * One compute burst's cache and branch-predictor stream on physical
 * core @p phys_core: draw the data addresses and branch sites/outcomes
 * from @p rng, run the data, text and cold-text references through
 * @p caches as three level-major batches, and the branches through
 * @p bp as one update batch. Advances @p fetch_seq past the burst's
 * text lines. Free of any machine so tests can drive it directly.
 */
BurstStalls runBurstStream(mem::CacheHierarchy &caches,
                           mem::BranchPredictor &bp, sim::Rng &rng,
                           unsigned phys_core,
                           const workloads::ComputeSpec &spec,
                           const CoreParams &prm, std::uint64_t &fetch_seq,
                           BurstScratch &scratch);

class ThreadContext : public os::Thread, public AccessSink
{
  public:
    ThreadContext(std::string name, unsigned core, os::Kernel &kernel,
                  Mmu &mmu, mem::CacheHierarchy &caches,
                  mem::BranchPredictor &bp, os::AddressSpace &as,
                  workloads::Workload &workload, const CoreParams &params,
                  sim::Rng rng);

    void run() override;

    /** OOM-killer victim: terminate gracefully instead of panicking. */
    bool handleOom() override;

    /** Slow-path (page-miss) access completion. */
    void accessDone(const AccessInfo &info) override;

    /** Invoked once the workload yields its done op. */
    void setOnFinished(std::function<void()> fn)
    {
        onFinished = std::move(fn);
    }

    os::AddressSpace &addressSpace() { return as; }
    Mmu &mmu() { return mmuRef; }
    workloads::Workload &workloadRef() { return workload; }

    // ---- Measurements ---------------------------------------------------
    std::uint64_t userInstructions() const { return uInstr; }
    Cycles userCycles() const { return uCycles; }
    Cycles computeCycles() const { return cCycles; }
    Cycles memStallCycles() const { return mCycles; }
    double userIpc() const
    {
        return uCycles ? static_cast<double>(uInstr) /
                             static_cast<double>(uCycles)
                       : 0.0;
    }

    std::uint64_t appOps() const { return nAppOps; }
    std::uint64_t memOps() const { return nMemOps; }
    std::uint64_t faultedOps() const { return nFaulted; }
    std::uint64_t hwHandledOps() const { return nHwHandled; }

    /** Wall time spent resolving page misses (any flavour). */
    Tick faultStallTicks() const { return faultStall; }

    Tick startTick() const { return started; }
    Tick finishTick() const { return finished; }
    bool done() const { return isDone; }
    bool oomKilled() const { return wasOomKilled; }

    /** Per-access latency distribution. */
    sim::Histogram &memLatencyUs() { return memLat; }

    /**
     * Application-op latency (first sub-op start to endsAppOp
     * completion) for ops that included a page miss — FIO's reported
     * per-4KB-read latency including its engine loop and data copy.
     */
    sim::Histogram &faultedOpLatencyUs() { return faultedOpLat; }

    /**
     * Checkpoint the execution state: scheduling state, user-mode
     * accounting, latency histograms and the workload-draw rng. Only
     * valid at quiesce (no op in flight).
     */
    void serialize(sim::Serializer &s);

  private:
    os::Kernel &kernel;
    Mmu &mmuRef;
    mem::CacheHierarchy &caches;
    mem::BranchPredictor &bp;
    os::AddressSpace &as;
    workloads::Workload &workload;
    CoreParams prm;
    sim::Rng rng;
    unsigned physCore;

    std::function<void()> onFinished;

    std::uint64_t uInstr = 0;
    Cycles uCycles = 0;
    Cycles cCycles = 0;
    Cycles mCycles = 0;
    std::uint64_t nAppOps = 0;
    std::uint64_t nMemOps = 0;
    std::uint64_t nFaulted = 0;
    std::uint64_t nHwHandled = 0;
    Tick faultStall = 0;
    Tick started = 0;
    Tick finished = 0;
    bool isDone = false;
    bool wasOomKilled = false;
    bool startedFlag = false;
    std::uint64_t fetchSeq = 0;

    sim::Histogram memLat;
    sim::Histogram faultedOpLat;
    Tick appOpStart = 0;
    bool appOpFaulted = false;
    bool appOpOpen = false;

    /**
     * An op drawn mid-batch that needs real simulated time is stashed
     * here across the batch cut and executed at the continuation.
     */
    workloads::Op curOp{};
    bool hasCurOp = false;

    /** Logical issue time of the in-flight slow-path memory access. */
    Tick memOpStart = 0;
    bool memOpEndsApp = false;

    BurstScratch burstScratch;

    void opLoop();
    void finishOp(Tick logical_now);
    Tick computeBurst(const workloads::ComputeSpec &spec);
};

} // namespace hwdp::cpu

#endif // HWDP_CPU_THREAD_CONTEXT_HH
