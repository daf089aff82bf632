/**
 * @file
 * Machine configuration: everything a System needs to build itself.
 *
 * Defaults model the evaluation machine (Table II): a 2.8 GHz Xeon
 * E5-2640 v3 with 8 physical / 16 logical cores and a Samsung SZ985
 * Z-SSD — with memory and dataset sizes scaled down by a constant
 * factor (the experiments are ratio-driven; see DESIGN.md).
 */

#ifndef HWDP_SYSTEM_MACHINE_CONFIG_HH
#define HWDP_SYSTEM_MACHINE_CONFIG_HH

#include <string>

#include "core/smu.hh"
#include "cpu/thread_context.hh"
#include "mem/cache_hierarchy.hh"
#include "os/kernel.hh"

namespace hwdp::system {

/** How page misses on fast-mmap areas are handled. */
enum class PagingMode {
    osdp,  ///< Conventional OS demand paging (the baseline).
    hwdp,  ///< The paper's hardware SMU.
    swsmu, ///< Software-emulated SMU (Figure 17's SW-only).
};

const char *pagingModeName(PagingMode mode);

/** Where the kernel homes a freshly faulted anonymous/file frame. */
enum class NumaPlacement {
    firstTouch, ///< Frame on the faulting core's socket (Linux default).
    roundRobin, ///< Interleave frames across sockets in fault order.
};

const char *numaPlacementName(NumaPlacement p);

const char *pageModeName(PageMode mode);

/** Backing-store tiering in front of the NVMe devices. */
enum class TierMode {
    off, ///< NVMe only — byte-identical to the pre-tier simulator.
    cxl, ///< Per-socket CXL-linked memory buffer fronting the local SSDs.
};

const char *tierModeName(TierMode mode);

struct MachineConfig
{
    PagingMode mode = PagingMode::osdp;

    // ---- CPU ----------------------------------------------------------
    unsigned nLogical = 16;
    unsigned nPhysical = 8;
    Tick cyclePeriod = 357; // ps, 2.8 GHz
    cpu::CoreParams core{};

    // ---- Topology -------------------------------------------------------
    /**
     * CPU sockets in the machine. Each socket groups an equal share of
     * the logical cores, a contiguous span of DRAM, its own SMU (or
     * SW-SMU) with PMSHR + free-page queues, and its own NVMe
     * device(s) behind the local host controller — the paper's SMU is
     * explicitly per-socket (Section III). 1 (the default) builds a
     * machine byte-identical to the pre-NUMA simulator: same object
     * names, same RNG fork order, same stats dump, same checkpoint
     * blob. The PTE's 3-bit socket-id field caps this at 8.
     */
    unsigned sockets = 1;

    /**
     * Extra core cycles an LLC-missing data access pays when the frame
     * lives on a remote socket (the QPI/UPI hop). Inert at sockets=1.
     */
    unsigned numaRemoteExtraCycles = 170;

    /**
     * Latency for a miss request register write that crosses sockets
     * to a remote SMU (PTE socket-id != faulting core's socket).
     */
    Tick numaRemoteSmuLatency = nanoseconds(120.0);

    /** Frame placement policy for kernel-side fault allocation. */
    NumaPlacement numaPlacement = NumaPlacement::firstTouch;

    unsigned coresPerSocket() const { return nLogical / sockets; }
    unsigned socketOfCore(unsigned core_id) const
    {
        return sockets <= 1 ? 0 : core_id / coresPerSocket();
    }

    /** Per-walker page-walk-cache entries (0 disables the PWC). */
    unsigned pwcEntries = 16;

    // ---- Translation reach ----------------------------------------------
    /**
     * Huge pages and contiguity-aware translation. off (the default)
     * builds a machine byte-identical to the pre-huge-page simulator:
     * same stats dump, same checkpoint blob. thp enables fault-time
     * 2 MB transparent huge pages on demand-paged (non fast-mmap)
     * VMAs; napot stamps 64 KB NAPOT reach onto contiguous runs of
     * demand-paged 4 KB file pages (HWDP keeps its 4 KB miss
     * granularity, the TLB gains reach); coalesce is napot + thp plus
     * the kcoalesced daemon promoting 4 KB runs that landed
     * contiguously to 2 MB leaves in the background.
     */
    PageMode pageMode = PageMode::off;

    /** kcoalesced wakeup period (pageMode=coalesce only). */
    Tick kcoalescePeriod = milliseconds(8.0);
    /** 2 MB windows kcoalesced examines per wakeup. */
    std::uint64_t kcoalesceBatch = 32;

    // ---- Memory ---------------------------------------------------------
    /** Allocatable DRAM in 4 KB frames (default 512 MB scaled). */
    std::uint64_t memFrames = 128 * 1024;
    std::uint64_t reservedFrames = 512;
    mem::CacheParams cache{};

    // ---- Storage ---------------------------------------------------------
    std::string ssdProfile = "zssd";

    /**
     * Block devices on socket 0 (the PTE's 3-bit device-id field
     * supports up to 8 per SMU, Section III-B).
     */
    unsigned nDevices = 1;

    // ---- CXL memory-buffer tier (ROADMAP item 3, LMB) --------------------
    /**
     * off (the default) builds a machine byte-identical to the
     * pre-tier simulator: same object names, same stats dump, same
     * describe() text. cxl puts a per-socket CXL-linked memory buffer
     * in front of the socket-local NVMe devices: page misses probe the
     * buffer first and a hit is served with a sub-microsecond load and
     * no NVMe command at all; misses fetch from the SSD and install
     * into the buffer, with capacity pressure evicting cold frames
     * back to the SSD (clean drop / dirty writeback) via ktierd.
     */
    TierMode tierMode = TierMode::off;

    /** Per-socket tier capacity in 4 KB frames (default 64 MB scaled). */
    std::uint64_t tierFrames = 16 * 1024;

    /**
     * Tier latency profile, decomposed like SsdProfile: request
     * packetization + link command, buffer-DRAM media access, and the
     * 4 KB transfer over the CXL link. Load ~0.68 us, store ~0.73 us
     * against the Z-SSD's 10.9 us unloaded read.
     */
    Tick tierCmdLatency = nanoseconds(80.0);
    Tick tierMediaRead = nanoseconds(350.0);
    Tick tierMediaWrite = nanoseconds(400.0);
    Tick tierXfer4k = nanoseconds(250.0);
    Tick tierLoad4k() const
    {
        return tierCmdLatency + tierMediaRead + tierXfer4k;
    }
    Tick tierStore4k() const
    {
        return tierCmdLatency + tierMediaWrite + tierXfer4k;
    }

    /** Admit SSD-fetched pages into the tier on miss completion. */
    bool tierAdmitOnMiss = true;

    /** ktierd starts evicting above high, stops below low. */
    double tierHighWatermarkFrac = 0.90;
    double tierLowWatermarkFrac = 0.75;
    Tick ktierdPeriod = milliseconds(2.0);
    std::uint64_t ktierdBatch = 256;

    // ---- Kernel ----------------------------------------------------------
    os::KernelParams kernel{};

    // ---- HWDP ------------------------------------------------------------
    core::Smu::Params smu{};

    /**
     * Section V extension: convert hardware stalls longer than this
     * into a timeout exception + context switch. 0 disables (the
     * paper's base design).
     */
    Tick hwStallTimeout = 0;
    bool kpooldEnabled = true;
    Tick kpooldPeriod = milliseconds(4.0);
    std::uint64_t kpooldBatch = 1024;
    /** Paper: 1 s against 32 GB; scaled with the memory size. */
    Tick kptedPeriod = milliseconds(25.0);
    bool kptedGuidedScan = true;

    // ---- Simulation ---------------------------------------------------------
    std::uint64_t seed = 42;
    bool pollutionEnabled = true;
    bool quiet = true;

    /**
     * Inline demand-paging fast path: walker-miss -> SMU -> PMSHR ->
     * NVMe-submit hops execute inline on the logical clock whenever
     * the chain finishes before the next scheduled event, device
     * completions of the SMU's snooped queues pool into a per-device
     * drain event, and doorbell/fetch events coalesce. Off selects the
     * event-per-hop reference path; simulated results and stats dumps
     * are bit-identical either way (the paging differential suite
     * proves it), only host speed differs.
     */
    bool faultFastPath = true;

    /**
     * Must be 1: one simulated machine runs on one host thread. Kept
     * only because existing harnesses still assign it; System rejects
     * any other value. Run independent machines in parallel with
     * SweepRunner (HWDP_BENCH_JOBS) instead.
     */
    unsigned simThreads = 1;

    /**
     * Last logical cores host the kernel threads by default; small
     * machines share core 0 with the workload.
     */
    unsigned kptedCore() const { return nLogical - 1; }
    unsigned kpooldCore() const
    {
        return nLogical >= 2 ? nLogical - 2 : 0;
    }
    unsigned reclaimCore() const
    {
        return nLogical >= 3 ? nLogical - 3 : 0;
    }
    unsigned kcoalesceCore() const
    {
        // Small machines co-locate with kpoold, whose batches are
        // bounded — kpted can monopolize its core under sustained
        // fault traffic, and core 0 belongs to the workload.
        return nLogical >= 5 ? nLogical - 4 : kpooldCore();
    }
    unsigned ktierdCore() const
    {
        // Same reasoning as kcoalesced: bounded batches share kpoold's
        // core on small machines rather than kpted's or core 0.
        return nLogical >= 6 ? nLogical - 5 : kpooldCore();
    }

    /** Table II-style configuration dump. */
    std::string describe() const;
};

} // namespace hwdp::system

#endif // HWDP_SYSTEM_MACHINE_CONFIG_HH
