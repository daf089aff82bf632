/**
 * @file
 * The simulator side of the repository benchmark (perfbench/run.py
 * drives it; see that file for the workloads, metrics and protocol).
 *
 * One invocation runs one named workload against system::System,
 * repeating a fixed-size repetition (boot, dataset map, preload, warm
 * phase, measured phase) until a host-time budget is spent. Every
 * repetition of one seed simulates exactly the same machine, so the
 * simulated metrics and the stats digest must repeat bit for bit; only
 * the host timings vary. Each repetition prints one JSON line with its
 * raw measurements; run.py aggregates them.
 *
 * Host time is process CPU (getrusage user + sys), the only clock this
 * kind of shared host offers that ignores steal. Memory is the heap in
 * use (mallinfo2), which repeats exactly for one seed; the resident set
 * moves in 2 MB steps when the heap is backed by huge pages. Before each
 * repetition the harness times a fixed reference loop, by which run.py
 * scales that repetition's host times.
 *
 * Each layer is measured from outside: the harness times its own calls
 * into public functions (spans), reads the public counters every module
 * already exposes (the ledger), and, in a build with -pg, profiles only
 * the measured phase (moncontrol) so gprof's flat profile can be grouped
 * by module.
 *
 * Flags:
 *   --workload NAME      fio_hwdp | fio_osdp | ycsb_a | fio_rw_tier
 *   --seed N             MachineConfig::seed (every draw derives from it)
 *   --budget SEC         host wall seconds of repetitions (>= 1 rep)
 *   --min-reps N         repetitions to run even past the budget
 *   --max-reps N         stop after N repetitions (0: no limit)
 *   --scale full|tiny    tiny shrinks every size for the self-test
 *   --trace-file PATH    alternate untraced and traced repetitions and
 *                        write the traced spans as Chrome trace JSON
 *   --meas-deadline-us X simulated deadline of the measured phase
 */

#include <malloc.h>
#include <sys/mman.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#ifdef PERFBENCH_GPROF
// glibc's gprof runtime switch; <sys/gmon.h> does not declare it.
extern "C" void moncontrol(int mode);
#endif

#include "system/system.hh"
#include "testing/invariants.hh"
#include "testing/machine_differ.hh"
#include "workloads/fio.hh"
#include "workloads/kv_store.hh"
#include "workloads/ycsb.hh"

using namespace hwdp;

namespace {

// ---- Host clocks -----------------------------------------------------------

double
cpuSeconds()
{
    struct rusage ru;
    if (getrusage(RUSAGE_SELF, &ru) != 0)
        return 0.0;
    auto tv = [](const timeval &t) {
        return static_cast<double>(t.tv_sec) +
               static_cast<double>(t.tv_usec) * 1e-6;
    };
    return tv(ru.ru_utime) + tv(ru.ru_stime);
}

const auto processStart = std::chrono::steady_clock::now();

double
wallSeconds()
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         processStart)
        .count();
}

/** Bytes the allocator has handed out and not taken back. */
std::uint64_t
heapInUse()
{
    struct mallinfo2 mi = mallinfo2();
    return mi.uordblks + mi.hblkhd;
}

/**
 * Host CPU milliseconds of a fixed loop of random read-modify-writes
 * over 8 MB of huge pages. Other tenants' memory traffic slows it much
 * as it slows the simulator, whose heap is about that size; a branchy
 * loop in L1 and a pointer chase tracked it less well (see
 * perfbench/record.json). The buffer is mapped directly so that the
 * heap figure leaves it out.
 */
double
referenceMs()
{
    constexpr std::size_t words = std::size_t{1} << 20;
    static std::uint64_t *const buf = [] {
        void *p = mmap(nullptr, words * sizeof(std::uint64_t),
                       PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS,
                       -1, 0);
        if (p == MAP_FAILED)
            throw std::runtime_error("cannot map the reference buffer");
        madvise(p, words * sizeof(std::uint64_t), MADV_HUGEPAGE);
        auto *w = static_cast<std::uint64_t *>(p);
        for (std::size_t i = 0; i < words; ++i)
            w[i] = i;
        return w;
    }();
    const double c0 = cpuSeconds();
    std::uint64_t x = 88172645463325252ULL;
    for (int i = 0; i < 1500000; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        buf[x & (words - 1)] += x;
    }
    return (cpuSeconds() - c0) * 1e3;
}

void
profiling(bool on)
{
#ifdef PERFBENCH_GPROF
    moncontrol(on ? 1 : 0);
#else
    (void)on;
#endif
}

// ---- Workloads -------------------------------------------------------------

/**
 * One workload's machine and traffic. Sizes are the paper's ratios on
 * a machine scaled down so that one repetition takes about a second of
 * host time, which lets a run make enough repetitions for their lower
 * quartile to be steady: dataset:DRAM, threads per core and the kthread
 * periods follow bench/bench_common.hh's paperConfig.
 */
struct Shape
{
    system::PagingMode mode = system::PagingMode::hwdp;
    bool tier = false;
    bool kv = false;
    std::uint64_t memFrames = 0;
    std::uint64_t datasetPages = 0;
    std::uint64_t tierFrames = 0;
    /** Warm ops per thread; 0 runs one sequential pass over the dataset. */
    std::uint64_t warmOps = 0;
    std::uint64_t measOps = 0; ///< Measured ops per thread.
    std::uint64_t loopInstr = 300;
    double writeFraction = 0.0;
    Tick window = 0; ///< Simulated length of one traced window.
};

constexpr unsigned nThreads = 4;

bool
makeShape(const std::string &name, bool tiny, Shape &s)
{
    if (name == "fio_hwdp" || name == "fio_osdp") {
        // fig12/fig13 FIO: 4 KB random mmap reads over 8x DRAM. The
        // warm phase reads about 1.5x DRAM so reclaim, kpoold, kpted
        // and the free page queue are in steady state.
        s.mode = name == "fio_hwdp" ? system::PagingMode::hwdp
                                    : system::PagingMode::osdp;
        s.memFrames = 8 * 1024;
        s.datasetPages = 8 * s.memFrames;
        s.warmOps = 3 * 1024;
        s.measOps = 3000;
        s.window = milliseconds(1.0);
    } else if (name == "ycsb_a") {
        // fig13 KV: mini-LSM store over 2x DRAM, DRAM preloaded to 80%
        // as bench::runKv does, YCSB-A 50/50 read/update, zipfian keys.
        s.kv = true;
        s.memFrames = 16 * 1024;
        s.datasetPages = 2 * s.memFrames;
        s.warmOps = 1000;
        s.measOps = 3500;
        s.window = milliseconds(1.0);
    } else if (name == "fio_rw_tier") {
        // fig20 acceptance shape: osdp, FIO randrw 70/30 over 8x DRAM
        // behind a CXL tier, after one sequential pass that fetches
        // every page once. The tier holds 7/8 of the dataset so it
        // fills past its high watermark and ktierd evicts.
        s.mode = system::PagingMode::osdp;
        s.tier = true;
        s.memFrames = 2 * 1024;
        s.datasetPages = 8 * s.memFrames;
        s.tierFrames = 7 * s.memFrames;
        s.warmOps = 0;
        s.measOps = 3000;
        s.loopInstr = 64;
        s.writeFraction = 0.3;
        s.window = milliseconds(1.0);
    } else {
        return false;
    }
    if (tiny) {
        s.memFrames /= 4;
        s.datasetPages /= 4;
        s.tierFrames /= 4;
        s.warmOps /= 4;
        s.measOps /= 20;
        s.window /= 4;
    }
    return true;
}

system::MachineConfig
machineConfig(const Shape &sh, std::uint64_t seed)
{
    system::MachineConfig cfg;
    cfg.mode = sh.mode;
    cfg.ssdProfile = "zssd";
    cfg.memFrames = sh.memFrames;
    cfg.smu.freeQueueCapacity = sh.memFrames / 8;
    cfg.kpooldPeriod = milliseconds(4.0);
    cfg.kpooldBatch = 1024;
    cfg.kptedPeriod = milliseconds(16.0);
    cfg.simThreads = 1;
    cfg.seed = seed;
    if (sh.tier) {
        cfg.tierMode = system::TierMode::cxl;
        cfg.tierFrames = sh.tierFrames;
    }
    return cfg;
}

// ---- Spans -----------------------------------------------------------------

/** Chrome trace events, kept in memory and written at exit. */
struct Trace
{
    struct Event
    {
        std::string name;
        char ph = 'X';
        double ts = 0;  ///< Host wall microseconds since process start.
        double dur = 0; ///< Host wall microseconds ('X' only).
        std::vector<std::pair<std::string, double>> args;
    };
    std::vector<Event> events;

    void
    write(const std::string &path) const
    {
        std::FILE *f = std::fopen(path.c_str(), "w");
        if (!f)
            throw std::runtime_error("cannot write " + path);
        std::fprintf(f, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [");
        for (std::size_t i = 0; i < events.size(); ++i) {
            const Event &e = events[i];
            std::fprintf(f,
                         "%s\n{\"name\": \"%s\", \"cat\": \"perfbench\", "
                         "\"ph\": \"%c\", \"pid\": 1, \"tid\": 1, "
                         "\"ts\": %.3f",
                         i ? "," : "", e.name.c_str(), e.ph, e.ts);
            if (e.ph == 'X')
                std::fprintf(f, ", \"dur\": %.3f", e.dur);
            std::fprintf(f, ", \"args\": {");
            for (std::size_t a = 0; a < e.args.size(); ++a)
                std::fprintf(f, "%s\"%s\": %.9g", a ? ", " : "",
                             e.args[a].first.c_str(), e.args[a].second);
            std::fprintf(f, "}}");
        }
        std::fprintf(f, "\n]}\n");
        if (std::fclose(f) != 0)
            throw std::runtime_error("cannot write " + path);
    }
};

/**
 * Host CPU seconds of each named span of one repetition; with a Trace
 * attached, each span is also recorded as a complete ('X') event.
 */
class Spans
{
  public:
    explicit Spans(Trace *t) : trace(t) {}

    template <typename Fn>
    void
    run(const char *name, unsigned rep, Fn &&fn)
    {
        double w0 = wallSeconds(), c0 = cpuSeconds();
        fn();
        double c = cpuSeconds() - c0, w = wallSeconds() - w0;
        cpu[name] += c;
        if (trace)
            trace->events.push_back(
                {name, 'X', w0 * 1e6, w * 1e6,
                 {{"rep", static_cast<double>(rep)}, {"cpu_s", c}}});
    }

    std::map<std::string, double> cpu;
    Trace *trace;
};

// ---- Ledger ----------------------------------------------------------------

/** Raw public counters of every layer at one instant. */
struct Counters
{
    std::uint64_t events = 0, probes = 0, bpUpdates = 0;
    std::uint64_t llcHits = 0, llcMisses = 0;
    std::uint64_t tlbLookups = 0, tlbMisses = 0, walks = 0;
    std::uint64_t pwcHits = 0, pwcMisses = 0, hwMisses = 0;
    std::uint64_t smuHandled = 0, smuInline = 0, pmshrCoalesced = 0;
    std::uint64_t fpqEmptyPops = 0, kptedVisited = 0;
    std::uint64_t ssdReads = 0, ssdWrites = 0, inlineFetches = 0;
    std::uint64_t doorbellRings = 0, doorbellsCoalesced = 0;
    std::uint64_t majorFaults = 0, smuFallbacks = 0, evicted = 0;
    std::uint64_t writtenBack = 0, blockReads = 0, blockWrites = 0;
    std::uint64_t tierHits = 0, tierMisses = 0, tierEvictions = 0;
    std::uint64_t tierAbsorbed = 0, oomKills = 0;
    std::vector<std::uint64_t> smuLatency, deviceTime; ///< Histogram bins.
    double smuLatencyWidth = 0, deviceTimeWidth = 0;
};

void
addBins(std::vector<std::uint64_t> &into, const sim::Histogram &h)
{
    const auto &b = h.buckets();
    if (into.size() < b.size())
        into.resize(b.size(), 0);
    for (std::size_t i = 0; i < b.size(); ++i)
        into[i] += b[i];
}

Counters
readCounters(system::System &sys)
{
    Counters c;
    c.events = sys.eventQueue().processedCount();
    os::Kernel &k = sys.kernel();
    c.probes = k.kexec().totalPollutionProbes();
    c.bpUpdates = k.kexec().totalPollutionBranchUpdates();
    c.llcHits = sys.caches().llcArray().hitCount();
    c.llcMisses = sys.caches().llcArray().missCount();
    for (unsigned i = 0; i < sys.config().nLogical; ++i) {
        cpu::Mmu &m = sys.core(i).mmu();
        c.tlbLookups += m.tlb().lookups();
        c.tlbMisses += m.tlb().misses();
        c.walks += m.walker().walks();
        c.hwMisses += m.hwMisses();
    }
    c.pwcHits = sys.totalPwcHits();
    c.pwcMisses = sys.totalPwcMisses();
    for (unsigned s = 0; s < sys.numSockets(); ++s) {
        if (core::Smu *smu = sys.smuAt(s)) {
            c.smuHandled += smu->handled();
            c.smuInline += smu->inlineMisses();
            c.pmshrCoalesced += smu->pmshr().coalescedCount();
            c.fpqEmptyPops += smu->freePageQueue().emptyPops();
            addBins(c.smuLatency, smu->missLatencyUs());
            c.smuLatencyWidth = smu->missLatencyUs().bucketWidth();
        }
        if (tier::CxlBuffer *t = sys.tierAt(s)) {
            c.tierHits += t->hits();
            c.tierMisses += t->misses();
            c.tierEvictions += t->evictsClean() + t->evictsDirty();
            c.tierAbsorbed += t->writesAbsorbed();
        }
    }
    if (core::Kpted *kp = sys.kpted())
        c.kptedVisited = kp->entriesVisited();
    for (unsigned d = 0; d < sys.numSsds(); ++d) {
        ssd::SsdDevice &dev = sys.ssdAt(d);
        c.ssdReads += dev.readsCompleted();
        c.ssdWrites += dev.writesCompleted();
        c.inlineFetches += dev.inlineFetches();
        c.doorbellRings += dev.doorbellRings();
        c.doorbellsCoalesced += dev.doorbellsCoalesced();
        if (auto *h = dynamic_cast<sim::Histogram *>(
                dev.stats().find("device_time_us"))) {
            addBins(c.deviceTime, *h);
            c.deviceTimeWidth = h->bucketWidth();
        }
    }
    c.majorFaults = k.majorFaults();
    c.smuFallbacks = k.smuFallbackFaults();
    c.evicted = k.reclaimer().pagesEvicted();
    c.writtenBack = k.reclaimer().pagesWrittenBack();
    c.blockReads = k.blockLayer().readsSubmitted();
    c.blockWrites = k.blockLayer().writesSubmitted();
    c.oomKills = k.oomKills();
    return c;
}

std::vector<std::uint64_t>
binDelta(const std::vector<std::uint64_t> &b, const std::vector<std::uint64_t> &a)
{
    std::vector<std::uint64_t> d(b.size(), 0);
    for (std::size_t i = 0; i < b.size(); ++i)
        d[i] = b[i] - (i < a.size() ? a[i] : 0);
    return d;
}

/**
 * Quantile of a fixed-width histogram, interpolating linearly inside
 * the bucket that holds the target rank (sim::Histogram::quantile
 * returns that bucket's midpoint instead). @p overflow is set when the
 * rank falls in the last (overflow) bucket, whose upper edge is open.
 */
double
binQuantile(const std::vector<std::uint64_t> &bins, double width, double q,
            bool *overflow = nullptr)
{
    std::uint64_t n = 0;
    for (auto b : bins)
        n += b;
    if (n == 0)
        return 0.0;
    double rank = q * static_cast<double>(n);
    double seen = 0;
    for (std::size_t i = 0; i < bins.size(); ++i) {
        if (bins[i] == 0)
            continue;
        double next = seen + static_cast<double>(bins[i]);
        if (next >= rank) {
            if (overflow)
                *overflow = i + 1 == bins.size();
            double frac = (rank - seen) / static_cast<double>(bins[i]);
            return (static_cast<double>(i) + frac) * width;
        }
        seen = next;
    }
    return static_cast<double>(bins.size()) * width;
}

double
ratio(std::uint64_t num, std::uint64_t den)
{
    return den ? static_cast<double>(num) / static_cast<double>(den) : 0.0;
}

/** Per-op and ratio metrics of the measured phase, named per layer. */
std::vector<std::pair<std::string, double>>
ledger(const Counters &a, const Counters &b, std::uint64_t ops)
{
    auto per = [ops](std::uint64_t x1, std::uint64_t x0) {
        return ratio(x1 - x0, ops);
    };
    std::uint64_t fetches = (b.doorbellRings - a.doorbellRings) -
                            (b.doorbellsCoalesced - a.doorbellsCoalesced);
    std::uint64_t tierProbes =
        (b.tierHits - a.tierHits) + (b.tierMisses - a.tierMisses);
    return {
        {"sim.events_per_op", per(b.events, a.events)},
        {"mem.kernel_probes_per_op", per(b.probes, a.probes)},
        {"mem.kernel_bp_updates_per_op", per(b.bpUpdates, a.bpUpdates)},
        {"mem.llc_miss_ratio",
         ratio(b.llcMisses - a.llcMisses,
               (b.llcMisses - a.llcMisses) + (b.llcHits - a.llcHits))},
        {"cpu.tlb_miss_ratio",
         ratio(b.tlbMisses - a.tlbMisses, b.tlbLookups - a.tlbLookups)},
        {"cpu.walks_per_op", per(b.walks, a.walks)},
        {"cpu.pwc_hit_ratio",
         ratio(b.pwcHits - a.pwcHits,
               (b.pwcHits - a.pwcHits) + (b.pwcMisses - a.pwcMisses))},
        {"core.smu_handled_per_op", per(b.smuHandled, a.smuHandled)},
        {"core.smu_inline_ratio",
         ratio(b.smuInline - a.smuInline, b.hwMisses - a.hwMisses)},
        {"core.pmshr_coalesced_per_op",
         per(b.pmshrCoalesced, a.pmshrCoalesced)},
        {"core.fpq_empty_pops_per_op", per(b.fpqEmptyPops, a.fpqEmptyPops)},
        {"core.kpted_entries_visited_per_op",
         per(b.kptedVisited, a.kptedVisited)},
        {"core.smu_miss_us_p50",
         binQuantile(binDelta(b.smuLatency, a.smuLatency),
                     b.smuLatencyWidth, 0.50)},
        {"core.smu_miss_us_p99",
         binQuantile(binDelta(b.smuLatency, a.smuLatency),
                     b.smuLatencyWidth, 0.99)},
        {"ssd.reads_per_op", per(b.ssdReads, a.ssdReads)},
        {"ssd.writes_per_op", per(b.ssdWrites, a.ssdWrites)},
        {"ssd.inline_fetch_ratio",
         ratio(b.inlineFetches - a.inlineFetches, fetches)},
        {"ssd.doorbell_coalesce_ratio",
         ratio(b.doorbellsCoalesced - a.doorbellsCoalesced,
               b.doorbellRings - a.doorbellRings)},
        {"ssd.device_us_p50",
         binQuantile(binDelta(b.deviceTime, a.deviceTime),
                     b.deviceTimeWidth, 0.50)},
        {"os.major_faults_per_op", per(b.majorFaults, a.majorFaults)},
        {"os.smu_fallback_faults_per_op", per(b.smuFallbacks, a.smuFallbacks)},
        {"os.pages_evicted_per_op", per(b.evicted, a.evicted)},
        {"os.pages_written_back_per_op", per(b.writtenBack, a.writtenBack)},
        {"os.block_reads_per_op", per(b.blockReads, a.blockReads)},
        {"os.block_writes_per_op", per(b.blockWrites, a.blockWrites)},
        {"tier.hit_ratio", ratio(b.tierHits - a.tierHits, tierProbes)},
        {"tier.evictions_per_op", per(b.tierEvictions, a.tierEvictions)},
        {"tier.writes_absorbed_per_op", per(b.tierAbsorbed, a.tierAbsorbed)},
    };
}

// ---- One repetition --------------------------------------------------------

std::uint64_t
fnv1a(const std::string &s)
{
    std::uint64_t h = 1469598103934665603ULL;
    for (unsigned char c : s) {
        h ^= c;
        h *= 1099511628211ULL;
    }
    return h;
}

/** Keeps the KV store alive as long as the workloads that use it. */
struct StoreOwner : workloads::Workload
{
    std::unique_ptr<workloads::KvStore> store;
    workloads::Op next(sim::Rng &) override
    {
        return workloads::Op::makeDone();
    }
    const char *label() const override { return "store-owner"; }
};

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    bool tiny = false;
    Tick measDeadline = seconds(60.0);
    Tick warmDeadline = seconds(120.0);
};

struct RepResult
{
    bool traced = false;
    double setupCpu = 0, measCpu = 0, measWall = 0, refMs = 0;
    std::uint64_t heapPeak = 0; ///< Heap in use at the phase boundaries.
    std::map<std::string, double> spans;
    std::uint64_t attempted = 0, completed = 0;
    std::vector<std::string> failures;
    std::uint64_t faulted = 0;
    double faultedMeanUs = 0, faultedP50 = 0, faultedP99 = 0;
    bool p99Overflow = false;
    double opsPerSec = 0, userIpc = 0, faultStallFrac = 0, memOpsPerOp = 0;
    std::vector<std::pair<std::string, double>> ledger;
    std::uint64_t digest = 0;
    unsigned windows = 0;
};

void
checkInto(system::System &sys, const char *where, RepResult &r)
{
    for (const std::string &v : testing::checkInvariants(sys))
        r.failures.push_back(std::string("invariant at ") + where + ": " + v);
}

RepResult
runRep(const Options &opt, const Shape &sh, unsigned rep, Trace *trace)
{
    RepResult r;
    r.traced = trace != nullptr;
    r.attempted = nThreads * sh.measOps;
    Spans spans(trace);
    const double setup0 = cpuSeconds();

    system::MachineConfig cfg = machineConfig(sh, opt.seed);
    std::unique_ptr<system::System> owned;
    spans.run("system.boot", rep,
              [&] { owned = std::make_unique<system::System>(cfg); });
    system::System &sys = *owned;

    system::System::MappedFile mf;
    os::File *wal = nullptr;
    spans.run("os.map", rep, [&] {
        mf = sys.mapDataset(sh.kv ? "kv.dat" : "fio.dat", sh.datasetPages);
        if (sh.kv)
            wal = sys.createFile("kv.wal", 64 * 1024);
    });

    StoreOwner *owner = nullptr;
    if (sh.kv) {
        // DRAM starts 80% full with the dataset's suffix, as
        // bench::runKv does: scrambled-zipfian popularity makes any
        // region equivalent.
        spans.run("os.preload", rep, [&] {
            std::uint64_t n =
                std::min(sh.datasetPages, sh.memFrames * 8 / 10);
            for (std::uint64_t i = sh.datasetPages - n; i < sh.datasetPages;
                 ++i) {
                Pfn pfn = sys.allocFrameInterleaved(i);
                if (pfn == mem::PhysMem::invalidPfn)
                    break;
                sys.kernel().installPage(*mf.as, *mf.vma,
                                         mf.vma->start + i * pageSize, pfn,
                                         true);
            }
        });
        owner = sys.makeWorkload<StoreOwner>();
        owner->store = std::make_unique<workloads::KvStore>(
            mf.vma, wal, sh.datasetPages);
    }

    auto addThreads = [&](std::uint64_t ops, bool warm) {
        if (sh.kv) {
            for (unsigned t = 0; t < nThreads; ++t)
                sys.addThread(*sys.makeWorkload<workloads::YcsbWorkload>(
                                  'A', *owner->store, ops),
                              t, *mf.as);
        } else if (warm && sh.warmOps == 0) {
            sys.addThread(*sys.makeWorkload<workloads::FioWorkload>(
                              mf.vma, sh.datasetPages, sh.loopInstr, true),
                          0, *mf.as);
        } else {
            for (unsigned t = 0; t < nThreads; ++t)
                sys.addThread(*sys.makeWorkload<workloads::FioWorkload>(
                                  mf.vma, ops, sh.loopInstr, false,
                                  sh.writeFraction),
                              t, *mf.as);
        }
    };

    bool ran = true;
    spans.run("run.warm", rep, [&] {
        addThreads(sh.warmOps, true);
        if (!sys.runUntilThreadsDone(sys.now() + opt.warmDeadline)) {
            r.failures.push_back("warm phase unfinished at its deadline");
            ran = false;
            return;
        }
        sys.quiesce();
        sys.resumeKthreads();
    });
    spans.run("testing.invariants", rep,
              [&] { checkInto(sys, "warm boundary", r); });
    r.setupCpu = cpuSeconds() - setup0;
    r.heapPeak = heapInUse();
    if (!ran)
        return r;

    const std::size_t meas0 = sys.threads().size();
    addThreads(sh.measOps, false);
    auto measuredDone = [&] {
        for (std::size_t i = meas0; i < sys.threads().size(); ++i)
            if (!sys.threads()[i]->done())
                return false;
        return true;
    };
    Counters c0 = readCounters(sys);
    const Tick deadline = sys.now() + opt.measDeadline;
    bool finished = false;
    spans.run("run.measured", rep, [&] {
        double w0 = wallSeconds(), cpu0 = cpuSeconds();
        profiling(true);
        if (!trace) {
            finished = sys.runUntilThreadsDone(deadline);
        } else {
            // Fixed simulated-time windows: host CPU and ledger deltas
            // per window form a time series of the measured phase.
            Counters prev = c0;
            std::uint64_t opsPrev = 0;
            while (!measuredDone() && sys.now() < deadline) {
                double ww = wallSeconds(), wc = cpuSeconds();
                Tick t0 = sys.now();
                sys.runFor(std::min(sh.window, deadline - t0));
                double c = cpuSeconds() - wc;
                Counters cur = readCounters(sys);
                std::uint64_t ops = 0;
                for (std::size_t i = meas0; i < sys.threads().size(); ++i)
                    ops += sys.threads()[i]->appOps();
                trace->events.push_back(
                    {"run.window", 'X', ww * 1e6, (wallSeconds() - ww) * 1e6,
                     {{"rep", static_cast<double>(rep)},
                      {"sim_start_us", toMicroseconds(t0)},
                      {"sim_end_us", toMicroseconds(sys.now())},
                      {"cpu_s", c},
                      {"ops", static_cast<double>(ops - opsPrev)},
                      {"events", static_cast<double>(cur.events - prev.events)},
                      {"kernel_probes",
                       static_cast<double>(cur.probes - prev.probes)},
                      {"walks", static_cast<double>(cur.walks - prev.walks)},
                      {"major_faults", static_cast<double>(
                                           cur.majorFaults - prev.majorFaults)},
                      {"smu_handled", static_cast<double>(
                                          cur.smuHandled - prev.smuHandled)}}});
                trace->events.push_back(
                    {"ops_per_window", 'C', ww * 1e6, 0,
                     {{"ops", static_cast<double>(ops - opsPrev)}}});
                prev = cur;
                opsPrev = ops;
                ++r.windows;
            }
            finished = measuredDone();
        }
        profiling(false);
        r.measCpu = cpuSeconds() - cpu0;
        r.measWall = wallSeconds() - w0;
    });
    if (!finished)
        r.failures.push_back("measured thread unfinished at the simulated "
                             "deadline");
    r.heapPeak = std::max(r.heapPeak, heapInUse());
    Counters c1 = readCounters(sys);

    // ---- Simulated results of the measured threads ----------------------
    std::vector<std::uint64_t> lat;
    double latSum = 0, width = 0;
    std::uint64_t instr = 0, cycles = 0, memOps = 0;
    Tick lo = maxTick, hi = 0, stall = 0, busy = 0;
    for (std::size_t i = meas0; i < sys.threads().size(); ++i) {
        cpu::ThreadContext &tc = *sys.threads()[i];
        r.completed += tc.appOps();
        memOps += tc.memOps();
        instr += tc.userInstructions();
        cycles += tc.userCycles();
        Tick end = tc.done() ? tc.finishTick() : sys.now();
        lo = std::min(lo, tc.startTick());
        hi = std::max(hi, end);
        stall += tc.faultStallTicks();
        busy += end - tc.startTick();
        sim::Histogram &h = tc.faultedOpLatencyUs();
        addBins(lat, h);
        width = h.bucketWidth();
        latSum += h.mean() * static_cast<double>(h.count());
        r.faulted += h.count();
        if (tc.oomKilled())
            r.failures.push_back("measured thread OOM-killed");
    }
    if (c1.oomKills != c0.oomKills)
        r.failures.push_back("OOM kill during the measured phase");
    r.faultedMeanUs = r.faulted ? latSum / static_cast<double>(r.faulted) : 0;
    r.faultedP50 = binQuantile(lat, width, 0.50);
    r.faultedP99 = binQuantile(lat, width, 0.99, &r.p99Overflow);
    r.opsPerSec =
        hi > lo ? static_cast<double>(r.completed) / toSeconds(hi - lo) : 0;
    r.userIpc = ratio(instr, cycles);
    r.faultStallFrac = busy ? static_cast<double>(stall) /
                                  static_cast<double>(busy)
                            : 0.0;
    r.memOpsPerOp = ratio(memOps, r.completed);
    r.ledger = ledger(c0, c1, r.completed);

    spans.run("testing.invariants", rep, [&] { checkInto(sys, "end", r); });
    spans.run("testing.digest", rep, [&] {
        std::ostringstream os;
        testing::dumpMachineStats(sys, os);
        r.digest = fnv1a(os.str());
    });
    spans.run("system.teardown", rep, [&] { owned.reset(); });
    r.spans = spans.cpu;
    return r;
}

// ---- Output ----------------------------------------------------------------

std::string
jsonString(const std::string &s)
{
    std::string o = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            o += '\\';
        if (static_cast<unsigned char>(c) < 0x20)
            o += ' ';
        else
            o += c;
    }
    return o + "\"";
}

void
printRep(unsigned rep, const RepResult &r)
{
    std::printf("{\"rep\": %u, \"traced\": %s, \"setup_cpu_s\": %.6f, "
                "\"meas_cpu_s\": %.6f, \"meas_wall_s\": %.6f, "
                "\"attempted\": %llu, \"completed\": %llu, "
                "\"faulted_ops\": %llu, \"faulted_mean_us\": %.6f, "
                "\"faulted_p50_us\": %.6f, \"faulted_p99_us\": %.6f, "
                "\"p99_overflow\": %s, \"ops_per_s\": %.6f, "
                "\"user_ipc\": %.9f, \"digest\": \"%016llx\", "
                "\"windows\": %u, \"heap_kb\": %.3f, \"ref_ms\": %.6f",
                rep, r.traced ? "true" : "false", r.setupCpu, r.measCpu,
                r.measWall, static_cast<unsigned long long>(r.attempted),
                static_cast<unsigned long long>(r.completed),
                static_cast<unsigned long long>(r.faulted), r.faultedMeanUs,
                r.faultedP50, r.faultedP99, r.p99Overflow ? "true" : "false",
                r.opsPerSec, r.userIpc,
                static_cast<unsigned long long>(r.digest), r.windows,
                static_cast<double>(r.heapPeak) / 1024.0, r.refMs);
    std::printf(", \"ledger\": {\"cpu.fault_stall_frac\": %.9g, "
                "\"workloads.mem_ops_per_op\": %.9g",
                r.faultStallFrac, r.memOpsPerOp);
    for (const auto &[name, v] : r.ledger)
        std::printf(", \"%s\": %.9g", name.c_str(), v);
    std::printf("}, \"spans\": {");
    bool first = true;
    for (const auto &[name, v] : r.spans) {
        std::printf("%s\"%s\": %.6f", first ? "" : ", ", name.c_str(), v);
        first = false;
    }
    std::printf("}, \"failures\": [");
    for (std::size_t i = 0; i < r.failures.size(); ++i)
        std::printf("%s%s", i ? ", " : "", jsonString(r.failures[i]).c_str());
    std::printf("]}\n");
    std::fflush(stdout);
}

[[noreturn]] void
usage(const char *msg)
{
    std::fprintf(stderr, "perfbench: %s\n", msg);
    std::exit(2);
}

} // namespace

int
main(int argc, char **argv)
{
    profiling(false);
    Options opt;
    double budget = 1.0;
    unsigned minReps = 1, maxReps = 0;
    std::string traceFile;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + a).c_str());
        std::string v = argv[++i];
        if (a == "--workload")
            opt.workload = v;
        else if (a == "--seed")
            opt.seed = std::strtoull(v.c_str(), nullptr, 10);
        else if (a == "--budget")
            budget = std::strtod(v.c_str(), nullptr);
        else if (a == "--min-reps")
            minReps = static_cast<unsigned>(std::strtoul(v.c_str(), nullptr, 10));
        else if (a == "--max-reps")
            maxReps = static_cast<unsigned>(std::strtoul(v.c_str(), nullptr, 10));
        else if (a == "--scale")
            opt.tiny = v == "tiny";
        else if (a == "--trace-file")
            traceFile = v;
        else if (a == "--meas-deadline-us")
            opt.measDeadline = microseconds(std::strtod(v.c_str(), nullptr));
        else
            usage(("unknown flag " + a).c_str());
    }
    Shape sh;
    if (!makeShape(opt.workload, opt.tiny, sh))
        usage(("unknown workload '" + opt.workload + "'").c_str());

    Trace trace;
    const double start = wallSeconds();
    for (unsigned rep = 0;; ++rep) {
        if (maxReps && rep >= maxReps)
            break;
        if (rep >= std::max(minReps, 1u) && wallSeconds() - start >= budget)
            break;
        // With a trace file, odd repetitions are traced: the two kinds
        // alternate so host drift lands on both.
        bool traced = !traceFile.empty() && rep % 2 == 1;
        RepResult r;
        try {
            const double refMs = referenceMs();
            r = runRep(opt, sh, rep, traced ? &trace : nullptr);
            r.refMs = refMs;
        } catch (const std::exception &e) {
            r.attempted = nThreads * sh.measOps;
            r.failures.push_back(std::string("exception: ") + e.what());
        }
        printRep(rep, r);
    }
    if (!traceFile.empty())
        trace.write(traceFile);

    struct rusage ru;
    getrusage(RUSAGE_SELF, &ru);
    std::printf("{\"peak_rss_kb\": %ld}\n", ru.ru_maxrss);
    return 0;
}
