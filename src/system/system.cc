#include "system/system.hh"

#include <algorithm>

#include "sim/logging.hh"
#include "sim/serialize.hh"
#include "ssd/ssd_profile.hh"
#include "workloads/fio.hh"

namespace hwdp::system {

System::System(const MachineConfig &cfg_in) : cfg(cfg_in), rng(cfg.seed)
{
    setQuiet(cfg.quiet);

    if (cfg.simThreads != 1)
        fatal("system: simThreads must be 1 (intra-machine parallelism "
              "was removed; run independent machines in parallel with "
              "SweepRunner / HWDP_BENCH_JOBS instead)");
    // The PTE socket-id field is 3 bits (Section V's LBA encoding),
    // so at most 8 sockets can be addressed by hardware-handled PTEs.
    if (cfg.sockets == 0 || cfg.sockets > 8)
        fatal("system: sockets must be 1..8");
    if (cfg.nLogical % cfg.sockets != 0)
        fatal("system: nLogical (", cfg.nLogical,
              ") must divide evenly across ", cfg.sockets, " sockets");
    if (cfg.sockets > 1 && cfg.nPhysical % cfg.sockets != 0)
        fatal("system: nPhysical (", cfg.nPhysical,
              ") must divide evenly across ", cfg.sockets, " sockets");
    if (cfg.tierMode != TierMode::off &&
        !(cfg.tierLowWatermarkFrac > 0.0 &&
          cfg.tierLowWatermarkFrac <= cfg.tierHighWatermarkFrac &&
          cfg.tierHighWatermarkFrac < 1.0))
        fatal("system: tier watermarks need 0 < low <= high < 1 (got "
              "low ", cfg.tierLowWatermarkFrac, ", high ",
              cfg.tierHighWatermarkFrac, ")");

    pm = std::make_unique<mem::PhysMem>(eq,
                                        cfg.memFrames + cfg.reservedFrames,
                                        cfg.reservedFrames, cfg.sockets);
    hierarchy = std::make_unique<mem::CacheHierarchy>(cfg.nPhysical,
                                                      cfg.cache);
    bps.reserve(cfg.nPhysical);
    for (unsigned i = 0; i < cfg.nPhysical; ++i)
        bps.emplace_back();

    os::KernelParams kp = cfg.kernel;
    kp.nLogical = cfg.nLogical;
    kp.nPhysical = cfg.nPhysical;
    kp.cyclePeriod = cfg.cyclePeriod;
    kp.reclaimCore = cfg.reclaimCore();
    kp.sockets = cfg.sockets;
    kp.numaRoundRobin = cfg.numaPlacement == NumaPlacement::roundRobin;
    kp.pageMode = cfg.pageMode;
    kern = std::make_unique<os::Kernel>(eq, kp, *pm, *hierarchy, bps,
                                        rng.fork());
    kern->kexec().setPollutionEnabled(cfg.pollutionEnabled);

    // Block devices (the paper's machine has one; the PTE device-id
    // field supports up to 8 per socket).
    if (cfg.nDevices == 0 ||
        cfg.nDevices > core::NvmeHostController::maxDevices)
        fatal("system: nDevices must be 1..8");
    auto prof = ssd::profileByName(cfg.ssdProfile);
    // Each socket carries its own nDevices locally attached drives;
    // the PTE's socket-id field routes misses to the home socket's
    // controller. A single socket reproduces the pre-NUMA machine
    // exactly (same names, same rng fork sequence).
    for (unsigned s = 0; s < cfg.sockets; ++s) {
        for (unsigned d = 0; d < cfg.nDevices; ++d) {
            unsigned idx = s * cfg.nDevices + d;
            ssds.push_back(std::make_unique<ssd::SsdDevice>(
                "ssd" + std::to_string(idx), eq, prof, rng.fork()));
            ssds.back()->setFastPath(cfg.faultFastPath);
            kern->attachDevice(ssds.back().get(),
                               os::BlockDeviceId{s, d});
        }
    }

    // CXL memory-buffer tier: one capacity-bounded frame store per
    // socket in front of its local devices (tierMode=cxl; off builds
    // nothing and stays byte-identical to the pre-tier machine). Tiers
    // key frames by global block-layer device index, so socket = index
    // / nDevices under the attach order above.
    if (cfg.tierMode != TierMode::off) {
        tier::CxlBuffer::Params tp;
        tp.frames = cfg.tierFrames;
        tp.cmdLatency = cfg.tierCmdLatency;
        tp.mediaRead = cfg.tierMediaRead;
        tp.mediaWrite = cfg.tierMediaWrite;
        tp.xfer4k = cfg.tierXfer4k;
        tp.admitOnMiss = cfg.tierAdmitOnMiss;
        tp.highWatermarkFrac = cfg.tierHighWatermarkFrac;
        tp.lowWatermarkFrac = cfg.tierLowWatermarkFrac;
        for (unsigned s = 0; s < cfg.sockets; ++s)
            tiers.push_back(std::make_unique<tier::CxlBuffer>(
                "tier" + std::to_string(s), eq, tp));
        kern->setTierLookup([this](unsigned dev_idx) {
            return tiers[dev_idx / cfg.nDevices].get();
        });
        kern->blockLayer().setTierAbsorb(
            [this](unsigned dev_idx, Lba lba, Tick *lat) {
                return tiers[dev_idx / cfg.nDevices]->absorbWrite(
                    dev_idx, lba, lat);
            });
    }

    // TLB shootdown: invalidate the translation on every core, and
    // drop the page-walk-cache entries covering the address (the
    // INVLPG contract: paging-structure caches flush alongside the
    // TLB for the invalidated linear address).
    // Cores whose TLB holds nothing are skipped: only cores that ran a
    // thread ever fill one, and invalidate() on an empty TLB is a
    // no-op.
    kern->setShootdownFn([this](os::AddressSpace &as, VAddr va) {
        for (auto &c : cores)
            if (!c->mmu().tlb().empty())
                c->mmu().tlb().invalidate(va);
        pwcShootdown(as, va, false);
    });

    // kpted metadata sync rewrites hardware-handled PTEs without a
    // full shootdown; the PWC still drops the covering upper entries.
    // This is the one path the shootdown fault hook may perturb.
    kern->setPteSyncFn([this](os::AddressSpace &as, VAddr va) {
        pwcShootdown(as, va, true);
    });

    // Wide-range shootdowns (promotion, split, NAPOT break, huge
    // reclaim). Wired only when reach modes are on: an off machine
    // never produces a wide PTE and keeps the exact pre-huge-page
    // callback set.
    if (cfg.pageMode != PageMode::off) {
        kern->setShootdownRangeFn([this](os::AddressSpace &as, VAddr va,
                                         std::uint64_t pages,
                                         bool delayable) {
            rangeShootdown(as, va, pages, delayable);
        });
    }

    for (unsigned i = 0; i < cfg.nLogical; ++i) {
        cores.push_back(std::make_unique<cpu::Core>(
            i, eq, *hierarchy, *kern, cfg.cyclePeriod, cfg.pwcEntries));
        if (cfg.hwStallTimeout > 0)
            cores.back()->mmu().setStallTimeout(cfg.hwStallTimeout);
    }
    if (cfg.sockets > 1) {
        for (unsigned i = 0; i < cfg.nLogical; ++i)
            cores[i]->mmu().setNuma(cfg.socketOfCore(i), pm.get(),
                                    cfg.sockets,
                                    cfg.numaRemoteExtraCycles);
    }

    if (cfg.mode != PagingMode::osdp) {
        support = std::make_unique<core::HwdpOsSupport>(*kern);

        std::vector<core::FreePageQueue *> fpq_set;
        std::vector<unsigned> fpq_tags;
        if (cfg.mode == PagingMode::hwdp) {
            core::Smu::Params sp = cfg.smu;
            sp.cyclePeriod = cfg.cyclePeriod;
            sp.nvme.cyclePeriod = cfg.cyclePeriod;
            sp.fastPath = cfg.faultFastPath;
            if (cfg.sockets > 1) {
                sp.coresPerSocket = cfg.coresPerSocket();
                sp.remoteRequestLatency = cfg.numaRemoteSmuLatency;
            }
            for (unsigned s = 0; s < cfg.sockets; ++s) {
                smuUnits.push_back(std::make_unique<core::Smu>(
                    "smu" + std::to_string(s), eq, s, sp, *kern));
                core::Smu *u = smuUnits.back().get();
                for (unsigned d = 0; d < cfg.nDevices; ++d)
                    u->configureDevice(d,
                                       ssds[s * cfg.nDevices + d].get());
                // Every core sees every SMU: the MMU routes a miss by
                // the faulting PTE's socket-id field, local or not.
                for (auto &c : cores)
                    c->attachSmu(s, u);
                support->attachSmu(u);
                if (!tiers.empty())
                    u->setTier(tiers[s].get(), s * cfg.nDevices);
                for (core::FreePageQueue *q : u->freePageQueues()) {
                    fpq_set.push_back(q);
                    fpq_tags.push_back(s);
                }
            }
        } else {
            for (unsigned s = 0; s < cfg.sockets; ++s) {
                swFpqs.push_back(std::make_unique<core::FreePageQueue>(
                    cfg.smu.freeQueueCapacity, cfg.smu.prefetchDepth));
                swSmus.push_back(std::make_unique<core::SoftwareSmu>(
                    s == 0 ? "swsmu" : "swsmu" + std::to_string(s), eq,
                    *kern, *swFpqs.back()));
                for (unsigned d = 0; d < cfg.nDevices; ++d)
                    swSmus.back()->configureDevice(
                        d, ssds[s * cfg.nDevices + d].get());
                if (!tiers.empty())
                    swSmus.back()->setTier(tiers[s].get(),
                                           s * cfg.nDevices);
                fpq_set.push_back(swFpqs.back().get());
                fpq_tags.push_back(s);
            }
            if (cfg.sockets == 1) {
                swSmus[0]->install();
            } else {
                // One emulation per socket; dispatch by the PTE's
                // socket-id field (anonymous zero-fill PTEs carry
                // socket 0 and deterministically land there).
                kern->setFaultInterceptor(
                    [this](os::Thread &t, os::AddressSpace &as,
                           VAddr va, os::pte::Entry e,
                           std::function<void()> resume) {
                        // Only an LBA-augmented PTE carries a socket
                        // id; in any other PTE those bits are PFN bits.
                        if (!os::pte::isLbaAugmented(e))
                            return false;
                        unsigned sid = os::pte::socketIdOf(e);
                        return swSmus.at(sid)->tryIntercept(
                            t, as, va, e, std::move(resume));
                    });
            }
        }

        kptedThread = std::make_unique<core::Kpted>(
            *kern, *support, cfg.kptedCore(), cfg.kptedPeriod,
            cfg.kptedGuidedScan);
        if (cfg.sockets > 1)
            kptedThread->setCrossSocketIpis(cfg.sockets - 1);
        kern->scheduler().addThread(kptedThread.get());
        support->attachKpted(kptedThread.get());

        kpooldThread = std::make_unique<core::Kpoold>(
            *kern, std::move(fpq_set), cfg.kpooldCore(),
            cfg.kpooldPeriod, cfg.kpooldBatch);
        if (cfg.sockets > 1)
            kpooldThread->setSocketTags(std::move(fpq_tags));
        if (cfg.kpooldEnabled)
            kern->scheduler().addThread(kpooldThread.get());
        support->attachKpoold(kpooldThread.get());
    }

    // kcoalesced runs in every paging mode (it promotes whatever 4 KB
    // runs land contiguously, OSDP faults and HWDP fast-mmap pages
    // alike) but only when transparent coalescing is requested.
    if (cfg.pageMode == PageMode::coalesce) {
        kcoalescedThread = std::make_unique<core::Kcoalesced>(
            *kern, cfg.kcoalesceCore(), cfg.kcoalescePeriod,
            cfg.kcoalesceBatch);
        if (cfg.sockets > 1)
            kcoalescedThread->setCrossSocketIpis(cfg.sockets - 1);
        kern->scheduler().addThread(kcoalescedThread.get());
    }

    // ktierd: the tier's eviction daemon, one thread over every
    // socket's buffer (the kpoold shape). A rejected admit or crossing
    // the high watermark kicks it for an immediate pass.
    if (!tiers.empty()) {
        std::vector<tier::CxlBuffer *> tset;
        for (auto &t : tiers)
            tset.push_back(t.get());
        ktierdThread = std::make_unique<tier::Ktierd>(
            *kern, std::move(tset), cfg.ktierdCore(), cfg.ktierdPeriod,
            cfg.ktierdBatch);
        kern->scheduler().addThread(ktierdThread.get());
        for (auto &t : tiers)
            t->setPressureHook([this] { ktierdThread->kick(); });
    }

    // Topology view, built for every machine and mode (size 1 on a
    // single socket) so audits and benches have one way to navigate.
    for (unsigned s = 0; s < cfg.sockets; ++s) {
        Socket sk;
        sk.id = s;
        sk.firstCore = s * cfg.coresPerSocket();
        sk.nCores = cfg.coresPerSocket();
        sk.smu = smuAt(s);
        sk.swSmu = softwareSmuAt(s);
        sk.swFpq = s < swFpqs.size() ? swFpqs[s].get() : nullptr;
        sk.tier = tierAt(s);
        for (unsigned d = 0; d < cfg.nDevices; ++d)
            sk.devices.push_back(ssds[s * cfg.nDevices + d].get());
        socketTopo.push_back(std::move(sk));
    }
}

System::~System() = default;

void
System::pwcShootdown(os::AddressSpace &as, VAddr va, bool sync_path)
{
    // Every broadcast advances every socket's epoch — the epoch counts
    // the coherence event itself, not the invalidation work it caused,
    // and checkInvariants audits that the epochs agree across sockets.
    if (cfg.sockets > 1) {
        for (auto &sk : socketTopo)
            ++sk.shootdownEpoch;
    }

    // Resolving the upper-entry addresses costs a host-side walk of
    // the page table; skip it when every walker's PWC is empty (the
    // common case — only cores that recently missed hold entries).
    bool any = false;
    for (auto &c : cores) {
        if (!c->mmu().walker().pwcEmpty()) {
            any = true;
            break;
        }
    }
    if (!any)
        return;
    os::WalkRefs refs = as.pageTable().walkRefs(va, false);
    if (cfg.sockets <= 1) {
        for (auto &c : cores) {
            if (c->mmu().walker().pwcEmpty())
                continue;
            if (refs.pud.valid())
                c->mmu().walker().pwcInvalidate(refs.pud.addr);
            if (refs.pmd.valid())
                c->mmu().walker().pwcInvalidate(refs.pmd.addr);
        }
        return;
    }

    // Multi-socket fan-out, one socket at a time. The fault hook may
    // drop or defer a remote socket's invalidation on the sync path
    // only: kpted sync rewrites a PTE to an equivalent translation,
    // so a stale PWC upper entry is a performance artifact, never a
    // correctness hole; unmap shootdowns are never perturbed.
    for (auto &sk : socketTopo) {
        ShootdownFault f{};
        if (sync_path && sk.id != 0 && shootdownFaultHook)
            f = shootdownFaultHook(sk.id);

        bool busy = false;
        for (unsigned i = 0; i < sk.nCores; ++i) {
            if (!cores[sk.firstCore + i]->mmu().walker().pwcEmpty()) {
                busy = true;
                break;
            }
        }
        if (!busy)
            continue;
        ++sk.remoteShootdownsIn;

        if (f.drop) {
            ++sk.shootdownsDropped;
            continue;
        }
        if (f.delay > 0) {
            ++sk.shootdownsDelayed;
            unsigned first = sk.firstCore, n = sk.nCores;
            eq.postIn(
                f.delay,
                [this, refs, first, n] {
                    for (unsigned i = 0; i < n; ++i) {
                        auto &w = cores[first + i]->mmu().walker();
                        if (refs.pud.valid())
                            w.pwcInvalidate(refs.pud.addr);
                        if (refs.pmd.valid())
                            w.pwcInvalidate(refs.pmd.addr);
                    }
                },
                "numa.shootdown.delayed");
            continue;
        }
        for (unsigned i = 0; i < sk.nCores; ++i) {
            auto &w = cores[sk.firstCore + i]->mmu().walker();
            if (refs.pud.valid())
                w.pwcInvalidate(refs.pud.addr);
            if (refs.pmd.valid())
                w.pwcInvalidate(refs.pmd.addr);
        }
    }
}

void
System::rangeShootdown(os::AddressSpace &as, VAddr va,
                       std::uint64_t pages, bool delayable)
{
    // The broadcast is one coherence event regardless of its span —
    // the same epoch bump a 4 KB shootdown costs.
    if (cfg.sockets > 1) {
        for (auto &sk : socketTopo)
            ++sk.shootdownEpoch;
    }

    auto apply = [this](os::AddressSpace *asp, VAddr base,
                        std::uint64_t n) {
        for (auto &c : cores)
            c->mmu().tlb().invalidateRange(base, n);
        bool any = false;
        for (auto &c : cores) {
            if (!c->mmu().walker().pwcEmpty()) {
                any = true;
                break;
            }
        }
        if (!any)
            return;
        // A wide range never spans a PMD (2 MB windows are aligned,
        // NAPOT windows are far smaller), so one walk resolves the
        // covering upper entries for the whole range.
        os::WalkRefs refs = asp->pageTable().walkRefs(base, false);
        for (auto &c : cores) {
            auto &w = c->mmu().walker();
            if (refs.pud.valid())
                w.pwcInvalidate(refs.pud.addr);
            if (refs.pmd.valid())
                w.pwcInvalidate(refs.pmd.addr);
        }
    };

    if (delayable && wideShootdownHook) {
        Tick delay = wideShootdownHook();
        if (delay > 0) {
            ++nWideShootdownsDelayed;
            os::AddressSpace *asp = &as;
            eq.postIn(
                delay, [apply, asp, va, pages] { apply(asp, va, pages); },
                "pagemode.shootdown.delayed");
            return;
        }
    }
    apply(&as, va, pages);
}

std::uint64_t
System::totalTlbWideHits() const
{
    std::uint64_t t = 0;
    for (const auto &c : cores)
        t += c->mmu().tlb().wideHits();
    return t;
}

core::FreePageQueue *
System::freePageQueue()
{
    if (!smuUnits.empty())
        return &smuUnits.front()->freePageQueue();
    return swFpqs.empty() ? nullptr : swFpqs.front().get();
}

os::File *
System::createFile(const std::string &name, std::uint64_t pages,
                   unsigned device)
{
    if (device >= ssds.size())
        fatal("system: file on unattached device ", device);
    // The global device index maps to (socket, local device) the same
    // way the boot loop attached them.
    return kern->fs().createFile(
        name, pages,
        os::BlockDeviceId{device / cfg.nDevices, device % cfg.nDevices});
}

System::MappedFile
System::mapDataset(const std::string &name, std::uint64_t pages,
                   os::AddressSpace *as, unsigned device)
{
    MappedFile mf;
    mf.as = as ? as : kern->createAddressSpace();
    mf.file = kern->fs().lookup(name);
    if (!mf.file)
        mf.file = createFile(name, pages, device);
    bool fast = cfg.mode != PagingMode::osdp;
    mf.vma = kern->mmapFileSync(*mf.as, *mf.file, fast);
    if (fast && support)
        support->registerFastVma(*mf.as, mf.vma);
    return mf;
}

System::MappedFile
System::mapAnon(std::uint64_t pages, os::AddressSpace *as)
{
    MappedFile mf;
    mf.as = as ? as : kern->createAddressSpace();
    bool fast = cfg.mode != PagingMode::osdp;
    mf.vma = kern->mmapAnonSync(*mf.as, pages, fast);
    if (fast && support)
        support->registerFastVma(*mf.as, mf.vma);
    return mf;
}

void
System::preload(const MappedFile &mf)
{
    for (std::uint64_t i = 0; i < mf.vma->numPages(); ++i) {
        VAddr va = mf.vma->start + i * pageSize;
        if (os::pte::isPresent(mf.as->pageTable().readPte(va)))
            continue;
        Pfn pfn = allocFrameInterleaved(i);
        if (pfn == mem::PhysMem::invalidPfn) {
            warn("preload: out of memory after ", i, " of ",
                 mf.vma->numPages(), " pages");
            return;
        }
        kern->installPage(*mf.as, *mf.vma, va, pfn, true);
    }
}

cpu::ThreadContext *
System::addThread(workloads::Workload &wl, unsigned core_idx,
                  os::AddressSpace &as)
{
    auto tc = std::make_unique<cpu::ThreadContext>(
        std::string(wl.label()) + "#" + std::to_string(tcs.size()),
        core_idx, *kern, cores.at(core_idx)->mmu(), *hierarchy,
        bps.at(kern->scheduler().physCoreOf(core_idx)), as, wl, cfg.core,
        rng.fork());
    tc->setOnFinished([this] { ++threadsDone; });
    kern->scheduler().addThread(tc.get());
    tcs.push_back(std::move(tc));
    return tcs.back().get();
}

void
System::start()
{
    if (started)
        panic("system started twice");
    started = true;
    if (kpooldThread)
        kpooldThread->prime();
    kern->scheduler().start();
}

bool
System::runUntilThreadsDone(Tick max_ticks)
{
    if (!started)
        start();
    std::uint64_t want = tcs.size();
    eq.runWhile([this, want] { return threadsDone < want; }, max_ticks);
    if (threadsDone < want) {
        warn("simulation hit the tick limit with ", want - threadsDone,
             " thread(s) unfinished");
        return false;
    }
    return true;
}

void
System::runFor(Tick duration)
{
    if (!started)
        start();
    eq.run(eq.now() + duration);
}

void
System::stopKthreads()
{
    if (kptedThread)
        kptedThread->stop();
    if (kpooldThread)
        kpooldThread->stop();
    if (kcoalescedThread)
        kcoalescedThread->stop();
    if (ktierdThread)
        ktierdThread->stop();
    kern->reclaimer().stop();
}

void
System::quiesce()
{
    if (!started)
        throw sim::SerializeError(
            "checkpoint: machine was never started");
    if (threadsDone < tcs.size())
        throw sim::SerializeError(
            "checkpoint: " + std::to_string(tcs.size() - threadsDone) +
            " workload thread(s) still running; run the warmup to "
            "completion before quiescing");
    stopKthreads();
    eq.run();
    if (!eq.empty())
        throw sim::SerializeError(
            "checkpoint: event queue failed to drain");
}

void
System::resumeKthreads()
{
    // Fixed order: each restart posts one timer event, and same-tick
    // ordering is by event sequence number, so both sides of a
    // checkpoint must arm the timers identically.
    if (kptedThread)
        kptedThread->restart();
    if (kpooldThread && cfg.kpooldEnabled)
        kpooldThread->restart();
    if (kcoalescedThread)
        kcoalescedThread->restart();
    if (ktierdThread)
        ktierdThread->restart();
    kern->reclaimer().restart();
}

void
System::serialize(sim::Serializer &s)
{
    s.section("system");
    auto mode_word = static_cast<std::uint32_t>(cfg.mode);
    s.check(mode_word, "paging mode");
    s.check(cfg.nLogical, "logical core count");
    s.check(cfg.nDevices, "block device count");
    std::uint64_t nthreads = tcs.size();
    s.check(nthreads, "workload thread count");
    // Guarded so single-socket blobs keep the pre-NUMA byte layout.
    if (cfg.sockets > 1)
        s.check(cfg.sockets, "socket count");
    // Guarded so pageMode=off blobs keep the 4 KB-only byte layout.
    if (cfg.pageMode != PageMode::off) {
        auto pm_word = static_cast<std::uint32_t>(cfg.pageMode);
        s.check(pm_word, "page mode");
    }

    eq.serialize(s);
    rng.serialize(s);
    pm->serialize(s);
    hierarchy->serialize(s);
    for (auto &bp : bps)
        bp.serialize(s);
    kern->serialize(s);
    for (auto &d : ssds)
        d->serialize(s);
    for (auto &c : cores)
        c->mmu().serialize(s);
    for (auto &u : smuUnits)
        u->serialize(s);
    for (auto &q : swFpqs)
        q->serialize(s);
    for (auto &u : swSmus)
        u->serialize(s);
    if (support)
        support->serialize(s);
    if (kptedThread)
        kptedThread->serialize(s);
    if (kpooldThread)
        kpooldThread->serialize(s);
    if (kcoalescedThread)
        kcoalescedThread->serialize(s);
    // Guarded so tierMode=off blobs keep the pre-tier byte layout.
    if (cfg.tierMode != TierMode::off) {
        for (auto &t : tiers)
            t->serialize(s);
        ktierdThread->serialize(s);
    }
    // Guarded so pageMode=off blobs keep the 4 KB-only byte layout.
    if (cfg.pageMode != PageMode::off)
        s.io(nWideShootdownsDelayed);
    if (cfg.sockets > 1) {
        for (auto &sk : socketTopo) {
            s.io(sk.shootdownEpoch);
            s.io(sk.remoteShootdownsIn);
            s.io(sk.shootdownsDropped);
            s.io(sk.shootdownsDelayed);
        }
    }
    for (auto &tc : tcs)
        tc->serialize(s);
    s.io(threadsDone);
    s.section("system.end");
}

void
System::onRestored(std::uint64_t blob_bytes)
{
    started = true;
    ckptNote = "restored at tick " + std::to_string(eq.now()) +
               " from a " + std::to_string(blob_bytes) + "-byte blob";
}

std::string
System::describe() const
{
    std::string d = cfg.describe();
    d += "checkpoint       : ";
    d += ckptNote.empty() ? "cold boot" : ckptNote;
    d += '\n';
    return d;
}

std::uint64_t
System::totalAppOps() const
{
    std::uint64_t t = 0;
    for (const auto &tc : tcs)
        t += tc->appOps();
    return t;
}

double
System::throughputOpsPerSec() const
{
    Tick lo = maxTick, hi = 0;
    for (const auto &tc : tcs) {
        lo = std::min(lo, tc->startTick());
        hi = std::max(hi, tc->done() ? tc->finishTick() : eq.now());
    }
    if (hi <= lo)
        return 0.0;
    return static_cast<double>(totalAppOps()) / toSeconds(hi - lo);
}

double
System::aggregateUserIpc() const
{
    std::uint64_t instr = 0;
    Cycles cycles = 0;
    for (const auto &tc : tcs) {
        instr += tc->userInstructions();
        cycles += tc->userCycles();
    }
    return cycles ? static_cast<double>(instr) /
                        static_cast<double>(cycles)
                  : 0.0;
}

std::uint64_t
System::userBranchMispredicts() const
{
    std::uint64_t t = 0;
    for (const auto &bp : bps)
        t += bp.mispredicts(ExecMode::user);
    return t;
}

std::uint64_t
System::userBranchLookups() const
{
    std::uint64_t t = 0;
    for (const auto &bp : bps)
        t += bp.lookups(ExecMode::user);
    return t;
}

std::uint64_t
System::totalPwcHits() const
{
    std::uint64_t t = 0;
    for (const auto &c : cores)
        t += c->mmu().walker().pwcHits();
    return t;
}

std::uint64_t
System::totalPwcMisses() const
{
    std::uint64_t t = 0;
    for (const auto &c : cores)
        t += c->mmu().walker().pwcMisses();
    return t;
}

} // namespace hwdp::system
