#include "cpu/thread_context.hh"

#include <algorithm>

#include "sim/logging.hh"
#include "sim/serialize.hh"

namespace hwdp::cpu {

void
ThreadContext::serialize(sim::Serializer &s)
{
    s.section("threadcontext");
    if (s.saving() && hasCurOp)
        throw sim::SerializeError(
            "checkpoint: thread '" + name() +
            "' holds a stashed op; quiesce the machine first");
    serializeState(s);
    s.io(uInstr);
    s.io(uCycles);
    s.io(cCycles);
    s.io(mCycles);
    s.io(nAppOps);
    s.io(nMemOps);
    s.io(nFaulted);
    s.io(nHwHandled);
    s.io(faultStall);
    s.io(started);
    s.io(finished);
    s.io(isDone);
    s.io(wasOomKilled);
    s.io(startedFlag);
    s.io(fetchSeq);
    memLat.serialize(s);
    faultedOpLat.serialize(s);
    s.io(appOpStart);
    s.io(appOpFaulted);
    s.io(appOpOpen);
    s.io(memOpStart);
    s.io(memOpEndsApp);
    rng.serialize(s);
    workload.serialize(s);
}

ThreadContext::ThreadContext(std::string name, unsigned core,
                             os::Kernel &kernel, Mmu &mmu,
                             mem::CacheHierarchy &caches,
                             mem::BranchPredictor &bp,
                             os::AddressSpace &as,
                             workloads::Workload &workload,
                             const CoreParams &params, sim::Rng rng)
    : os::Thread(std::move(name), core), kernel(kernel), mmuRef(mmu),
      caches(caches), bp(bp), as(as), workload(workload), prm(params),
      rng(rng), physCore(kernel.scheduler().physCoreOf(core)),
      memLat("mem_latency_us", "per-access latency (us)", 0.5, 400),
      faultedOpLat("faulted_op_latency_us",
                   "app-op latency when a page miss occurred (us)", 0.5,
                   400)
{
    if (prm.memQuantum == 0)
        fatal("thread '", this->name(), "': memQuantum must be >= 1");
}

void
ThreadContext::run()
{
    if (!startedFlag) {
        startedFlag = true;
        started = kernel.now();
    }
    if (hasResumeAction()) {
        takeResumeAction()();
        return;
    }
    opLoop();
}

bool
ThreadContext::handleOom()
{
    // The faulting access never completes; the thread terminates the
    // way an OOM-killed process does. The fault path runs entirely in
    // this thread's context, so it is still current on its core and
    // finish() is legal here.
    wasOomKilled = true;
    isDone = true;
    finished = kernel.now();
    kernel.scheduler().finish(this);
    if (onFinished)
        onFinished();
    return true;
}

void
ThreadContext::opLoop()
{
    if (isDone)
        return;

    sim::EventQueue &eq = kernel.eventQueue();
    const Tick t0 = kernel.now();

    // Batch horizon: the next pending event anywhere in the machine.
    // As long as the logical clock t0 + accrued stays below it, no
    // other actor can run, so completing ops synchronously is
    // indistinguishable from event-per-op execution. The thread posts
    // no events inside a batch, so the horizon cannot move under us.
    const Tick horizon = eq.nextEventTick();
    Tick accrued = 0;
    unsigned batched = 0;

    for (;;) {
        // Cut the batch: the next op would cross the horizon or the
        // quantum is spent. One pooled continuation carries the whole
        // batch's accrued time.
        if (accrued > 0 &&
            (t0 + accrued >= horizon || batched >= prm.memQuantum)) {
            eq.postIn(accrued, [this] { opLoop(); }, "tc.batch");
            return;
        }

        // Operation boundary: let pending interrupt work run (it
        // borrows this context, no full context switch). The pending
        // set only changes when events fire, and none fire inside a
        // batch, so checking at the batch head is exact.
        if (accrued == 0 && kernel.scheduler().kernelWorkPending(core())) {
            setResumeAction([this] { opLoop(); });
            kernel.scheduler().preemptForKernelWork(this);
            return;
        }

        if (!hasCurOp) {
            curOp = workload.next(rng, t0 + accrued);
            hasCurOp = true;
        }
        const workloads::Op &op = curOp;

        // Ops that involve the kernel or the scheduler run at real
        // simulated time: flush the accrued batch first and execute
        // the stashed op at the continuation (so preemption and
        // bookkeeping happen at its actual start time, as before).
        bool inline_op = op.kind == workloads::Op::Kind::compute ||
                         op.kind == workloads::Op::Kind::mem ||
                         op.kind == workloads::Op::Kind::idle;
        if (!inline_op && accrued > 0) {
            eq.postIn(accrued, [this] { opLoop(); }, "tc.batch");
            return;
        }

        if (!appOpOpen && op.kind != workloads::Op::Kind::done) {
            appOpOpen = true;
            appOpFaulted = false;
            appOpStart = t0 + accrued;
        }

        switch (op.kind) {
          case workloads::Op::Kind::compute: {
            accrued += computeBurst(op.compute);
            ++batched;
            hasCurOp = false;
            if (op.endsAppOp)
                finishOp(t0 + accrued);
            continue;
          }

          case workloads::Op::Kind::mem: {
            ++nMemOps;
            memOpStart = t0 + accrued;
            memOpEndsApp = op.endsAppOp;
            hasCurOp = false;
            AccessInfo info;
            if (mmuRef.access(*this, as, op.addr, op.write, accrued,
                              *this, info)) {
                // Hit: complete inline.
                memLat.sample(toMicroseconds(info.latency));
                uCycles += info.latency / prm.cyclePeriod;
                mCycles += info.latency / prm.cyclePeriod;
                accrued += info.latency;
                ++batched;
                if (memOpEndsApp)
                    finishOp(t0 + accrued);
                continue;
            }
            // Page miss: the access is parked in the MMU (issued at
            // logical time t0 + accrued) and the completion arrives
            // through accessDone(), which restarts the loop.
            return;
          }

          case workloads::Op::Kind::idle:
            // Think time is pure logical-clock advance; other actors
            // still run first if their events fall inside it (the
            // horizon cut above).
            accrued += op.idleTicks;
            ++batched;
            hasCurOp = false;
            if (op.endsAppOp)
                finishOp(t0 + accrued);
            continue;

          case workloads::Op::Kind::fileWrite:
            hasCurOp = false;
            kernel.writeFile(*this, *op.file, op.pageIndex, op.bytes,
                             [this, ends = op.endsAppOp] {
                                 if (ends)
                                     finishOp(kernel.now());
                                 opLoop();
                             });
            return;

          case workloads::Op::Kind::msync:
            hasCurOp = false;
            kernel.msyncVma(*this, op.vma,
                            [this, ends = op.endsAppOp] {
                                if (ends)
                                    finishOp(kernel.now());
                                opLoop();
                            });
            return;

          case workloads::Op::Kind::done:
            hasCurOp = false;
            isDone = true;
            finished = kernel.now();
            kernel.scheduler().finish(this);
            if (onFinished)
                onFinished();
            return;
        }
        panic("thread '", name(), "': unhandled op kind");
    }
}

void
ThreadContext::accessDone(const AccessInfo &info)
{
    memLat.sample(toMicroseconds(info.latency));
    if (info.faulted) {
        appOpFaulted = true;
        ++nFaulted;
        faultStall += kernel.now() - memOpStart;
        if (info.hwHandled)
            ++nHwHandled;
    } else {
        uCycles += info.latency / prm.cyclePeriod;
        mCycles += info.latency / prm.cyclePeriod;
    }
    if (memOpEndsApp)
        finishOp(kernel.now());
    opLoop();
}

void
ThreadContext::finishOp(Tick logical_now)
{
    ++nAppOps;
    if (appOpFaulted)
        faultedOpLat.sample(toMicroseconds(logical_now - appOpStart));
    appOpOpen = false;
    workload.appOpDone(logical_now);
}

BurstStalls
runBurstStream(mem::CacheHierarchy &caches, mem::BranchPredictor &bp,
               sim::Rng &rng, unsigned phys_core,
               const workloads::ComputeSpec &spec, const CoreParams &prm,
               std::uint64_t &fetch_seq, BurstScratch &scratch)
{
    // The RNG draws happen in the model's loop order (address/outcome
    // generation is hoisted, not reordered), each loop's stream goes
    // through accessBatch as one run (so each cache array sees the
    // addresses in program order), and the stall sum is reconstructed
    // exactly from the per-level hit counts: every line that hits
    // level k costs max(latency_k, l1HitLatency) - l1HitLatency.
    const mem::CacheParams &cp = caches.params();
    auto stallSum = [&](const mem::CacheBatchResult &r, std::uint64_t n) {
        auto stall_for = [&](Cycles lat) {
            return std::max(lat, prm.l1HitLatency) - prm.l1HitLatency;
        };
        return (n - r.l1Misses) * stall_for(cp.l1Latency) +
               (r.l1Misses - r.l2Misses) * stall_for(cp.l2Latency) +
               (r.l2Misses - r.llcMisses) * stall_for(cp.llcLatency) +
               r.llcMisses * stall_for(cp.dramLatency);
    };
    std::vector<std::uint64_t> &addrs = scratch.addrs;

    Cycles extra = 0;

    // Data references: mostly the hot set, occasionally the cold
    // region (two-level working-set model).
    auto n_refs = static_cast<std::uint64_t>(
        static_cast<double>(spec.instructions) * spec.memRefFrac);
    addrs.resize(n_refs);
    for (std::uint64_t i = 0; i < n_refs; ++i) {
        if (spec.coldBytes > 0 && rng.chance(spec.coldFrac)) {
            addrs[i] = spec.hotBase + spec.hotBytes +
                       (rng.range(spec.coldBytes) & ~7ULL);
        } else {
            addrs[i] = spec.hotBase + (rng.range(spec.hotBytes) & ~7ULL);
        }
    }

    // Branches: site and outcome drawn interleaved. The cache streams
    // consume no randomness, so drawing them before the cache passes
    // leaves the generator stream as if drawn after them. Per-site
    // outcomes are strongly biased (branchBias = taken probability),
    // so kernel pollution of the history register / pattern table
    // shows up as extra mispredictions after each OS entry.
    auto n_br = static_cast<std::uint64_t>(
        static_cast<double>(spec.instructions) * spec.branchFrac);
    scratch.pcs.resize(n_br);
    scratch.taken.resize(n_br);
    for (std::uint64_t i = 0; i < n_br; ++i) {
        scratch.pcs[i] = spec.textBase + rng.range(spec.staticBranches) * 16;
        scratch.taken[i] =
            static_cast<std::uint8_t>(rng.chance(spec.branchBias));
    }

    Cycles data_stall = 0;
    if (n_refs > 0) {
        auto r = caches.accessBatch(phys_core, addrs.data(), n_refs, false,
                                    ExecMode::user);
        data_stall = stallSum(r, n_refs);
    }
    // Overlapped misses (memory-level parallelism) hide part of the
    // data-stall cycles.
    extra += static_cast<Cycles>(static_cast<double>(data_stall) /
                                 std::max(spec.mlp, 1.0));

    // Instruction fetch: one line per 16 instructions, streaming over
    // the text footprint. One modulo per burst; the stream wraps
    // incrementally.
    std::uint64_t n_lines = spec.instructions / 16 + 1;
    std::uint64_t text_lines =
        std::max<std::uint64_t>(spec.textBytes / lineSize, 1);
    std::uint64_t pos = fetch_seq % text_lines;
    addrs.resize(n_lines);
    for (std::uint64_t i = 0; i < n_lines; ++i) {
        addrs[i] = spec.textBase + pos * lineSize;
        if (++pos == text_lines)
            pos = 0;
    }
    {
        auto r = caches.accessBatch(phys_core, addrs.data(), n_lines, true,
                                    ExecMode::user);
        extra += stallSum(r, n_lines);
    }

    // Cold-path fetches (rare branches, library calls) from a 1 MB
    // region: the workload's intrinsic L1I miss floor.
    if (spec.icacheColdLines > 0) {
        addrs.resize(spec.icacheColdLines);
        for (std::uint32_t i = 0; i < spec.icacheColdLines; ++i)
            addrs[i] = spec.textBase + 0x100'0000 +
                       ((fetch_seq * 13 + i * 67) % 16384) * lineSize;
        auto r = caches.accessBatch(phys_core, addrs.data(),
                                    spec.icacheColdLines, true,
                                    ExecMode::user);
        extra += stallSum(r, spec.icacheColdLines);
    }
    fetch_seq += n_lines;

    // Predictor batch (n_pcs == n, so the ring never wraps and pcs[i]
    // pairs with taken[i]).
    std::uint64_t mispred = 0;
    if (n_br > 0)
        mispred = bp.updateBatch(scratch.pcs.data(), n_br,
                                 scratch.taken.data(), n_br, ExecMode::user);

    return {extra, mispred * prm.mispredPenalty};
}

Tick
ThreadContext::computeBurst(const workloads::ComputeSpec &spec)
{
    // Issue-slot share depends on what the SMT sibling is doing right
    // now (sampled at burst start; bursts are short).
    double share = kernel.scheduler().widthShare(core());
    BurstStalls st = runBurstStream(caches, bp, rng, physCore, spec, prm,
                                    fetchSeq, burstScratch);

    auto base = static_cast<Cycles>(
        static_cast<double>(spec.instructions) * prm.baseCpi);
    Cycles cycles = base + st.stall + st.mispredict;
    auto duration = static_cast<Tick>(
        static_cast<double>(cycles * prm.cyclePeriod) / share);

    uInstr += spec.instructions;
    uCycles += duration / prm.cyclePeriod; // wall cycles in user mode
    cCycles += duration / prm.cyclePeriod;

    return duration;
}

} // namespace hwdp::cpu
