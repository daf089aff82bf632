/**
 * @file
 * Kernel-pollution engine microbenchmarks (google-benchmark): the
 * per-phase pollution cost through the level-major engine, the
 * underlying cache-batch API at L1 geometry (and the per-line access
 * the MMU and walker use), and the bulk RNG / branch-predictor
 * streams. These isolate the pollution cost that BENCH_pollution.json
 * records and that BENCH_memsys.json's end-to-end fig13 number
 * aggregates; the run also prints the per-category probe table the
 * phase mix generates.
 */

#include <benchmark/benchmark.h>

#include <cstdio>
#include <vector>

#include "mem/branch_predictor.hh"
#include "mem/cache_array.hh"
#include "mem/cache_hierarchy.hh"
#include "metrics/report.hh"
#include "os/kernel_phases.hh"
#include "sim/rng.hh"

using namespace hwdp;
using namespace hwdp::os;

namespace {

/** The OSDP fault critical path: the pollution stream fig13 pays. */
const KernelPhase *const faultMix[] = {
    &phases::exceptionEntry, &phases::vmaLookup,   &phases::pageAlloc,
    &phases::ioSubmit,       &phases::contextSwitch,
    &phases::irqDeliver,     &phases::ioComplete,  &phases::wakeupSched,
    &phases::metadataUpdate, &phases::pteUpdateReturn};

void
BM_PollutionPhaseMixBatched(benchmark::State &state)
{
    mem::CacheHierarchy caches(1, mem::CacheParams{});
    std::vector<mem::BranchPredictor> bps(1);
    KernelExec kexec(caches, bps, 357, sim::Rng(2));
    for (int warm = 0; warm < 64; ++warm)
        for (const KernelPhase *p : faultMix)
            kexec.run(0, *p);
    std::uint64_t probes0 = kexec.totalPollutionProbes();
    std::uint64_t phases = 0;
    for (auto _ : state) {
        for (const KernelPhase *p : faultMix)
            benchmark::DoNotOptimize(kexec.run(0, *p));
        phases += std::size(faultMix);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(phases));
    state.counters["probes/s"] = benchmark::Counter(
        static_cast<double>(kexec.totalPollutionProbes() - probes0),
        benchmark::Counter::kIsRate);
}
BENCHMARK(BM_PollutionPhaseMixBatched);

void
BM_CacheAccessBatchL1AllHit(benchmark::State &state)
{
    // The inner loop of the level-major descent: a phase-footprint
    // sized run through an L1 array, steady-state all hits.
    mem::CacheArray l1("l1", 32 * 1024, 8);
    std::vector<std::uint64_t> run;
    for (int i = 0; i < 48; ++i)
        run.push_back(0xffffffff80000000ull + i * 64);
    std::vector<std::uint64_t> miss(run.size());
    l1.accessBatch(run.data(), run.size(), miss.data());
    for (auto _ : state)
        benchmark::DoNotOptimize(
            l1.accessBatch(run.data(), run.size(), miss.data()));
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(run.size()));
}
BENCHMARK(BM_CacheAccessBatchL1AllHit);

void
BM_CachePerLineL1AllHit(benchmark::State &state)
{
    // Per-line counterpart of BM_CacheAccessBatchL1AllHit.
    mem::CacheArray l1("l1", 32 * 1024, 8);
    std::vector<std::uint64_t> run;
    for (int i = 0; i < 48; ++i)
        run.push_back(0xffffffff80000000ull + i * 64);
    for (auto a : run)
        l1.access(a);
    for (auto _ : state) {
        for (auto a : run)
            benchmark::DoNotOptimize(l1.access(a));
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(run.size()));
}
BENCHMARK(BM_CachePerLineL1AllHit);

void
BM_RngFillCoinFlips(benchmark::State &state)
{
    sim::Rng rng(7);
    std::vector<std::uint8_t> out(256);
    for (auto _ : state) {
        rng.fill(0.5, out.data(), out.size());
        benchmark::DoNotOptimize(out.data());
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(out.size()));
}
BENCHMARK(BM_RngFillCoinFlips);

void
BM_BranchPredictorUpdateBatch(benchmark::State &state)
{
    mem::BranchPredictor bp;
    sim::Rng rng(11);
    std::vector<std::uint64_t> pcs;
    for (int i = 0; i < 1024; ++i)
        pcs.push_back(0xffffffff81000000ull + i * 16);
    std::vector<std::uint8_t> taken(200);
    rng.fill(0.5, taken.data(), taken.size());
    for (auto _ : state)
        benchmark::DoNotOptimize(
            bp.updateBatch(pcs.data(), pcs.size(), taken.data(),
                           taken.size(), ExecMode::kernel));
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(taken.size()));
}
BENCHMARK(BM_BranchPredictorUpdateBatch);

} // namespace

int
main(int argc, char **argv)
{
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();

    // Show where the fault path's probes land per kernel cost
    // category (the accounting the batched engine surfaces).
    mem::CacheHierarchy caches(1, mem::CacheParams{});
    std::vector<mem::BranchPredictor> bps(1);
    KernelExec kexec(caches, bps, 357, sim::Rng(2));
    for (int r = 0; r < 1000; ++r)
        for (const KernelPhase *p : faultMix)
            kexec.run(0, *p);
    std::printf("\nPollution probes by category, 1000 OSDP faults:\n");
    metrics::pollutionProbeTable(kexec).print();
    return 0;
}
