/**
 * @file
 * Reproduces the §4.5 overhead analysis with google-benchmark
 * microbenchmarks of Conduit's runtime hot path, plus a model audit
 * of the simulated per-instruction overhead and metadata budgets.
 *
 * Paper values: feature collection + instruction transformation cost
 * 3.77 us on average (up to 33 us when an L2P lookup misses to
 * flash); the translation table consumes ~1.5 KiB of SSD DRAM.
 */

#include <benchmark/benchmark.h>

#include "bench/common.hh"

namespace
{

using namespace conduit;

SsdConfig
benchCfg()
{
    return SsdConfig::scaled(1.0 / 128.0);
}

Program
benchProgram()
{
    runner::ProgramCache cache;
    return cache.get(WorkloadId::LlamaInference, {}, benchCfg())
        ->program;
}

/** Host-side cost of evaluating the cost function (Eqn. 1/2). */
void
BM_CostFunctionEvaluation(benchmark::State &state)
{
    Device dev(makeDeviceOptions(benchCfg(), {}, {}));
    const auto prog = std::make_shared<const Program>(benchProgram());
    ConduitPolicy policy;
    JobSpec job;
    job.program = prog;
    dev.submit(job);
    dev.drain(); // populate device state
    std::size_t i = 0;
    for (auto _ : state) {
        const auto &vi = prog->instrs[i++ % prog->instrs.size()];
        CostFeatures f = dev.engine().features(vi, 0);
        benchmark::DoNotOptimize(policy.select(vi, f));
    }
}
BENCHMARK(BM_CostFunctionEvaluation);

/** Host-side cost of instruction transformation. */
void
BM_InstructionTransformation(benchmark::State &state)
{
    InstructionTransformer tx(4096, 8192, 32);
    Program prog = benchProgram();
    std::size_t i = 0;
    for (auto _ : state) {
        const auto &vi = prog.instrs[i++ % prog.instrs.size()];
        benchmark::DoNotOptimize(
            tx.transform(vi, static_cast<Target>(i % 3)));
    }
}
BENCHMARK(BM_InstructionTransformation);

/** Full simulated run throughput (instructions per host second). */
void
BM_EngineRunLlama(benchmark::State &state)
{
    const auto prog = std::make_shared<const Program>(benchProgram());
    for (auto _ : state) {
        Device dev(makeDeviceOptions(benchCfg(), {}, {}));
        JobSpec job;
        job.program = prog;
        dev.submit(job);
        benchmark::DoNotOptimize(dev.drain());
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(prog->instrs.size()));
}
BENCHMARK(BM_EngineRunLlama);

} // namespace

int
main(int argc, char **argv)
{
    using namespace conduit;

    // Model audit: simulated per-instruction offloader latency.
    {
        SsdConfig cfg;
        const OverheadConfig &o = cfg.overhead;
        const Tick typical = 2 * o.l2pLookupDram + o.depTrackPerQueue +
            o.queueTrackPerResource + o.dmTableLookup +
            o.compTableLookup + o.translationLookup;
        const Tick worst = 2 * o.l2pLookupFlash + o.depTrackPerQueue +
            o.queueTrackPerResource + o.dmTableLookup +
            o.compTableLookup + o.translationLookup;
        std::printf("S4.5 overhead audit (simulated model)\n");
        std::printf("  typical per-instruction overhead: %.2f us "
                    "[paper avg 3.77 us]\n",
                    ticksToUs(typical));
        std::printf("  worst-case (L2P misses to flash): %.2f us "
                    "[paper up to 33 us]\n",
                    ticksToUs(worst));
        std::printf("  translation table: %llu bytes "
                    "[paper ~1.5 KiB]\n",
                    static_cast<unsigned long long>(
                        InstructionTransformer::tableBytes()));
        std::printf("  cost-feature metadata per instruction: "
                    "2B op + 4b loc + 2B dep + 3x4B queue + 4B dm + "
                    "4B comp = 25B\n\n");
    }

    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}
