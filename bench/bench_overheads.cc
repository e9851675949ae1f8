/**
 * @file
 * Reproduces the §4.5 overhead analysis with google-benchmark
 * microbenchmarks of Conduit's runtime hot path, plus a model audit
 * of the simulated per-instruction overhead and metadata budgets.
 *
 * Paper values: feature collection + instruction transformation cost
 * 3.77 us on average (up to 33 us when an L2P lookup misses to
 * flash); the translation table consumes ~1.5 KiB of SSD DRAM.
 *
 * The simulator's own event kernel is microbenchmarked here too, on
 * the shapes real runs produce: a self-scheduling dispatch chain, a
 * pre-populated fan (and a 10x wider one), open-loop arrivals that
 * arm and cancel a timeout each, a cancel-heavy rolling window, and
 * the DeviceImage fork a warm sweep pays per cell. These localize a
 * kernel change; end-to-end speed is perfbench's (BENCHMARK.json,
 * compared base vs branch by scripts/perf_ab.py).
 */

#include <benchmark/benchmark.h>

#include <deque>

#include "bench/common.hh"
#include "src/core/transformer.hh"
#include "src/sim/event_queue.hh"

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
    job.policyObj = makePolicy("Conduit");
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
        job.policyObj = makePolicy("Conduit");
        dev.submit(job);
        benchmark::DoNotOptimize(dev.drain());
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(prog->instrs.size()));
}
BENCHMARK(BM_EngineRunLlama);

/** Dispatch-chain shape: every callback schedules its successor. */
void
BM_EventChain(benchmark::State &state)
{
    const auto events = static_cast<std::uint64_t>(state.range(0));
    for (auto _ : state) {
        EventQueue q;
        std::uint64_t remaining = events;
        std::function<void()> next; // self-referencing chain body
        next = [&] {
            if (--remaining > 0)
                q.scheduleAfter(1, [&] { next(); });
        };
        q.schedule(0, [&] { next(); });
        q.run();
    }
    state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_EventChain)->Arg(1'000'000);

/**
 * Fan shape: all events scheduled up front, then drained; the second
 * size keeps a 10x larger resident set pending.
 */
void
BM_EventFan(benchmark::State &state)
{
    const auto events = static_cast<std::uint64_t>(state.range(0));
    for (auto _ : state) {
        EventQueue q;
        std::uint64_t fired = 0;
        // Interleaved ticks and priorities exercise the ordering.
        for (std::uint64_t i = 0; i < events; ++i)
            q.schedule((i * 7919) % events, [&fired] { ++fired; },
                       static_cast<int>(i & 3));
        q.run();
        benchmark::DoNotOptimize(fired);
    }
    state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_EventFan)->Arg(100'000)->Arg(1'000'000);

/**
 * Open-loop pre-populated arrivals: every job's arrival is scheduled
 * up front (the shape of every open-loop Device run), then each
 * arrival runs a short dispatch step and arms a timeout that
 * completion cancels. Items are fired events plus completions.
 */
void
BM_EventOpenLoopArrivals(benchmark::State &state)
{
    const auto jobs = static_cast<std::uint64_t>(state.range(0));
    std::int64_t items = 0;
    for (auto _ : state) {
        EventQueue q;
        std::vector<EventId> timeout(jobs);
        std::uint64_t done = 0;
        for (std::uint64_t i = 0; i < jobs; ++i) {
            q.schedule(static_cast<Tick>(i) * 100,
                       [&q, &timeout, &done, i] {
                           timeout[i] = q.scheduleAfter(10'000, [] {});
                           q.scheduleAfter(50, [&q, &timeout, &done, i] {
                               q.cancel(timeout[i]);
                               ++done;
                           });
                       });
        }
        q.run();
        items += static_cast<std::int64_t>(q.eventsFired() + done);
    }
    state.SetItemsProcessed(items);
}
BENCHMARK(BM_EventOpenLoopArrivals)->Arg(100'000);

/** Open-loop shape: rolling window of schedule + cancel pairs. */
void
BM_EventCancelWindow(benchmark::State &state)
{
    const auto pairs = static_cast<std::uint64_t>(state.range(0));
    for (auto _ : state) {
        EventQueue q;
        std::deque<EventId> window;
        for (std::uint64_t i = 0; i < pairs; ++i) {
            window.push_back(
                q.schedule(static_cast<Tick>(pairs + i), [] {}));
            if (window.size() > 512) {
                q.cancel(window.front());
                window.pop_front();
            }
        }
        q.run();
    }
    state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_EventCancelWindow)->Arg(1'000'000);

/**
 * Snapshot/fork round trip: a warm DeviceImage (AES under Conduit,
 * four warm jobs) is built once, then forked into a live Device per
 * iteration — the fixed cost a warm sweep pays per cell instead of
 * replaying the warm phase.
 */
void
BM_SnapshotFork(benchmark::State &state)
{
    runner::LoadRunSpec warm;
    warm.workloadId = WorkloadId::Aes;
    warm.workload = workloadName(WorkloadId::Aes);
    warm.technique = "Conduit";
    warm.jobs = 0;
    warm.warmupJobs = 4;
    warm.jobsPerSec = 1000.0;
    runner::SweepRunner runner;
    const DeviceImage img = runner.buildWarmImage(warm);
    for (auto _ : state) {
        Device dev(img);
        benchmark::DoNotOptimize(dev.now());
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SnapshotFork);

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
