/**
 * @file
 * Walkthrough: co-running two tenants on one simulated SSD.
 *
 * SweepRunner::runMulti() submits a MultiRunSpec's (workload,
 * policy) streams as simultaneous jobs on one fresh Device and
 * returns its drained DeviceSnapshot (one job per stream, in stream
 * order). Every stream keeps its own program counter, completion
 * vector and result attribution (an ExecContext), while the
 * StreamScheduler interleaves their dispatch pipelines on one event
 * queue. Contention is not configured anywhere — it emerges because
 * both streams reserve the same offloader, flash-die, DRAM-bank and
 * controller-core calendars, and every policy sees the other
 * tenant's backlog through the live queue/bandwidth features.
 */

#include <cstdint>
#include <cstdio>

#include "src/runner/sweep_runner.hh"

int
main()
{
    using namespace conduit;
    using namespace conduit::runner;

    SweepRunner sweeprunner;

    // First, the single-tenant world the paper evaluates: each
    // workload alone on a fresh device.
    RunMatrix matrix;
    matrix.workloads({WorkloadId::LlamaInference, WorkloadId::Jacobi1d})
        .technique("Conduit");
    const SweepResult alone = sweeprunner.run(matrix.build());
    const RunResult &llamaAlone = alone.result(0);
    const RunResult &jacobiAlone = alone.result(1);

    // Now the same two workloads as co-located tenants of one SSD.
    MultiRunSpec cell;
    cell.label = "LlaMA2+jacobi-1d";
    for (WorkloadId id :
         {WorkloadId::LlamaInference, WorkloadId::Jacobi1d}) {
        StreamSlot stream;
        stream.workloadId = id;
        stream.technique = "Conduit";
        cell.streams.push_back(stream);
    }
    const DeviceSnapshot co = sweeprunner.runMulti(cell);

    std::printf("two tenants, one SSD (Conduit policy)\n\n");
    std::printf("%-20s %14s %14s %10s %12s\n", "stream", "alone (ms)",
                "co-run (ms)", "slowdown", "p99 (us)");
    for (std::size_t i = 0; i < co.jobs.size(); ++i) {
        const RunResult &alone = i == 0 ? llamaAlone : jacobiAlone;
        const RunResult &r = co.jobs[i].result;
        std::printf("%-20s %14.3f %14.3f %9.2fx %12.2f\n",
                    r.workload.c_str(),
                    ticksToUs(alone.execTime) / 1000.0,
                    ticksToUs(r.execTime) / 1000.0,
                    static_cast<double>(r.execTime) /
                        static_cast<double>(alone.execTime),
                    r.latencyUs.percentile(99));
    }

    // Device totals, summed over the jobs in stream order.
    std::uint64_t instrs = 0;
    double dmJ = 0.0;
    double computeJ = 0.0;
    for (const JobResult &j : co.jobs) {
        instrs += j.result.instrCount;
        dmJ += j.result.dmEnergyJ;
        computeJ += j.result.computeEnergyJ;
    }
    std::printf("\ndevice aggregate: %llu instructions, makespan "
                "%.3f ms, %.3f J\n",
                static_cast<unsigned long long>(instrs),
                ticksToUs(co.makespan) / 1000.0, dmJ + computeJ);
    std::printf("scheduler fired %llu events (dispatch + completion "
                "per instruction)\n",
                static_cast<unsigned long long>(co.eventsFired));

    // Consolidation: one shared device vs one device per tenant.
    const double shared = ticksToUs(co.makespan) / 1000.0;
    const double dedicated =
        ticksToUs(llamaAlone.execTime + jacobiAlone.execTime) / 1000.0;
    std::printf("\nco-location finishes both tenants in %.3f ms vs "
                "%.3f ms run back-to-back (%.2fx consolidation)\n",
                shared, dedicated, dedicated / shared);
    return 0;
}
