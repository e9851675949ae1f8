/**
 * @file
 * Quickstart: compile a kernel with Conduit's preprocessing stage
 * and execute it inside the simulated SSD under the Conduit
 * offloading policy, comparing against the host CPU. Both runs are
 * cells of one SweepRunner sweep, the path every bench uses.
 *
 * Build and run:
 *   cmake -B build -G Ninja && cmake --build build
 *   ./build/example_quickstart
 */

#include <cstdio>

#include "src/runner/sweep_runner.hh"

int
main()
{
    using namespace conduit;
    using namespace conduit::runner;

    SweepRunner sweeprunner;

    // Compile-time preprocessing: auto-vectorize the AES kernel into
    // 4096-lane SIMD instructions with embedded metadata. The
    // runner's compile-once cache hands the same program to the
    // cells below.
    const auto vp = sweeprunner.cache().get(
        WorkloadId::Aes, WorkloadParams{}, defaultSweepConfig());
    std::printf("compiled %-16s: %llu vector + %llu scalar instrs, "
                "%.0f%% vectorized\n",
                vp->program.name.c_str(),
                static_cast<unsigned long long>(vp->report.vectorInstrs),
                static_cast<unsigned long long>(vp->report.scalarInstrs),
                100.0 * vp->report.vectorizableFraction);
    for (const auto &remark : vp->report.remarks)
        std::printf("  remark: %s\n", remark.c_str());

    // Runtime: execute under Conduit (one job on a fresh simulated
    // SSD) and on the host CPU, as two cells of one sweep.
    RunMatrix matrix;
    matrix.workload(WorkloadId::Aes).techniques({"CPU", "Conduit"});
    const SweepResult sweep = sweeprunner.run(matrix.build());
    const RunResult &cpu_run = sweep.at("AES", "CPU");
    const RunResult &conduit_run = sweep.at("AES", "Conduit");

    std::printf("\n%-10s %14s %12s %10s\n", "engine", "exec time (ms)",
                "energy (mJ)", "speedup");
    auto row = [&](const RunResult &r) {
        std::printf("%-10s %14.3f %12.3f %9.2fx\n", r.policy.c_str(),
                    ticksToSeconds(r.execTime) * 1e3,
                    r.energyJ() * 1e3,
                    static_cast<double>(cpu_run.execTime) /
                        static_cast<double>(r.execTime));
    };
    row(cpu_run);
    row(conduit_run);

    std::printf("\noffload split: ISP %llu, PuD %llu, IFP %llu\n",
                static_cast<unsigned long long>(
                    conduit_run.perResource[0]),
                static_cast<unsigned long long>(
                    conduit_run.perResource[1]),
                static_cast<unsigned long long>(
                    conduit_run.perResource[2]));
    return 0;
}
