/**
 * @file
 * Domain example: offloading LLM inference to the SSD.
 *
 * Declares the whole technique comparison as one SweepRunner matrix
 * (every technique row runs in parallel), then inspects what the
 * paper's §6.4 analysis looks at: which resources each policy picked
 * for the multiplication-heavy phases, and the tail latency that
 * results.
 *
 *   ./build/example_llm_offload [--threads N]
 */

#include <cstdio>

#include "src/core/simulation.hh"
#include "src/runner/sweep_cli.hh"

int
main(int argc, char **argv)
{
    using namespace conduit;
    using namespace conduit::runner;

    const SweepCli cli = SweepCli::parse(argc, argv);

    RunMatrix matrix;
    matrix.workload(WorkloadId::LlamaInference)
        .techniques({"CPU", "GPU", "ISP", "Ares-Flash",
                     "BW-Offloading", "DM-Offloading", "Conduit",
                     "Ideal"});
    cli.configure(matrix, "CPU"); // rows are normalized to CPU

    // The §6.4 analysis below consumes the tracer's occupancy spans,
    // so that category is always on for this example's cells.
    SweepOptions opts = cli.runnerOptions();
    opts.trace.categories |=
        static_cast<std::uint32_t>(trace::Category::Occupancy);
    SweepRunner sweeprunner(opts);
    const SweepResult sweep = sweeprunner.run(matrix.build());

    const std::string llama = workloadName(WorkloadId::LlamaInference);
    WorkloadParams params;
    params.scale = cli.scale;
    const auto compiled = sweeprunner.cache().get(
        WorkloadId::LlamaInference, params, defaultSweepConfig());
    std::printf("LlaMA2 Inference: %zu vectorized instructions, "
                "%.1f MiB footprint, %.0f%% of code vectorized\n\n",
                compiled->program.instrs.size(),
                static_cast<double>(
                    compiled->program.footprintBytes()) /
                    (1024.0 * 1024.0),
                100.0 * compiled->report.vectorizableFraction);

    const RunResult *cpu_row = sweep.find(llama, "CPU");
    if (!cpu_row) {
        std::fprintf(stderr,
                     "no rows to report (did --workloads filter out "
                     "%s?)\n",
                     llama.c_str());
        return 1;
    }
    const RunResult &cpu = *cpu_row;

    std::printf("%-16s %10s %9s %8s | %6s %6s %6s | %10s\n", "policy",
                "time (ms)", "speedup", "mJ", "ISP%", "PuD%", "IFP%",
                "p99.99 us");
    for (const auto &technique : sweep.techniqueLabels()) {
        const RunResult &r = sweep.at(llama, technique);
        const double n = static_cast<double>(
            r.instrCount ? r.instrCount : 1);
        std::printf(
            "%-16s %10.3f %8.2fx %8.1f | %5.1f%% %5.1f%% %5.1f%% "
            "| %10.1f\n",
            r.policy.c_str(), ticksToSeconds(r.execTime) * 1e3,
            static_cast<double>(cpu.execTime) /
                static_cast<double>(r.execTime),
            r.energyJ() * 1e3, 100.0 * r.perResource[0] / n,
            100.0 * r.perResource[1] / n, 100.0 * r.perResource[2] / n,
            r.latencyUs.count() ? r.latencyUs.percentile(99.99) : 0.0);
    }

    // The §6.4 observation: where did the multiplies go? (No extra
    // run needed — the sweep already traced Conduit's occupancy.)
    const trace::Tracer *conduitTrace = nullptr;
    for (const trace::TraceCell &c : sweeprunner.lastTraces())
        if (c.label == llama + "/Conduit")
            conduitTrace = c.tracer.get();
    if (conduitTrace) {
        const trace::InstructionTimeline tl =
            trace::instructionTimeline(*conduitTrace);
        std::uint64_t mul_ifp = 0, mul_total = 0;
        for (std::size_t i = 0; i < tl.op.size(); ++i) {
            const auto op = static_cast<OpCode>(tl.op[i]);
            if (op == OpCode::Mul || op == OpCode::Mac) {
                ++mul_total;
                if (static_cast<Target>(tl.resource[i]) == Target::Ifp)
                    ++mul_ifp;
            }
        }
        std::printf(
            "\nConduit sends %.1f%% of multiplications to IFP "
            "(avoids the shift_and_add operand shuttles, Fig. 9)\n",
            mul_total ? 100.0 * mul_ifp / mul_total : 0.0);
    }

    return cli.finish(toTable(sweep), sweeprunner);
}
