/**
 * @file
 * Extensibility example: plug a user-defined offloading policy into
 * the runtime (the §7 extensibility discussion).
 *
 * Implements a "static oracle" policy — a lookup from operation
 * family to resource, the kind of hand-tuned mapping a domain expert
 * might write — and a fault-tolerant run, then compares both with
 * Conduit's dynamic cost function.
 *
 *   ./build/example_custom_policy
 */

#include <cstdio>
#include <memory>

#include "src/runner/sweep_runner.hh"

namespace
{

using namespace conduit;

/**
 * Static expert mapping: bitwise to flash, arithmetic to DRAM,
 * everything else to the core. No runtime state consulted.
 */
class StaticOracle : public OffloadPolicy
{
  public:
    Target
    select(const VecInstruction &vi, const CostFeatures &f) override
    {
        if (!vi.vectorized)
            return Target::Isp;
        const auto ifp = static_cast<std::size_t>(Target::Ifp);
        const auto pud = static_cast<std::size_t>(Target::Pud);
        switch (opFamily(vi.op)) {
          case OpFamily::Bitwise:
            return f.supported[ifp] ? Target::Ifp : Target::Isp;
          case OpFamily::Arithmetic:
          case OpFamily::Predication:
            return f.supported[pud] ? Target::Pud : Target::Isp;
          default:
            return Target::Isp;
        }
    }

    std::string name() const override { return "StaticOracle"; }
};

} // namespace

int
main()
{
    using namespace conduit;
    using namespace conduit::runner;

    SweepRunner sweeprunner;

    // The custom policy is one more technique column: the runner
    // builds a fresh StaticOracle for each cell it runs.
    const std::string oracle = StaticOracle().name();
    RunMatrix matrix;
    matrix
        .workloads({WorkloadId::Aes, WorkloadId::Heat3d,
                    WorkloadId::LlamaInference})
        .technique("Conduit")
        .technique(oracle, [] { return std::make_unique<StaticOracle>(); });
    const SweepResult sweep = sweeprunner.run(matrix.build());

    std::printf("custom policy vs Conduit's dynamic cost function\n\n");
    std::printf("%-18s %-14s %12s %14s\n", "workload", "policy",
                "time (ms)", "vs Conduit");
    for (const std::string &workload : sweep.workloadLabels()) {
        const RunResult &conduit = sweep.at(workload, "Conduit");
        const RunResult &st = sweep.at(workload, oracle);
        std::printf("%-18s %-14s %12.3f %13.2fx\n", workload.c_str(),
                    "Conduit", ticksToSeconds(conduit.execTime) * 1e3,
                    1.0);
        std::printf("%-18s %-14s %12.3f %13.2fx\n", "", oracle.c_str(),
                    ticksToSeconds(st.execTime) * 1e3,
                    static_cast<double>(st.execTime) /
                        static_cast<double>(conduit.execTime));
    }

    // Fault handling (§4.4): inject transient faults and observe the
    // replay mechanism keep the run correct at a latency cost. Each
    // rate is one cell with its own engine options.
    std::vector<RunSpec> faulty;
    for (double rate : {0.0, 0.01, 0.05}) {
        RunSpec spec;
        spec.workloadId = WorkloadId::Heat3d;
        spec.workload = workloadName(WorkloadId::Heat3d);
        spec.technique = "Conduit";
        spec.engine.transientFaultRate = rate;
        faulty.push_back(spec);
    }
    const SweepResult faults = sweeprunner.run(faulty);
    std::printf("\ntransient-fault injection on heat-3d (Conduit):\n");
    for (std::size_t i = 0; i < faults.size(); ++i) {
        const RunResult &r = faults.result(i);
        std::printf("  fault rate %4.0f%%: %8.3f ms, %llu faults "
                    "replayed\n",
                    faults.spec(i).engine.transientFaultRate * 100.0,
                    ticksToSeconds(r.execTime) * 1e3,
                    static_cast<unsigned long long>(r.replays));
    }
    return 0;
}
