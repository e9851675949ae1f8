/**
 * @file
 * End-to-end tests of the simulated system: the headline orderings
 * the paper reports must hold. Every ordering reads one shared
 * RunMatrix sweep — each workload under each technique, one cold-SSD
 * cell apiece — at a reduced dataset scale.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "src/runner/sweep_runner.hh"

namespace conduit
{
namespace
{

using runner::RunMatrix;
using runner::SweepResult;
using runner::SweepRunner;

WorkloadParams
fastParams()
{
    WorkloadParams p;
    p.scale = 0.25;
    return p;
}

/** The SSD techniques of Fig. 7, in the order the tests sweep them. */
const std::vector<std::string> &
ssdTechniques()
{
    static const std::vector<std::string> names = {
        "Conduit",      "DM-Offloading", "BW-Offloading", "Ideal",
        "ISP",          "PuD-SSD",       "Flash-Cosmos",  "Ares-Flash"};
    return names;
}

/**
 * Every workload under the host baselines and every SSD technique,
 * swept once per test process and shared by the tests below.
 */
const SweepResult &
paperSweep()
{
    static const SweepResult sweep = [] {
        RunMatrix m;
        m.params(fastParams())
            .workloads(allWorkloads())
            .techniques({"CPU", "GPU"})
            .techniques(ssdTechniques());
        return SweepRunner().run(m.build());
    }();
    return sweep;
}

const RunResult &
cell(WorkloadId id, const std::string &technique)
{
    return paperSweep().at(workloadName(id), technique);
}

double
execTime(WorkloadId id, const std::string &technique)
{
    return static_cast<double>(cell(id, technique).execTime);
}

TEST(Simulation, CompileCachesPrograms)
{
    runner::ProgramCache cache;
    const auto cfg = runner::defaultSweepConfig();
    const auto a = cache.get(WorkloadId::Aes, fastParams(), cfg);
    const auto b = cache.get(WorkloadId::Aes, fastParams(), cfg);
    EXPECT_EQ(a.get(), b.get());
    EXPECT_EQ(cache.size(), 1u);
}

TEST(Simulation, EveryPolicyRunsEveryWorkload)
{
    for (WorkloadId id : allWorkloads()) {
        for (const std::string &pol : ssdTechniques()) {
            const RunResult &r = cell(id, pol);
            EXPECT_GT(r.execTime, 0u) << pol;
            EXPECT_GT(r.energyJ(), 0.0) << pol;
            EXPECT_EQ(r.policy, pol);
        }
        EXPECT_GT(cell(id, "CPU").execTime, 0u);
        EXPECT_GT(cell(id, "GPU").execTime, 0u);
    }
}

TEST(Simulation, IdealUpperBoundsAllRealizablePolicies)
{
    for (WorkloadId id : allWorkloads()) {
        const Tick ideal = cell(id, "Ideal").execTime;
        for (const char *pol :
             {"Conduit", "DM-Offloading", "BW-Offloading", "ISP"}) {
            EXPECT_LE(ideal, cell(id, pol).execTime)
                << workloadName(id) << " " << pol;
        }
    }
}

TEST(Simulation, ConduitBeatsPriorOffloadingOnAverage)
{
    double log_dm = 0.0, log_bw = 0.0, log_isp = 0.0;
    int n = 0;
    for (WorkloadId id : allWorkloads()) {
        const double conduit = execTime(id, "Conduit");
        log_dm += std::log(execTime(id, "DM-Offloading") / conduit);
        log_bw += std::log(execTime(id, "BW-Offloading") / conduit);
        log_isp += std::log(execTime(id, "ISP") / conduit);
        ++n;
    }
    // Geometric-mean slowdowns of the baselines vs Conduit (Fig. 7a:
    // paper reports 1.8x vs DM, 2.0x vs BW, 3.3x vs ISP).
    EXPECT_GT(std::exp(log_dm / n), 1.2);
    EXPECT_GT(std::exp(log_bw / n), 1.2);
    EXPECT_GT(std::exp(log_isp / n), 1.5);
}

TEST(Simulation, ConduitBeatsHostCpuOnAverage)
{
    double acc = 0.0;
    int n = 0;
    for (WorkloadId id : allWorkloads()) {
        acc += std::log(execTime(id, "CPU") / execTime(id, "Conduit"));
        ++n;
    }
    // Fig. 7a: 4.2x average speedup over CPU; require a clear win.
    EXPECT_GT(std::exp(acc / n), 2.0);
}

TEST(Simulation, ConduitReducesEnergyVsHost)
{
    double acc = 0.0;
    int n = 0;
    for (WorkloadId id : allWorkloads()) {
        acc += std::log(cell(id, "CPU").energyJ() /
                        cell(id, "Conduit").energyJ());
        ++n;
    }
    // Fig. 7b: 78.2% average energy reduction vs CPU.
    EXPECT_GT(std::exp(acc / n), 2.0);
}

TEST(Simulation, DmOffloadingOverusesIfpOnComputeWork)
{
    // §6.4: DM-Offloading pins arithmetic to flash; Conduit spreads.
    const RunResult &dm =
        cell(WorkloadId::LlmTraining, "DM-Offloading");
    const RunResult &conduit = cell(WorkloadId::LlmTraining, "Conduit");
    const auto ifp = static_cast<int>(Target::Ifp);
    EXPECT_GT(dm.perResource[ifp] * 2,
              dm.instrCount); // DM sends the majority to IFP
    EXPECT_LT(conduit.perResource[ifp], dm.perResource[ifp]);
    EXPECT_LT(conduit.execTime, dm.execTime);
}

TEST(Simulation, LlamaAvoidsIfpMultiplication)
{
    // Fig. 9: Conduit and Ideal avoid IFP for LlaMA2's multiplies.
    const auto ifp = static_cast<int>(Target::Ifp);
    for (const char *pol : {"Conduit", "Ideal"}) {
        const RunResult &r = cell(WorkloadId::LlamaInference, pol);
        EXPECT_LT(static_cast<double>(r.perResource[ifp]),
                  0.10 * static_cast<double>(r.instrCount))
            << pol;
    }
}

TEST(Simulation, MemoryBoundWorkloadsBarelyUseIsp)
{
    // Fig. 9: AES/XOR Filter offload well under a few percent of
    // vector instructions to the controller core.
    const RunResult &aes = cell(WorkloadId::Aes, "Conduit");
    const auto isp = static_cast<int>(Target::Isp);
    EXPECT_LT(static_cast<double>(aes.perResource[isp]),
              0.10 * static_cast<double>(aes.instrCount));
}

TEST(Simulation, ConduitTailLatencyBeatsBwOffloading)
{
    // Fig. 8 shape: contention-aware offloading shortens the tail.
    const RunResult &conduit =
        cell(WorkloadId::LlamaInference, "Conduit");
    const RunResult &bw =
        cell(WorkloadId::LlamaInference, "BW-Offloading");
    EXPECT_LT(conduit.latencyUs.percentile(99),
              bw.latencyUs.percentile(99));
    EXPECT_LT(conduit.latencyUs.percentile(99.99),
              bw.latencyUs.percentile(99.99));
}

TEST(Simulation, RunsAreReproducible)
{
    // A second runner, its own compile cache, one cell: the same
    // numbers as the shared sweep's cell.
    RunMatrix m;
    m.params(fastParams())
        .workload(WorkloadId::Heat3d)
        .technique("Conduit");
    const RunResult again = SweepRunner().runOne(m.build().front());
    const RunResult &first = cell(WorkloadId::Heat3d, "Conduit");
    EXPECT_EQ(again.execTime, first.execTime);
    EXPECT_EQ(again.perResource, first.perResource);
}

TEST(Simulation, CustomPolicyObjectsWork)
{
    // Public-API extensibility: user-defined policy (always-PuD with
    // ISP fallback) plugs into the same run path.
    class MyPolicy : public OffloadPolicy
    {
      public:
        Target
        select(const VecInstruction &vi, const CostFeatures &f) override
        {
            if (!vi.vectorized ||
                !f.supported[static_cast<int>(Target::Pud)])
                return Target::Isp;
            return Target::Pud;
        }
        std::string name() const override { return "my-policy"; }
    };
    RunMatrix m;
    m.params(fastParams())
        .workload(WorkloadId::Jacobi1d)
        .technique("my-policy",
                   [] { return std::make_unique<MyPolicy>(); });
    const RunResult r = SweepRunner().runOne(m.build().front());
    EXPECT_EQ(r.policy, "my-policy");
    EXPECT_GT(r.execTime, 0u);
    // The runner labels the row; the placements show the policy
    // object itself decided: it never picks flash.
    EXPECT_EQ(r.perResource[static_cast<int>(Target::Ifp)], 0u);
    EXPECT_GT(r.perResource[static_cast<int>(Target::Pud)], 0u);
}

} // namespace
} // namespace conduit
