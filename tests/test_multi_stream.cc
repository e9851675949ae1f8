/**
 * @file
 * Tests for event-driven multi-stream execution (streams as tick-0
 * jobs on one Device, via the runner's runMulti cell): determinism
 * of co-run streams across repeat executions, cross-tenant contention
 * visibility, aggregate accounting, input validation, and the
 * Simulation facade's tenant API.
 */

#include <gtest/gtest.h>

#include "src/core/simulation.hh"
#include "src/runner/sweep_runner.hh"
#include "tests/solo_run.hh"

namespace conduit
{
namespace
{

using test::runSolo;

SsdConfig
testCfg()
{
    return SsdConfig::scaled(1.0 / 256.0);
}

/** Serial chain over disjoint page-sized vectors (see test_engine). */
std::shared_ptr<const Program>
chainProgram(const std::string &name, std::size_t n,
             OpCode op = OpCode::Add)
{
    auto prog = std::make_shared<Program>();
    prog->name = name;
    prog->pageBytes = 4096;
    for (std::size_t i = 0; i < n; ++i) {
        VecInstruction vi;
        vi.id = i;
        vi.op = op;
        vi.elemBits = 8;
        vi.lanes = 16384;
        vi.srcs = {Operand{12 * i, 4}, Operand{12 * i + 4, 4}};
        vi.dst = Operand{12 * i + 8, 4};
        if (i > 0)
            vi.deps = {i - 1};
        prog->instrs.push_back(vi);
    }
    prog->footprintPages = 12 * n + 4;
    return prog;
}

/** A stream slot running @p prog under @p technique. */
runner::StreamSlot
slot(std::shared_ptr<const Program> prog,
     const std::string &technique = "Conduit",
     const std::string &name = "")
{
    runner::StreamSlot s;
    s.workload = name;
    s.program = std::move(prog);
    s.technique = technique;
    return s;
}

/** Co-run @p streams as one multi-tenant cell on a fresh device. */
DeviceSnapshot
coRun(std::vector<runner::StreamSlot> streams,
      const SsdConfig &cfg = testCfg())
{
    runner::MultiRunSpec cell;
    cell.label = "co-run";
    cell.config = cfg;
    cell.streams = std::move(streams);
    runner::SweepRunner runner;
    return runner.runMulti(cell);
}

std::vector<runner::StreamSlot>
twoStreams()
{
    return {slot(chainProgram("a", 24, OpCode::Add), "Conduit",
                 "tenantA"),
            slot(chainProgram("b", 24, OpCode::Xor), "DM-Offloading",
                 "tenantB")};
}

void
expectSameResult(const RunResult &x, const RunResult &y)
{
    EXPECT_EQ(x.workload, y.workload);
    EXPECT_EQ(x.policy, y.policy);
    EXPECT_EQ(x.execTime, y.execTime);
    EXPECT_EQ(x.instrCount, y.instrCount);
    EXPECT_EQ(x.perResource, y.perResource);
    EXPECT_EQ(x.latencyUs.count(), y.latencyUs.count());
    EXPECT_DOUBLE_EQ(x.latencyUs.percentile(99),
                     y.latencyUs.percentile(99));
    EXPECT_DOUBLE_EQ(x.dmEnergyJ, y.dmEnergyJ);
    EXPECT_DOUBLE_EQ(x.computeEnergyJ, y.computeEnergyJ);
    EXPECT_EQ(x.coherenceCommits, y.coherenceCommits);
    EXPECT_EQ(x.latchEvictions, y.latchEvictions);
}

/** Result of job @p i of a drained co-run. */
const RunResult &
job(const DeviceSnapshot &m, std::size_t i)
{
    return m.jobs.at(i).result;
}

TEST(MultiStream, TwoStreamRunsDeterministicAcrossRepeats)
{
    auto r1 = coRun(twoStreams());
    auto r2 = coRun(twoStreams());
    ASSERT_EQ(r1.jobs.size(), 2u);
    ASSERT_EQ(r2.jobs.size(), 2u);
    for (std::size_t i = 0; i < 2; ++i)
        expectSameResult(job(r1, i), job(r2, i));
    EXPECT_EQ(r1.makespan, r2.makespan);
    EXPECT_EQ(r1.eventsFired, r2.eventsFired);
}

TEST(MultiStream, ColocationSlowsStreamsViaSharedCalendars)
{
    auto prog = chainProgram("hot", 32);
    ConduitPolicy pol;
    const RunResult alone = runSolo(testCfg(), *prog, pol);

    auto m = coRun({slot(prog, "Conduit", "first"),
                    slot(prog, "Conduit", "second")});

    // Contention can only delay a stream, never speed it up — and
    // with two identical tenants on one device at least one must
    // queue behind the other.
    EXPECT_GE(job(m, 0).execTime, alone.execTime);
    EXPECT_GE(job(m, 1).execTime, alone.execTime);
    EXPECT_GT(m.makespan, alone.execTime);
}

TEST(MultiStream, PoliciesSeeCrossTenantContention)
{
    // The queue/bandwidth CostFeatures are live calendar views, so a
    // co-run changes what a cost-based policy observes; at minimum
    // the per-stream latency tail shifts versus isolation.
    auto prog = chainProgram("tail", 48);
    ConduitPolicy pol;
    const RunResult alone = runSolo(testCfg(), *prog, pol);

    auto m = coRun({slot(prog), slot(prog)});
    const double isoP99 = alone.latencyUs.percentile(99);
    const double coloP99 =
        std::max(job(m, 0).latencyUs.percentile(99),
                 job(m, 1).latencyUs.percentile(99));
    EXPECT_GE(coloP99, isoP99);
}

TEST(MultiStream, AggregateSumsPerStreamCounters)
{
    auto m = coRun(twoStreams());
    const RunResult &agg = m.aggregate;
    const RunResult &a = job(m, 0);
    const RunResult &b = job(m, 1);
    EXPECT_EQ(agg.instrCount, a.instrCount + b.instrCount);
    EXPECT_EQ(agg.latencyUs.count(),
              a.latencyUs.count() + b.latencyUs.count());
    for (std::size_t i = 0; i < kNumTargets; ++i)
        EXPECT_EQ(agg.perResource[i],
                  a.perResource[i] + b.perResource[i]);
    EXPECT_DOUBLE_EQ(agg.energyJ(), a.energyJ() + b.energyJ());
    EXPECT_EQ(agg.execTime, m.makespan);
    EXPECT_EQ(agg.workload, "tenantA+tenantB");
    EXPECT_EQ(agg.policy, "Conduit+DM-Offloading");
}

TEST(MultiStream, StreamsOccupyDisjointPageRegions)
{
    // Two streams writing "their" page 0 must not alias: each
    // stream's results are those of its own program, so both
    // complete all instructions and report independent counters.
    auto m = coRun({slot(chainProgram("x", 8)),
                    slot(chainProgram("y", 16))});
    EXPECT_EQ(job(m, 0).instrCount, 8u);
    EXPECT_EQ(job(m, 1).instrCount, 16u);
    EXPECT_EQ(m.jobs[1].basePage, m.jobs[0].basePage + m.jobs[0].pages);
}

TEST(MultiStream, CombinedFootprintBeyondCapacityRejected)
{
    SsdConfig cfg = testCfg();
    auto prog = std::make_shared<Program>();
    *prog = *chainProgram("big", 2);
    prog->footprintPages = cfg.nand.totalPages() / 2 + 1;
    EXPECT_THROW(coRun({slot(prog), slot(prog)}, cfg),
                 std::invalid_argument);
}

TEST(MultiStream, MissingProgramOrPolicyRejected)
{
    EXPECT_THROW(coRun({}), std::invalid_argument);

    // A stream without a policy must not fall back to a default one:
    // neither an empty technique nor a factory returning nothing.
    EXPECT_THROW(coRun({slot(chainProgram("z", 2), "")}),
                 std::invalid_argument);
    runner::StreamSlot nullFactory = slot(chainProgram("n", 2));
    nullFactory.policy = [] { return std::unique_ptr<OffloadPolicy>(); };
    EXPECT_THROW(coRun({nullFactory}), std::invalid_argument);

    EXPECT_THROW(coRun({slot(nullptr)}), std::invalid_argument);

    // Host baselines are not streams.
    EXPECT_THROW(coRun({slot(chainProgram("h", 2), "CPU")}),
                 std::invalid_argument);

    // The facade's tenant entry point rejects the same inputs.
    Simulation sim;
    EXPECT_THROW(sim.runMulti({}), std::invalid_argument);
    EXPECT_THROW(sim.runMulti({{WorkloadId::Aes, ""}}),
                 std::invalid_argument);
}

TEST(MultiStream, FacadeTenantsRunDeterministically)
{
    SimOptions opts;
    opts.workload.scale = 1.0 / 64.0;
    const std::vector<Simulation::Tenant> tenants = {
        {WorkloadId::Aes, "Conduit"},
        {WorkloadId::Jacobi1d, "DM-Offloading"},
    };
    Simulation sim1(opts), sim2(opts);
    auto m1 = sim1.runMulti(tenants);
    auto m2 = sim2.runMulti(tenants);
    ASSERT_EQ(m1.jobs.size(), 2u);
    for (std::size_t i = 0; i < m1.jobs.size(); ++i)
        expectSameResult(job(m1, i), job(m2, i));
    EXPECT_EQ(m1.makespan, m2.makespan);
}

} // namespace
} // namespace conduit
