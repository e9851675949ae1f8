/**
 * @file
 * Tests for event-driven multi-stream execution (streams as tick-0
 * jobs on one Device, via the runner's runMulti cell): determinism
 * of co-run streams across repeat executions, per-job labels,
 * cross-tenant contention visibility, input validation, and named-
 * workload tenants.
 */

#include <gtest/gtest.h>

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
    // Each job carries its own slot's labels.
    EXPECT_EQ(job(r1, 0).workload, "tenantA");
    EXPECT_EQ(job(r1, 0).policy, "Conduit");
    EXPECT_EQ(job(r1, 1).workload, "tenantB");
    EXPECT_EQ(job(r1, 1).policy, "DM-Offloading");
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

    // A named-workload tenant without a policy is rejected too.
    runner::StreamSlot named;
    named.workloadId = WorkloadId::Aes;
    EXPECT_THROW(coRun({named}), std::invalid_argument);
}

/**
 * Eight paper-workload tenants (AES, XOR Filter, jacobi-1d, LlaMA2,
 * twice) co-run under Conduit on the default sweep device: the
 * widest multi-tenant cell in the tree, pinned to exact simulated
 * ticks. No bench CLI builds it, so a drift in the shared-calendar
 * contention model shows here first.
 */
TEST(MultiStream, EightPaperTenantsPinnedTicks)
{
    runner::MultiRunSpec cell;
    cell.label = "multi-tenant-8";
    const WorkloadId tenants[] = {WorkloadId::Aes, WorkloadId::XorFilter,
                                  WorkloadId::Jacobi1d,
                                  WorkloadId::LlamaInference};
    for (int copy = 0; copy < 2; ++copy) {
        for (WorkloadId id : tenants) {
            runner::StreamSlot s;
            s.workloadId = id;
            s.workload = workloadName(id);
            s.technique = "Conduit";
            cell.streams.push_back(std::move(s));
        }
    }
    runner::SweepRunner runner;
    const DeviceSnapshot snap = runner.runMulti(cell);

    const std::vector<std::pair<std::string, Tick>> want = {
        {"AES", 173827635224},
        {"XOR Filter", 174116403788},
        {"jacobi-1d", 174236724023},
        {"LlaMA2 Inference", 174436404413},
        {"AES", 174846517214},
        {"XOR Filter", 175100469710},
        {"jacobi-1d", 175189557884},
        {"LlaMA2 Inference", 175389238274},
    };
    EXPECT_EQ(snap.makespan, Tick{175389238274});
    ASSERT_EQ(snap.jobs.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(job(snap, i).workload, want[i].first) << "stream " << i;
        EXPECT_EQ(job(snap, i).execTime, want[i].second) << "stream " << i;
    }
}

TEST(MultiStream, WorkloadTenantsRunDeterministically)
{
    // Named-workload tenants on the default sweep device, each run
    // by its own runner (own compile cache).
    runner::MultiRunSpec cell;
    cell.label = "AES+jacobi-1d";
    cell.params.scale = 1.0 / 64.0;
    for (const auto &[id, technique] :
         {std::pair{WorkloadId::Aes, "Conduit"},
          std::pair{WorkloadId::Jacobi1d, "DM-Offloading"}}) {
        runner::StreamSlot s;
        s.workloadId = id;
        s.technique = technique;
        cell.streams.push_back(std::move(s));
    }
    runner::SweepRunner runner1, runner2;
    auto m1 = runner1.runMulti(cell);
    auto m2 = runner2.runMulti(cell);
    ASSERT_EQ(m1.jobs.size(), 2u);
    for (std::size_t i = 0; i < m1.jobs.size(); ++i)
        expectSameResult(job(m1, i), job(m2, i));
    EXPECT_EQ(m1.makespan, m2.makespan);
}

} // namespace
} // namespace conduit
