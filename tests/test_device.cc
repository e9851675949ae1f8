/**
 * @file
 * Tests for the persistent-device job API: the batch layout of
 * tick-0 jobs (and the runner's multi-tenant cell), arrival semantics
 * (staggered-arrival determinism across repeats and thread counts,
 * causality of late arrivals), region allocation/reclamation across
 * job lifetimes, wait() semantics, admission queueing under a bounded
 * page pool, and the deterministic arrival processes.
 */

#include <gtest/gtest.h>

#include "src/core/arrival.hh"
#include "src/core/device.hh"
#include "src/runner/sweep_runner.hh"
#include "tests/solo_run.hh"

namespace conduit
{
namespace
{

using test::jobOf;

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

DeviceOptions
testDeviceOptions()
{
    DeviceOptions d;
    d.config = testCfg();
    return d;
}

// ---------------------------------------------------- batch layout

TEST(Device, TickZeroJobsReproduceRunMultiByteIdentically)
{
    runner::MultiRunSpec cell;
    cell.label = "tenantA+tenantB";
    cell.config = testCfg();
    cell.streams.resize(2);
    cell.streams[0].workload = "tenantA";
    cell.streams[0].program = chainProgram("a", 24, OpCode::Add);
    cell.streams[0].technique = "Conduit";
    cell.streams[1].workload = "tenantB";
    cell.streams[1].program = chainProgram("b", 24, OpCode::Xor);
    cell.streams[1].technique = "DM-Offloading";

    Device dev(testDeviceOptions());
    for (const runner::StreamSlot &slot : cell.streams) {
        JobSpec job = jobOf(slot.program, 0, slot.technique);
        job.name = slot.workload;
        dev.submit(job);
    }
    const DeviceSnapshot snap = dev.drain();

    // The runner's multi-tenant cell is the same submissions on a
    // fresh device.
    runner::SweepRunner runner;
    const DeviceSnapshot multi = runner.runMulti(cell);

    ASSERT_EQ(snap.jobs.size(), 2u);
    ASSERT_EQ(multi.jobs.size(), 2u);
    for (std::size_t i = 0; i < 2; ++i) {
        expectSameResult(snap.jobs[i].result, multi.jobs[i].result);
        EXPECT_EQ(snap.jobs[i].end, multi.jobs[i].end);
        EXPECT_EQ(snap.jobs[i].basePage, multi.jobs[i].basePage);
        EXPECT_EQ(snap.jobs[i].pages, multi.jobs[i].pages);
        EXPECT_EQ(snap.jobs[i].arrival, 0u);
        EXPECT_EQ(snap.jobs[i].admitted, 0u);
        EXPECT_EQ(multi.jobs[i].arrival, 0u);
        EXPECT_EQ(multi.jobs[i].admitted, 0u);
    }
    EXPECT_EQ(snap.makespan, multi.makespan);
    EXPECT_EQ(snap.eventsFired, multi.eventsFired);
    // Regions laid out in submission order, like slot order.
    EXPECT_EQ(multi.jobs[0].basePage, 0u);
    EXPECT_EQ(multi.jobs[1].basePage, multi.jobs[0].pages);
}

// ------------------------------------------------ arrival semantics

TEST(Device, StaggeredArrivalsAreDeterministicAcrossRepeats)
{
    const auto runOnce = [] {
        Device dev(testDeviceOptions());
        auto prog = chainProgram("j", 16);
        for (int i = 0; i < 4; ++i)
            dev.submit(
                jobOf(prog, static_cast<Tick>(i) * usToTicks(200)));
        return dev.drain();
    };
    const DeviceSnapshot a = runOnce();
    const DeviceSnapshot b = runOnce();
    ASSERT_EQ(a.jobs.size(), b.jobs.size());
    for (std::size_t i = 0; i < a.jobs.size(); ++i) {
        expectSameResult(a.jobs[i].result, b.jobs[i].result);
        EXPECT_EQ(a.jobs[i].end, b.jobs[i].end);
    }
    EXPECT_EQ(a.makespan, b.makespan);
    EXPECT_EQ(a.eventsFired, b.eventsFired);
}

TEST(Device, LoadSweepIsThreadCountInvariant)
{
    std::vector<runner::LoadRunSpec> cells;
    for (double rate : {500.0, 2000.0}) {
        runner::LoadRunSpec cell;
        cell.workload = "AES";
        cell.technique = "Conduit";
        cell.config = testCfg();
        cell.params.scale = 0.25;
        cell.workloadId = WorkloadId::Aes;
        cell.jobs = 3;
        cell.jobsPerSec = rate;
        cells.push_back(cell);
    }
    runner::SweepRunner serial({1}), parallel({4});
    const auto r1 = serial.runLoadAll(cells);
    const auto rN = parallel.runLoadAll(cells);
    ASSERT_EQ(r1.size(), rN.size());
    for (std::size_t c = 0; c < r1.size(); ++c) {
        ASSERT_EQ(r1[c].jobs.size(), rN[c].jobs.size());
        for (std::size_t j = 0; j < r1[c].jobs.size(); ++j)
            expectSameResult(r1[c].jobs[j].result,
                             rN[c].jobs[j].result);
        EXPECT_EQ(r1[c].makespan, rN[c].makespan);
        EXPECT_EQ(r1[c].eventsFired, rN[c].eventsFired);
    }
}

TEST(Device, LateArrivalNeverStartsBeforeItsTick)
{
    Device dev(testDeviceOptions());
    auto prog = chainProgram("late", 8);
    dev.submit(jobOf(prog));
    const JobId lateId = dev.submit(jobOf(prog, msToTicks(5)));
    const JobResult &r = dev.wait(lateId);
    EXPECT_EQ(r.arrival, msToTicks(5));
    EXPECT_GE(r.admitted, r.arrival);
    EXPECT_GT(r.end, r.arrival);
}

TEST(Device, ColocatedArrivalsContendButBothComplete)
{
    // An overlapping arrival inflates the first job's tail vs its
    // isolated run (shared calendars), while both still finish.
    auto prog = chainProgram("hot", 32);
    Device iso(testDeviceOptions());
    const JobSpec job = jobOf(prog);
    const JobId a = iso.submit(job);
    const Tick aloneEnd = iso.wait(a).end;

    Device dev(testDeviceOptions());
    dev.submit(job);
    JobSpec second = job;
    second.arrival = 1; // joins one tick in: full contention
    dev.submit(second);
    const DeviceSnapshot snap = dev.drain();
    EXPECT_GE(snap.jobs[0].end, aloneEnd);
    EXPECT_EQ(snap.jobs.size(), 2u);
}

// ------------------------------------- regions, wait(), admission

TEST(Device, RegionReclamationLetsLaterJobsReusePages)
{
    auto prog = chainProgram("re", 8);
    DeviceOptions opts = testDeviceOptions();
    opts.capacityPages = prog->footprintPages; // exactly one job fits
    Device dev(opts);
    const JobSpec job = jobOf(prog);
    const JobId first = dev.submit(job);
    EXPECT_EQ(dev.wait(first).basePage, 0u);

    // The first job retired, so its region is free again — a job
    // submitted after the simulation advanced reuses page 0.
    const JobId second = dev.submit(job);
    const JobResult &r2 = dev.wait(second);
    EXPECT_EQ(r2.basePage, 0u);
    EXPECT_GT(r2.arrival, 0u); // clamped to the advanced clock
    EXPECT_GT(r2.end, dev.wait(first).end);
}

TEST(Device, BoundedPoolQueuesAdmissionUntilSpaceFrees)
{
    auto prog = chainProgram("q", 8);
    DeviceOptions opts = testDeviceOptions();
    opts.capacityPages = prog->footprintPages;
    opts.retire = RetirePolicy::OnComplete;
    Device dev(opts);
    dev.submit(jobOf(prog));
    dev.submit(jobOf(prog)); // cannot fit until the first retires
    const DeviceSnapshot snap = dev.drain();
    ASSERT_EQ(snap.jobs.size(), 2u);
    EXPECT_EQ(snap.jobs[0].basePage, 0u);
    EXPECT_EQ(snap.jobs[1].basePage, 0u); // reused the freed region
    EXPECT_GT(snap.jobs[1].admitted, snap.jobs[1].arrival);
    // The region frees only once the first job's result drain
    // finishes in simulated time — the successor cannot run on
    // pages whose previous contents are still streaming out.
    EXPECT_GE(snap.jobs[1].admitted, snap.jobs[0].end);
    EXPECT_GT(snap.jobs[1].end, snap.jobs[0].end);
}

TEST(Device, WaitOnCompletedJobReturnsImmediatelyAndStably)
{
    Device dev(testDeviceOptions());
    const JobId id = dev.submit(jobOf(chainProgram("w", 8)));
    const JobResult r1 = dev.wait(id);
    const Tick before = dev.now();
    const JobResult r2 = dev.wait(id); // already retired: no advance
    EXPECT_EQ(dev.now(), before);
    expectSameResult(r1.result, r2.result);
    EXPECT_EQ(r1.end, r2.end);

    dev.drain(); // drain after wait is fine too
    const JobResult r3 = dev.wait(id);
    EXPECT_EQ(r3.end, r1.end);
}

TEST(Device, WaitOnUnknownJobThrows)
{
    Device dev(testDeviceOptions());
    EXPECT_THROW(dev.wait(0), std::out_of_range);
    EXPECT_THROW(dev.wait(7), std::out_of_range);
}

TEST(Device, JobThatCanNeverFitThrows)
{
    auto prog = chainProgram("big", 8);
    DeviceOptions opts = testDeviceOptions();
    opts.capacityPages = prog->footprintPages / 2;
    Device dev(opts);
    const JobId id = dev.submit(jobOf(prog));
    EXPECT_THROW(dev.wait(id), std::runtime_error);
}

TEST(Device, SubmitWithoutProgramOrPolicyThrows)
{
    // A job needs both halves of its contract: there is no default
    // policy to fall back on, and nothing compiles on the device.
    Device dev(testDeviceOptions());
    EXPECT_THROW(dev.submit(JobSpec{}), std::invalid_argument);

    JobSpec noProgram;
    noProgram.policyObj = makePolicy("Conduit");
    EXPECT_THROW(dev.submit(noProgram), std::invalid_argument);

    JobSpec noPolicy;
    noPolicy.program = chainProgram("np", 4);
    EXPECT_THROW(dev.submit(noPolicy), std::invalid_argument);

    // Rejected jobs leave no trace: a well-formed job is job 1.
    EXPECT_EQ(dev.jobCount(), 0u);
    EXPECT_EQ(dev.submit(jobOf(chainProgram("ok", 4))), 1u);
}

// -------------------------------------------------- RegionAllocator

TEST(RegionAllocator, FirstFitAndCoalescing)
{
    RegionAllocator alloc(100);
    const auto a = alloc.allocate(40);
    const auto b = alloc.allocate(40);
    ASSERT_TRUE(a && b);
    EXPECT_EQ(*a, 0u);
    EXPECT_EQ(*b, 40u);
    EXPECT_FALSE(alloc.allocate(40)); // only 20 left
    alloc.release(*a, 40);
    const auto c = alloc.allocate(30);
    ASSERT_TRUE(c);
    EXPECT_EQ(*c, 0u); // first fit reuses the freed head
    alloc.release(*b, 40);
    alloc.release(*c, 30);
    // Everything free again and coalesced: a full-size region fits.
    const auto d = alloc.allocate(100);
    ASSERT_TRUE(d);
    EXPECT_EQ(*d, 0u);
    EXPECT_EQ(alloc.inUse(), 100u);
}

TEST(RegionAllocator, DoubleFreeThrows)
{
    RegionAllocator alloc(10);
    const auto a = alloc.allocate(4);
    ASSERT_TRUE(a);
    alloc.release(*a, 4);
    EXPECT_THROW(alloc.release(*a, 4), std::logic_error);
}

// ------------------------------------------------ arrival processes

TEST(Arrivals, PoissonIsDeterministicPerSeed)
{
    PoissonArrivals a(1e6, 42), b(1e6, 42), c(1e6, 43);
    const auto sa = a.schedule(64);
    const auto sb = b.schedule(64);
    EXPECT_EQ(sa, sb);
    EXPECT_NE(sa, c.schedule(64));
    for (std::size_t i = 1; i < sa.size(); ++i)
        EXPECT_GE(sa[i], sa[i - 1]); // cumulative times are monotone
}

TEST(Arrivals, PoissonMeanApproximatesRate)
{
    PoissonArrivals p = PoissonArrivals::fromRate(1000.0, 7);
    const auto times = p.schedule(4000);
    const double meanGap = ticksToSeconds(times.back()) / 4000.0;
    EXPECT_NEAR(meanGap, 1.0 / 1000.0, 0.1 / 1000.0);
}

TEST(Arrivals, FixedUniformAndTraceBehave)
{
    FixedArrivals f(100);
    EXPECT_EQ(f.next(), 100u);
    EXPECT_EQ(f.schedule(3), (std::vector<Tick>{100, 200, 300}));

    UniformArrivals u(50, 150, 9);
    for (int i = 0; i < 100; ++i) {
        const Tick g = u.next();
        EXPECT_GE(g, 50u);
        EXPECT_LE(g, 150u);
    }

    TraceArrivals t({10, 20});
    EXPECT_EQ(t.next(), 10u);
    EXPECT_EQ(t.next(), 20u);
    EXPECT_EQ(t.next(), 10u); // cycles
    EXPECT_THROW(TraceArrivals({}), std::invalid_argument);
}

TEST(Arrivals, KindNamesRoundTrip)
{
    for (ArrivalKind k : {ArrivalKind::Fixed, ArrivalKind::Uniform,
                          ArrivalKind::Poisson}) {
        ArrivalKind parsed;
        ASSERT_TRUE(parseArrivalKind(arrivalKindName(k), parsed));
        EXPECT_EQ(parsed, k);
    }
    ArrivalKind out;
    EXPECT_FALSE(parseArrivalKind("bursty", out));
}

} // namespace
} // namespace conduit
