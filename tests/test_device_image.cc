/**
 * @file
 * Fork-equivalence tests for the DeviceImage snapshot subsystem.
 *
 * The contract under test: Device::snapshot() at quiescence captures
 * every piece of mutable simulated state, and a device forked from
 * the image (Device::fromImage) behaves byte-identically to the
 * device that lived through the history — same job results, same
 * event counts, same RNG stream positions — under any subsequent
 * traffic. Snapshots are exercised mid-life (after GC has run, and
 * after aged-device block retirement), forks are shown to be
 * mutually independent, and the sweep-runner fork mode is shown to
 * emit byte-identical rows to cold sweeps at any thread count.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "src/core/arrival.hh"
#include "src/core/device.hh"
#include "src/core/simulation.hh"
#include "src/runner/sweep_result.hh"
#include "src/runner/sweep_runner.hh"

namespace conduit
{
namespace
{

using runner::AgingRunSpec;
using runner::LoadRunSpec;
using runner::SweepOptions;
using runner::SweepRunner;

/**
 * A small device with GC pressure: a handful of small blocks and an
 * early GC trigger, so a handful of jobs already churns the FTL
 * through whole garbage-collection cycles.
 */
SsdConfig
gcCfg()
{
    SsdConfig cfg = SsdConfig::scaled(1.0 / 256.0);
    cfg.nand.channels = 2;
    cfg.nand.diesPerChannel = 2;
    cfg.nand.planesPerDie = 1;
    cfg.nand.blocksPerPlane = 8;
    cfg.nand.pagesPerBlock = 32;
    cfg.gcThreshold = 0.30;
    return cfg;
}

/**
 * gcCfg() fast-forwarded past rated life, with extra spare blocks:
 * the base RBER sits just under the retry ladder's reach, so only
 * the high-jitter tail of blocks soft-decodes, accumulates
 * retirement votes, and retires at its next GC erase — real
 * retirement churn without collapsing the free pool.
 */
SsdConfig
agedCfg()
{
    SsdConfig cfg = gcCfg();
    // Extra spare blocks absorb the retirements, and a higher GC
    // trigger keeps the collector erasing despite the bigger pool
    // (retirement only happens at erase time).
    cfg.nand.blocksPerPlane = 12;
    cfg.gcThreshold = 0.45;
    cfg.reliability.enabled = true;
    cfg.reliability.preWearCycles = 3250;
    cfg.reliability.retentionDays = 90.0;
    // Two soft-decoded reads are enough to condemn a block: the
    // handful of high-jitter blocks retire within the short test
    // run instead of needing a long vote history.
    cfg.reliability.retireSoftThreshold = 2;
    return cfg;
}

/** Serial chain over disjoint page-sized vectors (see test_engine). */
std::shared_ptr<const Program>
chainProgram(const std::string &name, std::size_t n)
{
    auto prog = std::make_shared<Program>();
    prog->name = name;
    prog->pageBytes = 4096;
    for (std::size_t i = 0; i < n; ++i) {
        VecInstruction vi;
        vi.id = i;
        vi.op = OpCode::Add;
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

DeviceOptions
imageTestOptions(const SsdConfig &cfg)
{
    DeviceOptions d;
    d.config = cfg;
    // Open-loop shape: eager retirement recycles a bounded page pool
    // between jobs — the write churn that makes GC (and on an aged
    // device, block retirement) actually happen mid-history.
    d.retire = RetirePolicy::OnComplete;
    d.capacityPages = 600;
    // Bound the DRAM staging pool too, so eviction victim selection
    // draws from the engine RNG and the stream position is
    // mid-sequence when snapshots capture it.
    d.engine.dramStagingFraction = 0.3;
    return d;
}

/**
 * Offer @p jobs jobs of @p prog with deterministic pseudo-Poisson
 * gaps, continuing @p at (the caller threads one arrival clock
 * through warm and measured phases, exactly like the sweep runner).
 */
void
offerJobs(Device &dev, const std::shared_ptr<const Program> &prog,
          std::size_t jobs, ArrivalProcess &gaps, Tick &at)
{
    for (std::size_t i = 0; i < jobs; ++i) {
        at += gaps.next();
        JobSpec job;
        job.name = prog->name;
        job.program = prog;
        job.policyObj =
            std::shared_ptr<OffloadPolicy>(makePolicy("Conduit"));
        job.arrival = at;
        dev.submit(job);
    }
}

/** Mean arrival gap that keeps the device busy but not saturated. */
constexpr double kGapPs = 4.0e8;

void
expectSameJob(const JobResult &x, const JobResult &y)
{
    EXPECT_EQ(x.id, y.id);
    EXPECT_EQ(x.arrival, y.arrival);
    EXPECT_EQ(x.admitted, y.admitted);
    EXPECT_EQ(x.end, y.end);
    EXPECT_EQ(x.basePage, y.basePage);
    EXPECT_EQ(x.pages, y.pages);
    EXPECT_EQ(x.result.execTime, y.result.execTime);
    EXPECT_EQ(x.result.instrCount, y.result.instrCount);
    EXPECT_EQ(x.result.perResource, y.result.perResource);
    EXPECT_EQ(x.result.latencyUs.count(), y.result.latencyUs.count());
    EXPECT_EQ(x.result.latencyUs.max(), y.result.latencyUs.max());
    EXPECT_EQ(x.result.coherenceCommits, y.result.coherenceCommits);
    EXPECT_EQ(x.result.latchEvictions, y.result.latchEvictions);
    EXPECT_DOUBLE_EQ(x.result.dmEnergyJ, y.result.dmEnergyJ);
    EXPECT_DOUBLE_EQ(x.result.computeEnergyJ,
                     y.result.computeEnergyJ);
}

void
expectSameSnapshot(const DeviceSnapshot &x, const DeviceSnapshot &y)
{
    EXPECT_EQ(x.makespan, y.makespan);
    ASSERT_EQ(x.jobs.size(), y.jobs.size());
    for (std::size_t i = 0; i < x.jobs.size(); ++i)
        expectSameJob(x.jobs[i], y.jobs[i]);
    EXPECT_EQ(x.aggregate.execTime, y.aggregate.execTime);
    EXPECT_EQ(x.aggregate.latencyUs.count(),
              y.aggregate.latencyUs.count());
    EXPECT_EQ(x.reliability.eccRetries, y.reliability.eccRetries);
    EXPECT_EQ(x.reliability.softDecodes, y.reliability.softDecodes);
    EXPECT_EQ(x.reliability.retiredBlocks,
              y.reliability.retiredBlocks);
    EXPECT_EQ(x.reliability.scrubRefreshes,
              y.reliability.scrubRefreshes);
}

/**
 * The core experiment: warm a device with @p warm jobs, snapshot,
 * then offer @p measured more jobs to (a) the continued original and
 * (b) a fork of the image — with identical arrival clocks — and
 * require byte-identical outcomes, including the post-run RNG
 * stream positions and event totals of a second snapshot of each.
 */
void
forkEqualsContinued(const SsdConfig &cfg, std::size_t warm,
                    std::size_t measured)
{
    auto prog = chainProgram("img", 24);

    Device dev(imageTestOptions(cfg));
    auto gaps = makeArrivals(ArrivalKind::Poisson, kGapPs, 1);
    Tick at = 0;
    offerJobs(dev, prog, warm, *gaps, at);
    const DeviceImage img = dev.snapshot();
    EXPECT_EQ(img.jobs.size(), warm);

    // Continue the original.
    at = dev.now();
    offerJobs(dev, prog, measured, *gaps, at);
    const DeviceSnapshot contSnap = dev.drain();
    const DeviceImage contImg = dev.snapshot();

    // Fork, replaying the same arrival clock (burn the warm gaps).
    Device fork = Device::fromImage(img);
    auto gaps2 = makeArrivals(ArrivalKind::Poisson, kGapPs, 1);
    for (std::size_t i = 0; i < warm; ++i)
        gaps2->next();
    Tick at2 = fork.now();
    EXPECT_EQ(at2, img.engine.queueNow);
    offerJobs(fork, prog, measured, *gaps2, at2);
    const DeviceSnapshot forkSnap = fork.drain();
    const DeviceImage forkImg = fork.snapshot();

    expectSameSnapshot(contSnap, forkSnap);
    EXPECT_EQ(contSnap.eventsFired, forkSnap.eventsFired);
    EXPECT_EQ(contImg.engine.queueNow, forkImg.engine.queueNow);
    EXPECT_EQ(contImg.engine.queueFired, forkImg.engine.queueFired);
    EXPECT_TRUE(contImg.engine.rng == forkImg.engine.rng);
    EXPECT_EQ(contImg.engine.ftl.nextSlot, forkImg.engine.ftl.nextSlot);
    EXPECT_EQ(contImg.engine.ftl.freeBlockCount,
              forkImg.engine.ftl.freeBlockCount);
    EXPECT_EQ(contImg.engine.ftl.gcRuns, forkImg.engine.ftl.gcRuns);
    EXPECT_EQ(contImg.engine.ftl.retiredBlocks,
              forkImg.engine.ftl.retiredBlocks);
}

// ------------------------------------------------ fork equivalence

TEST(DeviceImage, ForkEqualsContinuedAfterGc)
{
    forkEqualsContinued(gcCfg(), 8, 4);
}

TEST(DeviceImage, ForkEqualsContinuedAfterBlockRetirement)
{
    forkEqualsContinued(agedCfg(), 8, 4);
}

TEST(DeviceImage, SnapshotCapturesMidLifeFtlState)
{
    auto prog = chainProgram("gc", 24);
    Device dev(imageTestOptions(gcCfg()));
    auto gaps = makeArrivals(ArrivalKind::Poisson, kGapPs, 1);
    Tick at = 0;
    offerJobs(dev, prog, 8, *gaps, at);
    const DeviceImage img = dev.snapshot();

    // The snapshot must land mid-life, after real FTL churn: GC has
    // run and the mapping table is populated — the state whose loss
    // a warm-from-scratch rebuild could never hide.
    EXPECT_GT(img.engine.ftl.gcRuns, 0u);
    EXPECT_GT(img.engine.ftl.mapHits + img.engine.ftl.mapMisses, 0u);
    EXPECT_LT(img.engine.ftl.freeBlockCount,
              img.engine.ftl.blocks.size());
    EXPECT_EQ(img.capacityPages, 600u);
}

TEST(DeviceImage, SnapshotCapturesBlockRetirement)
{
    auto prog = chainProgram("aged", 24);
    Device dev(imageTestOptions(agedCfg()));
    auto gaps = makeArrivals(ArrivalKind::Poisson, kGapPs, 1);
    Tick at = 0;
    offerJobs(dev, prog, 8, *gaps, at);
    const DeviceImage img = dev.snapshot();

    // End-of-life wear: the retry ladder fired and blocks retired
    // before the snapshot, so the image carries a shrunken
    // over-provisioning pool and per-block wear state.
    EXPECT_GT(img.engine.rel.stats.eccRetries, 0u);
    EXPECT_GT(img.engine.ftl.retiredBlocks, 0u);
}

TEST(DeviceImage, RngStreamRestoredExactly)
{
    auto prog = chainProgram("rng", 16);
    Device dev(imageTestOptions(gcCfg()));
    auto gaps = makeArrivals(ArrivalKind::Poisson, kGapPs, 1);
    Tick at = 0;
    offerJobs(dev, prog, 4, *gaps, at);
    const DeviceImage img = dev.snapshot();

    // An immediate re-snapshot of a fork reproduces the exact RNG
    // stream position (not just a fresh seed).
    Device fork = Device::fromImage(img);
    const DeviceImage again = fork.snapshot();
    EXPECT_TRUE(img.engine.rng == again.engine.rng);

    // And the position is mid-stream: a fresh device's RNG differs.
    Device fresh(imageTestOptions(gcCfg()));
    fresh.submit([&] {
        JobSpec job;
        job.program = prog;
        job.policyObj =
            std::shared_ptr<OffloadPolicy>(makePolicy("Conduit"));
        return job;
    }());
    const DeviceImage freshImg = fresh.snapshot();
    EXPECT_TRUE(img.engine.rng != freshImg.engine.rng);
}

TEST(DeviceImage, ForksAreMutuallyIndependent)
{
    auto prog = chainProgram("indep", 24);
    Device dev(imageTestOptions(gcCfg()));
    auto gaps = makeArrivals(ArrivalKind::Poisson, kGapPs, 1);
    Tick at = 0;
    offerJobs(dev, prog, 6, *gaps, at);
    const DeviceImage img = dev.snapshot();

    const auto runFork = [&](std::uint64_t seed, std::size_t jobs) {
        Device f = Device::fromImage(img);
        auto g = makeArrivals(ArrivalKind::Poisson, kGapPs, seed);
        Tick a = f.now();
        offerJobs(f, prog, jobs, *g, a);
        return f.drain();
    };

    // Three forks, interleaved with a fork running different
    // traffic: equal traffic keeps producing equal outcomes, so no
    // fork mutates the shared image.
    const DeviceSnapshot first = runFork(7, 3);
    const DeviceSnapshot other = runFork(99, 5);
    const DeviceSnapshot second = runFork(7, 3);
    const DeviceSnapshot third = runFork(7, 3);
    expectSameSnapshot(first, second);
    expectSameSnapshot(first, third);
    EXPECT_NE(other.jobs.size(), first.jobs.size());
}

// -------------------------------------------- sweep-runner fork mode

/** A tiny aging ladder crossed with two policies. */
std::vector<AgingRunSpec>
agingMatrix(bool steadyState)
{
    std::vector<AgingRunSpec> cells;
    for (const char *policy : {"Conduit", "DM-Offloading"}) {
        for (std::uint32_t age : {0u, 1500u, 3000u}) {
            AgingRunSpec cell;
            cell.load.workload = "AES";
            cell.load.technique = policy;
            cell.load.workloadId = WorkloadId::Aes;
            cell.load.params.scale = 1.0 / 64.0;
            cell.load.jobs = 2;
            cell.load.jobsPerSec = 2000.0;
            cell.load.warmupJobs = 3;
            cell.load.steadyState = steadyState;
            cell.preWearCycles = age;
            cell.retentionDays = age * 0.03;
            cells.push_back(cell);
        }
    }
    return cells;
}

std::string
agingCsv(SweepRunner &runner, const std::vector<AgingRunSpec> &cells)
{
    const std::vector<DeviceSnapshot> snaps = runner.runAgingAll(cells);
    std::vector<runner::AgingRow> rows;
    for (std::size_t i = 0; i < cells.size(); ++i)
        rows.push_back(runner::makeAgingRow(cells[i], snaps[i]));
    std::ostringstream os;
    runner::toTable(rows).writeCsv(os);
    return os.str();
}

/** A fresh-device rate ladder crossed with two policies. */
std::vector<LoadRunSpec>
rateLadder(bool steadyState)
{
    std::vector<LoadRunSpec> cells;
    for (const char *policy : {"Conduit", "DM-Offloading"}) {
        for (double rate : {500.0, 2000.0, 8000.0}) {
            LoadRunSpec cell;
            cell.workload = "AES";
            cell.technique = policy;
            cell.workloadId = WorkloadId::Aes;
            cell.params.scale = 1.0 / 64.0;
            cell.jobs = 2;
            cell.jobsPerSec = rate;
            cell.warmupJobs = 3;
            cell.steadyState = steadyState;
            cells.push_back(cell);
        }
    }
    return cells;
}

std::string
loadCsv(SweepRunner &runner, const std::vector<LoadRunSpec> &cells)
{
    const std::vector<DeviceSnapshot> snaps = runner.runLoadAll(cells);
    std::vector<runner::LoadRow> rows;
    for (std::size_t i = 0; i < cells.size(); ++i)
        rows.push_back(runner::makeLoadRow(cells[i], snaps[i]));
    std::ostringstream os;
    runner::toTable(rows).writeCsv(os);
    return os.str();
}

TEST(DeviceImage, ForkModeSweepMatchesColdSweepByteForByte)
{
    // The in-place warm replay is the reference the forked sweeps
    // (the only mode the benches run) are held to.
    SweepRunner runner;
    const std::string cold = agingCsv(runner, agingMatrix(false));
    const std::string fork = agingCsv(runner, agingMatrix(true));
    EXPECT_EQ(cold, fork);

    // Fork mode built one warm image per age rung, shared across the
    // two policies; cold mode built none.
    EXPECT_EQ(runner.lastPerf().warmupImages, 3u);

    // Same contract on a fresh-device offered-load rate ladder: one
    // image per rate rung, shared across the two policies.
    const std::string coldLoad = loadCsv(runner, rateLadder(false));
    EXPECT_EQ(runner.lastPerf().warmupImages, 0u);
    const std::string forkLoad = loadCsv(runner, rateLadder(true));
    EXPECT_EQ(runner.lastPerf().warmupImages, 3u);
    EXPECT_EQ(coldLoad, forkLoad);
}

TEST(DeviceImage, ForkModeSweepIsThreadCountInvariant)
{
    SweepRunner serial(SweepOptions{1});
    SweepRunner pooled(SweepOptions{4});
    const std::string one = agingCsv(serial, agingMatrix(true));
    const std::string four = agingCsv(pooled, agingMatrix(true));
    EXPECT_EQ(one, four);
}

// ------------------------------------------------ snapshot guards

TEST(DeviceImage, SnapshotRejectsGeometryMismatch)
{
    auto prog = chainProgram("geom", 8);
    Device dev(imageTestOptions(gcCfg()));
    JobSpec job;
    job.program = prog;
    job.policyObj =
        std::shared_ptr<OffloadPolicy>(makePolicy("Conduit"));
    dev.submit(job);
    DeviceImage img = dev.snapshot();

    // A fork must be built against the image's own geometry: images
    // restore into a same-config engine, never reinterpret state.
    img.options.config.nand.blocksPerPlane /= 2;
    EXPECT_THROW(Device::fromImage(img), std::invalid_argument);
}

} // namespace
} // namespace conduit
