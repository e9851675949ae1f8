/**
 * @file
 * Fleet-simulation tests for src/cluster.
 *
 * The contracts under test: a single-device Cluster is byte-identical
 * to the bare Device it wraps (for probe-free and probe-observing
 * policies alike); fleet sweeps emit byte-identical rows at any
 * worker-thread count and across repeats; backlog-observing policies
 * actually route differently from blind ones under a skewed tenant
 * mix; an aged fleet builds one shared warm image per distinct age
 * rung; and the DeviceProbe host-visible state is coherent.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "src/cluster/cluster.hh"
#include "src/cluster/placement.hh"
#include "src/core/device.hh"
#include "src/runner/sweep_result.hh"
#include "src/runner/sweep_runner.hh"

namespace conduit
{
namespace
{

using cluster::Cluster;
using cluster::ClusterOptions;
using cluster::ClusterSnapshot;
using cluster::makePlacement;
using runner::ClusterRunSpec;
using runner::ClusterTenant;
using runner::SweepOptions;
using runner::SweepRunner;

/** Small device with GC pressure (mirrors test_device_image). */
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
fleetDeviceOptions()
{
    DeviceOptions d;
    d.config = gcCfg();
    d.retire = RetirePolicy::OnComplete;
    d.capacityPages = 600;
    d.engine.dramStagingFraction = 0.3;
    return d;
}

/** The open-loop stream both sides of an equivalence test submit. */
std::vector<JobSpec>
testStream(const std::shared_ptr<const Program> &prog,
           std::size_t jobs)
{
    std::vector<JobSpec> stream;
    Tick at = 0;
    for (std::size_t i = 0; i < jobs; ++i) {
        JobSpec spec;
        spec.name = "job" + std::to_string(i);
        spec.program = prog;
        spec.arrival = at;
        stream.push_back(spec);
        at += usToTicks(40.0 * static_cast<double>(i % 3));
    }
    return stream;
}

void
expectSameResults(const DeviceSnapshot &bare,
                  const DeviceSnapshot &fleet)
{
    ASSERT_EQ(bare.jobs.size(), fleet.jobs.size());
    for (std::size_t i = 0; i < bare.jobs.size(); ++i) {
        EXPECT_EQ(bare.jobs[i].arrival, fleet.jobs[i].arrival) << i;
        EXPECT_EQ(bare.jobs[i].admitted, fleet.jobs[i].admitted) << i;
        EXPECT_EQ(bare.jobs[i].end, fleet.jobs[i].end) << i;
        EXPECT_EQ(bare.jobs[i].basePage, fleet.jobs[i].basePage) << i;
    }
    EXPECT_EQ(bare.makespan, fleet.makespan);
    EXPECT_EQ(bare.eventsFired, fleet.eventsFired);
}

/**
 * A fleet of one device is byte-identical to the bare Device: same
 * per-job arrival/admission/completion ticks, same event count —
 * with a probe-free policy (round-robin) and with a probe-observing
 * one (least-backlog; a single-device fleet skips the probe path by
 * construction, so both stay on the bare submission path).
 */
TEST(Cluster, SingleDeviceMatchesBareDevice)
{
    const auto prog = chainProgram("eq", 12);
    const auto stream = testStream(prog, 10);

    Device bare(fleetDeviceOptions());
    for (const JobSpec &spec : stream)
        bare.submit(spec);
    const DeviceSnapshot bareSnap = bare.drain();

    for (const char *policy : {"round-robin", "least-backlog"}) {
        ClusterOptions opts;
        opts.devices.push_back({fleetDeviceOptions(), nullptr});
        Cluster fleet(std::move(opts), makePlacement(policy));
        for (const JobSpec &spec : stream)
            fleet.submit(spec);
        const ClusterSnapshot snap = fleet.drain();
        ASSERT_EQ(snap.devices.size(), 1u) << policy;
        expectSameResults(bareSnap, snap.devices[0]);
        for (const cluster::RoutedJob &r : snap.routed)
            EXPECT_EQ(r.device, 0u) << policy;
    }
}

/**
 * Under a skewed arrival mix on two devices, a backlog-observing
 * policy routes differently from blind round-robin: least-backlog
 * sees the long tenant's jobs pile up and steers short jobs away,
 * so the routed-device sequences diverge.
 */
TEST(Cluster, LeastBacklogDivergesFromRoundRobin)
{
    const auto heavy = chainProgram("heavy", 24);
    const auto light = chainProgram("light", 3);

    const auto route = [&](const char *policy) {
        ClusterOptions opts;
        opts.devices.push_back({fleetDeviceOptions(), nullptr});
        opts.devices.push_back({fleetDeviceOptions(), nullptr});
        Cluster fleet(std::move(opts), makePlacement(policy));
        Tick at = 0;
        // Bursty skew: three heavy jobs back-to-back, then light
        // ones, repeatedly — round-robin alternates regardless,
        // least-backlog sees the pile-up.
        for (std::size_t i = 0; i < 12; ++i) {
            JobSpec spec;
            spec.program = i % 4 == 3 ? light : heavy;
            spec.arrival = at;
            fleet.submit(spec, i % 4 == 3 ? 1 : 0);
            at += usToTicks(5.0);
        }
        std::vector<std::size_t> devices;
        const ClusterSnapshot snap = fleet.drain();
        for (const cluster::RoutedJob &r : snap.routed)
            devices.push_back(r.device);
        return devices;
    };

    const auto rr = route("round-robin");
    const auto lb = route("least-backlog");
    ASSERT_EQ(rr.size(), lb.size());
    EXPECT_NE(rr, lb);

    // And the probe path is deterministic: replaying least-backlog
    // routes identically.
    EXPECT_EQ(lb, route("least-backlog"));
}

/** Every policy accepted by makePlacement routes in-range. */
TEST(Cluster, AllPoliciesRouteInRange)
{
    const auto prog = chainProgram("p", 6);
    for (const std::string &name : cluster::placementNames()) {
        ClusterOptions opts;
        for (int d = 0; d < 3; ++d)
            opts.devices.push_back({fleetDeviceOptions(), nullptr});
        Cluster fleet(std::move(opts), makePlacement(name, 7));
        for (std::size_t i = 0; i < 9; ++i) {
            JobSpec spec;
            spec.program = prog;
            spec.arrival = usToTicks(10.0 * static_cast<double>(i));
            const cluster::RoutedJob r = fleet.submit(spec, i % 2);
            EXPECT_LT(r.device, 3u) << name;
        }
        const ClusterSnapshot snap = fleet.drain();
        EXPECT_EQ(snap.routed.size(), 9u) << name;
        for (std::size_t r = 0; r < snap.routed.size(); ++r)
            EXPECT_GT(snap.result(r).end, 0u) << name;
    }
}

ClusterRunSpec
fleetSpec(const std::string &placement,
          const std::shared_ptr<const Program> &heavy,
          const std::shared_ptr<const Program> &light)
{
    ClusterRunSpec spec;
    spec.label = "test/" + placement;
    spec.placement = placement;
    spec.config = gcCfg();
    spec.devices = 2;
    spec.jobs = 24;
    spec.jobsPerSec = 20000.0;
    spec.arrivalSeed = 3;
    // The tiny gcCfg device can't hold the whole job set at once;
    // a bounded pool recycles regions between jobs instead.
    spec.capacityPages = 600;
    ClusterTenant a;
    a.name = "heavy";
    a.program = heavy;
    a.sloMs = 1.0;
    a.weight = 3.0;
    ClusterTenant b;
    b.name = "light";
    b.program = light;
    b.sloMs = 0.5;
    b.weight = 1.0;
    spec.tenants = {a, b};
    return spec;
}

/**
 * Fleet sweeps are thread-count invariant and repeatable: the
 * emitted CSV (every row, every column) is byte-identical between a
 * serial and a parallel sweep, and across back-to-back runs.
 */
TEST(Cluster, SweepRowsAreThreadInvariant)
{
    const auto heavy = chainProgram("heavy", 16);
    const auto light = chainProgram("light", 4);
    std::vector<ClusterRunSpec> specs;
    for (const std::string &p : cluster::placementNames())
        specs.push_back(fleetSpec(p, heavy, light));

    const auto sweepCsv = [&](unsigned threads) {
        SweepOptions opts;
        opts.threads = threads;
        SweepRunner runner(opts);
        const auto snaps = runner.runClusterAll(specs);
        std::vector<runner::ClusterRow> rows;
        for (std::size_t i = 0; i < specs.size(); ++i) {
            const auto r = runner::makeClusterRows(specs[i], snaps[i]);
            rows.insert(rows.end(), r.begin(), r.end());
        }
        std::ostringstream os;
        runner::toTable(rows).writeCsv(os);
        return os.str();
    };

    const std::string serial = sweepCsv(1);
    EXPECT_EQ(serial, sweepCsv(4));
    EXPECT_EQ(serial, sweepCsv(1));
    EXPECT_NE(serial.find("\"fleet\""), std::string::npos);
    EXPECT_NE(serial.find("\"heavy\""), std::string::npos);
}

/**
 * An aged warm fleet builds one shared image per distinct age rung,
 * not one per device or per cell: 4 devices x {fresh, worn} x 2
 * policies = 2 images.
 */
TEST(Cluster, AgedFleetSharesWarmImagesPerRung)
{
    const auto heavy = chainProgram("heavy", 12);
    const auto light = chainProgram("light", 4);
    std::vector<ClusterRunSpec> specs;
    for (const std::string &p : {std::string("round-robin"),
                                 std::string("least-backlog")}) {
        ClusterRunSpec spec = fleetSpec(p, heavy, light);
        spec.devices = 4;
        spec.jobs = 8;
        spec.ageMix = {0, 1500};
        spec.retentionDaysPerKCycle = 20.0;
        spec.warmupJobs = 3;
        spec.capacityPages = 600;
        specs.push_back(std::move(spec));
    }

    SweepRunner runner(SweepOptions{});
    const auto snaps = runner.runClusterAll(specs);
    EXPECT_EQ(runner.lastPerf().warmupImages, 2u);
    for (const auto &snap : snaps) {
        ASSERT_EQ(snap.devices.size(), 4u);
        // Worn devices (odd indices) lived through reliability
        // traffic; fresh ones (even) have no reliability state.
        EXPECT_EQ(snap.devices[0].reliability.retriedReads, 0u);
        EXPECT_GT(snap.base, 0u);
    }
}

/** DeviceProbe reports coherent host-visible backlog state. */
TEST(Cluster, DeviceProbeTracksBacklog)
{
    const auto prog = chainProgram("probe", 10);
    Device dev(fleetDeviceOptions());

    DeviceProbe idle = dev.probe();
    EXPECT_EQ(idle.now, 0u);
    EXPECT_EQ(idle.pendingJobs, 0u);
    EXPECT_EQ(idle.admittedPages, 0u);
    EXPECT_EQ(idle.dieBusyFraction, 0.0);

    for (std::size_t i = 0; i < 4; ++i) {
        JobSpec spec;
        spec.program = prog;
        spec.arrival = usToTicks(20.0 * static_cast<double>(i));
        dev.submit(spec);
    }
    dev.advanceTo(usToTicks(1.0));
    DeviceProbe busy = dev.probe();
    EXPECT_EQ(busy.pendingJobs, 4u);
    EXPECT_GT(busy.admittedPages, 0u);
    EXPECT_EQ(busy.capacityPages, 600u);
    EXPECT_GE(busy.dieBusyFraction, 0.0);
    EXPECT_LE(busy.dieBusyFraction, 1.0);

    dev.drain();
    DeviceProbe done = dev.probe();
    EXPECT_EQ(done.pendingJobs, 0u);
    EXPECT_EQ(done.admittedPages, 0u);
}

} // namespace
} // namespace conduit
