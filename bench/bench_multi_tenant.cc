/**
 * @file
 * Multi-tenant co-location matrix: what the paper's tail-latency
 * evaluation (Fig. 8) only approximates with a single stream, run
 * properly — N instruction streams co-scheduled on ONE simulated SSD
 * by the event-driven engine, contending for the offloader, flash
 * dies, DRAM banks and the controller core through the shared FCFS
 * calendars.
 *
 * For every primary workload the bench reports its isolated run
 * (alone on the device) and its co-located runs against each
 * background tenant: the slowdown of the primary's makespan and the
 * inflation of its per-request latency tail. Every cell is one
 * deterministic device run (its streams as simultaneous jobs on one
 * core::Device), so repeated executions (and any --threads value)
 * produce byte-identical output.
 *
 * Flags: the shared sweep CLI. --workloads filters the tenant set;
 * --techniques selects the one offloading policy every stream runs
 * under (a single entry, default Conduit).
 *
 * --age CYCLES runs the matrix on an aged device instead of a
 * factory-fresh one: a single pre-worn DeviceImage (reliability
 * subsystem enabled, fast-forwarded to the age, warmed with
 * --warmup-jobs jobs of traffic) is built once and every cell forks
 * it (MultiRunSpec::image), so all cells share byte-identical
 * initial wear, mappings and staging state and still sweep across
 * the worker pool, traced and perf-attributed. On the aged device
 * the ECC retry ladder stretches every flash read, so a background
 * tenant's die occupancy delays the primary for whole retry ladders
 * at a time — cross-tenant interference tails amplify well beyond
 * the fresh-device slowdown.
 *   --age CYCLES         P/E cycles pre-absorbed (0 = fresh matrix)
 *   --retention-days D   resident-data age (default: age * 30/1000,
 *                        the deployment-time coupling
 *                        bench_reliability uses)
 *   --warmup-jobs N      warm jobs baked into the pre-worn image
 *                        (default 4)
 */

#include "bench/common.hh"

namespace
{

using namespace conduit;
using namespace conduit::bench;
using conduit::runner::LoadRunSpec;
using conduit::runner::MultiRunSpec;
using conduit::runner::StreamSlot;
using conduit::runner::splitCsv;

StreamSlot
slotFor(WorkloadId id, const std::string &policy)
{
    StreamSlot s;
    s.workloadId = id;
    s.workload = workloadName(id);
    s.technique = policy;
    return s;
}

/** Stream @p k's result in a cell of @p streams streams (the cell's
 *  jobs follow any an aged image carried). */
const RunResult &
streamResult(const DeviceSnapshot &snap, std::size_t streams,
             std::size_t k)
{
    return snap.jobs[snap.jobs.size() - streams + k].result;
}

/** A cell's makespan: its latest job end minus its start tick. */
Tick
cellMakespan(const DeviceSnapshot &snap, std::size_t streams)
{
    const std::size_t first = snap.jobs.size() - streams;
    Tick end = 0;
    for (std::size_t i = first; i < snap.jobs.size(); ++i)
        end = std::max(end, snap.jobs[i].end);
    return end - snap.jobs[first].arrival;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace conduit;
    using namespace conduit::bench;

    std::uint32_t age = 0;
    double retentionDays = -1.0; // < 0: derive from the age
    std::size_t warmupJobs = 4;
    const auto extra = [&](const std::string &flag,
                           const std::function<std::string()> &value) {
        if (flag == "--age") {
            age = SweepCli::parseCycles("--age", value());
        } else if (flag == "--retention-days") {
            retentionDays = parsePositive("--retention-days", value(),
                                          /*allow_zero=*/true);
        } else if (flag == "--warmup-jobs") {
            warmupJobs = parseCount("--warmup-jobs", value());
        } else {
            return false;
        }
        return true;
    };
    const SweepCli cli = SweepCli::parse(
        argc, argv, extra,
        "          [--age CYCLES] [--retention-days D]\n"
        "          [--warmup-jobs N]\n");
    if (retentionDays < 0.0)
        retentionDays = static_cast<double>(age) * 30.0 / 1000.0;

    // Tenant set: the two tail-sensitive workloads of Fig. 8 plus
    // the two cheapest Table 3 applications, so the default matrix
    // stays seconds-long. --workloads widens or narrows it.
    const std::vector<WorkloadId> tenants = selectWorkloads(
        cli,
        {WorkloadId::Aes, WorkloadId::XorFilter, WorkloadId::Jacobi1d,
         WorkloadId::LlamaInference},
        policyNames());
    const auto policies = splitCsv(cli.techniqueFilter);
    if (policies.size() > 1) {
        std::fprintf(stderr,
                     "every stream runs the same policy; give a "
                     "single --techniques entry\n");
        return 2;
    }
    const std::string policy =
        policies.empty() ? std::string("Conduit") : policies.front();
    if (policy == "CPU" || policy == "GPU") {
        std::fprintf(stderr,
                     "streams run on the SSD engine; host baseline "
                     "'%s' cannot be a tenant policy\n",
                     policy.c_str());
        return 2;
    }
    if (!runner::reportUnknown({policy}, policyNames(), "policy"))
        return 2;

    WorkloadParams params;
    params.scale = cli.scale;

    // Aged mode: every cell forks one pre-worn device image, so all
    // cells share the aged (reliability-enabled) configuration.
    SsdConfig config = runner::defaultSweepConfig();
    if (age > 0) {
        config.reliability.enabled = true;
        config.reliability.preWearCycles = age;
        config.reliability.retentionDays = retentionDays;
    }

    // Cells: one isolated run per tenant, then every ordered pair
    // (primary, background) co-located. Cell order is the report
    // order; runMultiAll keeps results in spec order regardless of
    // the worker-thread count.
    std::vector<MultiRunSpec> cells;
    for (WorkloadId p : tenants) {
        MultiRunSpec iso;
        iso.label = workloadName(p);
        iso.config = config;
        iso.params = params;
        iso.streams = {slotFor(p, policy)};
        cells.push_back(std::move(iso));
    }
    for (WorkloadId p : tenants) {
        for (WorkloadId b : tenants) {
            MultiRunSpec co;
            co.label = workloadName(p) + "+" + workloadName(b);
            co.config = config;
            co.params = params;
            co.streams = {slotFor(p, policy), slotFor(b, policy)};
            cells.push_back(std::move(co));
        }
    }

    SweepRunner runner(cli.runnerOptions());
    if (age > 0) {
        // Build the shared pre-worn image once: the aged config
        // warmed with jobs of the first tenant, its page pool sized
        // for the largest co-location pair so both streams admit
        // simultaneously like the fresh matrix does. Every cell
        // forks it.
        LoadRunSpec warm;
        warm.workload = workloadName(tenants.front());
        warm.workloadId = tenants.front();
        warm.config = config;
        warm.params = params;
        warm.warmupJobs = warmupJobs;
        std::uint64_t maxFp = 0;
        for (WorkloadId id : tenants) {
            auto vp = runner.cache().get(id, params, config);
            maxFp = std::max(maxFp, vp->program.footprintPages);
        }
        warm.capacityPages = 2 * maxFp;
        const auto img = std::make_shared<const DeviceImage>(
            runner.buildWarmImage(warm));
        for (MultiRunSpec &cell : cells)
            cell.image = img;
    }
    const std::vector<DeviceSnapshot> results = runner.runMultiAll(cells);

    const std::size_t n = tenants.size();
    if (age > 0)
        std::printf("Multi-tenant co-location on one aged SSD "
                    "(policy: %s, %u P/E cycles, %.4g retention days, "
                    "%zu warm jobs)\n\n",
                    policy.c_str(), age, retentionDays, warmupJobs);
    else
        std::printf("Multi-tenant co-location on one SSD "
                    "(policy: %s)\n\n",
                    policy.c_str());

    // Per-stream rows for the machine-readable emission layer: the
    // primary stream of every cell, labelled by its company.
    std::vector<runner::RunSpec> rowSpecs;
    std::vector<RunResult> rowResults;

    for (std::size_t pi = 0; pi < n; ++pi) {
        const RunResult &alone = streamResult(results[pi], 1, 0);
        std::printf("%s\n", alone.workload.c_str());
        std::printf("  %-24s %10s %10s %12s %12s\n", "tenancy",
                    "exec (ms)", "slowdown", "p99 (us)",
                    "p99.99 (us)");
        std::printf("  %-24s %10.3f %10s %12.2f %12.2f\n", "isolated",
                    ticksToUs(alone.execTime) / 1000.0, "1.00x",
                    alone.latencyUs.percentile(99),
                    alone.latencyUs.percentile(99.99));
        {
            runner::RunSpec spec;
            spec.workload = alone.workload;
            spec.technique = "isolated";
            rowSpecs.push_back(spec);
            rowResults.push_back(alone);
        }
        for (std::size_t bi = 0; bi < n; ++bi) {
            const auto &cell = results[n + pi * n + bi];
            const RunResult &primary = streamResult(cell, 2, 0);
            const std::string company =
                "+" + streamResult(cell, 2, 1).workload;
            const double slowdown = alone.execTime == 0
                ? 0.0
                : static_cast<double>(primary.execTime) /
                    static_cast<double>(alone.execTime);
            std::printf("  %-24s %10.3f %9.2fx %12.2f %12.2f\n",
                        company.c_str(),
                        ticksToUs(primary.execTime) / 1000.0, slowdown,
                        primary.latencyUs.percentile(99),
                        primary.latencyUs.percentile(99.99));
            runner::RunSpec spec;
            spec.workload = primary.workload;
            spec.technique = company;
            rowSpecs.push_back(spec);
            rowResults.push_back(primary);
        }
        std::printf("\n");
    }

    // Consolidation view: co-running a pair on one device vs giving
    // each tenant its own SSD (the paper's single-stream world).
    std::printf("pairwise consolidation (makespan vs sum of "
                "isolated runs)\n");
    for (std::size_t pi = 0; pi < n; ++pi) {
        for (std::size_t bi = pi + 1; bi < n; ++bi) {
            const Tick makespan =
                cellMakespan(results[n + pi * n + bi], 2);
            const Tick sum = streamResult(results[pi], 1, 0).execTime +
                streamResult(results[bi], 1, 0).execTime;
            std::printf(
                "  %-40s makespan %8.3f ms, serial-on-two-SSDs "
                "%8.3f ms (%.2fx)\n",
                cells[n + pi * n + bi].label.c_str(),
                ticksToUs(makespan) / 1000.0, ticksToUs(sum) / 1000.0,
                makespan == 0 ? 0.0
                              : static_cast<double>(sum) /
                        static_cast<double>(makespan));
        }
    }

    const SweepResult rows(std::move(rowSpecs), std::move(rowResults),
                           runner.lastPerf().wallSeconds,
                           runner.workerCount(cells.size()));
    return cli.finish(runner::toTable(rows), runner);
}
