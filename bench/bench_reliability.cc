/**
 * @file
 * Reliability & device-aging sweep: tails vs device age, per policy.
 *
 * Every other bench runs a factory-fresh SSD. This one fast-forwards
 * the device to a ladder of ages — P/E cycles pre-absorbed by every
 * block, plus retention age of the resident data — and offers the
 * same open-loop traffic at each age, for each offload policy. As
 * the device ages, the ECC retry ladder stretches flash reads, the
 * background scrubber starts refreshing high-RBER blocks, and worn-
 * out blocks retire and shrink over-provisioning: throughput decays
 * and p99/p99.99 request latency grows monotonically with age.
 *
 * Each (workload, policy, age) cell is one deterministic device
 * lifetime (SweepRunner aging cells); the same arrival schedule is
 * replayed at every age and for every policy, so rows differ only by
 * device age and offload decisions. stdout carries only simulated
 * values and is byte-identical across thread counts; CI enforces
 * both that and monotone p99 growth along the age ladder.
 *
 * Flags: the shared sweep CLI plus
 *   --jobs N               jobs offered per cell (default 6)
 *   --ages a,b,c           pre-wear ladder in P/E cycles
 *                          (default 0,1000,2000,3000; emitted
 *                          ascending)
 *   --retention-per-kcycle D  retention days coupled to each rung:
 *                          days = cycles * D / 1000 (default 30 —
 *                          a device that cycled more has also been
 *                          deployed longer)
 *   --rate-mult M          offered load as a multiple of the fresh
 *                          device's isolated service rate (default
 *                          2.0: past the knee, where aging shows in
 *                          the tails)
 *   --arrivals KIND        fixed | uniform | poisson (default)
 *   --arrival-seed N       arrival-schedule seed (default 1)
 *   --warmup-jobs N        warm jobs before the measured phase (rows
 *                          then report the measured jobs only); each
 *                          age rung's warm device is built once and
 *                          forked per policy (DeviceImage snapshots)
 */

#include <algorithm>

#include "bench/common.hh"

namespace
{

using namespace conduit;
using namespace conduit::bench;
using conduit::runner::AgingRunSpec;
using conduit::runner::LoadRunSpec;
using conduit::runner::splitCsv;

std::vector<std::uint32_t>
parseAges(const std::string &csv)
{
    std::vector<std::uint32_t> ages;
    for (const std::string &tok : splitCsv(csv))
        ages.push_back(SweepCli::parseCycles("--ages", tok));
    // The age axis is emitted ascending and deduplicated: every
    // (workload, policy) CSV block is strictly monotone in age,
    // which is what the CI monotonicity check keys on.
    std::sort(ages.begin(), ages.end());
    ages.erase(std::unique(ages.begin(), ages.end()), ages.end());
    return ages;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace conduit;
    using namespace conduit::bench;

    std::vector<std::uint32_t> ages = {0, 1000, 2000, 3000};
    double retentionPerKcycle = 30.0;
    double rateMult = 2.0;
    const auto extra = [&](const std::string &flag,
                           const std::function<std::string()> &value) {
        if (flag == "--ages") {
            ages = parseAges(value());
            if (ages.empty())
                badFlagValue("--ages", "");
        } else if (flag == "--retention-per-kcycle") {
            // 0 decouples retention from the ladder: a pure
            // P/E-cycle aging sweep.
            retentionPerKcycle = parsePositive(
                "--retention-per-kcycle", value(), /*allow_zero=*/true);
        } else if (flag == "--rate-mult") {
            rateMult = parsePositive("--rate-mult", value());
        } else {
            return false;
        }
        return true;
    };
    // Workload rows: AES by default (flash-read heavy, so the ECC
    // ladder dominates its service time); --workloads widens.
    const OpenLoopCli o = OpenLoopCli::parse(
        argc, argv, /*jobs=*/6, {WorkloadId::Aes}, policyNames(), extra,
        "          [--ages a,b,c] [--retention-per-kcycle D]\n"
        "          [--rate-mult M]\n");
    const SweepCli &cli = o.cli;

    std::vector<std::string> policies = {"Conduit", "DM-Offloading"};
    const auto keepP = splitCsv(cli.techniqueFilter);
    for (const std::string &p : keepP) {
        if (p == "CPU" || p == "GPU") {
            std::fprintf(stderr,
                         "aging cells run on the SSD engine; host "
                         "baseline '%s' cannot serve jobs\n",
                         p.c_str());
            return 2;
        }
    }
    if (!runner::reportUnknown(keepP, policyNames(), "policy"))
        return 2;
    if (!keepP.empty())
        policies = keepP;

    WorkloadParams params;
    params.scale = cli.scale;

    SweepRunner runner(cli.runnerOptions());

    // Build the cell matrix: workload-major, policy, age ascending.
    // One fresh-device calibration per workload anchors the offered
    // rate, which is then held fixed across ages and policies so
    // rows differ only by device age and offload decisions.
    std::vector<AgingRunSpec> cells;
    for (WorkloadId w : o.workloads) {
        LoadRunSpec iso;
        iso.workload = workloadName(w);
        iso.technique = policies.front();
        iso.workloadId = w;
        iso.params = params;
        iso.jobs = 1;
        const DeviceSnapshot snap = runner.runLoad(iso);
        const double tIso = ticksToSeconds(snap.makespan);
        const double rate = (tIso > 0.0 ? 1.0 / tIso : 1.0) * rateMult;

        for (const std::string &policy : policies) {
            for (std::uint32_t age : ages) {
                AgingRunSpec cell;
                cell.load.workload = workloadName(w);
                cell.load.technique = policy;
                cell.load.workloadId = w;
                cell.load.params = params;
                cell.load.jobs = o.jobs;
                cell.load.jobsPerSec = rate;
                cell.load.arrivals = o.arrivals;
                cell.load.arrivalSeed = o.arrivalSeed;
                cell.load.warmupJobs = o.warmupJobs;
                cell.load.steadyState = o.warmupJobs > 0;
                cell.preWearCycles = age;
                cell.retentionDays = static_cast<double>(age) *
                    retentionPerKcycle / 1000.0;
                cells.push_back(std::move(cell));
            }
        }
    }

    const std::vector<DeviceSnapshot> snaps = runner.runAgingAll(cells);

    std::vector<runner::AgingRow> rows;
    rows.reserve(cells.size());
    for (std::size_t i = 0; i < cells.size(); ++i)
        rows.push_back(runner::makeAgingRow(cells[i], snaps[i]));

    std::printf("Reliability & device-aging sweep (%zu jobs/cell, %s "
                "arrivals, %.3gx offered load)\n\n",
                o.jobs, arrivalKindName(o.arrivals).c_str(), rateMult);
    std::size_t r = 0;
    for (WorkloadId w : o.workloads) {
        std::printf("%s\n", workloadName(w).c_str());
        std::printf("  %-16s %9s %8s %9s %11s %13s %9s %8s %8s %8s\n",
                    "policy", "age(P/E)", "ret(d)", "thpt/s",
                    "p99 (us)", "p99.99 (us)", "retries", "soft",
                    "retired", "scrubbed");
        for (const std::string &policy : policies) {
            (void)policy;
            for (std::size_t k = 0; k < ages.size(); ++k) {
                const runner::AgingRow &row = rows.at(r++);
                std::printf("  %-16s %9u %8.1f %9.2f %11.2f %13.2f "
                            "%9llu %8llu %8llu %8llu\n",
                            row.load.technique.c_str(),
                            row.preWearCycles, row.retentionDays,
                            row.load.throughputJobsPerSec,
                            row.load.p99Us, row.load.p9999Us,
                            static_cast<unsigned long long>(
                                row.rel.eccRetries),
                            static_cast<unsigned long long>(
                                row.rel.softDecodes),
                            static_cast<unsigned long long>(
                                row.rel.retiredBlocks),
                            static_cast<unsigned long long>(
                                row.rel.scrubRefreshes));
            }
        }
        std::printf("\n");
    }

    return cli.finish(runner::toTable(rows), runner);
}
