/**
 * @file
 * Saturation curves: throughput and tail latency vs offered load.
 *
 * The paper evaluates offloading policies one closed-form run at a
 * time; a deployed device instead faces an open-loop stream of
 * arriving jobs. This bench offers each workload to a persistent
 * Device at a ladder of arrival rates — for every policy — and
 * reports the achieved throughput, the mean job sojourn time, and
 * the per-request p99 / p99.99 latency at every operating point.
 * Each (workload, policy, rate) cell is one deterministic device
 * lifetime with pseudo-Poisson (or fixed / uniform) arrivals, eager
 * job retirement, and page-region recycling; cells are independent,
 * so the sweep parallelizes like every other bench while stdout and
 * CSV stay byte-identical across thread counts.
 *
 * The default rate ladder is self-calibrating: one isolated job's
 * makespan under the first selected policy anchors rate multipliers
 * {0.25, 0.5, 1, 2, 4}, so the sweep brackets the saturation knee at
 * any --scale. --rates overrides with absolute jobs/second (emitted
 * ascending — the offered-load column is monotone per policy).
 *
 * Flags: the shared sweep CLI (--techniques selects policies,
 * validated against the policy table) plus
 *   --jobs N            jobs offered per cell (default 8)
 *   --rates a,b         absolute offered loads, jobs/s
 *   --arrivals KIND     fixed | uniform | poisson (default)
 *   --arrival-seed N    arrival-schedule seed (default 1; the same
 *                       schedule is replayed for every policy)
 *   --warmup-jobs N     warm jobs before the measured phase (rows
 *                       then report the measured jobs only); each
 *                       rate rung's warm device is built once and
 *                       forked per policy (DeviceImage snapshots)
 */

#include <algorithm>

#include "bench/common.hh"

namespace
{

using namespace conduit;
using namespace conduit::bench;
using conduit::runner::LoadRunSpec;
using conduit::runner::splitCsv;

std::vector<double>
parseRates(const std::string &csv)
{
    std::vector<double> rates;
    for (const std::string &tok : splitCsv(csv))
        rates.push_back(parsePositive("--rates", tok));
    // The offered-load axis is emitted ascending and deduplicated so
    // every policy's CSV block is strictly monotone in load.
    std::sort(rates.begin(), rates.end());
    rates.erase(std::unique(rates.begin(), rates.end()), rates.end());
    return rates;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace conduit;
    using namespace conduit::bench;

    std::vector<double> rates;
    const auto extra = [&](const std::string &flag,
                           const std::function<std::string()> &value) {
        if (flag != "--rates")
            return false;
        rates = parseRates(value());
        return true;
    };
    // Workload rows: the tail-sensitive AES kernel by default;
    // --workloads widens to any Table 3 application.
    const OpenLoopCli o = OpenLoopCli::parse(
        argc, argv, /*jobs=*/8, {WorkloadId::Aes}, policyNames(), extra,
        "          [--rates a,b]\n");
    const SweepCli &cli = o.cli;

    // Policy columns: validated against the policy table — an
    // unknown filter entry is rejected with the accepted names.
    std::vector<std::string> policies = {"Conduit", "DM-Offloading",
                                         "BW-Offloading"};
    const auto keepP = splitCsv(cli.techniqueFilter);
    for (const std::string &p : keepP) {
        if (p == "CPU" || p == "GPU") {
            std::fprintf(stderr,
                         "offered-load cells run on the SSD engine; "
                         "host baseline '%s' cannot serve jobs\n",
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

    // Build the cell matrix: workload-major, policy, then rate
    // ascending. The same arrival schedule (kind, rate, seed) is
    // replayed for every policy so curves differ only by decisions.
    std::vector<LoadRunSpec> cells;
    std::vector<std::size_t> rateCounts; // per workload row
    for (WorkloadId w : o.workloads) {
        std::vector<double> wRates = rates;
        if (wRates.empty()) {
            // Self-calibrate: one isolated job under the first
            // policy anchors the rate ladder at its service rate.
            LoadRunSpec iso;
            iso.workload = workloadName(w);
            iso.technique = policies.front();
            iso.workloadId = w;
            iso.params = params;
            iso.jobs = 1;
            const DeviceSnapshot snap = runner.runLoad(iso);
            const double tIso = ticksToSeconds(snap.makespan);
            const double base = tIso > 0.0 ? 1.0 / tIso : 1.0;
            for (double mult : {0.25, 0.5, 1.0, 2.0, 4.0})
                wRates.push_back(base * mult);
        }
        for (const std::string &policy : policies) {
            for (double rate : wRates) {
                LoadRunSpec cell;
                cell.workload = workloadName(w);
                cell.technique = policy;
                cell.workloadId = w;
                cell.params = params;
                cell.jobs = o.jobs;
                cell.jobsPerSec = rate;
                cell.arrivals = o.arrivals;
                cell.arrivalSeed = o.arrivalSeed;
                cell.warmupJobs = o.warmupJobs;
                cell.steadyState = o.warmupJobs > 0;
                cells.push_back(std::move(cell));
            }
        }
        rateCounts.push_back(wRates.size());
    }

    const std::vector<DeviceSnapshot> snaps = runner.runLoadAll(cells);

    std::vector<runner::LoadRow> rows;
    rows.reserve(cells.size());
    for (std::size_t i = 0; i < cells.size(); ++i)
        rows.push_back(runner::makeLoadRow(cells[i], snaps[i]));

    std::printf("Open-loop saturation sweep (%zu jobs/cell, %s "
                "arrivals)\n\n",
                o.jobs, arrivalKindName(o.arrivals).c_str());
    std::size_t r = 0;
    for (std::size_t wi = 0; wi < o.workloads.size(); ++wi) {
        std::printf("%s\n", workloadName(o.workloads[wi]).c_str());
        std::printf("  %-16s %12s %12s %14s %12s %12s\n", "policy",
                    "offered/s", "thpt/s", "sojourn (ms)", "p99 (us)",
                    "p99.99 (us)");
        for (const std::string &policy : policies) {
            (void)policy;
            for (std::size_t k = 0; k < rateCounts[wi]; ++k) {
                const runner::LoadRow &row = rows.at(r++);
                std::printf(
                    "  %-16s %12.2f %12.2f %14.3f %12.2f %12.2f\n",
                    row.technique.c_str(), row.jobsPerSec,
                    row.throughputJobsPerSec, row.meanSojournMs,
                    row.p99Us, row.p9999Us);
            }
        }
        std::printf("\n");
    }

    return cli.finish(runner::toTable(rows), runner);
}
