/**
 * @file
 * Shared definitions for the reproduction benches: the paper's
 * technique orderings, re-exported from the sweep-runner subsystem
 * that executes every bench's evaluation matrix.
 *
 * All formatting/emission helpers live in src/runner (sweep_result,
 * sweep_cli); benches carry no private output code.
 */

#ifndef CONDUIT_BENCH_COMMON_HH
#define CONDUIT_BENCH_COMMON_HH

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "src/runner/sweep_cli.hh"

namespace conduit::bench
{

/** @name Shared numeric flag parsing (SweepCli extra-flag hooks) @{ */

[[noreturn]] inline void
badFlagValue(const char *flag, const std::string &value)
{
    std::fprintf(stderr, "invalid value for %s: '%s'\n", flag,
                 value.c_str());
    std::exit(2);
}

/** Non-negative integer (> 0 unless @p allow_zero), or usage-exit. */
inline unsigned long
parseCount(const char *flag, const std::string &value,
           bool allow_zero = false)
{
    char *end = nullptr;
    errno = 0;
    const unsigned long v = std::strtoul(value.c_str(), &end, 10);
    if (errno != 0 || end == value.c_str() || *end != '\0' ||
        value[0] == '-' || (v == 0 && !allow_zero))
        badFlagValue(flag, value);
    return v;
}

/** Non-negative double (> 0 unless @p allow_zero), or usage-exit. */
inline double
parsePositive(const char *flag, const std::string &value,
              bool allow_zero = false)
{
    char *end = nullptr;
    errno = 0;
    const double v = std::strtod(value.c_str(), &end);
    if (errno != 0 || end == value.c_str() || *end != '\0' ||
        !(allow_zero ? v >= 0.0 : v > 0.0))
        badFlagValue(flag, value);
    return v;
}

/** @} */

using runner::RunMatrix;
using runner::RunSpec;
using runner::SweepCli;
using runner::SweepResult;
using runner::SweepRunner;
using runner::gmean;
using runner::printHeader;

/**
 * Workload rows of a bench with its own cell shape: services
 * --list-workloads (every Table 3 name) and --list-techniques (@p
 * techniques), then applies --workloads to the Table 3 set, falling
 * back to @p defaults without the flag. An unknown name exits 2.
 */
inline std::vector<WorkloadId>
selectWorkloads(const SweepCli &cli, std::vector<WorkloadId> defaults,
                const std::vector<std::string> &techniques)
{
    std::vector<std::string> names;
    for (WorkloadId id : allWorkloads())
        names.push_back(workloadName(id));
    if (cli.listWorkloads)
        runner::listAndExit(names);
    if (cli.listTechniques)
        runner::listAndExit(techniques);
    const auto keep = runner::splitCsv(cli.workloadFilter);
    if (!runner::reportUnknown(keep, names, "workload"))
        std::exit(2);
    if (keep.empty())
        return defaults;
    std::vector<WorkloadId> ids;
    for (WorkloadId id : allWorkloads())
        if (std::find(keep.begin(), keep.end(), workloadName(id)) !=
            keep.end())
            ids.push_back(id);
    return ids;
}

/**
 * The front-end the open-loop benches (saturation, reliability,
 * fleet) share: the sweep CLI plus the arrival-stream flags and the
 * workload rows.
 */
struct OpenLoopCli
{
    SweepCli cli;

    /** --jobs N: jobs offered per cell. */
    std::size_t jobs = 0;

    /** --warmup-jobs N: warm jobs before the measured phase (rows
     *  then report the measured jobs only; 0 = cold cells). */
    std::size_t warmupJobs = 0;

    /** --arrivals KIND: fixed | uniform | poisson. */
    ArrivalKind arrivals = ArrivalKind::Poisson;

    /** --arrival-seed N: arrival-schedule seed. */
    std::uint64_t arrivalSeed = 1;

    /** Workload rows (see selectWorkloads()). */
    std::vector<WorkloadId> workloads;

    /**
     * Parse argv with the bench's defaults (@p jobs, @p workloads),
     * its --list-techniques names and its own flags (@p extra, whose
     * usage lines @p extra_usage adds). Bad values exit 2.
     */
    static OpenLoopCli
    parse(int argc, char **argv, std::size_t jobs,
          std::vector<WorkloadId> workloads,
          const std::vector<std::string> &techniques,
          const SweepCli::FlagHandler &extra, const char *extra_usage)
    {
        OpenLoopCli o;
        o.jobs = jobs;
        const auto flags = [&](const std::string &flag,
                               const std::function<std::string()> &value) {
            if (flag == "--jobs") {
                o.jobs = parseCount("--jobs", value());
            } else if (flag == "--warmup-jobs") {
                o.warmupJobs = parseCount("--warmup-jobs", value(),
                                          /*allow_zero=*/true);
            } else if (flag == "--arrivals") {
                const std::string v = value();
                if (!parseArrivalKind(v, o.arrivals)) {
                    std::fprintf(
                        stderr, "unknown --arrivals '%s'; accepted: %s\n",
                        v.c_str(),
                        runner::joinLabels(arrivalKindNames()).c_str());
                    std::exit(2);
                }
            } else if (flag == "--arrival-seed") {
                o.arrivalSeed = parseCount("--arrival-seed", value());
            } else {
                return extra && extra(flag, value);
            }
            return true;
        };
        const std::string usage =
            std::string("          [--jobs N] [--warmup-jobs N] "
                        "[--arrivals KIND]\n"
                        "          [--arrival-seed N]\n") +
            extra_usage;
        o.cli = SweepCli::parse(argc, argv, flags, usage.c_str());
        o.workloads = selectWorkloads(o.cli, std::move(workloads),
                                      techniques);
        return o;
    }
};

/** Techniques in the paper's presentation order (Fig. 5 / Fig. 7). */
inline const std::vector<std::string> &
motivationTechniques()
{
    static const std::vector<std::string> t = {
        "GPU",           "ISP",        "PuD-SSD",
        "Flash-Cosmos",  "Ares-Flash", "BW-Offloading",
        "DM-Offloading", "Ideal"};
    return t;
}

inline const std::vector<std::string> &
evaluationTechniques()
{
    static const std::vector<std::string> t = {
        "GPU",           "ISP",           "PuD-SSD",
        "Flash-Cosmos",  "Ares-Flash",    "BW-Offloading",
        "DM-Offloading", "Conduit",       "Ideal"};
    return t;
}

/**
 * The standard speedup-table matrix: every workload under the CPU
 * baseline plus @p techniques, on the default device.
 */
inline RunMatrix
workloadTechniqueMatrix(const std::vector<std::string> &techniques)
{
    RunMatrix m;
    m.workloads(allWorkloads());
    m.technique("CPU");
    m.techniques(techniques);
    return m;
}

/** Technique columns of a sweep, minus the CPU baseline. */
inline std::vector<std::string>
nonBaselineColumns(const SweepResult &sweep)
{
    std::vector<std::string> columns = sweep.techniqueLabels();
    columns.erase(std::remove(columns.begin(), columns.end(),
                              std::string("CPU")),
                  columns.end());
    return columns;
}

} // namespace conduit::bench

#endif // CONDUIT_BENCH_COMMON_HH
