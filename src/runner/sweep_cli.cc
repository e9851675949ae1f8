#include "src/runner/sweep_cli.hh"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>

#include "src/offload/policy.hh"

namespace conduit::runner
{

namespace
{

[[noreturn]] void
usage(const char *prog, int code, const char *extra_usage = nullptr)
{
    std::fprintf(
        stderr,
        "usage: %s [--threads N] [--scale X] [--workloads a,b]\n"
        "          [--techniques a,b] [--csv PATH] [--json PATH]\n"
        "          [--cell-perf PATH] [--trace PATH]\n"
        "          [--trace-filter cat,cat] [--list-workloads]\n"
        "          [--list-techniques] [--list-policies]\n",
        prog);
    if (extra_usage)
        std::fputs(extra_usage, stderr);
    std::exit(code);
}

[[noreturn]] void
badValue(const char *prog, const std::string &flag,
         const std::string &value)
{
    std::fprintf(stderr, "%s: invalid value for %s: '%s'\n", prog,
                 flag.c_str(), value.c_str());
    usage(prog, 2);
}

/** Whole-string unsigned parse; rejects trailing garbage. */
unsigned
parseUnsigned(const char *prog, const std::string &flag,
              const std::string &value)
{
    char *end = nullptr;
    errno = 0;
    const unsigned long v = std::strtoul(value.c_str(), &end, 10);
    if (errno != 0 || end == value.c_str() || *end != '\0' ||
        value[0] == '-')
        badValue(prog, flag, value);
    return static_cast<unsigned>(v);
}

/** Whole-string double parse; rejects trailing garbage. */
double
parseDouble(const char *prog, const std::string &flag,
            const std::string &value)
{
    char *end = nullptr;
    errno = 0;
    const double v = std::strtod(value.c_str(), &end);
    if (errno != 0 || end == value.c_str() || *end != '\0')
        badValue(prog, flag, value);
    return v;
}

} // namespace

std::uint32_t
SweepCli::parseCycles(const char *flag, const std::string &value)
{
    char *end = nullptr;
    errno = 0;
    const unsigned long long v = std::strtoull(value.c_str(), &end, 10);
    if (errno != 0 || end == value.c_str() || *end != '\0' ||
        value[0] == '-' ||
        v > std::numeric_limits<std::uint32_t>::max()) {
        std::fprintf(stderr, "invalid value for %s: '%s'\n", flag,
                     value.c_str());
        std::exit(2);
    }
    return static_cast<std::uint32_t>(v);
}

SweepCli
SweepCli::parse(int argc, char **argv, const FlagHandler &extra,
                const char *extra_usage)
{
    SweepCli cli;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const std::function<std::string()> value =
            [&]() -> std::string {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "%s: %s needs a value\n",
                             argv[0], arg.c_str());
                usage(argv[0], 2, extra_usage);
            }
            return argv[++i];
        };
        if (arg == "--help" || arg == "-h")
            usage(argv[0], 0, extra_usage);
        else if (arg == "--list-workloads")
            cli.listWorkloads = true;
        else if (arg == "--list-techniques")
            cli.listTechniques = true;
        else if (arg == "--list-policies")
            listAndExit(policyNames());
        else if (arg == "--threads")
            cli.threads = parseUnsigned(argv[0], arg, value());
        else if (arg == "--scale") {
            const std::string v = value();
            cli.scale = parseDouble(argv[0], arg, v);
            // Dataset sizes are base * scale cast to integers: only a
            // finite positive multiplier names a workload.
            if (!(cli.scale > 0.0) || !std::isfinite(cli.scale))
                badValue(argv[0], arg, v);
        }
        else if (arg == "--workloads")
            cli.workloadFilter = value();
        else if (arg == "--techniques")
            cli.techniqueFilter = value();
        else if (arg == "--csv")
            cli.csvPath = value();
        else if (arg == "--json")
            cli.jsonPath = value();
        else if (arg == "--cell-perf")
            cli.cellPerfPath = value();
        else if (arg == "--trace")
            cli.tracePath = value();
        else if (arg == "--trace-filter") {
            cli.traceFilter = value();
            if (!trace::parseCategories(cli.traceFilter))
                badValue(argv[0], arg, cli.traceFilter);
        }
        else if (extra && extra(arg, value))
            continue;
        else {
            std::fprintf(stderr, "%s: unknown flag %s\n", argv[0],
                         arg.c_str());
            usage(argv[0], 2, extra_usage);
        }
    }
    return cli;
}

SweepOptions
SweepCli::runnerOptions() const
{
    SweepOptions opts;
    opts.threads = threads;
    if (!tracePath.empty()) {
        // parse() already validated the filter, so the optional is
        // always engaged here; empty filter means every category.
        opts.trace.categories =
            traceFilter.empty()
                ? trace::kAllCategories
                : *trace::parseCategories(traceFilter);
    }
    return opts;
}

void
listAndExit(const std::vector<std::string> &labels)
{
    std::vector<std::string> seen;
    for (const auto &l : labels) {
        if (std::find(seen.begin(), seen.end(), l) != seen.end())
            continue;
        seen.push_back(l);
        std::printf("%s\n", l.c_str());
    }
    std::exit(0);
}

void
SweepCli::configure(RunMatrix &matrix,
                    const std::string &baseline) const
{
    if (listWorkloads)
        listAndExit(matrix.workloadLabels());
    if (listTechniques)
        listAndExit(matrix.techniqueLabels());
    WorkloadParams p;
    p.scale = scale;
    matrix.params(p);
    if (!reportUnknown(splitCsv(workloadFilter),
                       matrix.workloadLabels(), "workload") ||
        !reportUnknown(splitCsv(techniqueFilter),
                       matrix.techniqueLabels(), "technique"))
        std::exit(2);
    matrix.filterWorkloads(workloadFilter);
    std::string techniques = techniqueFilter;
    if (!techniques.empty() && !baseline.empty()) {
        const auto labels = splitCsv(techniques);
        if (std::find(labels.begin(), labels.end(), baseline) ==
            labels.end())
            techniques += "," + baseline;
    }
    matrix.filterTechniques(techniques);
}

namespace
{

/** --cell-perf rows: label,wall_seconds,events_fired,events_per_sec. */
bool
writeCellPerfCsv(const std::string &path, const SweepPerf &perf)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    std::fprintf(f,
                 "label,wall_seconds,events_fired,events_per_sec\n");
    for (const SweepPerf::CellPerf &c : perf.perCell)
        std::fprintf(f, "%s,%.6f,%llu,%.0f\n", c.label.c_str(),
                     c.wallSeconds,
                     static_cast<unsigned long long>(c.eventsFired),
                     c.eventsPerSec());
    return std::fclose(f) == 0;
}

} // namespace

int
SweepCli::finish(const RowTable &rows, const SweepRunner &runner) const
{
    const SweepPerf &perf = runner.lastPerf();
    int status = 0;
    const auto check = [&](const std::string &path, bool written) {
        if (!written) {
            std::fprintf(stderr, "error: could not write %s\n",
                         path.c_str());
            status = 1;
        }
    };
    if (!csvPath.empty())
        check(csvPath, rows.writeFile(csvPath, /*json=*/false));
    if (!jsonPath.empty())
        check(jsonPath, rows.writeFile(jsonPath, /*json=*/true));
    if (!cellPerfPath.empty())
        check(cellPerfPath, writeCellPerfCsv(cellPerfPath, perf));
    if (!tracePath.empty())
        check(tracePath,
              trace::writeTraceFile(tracePath, runner.lastTraces()));

    // Wall-clock is nondeterministic, so it goes to stderr: stdout
    // stays byte-identical across thread counts.
    if (perf.warmupImages > 0)
        std::fprintf(stderr,
                     "warmup: %zu image(s) built once in %.3f s, "
                     "forked across %zu cells\n",
                     perf.warmupImages, perf.warmupSeconds, perf.cells);
    const unsigned threads = runner.workerCount(perf.cells);
    std::fprintf(stderr, "[sweep] %zu runs on %u thread%s in %.2fs\n",
                 perf.cells, threads, threads == 1 ? "" : "s",
                 perf.wallSeconds);
    return status;
}

} // namespace conduit::runner
