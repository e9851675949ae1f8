/**
 * @file
 * The benchmark's entry point: one process, one workload per run.
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *
 * --trace 0 measures the end-to-end metrics: the cold set-up repeated
 * in-process (setup_s is the median), then repetitions of the
 * workload's fixed work for S seconds (jobs_per_s is the median over
 * repetitions), both scaled to the reference host (ScaledTimer);
 * peak resident memory; the share of jobs that retired and passed the
 * output checks; and paper_err.
 *
 * --trace 1 measures the per-layer metrics: untraced and traced
 * repetitions alternate for S seconds; host times are medians over
 * the traced repetitions (unscaled), counts and simulated values come
 * from the first traced repetition and must repeat exactly in every
 * later one of the same input schedule. Spans are written to
 * .bench_out/ at the end.
 *
 * In both modes every repetition's digest must equal the first digest
 * of its input schedule; a mismatch fails the repetition's jobs and
 * makes "correct" false.
 *
 * The last line of stdout is one JSON object:
 *   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
 */

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "stats.hh"
#include "workloads.hh"

namespace
{

using namespace perfbench;

/** Set-up repetitions: at least kMinSetups, then while within budget. */
constexpr std::size_t kMinSetups = 3;
constexpr std::size_t kMaxSetups = 25;
constexpr double kSetupShare = 0.3;

/** Measured repetitions per run, at the least. */
constexpr std::size_t kMinReps = 3;

struct Metric
{
    double value;
    std::string unit;
};

struct Totals
{
    std::size_t attempted = 0;
    std::size_t succeeded = 0;
    std::vector<std::string> failures;
    /** The first repetition's digest, per input schedule. */
    std::map<std::size_t, std::uint64_t> digests;

    /** Fold one repetition in; a digest mismatch fails its jobs. */
    void
    add(const RepResult &r, const char *path)
    {
        attempted += r.attempted;
        const auto [it, first] = digests.emplace(r.schedule, r.digest);
        const bool ok = first || it->second == r.digest;
        if (!ok)
            failures.push_back(std::string(path) + " repetition of schedule " +
                               std::to_string(r.schedule) +
                               " has another digest than the first");
        for (const std::string &f : r.checkFailures)
            failures.push_back(f);
        if (ok)
            succeeded += r.retired;
        if (!r.firstError.empty())
            std::fprintf(stderr, "cell failed: %s\n", r.firstError.c_str());
    }
};

/** Peak resident set of this process since the last reset, MiB. */
double
peakRssMiB()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    throw std::runtime_error("VmHWM not found in /proc/self/status");
}

/** Reset the peak resident set to the current one (Linux >= 4.0). */
void
resetPeakRss()
{
    std::ofstream("/proc/self/clear_refs") << "5";
}

void
printResult(const Totals &t, const std::map<std::string, Metric> &metrics)
{
    for (const auto &[name, m] : metrics)
        if (!std::isfinite(m.value))
            throw std::runtime_error("metric " + name + " is not finite");
    for (const std::string &f : t.failures)
        std::fprintf(stderr, "check failed: %s\n", f.c_str());
    std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
                "\"metrics\": {",
                t.failures.empty() ? "true" : "false", t.attempted,
                t.attempted - t.succeeded);
    const char *sep = "";
    for (const auto &[name, m] : metrics) {
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", sep,
                    name.c_str(), m.value, m.unit.c_str());
        sep = ", ";
    }
    std::printf("}}\n");
}

double
ratio(double num, double den)
{
    return den != 0.0 ? num / den : 0.0;
}

/**
 * Times @p body and scales it to the reference host: each timing is
 * multiplied by kReferenceNominalSeconds over the mean of the
 * reference kernel's times just before and just after it, so a host
 * running 1.5x slower for a minute slows both and largely cancels. The
 * peak resident set is reset before and read after each body, so the
 * reference kernel's buffers never count towards peakMiB.
 */
class ScaledTimer
{
  public:
    ScaledTimer() : before_(referenceSeconds()) {}

    /** Run @p body; returns {raw seconds, scaled seconds}. */
    template <typename Body>
    std::pair<double, double>
    time(Body &&body)
    {
        resetPeakRss();
        const auto t0 = Clock::now();
        body();
        const double raw = since(t0);
        peakMiB = std::max(peakMiB, peakRssMiB());
        const double after = referenceSeconds();
        references.push_back(after);
        const double scaled =
            raw * kReferenceNominalSeconds / ((before_ + after) / 2.0);
        before_ = after;
        return {raw, scaled};
    }

    /** Every reference time taken after a timed body. */
    std::vector<double> references;

    /** Peak resident set over the timed bodies, MiB. */
    double peakMiB = 0.0;

  private:
    double before_;
};

int
endToEnd(Workload &wl, std::uint64_t seed, double seconds)
{
    ScaledTimer timer;
    std::vector<double> setups, rawSetups;
    const auto s0 = Clock::now();
    while (setups.size() < kMinSetups ||
           (setups.size() < kMaxSetups && since(s0) < kSetupShare * seconds)) {
        const auto [raw, scaled] = timer.time([&] { wl.setup(seed, nullptr); });
        rawSetups.push_back(raw);
        setups.push_back(scaled);
    }

    Totals totals;
    std::vector<double> rates, rawRates;
    const auto m0 = Clock::now();
    while (rates.size() < kMinReps || since(m0) < seconds) {
        RepResult r;
        const auto [raw, scaled] =
            timer.time([&] { r = wl.rep(rates.size(), nullptr); });
        totals.add(r, "untraced");
        rawRates.push_back(static_cast<double>(r.retired) / raw);
        rates.push_back(static_cast<double>(r.retired) / scaled);
    }

    std::map<std::string, Metric> metrics;
    metrics["setup_s"] = {median(setups), "s"};
    metrics["jobs_per_s"] = {median(rates), "jobs/s"};
    metrics["peak_rss_mb"] = {timer.peakMiB, "MiB"};
    metrics["success_rate"] = {
        ratio(static_cast<double>(totals.succeeded),
              static_cast<double>(totals.attempted)),
        "fraction"};
    for (const auto &[name, m] : wl.extraMetrics())
        metrics[name] = {m.first, m.second};

    const auto sq = quartiles(setups);
    const auto rq = quartiles(rates);
    std::fprintf(stderr,
                 "%zu set-ups (scaled s quartiles %.4g/%.4g/%.4g; raw "
                 "median %.4g), %zu repetitions (scaled jobs/s quartiles "
                 "%.4g/%.4g/%.4g; raw median %.4g), reference median "
                 "%.4g s, digest %016llx\n",
                 setups.size(), sq[0], sq[1], sq[2], median(rawSetups),
                 rates.size(), rq[0], rq[1], rq[2], median(rawRates),
                 median(timer.references),
                 static_cast<unsigned long long>(totals.digests.at(0)));
    printResult(totals, metrics);
    return 0;
}

/** The per-layer metrics, with their units, in output order. */
const std::vector<std::pair<const char *, const char *>> &
layerMetrics()
{
    static const std::vector<std::pair<const char *, const char *>> m = {
        {"runner.cell_s", "s"},          {"runner.overhead_s", "s"},
        {"runner.rows_s", "s"},          {"vectorizer.compile_s", "s"},
        {"vectorizer.programs", "count"}, {"vectorizer.instrs", "count"},
        {"offload.decisions", "count"},  {"offload.select_ns", "ns"},
        {"core.submit_s", "s"},          {"core.drain_s", "s"},
        {"core.warm_build_s", "s"},      {"core.fork_s", "s"},
        {"core.images", "count"},        {"core.admit_wait_us", "us"},
        {"sim.events", "count"},         {"sim.ns_per_event", "ns"},
        {"cluster.submit_s", "s"},       {"cluster.drain_s", "s"},
        {"cluster.probes", "count"},     {"cluster.imbalance", "ratio"},
        {"ftl.map_hits", "count"},       {"ftl.map_misses", "count"},
        {"ftl.map_hit_ratio", "ratio"},  {"ftl.gc_runs", "count"},
        {"ftl.gc_migrations", "count"},  {"ftl.write_amp", "ratio"},
        {"nand.reads", "count"},         {"nand.programs", "count"},
        {"nand.erases", "count"},        {"ifp.ops", "count"},
        {"nand.die_busy", "us"},         {"reliability.ecc_retries", "count"},
        {"reliability.retry_per_read", "ratio"},
        {"reliability.soft_decodes", "count"},
        {"reliability.scrub_passes", "count"},
        {"reliability.retired_blocks", "count"},
        {"dram.accesses", "count"},      {"pud.ops", "count"},
        {"pud.busy", "us"},              {"isp.ops", "count"},
        {"isp.busy", "us"},              {"host.cells", "count"},
        {"host.cell_s", "s"},            {"trace.overhead", "ratio"},
        {"sim.makespan_us", "us"},       {"sim.p99_sojourn_us", "us"},
        {"sim.energy_j", "J"},
    };
    return m;
}

int
traced(Workload &wl, std::uint64_t seed, double seconds,
       const std::string &name)
{
    Recorder rec;
    rec.beginRep(-1);
    {
        Recorder::Scope span(&rec, "setup");
        wl.setup(seed, &rec);
    }

    // Iteration k runs repetition k untraced, then traced, so both
    // paths see the same input schedule and their digests must agree.
    Totals totals;
    std::vector<double> plain, tracedTimes, selectNs;
    std::map<std::size_t, int> firstOfSchedule;
    const auto m0 = Clock::now();
    int k = 0;
    while (tracedTimes.size() < kMinReps || since(m0) < seconds) {
        const auto t0 = Clock::now();
        totals.add(wl.rep(static_cast<std::size_t>(k), nullptr),
                   "untraced");
        plain.push_back(since(t0));

        rec.beginRep(k);
        const std::uint64_t decisions = rec.decisions;
        const std::uint64_t probes = rec.probes;
        const double select = rec.selectSeconds;
        const auto t1 = Clock::now();
        const RepResult r = wl.rep(static_cast<std::size_t>(k), &rec);
        tracedTimes.push_back(since(t1));
        totals.add(r, "traced");
        rec.count("offload.decisions",
                  static_cast<double>(rec.decisions - decisions));
        rec.count("cluster.probes", static_cast<double>(rec.probes - probes));
        selectNs.push_back(
            ratio((rec.selectSeconds - select) * 1e9,
                  static_cast<double>(rec.decisions - decisions)));
        const auto [first, isFirst] = firstOfSchedule.emplace(r.schedule, k);
        if (!isFirst && rec.counts(k) != rec.counts(first->second))
            totals.failures.push_back(
                "traced repetition " + std::to_string(k) +
                " counts differ from its schedule's first");
        ++k;
    }

    // Host times: medians over the traced repetitions.
    std::map<std::string, std::vector<double>> spans;
    for (int r = 0; r < k; ++r) {
        auto t = rec.spanTotals(r);
        const double events = rec.counts(r).count("sim.events")
            ? rec.counts(r).at("sim.events")
            : 0.0;
        spans["runner.cell_s"].push_back(t["cell"]);
        spans["runner.overhead_s"].push_back(t["rep"] - t["cell"]);
        spans["runner.rows_s"].push_back(t["runner.rows"]);
        spans["core.submit_s"].push_back(t["core.submit"]);
        spans["core.drain_s"].push_back(t["core.drain"]);
        spans["core.fork_s"].push_back(t["core.fork"]);
        spans["cluster.submit_s"].push_back(t["cluster.submit"]);
        spans["cluster.drain_s"].push_back(t["cluster.drain"]);
        spans["host.cell_s"].push_back(t["host.cell"]);
        spans["sim.ns_per_event"].push_back(ratio(t["cell"] * 1e9, events));
    }
    std::map<std::string, double> v;
    for (const auto &[n, xs] : spans)
        v[n] = median(xs);
    auto setupSpans = rec.spanTotals(-1);
    v["vectorizer.compile_s"] = setupSpans["vectorizer.compile"];
    v["core.warm_build_s"] = setupSpans["core.warm_build"];
    v["offload.select_ns"] = median(selectNs);
    v["trace.overhead"] = median(tracedTimes) / median(plain);

    // Counts and simulated values: the first traced repetition's
    // (schedule 0).
    auto c = rec.counts(0);
    for (const auto &[n, x] : rec.counts(-1))
        c[n] += x;
    const auto get = [&](const char *n) {
        return c.count(n) ? c.at(n) : 0.0;
    };
    for (const char *n :
         {"vectorizer.programs", "vectorizer.instrs", "offload.decisions",
          "core.images", "sim.events", "cluster.probes",
          "cluster.imbalance", "ftl.map_hits", "ftl.map_misses",
          "ftl.gc_runs", "ftl.gc_migrations", "nand.reads", "nand.programs",
          "nand.erases", "ifp.ops", "nand.die_busy", "dram.accesses",
          "pud.ops", "pud.busy", "isp.ops", "isp.busy", "host.cells",
          "sim.makespan_us", "sim.p99_sojourn_us", "sim.energy_j"})
        v[n] = get(n);
    v["core.admit_wait_us"] = ratio(get("admit_wait_sum_us"), get("jobs"));
    v["ftl.map_hit_ratio"] = ratio(
        get("ftl.map_hits"), get("ftl.map_hits") + get("ftl.map_misses"));
    const double programs = get("nand.programs");
    const double migrations = get("ftl.gc_migrations");
    v["ftl.write_amp"] =
        programs > migrations ? programs / (programs - migrations) : 1.0;
    v["reliability.ecc_retries"] = get("rel.ecc_retries");
    v["reliability.soft_decodes"] = get("rel.soft_decodes");
    v["reliability.scrub_passes"] = get("rel.scrub_passes");
    v["reliability.retired_blocks"] = get("rel.retired_blocks");
    v["reliability.retry_per_read"] =
        ratio(get("rel.ecc_retries"), get("nand.reads"));

    std::map<std::string, Metric> metrics;
    for (const auto &[n, unit] : layerMetrics())
        metrics[n] = {v.at(n), unit};

    std::fprintf(stderr, "%d traced repetitions; self seconds by span:\n",
                 k);
    for (const auto &[n, s] : rec.selfTotals())
        std::fprintf(stderr, "  %-22s %.6f\n", n.c_str(), s);
    std::filesystem::create_directories(".bench_out");
    const std::string path =
        ".bench_out/spans-" + name + "-seed" + std::to_string(seed) + ".csv";
    std::ofstream out(path);
    rec.writeSpans(out);
    if (!out)
        throw std::runtime_error("could not write " + path);
    printResult(totals, metrics);
    return 0;
}

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload NAME --seed N "
                 "--seconds S --trace 0|1\nworkloads:",
                 why);
    for (const std::string &n : workloadNames())
        std::fprintf(stderr, " %s", n.c_str());
    std::fprintf(stderr, "\n");
    std::exit(2);
}

/** Non-negative integer flag value, or usage-exit. */
unsigned long long
parseCount(const std::string &flag, const std::string &value)
{
    char *end = nullptr;
    errno = 0;
    const unsigned long long v = std::strtoull(value.c_str(), &end, 10);
    if (errno != 0 || value.empty() || value[0] == '-' || *end != '\0')
        usage(("invalid value for " + flag + ": '" + value + "'").c_str());
    return v;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workload;
    std::uint64_t seed = 1;
    unsigned long long seconds = 10;
    unsigned long long trace = 0;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + flag).c_str());
        const std::string value = argv[++i];
        if (flag == "--workload")
            workload = value;
        else if (flag == "--seed")
            seed = parseCount(flag, value);
        else if (flag == "--seconds")
            seconds = parseCount(flag, value);
        else if (flag == "--trace")
            trace = parseCount(flag, value);
        else
            usage(("unknown flag " + flag).c_str());
    }
    if (seconds == 0 || trace > 1)
        usage("--seconds must be positive and --trace 0 or 1");
    auto wl = makeWorkload(workload);
    if (!wl)
        usage(("unknown workload '" + workload + "'").c_str());
    try {
        return trace ? traced(*wl, seed, static_cast<double>(seconds),
                              workload)
                     : endToEnd(*wl, seed, static_cast<double>(seconds));
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
}
