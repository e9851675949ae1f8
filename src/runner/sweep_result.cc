#include "src/runner/sweep_result.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <ostream>
#include <stdexcept>

#include "src/sim/types.hh"

namespace conduit::runner
{

namespace
{

/**
 * Shortest decimal that round-trips a double, so emitted rows are
 * byte-stable across runs and thread counts.
 */
std::string
fmtDouble(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    double parsed = 0.0;
    for (int prec = 1; prec <= 16; ++prec) {
        char probe[64];
        std::snprintf(probe, sizeof probe, "%.*g", prec, v);
        if (std::sscanf(probe, "%lf", &parsed) == 1 && parsed == v)
            return probe;
    }
    return buf;
}

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    return out;
}

using Row = RowTable::Row;

Row
rowFields(const RunSpec &spec, const RunResult &r)
{
    const auto u64 = [](std::uint64_t v) { return std::to_string(v); };
    const auto &h = r.latencyUs;
    return {
        {"workload", spec.workload, true},
        {"technique", spec.technique, true},
        {"exec_time_ps", u64(r.execTime), false},
        {"instr_count", u64(r.instrCount), false},
        {"isp_instrs", u64(r.perResource[0]), false},
        {"pud_instrs", u64(r.perResource[1]), false},
        {"ifp_instrs", u64(r.perResource[2]), false},
        {"dm_energy_j", fmtDouble(r.dmEnergyJ), false},
        {"compute_energy_j", fmtDouble(r.computeEnergyJ), false},
        {"latency_count", u64(h.count()), false},
        {"latency_p50_us",
         fmtDouble(h.count() ? h.percentile(50) : 0.0), false},
        {"latency_p99_us",
         fmtDouble(h.count() ? h.percentile(99) : 0.0), false},
        {"latency_p9999_us",
         fmtDouble(h.count() ? h.percentile(99.99) : 0.0), false},
        {"latency_max_us", fmtDouble(h.max()), false},
        {"compute_busy_ps", u64(r.computeBusy), false},
        {"internal_dm_busy_ps", u64(r.internalDmBusy), false},
        {"flash_read_busy_ps", u64(r.flashReadBusy), false},
        {"host_dm_busy_ps", u64(r.hostDmBusy), false},
        {"offloader_busy_ps", u64(r.offloaderBusy), false},
        {"faults_injected", u64(r.faultsInjected), false},
        {"replays", u64(r.replays), false},
        {"coherence_commits", u64(r.coherenceCommits), false},
        {"latch_evictions", u64(r.latchEvictions), false},
    };
}

/** Project every element of @p rows through @p fields. */
template <typename T, typename Fields>
RowTable
project(const std::vector<T> &rows, const Fields &fields)
{
    std::vector<Row> out;
    out.reserve(rows.size());
    for (const T &row : rows)
        out.push_back(fields(row));
    return RowTable(std::move(out));
}

} // namespace

SweepResult::SweepResult(std::vector<RunSpec> specs,
                         std::vector<RunResult> results,
                         double wall_seconds, unsigned threads)
    : specs_(std::move(specs)), results_(std::move(results)),
      wallSeconds_(wall_seconds), threads_(threads)
{
    if (specs_.size() != results_.size())
        throw std::logic_error("SweepResult: specs/results mismatch");
}

const RunResult *
SweepResult::find(const std::string &workload,
                  const std::string &technique) const
{
    for (std::size_t i = 0; i < specs_.size(); ++i) {
        if (specs_[i].workload == workload &&
            specs_[i].technique == technique)
            return &results_[i];
    }
    return nullptr;
}

const RunResult &
SweepResult::at(const std::string &workload,
                const std::string &technique) const
{
    if (const RunResult *r = find(workload, technique))
        return *r;
    throw std::out_of_range("SweepResult: no row for (" + workload +
                            ", " + technique + ")");
}

namespace
{

std::vector<std::string>
uniqueLabels(const std::vector<RunSpec> &specs,
             std::string RunSpec::*field)
{
    std::vector<std::string> out;
    for (const auto &s : specs) {
        const std::string &label = s.*field;
        if (std::find(out.begin(), out.end(), label) == out.end())
            out.push_back(label);
    }
    return out;
}

} // namespace

std::vector<std::string>
SweepResult::workloadLabels() const
{
    return uniqueLabels(specs_, &RunSpec::workload);
}

std::vector<std::string>
SweepResult::techniqueLabels() const
{
    return uniqueLabels(specs_, &RunSpec::technique);
}

void
SweepResult::writeCsv(std::ostream &os) const
{
    toTable(*this).writeCsv(os);
}

void
RowTable::writeCsv(std::ostream &os) const
{
    if (rows_.empty())
        return;
    const Row &first = rows_.front();
    for (std::size_t f = 0; f < first.size(); ++f)
        os << (f ? "," : "") << first[f].name;
    os << "\n";
    for (const Row &fields : rows_) {
        for (std::size_t f = 0; f < fields.size(); ++f) {
            if (f)
                os << ",";
            if (fields[f].quoted)
                os << '"' << fields[f].value << '"';
            else
                os << fields[f].value;
        }
        os << "\n";
    }
}

void
RowTable::writeJson(std::ostream &os) const
{
    os << "[\n";
    for (std::size_t i = 0; i < rows_.size(); ++i) {
        const Row &fields = rows_[i];
        os << "  {";
        for (std::size_t f = 0; f < fields.size(); ++f) {
            if (f)
                os << ", ";
            os << '"' << fields[f].name << "\": ";
            if (fields[f].quoted)
                os << '"' << jsonEscape(fields[f].value) << '"';
            else
                os << fields[f].value;
        }
        os << (i + 1 < rows_.size() ? "},\n" : "}\n");
    }
    os << "]\n";
}

bool
RowTable::writeFile(const std::string &path, bool json) const
{
    std::ofstream os(path);
    if (!os)
        return false;
    if (json)
        writeJson(os);
    else
        writeCsv(os);
    return static_cast<bool>(os);
}

RowTable
toTable(const SweepResult &sweep)
{
    std::vector<Row> rows;
    rows.reserve(sweep.size());
    for (std::size_t i = 0; i < sweep.size(); ++i)
        rows.push_back(rowFields(sweep.spec(i), sweep.result(i)));
    return RowTable(std::move(rows));
}

namespace
{

Row
loadRowFields(const LoadRow &r)
{
    return {
        {"workload", r.workload, true},
        {"technique", r.technique, true},
        {"jobs_per_sec", fmtDouble(r.jobsPerSec), false},
        {"jobs", std::to_string(r.jobs), false},
        {"makespan_ms", fmtDouble(r.makespanMs), false},
        {"throughput_jobs_per_sec",
         fmtDouble(r.throughputJobsPerSec), false},
        {"mean_sojourn_ms", fmtDouble(r.meanSojournMs), false},
        {"latency_p50_us", fmtDouble(r.p50Us), false},
        {"latency_p99_us", fmtDouble(r.p99Us), false},
        {"latency_p9999_us", fmtDouble(r.p9999Us), false},
    };
}

Row
agingRowFields(const AgingRow &r)
{
    Row fields = loadRowFields(r.load);
    // The age axis sits right after the identity columns so grouped
    // (workload, technique) blocks read as age ladders.
    const Row age = {
        {"pre_wear_cycles", std::to_string(r.preWearCycles), false},
        {"retention_days", fmtDouble(r.retentionDays), false},
    };
    fields.insert(fields.begin() + 2, age.begin(), age.end());
    const reliability::ReliabilityStats &s = r.rel;
    fields.push_back({"retried_reads",
                      std::to_string(s.retriedReads), false});
    fields.push_back({"ecc_retries",
                      std::to_string(s.eccRetries), false});
    fields.push_back({"soft_decodes",
                      std::to_string(s.softDecodes), false});
    fields.push_back({"uncorrectable_reads",
                      std::to_string(s.uncorrectableReads), false});
    fields.push_back({"retired_blocks",
                      std::to_string(s.retiredBlocks), false});
    fields.push_back({"scrub_passes",
                      std::to_string(s.scrubPasses), false});
    fields.push_back({"scrub_refreshes",
                      std::to_string(s.scrubRefreshes), false});
    return fields;
}

} // namespace

LoadRow
makeLoadRow(const LoadRunSpec &spec, const DeviceSnapshot &snap)
{
    LoadRow r;
    r.workload = displayName(spec.workload, spec.workloadId, spec.program);
    r.technique = spec.technique;
    r.jobsPerSec = spec.jobsPerSec;

    // With a warm phase, report the measured phase only: the first
    // warmupJobs entries (submission-ordered) exist to reach steady
    // state. Both warm-phase modes carry identical warm JobResults
    // — in-place replay retires them, a fork inherits them from the
    // image — so rows diff clean between cold and fork sweeps.
    const std::size_t warm =
        std::min<std::size_t>(spec.warmupJobs, snap.jobs.size());
    const std::size_t measured = snap.jobs.size() - warm;
    Tick warmEnd = 0;
    for (std::size_t i = 0; i < warm; ++i)
        warmEnd = std::max(warmEnd, snap.jobs[i].end);
    const Tick span =
        snap.makespan > warmEnd ? snap.makespan - warmEnd : 0;

    r.jobs = measured;
    r.makespanMs = ticksToUs(span) / 1000.0;
    r.throughputJobsPerSec = span == 0
        ? 0.0
        : static_cast<double>(measured) / ticksToSeconds(span);
    double sojourn = 0.0;
    for (std::size_t i = warm; i < snap.jobs.size(); ++i)
        sojourn += ticksToUs(snap.jobs[i].sojourn()) / 1000.0;
    r.meanSojournMs = measured == 0
        ? 0.0
        : sojourn / static_cast<double>(measured);
    Histogram measuredLat;
    if (warm > 0)
        for (std::size_t i = warm; i < snap.jobs.size(); ++i)
            measuredLat.merge(snap.jobs[i].result.latencyUs);
    const Histogram &h =
        warm > 0 ? measuredLat : snap.aggregate.latencyUs;
    r.p50Us = h.count() ? h.percentile(50) : 0.0;
    r.p99Us = h.count() ? h.percentile(99) : 0.0;
    r.p9999Us = h.count() ? h.percentile(99.99) : 0.0;
    return r;
}

RowTable
toTable(const std::vector<LoadRow> &rows)
{
    return project(rows, loadRowFields);
}

AgingRow
makeAgingRow(const AgingRunSpec &spec, const DeviceSnapshot &snap)
{
    AgingRow r;
    r.load = makeLoadRow(spec.load, snap);
    r.preWearCycles = spec.preWearCycles;
    r.retentionDays = spec.retentionDays;
    r.rel = snap.reliability;
    return r;
}

RowTable
toTable(const std::vector<AgingRow> &rows)
{
    return project(rows, agingRowFields);
}

void
writeAgingCsv(std::ostream &os, const std::vector<AgingRow> &rows)
{
    toTable(rows).writeCsv(os);
}

namespace
{

Row
clusterRowFields(const ClusterRow &r)
{
    return {
        {"label", r.label, true},
        {"placement", r.placement, true},
        {"devices", std::to_string(r.devices), false},
        {"tenant", r.tenant, true},
        {"jobs_per_sec", fmtDouble(r.jobsPerSec), false},
        {"jobs", std::to_string(r.jobs), false},
        {"makespan_ms", fmtDouble(r.makespanMs), false},
        {"throughput_jobs_per_sec",
         fmtDouble(r.throughputJobsPerSec), false},
        {"mean_sojourn_ms", fmtDouble(r.meanSojournMs), false},
        {"latency_p50_us", fmtDouble(r.p50Us), false},
        {"latency_p99_us", fmtDouble(r.p99Us), false},
        {"latency_p9999_us", fmtDouble(r.p9999Us), false},
        {"sojourn_p99_ms", fmtDouble(r.sojournP99Ms), false},
        {"slo_ms", fmtDouble(r.sloMs), false},
        {"slo_attainment", fmtDouble(r.sloAttainment), false},
        {"util_mean", fmtDouble(r.utilMean), false},
        {"util_max", fmtDouble(r.utilMax), false},
        {"imbalance", fmtDouble(r.imbalance), false},
    };
}

/** Nearest-rank percentile of an unsorted sample (copies & sorts). */
double
nearestRank(std::vector<double> xs, double pct)
{
    if (xs.empty())
        return 0.0;
    std::sort(xs.begin(), xs.end());
    const double rank =
        std::ceil(pct / 100.0 * static_cast<double>(xs.size()));
    const std::size_t idx = rank < 1.0
        ? 0
        : std::min(xs.size() - 1, static_cast<std::size_t>(rank) - 1);
    return xs[idx];
}

} // namespace

std::vector<ClusterRow>
makeClusterRows(const ClusterRunSpec &spec,
                const cluster::ClusterSnapshot &snap)
{
    using cluster::RoutedJob;

    // Warm traffic lives in the per-device histories (forked from
    // the warm images); snap.routed holds exactly the measured jobs,
    // so every reduction below is over the routed record.
    Tick maxEnd = snap.base;
    for (std::size_t r = 0; r < snap.routed.size(); ++r)
        maxEnd = std::max(maxEnd, snap.result(r).end);
    const Tick span = maxEnd - snap.base;
    const double spanSec = ticksToSeconds(span);

    ClusterRow proto;
    proto.label = spec.label;
    proto.placement = spec.placement;
    proto.devices = snap.devices.size();
    proto.makespanMs = ticksToUs(span) / 1000.0;

    // Fleet-level balance: per-device job residency and routed-job
    // counts over the measured span.
    std::vector<double> residency(snap.devices.size(), 0.0);
    std::vector<std::uint64_t> perDev(snap.devices.size(), 0);
    for (std::size_t r = 0; r < snap.routed.size(); ++r) {
        const RoutedJob &j = snap.routed[r];
        const JobResult &jr = snap.result(r);
        const Tick busy =
            jr.end > jr.admitted ? jr.end - jr.admitted : 0;
        residency[j.device] += ticksToSeconds(busy);
        ++perDev[j.device];
    }
    std::uint64_t maxRouted = 0;
    for (std::size_t d = 0; d < perDev.size(); ++d) {
        maxRouted = std::max(maxRouted, perDev[d]);
        const double util =
            spanSec > 0.0 ? residency[d] / spanSec : 0.0;
        proto.utilMean += util;
        proto.utilMax = std::max(proto.utilMax, util);
    }
    proto.utilMean /= static_cast<double>(snap.devices.size());
    proto.imbalance = snap.routed.empty()
        ? 0.0
        : static_cast<double>(snap.devices.size()) *
            static_cast<double>(maxRouted) /
            static_cast<double>(snap.routed.size());

    // Per-scope reductions: index 0 is the fleet, 1.. the tenants.
    const std::size_t scopes = 1 + spec.tenants.size();
    std::vector<ClusterRow> rows(scopes, proto);
    std::vector<Histogram> lat(scopes);
    std::vector<std::vector<double>> sojournsMs(scopes);
    std::vector<double> sojournSum(scopes, 0.0);
    std::vector<std::uint64_t> attained(scopes, 0);

    for (std::size_t r = 0; r < snap.routed.size(); ++r) {
        const RoutedJob &j = snap.routed[r];
        const JobResult &jr = snap.result(r);
        const double sojournMs = ticksToUs(jr.sojourn()) / 1000.0;
        const double sloMs = j.tenant < spec.tenants.size()
            ? spec.tenants[j.tenant].sloMs
            : 0.0;
        const bool ok = sloMs <= 0.0 || sojournMs <= sloMs;
        const std::size_t scope = 1 + j.tenant;
        for (std::size_t s : {std::size_t{0}, scope}) {
            if (s >= scopes)
                continue;
            ++rows[s].jobs;
            lat[s].merge(jr.result.latencyUs);
            sojournsMs[s].push_back(sojournMs);
            sojournSum[s] += sojournMs;
            if (ok)
                ++attained[s];
        }
    }

    double weightSum = 0.0;
    for (const ClusterTenant &t : spec.tenants)
        weightSum += t.weight;

    for (std::size_t s = 0; s < scopes; ++s) {
        ClusterRow &row = rows[s];
        if (s == 0) {
            row.tenant = "fleet";
            row.jobsPerSec = spec.jobsPerSec;
        } else {
            const ClusterTenant &t = spec.tenants[s - 1];
            row.tenant = displayName(t.name, t.workloadId, t.program);
            row.jobsPerSec = weightSum > 0.0
                ? spec.jobsPerSec * t.weight / weightSum
                : 0.0;
            row.sloMs = t.sloMs;
        }
        row.throughputJobsPerSec = spanSec > 0.0
            ? static_cast<double>(row.jobs) / spanSec
            : 0.0;
        row.meanSojournMs = row.jobs == 0
            ? 0.0
            : sojournSum[s] / static_cast<double>(row.jobs);
        row.p50Us = lat[s].count() ? lat[s].percentile(50) : 0.0;
        row.p99Us = lat[s].count() ? lat[s].percentile(99) : 0.0;
        row.p9999Us =
            lat[s].count() ? lat[s].percentile(99.99) : 0.0;
        row.sojournP99Ms = nearestRank(sojournsMs[s], 99.0);
        row.sloAttainment = row.jobs == 0
            ? 1.0
            : static_cast<double>(attained[s]) /
                static_cast<double>(row.jobs);
    }
    return rows;
}

RowTable
toTable(const std::vector<ClusterRow> &rows)
{
    return project(rows, clusterRowFields);
}

void
writeClusterCsv(std::ostream &os, const std::vector<ClusterRow> &rows)
{
    toTable(rows).writeCsv(os);
}

double
gmean(const std::vector<double> &xs)
{
    if (xs.empty())
        return 0.0;
    double acc = 0.0;
    for (double x : xs)
        acc += std::log(x);
    return std::exp(acc / static_cast<double>(xs.size()));
}

void
printHeader(const std::vector<std::string> &columns)
{
    std::printf("%-18s", "workload");
    for (const auto &c : columns)
        std::printf(" %14s", c.c_str());
    std::printf("\n");
}

} // namespace conduit::runner
