/**
 * @file
 * Sweep result aggregation and emission.
 *
 * SweepResult pairs every RunSpec with its RunResult in spec order
 * (independent of how the sweep was scheduled across threads). Every
 * row shape the benches emit (SweepResult, LoadRow, AgingRow,
 * ClusterRow) projects onto one RowTable through toTable(); the
 * table alone knows the CSV / JSON formats.
 */

#ifndef CONDUIT_RUNNER_SWEEP_RESULT_HH
#define CONDUIT_RUNNER_SWEEP_RESULT_HH

#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

#include "src/cluster/cluster.hh"
#include "src/core/device.hh"
#include "src/runner/run_spec.hh"

namespace conduit::runner
{

/** All rows of one executed sweep, in matrix (spec) order. */
class SweepResult
{
  public:
    SweepResult() = default;
    SweepResult(std::vector<RunSpec> specs,
                std::vector<RunResult> results, double wall_seconds,
                unsigned threads);

    std::size_t size() const { return results_.size(); }

    const std::vector<RunSpec> &specs() const { return specs_; }
    const std::vector<RunResult> &results() const { return results_; }

    const RunSpec &spec(std::size_t i) const { return specs_.at(i); }
    const RunResult &result(std::size_t i) const
    {
        return results_.at(i);
    }

    /** First row matching the labels, or nullptr. */
    const RunResult *find(const std::string &workload,
                          const std::string &technique) const;

    /** Like find(), but throws std::out_of_range when absent. */
    const RunResult &at(const std::string &workload,
                        const std::string &technique) const;

    /** Distinct workload labels in first-appearance order. */
    std::vector<std::string> workloadLabels() const;

    /** Distinct technique labels in first-appearance order. */
    std::vector<std::string> techniqueLabels() const;

    /** Host wall-clock the sweep took (not simulated time). */
    double wallSeconds() const { return wallSeconds_; }

    /** Worker threads the sweep actually used. */
    unsigned threads() const { return threads_; }

    /** toTable(*this).writeCsv(os); kept only because the
     *  benchmark harness (perfbench/) calls it and stays frozen. */
    void writeCsv(std::ostream &os) const;

  private:
    std::vector<RunSpec> specs_;
    std::vector<RunResult> results_;
    double wallSeconds_ = 0.0;
    unsigned threads_ = 1;
};

/**
 * One emitted row of an offered-load (saturation) sweep: a cell's
 * operating point plus its throughput and latency-tail outcomes.
 */
struct LoadRow
{
    std::string workload;
    std::string technique;

    /** Offered load (jobs per simulated second; 0 = all at t=0). */
    double jobsPerSec = 0.0;

    /** Jobs the cell completed. */
    std::uint64_t jobs = 0;

    double makespanMs = 0.0;

    /** Achieved completion rate: jobs / makespan. */
    double throughputJobsPerSec = 0.0;

    /** Mean job arrival-to-completion time. */
    double meanSojournMs = 0.0;

    /** Per-request (instruction) latency tail, device-wide. */
    double p50Us = 0.0;
    double p99Us = 0.0;
    double p9999Us = 0.0;
};

/** Reduce an executed cell's snapshot to its emitted row. */
LoadRow makeLoadRow(const LoadRunSpec &spec,
                    const DeviceSnapshot &snap);

/**
 * One emitted row of a device-aging sweep: the offered-load row
 * fields plus the device's age and its reliability outcomes.
 */
struct AgingRow
{
    /** The traffic cell's operating point and outcomes. */
    LoadRow load;

    /** Device age the cell ran at. */
    std::uint32_t preWearCycles = 0;
    double retentionDays = 0.0;

    /** Reliability outcomes of the cell's device lifetime. */
    reliability::ReliabilityStats rel;
};

/** Reduce an executed aging cell's snapshot to its emitted row. */
AgingRow makeAgingRow(const AgingRunSpec &spec,
                      const DeviceSnapshot &snap);

/**
 * One emitted row of a fleet sweep. A cell emits one "fleet" row
 * (fleet-wide throughput, tails, utilization spread, imbalance)
 * followed by one row per tenant (its share of the load, its tail,
 * its SLO attainment). Fleet-level columns repeat on tenant rows so
 * every row is self-describing.
 */
struct ClusterRow
{
    /** Cell label (ClusterRunSpec::label). */
    std::string label;

    /** Placement policy the cell routed with. */
    std::string placement;

    /** Fleet size (devices). */
    std::size_t devices = 0;

    /** "fleet" for the aggregate row, else the tenant's name. */
    std::string tenant;

    /** Offered load for this row's scope (jobs per simulated sec). */
    double jobsPerSec = 0.0;

    /** Jobs this row's scope completed (measured phase only). */
    std::uint64_t jobs = 0;

    /** Fleet measured span (first arrival epoch to last job end). */
    double makespanMs = 0.0;

    /** Achieved completion rate for this row's scope. */
    double throughputJobsPerSec = 0.0;

    /** Mean job arrival-to-completion time for this row's scope. */
    double meanSojournMs = 0.0;

    /** Per-request (instruction) latency tail for this scope. */
    double p50Us = 0.0;
    double p99Us = 0.0;
    double p9999Us = 0.0;

    /** Job-sojourn tail for this scope (SLOs are sojourn-based). */
    double sojournP99Ms = 0.0;

    /** Tenant SLO (ms); 0 on the fleet row and SLO-less tenants. */
    double sloMs = 0.0;

    /** Fraction of jobs meeting their SLO (1.0 when none is set;
     *  the fleet row weights tenants by completed jobs). */
    double sloAttainment = 1.0;

    /** @name Fleet-level balance (same values on every row) @{ */

    /** Mean/max per-device occupancy: sum of per-job residency
     *  (end - admitted) over the measured span. */
    double utilMean = 0.0;
    double utilMax = 0.0;

    /** Routing imbalance: devices * max routed / total routed
     *  (1.0 = perfectly even). */
    double imbalance = 0.0;

    /** @} */
};

/** Reduce an executed fleet cell to its rows (fleet + tenants). */
std::vector<ClusterRow>
makeClusterRows(const ClusterRunSpec &spec,
                const cluster::ClusterSnapshot &snap);

/**
 * Emitted result rows, format-agnostic: each row is the same ordered
 * list of named fields (the header comes from the first row). Built
 * by toTable() from any row shape; the writers are byte-identical
 * for identical specs, whatever thread count the sweep ran with.
 */
class RowTable
{
  public:
    /** One named value; quoted fields are strings in CSV and JSON. */
    struct Field
    {
        const char *name;
        std::string value;
        bool quoted;
    };
    using Row = std::vector<Field>;

    explicit RowTable(std::vector<Row> rows) : rows_(std::move(rows)) {}

    /** Header line, then one line per row (nothing when empty). */
    void writeCsv(std::ostream &os) const;

    /** A JSON array of one object per row (same fields as the CSV). */
    void writeJson(std::ostream &os) const;

    /**
     * Write the table to @p path as CSV, or JSON when @p json.
     * @return false when the file could not be written.
     */
    bool writeFile(const std::string &path, bool json) const;

  private:
    std::vector<Row> rows_;
};

/** @name Row projections: the only per-shape emission code @{ */
RowTable toTable(const SweepResult &sweep);
RowTable toTable(const std::vector<LoadRow> &rows);
RowTable toTable(const std::vector<AgingRow> &rows);
RowTable toTable(const std::vector<ClusterRow> &rows);
/** @} */

/** @name toTable(rows).writeCsv(os); kept only because the benchmark
 *  harness (perfbench/) calls them and stays frozen @{ */
void writeAgingCsv(std::ostream &os,
                   const std::vector<AgingRow> &rows);
void writeClusterCsv(std::ostream &os,
                     const std::vector<ClusterRow> &rows);
/** @} */

/** Geometric mean of a vector of ratios (0 if empty). */
double gmean(const std::vector<double> &xs);

/** Print a header row for a workload-major table to stdout. */
void printHeader(const std::vector<std::string> &columns);

} // namespace conduit::runner

#endif // CONDUIT_RUNNER_SWEEP_RESULT_HH
