/**
 * @file
 * Declarative description of a simulation sweep.
 *
 * A RunSpec names one (workload, technique, config, engine-options)
 * combination; a RunMatrix crosses workload and technique axes into a
 * vector of specs. The benches express each paper figure's evaluation
 * matrix this way and hand it to SweepRunner instead of hand-rolling
 * nested loops around Simulation::run.
 */

#ifndef CONDUIT_RUNNER_RUN_SPEC_HH
#define CONDUIT_RUNNER_RUN_SPEC_HH

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/core/arrival.hh"
#include "src/core/device.hh"
#include "src/core/engine.hh"
#include "src/offload/policy.hh"
#include "src/sim/config.hh"
#include "src/workloads/workloads.hh"

namespace conduit::runner
{

/** Creates a fresh policy object for one run (must be reentrant). */
using PolicyFactory =
    std::function<std::unique_ptr<OffloadPolicy>()>;

/** Which host baseline (if any) a spec runs on. */
enum class HostKind { None, Cpu, Gpu };

/** Split a comma-separated filter list into trimmed labels. */
std::vector<std::string> splitCsv(const std::string &csv);

/** Comma-join labels for "accepted: …" error messages. */
std::string joinLabels(const std::vector<std::string> &labels);

/** First @p filter entry naming no @p labels entry, or nullptr. */
const std::string *findUnknown(const std::vector<std::string> &filter,
                               const std::vector<std::string> &labels);

/**
 * CLI-grade filter validation: report the first @p filter entry
 * naming no @p labels entry to stderr ("unknown <axis> '…';
 * accepted: …") and return false; true when every entry is known.
 */
bool reportUnknown(const std::vector<std::string> &filter,
                   const std::vector<std::string> &labels,
                   const char *axis);

/**
 * Display name of a cell's workload: @p label when set, else the
 * workload's name, else the program's own name (empty when there is
 * neither a workload nor a program).
 */
std::string displayName(const std::string &label,
                        const std::optional<WorkloadId> &id,
                        const std::shared_ptr<const Program> &program);

/**
 * The device every sweep runs on unless overridden: the Table 2
 * geometry scaled for seconds-long benches, matching SimOptions'
 * default so runner-driven benches reproduce the facade's numbers.
 */
inline SsdConfig
defaultSweepConfig()
{
    return SsdConfig::scaled(1.0 / 128.0);
}

/**
 * One cell of a sweep: everything needed to execute a single
 * independent run and label its result row.
 */
struct RunSpec
{
    /** Row label; defaults to the workload's display name. */
    std::string workload;

    /**
     * Column label. "CPU" and "GPU" select the host baselines; any
     * other name is resolved through makePolicy() unless @ref policy
     * is set.
     */
    std::string technique;

    /** Device configuration (seed included — see SweepRunner). */
    SsdConfig config = defaultSweepConfig();

    /** Engine options for this run. */
    EngineOptions engine;

    /** Workload-generator knobs (ignored with a custom program). */
    WorkloadParams params;

    /** Workload to build and compile (via the shared cache). */
    std::optional<WorkloadId> workloadId;

    /** Pre-compiled program overriding @ref workloadId. */
    std::shared_ptr<const Program> program;

    /**
     * Custom policy constructor overriding makePolicy(technique)
     * (used by the ablation bench for ConduitPolicy variants).
     */
    PolicyFactory policy;

    /**
     * Run on the host instead of the SSD engine. Left at None, the
     * technique labels "CPU" and "GPU" still select the baselines;
     * set it explicitly to run a host baseline under another label
     * (e.g. Fig. 4's "OSP").
     */
    HostKind host = HostKind::None;
};

/**
 * One tenant stream of a multi-stream cell: which workload it runs
 * and under which policy. Host baselines do not apply — streams
 * execute on the SSD engine by definition.
 */
struct StreamSlot
{
    /** Stream label; defaults to the workload's display name. */
    std::string workload;

    /** Policy name resolved via makePolicy() unless @ref policy. */
    std::string technique;

    /** Workload to build and compile (via the shared cache). */
    std::optional<WorkloadId> workloadId;

    /** Pre-compiled program overriding @ref workloadId. */
    std::shared_ptr<const Program> program;

    /** Custom policy constructor overriding makePolicy(technique). */
    PolicyFactory policy;
};

/**
 * One multi-tenant cell: N streams co-running on one simulated SSD.
 * The whole cell is a single deterministic device run; cells are
 * independent of each other, so a set of them can be swept across
 * worker threads exactly like single-stream RunSpecs.
 */
struct MultiRunSpec
{
    /** Cell label for reporting (e.g. "AES+jacobi-1d"). */
    std::string label;

    /**
     * Device the streams run on: null builds a fresh device from
     * @ref config, @ref engine and @ref params; an image forks it
     * (read-only and shareable across cells — forking deep-copies),
     * the streams then arriving together at the fork's clock and
     * compiling against the image's options.
     */
    std::shared_ptr<const DeviceImage> image;

    /** Device configuration the tenants share. */
    SsdConfig config = defaultSweepConfig();

    /** Engine options (device-wide) for this cell. */
    EngineOptions engine;

    /** Workload-generator knobs shared by the streams. */
    WorkloadParams params;

    /** The co-running tenants, in result order. */
    std::vector<StreamSlot> streams;
};

/**
 * One offered-load cell: an open-loop stream of identical jobs
 * offered to a persistent Device at a given arrival rate. The cell
 * is one deterministic device lifetime (arrivals included), so a
 * set of cells sweeps across worker threads exactly like RunSpecs.
 */
struct LoadRunSpec
{
    /**
     * Row label; left empty it defaults to the workload's display
     * name (or the program's own name) in runLoad and makeLoadRow.
     */
    std::string workload;

    /** Policy every job runs under (resolved via makePolicy). */
    std::string technique = "Conduit";

    /** Custom policy constructor overriding makePolicy(technique). */
    PolicyFactory policy;

    /** Device configuration for the cell. */
    SsdConfig config = defaultSweepConfig();

    /** Engine options (device-wide). */
    EngineOptions engine;

    /** Workload-generator knobs. */
    WorkloadParams params;

    /** Workload each job executes (via the shared compile cache). */
    std::optional<WorkloadId> workloadId;

    /** Pre-compiled program overriding @ref workloadId. */
    std::shared_ptr<const Program> program;

    /** Jobs offered over the cell's lifetime. */
    std::size_t jobs = 8;

    /**
     * Offered load in jobs per simulated second. 0 submits every
     * job at tick 0 (the closed-form batch degenerate case).
     */
    double jobsPerSec = 0.0;

    /** Arrival-process family (mean spacing is 1 / jobsPerSec). */
    ArrivalKind arrivals = ArrivalKind::Poisson;

    /** Seed for the randomized arrival processes. */
    std::uint64_t arrivalSeed = 1;

    /**
     * Device logical-page pool; 0 auto-sizes to the whole offered
     * job set (every job admitted on arrival; queueing then happens
     * only on device resources, not admission).
     */
    std::uint64_t capacityPages = 0;

    /**
     * @name Steady-state (warm-device) measurement
     *
     * With warmupJobs > 0 the cell runs two phases: warmupJobs jobs
     * of warm traffic (always under Conduit, not the cell's
     * technique, so cells differing only by policy share one warmed
     * image) drive the device to quiescence, then the
     * measured @ref jobs run on the warmed device (arrival gaps
     * continue the same process; result rows report the measured
     * phase). steadyState selects how the warm phase executes:
     * false replays it in place (cold two-phase), true forks the
     * device from a warm DeviceImage — byte-identical by the
     * fork-equivalence contract, but the image is built once and
     * shared across every cell with identical warm-phase inputs.
     * @{
     */

    /** Warm-traffic jobs before the measured phase (0 = cold run). */
    std::size_t warmupJobs = 0;

    /** Fork from a warm DeviceImage instead of replaying the warm
     *  phase in place. Requires warmupJobs > 0. */
    bool steadyState = false;

    /** @} */
};

/**
 * One device-aging cell: an offered-load cell executed on a device
 * fast-forwarded to a given age. The runner enables the reliability
 * subsystem on the cell's config and applies the fast-forward knobs,
 * so a ladder of AgingRunSpecs sweeps latency/throughput vs device
 * age under identical traffic. Cells are independent device
 * lifetimes and sweep across worker threads like every other cell
 * shape.
 */
struct AgingRunSpec
{
    /** The traffic offered to the aged device. */
    LoadRunSpec load;

    /** P/E cycles every block has absorbed before tick 0. */
    std::uint32_t preWearCycles = 0;

    /** Retention age of the resident data at tick 0, in days. */
    double retentionDays = 0.0;
};

/**
 * One tenant of a fleet cell: who is offering jobs to the cluster.
 * Each tenant is an independent open-loop arrival stream; the fleet
 * merges the streams in arrival order and the placement policy picks
 * a device per job.
 */
struct ClusterTenant
{
    /** Tenant label for reporting (defaults to the workload name). */
    std::string name;

    /** Workload every job of this tenant executes. */
    std::optional<WorkloadId> workloadId;

    /** Pre-compiled program overriding @ref workloadId. */
    std::shared_ptr<const Program> program;

    /** Policy the tenant's jobs run under (via makePolicy). */
    std::string technique = "Conduit";

    /**
     * Per-job latency objective in milliseconds; a job attains its
     * SLO when (end - arrival) <= sloMs. 0 disables attainment
     * accounting for this tenant (reported as 1.0).
     */
    double sloMs = 0.0;

    /**
     * Relative share of the offered load (jobs and rate split
     * proportionally across tenants; weights need not sum to 1).
     */
    double weight = 1.0;
};

/**
 * One fleet cell: N devices behind a placement policy, serving the
 * merged open-loop job streams of the tenants. The whole cell is one
 * sequential deterministic simulation — arrivals, routing decisions,
 * and per-device execution included — so a grid of fleet cells
 * sweeps across worker threads exactly like every other cell shape.
 */
struct ClusterRunSpec
{
    /** Cell label for reporting (e.g. "fleet4/least-backlog"). */
    std::string label;

    /** Placement policy name (resolved via cluster::makePlacement). */
    std::string placement = "round-robin";

    /** Seed for randomized placement policies. */
    std::uint64_t placementSeed = 1;

    /** Device configuration shared by the fleet. */
    SsdConfig config = defaultSweepConfig();

    /** Engine options (device-wide). */
    EngineOptions engine;

    /** Workload-generator knobs shared by the tenants. */
    WorkloadParams params;

    /** The tenants offering jobs, in reporting order. */
    std::vector<ClusterTenant> tenants;

    /** Fleet size (devices). */
    std::size_t devices = 1;

    /**
     * Device ages, in P/E cycles, assigned round-robin across the
     * fleet (device d gets ageMix[d % ageMix.size()]). Empty — or
     * all zero — runs a fresh fleet. Non-zero rungs enable the
     * reliability subsystem on those devices and pre-warm them via
     * shared per-rung DeviceImages (one image per distinct recipe).
     */
    std::vector<std::uint32_t> ageMix;

    /** Retention age applied with pre-wear: days per 1000 cycles. */
    double retentionDaysPerKCycle = 0.0;

    /** Jobs offered fleet-wide over the cell's lifetime. */
    std::size_t jobs = 64;

    /**
     * Offered fleet-wide load in jobs per simulated second. 0
     * submits every job at tick 0.
     */
    double jobsPerSec = 0.0;

    /** Arrival-process family (per tenant stream). */
    ArrivalKind arrivals = ArrivalKind::Poisson;

    /** Base seed for the randomized arrival processes (tenant t
     *  offsets it by t so streams are independent). */
    std::uint64_t arrivalSeed = 1;

    /** Per-device logical-page pool; 0 auto-sizes per device. */
    std::uint64_t capacityPages = 0;

    /**
     * Warm-traffic jobs per device before the measured phase (0 =
     * cold fleet). Warm devices are forked from shared DeviceImages
     * (one per distinct warm recipe — age rung included), so a sweep
     * builds each image once no matter how many cells share it.
     */
    std::size_t warmupJobs = 0;
};

/**
 * Builder crossing workload and technique axes into RunSpecs.
 *
 * Axis order is preserved: build() emits workload-major rows in the
 * exact order the axes were given, so result tables are stable
 * regardless of how the sweep is scheduled.
 */
class RunMatrix
{
  public:
    RunMatrix &config(const SsdConfig &cfg);
    RunMatrix &engine(const EngineOptions &opts);
    RunMatrix &params(const WorkloadParams &p);

    RunMatrix &workload(WorkloadId id);
    RunMatrix &workloads(const std::vector<WorkloadId> &ids);

    /** Add a custom-program row axis entry (e.g. a case study). */
    RunMatrix &program(const std::string &label,
                       std::shared_ptr<const Program> prog);

    RunMatrix &technique(const std::string &name);
    RunMatrix &techniques(const std::vector<std::string> &names);

    /** Add a custom-policy column axis entry (e.g. an ablation). */
    RunMatrix &technique(const std::string &label, PolicyFactory make);

    /** Add a host-baseline column under a custom label. */
    RunMatrix &hostTechnique(const std::string &label, bool gpu);

    /**
     * Keep only workloads / techniques whose display name appears in
     * the comma-separated list; an empty list keeps everything.
     * Used by the bench CLI to run reduced matrices (CI smoke).
     */
    RunMatrix &filterWorkloads(const std::string &csv);
    RunMatrix &filterTechniques(const std::string &csv);

    /** Append a fully explicit spec (bypasses the cross product). */
    RunMatrix &add(RunSpec spec);

    /** @name Axis labels (including extras), in axis order @{ */
    std::vector<std::string> workloadLabels() const;
    std::vector<std::string> techniqueLabels() const;
    /** @} */

    /** Cross product (workload-major), then explicit extras. */
    std::vector<RunSpec> build() const;

  private:
    struct WorkloadAxis
    {
        std::string label;
        std::optional<WorkloadId> id;
        std::shared_ptr<const Program> program;
    };

    struct TechniqueAxis
    {
        std::string label;
        PolicyFactory policy; // null → resolve by label
        HostKind host = HostKind::None;
    };

    SsdConfig config_ = defaultSweepConfig();
    EngineOptions engine_;
    WorkloadParams params_;
    std::vector<WorkloadAxis> workloads_;
    std::vector<TechniqueAxis> techniques_;
    std::vector<RunSpec> extras_;
    std::vector<std::string> workloadFilter_;
    std::vector<std::string> techniqueFilter_;
};

} // namespace conduit::runner

#endif // CONDUIT_RUNNER_RUN_SPEC_HH
