/**
 * @file
 * Thread-pooled sweep execution.
 *
 * SweepRunner executes a vector of cells across worker threads:
 * single-stream RunSpecs, multi-tenant MultiRunSpecs, offered-load,
 * aging and fleet cells. Every cell is fully independent — its own
 * core::Device (fresh, or forked from a shared read-only
 * DeviceImage), its own policy objects, and a deterministic seed
 * derived only from the spec — so the result of cell i is
 * bit-identical whether the sweep runs on 1 thread or N, and
 * whatever order the scheduler interleaves the workers in. Every
 * sweep goes through one loop (per-cell tracer, wall timing and
 * perf slot), and compiled programs are shared through an immutable
 * ProgramCache.
 */

#ifndef CONDUIT_RUNNER_SWEEP_RUNNER_HH
#define CONDUIT_RUNNER_SWEEP_RUNNER_HH

#include <string>
#include <vector>

#include "src/cluster/cluster.hh"
#include "src/core/device.hh"
#include "src/core/program_cache.hh"
#include "src/runner/run_spec.hh"
#include "src/runner/sweep_result.hh"
#include "src/trace/export.hh"

namespace conduit::runner
{

/** The compile-once cache lives in src/core (PR 3); the runner-facing
 *  name stays available so existing call sites keep reading. */
using conduit::ProgramCache;

/** Runner knobs. */
struct SweepOptions
{
    /** Worker threads; 0 = std::thread::hardware_concurrency(). */
    unsigned threads = 0;

    /**
     * Tracing config applied to every cell of a sweep (disabled by
     * default). Each traced cell gets its own Tracer — cells stay
     * independent, so traces are thread-count invariant like the
     * results — collected via lastTraces(). Warm-image builds never
     * trace: only the measured phase records events.
     */
    trace::TraceConfig trace;
};

/**
 * Wall-clock attribution of one sweep call: how long the sweep took,
 * how many cells it ran, and each cell's wall time and simulated
 * event count. SweepCli::finish prints the cell count and wall time
 * (plus the warm-phase cost) on stderr and writes the per-cell rows
 * to --cell-perf. The simulator's measured speed is perfbench's job
 * (BENCHMARK.json); this is the per-run breakdown a user reads
 * beside their own sweep.
 */
struct SweepPerf
{
    /**
     * Per-cell attribution: how long one cell took on its worker
     * and how many simulated events it fired, so a slow sweep
     * localizes to a workload instead of hiding in the sweep total.
     * Host-baseline cells report zero events.
     */
    struct CellPerf
    {
        std::string label;
        double wallSeconds = 0.0;
        std::uint64_t eventsFired = 0;

        double
        eventsPerSec() const
        {
            return wallSeconds > 0.0
                ? static_cast<double>(eventsFired) / wallSeconds
                : 0.0;
        }
    };

    double wallSeconds = 0.0;
    std::size_t cells = 0;
    /** One entry per cell, in spec order. */
    std::vector<CellPerf> perCell;

    /**
     * Warm-phase attribution of a steady-state sweep: wall spent
     * building the distinct warm DeviceImages (paid once, before the
     * cells fork) and how many distinct images were built. Zero for
     * cold sweeps. Not folded into wallSeconds — report it once,
     * beside the sweep time.
     */
    double warmupSeconds = 0.0;
    std::size_t warmupImages = 0;
};

/** Executes sweep matrices in parallel. */
class SweepRunner
{
  public:
    explicit SweepRunner(SweepOptions opts = {});

    /**
     * Execute every spec and return results in spec order. Throws
     * the first (by spec index) exception any run raised, after all
     * workers have stopped.
     */
    SweepResult run(std::vector<RunSpec> specs);

    /**
     * Execute one spec synchronously (also the per-worker body, so
     * serial and parallel execution are the same code path).
     */
    RunResult runOne(const RunSpec &spec);

    /**
     * Execute one multi-tenant cell: all of @p spec's streams co-run
     * as simultaneous jobs on one simulated SSD — a fresh device, or
     * a fork of spec.image. The snapshot lists the jobs an image
     * carried first, then one job per stream in slot order, each
     * labelled with its slot's technique. Deterministic for equal
     * specs.
     */
    DeviceSnapshot runMulti(const MultiRunSpec &spec);

    /**
     * Execute every multi-tenant cell across the worker pool and
     * return snapshots in spec order (cells are independent device
     * runs, so results are thread-count invariant like run()).
     */
    std::vector<DeviceSnapshot>
    runMultiAll(const std::vector<MultiRunSpec> &specs);

    /**
     * Execute one offered-load cell: a fresh persistent Device,
     * @p spec.jobs jobs submitted open-loop at the spec's arrival
     * rate, run to completion (eager retirement, so regions recycle
     * under sustained load). Deterministic for equal specs.
     */
    DeviceSnapshot runLoad(const LoadRunSpec &spec);

    /**
     * Execute every offered-load cell across the worker pool and
     * return snapshots in spec order (cells are independent device
     * lifetimes, so results are thread-count invariant like run()).
     */
    std::vector<DeviceSnapshot>
    runLoadAll(const std::vector<LoadRunSpec> &specs);

    /**
     * Build the warm DeviceImage of @p spec: a fresh device carried
     * through spec.warmupJobs jobs of warm traffic (the same arrival
     * process the cell uses, always under Conduit) and
     * snapshotted at quiescence. Cells whose warm-phase inputs are
     * equal produce byte-identical images, so one image can serve
     * every such cell read-only (each forked Device deep-copies).
     */
    DeviceImage buildWarmImage(const LoadRunSpec &spec);

    /**
     * Execute every aging cell — the spec's offered-load cell on a
     * device with the reliability subsystem enabled and fast-
     * forwarded to (preWearCycles, retentionDays) — across the worker
     * pool and return snapshots in spec order (thread-count invariant
     * like run()).
     */
    std::vector<DeviceSnapshot>
    runAgingAll(const std::vector<AgingRunSpec> &specs);

    /**
     * Execute one fleet cell: a cluster::Cluster of spec.devices
     * devices behind the spec's placement policy, serving the merged
     * open-loop tenant streams. One sequential deterministic
     * simulation — identical results on any thread count. Updates
     * lastPerf() (a fleet cell is a one-cell sweep).
     */
    cluster::ClusterSnapshot runCluster(const ClusterRunSpec &spec);

    /**
     * Execute every fleet cell across the worker pool and return
     * snapshots in spec order. Warm fleets share per-rung
     * DeviceImages: each distinct warm recipe (config, age rung,
     * warm traffic) builds once — lastPerf().warmupImages — and
     * every matching device in every cell forks it.
     */
    std::vector<cluster::ClusterSnapshot>
    runClusterAll(const std::vector<ClusterRunSpec> &specs);

    /**
     * Worker threads a sweep of @p jobs cells would use: the
     * --threads option (0 = hardware concurrency) clamped to the
     * job count.
     */
    unsigned workerCount(std::size_t jobs) const;

    /** The shared compile cache (shared across run() calls too). */
    ProgramCache &cache() { return cache_; }

    /**
     * Wall-clock attribution of the most recent sweep call (run(),
     * runMultiAll(), runLoadAll(), runAgingAll(), runClusterAll();
     * not updated by the single-cell entry points except
     * runCluster). Read it after the sweep returns — not
     * concurrently.
     */
    const SweepPerf &lastPerf() const { return perf_; }

    /**
     * Per-cell traces of the most recent sweep call, in spec order
     * (tracer null when tracing was disabled — host-baseline cells
     * keep an empty tracer so cell indices line up). Not updated by
     * the single-cell entry points except runCluster. Read after the
     * sweep returns — not concurrently.
     */
    const std::vector<trace::TraceCell> &
    lastTraces() const
    {
        return traceCells_;
    }

  private:
    /** Fresh per-cell tracer, or null when @p cfg is disabled. */
    static std::shared_ptr<trace::Tracer>
    makeTracer(const trace::TraceConfig &cfg)
    {
        return cfg.enabled() ? std::make_shared<trace::Tracer>(cfg)
                             : nullptr;
    }

    /** The shared single-spec body of run()/runOne(). */
    RunResult runOneCell(const RunSpec &spec,
                         const std::shared_ptr<trace::Tracer> &tracer);

    /** The shared multi-tenant body of runMultiAll()/runMulti(). */
    DeviceSnapshot
    runMultiCell(const MultiRunSpec &spec,
                 const std::shared_ptr<trace::Tracer> &tracer);
    /**
     * The shared single-cell body: runLoad with an optional
     * pre-built warm image. With spec.steadyState set, the cell
     * forks from @p warm (building its own image when null — the
     * standalone entry points); otherwise the warm phase, if any,
     * replays in place. Either way the measured phase is the same
     * code on the same device state, so fork and cold cells are
     * byte-identical.
     */
    DeviceSnapshot
    runLoadCell(const LoadRunSpec &spec, const DeviceImage *warm,
                const std::shared_ptr<trace::Tracer> &tracer);

    /** Warm images built for a sweep, plus their attribution. */
    struct WarmImages
    {
        /** One entry per recipe (null where none was asked for). */
        std::vector<std::shared_ptr<const DeviceImage>> images;
        /** Wall time of the parallel build (lastPerf warmup). */
        double seconds = 0.0;
        /** Distinct images built. */
        std::size_t built = 0;
    };

    /**
     * Build the warm image of every non-null recipe, in parallel and
     * once per distinct warm phase: recipes with equal warm-phase
     * inputs share one read-only image.
     */
    WarmImages
    buildWarmImages(const std::vector<const LoadRunSpec *> &recipes);

    /**
     * Sweep @p specs with warm-image sharing: distinct warm images
     * (deduplicated by warm-phase inputs) build once in parallel,
     * then every cell forks its image. Labels are per-cell
     * attribution strings, in spec order.
     */
    std::vector<DeviceSnapshot>
    runLoadSweep(const std::vector<LoadRunSpec> &specs,
                 const std::vector<std::string> &labels);

    /**
     * The shared fleet-cell body: construct the cluster (device d
     * forking @p images[d] when non-null), merge the tenant arrival
     * streams, route every job, drain. @p images must have one entry
     * per device (null = fresh device).
     */
    cluster::ClusterSnapshot runClusterCell(
        const ClusterRunSpec &spec,
        const std::vector<std::shared_ptr<const DeviceImage>>
            &images,
        const std::shared_ptr<trace::Tracer> &tracer);

    /**
     * The one sweep loop: cell(i, tracer) for every cell across the
     * worker pool, each with its own tracer (SweepOptions::trace),
     * wall timing and lastPerf()/lastTraces() slot under labels[i].
     * Results in label order.
     */
    template <typename Result, typename Cell>
    std::vector<Result>
    sweepCells(const std::vector<std::string> &labels, const Cell &cell);

    SweepOptions opts_;
    ProgramCache cache_;

    /** Wall-clock attribution of the last sweep (see lastPerf()). */
    SweepPerf perf_;

    /** Per-cell traces of the last sweep (see lastTraces()). */
    std::vector<trace::TraceCell> traceCells_;
};

} // namespace conduit::runner

#endif // CONDUIT_RUNNER_SWEEP_RUNNER_HH
