/**
 * @file
 * Top-level facade: the public API a downstream user drives.
 *
 * A Simulation owns a device configuration, compiles workloads
 * through the compile-time preprocessing stage (auto-vectorization +
 * metadata embedding), and executes them under any offloading policy
 * or host baseline — returning the RunResult records the benches and
 * examples consume.
 *
 * Every SSD entry point is a thin wrapper over core::Device: run()
 * submits one job to a fresh device, runMulti() submits N jobs
 * arriving simultaneously at tick 0. The wrappers exist for
 * the paper's closed-form methodology (every technique starts from
 * the same cold SSD); hold a Device directly for open-loop arrivals,
 * dynamic submission, and long-lived device state.
 */

#ifndef CONDUIT_CORE_SIMULATION_HH
#define CONDUIT_CORE_SIMULATION_HH

#include <string>

#include "src/core/device.hh"
#include "src/core/engine.hh"
#include "src/core/program_cache.hh"
#include "src/host/host_model.hh"
#include "src/vectorizer/vectorizer.hh"
#include "src/workloads/workloads.hh"

namespace conduit
{

/** Facade options. */
struct SimOptions
{
    /** Device configuration (defaults: Table 2 geometry, scaled). */
    SsdConfig config = SsdConfig::scaled(1.0 / 128.0);

    /** Engine options shared by all runs. */
    EngineOptions engine;

    /** Workload dataset scale. */
    WorkloadParams workload;
};

/**
 * End-to-end simulation driver.
 */
class Simulation
{
  public:
    explicit Simulation(SimOptions opts = {});

    /**
     * Compile-time preprocessing for a workload (cached).
     *
     * Thread-safe and compile-once: concurrent first calls for the
     * same workload block on one shared compilation instead of
     * racing (the facade cache is a core::ProgramCache, the same
     * compile-once path the sweep runner uses). The returned
     * reference stays valid for the lifetime of the Simulation and
     * entries are immutable once inserted.
     */
    const VectorizedProgram &compile(WorkloadId id);

    /** Compile an arbitrary loop program (not cached). */
    VectorizedProgram compileProgram(const LoopProgram &lp) const;

    /**
     * Run @p id on the SSD under the named policy ("Conduit",
     * "DM-Offloading", "BW-Offloading", "Ideal", "ISP", "PuD-SSD",
     * "Flash-Cosmos", "Ares-Flash").
     */
    RunResult run(WorkloadId id, const std::string &policy_name);

    /** Run with an externally constructed policy object. */
    RunResult run(WorkloadId id, OffloadPolicy &policy);

    /**
     * Run a pre-compiled program under a policy: one job on a fresh
     * Device (wrapper — byte-identical to the pre-Device engine).
     */
    RunResult runProgram(const Program &prog, OffloadPolicy &policy);

    /** One tenant of a multi-stream run: workload + policy name. */
    struct Tenant
    {
        WorkloadId id;
        std::string policy;
    };

    /**
     * Co-run several tenants concurrently on ONE simulated SSD (the
     * event-driven multi-stream engine): each tenant's instruction
     * stream executes under its own policy while all streams contend
     * for the shared device. A wrapper over core::Device with every
     * job arriving at tick 0: the drained snapshot holds one job per
     * tenant, in tenant order, plus the device aggregate.
     * @throws std::invalid_argument when @p tenants is empty or names
     *         an unknown policy.
     */
    DeviceSnapshot runMulti(const std::vector<Tenant> &tenants);

    /** Host baseline ("CPU" or "GPU") for a workload. */
    RunResult runHost(WorkloadId id, bool gpu);

    /** Host baseline for a pre-compiled program. */
    RunResult runHostProgram(const Program &prog, bool gpu) const;

    /**
     * A fresh persistent device under this facade's options, for
     * callers graduating from batch runs to dynamic job submission.
     */
    Device makeDevice() const;

    const SimOptions &options() const { return opts_; }

  private:
    SimOptions opts_;
    Vectorizer vectorizer_;
    ProgramCache cache_;
};

/**
 * Evaluate @p prog on the analytical host baseline (the CPU, or the
 * GPU when @p gpu) under @p config, in the RunResult shape. The
 * result is unlabelled: callers set workload and policy.
 */
RunResult runHostBaseline(const SsdConfig &config, const Program &prog,
                          bool gpu);

} // namespace conduit

#endif // CONDUIT_CORE_SIMULATION_HH
