#include "src/runner/sweep_runner.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <exception>
#include <optional>
#include <stdexcept>
#include <thread>
#include <unordered_map>
#include <utility>

#include "src/host/host_model.hh"

namespace conduit::runner
{

namespace
{

/**
 * Index-parallel for over [0, n) on @p threads workers (pre-clamped
 * via SweepRunner::workerCount): workers pull the next unclaimed
 * index, so each body(i) runs exactly once and output order never
 * depends on scheduling. Exceptions are captured per index and the
 * lowest-index one rethrown after the pool drains.
 */
template <typename Body>
void
parallelFor(unsigned threads, std::size_t n, const Body &body)
{
    std::vector<std::exception_ptr> errors(n);
    std::atomic<std::size_t> next{0};
    const auto worker = [&] {
        for (;;) {
            const std::size_t i =
                next.fetch_add(1, std::memory_order_relaxed);
            if (i >= n)
                return;
            try {
                body(i);
            } catch (...) {
                errors[i] = std::current_exception();
            }
        }
    };

    if (threads <= 1) {
        worker();
    } else {
        std::vector<std::thread> pool;
        pool.reserve(threads);
        for (unsigned t = 0; t < threads; ++t)
            pool.emplace_back(worker);
        for (auto &t : pool)
            t.join();
    }

    for (std::size_t i = 0; i < n; ++i)
        if (errors[i])
            std::rethrow_exception(errors[i]);
}

/** Seconds elapsed since @p t0. */
double
sinceSeconds(const std::chrono::steady_clock::time_point &t0)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

/** Attribution label of an offered-load cell. */
std::string
loadCellLabel(const LoadRunSpec &spec)
{
    char rate[48];
    std::snprintf(rate, sizeof rate, "@%gjobs/s", spec.jobsPerSec);
    return displayName(spec.workload, spec.workloadId, spec.program) +
        "/" + spec.technique + rate;
}

/** Attribution label of an aging cell. */
std::string
agingCellLabel(const AgingRunSpec &spec)
{
    char age[64];
    std::snprintf(age, sizeof age, "+w%lu+d%g",
                  static_cast<unsigned long>(spec.preWearCycles),
                  spec.retentionDays);
    return loadCellLabel(spec.load) + age;
}

/** The offered-load cell an aging cell runs: its load on an aged device. */
LoadRunSpec
agedLoad(const AgingRunSpec &spec)
{
    LoadRunSpec cell = spec.load;
    cell.config.reliability.enabled = true;
    cell.config.reliability.preWearCycles = spec.preWearCycles;
    cell.config.reliability.retentionDays = spec.retentionDays;
    return cell;
}

/**
 * A cell's program: the explicit @p program, else @p id compiled
 * through the shared cache. @p kind and @p who name the cell in the
 * error raised when it has neither.
 */
std::shared_ptr<const Program>
resolveProgram(ProgramCache &cache,
               const std::shared_ptr<const Program> &program,
               const std::optional<WorkloadId> &id,
               const WorkloadParams &params, const SsdConfig &config,
               const char *kind, const std::string &who)
{
    if (program)
        return program;
    if (!id)
        throw std::invalid_argument(
            std::string(kind) +
            " has neither a program nor a workload: " + who);
    auto compiled = cache.get(*id, params, config);
    return std::shared_ptr<const Program>(compiled,
                                          &compiled->program);
}

/**
 * A fresh policy object for one job: @p factory's, else
 * makePolicy(@p technique). Device::submit rejects a null one.
 */
std::shared_ptr<OffloadPolicy>
cellPolicy(const PolicyFactory &factory, const std::string &technique)
{
    return factory ? factory() : makePolicy(technique);
}

/**
 * Evaluate @p prog on the analytical host baseline (the CPU, or the
 * GPU when @p gpu) under @p config, in the RunResult shape. The
 * result is unlabelled: callers set workload and policy.
 */
RunResult
runHostBaseline(const SsdConfig &config, const Program &prog, bool gpu)
{
    HostModel model(config, gpu ? HostModel::Kind::Gpu
                                : HostModel::Kind::Cpu);
    const HostResult hr = model.run(prog);
    RunResult r;
    r.execTime = hr.totalTime;
    r.instrCount = prog.instrs.size();
    r.computeBusy = hr.computeTime;
    r.hostDmBusy = hr.transferTime;
    r.dmEnergyJ = hr.dmEnergyJ;
    r.computeEnergyJ = hr.computeEnergyJ;
    return r;
}

/** Device options of an offered-load cell. */
DeviceOptions
loadDeviceOptions(const LoadRunSpec &spec)
{
    DeviceOptions dopts =
        makeDeviceOptions(spec.config, spec.engine, spec.params);
    dopts.capacityPages = spec.capacityPages;
    // Open-loop cells retire eagerly so page regions recycle while
    // later arrivals are still in flight.
    dopts.retire = RetirePolicy::OnComplete;
    return dopts;
}

/** Fresh arrival process of the cell (null at zero rate). */
std::unique_ptr<ArrivalProcess>
loadArrivals(const LoadRunSpec &spec)
{
    if (spec.jobsPerSec <= 0.0)
        return nullptr;
    return makeArrivals(spec.arrivals,
                        static_cast<double>(kPsPerS) / spec.jobsPerSec,
                        spec.arrivalSeed);
}

/**
 * Policy every warm phase runs under. Fixed — not the cell's
 * technique — so cells differing only by policy share one warm image.
 */
constexpr const char *kWarmupTechnique = "Conduit";

/**
 * Submit @p count jobs to @p dev, each advancing @p at by the next
 * arrival gap. Warm-phase jobs run under kWarmupTechnique (by name —
 * custom policy factories apply to measured jobs only, so warm phases
 * stay shareable across a factory-varied sweep).
 */
void
submitLoadJobs(Device &dev, const LoadRunSpec &spec,
               const std::shared_ptr<const Program> &prog,
               const std::string &name, std::size_t count, bool warm,
               ArrivalProcess *arrivals, Tick &at)
{
    for (std::size_t i = 0; i < count; ++i) {
        if (arrivals)
            at += arrivals->next();
        JobSpec job;
        job.name = name;
        job.program = prog;
        // Fresh policy object per job (policies may carry state).
        job.policyObj = warm
            ? std::shared_ptr<OffloadPolicy>(
                  makePolicy(kWarmupTechnique))
            : cellPolicy(spec.policy, spec.technique);
        job.arrival = at;
        dev.submit(job);
    }
}

/**
 * Warm-image sharing key: every spec field the warm phase's
 * simulation reads. Equal keys mean byte-identical warm phases, so
 * runLoadSweep builds the image once and lets every matching cell
 * fork it. Covers the axes the benches and the aging transform vary
 * (technique and measured-job count are deliberately absent — the
 * warm phase runs under kWarmupTechnique before any measured job).
 */
std::string
warmImageKey(const LoadRunSpec &spec)
{
    char buf[448];
    std::snprintf(
        buf, sizeof buf,
        "|p%p|i%d|w%zu|r%.17g|a%d|as%llu|cap%llu|sc%.17g"
        "|sd%llu|gc%.17g|ds%.17g"
        "|re%d|pw%lu|rd%.17g|wl%d|wg%lu|wm%lu",
        static_cast<const void *>(spec.program.get()),
        spec.workloadId ? static_cast<int>(*spec.workloadId) : -1,
        spec.warmupJobs, spec.jobsPerSec,
        static_cast<int>(spec.arrivals),
        static_cast<unsigned long long>(spec.arrivalSeed),
        static_cast<unsigned long long>(spec.capacityPages),
        spec.params.scale,
        static_cast<unsigned long long>(spec.config.seed),
        spec.config.gcThreshold, spec.engine.dramStagingFraction,
        spec.config.reliability.enabled ? 1 : 0,
        static_cast<unsigned long>(
            spec.config.reliability.preWearCycles),
        spec.config.reliability.retentionDays,
        spec.config.reliability.wearLevelEnabled ? 1 : 0,
        static_cast<unsigned long>(spec.config.reliability.wearLevelGap),
        static_cast<unsigned long>(
            spec.config.reliability.wearLevelMaxPerPass));
    return spec.workload + buf;
}

/** Age rung of fleet device @p d (ageMix cycles round-robin). */
std::uint32_t
clusterRung(const ClusterRunSpec &spec, std::size_t d)
{
    return spec.ageMix.empty()
        ? 0u
        : spec.ageMix[d % spec.ageMix.size()];
}

/**
 * Per-device recipe of a fleet cell: the offered-load spec one
 * device of the fleet would see — the first tenant's workload as
 * warm traffic at the per-device share of the fleet rate, with the
 * age rung folded into the reliability config. Equal recipes hash to
 * equal warmImageKeys, so a fleet of one age rung forks one image.
 */
LoadRunSpec
clusterDeviceRecipe(const ClusterRunSpec &spec, std::uint32_t rung)
{
    const ClusterTenant &t0 = spec.tenants.front();
    LoadRunSpec r;
    r.workload = displayName(t0.name, t0.workloadId, t0.program);
    r.technique = kWarmupTechnique;
    r.config = spec.config;
    r.engine = spec.engine;
    r.params = spec.params;
    r.workloadId = t0.workloadId;
    r.program = t0.program;
    r.jobsPerSec =
        spec.jobsPerSec / static_cast<double>(spec.devices);
    r.arrivals = spec.arrivals;
    r.arrivalSeed = spec.arrivalSeed;
    r.capacityPages = spec.capacityPages;
    r.warmupJobs = spec.warmupJobs;
    r.steadyState = spec.warmupJobs > 0;
    if (rung > 0) {
        r.config.reliability.enabled = true;
        r.config.reliability.preWearCycles = rung;
        r.config.reliability.retentionDays =
            spec.retentionDaysPerKCycle * rung / 1000.0;
    }
    return r;
}

/** Attribution label of a fleet cell. */
std::string
clusterCellLabel(const ClusterRunSpec &spec)
{
    if (!spec.label.empty())
        return spec.label;
    char buf[96];
    std::snprintf(buf, sizeof buf, "fleet%zu/%s@%gjobs/s",
                  spec.devices, spec.placement.c_str(),
                  spec.jobsPerSec);
    return buf;
}

} // namespace

SweepRunner::SweepRunner(SweepOptions opts) : opts_(opts) {}

template <typename Result, typename Cell>
std::vector<Result>
SweepRunner::sweepCells(const std::vector<std::string> &labels,
                        const Cell &cell)
{
    const std::size_t n = labels.size();
    std::vector<Result> results(n);
    perf_ = SweepPerf{};
    perf_.cells = n;
    perf_.perCell.assign(n, {});
    traceCells_.assign(n, {});
    const auto t0 = std::chrono::steady_clock::now();
    // Workers own disjoint per-cell slots: no synchronization is
    // needed beyond the pool join.
    parallelFor(workerCount(n), n, [&](std::size_t i) {
        const auto c0 = std::chrono::steady_clock::now();
        auto tracer = makeTracer(opts_.trace);
        results[i] = cell(i, tracer);
        traceCells_[i] = {labels[i], std::move(tracer)};
        perf_.perCell[i] = {labels[i], sinceSeconds(c0),
                            results[i].eventsFired};
    });
    perf_.wallSeconds = sinceSeconds(t0);
    return results;
}

unsigned
SweepRunner::workerCount(std::size_t jobs) const
{
    unsigned threads = opts_.threads;
    if (threads == 0)
        threads = std::max(1u, std::thread::hardware_concurrency());
    return static_cast<unsigned>(
        std::min<std::size_t>(threads, std::max<std::size_t>(jobs, 1)));
}

RunResult
SweepRunner::runOne(const RunSpec &spec)
{
    return runOneCell(spec, nullptr);
}

RunResult
SweepRunner::runOneCell(const RunSpec &spec,
                        const std::shared_ptr<trace::Tracer> &tracer)
{
    std::shared_ptr<const Program> prog = resolveProgram(
        cache_, spec.program, spec.workloadId, spec.params, spec.config,
        "RunSpec", spec.workload + "/" + spec.technique);

    // Host baselines bypass the SSD engine entirely.
    HostKind host = spec.host;
    if (host == HostKind::None && !spec.policy) {
        if (spec.technique == "CPU")
            host = HostKind::Cpu;
        else if (spec.technique == "GPU")
            host = HostKind::Gpu;
    }
    RunResult r;
    if (host != HostKind::None) {
        r = runHostBaseline(spec.config, *prog, host == HostKind::Gpu);
    } else {
        // One tick-0 job on a fresh device: the paper's cold-SSD cell.
        DeviceOptions dopts =
            makeDeviceOptions(spec.config, spec.engine, spec.params);
        dopts.tracer = tracer;
        Device dev(std::move(dopts));
        JobSpec job;
        job.program = std::move(prog);
        job.policyObj = cellPolicy(spec.policy, spec.technique);
        dev.submit(job);
        DeviceSnapshot snap = dev.drain();
        r = std::move(snap.jobs.front().result);
        r.eventsFired = snap.eventsFired;
    }
    // Label with the spec's display names (a custom policy object's
    // own name may differ, e.g. ablation variants).
    r.workload = spec.workload;
    r.policy = spec.technique;
    return r;
}

DeviceSnapshot
SweepRunner::runMulti(const MultiRunSpec &spec)
{
    return runMultiCell(spec, nullptr);
}

DeviceSnapshot
SweepRunner::runMultiCell(const MultiRunSpec &spec,
                          const std::shared_ptr<trace::Tracer> &tracer)
{
    if (spec.streams.empty())
        throw std::invalid_argument(
            "MultiRunSpec has no streams: " + spec.label);
    for (const StreamSlot &slot : spec.streams)
        if (slot.technique == "CPU" || slot.technique == "GPU")
            throw std::invalid_argument(
                "multi-stream cells run on the SSD engine; host "
                "baseline '" + slot.technique +
                "' cannot be a stream: " + spec.label);

    // A fresh device from the spec's options, or a fork of the
    // spec's image (forks start traceless, so the tracer attaches
    // after construction either way).
    std::optional<Device> dev;
    if (spec.image)
        dev.emplace(*spec.image);
    else
        dev.emplace(
            makeDeviceOptions(spec.config, spec.engine, spec.params));
    if (tracer)
        dev->setTracer(tracer);

    // Every stream is a job arriving together: at tick 0 on a fresh
    // device, at the fork's clock on an image. Programs compile for
    // the device they run on.
    const Tick at = dev->now();
    const DeviceOptions &dopts = dev->options();
    for (const StreamSlot &slot : spec.streams) {
        JobSpec job;
        job.program = resolveProgram(
            cache_, slot.program, slot.workloadId, dopts.workload,
            dopts.config, "StreamSlot", spec.label + "/" + slot.workload);
        job.name = displayName(slot.workload, slot.workloadId,
                               job.program);
        job.policyObj = cellPolicy(slot.policy, slot.technique);
        job.arrival = at;
        dev->submit(job);
    }
    DeviceSnapshot snap = dev->drain();

    // Label the cell's jobs (the last streams.size(), after any the
    // image carried) with the slot's display technique (a custom
    // policy object's own name may differ).
    const std::size_t first = snap.jobs.size() - spec.streams.size();
    for (std::size_t i = 0; i < spec.streams.size(); ++i)
        if (!spec.streams[i].technique.empty())
            snap.jobs[first + i].result.policy =
                spec.streams[i].technique;
    return snap;
}

std::vector<DeviceSnapshot>
SweepRunner::runMultiAll(const std::vector<MultiRunSpec> &specs)
{
    std::vector<std::string> labels;
    labels.reserve(specs.size());
    for (const MultiRunSpec &spec : specs)
        labels.push_back(spec.label);
    return sweepCells<DeviceSnapshot>(
        labels, [&](std::size_t i, const auto &tracer) {
            return runMultiCell(specs[i], tracer);
        });
}

DeviceImage
SweepRunner::buildWarmImage(const LoadRunSpec &spec)
{
    if (spec.warmupJobs == 0)
        throw std::invalid_argument(
            "buildWarmImage: spec.warmupJobs is 0: " + spec.workload);
    auto prog = resolveProgram(cache_, spec.program, spec.workloadId,
                               spec.params, spec.config, "LoadRunSpec",
                               spec.workload + "/" + spec.technique);
    const std::string name =
        displayName(spec.workload, spec.workloadId, prog);
    Device dev(loadDeviceOptions(spec));
    auto arrivals = loadArrivals(spec);
    Tick at = 0;
    submitLoadJobs(dev, spec, prog, name, spec.warmupJobs,
                   /*warm=*/true, arrivals.get(), at);
    return dev.snapshot();
}

DeviceSnapshot
SweepRunner::runLoadCell(const LoadRunSpec &spec,
                         const DeviceImage *warm,
                         const std::shared_ptr<trace::Tracer> &tracer)
{
    if (spec.technique == "CPU" || spec.technique == "GPU")
        throw std::invalid_argument(
            "offered-load cells run on the SSD engine; host baseline "
            "'" + spec.technique + "' cannot serve jobs: " +
            spec.workload);
    if (spec.steadyState && spec.warmupJobs == 0)
        throw std::invalid_argument(
            "LoadRunSpec: steadyState needs warmupJobs > 0: " +
            spec.workload);
    auto prog = resolveProgram(cache_, spec.program, spec.workloadId,
                               spec.params, spec.config, "LoadRunSpec",
                               spec.workload + "/" + spec.technique);
    const std::string name =
        displayName(spec.workload, spec.workloadId, prog);
    auto arrivals = loadArrivals(spec);

    std::optional<Device> dev;
    Tick at = 0;
    if (spec.steadyState) {
        // Fork: the warm phase already ran inside the image. Burn
        // its arrival gaps so the measured phase continues the same
        // arrival process a cold two-phase run sees.
        if (warm) {
            dev.emplace(*warm);
        } else {
            const DeviceImage own = buildWarmImage(spec);
            dev.emplace(own);
        }
        if (arrivals)
            for (std::size_t i = 0; i < spec.warmupJobs; ++i)
                arrivals->next();
        at = dev->now();
    } else {
        dev.emplace(loadDeviceOptions(spec));
        if (spec.warmupJobs > 0) {
            // Cold two-phase: replay the warm phase in place, with
            // the same quiescence barrier snapshot() applies, then
            // resume the arrival clock from the drained device.
            submitLoadJobs(*dev, spec, prog, name, spec.warmupJobs,
                           /*warm=*/true, arrivals.get(), at);
            dev->drain();
            at = dev->now();
        }
    }
    // Attach the tracer only now — after the fork (forks start
    // traceless) or the in-place warm replay — so both steady-state
    // modes trace exactly the measured phase.
    if (tracer)
        dev->setTracer(tracer);
    submitLoadJobs(*dev, spec, prog, name, spec.jobs,
                   /*warm=*/false, arrivals.get(), at);
    return dev->drain();
}

DeviceSnapshot
SweepRunner::runLoad(const LoadRunSpec &spec)
{
    return runLoadCell(spec, nullptr, nullptr);
}

SweepRunner::WarmImages
SweepRunner::buildWarmImages(const std::vector<const LoadRunSpec *> &recipes)
{
    // Recipes with equal warm-image keys share one image read-only
    // (forking deep-copies), so an A-policies x B-ages sweep builds
    // B images, not A*B.
    const std::size_t n = recipes.size();
    constexpr std::size_t kNone = ~std::size_t{0};
    std::unordered_map<std::string, std::size_t> slots;
    std::vector<std::size_t> slotOf(n, kNone);
    std::vector<const LoadRunSpec *> builder;
    for (std::size_t i = 0; i < n; ++i) {
        if (!recipes[i])
            continue;
        const auto [it, fresh] =
            slots.emplace(warmImageKey(*recipes[i]), builder.size());
        if (fresh)
            builder.push_back(recipes[i]);
        slotOf[i] = it->second;
    }

    WarmImages warm;
    warm.images.resize(n);
    if (builder.empty())
        return warm;
    std::vector<std::shared_ptr<const DeviceImage>> images(
        builder.size());
    const auto w0 = std::chrono::steady_clock::now();
    parallelFor(workerCount(builder.size()), builder.size(),
                [&](std::size_t j) {
                    images[j] = std::make_shared<const DeviceImage>(
                        buildWarmImage(*builder[j]));
                });
    warm.seconds = sinceSeconds(w0);
    warm.built = builder.size();
    for (std::size_t i = 0; i < n; ++i)
        if (slotOf[i] != kNone)
            warm.images[i] = images[slotOf[i]];
    return warm;
}

std::vector<DeviceSnapshot>
SweepRunner::runLoadSweep(const std::vector<LoadRunSpec> &specs,
                          const std::vector<std::string> &labels)
{
    const std::size_t n = specs.size();

    // Phase 1: build each distinct warm image once, in parallel.
    std::vector<const LoadRunSpec *> recipes(n, nullptr);
    for (std::size_t i = 0; i < n; ++i)
        if (specs[i].steadyState && specs[i].warmupJobs > 0)
            recipes[i] = &specs[i];
    const WarmImages warm = buildWarmImages(recipes);

    // Phase 2: the measured cells, forking from the shared images.
    std::vector<DeviceSnapshot> results = sweepCells<DeviceSnapshot>(
        labels, [&](std::size_t i, const auto &tracer) {
            return runLoadCell(specs[i], warm.images[i].get(), tracer);
        });
    perf_.warmupSeconds = warm.seconds;
    perf_.warmupImages = warm.built;
    return results;
}

std::vector<DeviceSnapshot>
SweepRunner::runAgingAll(const std::vector<AgingRunSpec> &specs)
{
    // Fold the aging knobs into offered-load specs up front so the
    // warm-image dedup sees the final per-cell configs (cells of one
    // age rung share a warm image across policies).
    std::vector<LoadRunSpec> cells;
    std::vector<std::string> labels;
    cells.reserve(specs.size());
    labels.reserve(specs.size());
    for (const AgingRunSpec &spec : specs) {
        cells.push_back(agedLoad(spec));
        labels.push_back(agingCellLabel(spec));
    }
    return runLoadSweep(cells, labels);
}

std::vector<DeviceSnapshot>
SweepRunner::runLoadAll(const std::vector<LoadRunSpec> &specs)
{
    std::vector<std::string> labels;
    labels.reserve(specs.size());
    for (const LoadRunSpec &spec : specs)
        labels.push_back(loadCellLabel(spec));
    return runLoadSweep(specs, labels);
}

cluster::ClusterSnapshot
SweepRunner::runClusterCell(
    const ClusterRunSpec &spec,
    const std::vector<std::shared_ptr<const DeviceImage>> &images,
    const std::shared_ptr<trace::Tracer> &tracer)
{
    if (spec.devices == 0)
        throw std::invalid_argument(
            "ClusterRunSpec: zero devices: " + spec.label);
    if (spec.tenants.empty())
        throw std::invalid_argument(
            "ClusterRunSpec has no tenants: " + spec.label);
    for (const ClusterTenant &t : spec.tenants)
        if (t.technique == "CPU" || t.technique == "GPU")
            throw std::invalid_argument(
                "fleet cells run on the SSD engine; host baseline "
                "'" + t.technique + "' cannot be a tenant: " +
                spec.label);

    // Resolve each tenant's program and display name once.
    const std::size_t nt = spec.tenants.size();
    std::vector<std::shared_ptr<const Program>> progs(nt);
    std::vector<std::string> names(nt);
    for (std::size_t t = 0; t < nt; ++t) {
        const ClusterTenant &ten = spec.tenants[t];
        progs[t] = resolveProgram(cache_, ten.program, ten.workloadId,
                                  spec.params, spec.config,
                                  "ClusterTenant",
                                  spec.label + "/" + ten.name);
        names[t] = displayName(ten.name, ten.workloadId, progs[t]);
    }

    // Merged arrival schedule: jobs split across tenants by weight
    // (floor, then remainder round-robin), each tenant walking its
    // own arrival process (seed offset by tenant index). Merge order
    // is (arrival, per-tenant index, tenant) — a total order, so the
    // stream is identical on every run, and a tick-0 burst (rate 0)
    // interleaves tenants round-robin instead of tenant-major.
    double weightSum = 0.0;
    for (const ClusterTenant &t : spec.tenants)
        weightSum += std::max(t.weight, 0.0);
    std::vector<std::size_t> quota(nt, 0);
    std::size_t assigned = 0;
    for (std::size_t t = 0; t < nt; ++t) {
        const double share = weightSum > 0.0
            ? std::max(spec.tenants[t].weight, 0.0) / weightSum
            : 1.0 / static_cast<double>(nt);
        quota[t] = static_cast<std::size_t>(
            static_cast<double>(spec.jobs) * share);
        assigned += quota[t];
    }
    for (std::size_t t = 0; assigned < spec.jobs; t = (t + 1) % nt) {
        ++quota[t];
        ++assigned;
    }

    struct Slot
    {
        Tick at;
        std::size_t idx;
        std::size_t tenant;
    };
    std::vector<Slot> schedule;
    schedule.reserve(spec.jobs);
    for (std::size_t t = 0; t < nt; ++t) {
        const double share = weightSum > 0.0
            ? std::max(spec.tenants[t].weight, 0.0) / weightSum
            : 1.0 / static_cast<double>(nt);
        const double rate = spec.jobsPerSec * share;
        std::unique_ptr<ArrivalProcess> arr;
        if (rate > 0.0)
            arr = makeArrivals(spec.arrivals,
                               static_cast<double>(kPsPerS) / rate,
                               spec.arrivalSeed + t);
        Tick at = 0;
        for (std::size_t i = 0; i < quota[t]; ++i) {
            if (arr)
                at += arr->next();
            schedule.push_back({at, i, t});
        }
    }
    std::sort(schedule.begin(), schedule.end(),
              [](const Slot &a, const Slot &b) {
                  if (a.at != b.at)
                      return a.at < b.at;
                  if (a.idx != b.idx)
                      return a.idx < b.idx;
                  return a.tenant < b.tenant;
              });

    // Fleet construction: device d forks its shared warm image when
    // one was built, else starts fresh from its age rung's recipe.
    // Fresh devices default to a pool fitting every measured job at
    // once — the fleet-wide footprint sum, which with one device is
    // exactly the auto-size a bare Device computes (the probe path
    // starts sessions before submissions, so auto-sizing can't see
    // the jobs itself).
    std::uint64_t defaultCap = spec.capacityPages;
    if (defaultCap == 0)
        for (std::size_t t = 0; t < nt; ++t)
            defaultCap += static_cast<std::uint64_t>(quota[t]) *
                progs[t]->footprintPages;
    cluster::ClusterOptions copts;
    copts.tracer = tracer;
    copts.devices.resize(spec.devices);
    for (std::size_t d = 0; d < spec.devices; ++d) {
        if (d < images.size() && images[d]) {
            copts.devices[d].image = images[d];
            continue;
        }
        DeviceOptions dopts = loadDeviceOptions(
            clusterDeviceRecipe(spec, clusterRung(spec, d)));
        dopts.capacityPages = defaultCap;
        copts.devices[d].options = std::move(dopts);
    }
    cluster::Cluster fleet(
        std::move(copts),
        cluster::makePlacement(spec.placement, spec.placementSeed));

    for (const Slot &s : schedule) {
        JobSpec job;
        job.name = names[s.tenant];
        job.program = progs[s.tenant];
        // Fresh policy object per job (policies may carry state).
        job.policyObj = std::shared_ptr<OffloadPolicy>(
            makePolicy(spec.tenants[s.tenant].technique));
        job.arrival = s.at;
        fleet.submit(job, s.tenant);
    }
    return fleet.drain();
}

std::vector<cluster::ClusterSnapshot>
SweepRunner::runClusterAll(const std::vector<ClusterRunSpec> &specs)
{
    const std::size_t n = specs.size();

    // Phase 1: build each distinct warm device image once, in
    // parallel. The dedup key is the per-device recipe — config, age
    // rung, warm traffic — so it collapses equal rungs both within a
    // fleet and across cells (a P-policies x R-rungs sweep builds R
    // images, not P*R*devices).
    std::size_t totalDevices = 0;
    for (const ClusterRunSpec &spec : specs)
        totalDevices += spec.devices;
    std::vector<LoadRunSpec> recipeStore;
    recipeStore.reserve(totalDevices); // stable addresses below
    std::vector<const LoadRunSpec *> recipes;
    recipes.reserve(totalDevices);
    for (const ClusterRunSpec &spec : specs) {
        const bool warmed = spec.warmupJobs > 0 && !spec.tenants.empty();
        for (std::size_t d = 0; d < spec.devices; ++d) {
            if (!warmed) {
                recipes.push_back(nullptr);
                continue;
            }
            recipeStore.push_back(
                clusterDeviceRecipe(spec, clusterRung(spec, d)));
            recipes.push_back(&recipeStore.back());
        }
    }
    const WarmImages warm = buildWarmImages(recipes);
    std::vector<std::vector<std::shared_ptr<const DeviceImage>>>
        cellImages(n);
    for (std::size_t i = 0, at = 0; i < n; at += specs[i].devices, ++i)
        cellImages[i].assign(warm.images.begin() + at,
                             warm.images.begin() + at + specs[i].devices);

    // Phase 2: the fleet cells, forking from the shared images.
    std::vector<std::string> labels;
    labels.reserve(n);
    for (const ClusterRunSpec &spec : specs)
        labels.push_back(clusterCellLabel(spec));
    auto results = sweepCells<cluster::ClusterSnapshot>(
        labels, [&](std::size_t i, const auto &tracer) {
            return runClusterCell(specs[i], cellImages[i], tracer);
        });
    perf_.warmupSeconds = warm.seconds;
    perf_.warmupImages = warm.built;
    return results;
}

cluster::ClusterSnapshot
SweepRunner::runCluster(const ClusterRunSpec &spec)
{
    std::vector<cluster::ClusterSnapshot> snaps =
        runClusterAll({spec});
    return std::move(snaps.front());
}

SweepResult
SweepRunner::run(std::vector<RunSpec> specs)
{
    std::vector<std::string> labels;
    labels.reserve(specs.size());
    for (const RunSpec &spec : specs)
        labels.push_back(spec.workload + "/" + spec.technique);
    std::vector<RunResult> results = sweepCells<RunResult>(
        labels, [&](std::size_t i, const auto &tracer) {
            return runOneCell(specs[i], tracer);
        });
    const unsigned threads = workerCount(specs.size());
    return SweepResult(std::move(specs), std::move(results),
                       perf_.wallSeconds, threads);
}

} // namespace conduit::runner
