#include "workloads.hh"

#include <algorithm>
#include <cstdio>
#include <numeric>
#include <optional>
#include <random>
#include <set>
#include <sstream>
#include <stdexcept>

#include "scorecard.hh"
#include "src/cluster/cluster.hh"
#include "src/runner/sweep_result.hh"
#include "src/runner/sweep_runner.hh"

namespace perfbench
{

namespace
{

using namespace conduit;
using runner::ClusterRunSpec;
using runner::ClusterTenant;
using runner::LoadRunSpec;
using runner::RunSpec;
using runner::SweepOptions;
using runner::SweepRunner;

/**
 * Order in which a repetition runs its cells, drawn from the seed.
 * Results are order-independent (each cell is a fresh device), so the
 * seed moves host-side effects such as allocator and cache state but
 * no simulated number; digests are taken in canonical order.
 */
std::vector<std::size_t>
cellOrder(std::size_t n, std::uint64_t seed)
{
    std::vector<std::size_t> order(n);
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::mt19937_64 rng(seed);
    for (std::size_t i = n; i > 1; --i)
        std::swap(order[i - 1], order[rng() % i]);
    return order;
}

/** Generate and compile @p ids through @p cache. */
void
compileAll(ProgramCache &cache, const std::vector<WorkloadId> &ids,
           const WorkloadParams &params, const SsdConfig &cfg,
           Recorder *rec)
{
    Recorder::Scope span(rec, "vectorizer.compile");
    std::size_t instrs = 0;
    for (WorkloadId id : ids)
        instrs += cache.get(id, params, cfg)->program.instrs.size();
    if (rec) {
        rec->count("vectorizer.programs", static_cast<double>(ids.size()));
        rec->count("vectorizer.instrs", static_cast<double>(instrs));
    }
}

/** The compiled program of @p id as a shareable Program. */
std::shared_ptr<const Program>
programOf(ProgramCache &cache, WorkloadId id, const WorkloadParams &params,
          const SsdConfig &cfg)
{
    auto compiled = cache.get(id, params, cfg);
    return std::shared_ptr<const Program>(compiled, &compiled->program);
}

/** Policy object of one job: counted when tracing. */
std::shared_ptr<OffloadPolicy>
jobPolicy(const std::string &technique, Recorder *rec)
{
    if (rec)
        return std::make_shared<CountingPolicy>(makePolicy(technique), rec);
    return std::shared_ptr<OffloadPolicy>(makePolicy(technique));
}

/** Simulated outcomes of a repetition's retired jobs (traced runs). */
struct JobTally
{
    Histogram sojournUs;
    double waitUs = 0.0;
    double energyJ = 0.0;

    void
    add(const JobResult &j)
    {
        sojournUs.add(ticksToUs(j.sojourn()));
        waitUs += ticksToUs(j.admitted - j.arrival);
        energyJ += j.result.energyJ();
    }

    void
    record(Recorder &rec) const
    {
        rec.count("jobs", static_cast<double>(sojournUs.count()));
        rec.count("admit_wait_sum_us", waitUs);
        rec.count("sim.energy_j", energyJ);
        rec.count("sim.p99_sojourn_us", sojournUs.percentile(99));
    }
};

// ------------------------------------------------------- paper-matrix

/**
 * The Fig. 7(a) evaluation matrix at scale 1: six workloads x {CPU,
 * GPU, ISP, PuD-SSD, Flash-Cosmos, Ares-Flash, BW-Offloading,
 * DM-Offloading, Conduit, Ideal}, 60 fresh-device cells, one job per
 * cell. It is the paper's own evaluation and touches no cluster,
 * reliability model, warm image or GC.
 */
class PaperMatrix : public Workload
{
  public:
    void
    setup(std::uint64_t seed, Recorder *rec) override
    {
        runner_ = std::make_unique<SweepRunner>(SweepOptions{1, {}});
        compileAll(runner_->cache(), allWorkloads(), {},
                   runner::defaultSweepConfig(), rec);
        runner::RunMatrix m;
        m.workloads(allWorkloads());
        m.technique("CPU");
        m.techniques({"GPU", "ISP", "PuD-SSD", "Flash-Cosmos",
                      "Ares-Flash", "BW-Offloading", "DM-Offloading",
                      "Conduit", "Ideal"});
        specs_ = m.build();
        workloads_ = m.workloadLabels();
        order_ = cellOrder(specs_.size(), seed);
    }

    RepResult
    rep(std::size_t /*index*/, Recorder *rec) override
    {
        RepResult out;
        const std::size_t n = specs_.size();
        std::vector<RunResult> results(n);
        std::vector<bool> ok(n, false);
        {
            Recorder::Scope repSpan(rec, "rep");
            for (std::size_t i : order_) {
                Recorder::Scope cell(rec, "cell", static_cast<int>(i));
                const CellCount c = countCell(1, [&](std::size_t &) {
                    results[i] = rec ? tracedCell(specs_[i], *rec)
                                     : runner_->runOne(specs_[i]);
                    return std::size_t{1};
                });
                ok[i] = c.retired == 1;
                out.add(c);
            }
        }
        check(results, ok, out);

        Digest d;
        for (std::size_t i = 0; i < n; ++i) {
            if (ok[i])
                d.add(results[i]);
            else
                d.add(std::string("failed"));
        }
        out.digest = d.value();

        if (rec) {
            Histogram exec;
            double makespan = 0.0, energy = 0.0;
            for (std::size_t i = 0; i < n; ++i) {
                exec.add(ticksToUs(results[i].execTime));
                makespan += ticksToUs(results[i].execTime);
                energy += results[i].energyJ();
            }
            rec->count("jobs", static_cast<double>(n));
            rec->count("sim.makespan_us", makespan);
            rec->count("sim.p99_sojourn_us", exec.percentile(99));
            rec->count("sim.energy_j", energy);
            Recorder::Scope rows(rec, "runner.rows");
            std::ostringstream os;
            runner::SweepResult(specs_, results, 0.0, 1).writeCsv(os);
        }
        if (first_.empty()) {
            first_ = std::move(results);
            firstOk_ = ok;
        }
        return out;
    }

    std::map<std::string, std::pair<double, std::string>>
    extraMetrics() override
    {
        MatrixOutcomes cells;
        for (std::size_t i = 0; i < first_.size(); ++i) {
            const RunResult &r = first_[i];
            if (firstOk_[i])
                cells[{specs_[i].workload, specs_[i].technique}] = {
                    static_cast<double>(r.execTime), r.energyJ(),
                    r.latencyUs.percentile(99),
                    r.latencyUs.percentile(99.99)};
        }
        std::vector<ExcludedClaim> excluded = excludedClaims();
        const std::vector<Claim> claims =
            scoreClaims(cells, workloads_, excluded);
        std::printf("paper scorecard (ratio form; energy savings as 1 - s)\n");
        std::printf("%-6s %-52s %9s %9s %9s\n", "figure", "metric",
                    "paper", "measured", "|ln|");
        for (const Claim &c : claims)
            std::printf("%-6s %-52s %9.4f %9.4f %9.4f\n", c.figure.c_str(),
                        c.metric.c_str(), c.paper, c.measured, c.err);
        for (const ExcludedClaim &e : excluded)
            std::printf("%-6s %-52s excluded: %s\n", e.figure.c_str(),
                        e.metric.c_str(), e.reason.c_str());
        const double err = paperErr(claims);
        std::printf("paper_err = %.6f over %zu claims\n", err,
                    claims.size());
        return {{"paper_err", {err, "ln-ratio"}}};
    }

  private:
    /** The cell through Device::submit/drain (or the host model). */
    RunResult
    tracedCell(const RunSpec &spec, Recorder &rec)
    {
        if (spec.technique == "CPU" || spec.technique == "GPU") {
            Recorder::Scope host(&rec, "host.cell");
            rec.count("host.cells", 1);
            return runner_->runOne(spec);
        }
        DeviceOptions opts =
            makeDeviceOptions(spec.config, spec.engine, spec.params);
        auto occupancy = occupancyTracer();
        opts.tracer = occupancy;
        Device dev(opts);
        JobSpec job;
        job.name = spec.workload;
        job.program = programOf(runner_->cache(), *spec.workloadId,
                                spec.params, spec.config);
        job.policyObj = jobPolicy(spec.technique, &rec);
        {
            Recorder::Scope s(&rec, "core.submit");
            dev.submit(job);
        }
        DeviceSnapshot snap;
        {
            Recorder::Scope s(&rec, "core.drain");
            snap = dev.drain();
        }
        if (snap.jobs.size() != 1)
            throw std::runtime_error("single-job cell retired " +
                                     std::to_string(snap.jobs.size()) +
                                     " jobs");
        recordCounters(rec, {}, dev.engine().stats());
        recordOccupancy(rec, *occupancy);
        rec.count("sim.events", static_cast<double>(snap.eventsFired));
        rec.count("admit_wait_sum_us",
                  ticksToUs(snap.jobs[0].admitted - snap.jobs[0].arrival));
        RunResult r = snap.jobs[0].result;
        r.workload = spec.workload;
        r.policy = spec.technique;
        return r;
    }

    /**
     * The matrix invariants: per row, Ideal is no slower than any
     * technique; per SSD cell, per-resource counts sum to instrCount.
     * A cell breaking one no longer counts as retired.
     */
    void
    check(const std::vector<RunResult> &results, std::vector<bool> &ok,
          RepResult &out) const
    {
        std::map<std::string, std::size_t> ideal;
        for (std::size_t i = 0; i < specs_.size(); ++i)
            if (specs_[i].technique == "Ideal" && ok[i])
                ideal[specs_[i].workload] = i;
        for (std::size_t i = 0; i < specs_.size(); ++i) {
            if (!ok[i])
                continue;
            const RunSpec &s = specs_[i];
            const RunResult &r = results[i];
            std::string failure;
            const auto it = ideal.find(s.workload);
            if (it != ideal.end() &&
                results[it->second].execTime > r.execTime)
                failure = "Ideal slower than " + s.technique;
            const bool host = s.technique == "CPU" || s.technique == "GPU";
            std::uint64_t sum = 0;
            for (std::uint64_t c : r.perResource)
                sum += c;
            if (!host && sum != r.instrCount)
                failure = "per-resource counts do not sum to instrCount";
            if (!failure.empty()) {
                out.checkFailures.push_back(s.workload + "/" +
                                            s.technique + ": " + failure);
                ok[i] = false;
                --out.retired;
            }
        }
    }

    std::unique_ptr<SweepRunner> runner_;
    std::vector<RunSpec> specs_;
    std::vector<std::string> workloads_;
    std::vector<std::size_t> order_;
    /** The first repetition's cells, for the scorecard. */
    std::vector<RunResult> first_;
    std::vector<bool> firstOk_;
};

/**
 * paper_err for a workload that is not the matrix: the scorecard is a
 * property of the simulator's model, not of the offered traffic, so
 * every workload recomputes it from one untimed matrix repetition
 * after its measured phase (a modelling change then shows in every
 * workload's row).
 */
std::map<std::string, std::pair<double, std::string>>
matrixPaperErr()
{
    PaperMatrix matrix;
    matrix.setup(1, nullptr);
    matrix.rep(0, nullptr);
    return matrix.extraMetrics();
}

// ------------------------------------------------------------ fleet-16

/**
 * One 16-device fleet cell: least-backlog placement, bench_fleet's
 * default tenants (AES and jacobi-1d at 3:1, Conduit), Poisson
 * arrivals at the knee rung of bench_fleet's calibrated ladder (the
 * fleet's aggregate isolated service rate), 256 jobs, fresh devices
 * with the runner's default capacity rule.
 *
 * The seed draws kSchedules arrival schedules and repetitions cycle
 * through them, one cell at a time. One schedule's peak memory differs
 * from another's by up to 12% and its host time by more, so a run
 * measures several instead of letting one draw decide its numbers.
 */
class Fleet16 : public Workload
{
  public:
    static constexpr std::size_t kDevices = 16;
    static constexpr std::size_t kJobs = 256;
    static constexpr std::size_t kSchedules = 8;

    void
    setup(std::uint64_t seed, Recorder *rec) override
    {
        runner_ = std::make_unique<SweepRunner>(SweepOptions{2, {}});
        const SsdConfig cfg = runner::defaultSweepConfig();
        const std::vector<WorkloadId> ids = {WorkloadId::Aes,
                                             WorkloadId::Jacobi1d};
        compileAll(runner_->cache(), ids, {}, cfg, rec);

        // bench_fleet's calibration: isolated one-job makespans set
        // each tenant's SLO (x3) and the fleet's service rate.
        std::vector<ClusterTenant> tenants;
        double meanServiceSec = 0.0;
        for (std::size_t t = 0; t < ids.size(); ++t) {
            LoadRunSpec iso;
            iso.workload = workloadName(ids[t]);
            iso.workloadId = ids[t];
            iso.jobs = 1;
            const double tIso =
                ticksToSeconds(runner_->runLoad(iso).makespan);
            ClusterTenant ten;
            ten.name = workloadName(ids[t]);
            ten.workloadId = ids[t];
            ten.sloMs = tIso * 1000.0 * 3.0;
            ten.weight = t == 0 ? 3.0 : 1.0;
            meanServiceSec += tIso * ten.weight / 4.0;
            tenants.push_back(std::move(ten));
        }
        specs_.clear();
        for (std::size_t k = 0; k < kSchedules; ++k) {
            ClusterRunSpec spec;
            spec.label = "fleet-16";
            spec.placement = "least-backlog";
            spec.config = cfg;
            spec.tenants = tenants;
            spec.devices = kDevices;
            spec.jobs = kJobs;
            spec.jobsPerSec =
                static_cast<double>(kDevices) / meanServiceSec;
            spec.arrivals = ArrivalKind::Poisson;
            spec.arrivalSeed = seed * kSchedules + 1 + k;
            specs_.push_back(std::move(spec));
        }
    }

    RepResult
    rep(std::size_t index, Recorder *rec) override
    {
        RepResult out;
        out.schedule = index % kSchedules;
        const ClusterRunSpec &spec = specs_[out.schedule];
        cluster::ClusterSnapshot snap;
        {
            Recorder::Scope repSpan(rec, "rep");
            Recorder::Scope cell(rec, "cell", 0);
            out.add(countCell(kJobs, [&](std::size_t &partial) {
                snap = rec ? traced(spec, *rec, partial)
                           : runner_->runCluster(spec);
                return snap.routed.size();
            }));
        }
        if (!out.firstError.empty()) {
            Digest d;
            d.add(std::string("failed"));
            out.digest = d.value();
            return out;
        }

        // Every routed job retired exactly once, on its device.
        std::set<std::pair<std::size_t, JobId>> seen;
        std::size_t onDevices = 0;
        for (const DeviceSnapshot &ds : snap.devices)
            onDevices += ds.jobs.size();
        bool once = onDevices == snap.routed.size();
        Digest d;
        d.add(static_cast<std::uint64_t>(snap.base));
        d.add(static_cast<std::uint64_t>(snap.makespan));
        JobTally jobs;
        for (std::size_t r = 0; r < snap.routed.size(); ++r) {
            const cluster::RoutedJob &rj = snap.routed[r];
            once = once && seen.insert({rj.device, rj.id}).second;
            const JobResult &j = snap.result(r);
            once = once && j.end >= j.admitted && j.admitted >= j.arrival;
            d.add(static_cast<std::uint64_t>(rj.tenant));
            d.add(static_cast<std::uint64_t>(rj.device));
            d.add(j);
            jobs.add(j);
        }
        out.digest = d.value();
        if (!once) {
            out.checkFailures.push_back("fleet jobs did not retire once");
            out.retired = 0;
        }

        if (rec) {
            jobs.record(*rec);
            rec->count("sim.makespan_us",
                       ticksToUs(snap.makespan - snap.base));
            Recorder::Scope rows(rec, "runner.rows");
            const auto cellRows = runner::makeClusterRows(spec, snap);
            std::ostringstream os;
            runner::writeClusterCsv(os, cellRows);
            rec->count("cluster.imbalance", cellRows.front().imbalance);
        }
        return out;
    }

    std::map<std::string, std::pair<double, std::string>>
    extraMetrics() override
    {
        return matrixPaperErr();
    }

  private:
    /**
     * The fleet cell through Cluster::submit/drain. ClusterRunSpec
     * names its policies, so the counting wrappers need the Cluster
     * API: the runner's merged arrival schedule and default capacity
     * rule are rebuilt here from the public spec, and the digest check
     * holds the copy to runCluster's result.
     */
    cluster::ClusterSnapshot
    traced(const ClusterRunSpec &spec, Recorder &rec,
           std::size_t &partial)
    {
        const std::size_t nt = spec.tenants.size();
        std::vector<std::shared_ptr<const Program>> progs;
        double weightSum = 0.0;
        for (const ClusterTenant &t : spec.tenants) {
            progs.push_back(programOf(runner_->cache(), *t.workloadId,
                                      spec.params, spec.config));
            weightSum += t.weight;
        }
        // Jobs split by weight (floor, remainder round-robin); each
        // tenant walks its own arrival process (seed + tenant index);
        // merged in (arrival, per-tenant index, tenant) order.
        std::vector<std::size_t> quota(nt);
        std::size_t assigned = 0;
        for (std::size_t t = 0; t < nt; ++t) {
            quota[t] = static_cast<std::size_t>(
                static_cast<double>(spec.jobs) *
                (spec.tenants[t].weight / weightSum));
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
        for (std::size_t t = 0; t < nt; ++t) {
            const double rate = spec.jobsPerSec *
                (spec.tenants[t].weight / weightSum);
            auto arr = makeArrivals(spec.arrivals,
                                    static_cast<double>(kPsPerS) / rate,
                                    spec.arrivalSeed + t);
            Tick at = 0;
            for (std::size_t i = 0; i < quota[t]; ++i) {
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

        // Fresh devices sized to the fleet-wide footprint sum.
        std::uint64_t capacity = 0;
        for (std::size_t t = 0; t < nt; ++t)
            capacity += quota[t] * progs[t]->footprintPages;
        auto occupancy = occupancyTracer();
        cluster::ClusterOptions copts;
        copts.tracer = occupancy;
        copts.devices.resize(spec.devices);
        for (cluster::DeviceSeed &seed : copts.devices) {
            seed.options = makeDeviceOptions(spec.config, spec.engine,
                                             spec.params);
            seed.options.capacityPages = capacity;
            seed.options.retire = RetirePolicy::OnComplete;
        }
        cluster::Cluster fleet(
            std::move(copts),
            std::make_unique<CountingPlacement>(
                cluster::makePlacement(spec.placement,
                                       spec.placementSeed),
                &rec));

        cluster::ClusterSnapshot snap;
        try {
            for (const Slot &s : schedule) {
                JobSpec job;
                job.name = spec.tenants[s.tenant].name;
                job.program = progs[s.tenant];
                job.policyObj =
                    jobPolicy(spec.tenants[s.tenant].technique, &rec);
                job.arrival = s.at;
                Recorder::Scope span(&rec, "cluster.submit");
                fleet.submit(job, s.tenant);
            }
            Recorder::Scope span(&rec, "cluster.drain");
            snap = fleet.drain();
        } catch (...) {
            for (std::size_t d = 0; d < fleet.size(); ++d)
                partial += fleet.device(d).jobCount() -
                    fleet.device(d).unfinishedJobs();
            throw;
        }
        for (std::size_t d = 0; d < fleet.size(); ++d)
            recordCounters(rec, {}, fleet.device(d).engine().stats());
        recordOccupancy(rec, *occupancy);
        rec.count("sim.events", static_cast<double>(snap.eventsFired));
        return snap;
    }

    std::unique_ptr<SweepRunner> runner_;
    std::vector<ClusterRunSpec> specs_;
};

// --------------------------------------------------------- aged-steady

/**
 * bench_reliability's workload in steady-state mode: AES under Conduit
 * and DM-Offloading, on devices aged to 0 and 3000 P/E cycles (30
 * retention days per 1000 cycles, so 90 days at 3000), open-loop at 2x
 * the fresh device's isolated service rate. Each age rung's device is
 * preconditioned once by a warm phase as long as the measured one,
 * built with SweepRunner::buildWarmImage under Conduit, then forked
 * per policy; the measured jobs continue the same Poisson process, so
 * every cell is exactly a `bench_reliability --ages 0,3000 --jobs 64
 * --warmup-jobs 64 --steady-state` cell. That bench replays one
 * schedule (arrival seed 1) at every age and policy, and so does this
 * workload: the seed only orders the cells. A seed-drawn schedule
 * moved host time per repetition by up to 30% between seeds (how long
 * the failing cells run before they throw), which no bound on
 * jobs_per_s could absorb; fleet-16 carries the seed-drawn arrivals.
 */
class AgedSteady : public Workload
{
  public:
    static constexpr std::size_t kWarmJobs = 64;
    static constexpr std::size_t kJobs = 64;
    static constexpr std::uint64_t kArrivalSeed = 1;

    void
    setup(std::uint64_t seed, Recorder *rec) override
    {
        runner_ = std::make_unique<SweepRunner>(SweepOptions{1, {}});
        compileAll(runner_->cache(), {WorkloadId::Aes}, {},
                   runner::defaultSweepConfig(), rec);
        LoadRunSpec iso;
        iso.workload = "AES";
        iso.workloadId = WorkloadId::Aes;
        iso.jobs = 1;
        rate_ = 2.0 / ticksToSeconds(runner_->runLoad(iso).makespan);

        rungs_.clear();
        for (std::uint32_t cycles : {0u, 3000u}) {
            Rung r;
            r.cycles = cycles;
            r.warm.workload = "AES";
            r.warm.workloadId = WorkloadId::Aes;
            r.warm.jobsPerSec = rate_;
            r.warm.arrivalSeed = kArrivalSeed;
            r.warm.warmupJobs = kWarmJobs;
            r.warm.steadyState = true;
            r.warm.config.reliability.enabled = true;
            r.warm.config.reliability.preWearCycles = cycles;
            r.warm.config.reliability.retentionDays = cycles * 30.0 / 1000.0;
            Recorder::Scope span(rec, "core.warm_build");
            try {
                r.image = std::make_shared<const DeviceImage>(
                    runner_->buildWarmImage(r.warm));
                if (rec)
                    rec->count("core.images", 1);
            } catch (const std::exception &e) {
                r.error = e.what();
            }
            rungs_.push_back(std::move(r));
        }
        order_ = cellOrder(rungs_.size() * kPolicies.size(), seed);
    }

    RepResult
    rep(std::size_t /*index*/, Recorder *rec) override
    {
        RepResult out;
        const std::size_t n = order_.size();
        std::vector<std::uint64_t> digests(n);
        JobTally jobs;
        {
            Recorder::Scope repSpan(rec, "rep");
            for (std::size_t i : order_) {
                Recorder::Scope cell(rec, "cell", static_cast<int>(i));
                Digest d;
                const CellCount c =
                    countCell(kJobs, [&](std::size_t &partial) {
                        return runCell(rungs_[i / kPolicies.size()],
                                       kPolicies[i % kPolicies.size()], rec,
                                       d, jobs, partial);
                    });
                if (!c.error.empty()) {
                    d.add(std::string("failed"));
                    d.add(static_cast<std::uint64_t>(c.retired));
                }
                digests[i] = d.value();
                out.add(c);
            }
        }
        Digest all;
        for (std::uint64_t v : digests)
            all.add(v);
        out.digest = all.value();
        if (rec)
            jobs.record(*rec);
        return out;
    }

    std::map<std::string, std::pair<double, std::string>>
    extraMetrics() override
    {
        return matrixPaperErr();
    }

  private:
    struct Rung
    {
        std::uint32_t cycles = 0;
        LoadRunSpec warm;
        std::shared_ptr<const DeviceImage> image;
        std::string error;
    };

    inline static const std::vector<std::string> kPolicies = {
        "Conduit", "DM-Offloading"};

    /** One (rung, policy) cell on a device forked from the rung image. */
    std::size_t
    runCell(const Rung &rung, const std::string &policy, Recorder *rec,
            Digest &d, JobTally &tally, std::size_t &partial)
    {
        if (!rung.image)
            throw std::runtime_error("warm image build failed: " +
                                     rung.error);
        std::optional<Device> dev;
        {
            Recorder::Scope span(rec, "core.fork");
            dev.emplace(*rung.image);
        }
        const std::size_t carried = dev->jobCount();
        const Tick start = dev->now();
        std::map<std::string, double> before;
        std::shared_ptr<trace::Tracer> occupancy;
        if (rec) {
            before = counterValues(dev->engine().stats());
            occupancy = occupancyTracer();
            dev->setTracer(occupancy);
        }
        const auto prog =
            programOf(runner_->cache(), WorkloadId::Aes, rung.warm.params,
                      rung.warm.config);
        auto arrivals = makeArrivals(
            ArrivalKind::Poisson, static_cast<double>(kPsPerS) / rate_,
            kArrivalSeed);
        for (std::size_t j = 0; j < kWarmJobs; ++j)
            arrivals->next();
        Tick at = start;
        DeviceSnapshot snap;
        try {
            for (std::size_t j = 0; j < kJobs; ++j) {
                at += arrivals->next();
                JobSpec job;
                job.name = "AES";
                job.program = prog;
                job.policyObj = jobPolicy(policy, rec);
                job.arrival = at;
                Recorder::Scope span(rec, "core.submit");
                dev->submit(job);
            }
            Recorder::Scope span(rec, "core.drain");
            snap = dev->drain();
        } catch (...) {
            partial = dev->jobCount() - carried - dev->unfinishedJobs();
            throw;
        }

        // Every measured job retired exactly once, after the fork.
        if (snap.jobs.size() != carried + kJobs)
            throw std::runtime_error("aged cell retired " +
                                     std::to_string(snap.jobs.size()) +
                                     " jobs");
        for (std::size_t j = carried; j < snap.jobs.size(); ++j) {
            const JobResult &r = snap.jobs[j];
            if (r.arrival < start || r.end < r.admitted ||
                r.admitted < r.arrival)
                throw std::runtime_error("aged cell job " +
                                         std::to_string(r.id) +
                                         " has an impossible timeline");
            d.add(r);
            if (rec)
                tally.add(r);
        }

        if (rec) {
            recordCounters(*rec, before, dev->engine().stats());
            recordOccupancy(*rec, *occupancy);
            rec->count("sim.events",
                       static_cast<double>(snap.eventsFired -
                                           rung.image->engine.queueFired));
            rec->count("sim.makespan_us", ticksToUs(snap.makespan - start));
            Recorder::Scope rows(rec, "runner.rows");
            runner::AgingRunSpec cell;
            cell.load = rung.warm;
            cell.load.technique = policy;
            cell.load.jobs = kJobs;
            cell.preWearCycles = rung.cycles;
            cell.retentionDays = rung.warm.config.reliability.retentionDays;
            std::ostringstream os;
            runner::writeAgingCsv(os, {runner::makeAgingRow(cell, snap)});
        }
        return kJobs;
    }

    std::unique_ptr<SweepRunner> runner_;
    double rate_ = 0.0;
    std::vector<Rung> rungs_;
    std::vector<std::size_t> order_;
};

} // namespace

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "paper-matrix", "fleet-16", "aged-steady"};
    return names;
}

std::unique_ptr<Workload>
makeWorkload(const std::string &name)
{
    if (name == "paper-matrix")
        return std::make_unique<PaperMatrix>();
    if (name == "fleet-16")
        return std::make_unique<Fleet16>();
    if (name == "aged-steady")
        return std::make_unique<AgedSteady>();
    return nullptr;
}

} // namespace perfbench
