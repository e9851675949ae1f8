/**
 * @file
 * Measurement plumbing shared by the benchmark's workloads: the
 * failure counter every cell runs under, the simulated-result digest,
 * and the traced run's recorder (spans timed from outside the
 * simulator, plus counting wrappers around the offload and placement
 * policies). Nothing here hooks into src/: every number is read from
 * a public call's result or timed around it.
 */

#ifndef PERFBENCH_HARNESS_HH
#define PERFBENCH_HARNESS_HH

#include <chrono>
#include <cstdint>
#include <cstring>
#include <exception>
#include <map>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "src/cluster/placement.hh"
#include "src/core/device.hh"
#include "src/offload/policy.hh"
#include "src/trace/trace.hh"

namespace perfbench
{

using Clock = std::chrono::steady_clock;

/** Seconds elapsed since @p t0. */
inline double
since(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/**
 * Host seconds of a fixed memory- and allocator-bound reference
 * kernel: sort half a million seeded 64-bit keys and hash a quarter
 * of them into a std::unordered_map. It shares no code with the
 * simulator, so no change to src/ moves it; it moves only with the
 * host's speed, which on a shared VM swings by up to 2x over minutes,
 * mostly through memory contention (a compute-only loop does not
 * track it). Host-time metrics are scaled by it (see README.md).
 */
double referenceSeconds();

/** The reference kernel's time on the host the bounds were set on. */
constexpr double kReferenceNominalSeconds = 0.05;

/** Jobs one cell attempted and how many of them retired. */
struct CellCount
{
    std::size_t attempted = 0;
    std::size_t retired = 0;
    /** What the cell threw, empty when it ran to completion. */
    std::string error;

    std::size_t failed() const { return attempted - retired; }
};

/**
 * Run one cell of @p attempted jobs. @p body returns how many jobs
 * retired; when it throws, the count it stored in its argument before
 * throwing stands (0 unless it knows better), so a throw loses that
 * one cell's unretired jobs instead of the whole process.
 */
template <typename Body>
CellCount
countCell(std::size_t attempted, Body &&body)
{
    CellCount c;
    c.attempted = attempted;
    std::size_t partial = 0;
    try {
        c.retired = body(partial);
    } catch (const std::exception &e) {
        c.retired = partial;
        c.error = e.what();
    }
    if (c.retired > attempted)
        c.retired = attempted;
    return c;
}

/** FNV-1a over the simulated outcomes of a repetition. */
class Digest
{
  public:
    void
    add(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            h_ ^= (v >> (8 * i)) & 0xffu;
            h_ *= 1099511628211ULL;
        }
    }

    void
    add(double v)
    {
        std::uint64_t bits = 0;
        std::memcpy(&bits, &v, sizeof bits);
        add(bits);
    }

    void
    add(const std::string &s)
    {
        add(static_cast<std::uint64_t>(s.size()));
        for (unsigned char ch : s) {
            h_ ^= ch;
            h_ *= 1099511628211ULL;
        }
    }

    /** Every simulated field of @p r (not its self-perf metadata). */
    void add(const conduit::RunResult &r);

    /** A retired job: its timeline, region and result. */
    void add(const conduit::JobResult &j);

    std::uint64_t value() const { return h_; }

  private:
    std::uint64_t h_ = 1469598103934665603ULL;
};

/**
 * The traced run's recorder. Spans (name, start, end, parent, rep,
 * cell) are kept in memory and written out at the end; a layer's
 * self time is its span minus the spans nested in it. Exact counts
 * accumulate per repetition beside them.
 */
class Recorder
{
  public:
    struct Span
    {
        const char *name;
        double start;
        double end;
        int parent;
        int rep;
        int cell;
    };

    /** RAII span: opened on construction, closed on destruction. */
    class Scope
    {
      public:
        Scope(Recorder *r, const char *name, int cell = -1);
        ~Scope();
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        Recorder *r_;
        int id_ = -1;
    };

    Recorder() : t0_(Clock::now()) {}

    /** Subsequent spans and counts belong to repetition @p rep
     *  (-1 = set-up). */
    void beginRep(int rep);

    /** Add @p v to this repetition's count @p name. */
    void count(const std::string &name, double v) { counts_[rep_][name] += v; }

    /** Total span seconds by name within @p rep. */
    std::map<std::string, double> spanTotals(int rep) const;

    /** Exact counts recorded within @p rep. */
    const std::map<std::string, double> &
    counts(int rep) const
    {
        static const std::map<std::string, double> none;
        const auto it = counts_.find(rep);
        return it == counts_.end() ? none : it->second;
    }

    /** Self seconds (span minus nested spans) by name, all reps. */
    std::map<std::string, double> selfTotals() const;

    /** Write every span as CSV (name,start_s,end_s,parent,rep,cell). */
    void writeSpans(std::ostream &os) const;

    /** @name Offload-decision tally (CountingPolicy) @{ */
    std::uint64_t decisions = 0;
    double selectSeconds = 0.0;
    /** @} */

    /** Probe vectors handed to the placement policy. */
    std::uint64_t probes = 0;

  private:
    Clock::time_point t0_;
    std::vector<Span> spans_;
    std::vector<int> open_;
    int rep_ = -1;
    std::map<int, std::map<std::string, double>> counts_;
};

/** Times and counts every decision of a wrapped offload policy. */
class CountingPolicy : public conduit::OffloadPolicy
{
  public:
    CountingPolicy(std::unique_ptr<conduit::OffloadPolicy> inner,
                   Recorder *rec)
        : inner_(std::move(inner)), rec_(rec)
    {
    }

    conduit::Target
    select(const conduit::VecInstruction &instr,
           const conduit::CostFeatures &f) override
    {
        const auto t0 = Clock::now();
        const conduit::Target t = inner_->select(instr, f);
        rec_->selectSeconds += since(t0);
        ++rec_->decisions;
        return t;
    }

    std::string name() const override { return inner_->name(); }
    bool ideal() const override { return inner_->ideal(); }

  private:
    std::unique_ptr<conduit::OffloadPolicy> inner_;
    Recorder *rec_;
};

/** Counts the device probes a wrapped placement policy observes. */
class CountingPlacement : public conduit::cluster::PlacementPolicy
{
  public:
    CountingPlacement(
        std::unique_ptr<conduit::cluster::PlacementPolicy> inner,
        Recorder *rec)
        : inner_(std::move(inner)), rec_(rec)
    {
    }

    const char *name() const override { return inner_->name(); }
    bool needsProbes() const override { return inner_->needsProbes(); }

    std::size_t
    place(const conduit::cluster::JobView &job,
          const std::vector<conduit::DeviceProbe> &probes) override
    {
        if (inner_->needsProbes())
            rec_->probes += probes.size();
        return inner_->place(job, probes);
    }

  private:
    std::unique_ptr<conduit::cluster::PlacementPolicy> inner_;
    Recorder *rec_;
};

/** Counter values of @p stats by name. */
std::map<std::string, double>
counterValues(const conduit::StatSet &stats);

/** Add each counter's growth since @p before to @p rec's counts. */
void recordCounters(Recorder &rec,
                    const std::map<std::string, double> &before,
                    const conduit::StatSet &after);

/**
 * Add simulated occupancy (ready to completion, us) per resource from
 * @p occupancy's Instr events: isp.busy, pud.busy, nand.die_busy.
 */
void recordOccupancy(Recorder &rec,
                     const conduit::trace::Tracer &occupancy);

/** A tracer recording resource occupancy only. */
std::shared_ptr<conduit::trace::Tracer> occupancyTracer();

} // namespace perfbench

#endif // PERFBENCH_HARNESS_HH
