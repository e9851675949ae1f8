/**
 * @file
 * The benchmark's three workloads.
 *
 * Each workload has a cold set-up (program generation and compile,
 * calibration, warm images) and a repetition: a fixed amount of work
 * that is timed as a whole and repeated in-process. A repetition runs
 * on one of two paths over the same cells:
 *
 *  - untraced (rec == nullptr): the single-cell entry points the
 *    benches use (SweepRunner::runOne / runCluster, or a Device forked
 *    from a warm image), each cell under countCell so a throw loses
 *    that cell's unretired jobs only;
 *  - traced: the same cells driven through the lower-level public
 *    calls (Device::submit/drain, Cluster::submit/drain, the counting
 *    policy wrappers, the row emitters), with spans around each call
 *    and the layers' exact counters read afterwards.
 *
 * Both paths must produce the same simulated digest.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "harness.hh"

namespace perfbench
{

/** What one repetition produced. */
struct RepResult
{
    std::size_t attempted = 0;
    /** Jobs that retired exactly once and passed the cell checks. */
    std::size_t retired = 0;
    /** Digest of the simulated outcomes, in canonical cell order. */
    std::uint64_t digest = 0;
    /**
     * Which of the workload's input schedules the repetition ran;
     * repetitions of one schedule must produce one digest.
     */
    std::size_t schedule = 0;
    /** Output checks that failed (empty when all held). */
    std::vector<std::string> checkFailures;
    /** First exception a cell threw (empty when none did). */
    std::string firstError;

    /** Fold one cell's count in. */
    void
    add(const CellCount &c)
    {
        attempted += c.attempted;
        retired += c.retired;
        if (firstError.empty() && !c.error.empty())
            firstError = c.error;
    }
};

/** One benchmark workload (see the file comment). */
class Workload
{
  public:
    virtual ~Workload() = default;

    /**
     * Cold set-up from @p seed, replacing any earlier set-up (a fresh
     * compile cache, calibration and images every call). Spans and
     * counts go to @p rec when non-null.
     */
    virtual void setup(std::uint64_t seed, Recorder *rec) = 0;

    /**
     * Repetition @p index (traced when @p rec is non-null). A workload
     * with several input schedules runs schedule index % count.
     */
    virtual RepResult rep(std::size_t index, Recorder *rec) = 0;

    /**
     * Workload-specific end-to-end metrics (name -> value, unit),
     * computed once after the first repetition.
     */
    virtual std::map<std::string, std::pair<double, std::string>>
    extraMetrics()
    {
        return {};
    }
};

/** The workload names, in BENCHMARK.json order. */
const std::vector<std::string> &workloadNames();

/** Construct the named workload; nullptr for an unknown name. */
std::unique_ptr<Workload> makeWorkload(const std::string &name);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
