/**
 * @file
 * Shared command-line surface for the sweep benches.
 *
 * Every bench accepts the same flags:
 *
 *   --threads N        worker threads (0 = hardware concurrency)
 *   --scale X          workload dataset-scale multiplier
 *   --workloads a,b    keep only the named workload rows
 *   --techniques a,b   keep only the named technique columns
 *   --csv PATH         write machine-readable rows as CSV
 *   --json PATH        write machine-readable rows as JSON
 *   --cell-perf PATH   write per-cell wall-clock attribution as CSV
 *   --trace PATH       write a simulated-time trace of every cell
 *                      (.csv = compact CSV, else Perfetto JSON)
 *   --trace-filter c,c limit tracing to the named categories
 *                      (job,occupancy,reliability,queue,placement)
 *   --list-workloads   print the workload names --workloads accepts
 *   --list-techniques  print the technique names --techniques accepts
 *   --list-policies    print every name makePolicy() accepts
 *
 * Benches with cell shapes beyond the workload x technique matrix
 * (e.g. bench_saturation's offered-load axis) register their extra
 * flags through parse()'s handler hook, so every bench still rejects
 * unknown flags and shares one usage surface.
 *
 * Sweep timing goes to stderr so stdout stays byte-identical across
 * thread counts (the reproducibility contract tests rely on).
 */

#ifndef CONDUIT_RUNNER_SWEEP_CLI_HH
#define CONDUIT_RUNNER_SWEEP_CLI_HH

#include <cstdint>
#include <functional>
#include <string>

#include "src/runner/sweep_runner.hh"

namespace conduit::runner
{

/** Parsed common bench flags. */
struct SweepCli
{
    unsigned threads = 0;
    double scale = 1.0;
    std::string workloadFilter;
    std::string techniqueFilter;
    std::string csvPath;
    std::string jsonPath;
    /**
     * --cell-perf PATH: per-cell wall-seconds / events-fired rows
     * (SweepPerf::perCell) as CSV. Off by default — wall-clock
     * attribution is nondeterministic, so it never lands in the
     * default outputs the byte-identity contract covers.
     */
    std::string cellPerfPath;

    /**
     * --trace PATH: write the sweep's per-cell simulated-time traces
     * (SweepRunner::lastTraces()). Tracing never perturbs simulated
     * results, and the trace file itself is bit-identical across
     * thread counts and repeats.
     */
    std::string tracePath;

    /** --trace-filter: category list for --trace (empty = all). */
    std::string traceFilter;

    /**
     * --list-workloads / --list-techniques: defer the listing until
     * the bench's matrix exists so the printed names are exactly the
     * labels its filters accept (custom axes included). configure()
     * services them; matrix-less benches call listAndExit directly.
     */
    bool listWorkloads = false;
    bool listTechniques = false;

    /**
     * Bench-specific flag hook: called with each flag the shared
     * parser does not recognize, plus a thunk that consumes and
     * returns the flag's value (exits with usage if none is left).
     * Return true when the flag was handled; false falls through to
     * the unknown-flag error.
     */
    using FlagHandler = std::function<bool(
        const std::string &flag,
        const std::function<std::string()> &value)>;

    /**
     * Parse argv; prints usage and exits on --help or bad flags.
     * Unknown flags are an error unless @p extra claims them;
     * @p extra_usage (one "  --flag X  description" line per extra
     * flag, newline-terminated) is appended to the usage text.
     * --list-policies is serviced here — the policy table is global,
     * unlike the per-bench matrix labels behind --list-workloads.
     */
    static SweepCli parse(int argc, char **argv,
                          const FlagHandler &extra = {},
                          const char *extra_usage = nullptr);

    /**
     * Parse a device age in P/E cycles for a bench's extra flag
     * (--age, --age-mix, --ages): a whole non-negative number that
     * fits the uint32_t wear counters. Anything else — trailing
     * garbage, a minus sign, a value past 4294967295 — prints "invalid
     * value for FLAG" and exits with code 2 rather than wrapping.
     */
    static std::uint32_t parseCycles(const char *flag,
                                     const std::string &value);

    /** SweepRunner options implied by the flags (tracing included). */
    SweepOptions runnerOptions() const;

    /**
     * Apply the row/column filters and scale to a matrix. A
     * non-empty @p baseline names a technique the caller normalizes
     * every row to; it stays in the matrix even when --techniques
     * omits it, since dropping it could only crash the caller.
     */
    void configure(RunMatrix &matrix,
                   const std::string &baseline = "") const;

    /**
     * Post-sweep bookkeeping: write the requested CSV/JSON files
     * and report wall-clock + thread count on stderr.
     *
     * @return Process exit status: 0 on success, 1 when a requested
     *         output file could not be written (benches return this
     *         from main so scripted pipelines see the failure).
     *
     * Pass the sweep's SweepPerf (runner.lastPerf()) to service
     * --cell-perf; benches that cannot attribute per-cell perf leave
     * it null and the flag reports itself unsupported. Likewise pass
     * @p runner to service --trace (lastTraces()); benches that
     * collect results outside a SweepRunner sweep call writeTraces()
     * themselves instead.
     */
    int finish(const SweepResult &sweep,
               const SweepPerf *perf = nullptr,
               const SweepRunner *runner = nullptr) const;

    /**
     * Service --trace against @p runner's lastTraces(): no-op without
     * the flag, else write the trace file.
     * @return Process exit status contribution (0 ok, 1 on failure).
     */
    int writeTraces(const SweepRunner &runner) const;

    /**
     * Write @p perf's per-cell rows to @p path as CSV
     * (label,wall_seconds,events_fired,events_per_sec).
     * @return false when the file could not be written.
     */
    static bool writeCellPerfCsv(const std::string &path,
                                 const SweepPerf &perf);
};

/** Print @p labels one per line (deduplicated, in order), exit 0. */
[[noreturn]] void
listAndExit(const std::vector<std::string> &labels);

} // namespace conduit::runner

#endif // CONDUIT_RUNNER_SWEEP_CLI_HH
