/**
 * @file
 * Paper-fidelity scorecard of the Fig. 7(a) evaluation matrix.
 *
 * Every bracketed paper value printed by bench_fig05_motivation,
 * bench_fig07a_speedup, bench_fig07b_energy and
 * bench_fig08_tail_latency becomes one claim, recomputed here from the
 * matrix's cell results (never scraped from a bench's stdout). Each
 * claim is held in ratio form: a speedup or tail improvement is its
 * ratio, a share such as "Conduit / Ideal = 62%" is 0.62, and an
 * energy saving s enters as the remaining-energy ratio 1 - s, so a
 * negative measured saving is a ratio above 1 rather than a sign flip.
 * A claim's error is |ln(measured / paper)|; paper_err is their mean.
 */

#ifndef PERFBENCH_SCORECARD_HH
#define PERFBENCH_SCORECARD_HH

#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench
{

/** The per-cell outcomes the claims are computed from. */
struct CellOutcome
{
    double execTime = 0.0;
    double energyJ = 0.0;
    /** Per-instruction latency tail (us); engine cells only. */
    double p99Us = 0.0;
    double p9999Us = 0.0;
};

/** Cell outcomes keyed by (workload, technique) display names. */
using MatrixOutcomes =
    std::map<std::pair<std::string, std::string>, CellOutcome>;

/** One paper claim next to its measured value. */
struct Claim
{
    std::string figure;
    std::string metric;
    /** Both in ratio form (see the file comment). */
    double paper = 0.0;
    double measured = 0.0;
    /** |ln(measured / paper)|. */
    double err = 0.0;
};

/** A bracketed paper value the matrix cannot reproduce, and why. */
struct ExcludedClaim
{
    std::string figure;
    std::string metric;
    std::string reason;
};

/** |ln(measured / paper)|; throws unless both are positive. */
double claimError(double measured, double paper);

/** Ratio form of an energy saving: the share of energy that remains. */
inline double
savingRatio(double saving)
{
    return 1.0 - saving;
}

/**
 * Build every claim from @p cells over @p workloads (the Fig. 7(a)
 * rows). A claim that needs a cell missing from @p cells (one that
 * threw) goes to @p excluded instead of being dropped silently.
 */
std::vector<Claim> scoreClaims(const MatrixOutcomes &cells,
                               const std::vector<std::string> &workloads,
                               std::vector<ExcludedClaim> &excluded);

/** The paper values the matrix cannot reproduce at all. */
const std::vector<ExcludedClaim> &excludedClaims();

/** Mean claim error (the paper_err metric). */
double paperErr(const std::vector<Claim> &claims);

} // namespace perfbench

#endif // PERFBENCH_SCORECARD_HH
