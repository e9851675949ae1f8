#include "scorecard.hh"

#include <cmath>
#include <stdexcept>

#include "src/runner/sweep_result.hh"

namespace perfbench
{

namespace
{

/** Per-workload values of @p technique, via @p get, in row order. */
template <typename Get>
std::vector<double>
column(const MatrixOutcomes &cells,
       const std::vector<std::string> &workloads,
       const std::string &technique, Get get)
{
    std::vector<double> out;
    for (const std::string &w : workloads)
        out.push_back(get(w, cells.at({w, technique})));
    return out;
}

} // namespace

double
claimError(double measured, double paper)
{
    if (!(measured > 0.0) || !(paper > 0.0))
        throw std::domain_error("claim ratios must be positive");
    return std::fabs(std::log(measured / paper));
}

std::vector<Claim>
scoreClaims(const MatrixOutcomes &cells,
            const std::vector<std::string> &workloads,
            std::vector<ExcludedClaim> &excluded)
{
    using conduit::runner::gmean;
    // Speedup over CPU and energy normalized to CPU, gmean over rows:
    // exactly the GMEAN rows the figure benches print.
    const auto speedup = [&](const std::string &t) {
        return gmean(column(cells, workloads, t,
                            [&](const std::string &w,
                                const CellOutcome &c) {
                                return cells.at({w, "CPU"}).execTime /
                                    c.execTime;
                            }));
    };
    const auto energy = [&](const std::string &t) {
        return gmean(column(cells, workloads, t,
                            [&](const std::string &w,
                                const CellOutcome &c) {
                                return c.energyJ /
                                    cells.at({w, "CPU"}).energyJ;
                            }));
    };

    std::vector<Claim> claims;
    const auto add = [&](const char *fig, const std::string &metric,
                         double paper, auto measure) {
        try {
            const double measured = measure();
            claims.push_back(
                {fig, metric, paper, measured, claimError(measured, paper)});
        } catch (const std::out_of_range &) {
            excluded.push_back({fig, metric, "a cell it needs did not retire"});
        }
    };

    // Fig. 5 (motivation).
    add("fig5", "DM-Offloading vs CPU speedup", 2.3,
        [&] { return speedup("DM-Offloading"); });
    add("fig5", "BW-Offloading vs CPU speedup", 2.1,
        [&] { return speedup("BW-Offloading"); });
    add("fig5", "Ideal gap over DM-Offloading", 2.5,
        [&] { return speedup("Ideal") / speedup("DM-Offloading"); });

    // Fig. 7(a) (speedup).
    add("fig7a", "Conduit vs CPU speedup", 4.2,
        [&] { return speedup("Conduit"); });
    const std::pair<const char *, double> speedups[] = {
        {"GPU", 1.8},          {"ISP", 3.3},
        {"PuD-SSD", 2.2},      {"Flash-Cosmos", 3.3},
        {"Ares-Flash", 2.3},   {"BW-Offloading", 2.0},
        {"DM-Offloading", 1.8},
    };
    for (const auto &[name, paper] : speedups) {
        const std::string baseline = name;
        add("fig7a", "Conduit vs " + baseline + " speedup", paper,
            [&] { return speedup("Conduit") / speedup(baseline); });
    }
    add("fig7a", "Conduit / Ideal", 0.62,
        [&] { return speedup("Conduit") / speedup("Ideal"); });

    // Fig. 7(b) (energy), savings in ratio form.
    add("fig7b", "Conduit energy saving vs CPU", savingRatio(0.782),
        [&] { return energy("Conduit"); });
    const std::pair<const char *, double> savings[] = {
        {"GPU", 0.582},          {"ISP", 0.673},
        {"PuD-SSD", 0.606},      {"Flash-Cosmos", 0.680},
        {"Ares-Flash", 0.574},   {"BW-Offloading", 0.478},
        {"DM-Offloading", 0.468},
    };
    for (const auto &[name, paper] : savings) {
        const std::string baseline = name;
        add("fig7b", "Conduit energy saving vs " + baseline,
            savingRatio(paper),
            [&] { return energy("Conduit") / energy(baseline); });
    }
    add("fig7b", "Ideal energy efficiency reached", 0.68,
        [&] { return energy("Ideal") / energy("Conduit"); });

    // Fig. 8 (per-instruction tails): baseline tail / Conduit tail.
    const struct
    {
        const char *workload;
        const char *baseline;
        double p99;
        double p9999;
    } tails[] = {
        {"LlaMA2 Inference", "BW-Offloading", 1.8, 10.7},
        {"LlaMA2 Inference", "DM-Offloading", 5.6, 22.3},
        {"jacobi-1d", "BW-Offloading", 1.7, 1.9},
        {"jacobi-1d", "DM-Offloading", 1.1, 1.3},
    };
    for (const auto &t : tails) {
        const auto c = [&] { return cells.at({t.workload, "Conduit"}); };
        const auto b = [&] { return cells.at({t.workload, t.baseline}); };
        const std::string what = std::string(t.workload) +
            " tail improvement vs " + t.baseline;
        add("fig8", what + " p99", t.p99,
            [&] { return b().p99Us / c().p99Us; });
        add("fig8", what + " p99.99", t.p9999,
            [&] { return b().p9999Us / c().p9999Us; });
    }
    return claims;
}

const std::vector<ExcludedClaim> &
excludedClaims()
{
    static const std::vector<ExcludedClaim> excluded = {
        {"fig5", "best prior technique = DM-Offloading",
         "a ranking, not a ratio"},
        {"sec4.5", "worst-case offloader overhead 33 us",
         "needs the per-decision overhead audit of bench_overheads, "
         "not a matrix cell"},
    };
    return excluded;
}

double
paperErr(const std::vector<Claim> &claims)
{
    if (claims.empty())
        throw std::invalid_argument("paper_err of no claims");
    double sum = 0.0;
    for (const Claim &c : claims)
        sum += c.err;
    return sum / static_cast<double>(claims.size());
}

} // namespace perfbench
