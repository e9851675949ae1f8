/**
 * @file
 * Tests of the benchmark's own logic on synthetic inputs: the order
 * statistics, the paper_err ratio arithmetic, and the failure counter.
 * Run with `python3 perfbench/run.py --selftest`; exits non-zero on
 * the first failed expectation.
 */

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>

#include "../src/harness.hh"
#include "../src/scorecard.hh"
#include "../src/stats.hh"
#include "src/runner/sweep_runner.hh"

namespace
{

using namespace perfbench;

int checks = 0;

void
expect(bool ok, const std::string &what)
{
    ++checks;
    if (!ok) {
        std::fprintf(stderr, "FAIL: %s\n", what.c_str());
        std::exit(1);
    }
}

void
expectNear(double got, double want, const std::string &what)
{
    expect(std::fabs(got - want) <= 1e-12 * std::max(1.0, std::fabs(want)),
           what + ": got " + std::to_string(got) + ", want " +
               std::to_string(want));
}

void
testOrderStatistics()
{
    expectNear(median({3, 1, 2}), 2, "odd median");
    expectNear(median({4, 1, 3, 2}), 2.5, "even median");
    // Expected values from statistics.quantiles(xs, n=4).
    const auto q10 = quartiles({1, 2, 3, 4, 5, 6, 7, 8, 9, 10});
    expectNear(q10[0], 2.75, "q1 of 1..10");
    expectNear(q10[1], 5.5, "q2 of 1..10");
    expectNear(q10[2], 8.25, "q3 of 1..10");
    const auto q2 = quartiles({2, 1});
    expectNear(q2[0], 0.75, "q1 of two samples extrapolates");
    expectNear(q2[2], 2.25, "q3 of two samples extrapolates");
    const auto q3 = quartiles({5, 1, 4});
    expectNear(q3[0], 1.0, "q1 of three");
    expectNear(q3[2], 5.0, "q3 of three");
    const auto q6 = quartiles({0.3, 0.1, 0.2, 0.9, 0.5, 0.4});
    expectNear(q6[0], 0.175, "q1 of six");
    expectNear(q6[2], 0.6, "q3 of six");
    const auto q1 = quartiles({7});
    expect(q1[0] == 7 && q1[2] == 7, "one sample is its own quartiles");
    bool threw = false;
    try {
        median({});
    } catch (const std::invalid_argument &) {
        threw = true;
    }
    expect(threw, "median of nothing throws");
}

/** Every cell 1.0, so each claim measures 1 unless overridden. */
MatrixOutcomes
flatMatrix(const std::vector<std::string> &workloads)
{
    MatrixOutcomes m;
    for (const std::string &w : workloads)
        for (const char *t :
             {"CPU", "GPU", "ISP", "PuD-SSD", "Flash-Cosmos", "Ares-Flash",
              "BW-Offloading", "DM-Offloading", "Conduit", "Ideal"})
            m[{w, t}] = {1.0, 1.0, 1.0, 1.0};
    return m;
}

void
testPaperErr()
{
    expectNear(claimError(2.0, 1.0), std::log(2.0), "ln ratio");
    expectNear(claimError(1.0, 2.0), std::log(2.0), "ln ratio is absolute");
    expectNear(savingRatio(0.606), 0.394, "saving as remaining energy");
    // A negative saving (more energy than the baseline) is a ratio
    // above 1, not a sign flip.
    expectNear(savingRatio(-0.372), 1.372, "negative saving");
    expectNear(claimError(savingRatio(-0.372), savingRatio(0.606)),
               std::log(1.372 / 0.394), "negative saving error");
    bool threw = false;
    try {
        claimError(-0.5, 1.0);
    } catch (const std::domain_error &) {
        threw = true;
    }
    expect(threw, "non-positive ratio rejected");

    const std::vector<std::string> rows = {
        "AES", "XOR Filter", "heat-3d", "jacobi-1d", "LlaMA2 Inference",
        "LLM Training"};
    MatrixOutcomes m = flatMatrix(rows);
    // Conduit uses 1.372x PuD-SSD's energy on every row.
    for (const std::string &w : rows)
        m[{w, "PuD-SSD"}].energyJ = 1.0 / 1.372;
    std::vector<ExcludedClaim> excluded;
    const std::vector<Claim> claims = scoreClaims(m, rows, excluded);
    expect(excluded.empty(), "a full matrix excludes nothing");
    expect(claims.size() == 29, "29 claims, got " +
                                    std::to_string(claims.size()));
    double sum = 0.0;
    bool sawPud = false;
    for (const Claim &c : claims) {
        if (c.metric == "Conduit energy saving vs PuD-SSD") {
            sawPud = true;
            expectNear(c.measured, 1.372, "measured PuD energy ratio");
            expectNear(c.err, std::log(1.372 / 0.394), "PuD claim error");
        } else {
            expectNear(c.measured, 1.0, c.metric + " measures 1");
            expectNear(c.err, std::fabs(std::log(1.0 / c.paper)),
                       c.metric + " error");
        }
        sum += c.err;
    }
    expect(sawPud, "PuD energy claim present");
    expectNear(paperErr(claims), sum / 29.0, "paper_err is the mean");

    // A cell that threw takes exactly the claims that need it out,
    // into the excluded list: every claim built on Ideal's gmean.
    m.erase({"AES", "Ideal"});
    excluded.clear();
    const std::vector<Claim> rest = scoreClaims(m, rows, excluded);
    expect(rest.size() == 26 && excluded.size() == 3,
           "a missing Ideal cell excludes its 3 claims, got " +
               std::to_string(excluded.size()));
    for (const ExcludedClaim &e : excluded)
        expect(e.metric.find("Ideal") != std::string::npos,
               "excluded claim names Ideal: " + e.metric);
    expect(!excludedClaims().empty(), "unreproducible claims are listed");
}

void
testFailureCounter()
{
    const CellCount ok = countCell(8, [](std::size_t &) {
        return std::size_t{8};
    });
    expect(ok.retired == 8 && ok.failed() == 0 && ok.error.empty(),
           "a clean cell retires every job");

    const CellCount partial = countCell(8, [](std::size_t &retired) {
        retired = 3;
        throw std::runtime_error("Ftl: plane out of free blocks");
        return std::size_t{8};
    });
    expect(partial.attempted == 8 && partial.retired == 3 &&
               partial.failed() == 5,
           "a throwing cell counts its unretired jobs as failed");
    expect(partial.error == "Ftl: plane out of free blocks",
           "the cell's error is kept");

    // A real cell that throws: a spec naming neither program nor
    // workload. The counter loses that one job, not the process.
    conduit::runner::SweepRunner runner({1, {}});
    conduit::runner::RunSpec bad;
    bad.workload = "none";
    bad.technique = "Conduit";
    const CellCount real = countCell(1, [&](std::size_t &) {
        runner.runOne(bad);
        return std::size_t{1};
    });
    expect(real.failed() == 1 && !real.error.empty(),
           "a simulator cell that throws counts as one failed job");
}

} // namespace

int
main()
{
    testOrderStatistics();
    testPaperErr();
    testFailureCounter();
    std::printf("perfbench selftest: %d checks passed\n", checks);
    return 0;
}
