/**
 * @file
 * Order statistics of repeated host-time measurements.
 *
 * The quartiles follow Python's statistics.quantiles(data, n=4) with
 * its default "exclusive" method, so the spreads the benchmark reports
 * match the ones computed over its printed results.
 */

#ifndef PERFBENCH_STATS_HH
#define PERFBENCH_STATS_HH

#include <algorithm>
#include <array>
#include <cstddef>
#include <stdexcept>
#include <vector>

namespace perfbench
{

/** Median of @p xs (mean of the two middle values when even). */
inline double
median(std::vector<double> xs)
{
    if (xs.empty())
        throw std::invalid_argument("median of no samples");
    std::sort(xs.begin(), xs.end());
    const std::size_t n = xs.size();
    return n % 2 ? xs[n / 2] : (xs[n / 2 - 1] + xs[n / 2]) / 2.0;
}

/**
 * First, second and third quartile of @p xs, as
 * statistics.quantiles(xs, n=4, method="exclusive") computes them.
 * A single sample is its own quartiles.
 */
inline std::array<double, 3>
quartiles(std::vector<double> xs)
{
    if (xs.empty())
        throw std::invalid_argument("quartiles of no samples");
    std::sort(xs.begin(), xs.end());
    const long ld = static_cast<long>(xs.size());
    if (ld == 1)
        return {xs[0], xs[0], xs[0]};
    std::array<double, 3> q{};
    const long m = ld + 1;
    for (long i = 1; i <= 3; ++i) {
        long j = i * m / 4;
        j = std::clamp(j, 1L, ld - 1);
        const long delta = i * m - j * 4;
        q[static_cast<std::size_t>(i - 1)] =
            (xs[static_cast<std::size_t>(j - 1)] *
                 static_cast<double>(4 - delta) +
             xs[static_cast<std::size_t>(j)] *
                 static_cast<double>(delta)) /
            4.0;
    }
    return q;
}

} // namespace perfbench

#endif // PERFBENCH_STATS_HH
