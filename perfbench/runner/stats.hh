/**
 * @file
 * Order statistics used by every workload: median, quartiles (the
 * same "exclusive" method as Python's statistics.quantiles, which is
 * what run-to-run spreads are judged with) and the tail rule — the
 * highest percentile that still has at least ten samples beyond it.
 * The ladder stops at p99: with tens of thousands of sub-millisecond
 * serve ops, p99.9 measured host scheduling hiccups (its spread
 * over runs was 57%), not the service.
 */

#ifndef PERFBENCH_STATS_HH
#define PERFBENCH_STATS_HH

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

namespace perfbench
{

/** Median (mean of the middle pair for even sizes); 0 when empty. */
inline double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

struct Quartiles
{
    double q1 = 0.0;
    double q2 = 0.0;
    double q3 = 0.0;
};

/**
 * Quartiles by Python's statistics.quantiles(data, n=4) (method
 * "exclusive"): cut points at ranks i*(n+1)/4, linearly
 * interpolated. Needs two samples; fewer give all-equal quartiles.
 */
inline Quartiles
quartiles(std::vector<double> v)
{
    Quartiles q;
    if (v.empty())
        return q;
    std::sort(v.begin(), v.end());
    const long n = static_cast<long>(v.size());
    if (n == 1) {
        q.q1 = q.q2 = q.q3 = v[0];
        return q;
    }
    const long m = n + 1;
    double cut[3];
    for (long i = 1; i <= 3; ++i) {
        const long j = std::clamp(i * m / 4, 1L, n - 1);
        const long delta = i * m - j * 4;
        cut[i - 1] = (v[j - 1] * static_cast<double>(4 - delta) +
                      v[j] * static_cast<double>(delta)) /
                     4.0;
    }
    q.q1 = cut[0];
    q.q2 = cut[1];
    q.q3 = cut[2];
    return q;
}

/** A tail latency with the evidence behind it. */
struct Tail
{
    double percentile = 0.0;    ///< e.g. 99.0
    double value = 0.0;
    std::size_t samples = 0;    ///< population size
    std::size_t beyond = 0;     ///< samples ranked above the value
};

/** Nearest-rank @p p-th percentile: the ceil(p/100 * n)-th
 *  smallest of @p v; 0 when empty. */
inline double
nearestRank(std::vector<double> v, double p)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double n = static_cast<double>(v.size());
    const std::size_t rank = static_cast<std::size_t>(
        std::max(1.0, std::ceil(p / 100.0 * n - 1e-9)));
    return v[std::min(rank, v.size()) - 1];
}

/**
 * The highest percentile of the ladder 99, 95, 90, 75, 50 with at
 * least @p min_beyond samples ranked above it
 * (nearest-rank: the value is the ceil(p/100 * n)-th smallest). With
 * too few samples for even the median the maximum is returned as
 * percentile 100 with nothing beyond it.
 */
inline Tail
tailPercentile(std::vector<double> v, std::size_t min_beyond = 10)
{
    Tail t;
    t.samples = v.size();
    if (v.empty())
        return t;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    for (std::size_t p : {99, 95, 90, 75, 50}) {
        const std::size_t rank =
            std::max<std::size_t>(1, (p * n + 99) / 100);
        if (n - rank >= min_beyond) {
            t.percentile = static_cast<double>(p);
            t.value = v[rank - 1];
            t.beyond = n - rank;
            return t;
        }
    }
    t.percentile = 100.0;
    t.value = v.back();
    return t;
}

/**
 * Group consecutive rounds of samples into windows of at least
 * @p min_samples each; a short remainder joins the last window. With
 * fewer samples in all, one window holds everything.
 */
inline std::vector<std::vector<double>>
windows(const std::vector<std::vector<double>> &rounds,
        std::size_t min_samples)
{
    std::vector<std::vector<double>> out;
    std::vector<double> current;
    for (const std::vector<double> &round : rounds) {
        current.insert(current.end(), round.begin(), round.end());
        if (current.size() >= min_samples) {
            out.push_back(std::move(current));
            current.clear();
        }
    }
    if (!current.empty()) {
        if (out.empty())
            out.push_back(std::move(current));
        else
            out.back().insert(out.back().end(), current.begin(),
                              current.end());
    }
    return out;
}

/**
 * The early and the late half of @p rows, in order; the late half
 * takes the odd one out. Fewer than two rows make one half.
 */
template <typename T>
std::vector<std::vector<T>>
halves(const std::vector<T> &rows)
{
    if (rows.size() < 2)
        return {rows};
    const auto mid = rows.begin() + static_cast<long>(rows.size() / 2);
    return {std::vector<T>(rows.begin(), mid),
            std::vector<T>(mid, rows.end())};
}

} // namespace perfbench

#endif // PERFBENCH_STATS_HH
