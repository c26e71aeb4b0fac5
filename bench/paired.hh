/**
 * @file
 * Paired-round cost ratios for the host-speed guards
 * (bench_simspeed, bench_manycore), and the Release check that every
 * binary timing the host (bench_serve too) runs first.
 *
 * A guard compares two sides, A and B, that run in one process. A
 * shared host drifts in phases that outlast a whole run (frequency
 * steps, a noisy neighbour), so a median taken per side over its own
 * block of repetitions can read a phase as a difference. Here the
 * sides run as alternating short rounds instead, and the pair's
 * order swaps every pair (A,B then B,A), so a phase hits both sides
 * of a pair alike and a steady drift cancels over two pairs. The
 * estimate is the median of the per-pair ratios cost(B) / cost(A),
 * with their quartiles as the spread; one outlier round moves one
 * ratio, not the median.
 */

#ifndef SMTSIM_BENCH_PAIRED_HH
#define SMTSIM_BENCH_PAIRED_HH

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string_view>
#include <vector>

namespace smtsim::bench
{

/** Median and quartiles of the per-pair ratios cost(B) / cost(A). */
struct PairedEstimate
{
    double median = 0.0;
    double q1 = 0.0;
    double q3 = 0.0;
    int pairs = 0;

    /** The same estimate for ratio * k (k > 0 keeps the order). */
    PairedEstimate
    scaled(double k) const
    {
        return {median * k, q1 * k, q3 * k, pairs};
    }
};

enum class Side { A, B };

/** Linear-interpolated quantile @p q in [0, 1] of sorted @p v. */
inline double
quantile(const std::vector<double> &v, double q)
{
    const double rank = q * static_cast<double>(v.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(rank);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    const double frac = rank - static_cast<double>(lo);
    return v[lo] + frac * (v[hi] - v[lo]);
}

/**
 * Run @p pairs pairs of rounds. `round(side)` runs one round of that
 * side and returns its cost (any unit, the same for both sides).
 * Pair i runs A first when i is even and B first when it is odd.
 */
template <class Round>
PairedEstimate
runPairs(int pairs, Round &&round)
{
    std::vector<double> ratios;
    ratios.reserve(static_cast<std::size_t>(pairs));
    for (int i = 0; i < pairs; ++i) {
        double a, b;
        if (i % 2 == 0) {
            a = round(Side::A);
            b = round(Side::B);
        } else {
            b = round(Side::B);
            a = round(Side::A);
        }
        ratios.push_back(b / a);
    }
    std::sort(ratios.begin(), ratios.end());
    return {quantile(ratios, 0.5), quantile(ratios, 0.25),
            quantile(ratios, 0.75), pairs};
}

/** Host seconds @p n back-to-back calls of @p fn take. */
template <class Fn>
double
timeCalls(Fn &fn, int n)
{
    using Clock = std::chrono::steady_clock;
    const auto t0 = Clock::now();
    for (int i = 0; i < n; ++i)
        fn();
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** Host seconds one round of measurePaired() aims to fill. */
inline constexpr double kRoundSeconds = 0.02;

/**
 * Time @p a against @p b as @p pairs pairs of rounds of about
 * kRoundSeconds each. A round repeats its side's call often enough
 * to fill kRoundSeconds, calibrated from one warm-up call, and costs
 * the seconds per call. The ratio is cost(b) / cost(a).
 */
template <class FnA, class FnB>
PairedEstimate
measurePaired(FnA &&a, FnB &&b, int pairs)
{
    const auto calls = [](double once) {
        return std::max(1,
                        static_cast<int>(kRoundSeconds / once + 0.5));
    };
    const int calls_a = calls(timeCalls(a, 1));
    const int calls_b = calls(timeCalls(b, 1));
    return runPairs(pairs, [&](Side side) {
        return side == Side::A ? timeCalls(a, calls_a) / calls_a
                               : timeCalls(b, calls_b) / calls_b;
    });
}

/** Which way a guard's bound points. */
enum class Bound { AtMost, AtLeast };

/** Whether the median of @p e meets @p bound. */
inline bool
meets(const PairedEstimate &e, Bound kind, double bound)
{
    return kind == Bound::AtMost ? e.median <= bound
                                 : e.median >= bound;
}

/** Print one guard line (estimate, quartiles, bound, verdict) and
 *  return whether the estimate meets the bound. */
inline bool
reportGuard(const char *name, const PairedEstimate &e, Bound kind,
            double bound)
{
    const bool ok = meets(e, kind, bound);
    std::printf("%-28s %.3f (quartiles %.3f-%.3f, %d pairs), "
                "bound %s %.3f: %s\n",
                name, e.median, e.q1, e.q3, e.pairs,
                kind == Bound::AtMost ? "<=" : ">=", bound,
                ok ? "ok" : "FAIL");
    return ok;
}

/**
 * False, with a message, unless @p build_type (the $<CONFIG> the
 * binary was built as) is Release: host-speed figures from any
 * other build type mean nothing.
 */
inline bool
releaseBuild(const char *what, std::string_view build_type)
{
    if (build_type == "Release")
        return true;
    std::fprintf(stderr,
                 "%s: built as '%.*s'; host-speed figures are only "
                 "meaningful from a Release build:\n"
                 "    cmake -B build-release "
                 "-DCMAKE_BUILD_TYPE=Release && cmake --build "
                 "build-release --target %s\n",
                 what, static_cast<int>(build_type.size()),
                 build_type.data(), what);
    return false;
}

} // namespace smtsim::bench

#endif // SMTSIM_BENCH_PAIRED_HH
