/**
 * @file
 * The paired-round estimator behind the host-speed guards
 * (bench/paired.hh), fed synthetic round costs instead of host
 * timings: host phases common to both sides must not make a guard
 * fail, and a real difference must.
 */

#include <cmath>
#include <functional>

#include <gtest/gtest.h>

#include "paired.hh"

using namespace smtsim::bench;

namespace
{

constexpr int kPairs = 40;

/**
 * Run the pair schedule on synthetic costs: round t (counted across
 * both sides) of side s costs base(s) * host(t), so host(t) is a
 * host phase both sides share.
 */
PairedEstimate
synthetic(double base_b, const std::function<double(int)> &host)
{
    int t = 0;
    return runPairs(kPairs, [&](Side side) {
        const double base = side == Side::A ? 1.0 : base_b;
        return base * host(t++);
    });
}

/** Rounds get 25% dearer over the run, and a phase that starts
 *  inside a pair two thirds of the way through makes them 30%
 *  cheaper. */
double
drifting(int t)
{
    const double slow = 1.0 + 0.25 * t / (2 * kPairs);
    return t < 4 * kPairs / 3 ? slow : slow * 0.7;
}

} // namespace

TEST(Paired, CommonDriftLeavesTheRatioAtOne)
{
    const PairedEstimate e = synthetic(1.0, drifting);
    EXPECT_EQ(e.pairs, kPairs);
    EXPECT_NEAR(e.median, 1.0, 0.005);
    EXPECT_TRUE(meets(e, Bound::AtMost, 1.02));
}

TEST(Paired, TrueDifferenceIsReportedAndFailsATwoPercentGuard)
{
    const PairedEstimate e = synthetic(1.05, drifting);
    EXPECT_NEAR(e.median, 1.05, 0.005);
    EXPECT_LE(e.q1, e.median);
    EXPECT_GE(e.q3, e.median);
    EXPECT_FALSE(meets(e, Bound::AtMost, 1.02));
    EXPECT_TRUE(meets(e, Bound::AtLeast, 1.02));
}

TEST(Paired, OneOutlierRoundDoesNotMoveTheMedian)
{
    const auto steady = [](int) { return 1.0; };
    const auto outlier = [](int t) { return t == 17 ? 10.0 : 1.0; };
    const PairedEstimate clean = synthetic(1.05, steady);
    const PairedEstimate hit = synthetic(1.05, outlier);
    EXPECT_DOUBLE_EQ(clean.median, 1.05);
    EXPECT_DOUBLE_EQ(hit.median, clean.median);
    EXPECT_DOUBLE_EQ(hit.q1, clean.q1);
    EXPECT_DOUBLE_EQ(hit.q3, clean.q3);
}

TEST(Paired, ScaledEstimateKeepsItsOrder)
{
    const PairedEstimate e = synthetic(1.6, drifting).scaled(0.25);
    EXPECT_NEAR(e.median, 0.4, 0.005);
    EXPECT_LE(e.q1, e.median);
    EXPECT_GE(e.q3, e.median);
    EXPECT_TRUE(meets(e, Bound::AtLeast, 0.3));
}
