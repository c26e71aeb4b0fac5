/**
 * @file
 * Unit tests of the benchmark itself: its statistics, the seeded
 * op-list generator, and the metric catalogue against
 * BENCHMARK.json. Run with `python3 perfbench/run.py --self-test`.
 */

#include <algorithm>
#include <fstream>
#include <numeric>
#include <set>
#include <sstream>

#include <gtest/gtest.h>

#include "base/json.hh"
#include "metrics.hh"
#include "oplist.hh"
#include "stats.hh"

using namespace perfbench;
using smtsim::Json;

namespace
{

std::vector<double>
iota(int n)
{
    std::vector<double> v(n);
    std::iota(v.begin(), v.end(), 1.0);
    return v;
}

} // namespace

TEST(Stats, Median)
{
    EXPECT_EQ(median({}), 0.0);
    EXPECT_EQ(median({4.0}), 4.0);
    EXPECT_EQ(median({3.0, 1.0, 2.0}), 2.0);
    EXPECT_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
}

TEST(Stats, QuartilesMatchPythonExclusiveMethod)
{
    // Expected values from statistics.quantiles(data, n=4).
    const Quartiles a = quartiles(iota(10));
    EXPECT_DOUBLE_EQ(a.q1, 2.75);
    EXPECT_DOUBLE_EQ(a.q2, 5.5);
    EXPECT_DOUBLE_EQ(a.q3, 8.25);
    const Quartiles b = quartiles({3, 1, 2, 4});
    EXPECT_DOUBLE_EQ(b.q1, 1.25);
    EXPECT_DOUBLE_EQ(b.q2, 2.5);
    EXPECT_DOUBLE_EQ(b.q3, 3.75);
    const Quartiles c = quartiles({5, 1});
    EXPECT_DOUBLE_EQ(c.q1, 0.0);
    EXPECT_DOUBLE_EQ(c.q2, 3.0);
    EXPECT_DOUBLE_EQ(c.q3, 6.0);
    const Quartiles d = quartiles({2.5, 0.5, 9, 7, 1});
    EXPECT_DOUBLE_EQ(d.q1, 0.75);
    EXPECT_DOUBLE_EQ(d.q2, 2.5);
    EXPECT_DOUBLE_EQ(d.q3, 8.0);
}

TEST(Stats, TailIsHighestPercentileWithTenBeyond)
{
    // 1000 samples: p99 leaves exactly 10 beyond; 999 leave 9.
    Tail t = tailPercentile(iota(1000));
    EXPECT_EQ(t.percentile, 99.0);
    EXPECT_EQ(t.value, 990.0);
    EXPECT_EQ(t.beyond, 10u);
    EXPECT_EQ(t.samples, 1000u);
    EXPECT_EQ(tailPercentile(iota(999)).percentile, 95.0);

    t = tailPercentile(iota(200));
    EXPECT_EQ(t.percentile, 95.0);
    EXPECT_EQ(t.value, 190.0);
    EXPECT_EQ(t.beyond, 10u);

    t = tailPercentile(iota(100));
    EXPECT_EQ(t.percentile, 90.0);
    EXPECT_EQ(t.value, 90.0);

    // 20 samples: only the median keeps ten beyond it.
    t = tailPercentile(iota(20));
    EXPECT_EQ(t.percentile, 50.0);
    EXPECT_EQ(t.value, 10.0);
    EXPECT_EQ(t.beyond, 10u);

    // 19 samples: nothing qualifies; the maximum, nothing beyond.
    t = tailPercentile(iota(19));
    EXPECT_EQ(t.percentile, 100.0);
    EXPECT_EQ(t.value, 19.0);
    EXPECT_EQ(t.beyond, 0u);

    // Order of the input does not matter.
    std::vector<double> shuffled = iota(1000);
    std::reverse(shuffled.begin(), shuffled.end());
    EXPECT_EQ(tailPercentile(shuffled).value, 990.0);
}

TEST(Stats, SumOfColumnMinima)
{
    EXPECT_EQ(sumOfColumnMinima({}), 0.0);
    EXPECT_DOUBLE_EQ(sumOfColumnMinima({{3, 1, 4}, {1, 5, 9}, {2, 6, 5}}),
                     1.0 + 1.0 + 4.0);
}

TEST(Stats, LatencyWindows)
{
    const std::vector<std::vector<double>> rounds = {
        {1, 2}, {3, 4}, {5}, {6, 7}, {8}};
    // At least 4 samples each; the short tail {8} joins the last.
    const auto w = windows(rounds, 4);
    ASSERT_EQ(w.size(), 2u);
    EXPECT_EQ(w[0], (std::vector<double>{1, 2, 3, 4}));
    EXPECT_EQ(w[1], (std::vector<double>{5, 6, 7, 8}));
    // Too few samples for one full window: everything in one.
    EXPECT_EQ(windows(rounds, 100).size(), 1u);
    EXPECT_EQ(windows(rounds, 100)[0].size(), 8u);
    EXPECT_TRUE(windows({}, 4).empty());
}

TEST(Stats, NearestRank)
{
    EXPECT_EQ(nearestRank({}, 50), 0.0);
    EXPECT_EQ(nearestRank(iota(100), 95), 95.0);
    EXPECT_EQ(nearestRank(iota(200), 95), 190.0);
    EXPECT_EQ(nearestRank(iota(7), 50), 4.0);
    EXPECT_EQ(nearestRank(iota(7), 100), 7.0);
}

TEST(Stats, Halves)
{
    EXPECT_EQ(halves(std::vector<int>{}).size(), 1u);
    EXPECT_EQ(halves(std::vector<int>{1}),
              (std::vector<std::vector<int>>{{1}}));
    EXPECT_EQ(halves(std::vector<int>{1, 2, 3, 4, 5}),
              (std::vector<std::vector<int>>{{1, 2}, {3, 4, 5}}));
}

TEST(EndToEnd, LateSlowdownShows)
{
    // Four rounds of two steps; the late half runs at half speed.
    EndToEnd e;
    e.setup_s = {0.3, 0.1, 0.2};
    e.step_s = {{1, 2}, {1, 2}, {2, 4}, {2, 4}};
    e.step_sim_s = e.step_s;
    e.op_s = e.step_s;
    e.round_s = {3, 3, 6, 6};
    e.step_insns = {3'000'000, 6'000'000};
    e.ops_per_round = 2;
    e.attempted = e.matched = 8;
    Result r;
    fillEndToEnd(e, r);
    // Halves: early envelope 3 s, late 6 s; the metric is their mean
    // (the whole-run minimum, 3 s, would hide the slowdown).
    EXPECT_DOUBLE_EQ(r.metrics["wall_s"], 4.5);
    EXPECT_DOUBLE_EQ(r.metrics["ops_per_s"], 2 / 4.5);
    EXPECT_DOUBLE_EQ(r.metrics["sim_mips"], 9 / 4.5);
    // Medians of {1,2,1,2} and {2,4,2,4}: 1.5 and 3 ms -> seconds.
    EXPECT_DOUBLE_EQ(r.metrics["op_p50_ms"], (1.5 + 3.0) / 2 * 1e3);
    EXPECT_DOUBLE_EQ(r.metrics["setup_s"], 0.2);
    EXPECT_DOUBLE_EQ(r.metrics["success_ratio"], 1.0);
    EXPECT_TRUE(r.correct);
    EXPECT_EQ(r.context["wall_s_late_over_early"], "2");
}

TEST(OpList, SameSeedSamePlan)
{
    EXPECT_EQ(describe(makeGridPlan(7, 10)), describe(makeGridPlan(7, 10)));
    EXPECT_EQ(describe(makeMachinePlan(7, 10)),
              describe(makeMachinePlan(7, 10)));
    EXPECT_EQ(describe(makeServePlan(7, 10)), describe(makeServePlan(7, 10)));
}

TEST(OpList, SeedChangesInputs)
{
    EXPECT_NE(describe(makeGridPlan(7, 10)), describe(makeGridPlan(8, 10)));
    EXPECT_NE(describe(makeMachinePlan(7, 10)),
              describe(makeMachinePlan(8, 10)));
    EXPECT_NE(describe(makeServePlan(7, 10)), describe(makeServePlan(8, 10)));
}

TEST(OpList, SecondsScaleRoundsOnly)
{
    const GridPlan a = makeGridPlan(3, 10), b = makeGridPlan(3, 20);
    EXPECT_GT(b.rounds, a.rounds);
    ASSERT_EQ(a.round.size(), b.round.size());
    for (std::size_t i = 0; i < a.round.size(); ++i)
        EXPECT_EQ(a.round[i].label, b.round[i].label);

    const ServePlan s = makeServePlan(3, 10);
    EXPECT_GT(makeServePlan(3, 20).rounds, s.rounds);
    // Rounds repeat one template; cold specs get fresh keys.
    for (std::size_t i = 0; i < s.round.size(); ++i) {
        const ServeStep r0 = serveStep(s, 0, i), r1 = serveStep(s, 1, i);
        for (const auto &[x, y] :
             {std::pair(r0.a, r1.a), std::pair(r0.b, r1.b)}) {
            EXPECT_EQ(x.kind, y.kind);
            EXPECT_EQ(x.spec.workloads, y.spec.workloads);
            const bool fresh =
                x.kind == ServeKind::Cold || x.kind == ServeKind::Dup;
            EXPECT_EQ(x.spec.expand().front().cacheKey() !=
                          y.spec.expand().front().cacheKey(),
                      fresh);
        }
    }
}

TEST(OpList, PaperPointsNameOpsOfTheRound)
{
    const GridPlan plan = makeGridPlan(1, 10);
    std::set<std::string> labels;
    for (const GridOp &op : plan.round)
        EXPECT_TRUE(labels.insert(op.label).second) << op.label;
    for (const PaperPoint &p : plan.paper) {
        EXPECT_TRUE(labels.count(p.op)) << p.op;
        if (!p.base.empty()) {
            EXPECT_TRUE(labels.count(p.base)) << p.base;
        }
    }
    EXPECT_EQ(plan.paper.size(), 31u);
}

TEST(Catalogue, MatchesBenchmarkJson)
{
    std::ifstream is(PERFBENCH_JSON);
    ASSERT_TRUE(is) << PERFBENCH_JSON;
    std::ostringstream text;
    text << is.rdbuf();
    const Json doc = Json::parse(text.str());
    auto check = [](const Json &list, const std::vector<MetricDef> &defs,
                    bool bounded) {
        ASSERT_EQ(list.size(), defs.size());
        for (std::size_t i = 0; i < defs.size(); ++i) {
            const Json &m = list.at(i);
            EXPECT_EQ(m.at("name").asString(), defs[i].name);
            EXPECT_EQ(m.at("unit").asString(), defs[i].unit);
            EXPECT_EQ(m.at("better").asString(), defs[i].better);
            EXPECT_EQ(m.find("bound") != nullptr, bounded) << defs[i].name;
        }
    };
    check(doc.at("end_to_end"), endToEndMetrics(), true);
    check(doc.at("per_layer"), perLayerMetrics(), false);
}

TEST(Catalogue, ResultLineHasExactlyTheContractKeys)
{
    Result r;
    r.attempted = 3;
    r.failed = 0;
    for (const MetricDef &d : endToEndMetrics())
        r.metrics[d.name] = 1.5;
    const Json line = Json::parse(resultLine(r, /*traced=*/false));
    ASSERT_EQ(line.members().size(), 4u);
    EXPECT_TRUE(line.at("correct").asBool());
    EXPECT_EQ(line.at("attempted").asInt(), 3);
    EXPECT_EQ(line.at("failed").asInt(), 0);
    const Json &metrics = line.at("metrics");
    ASSERT_EQ(metrics.members().size(), endToEndMetrics().size());
    for (const MetricDef &d : endToEndMetrics()) {
        EXPECT_EQ(metrics.at(d.name).at("value").asDouble(), 1.5);
        EXPECT_EQ(metrics.at(d.name).at("unit").asString(), d.unit);
    }

    // A metric the run did not fill makes the line incorrect.
    r.metrics.erase("wall_s");
    EXPECT_FALSE(Json::parse(resultLine(r, false)).at("correct").asBool());
}
