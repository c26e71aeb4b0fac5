/**
 * @file
 * The benchmark's metric catalogue and its result line.
 *
 * Every workload reports the same end-to-end metrics (untraced run)
 * and the same per-layer metrics (traced run); a layer a workload
 * never calls reads 0. The catalogue here must match BENCHMARK.json
 * name for name and unit for unit (tests/test_perfbench.cc).
 */

#ifndef PERFBENCH_METRICS_HH
#define PERFBENCH_METRICS_HH

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench
{

struct MetricDef
{
    const char *name;
    const char *unit;
    const char *better;     ///< "lower" or "higher"
};

const std::vector<MetricDef> &endToEndMetrics();
const std::vector<MetricDef> &perLayerMetrics();

/** What one run of one workload measured and checked. */
struct Result
{
    /** Every exactness and outcome check held. */
    bool correct = true;
    std::size_t attempted = 0;
    std::size_t failed = 0;
    std::map<std::string, double> metrics;
    /** Descriptions of failed checks (printed to stderr). */
    std::vector<std::string> problems;
    /** Extra context: name -> JSON value text. */
    std::map<std::string, std::string> context;

    void fail(const std::string &why);
};

/** Fewest ops in one latency window (see EndToEnd). */
constexpr std::size_t kLatencyWindow = 200;

/**
 * The end-to-end numbers every workload collects. A round is a list
 * of steps (one op, or for serve-mixed one op per client sent
 * together) with the same shape in every round, so each step is
 * repeated once per round.
 *
 * Contention from other tenants of the host only ever adds time,
 * and on a shared host it comes and goes over seconds, so within a
 * stretch of rounds the fastest repetition of each step is the
 * estimate it moves least. A cost that grows during a run (a cache
 * that fills, a daemon that ages) must still show, so the untraced
 * rounds are split into an early and a late half, every host-time
 * figure is taken within each half, and the metric is the mean of
 * the two halves: a cost that slows only the late half moves it by
 * half as much. The context line carries both halves.
 *
 * - wall_s: Σ over steps of each step's fastest repetition in the
 *   half, a per-round lower envelope rather than the wall time of
 *   any one round; sim_mips divides by the same envelope of
 *   simulation time.
 * - op_p50_ms, op_tail_ms: the half's rounds are grouped into
 *   windows of at least kLatencyWindow ops, each window's median
 *   and tail are taken over its ops as measured, and the quietest
 *   window of the half counts. The tail percentile is the one the
 *   run's smallest window supports (stats.hh), the same for every
 *   window.
 */
struct EndToEnd
{
    std::vector<double> setup_s;    ///< one per set-up repetition
    /** Untraced rounds: host seconds of each step, [round][step]. */
    std::vector<std::vector<double>> step_s;
    /** Host seconds spent simulating in each step, same shape. */
    std::vector<std::vector<double>> step_sim_s;
    /** Traced rounds: host seconds of each step (tracing overhead). */
    std::vector<std::vector<double>> traced_step_s;
    /** Instructions simulated by each step (equal in every round). */
    std::vector<std::uint64_t> step_insns;
    std::vector<double> round_s;    ///< untraced round wall times
    /** Per-op latency, [untraced round][op]. */
    std::vector<std::vector<double>> op_s;
    std::size_t ops_per_round = 0;
    std::uint64_t sim_cycles = 0;   ///< over the whole op list
    double paper_err = 0.0;
    double peak_rss_mb = 0.0;
    std::size_t attempted = 0;
    std::size_t matched = 0;        ///< outcome as expected
};

/** Fill the end-to-end metrics (and their context) into @p out. */
void fillEndToEnd(const EndToEnd &e, Result &out);

/** Sum over columns of each column's minimum over the rows (the
 *  fastest repetition of every step of a round). */
double sumOfColumnMinima(const std::vector<std::vector<double>> &rows);

/** Ratio with a 0 fallback for an empty denominator. */
inline double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0.0;
}

/**
 * The result line: {"correct", "attempted", "failed", "metrics"}
 * with the end-to-end (traced = false) or per-layer (traced = true)
 * catalogue. A catalogue metric the run did not fill is a bug; it
 * makes the line report correct = false.
 */
std::string resultLine(const Result &r, bool traced);

/** Shortest round-trip decimal text of @p v. */
std::string number(double v);

/** JSON string literal of @p s. */
std::string jsonString(const std::string &s);

} // namespace perfbench

#endif // PERFBENCH_METRICS_HH
