#include "metrics.hh"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cmath>

#include "stats.hh"

namespace perfbench
{

const std::vector<MetricDef> &
endToEndMetrics()
{
    static const std::vector<MetricDef> defs = {
        {"setup_s", "s", "lower"},
        {"wall_s", "s", "lower"},
        {"ops_per_s", "1/s", "higher"},
        {"op_p50_ms", "ms", "lower"},
        {"op_tail_ms", "ms", "lower"},
        {"sim_mips", "MIPS", "higher"},
        {"sim_cycles", "cycles", "lower"},
        {"paper_err", "ratio", "lower"},
        {"peak_rss_mb", "MB", "lower"},
        {"success_ratio", "ratio", "higher"},
    };
    return defs;
}

const std::vector<MetricDef> &
perLayerMetrics()
{
    static const std::vector<MetricDef> defs = {
        {"workloads.instantiate_ms", "ms", "lower"},
        {"mem.load_ms", "ms", "lower"},
        {"core.construct_ms", "ms", "lower"},
        {"workloads.verify_ms", "ms", "lower"},
        {"core.run_s", "s", "lower"},
        {"core.slot_cycles_per_s", "1/s", "higher"},
        {"core.mips.s1", "MIPS", "higher"},
        {"core.mips.s2", "MIPS", "higher"},
        {"core.mips.s4", "MIPS", "higher"},
        {"core.mips.s8", "MIPS", "higher"},
        {"baseline.mips", "MIPS", "higher"},
        {"interp.mips", "MIPS", "higher"},
        {"fastpath.mips", "MIPS", "higher"},
        {"machine.construct_ms", "ms", "lower"},
        {"machine.run_s", "s", "lower"},
        {"machine.core_cycles_per_s", "1/s", "higher"},
        {"machine.quanta", "count", "lower"},
        {"machine.host_us_per_quantum", "us", "lower"},
        {"interconnect.requests", "count", "lower"},
        {"interconnect.conflict_ratio", "ratio", "lower"},
        {"interconnect.mean_latency_cycles", "cycles", "lower"},
        {"serve.connect_ms", "ms", "lower"},
        {"serve.admit_ms", "ms", "lower"},
        {"serve.result_ms", "ms", "lower"},
        {"serve.hit_p50_ms", "ms", "lower"},
        {"serve.miss_p50_ms", "ms", "lower"},
        {"serve.dedup_p50_ms", "ms", "lower"},
        {"serve.cache_hit_ratio", "ratio", "higher"},
        {"serve.coalesced", "count", "higher"},
        {"serve.exec_waste", "ratio", "lower"},
        {"serve.retries", "count", "lower"},
        {"serve.overloaded", "count", "lower"},
        {"analysis.lint_rejected", "count", "higher"},
        {"analysis.lint_cache_hit_ratio", "ratio", "higher"},
        {"core.ipc", "insn/cycle", "higher"},
        {"core.standby_stalls", "count", "lower"},
        {"core.context_switches", "count", "lower"},
        {"fu.load_store.util", "ratio", "higher"},
        {"mem.dcache_miss_ratio", "ratio", "lower"},
        {"mem.icache_miss_ratio", "ratio", "lower"},
    };
    return defs;
}

void
Result::fail(const std::string &why)
{
    correct = false;
    problems.push_back(why);
}

double
sumOfColumnMinima(const std::vector<std::vector<double>> &rows)
{
    if (rows.empty())
        return 0.0;
    double sum = 0.0;
    for (std::size_t c = 0; c < rows.front().size(); ++c) {
        double best = rows.front()[c];
        for (const std::vector<double> &row : rows)
            best = std::min(best, row.at(c));
        sum += best;
    }
    return sum;
}

namespace
{

/** The host-time figures of one half of a run's untraced rounds. */
struct HalfFigures
{
    double wall_s = 0.0;
    double sim_s = 0.0;
    double p50_s = 0.0;
    double tail_s = 0.0;
};

std::string
pair(double early, double late)
{
    return "[" + number(early) + "," + number(late) + "]";
}

} // namespace

void
fillEndToEnd(const EndToEnd &e, Result &out)
{
    const auto step_halves = halves(e.step_s);
    const auto sim_halves = halves(e.step_sim_s);
    const auto op_halves = halves(e.op_s);
    std::vector<std::vector<std::vector<double>>> latency;
    for (const auto &h : op_halves)
        latency.push_back(windows(h, kLatencyWindow));
    // Every window reports the same percentile: the one the
    // smallest window of the run supports.
    std::vector<double> smallest;
    for (const auto &h : latency)
        for (const auto &w : h)
            if (smallest.empty() || w.size() < smallest.size())
                smallest = w;
    const Tail tail = tailPercentile(smallest);

    std::vector<HalfFigures> half(step_halves.size());
    HalfFigures mean;
    for (std::size_t h = 0; h < half.size(); ++h) {
        HalfFigures &f = half[h];
        f.wall_s = sumOfColumnMinima(step_halves[h]);
        f.sim_s = sumOfColumnMinima(sim_halves[h]);
        // The quietest latency window: lowest median, lowest tail.
        for (std::size_t i = 0; i < latency[h].size(); ++i) {
            const double m = median(latency[h][i]);
            const double t = nearestRank(latency[h][i], tail.percentile);
            f.p50_s = i == 0 ? m : std::min(f.p50_s, m);
            f.tail_s = i == 0 ? t : std::min(f.tail_s, t);
        }
        const double w = 1.0 / static_cast<double>(half.size());
        mean.wall_s += w * f.wall_s;
        mean.sim_s += w * f.sim_s;
        mean.p50_s += w * f.p50_s;
        mean.tail_s += w * f.tail_s;
    }
    std::uint64_t insns = 0;
    for (std::uint64_t n : e.step_insns)
        insns += n;

    auto &m = out.metrics;
    m["setup_s"] = median(e.setup_s);
    m["wall_s"] = mean.wall_s;
    m["ops_per_s"] = ratio(static_cast<double>(e.ops_per_round), mean.wall_s);
    m["op_p50_ms"] = mean.p50_s * 1e3;
    m["op_tail_ms"] = mean.tail_s * 1e3;
    m["sim_mips"] = ratio(static_cast<double>(insns) / 1e6, mean.sim_s);
    m["sim_cycles"] = static_cast<double>(e.sim_cycles);
    m["paper_err"] = e.paper_err;
    m["peak_rss_mb"] = e.peak_rss_mb;
    m["success_ratio"] = ratio(static_cast<double>(e.matched),
                               static_cast<double>(e.attempted));

    out.attempted = e.attempted;
    out.failed = e.attempted - e.matched;
    if (e.matched != e.attempted)
        out.fail(std::to_string(e.attempted - e.matched) + " of " +
                 std::to_string(e.attempted) +
                 " ops did not have their expected outcome");

    const Quartiles rq = quartiles(e.round_s);
    const HalfFigures &early = half.front(), &late = half.back();
    std::string setups;
    for (double s : e.setup_s)
        setups += (setups.empty() ? "" : ",") + number(s);
    auto &c = out.context;
    c["rounds_untraced"] = std::to_string(e.round_s.size());
    c["ops_per_round"] = std::to_string(e.ops_per_round);
    c["steps_per_round"] =
        std::to_string(e.step_s.empty() ? 0 : e.step_s.front().size());
    c["round_s_quartiles"] = "[" + number(rq.q1) + "," + number(rq.q2) +
                             "," + number(rq.q3) + "]";
    c["halves"] = "{\"wall_s\":" + pair(early.wall_s, late.wall_s) +
                  ",\"sim_s\":" + pair(early.sim_s, late.sim_s) +
                  ",\"op_p50_ms\":" +
                  pair(early.p50_s * 1e3, late.p50_s * 1e3) +
                  ",\"op_tail_ms\":" +
                  pair(early.tail_s * 1e3, late.tail_s * 1e3) + "}";
    c["wall_s_late_over_early"] = number(ratio(late.wall_s, early.wall_s));
    c["op_tail"] = "{\"percentile\":" + number(tail.percentile) +
                   ",\"samples\":" + std::to_string(tail.samples) +
                   ",\"beyond\":" + std::to_string(tail.beyond) + "}";
    c["setup_s_each"] = "[" + setups + "]";
    if (!e.traced_step_s.empty())
        c["trace_overhead_s"] = number(sumOfColumnMinima(e.traced_step_s) -
                                       sumOfColumnMinima(e.step_s));
}

std::string
number(double v)
{
    if (!std::isfinite(v))
        return "0";
    char buf[64];
    const auto res = std::to_chars(buf, buf + sizeof(buf), v);
    return std::string(buf, res.ptr);
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x", c);
            out += buf;
        } else {
            out += c;
        }
    }
    return out + "\"";
}

std::string
resultLine(const Result &r, bool traced)
{
    bool complete = true;
    std::string metrics;
    for (const MetricDef &d : traced ? perLayerMetrics() : endToEndMetrics()) {
        const auto it = r.metrics.find(d.name);
        if (it == r.metrics.end() || !std::isfinite(it->second)) {
            complete = false;
            continue;
        }
        if (!metrics.empty())
            metrics += ",";
        metrics += jsonString(d.name) + ":{\"value\":" + number(it->second) +
                   ",\"unit\":" + jsonString(d.unit) + "}";
    }
    return std::string("{\"correct\":") +
           (r.correct && complete ? "true" : "false") +
           ",\"attempted\":" + std::to_string(r.attempted) +
           ",\"failed\":" + std::to_string(r.failed) +
           ",\"metrics\":{" + metrics + "}}";
}

} // namespace perfbench
