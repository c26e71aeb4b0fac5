/**
 * @file
 * paper-grid: the paper-table job lists plus seeded variants, one
 * thread, no result cache. The core does most of the work; the
 * machine and serve layers none.
 */

#include <cmath>
#include <map>
#include <optional>
#include <set>

#include <unistd.h>

#include "baseline/baseline.hh"
#include "core/processor.hh"
#include "fastpath/engine.hh"
#include "hostinfo.hh"
#include "interp/interpreter.hh"
#include "machine/run_stats_json.hh"
#include "stats.hh"
#include "workloads.hh"
#include "workloads/workloads.hh"

namespace perfbench
{

using smtsim::MainMemory;
using smtsim::RunStats;
using smtsim::Workload;

namespace
{

Workload
instantiate(const GridOp &op)
{
    if (op.lk1_body.empty())
        return lab::instantiate(op.workload);
    smtsim::Lk1Params p;
    p.n = static_cast<int>(op.workload.params.at("n"));
    p.parallel = op.workload.params.at("parallel") != 0;
    return smtsim::makeLivermore1(p, &op.lk1_body);
}

/** Run a functional engine (Interpreter or FastEngine). */
template <typename EngineT>
void
runFunctional(const Workload &w, MainMemory &mem, int threads,
              const char *span, Tracer &tracer, std::int64_t id,
              GridOutcome &out)
{
    smtsim::InterpConfig cfg;
    cfg.num_threads = threads;
    EngineT engine(w.program, mem, cfg);
    const auto t0 = Clock::now();
    smtsim::InterpResult r;
    {
        Tracer::Span s(tracer, span, id);
        r = engine.run();
    }
    out.run_s = secondsBetween(t0, Clock::now());
    out.stats.instructions = r.steps;
    out.stats.finished = r.completed;
}

} // namespace

GridOutcome
runGridOp(const GridOp &op, Tracer &tracer, std::int64_t id)
{
    GridOutcome out;
    Tracer::Span whole(tracer, "op", id);
    try {
        Workload w;
        {
            Tracer::Span s(tracer, "workloads.instantiate", id);
            w = instantiate(op);
        }
        MainMemory mem;
        {
            Tracer::Span s(tracer, "mem.load", id);
            w.program.loadInto(mem);
            if (w.init)
                w.init(mem);
        }
        switch (op.engine) {
          case Engine::Core: {
            std::optional<smtsim::MultithreadedProcessor> cpu;
            {
                Tracer::Span s(tracer, "core.construct", id);
                cpu.emplace(w.program, mem, op.core);
            }
            const auto t0 = Clock::now();
            {
                Tracer::Span s(tracer, "core.run", id);
                out.stats = cpu->run();
            }
            out.run_s = secondsBetween(t0, Clock::now());
            break;
          }
          case Engine::Baseline: {
            std::optional<smtsim::BaselineProcessor> cpu;
            {
                Tracer::Span s(tracer, "baseline.construct", id);
                cpu.emplace(w.program, mem, op.baseline);
            }
            const auto t0 = Clock::now();
            {
                Tracer::Span s(tracer, "baseline.run", id);
                out.stats = cpu->run();
            }
            out.run_s = secondsBetween(t0, Clock::now());
            break;
          }
          case Engine::Interp:
            runFunctional<smtsim::Interpreter>(w, mem, op.threads,
                                               "interp.run", tracer, id,
                                               out);
            break;
          case Engine::Fast:
            runFunctional<smtsim::fastpath::FastEngine>(
                w, mem, op.threads, "fastpath.run", tracer, id, out);
            break;
        }
        Tracer::Span s(tracer, "workloads.verify", id);
        if (!out.stats.finished) {
            out.error = op.label + ": did not finish";
        } else if (w.check && !w.check(mem, &out.error)) {
            out.error = op.label + ": " + out.error;
        } else {
            out.ok = true;
        }
    } catch (const std::exception &e) {
        out.ok = false;
        out.error = op.label + ": " + e.what();
    }
    return out;
}

double
paperError(const std::vector<PaperPoint> &points,
           const std::map<std::string, RunStats> &measured)
{
    double sum = 0.0;
    for (const PaperPoint &p : points) {
        const double cycles =
            static_cast<double>(measured.at(p.op).cycles);
        const double value =
            p.base.empty()
                ? cycles / p.per_iteration
                : static_cast<double>(measured.at(p.base).cycles) / cycles;
        sum += std::fabs(value - p.paper) / p.paper;
    }
    return points.empty() ? 0.0 : sum / static_cast<double>(points.size());
}

double
paperErrorPass(Result &out)
{
    const GridPlan plan = makeGridPlan(/*seed=*/1, /*seconds=*/1);
    std::set<std::string> needed;
    for (const PaperPoint &p : plan.paper) {
        needed.insert(p.op);
        if (!p.base.empty())
            needed.insert(p.base);
    }
    Tracer off(false);
    std::map<std::string, RunStats> measured;
    for (const GridOp &op : plan.round) {
        if (!needed.count(op.label))
            continue;
        checkInterrupted();
        const GridOutcome g = runGridOp(op, off, -1);
        if (!g.ok)
            out.fail("paper cell " + g.error);
        measured[op.label] = g.stats;
    }
    return paperError(plan.paper, measured);
}

void
zeroPerLayer(Result &out)
{
    for (const MetricDef &d : perLayerMetrics())
        out.metrics[d.name] = 0.0;
}

void
fillModelCounters(const std::vector<RunStats> &stats, Result &out)
{
    double insns = 0, cycles = 0, stalls = 0, switches = 0;
    double ls_busy = 0, ls_capacity = 0;
    double dhit = 0, dmiss = 0, ihit = 0, imiss = 0;
    const auto ls = static_cast<std::size_t>(smtsim::FuClass::LoadStore);
    for (const RunStats &s : stats) {
        insns += static_cast<double>(s.instructions);
        cycles += static_cast<double>(s.cycles);
        stalls += static_cast<double>(s.standby_stalls);
        switches += static_cast<double>(s.context_switches);
        for (std::uint64_t busy : s.unit_busy[ls])
            ls_busy += static_cast<double>(busy);
        ls_capacity += static_cast<double>(s.cycles) *
                       static_cast<double>(s.unit_busy[ls].size());
        dhit += static_cast<double>(s.dcache_hits);
        dmiss += static_cast<double>(s.dcache_misses);
        ihit += static_cast<double>(s.icache_hits);
        imiss += static_cast<double>(s.icache_misses);
    }
    auto &m = out.metrics;
    m["core.ipc"] = ratio(insns, cycles);
    m["core.standby_stalls"] = stalls;
    m["core.context_switches"] = switches;
    m["fu.load_store.util"] = ratio(ls_busy, ls_capacity);
    m["mem.dcache_miss_ratio"] = ratio(dmiss, dhit + dmiss);
    m["mem.icache_miss_ratio"] = ratio(imiss, ihit + imiss);
}

Result
runPaperGrid(const Options &o, Tracer &tracer)
{
    Result res;
    EndToEnd e;

    // Set-up: expand the seed, validate every op's workload, run
    // the warm-up ops (results discarded).
    Tracer off(false);
    SetUp setUp(
        e, res, [&] { return makeGridPlan(o.seed, o.seconds); },
        [&](const GridPlan &p, int) {
            validateWorkloads(p.round, res);
            for (const GridOp &op : p.warmup) {
                checkInterrupted();
                (void)runGridOp(op, off, -1);
            }
        },
        [](int) {});
    const GridPlan plan = setUp();

    // Per-engine host time and work, traced rounds only.
    std::map<std::string, double> layer_s, layer_insns;
    double slot_cycles = 0;
    const std::vector<RunStats> reference = runRounds(
        o, plan, tracer, e, res, runGridOp,
        [&](const GridOp &op, const GridOutcome &g) {
            std::string layer = engineName(op.engine);
            if (op.engine == Engine::Core) {
                slot_cycles += static_cast<double>(g.stats.cycles) *
                               op.core.num_slots;
                layer_s["core"] += g.run_s;
                layer_insns["core"] +=
                    static_cast<double>(g.stats.instructions);
                layer += ".s" + std::to_string(op.core.num_slots);
            }
            layer_s[layer] += g.run_s;
            layer_insns[layer] += static_cast<double>(g.stats.instructions);
        },
        [&](int r) { setUp.afterRound(r, plan.rounds); });

    std::map<std::string, RunStats> measured;
    std::vector<RunStats> core_stats;
    for (std::size_t i = 0; i < plan.round.size(); ++i) {
        measured[plan.round[i].label] = reference[i];
        if (plan.round[i].engine == Engine::Core)
            core_stats.push_back(reference[i]);
    }
    e.paper_err = paperError(plan.paper, measured);
    e.peak_rss_mb = peakRssMb(getpid());
    fillEndToEnd(e, res);
    res.context["paper_points"] = std::to_string(plan.paper.size());

    zeroPerLayer(res);
    fillModelCounters(core_stats, res);
    if (o.trace) {
        auto &m = res.metrics;
        const double rounds = static_cast<double>(e.traced_step_s.size());
        auto ms = [&](const char *name) {
            return median(tracer.durations(name)) * 1e3;
        };
        auto mips = [&](const std::string &layer) {
            return ratio(layer_insns[layer] / 1e6, layer_s[layer]);
        };
        m["workloads.instantiate_ms"] = ms("workloads.instantiate");
        m["mem.load_ms"] = ms("mem.load");
        m["core.construct_ms"] = ms("core.construct");
        m["workloads.verify_ms"] = ms("workloads.verify");
        m["core.run_s"] = ratio(tracer.totalSeconds("core.run"), rounds);
        m["core.slot_cycles_per_s"] = ratio(slot_cycles, layer_s["core"]);
        for (int s : {1, 2, 4, 8})
            m["core.mips.s" + std::to_string(s)] =
                mips("core.s" + std::to_string(s));
        m["baseline.mips"] = mips("baseline");
        m["interp.mips"] = mips("interp");
        m["fastpath.mips"] = mips("fast");
    }
    return res;
}

} // namespace perfbench
