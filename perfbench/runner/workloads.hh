/**
 * @file
 * The three workloads and what they share.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "machine/manycore_json.hh"
#include "machine/run_stats_json.hh"
#include "metrics.hh"
#include "oplist.hh"
#include "trace.hh"

namespace perfbench
{

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    int seconds = 10;
    /** Traced run: alternate untraced and traced rounds and report
     *  the per-layer metrics of the traced ones. */
    bool trace = false;
    /** Build tree holding this binary and smtsim-serve. */
    std::string build_dir;
};

/** Set-up runs this often per run (see SetUp); setup_s is the
 *  median. */
constexpr int kSetupRepeats = 9;

/** True once SIGINT/SIGTERM arrived; loops stop and clean up. */
bool interrupted();

/** Thrown between operations after an interrupt. */
struct Interrupted : std::runtime_error
{
    Interrupted() : std::runtime_error("interrupted") {}
};

inline void
checkInterrupted()
{
    if (interrupted())
        throw Interrupted();
}

/** Whether round @p r of a run is traced. */
inline bool
tracedRound(const Options &o, int r)
{
    return o.trace && r % 2 == 1;
}

/** How one simulation op ended. */
template <typename StatsT>
struct Outcome
{
    bool ok = false;            ///< finished and outputs verified
    std::string error;
    StatsT stats;
    double run_s = 0.0;         ///< host seconds inside run()
};

using GridOutcome = Outcome<smtsim::RunStats>;

inline bool
sameCounts(const smtsim::RunStats &a, const smtsim::RunStats &b)
{
    return smtsim::statsEqual(a, b);
}

inline bool
sameCounts(const smtsim::MachineStats &a, const smtsim::MachineStats &b)
{
    return smtsim::machineStatsEqual(a, b);
}

inline std::uint64_t
instructionsOf(const smtsim::RunStats &s)
{
    return s.instructions;
}

inline std::uint64_t
instructionsOf(const smtsim::MachineStats &s)
{
    return s.aggregate().instructions;
}

/**
 * One paper-grid op, the way lab::simulateJob runs a job:
 * instantiate, load + init memory, construct the engine, run,
 * verify — each call inside its own span.
 */
GridOutcome runGridOp(const GridOp &op, Tracer &tracer, std::int64_t id);

/**
 * Mean absolute relative error of @p measured (op label -> stats)
 * against the paper's values. @throws std::out_of_range when a
 * point's op is missing.
 */
double paperError(const std::vector<PaperPoint> &points,
                  const std::map<std::string, smtsim::RunStats> &measured);

/**
 * Run just the ops the paper's Tables 2-5 are read from, untraced,
 * and return paper_err. Workloads that do not simulate the tables
 * themselves report paper_err from this pass, after their timed
 * loop. Failed ops are recorded in @p out.
 */
double paperErrorPass(Result &out);

Result runPaperGrid(const Options &o, Tracer &tracer);
Result runManycoreRemote(const Options &o, Tracer &tracer);
Result runServeMixed(const Options &o, Tracer &tracer);

/**
 * Set-up check: every distinct workload of @p ops instantiates. A
 * failure is recorded; the op stays in the list and counts as
 * failed when it runs.
 */
template <typename OpT>
void
validateWorkloads(const std::vector<OpT> &ops, Result &out)
{
    std::set<std::string> checked;
    for (const OpT &op : ops) {
        if (!checked.insert(op.workload.canonical()).second)
            continue;
        try {
            (void)lab::instantiate(op.workload);
        } catch (const std::exception &e) {
            out.fail("invalid op " + op.label + ": " + e.what());
        }
    }
}

/**
 * A workload's set-up, timed: @p make expands the seed into a plan,
 * then @p prepare(plan, k) validates it, runs its warm-up ops or
 * starts its services; @p cleanup(k) then drops what repetition k
 * started and is not needed any more (untimed).
 *
 * Set-up runs kSetupRepeats times in a run: once before the timed
 * loop, whose plan the run uses, and the other times spread evenly
 * between its rounds (afterRound). The host's speed changes in
 * phases of a fraction of a second to tens of seconds, so set-ups
 * run back to back would all see the phase the run starts in; spread
 * over the run, their median sees the run's typical speed. Every
 * expansion must describe the same op list.
 */
template <typename MakePlan, typename Prepare, typename Cleanup>
class SetUp
{
  public:
    SetUp(EndToEnd &e, Result &res, MakePlan make, Prepare prepare,
          Cleanup cleanup)
        : e_(e), res_(res), make_(make), prepare_(prepare),
          cleanup_(cleanup)
    {}

    /** Set up once more. @return the plan it expanded. */
    auto
    operator()()
    {
        const int k = done_++;
        const auto t0 = Clock::now();
        auto plan = make_();
        prepare_(plan, k);
        e_.setup_s.push_back(secondsBetween(t0, Clock::now()));
        cleanup_(k);
        const std::string text = describe(plan);
        if (k == 0)
            first_ = text;
        else if (text != first_)
            res_.fail("op list differs between two expansions of one seed");
        return plan;
    }

    /** After round @p r of @p rounds: run the repetitions due by
     *  then; the last one follows the last round. */
    void
    afterRound(int r, int rounds)
    {
        const int due = 1 + (r + 1) * (kSetupRepeats - 1) / rounds;
        while (done_ < due)
            (void)(*this)();
    }

  private:
    EndToEnd &e_;
    Result &res_;
    MakePlan make_;
    Prepare prepare_;
    Cleanup cleanup_;
    int done_ = 0;
    std::string first_;
};

/**
 * The timed loop of a workload whose step is one simulation op:
 * plan.rounds rounds of plan.round. @p run(op, tracer, id) runs an
 * op and returns its Outcome; every op must have its expected
 * outcome and simulate the same counts as in round 0, traced rounds
 * included. @p on_traced(op, outcome) sees every op of a traced
 * round; @p after_round(r) runs between rounds, untimed. Fills
 * @p e's timings, counts and outcomes. @return round 0's stats, one
 * per op of the round.
 */
template <typename PlanT, typename RunOp, typename OnTraced,
          typename AfterRound>
auto
runRounds(const Options &o, const PlanT &plan, Tracer &tracer,
          EndToEnd &e, Result &res, RunOp run, OnTraced on_traced,
          AfterRound after_round)
{
    using StatsT = decltype(run(plan.round.front(), tracer, 0).stats);
    const std::size_t n = plan.round.size();
    std::vector<StatsT> reference(n);
    for (int r = 0; r < plan.rounds; ++r) {
        const bool traced = tracedRound(o, r);
        tracer.setEnabled(traced);
        std::vector<double> lat, sim_s;
        const auto t0 = Clock::now();
        for (std::size_t i = 0; i < n; ++i) {
            checkInterrupted();
            const auto &op = plan.round[i];
            const auto ts = Clock::now();
            const auto g =
                run(op, tracer, static_cast<std::int64_t>(r * n + i));
            lat.push_back(secondsBetween(ts, Clock::now()));
            sim_s.push_back(g.run_s);

            ++e.attempted;
            if (g.ok == op.expect_ok)
                ++e.matched;
            else
                res.problems.push_back("unexpected outcome: " +
                                       (g.ok ? op.label + " verified"
                                             : g.error));
            if (r == 0)
                reference[i] = g.stats;
            else if (!sameCounts(reference[i], g.stats))
                res.fail(op.label + ": round " + std::to_string(r) +
                         (traced ? " (traced)" : "") +
                         " simulated different counts than round 0");
            e.sim_cycles += g.stats.cycles;
            if (traced)
                on_traced(op, g);
        }
        if (traced) {
            e.traced_step_s.push_back(lat);
        } else {
            e.round_s.push_back(secondsBetween(t0, Clock::now()));
            e.step_s.push_back(lat);
            e.step_sim_s.push_back(sim_s);
            e.op_s.push_back(lat);
        }
        tracer.setEnabled(false);
        after_round(r);
    }
    for (const StatsT &s : reference)
        e.step_insns.push_back(instructionsOf(s));
    e.ops_per_round = n;
    return reference;
}

/** Fill every per-layer metric of the catalogue with 0; each
 *  workload then overwrites the layers it exercises. */
void zeroPerLayer(Result &out);

/** Modelled-machine counters over @p stats (core.ipc, stalls,
 *  context switches, load/store utilization, cache miss ratios). */
void fillModelCounters(const std::vector<smtsim::RunStats> &stats,
                       Result &out);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
