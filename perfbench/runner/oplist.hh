/**
 * @file
 * Seeded operation lists for the three workloads.
 *
 * Every workload runs a fixed list of operations, never a fixed
 * duration, so every simulated count repeats exactly for a given
 * (seed, seconds) pair. The list is a number of rounds: the round
 * count is a pure function of --seconds and each round has the same
 * shape, so every step repeats once per round (metrics.hh). The seed
 * picks scenes and input data and, in paper-grid and
 * manycore-remote, the order of the operations.
 *
 * describe() renders a plan as canonical text; the same seed must
 * give the same text (tests/test_perfbench.cc).
 */

#ifndef PERFBENCH_OPLIST_HH
#define PERFBENCH_OPLIST_HH

#include <cstdint>
#include <string>
#include <vector>

#include "isa/insn.hh"
#include "lab/spec.hh"
#include "machine/manycore.hh"

namespace perfbench
{

using smtsim::BaselineConfig;
using smtsim::CoreConfig;
using smtsim::Insn;
using smtsim::MachineConfig;
namespace lab = smtsim::lab;

// ----------------------------------------------------------------
// paper-grid
// ----------------------------------------------------------------

enum class Engine { Core, Baseline, Interp, Fast };

const char *engineName(Engine e);

/** One single-engine simulation. */
struct GridOp
{
    std::string label;
    Engine engine = Engine::Core;
    lab::WorkloadSpec workload;
    /** Livermore-1 loop body (Table 4 schedules); empty = the
     *  workload's own program. */
    std::vector<Insn> lk1_body;
    CoreConfig core;            ///< engine == Core
    BaselineConfig baseline;    ///< engine == Baseline
    int threads = 1;            ///< engine == Interp / Fast
    /** Outputs must verify; false for the one op that fails
     *  verification by design. */
    bool expect_ok = true;
};

/**
 * A value one of the paper's Tables 2-5 prints beside a measured
 * number. measured = cycles(base) / cycles(op) for speed-ups (base
 * non-empty), else cycles(op) / per_iteration.
 */
struct PaperPoint
{
    std::string op;             ///< label of the measured op
    std::string base;           ///< speed-up denominator op label
    double per_iteration = 1.0;
    double paper = 0.0;
};

struct GridPlan
{
    std::vector<GridOp> warmup;
    std::vector<GridOp> round;  ///< repeated `rounds` times
    int rounds = 1;
    std::vector<PaperPoint> paper;
};

GridPlan makeGridPlan(std::uint64_t seed, int seconds);

// ----------------------------------------------------------------
// manycore-remote
// ----------------------------------------------------------------

/** One many-core machine run; data segment served remotely. */
struct MachineOp
{
    std::string label;
    lab::WorkloadSpec workload;
    MachineConfig cfg;  ///< remote region filled in from the program
    bool expect_ok = true;  ///< every machine run must verify
};

struct MachinePlan
{
    std::vector<MachineOp> warmup;
    std::vector<MachineOp> round;
    int rounds = 1;
};

MachinePlan makeMachinePlan(std::uint64_t seed, int seconds);

// ----------------------------------------------------------------
// serve-mixed
// ----------------------------------------------------------------

enum class ServeKind
{
    Hit,    ///< spec stored during set-up: served from the cache
    Cold,   ///< new spec: simulated and stored
    Dup,    ///< new spec sent by both clients at once: one run
    Lint    ///< error-lint program: rejected at admission
};

const char *serveKindName(ServeKind k);

/** One single-job submission. */
struct ServeOp
{
    std::string label;
    ServeKind kind = ServeKind::Hit;
    lab::ExperimentSpec spec;
};

/** Two submissions sent at the same time, one per client. */
struct ServeStep
{
    ServeOp a;
    ServeOp b;
};

struct ServePlan
{
    /** Specs submitted during set-up to fill the cache; the first
     *  ones are the hits of every round. */
    std::vector<ServeOp> hot;
    /** The steps of every round; see serveStep(). */
    std::vector<ServeStep> round;
    int rounds = 1;
    int cold_per_round = 0;
};

ServePlan makeServePlan(std::uint64_t seed, int seconds);

/**
 * Step @p i of round @p r: the round's template with a fresh cache
 * key for each cold and duplicate spec. max_cycles moves the key
 * without changing the simulation, so every round does the same
 * work. Generated on demand: a run submits tens of thousands.
 */
ServeStep serveStep(const ServePlan &plan, int r, std::size_t i);

// ----------------------------------------------------------------

/** Canonical text of a plan (one line per op). */
std::string describe(const GridPlan &plan);
std::string describe(const MachinePlan &plan);
std::string describe(const ServePlan &plan);

} // namespace perfbench

#endif // PERFBENCH_OPLIST_HH
