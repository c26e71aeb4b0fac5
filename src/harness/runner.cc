#include "runner.hh"

#include "core/processor.hh"
#include "fastpath/engine.hh"
#include "interp/interpreter.hh"

namespace smtsim
{

namespace
{

bool
verify(const Workload &workload, const MainMemory &mem,
       std::string *error)
{
    if (!workload.check)
        return true;
    std::string why;
    if (workload.check(mem, &why))
        return true;
    if (error)
        *error = workload.name + ": " + why;
    return false;
}

RunStats
engineStats(RunStats stats)
{
    return stats;
}

/** The functional engines count steps, not cycles. */
RunStats
engineStats(const InterpResult &result)
{
    RunStats stats;
    stats.instructions = result.steps;
    stats.finished = result.completed;
    return stats;
}

/**
 * The steps every single-memory engine shares: load the program
 * into fresh memory, run an Engine(program, mem, cfg) on it, then
 * check that it finished and verify the outputs.
 */
template <class Engine, class Config>
Outcome
runVerified(const Workload &workload, const Config &cfg,
            const char *unfinished)
{
    Outcome out;
    MainMemory mem;
    workload.program.loadInto(mem);
    if (workload.init)
        workload.init(mem);

    Engine engine(workload.program, mem, cfg);
    out.stats = engineStats(engine.run());
    if (!out.stats.finished) {
        out.error = workload.name + ": " + unfinished;
        return out;
    }
    out.ok = verify(workload, mem, &out.error);
    return out;
}

} // namespace

Outcome
runCore(const Workload &workload, const CoreConfig &cfg)
{
    return runVerified<MultithreadedProcessor>(
        workload, cfg, "cycle budget exhausted");
}

MachineOutcome
runMachine(const Workload &workload, const MachineConfig &cfg,
           int host_threads)
{
    MachineOutcome out;
    ManyCoreMachine machine(
        workload.program, cfg,
        [&workload](int, MainMemory &mem) {
            if (workload.init)
                workload.init(mem);
        });
    out.stats = machine.run(host_threads);
    if (!out.stats.finished) {
        out.error = workload.name + ": cycle budget exhausted";
        return out;
    }
    for (int i = 0; i < machine.numCores(); ++i) {
        std::string why;
        if (!verify(workload, machine.memory(i), &why)) {
            out.error =
                "core " + std::to_string(i) + ": " + why;
            return out;
        }
    }
    out.ok = true;
    return out;
}

Outcome
runBaseline(const Workload &workload, const BaselineConfig &cfg)
{
    return runVerified<BaselineProcessor>(workload, cfg,
                                          "cycle budget exhausted");
}

Outcome
runInterp(const Workload &workload, int num_threads)
{
    return runVerified<Interpreter>(
        workload, InterpConfig{.num_threads = num_threads},
        "interpreter did not finish");
}

Outcome
runFast(const Workload &workload, int num_threads)
{
    return runVerified<fastpath::FastEngine>(
        workload, InterpConfig{.num_threads = num_threads},
        "fast engine did not finish");
}

double
speedup(const RunStats &baseline, const RunStats &core)
{
    if (core.cycles == 0)
        return 0.0;
    return static_cast<double>(baseline.cycles) /
           static_cast<double>(core.cycles);
}

} // namespace smtsim
