/**
 * @file
 * Host-speed guards for the single-core engines. Throughput itself
 * is tracked by perfbench (interp.mips, fastpath.mips, baseline.mips,
 * core.mips.s1..s8); this binary only checks two promises, each as
 * a paired-round ratio (bench/paired.hh) on one synthetic kernel:
 *
 *  - the threaded-code fast engine runs at least 3x the
 *    interpreter's MIPS (docs/PERF.md);
 *  - the core with its event sink detached costs at most 2% more
 *    than the plain core, both at 4 slots and 2 load/store units
 *    (docs/OBSERVABILITY.md). Both sides run the same code today,
 *    so this pair reads host noise only: it shows the guard stays
 *    quiet, not that disabled emission is free.
 *
 * Prints one line per guard and exits 1 when a bound fails. Refuses
 * to measure unless built Release.
 */

#include <cstdint>
#include <cstdio>

#include "core/processor.hh"
#include "fastpath/engine.hh"
#include "interp/interpreter.hh"
#include "obs/event.hh"
#include "paired.hh"
#include "trace/synth.hh"

using namespace smtsim;
using namespace smtsim::bench;

namespace
{

constexpr int kPairs = 80;
constexpr double kFastSpeedup = 3.0;
constexpr double kTraceOffRatio = 1.02;

Program
benchKernel(bool parallel)
{
    SynthParams p;
    p.seed = 101;
    p.iterations = 256;
    p.insns_per_block = 32;
    p.parallel = parallel;
    return makeSyntheticKernel(p);
}

/** A trivial sink; the trace-off side constructs one and never
 *  attaches it. */
class CountingSink : public obs::EventSink
{
  public:
    void event(const obs::Event &ev) override { count_ += ev.cycle | 1; }

  private:
    std::uint64_t count_ = 0;
};

/** Every run's result lands here, so none can be optimised away. */
volatile std::uint64_t g_result = 0;

template <class Engine>
void
runEngine(const Program &prog)
{
    MainMemory mem;
    prog.loadInto(mem);
    Engine engine(prog, mem);
    g_result = engine.run().steps;
}

void
runCore(const Program &prog)
{
    CoreConfig cfg;
    cfg.num_slots = 4;
    cfg.fus.load_store = 2;
    MainMemory mem;
    prog.loadInto(mem);
    MultithreadedProcessor cpu(prog, mem, cfg);
    g_result = cpu.run().cycles;
}

} // namespace

int
main()
{
    if (!releaseBuild("bench_simspeed", SMTSIM_BUILD_TYPE))
        return 1;

    const Program serial = benchKernel(false);
    const Program parallel = benchKernel(true);
    bool ok = true;

    // cost(interpreter) / cost(fast engine) on the same kernel:
    // the fast engine's MIPS over the interpreter's.
    ok &= reportGuard(
        "fast engine / interpreter",
        measurePaired([&] { runEngine<fastpath::FastEngine>(serial); },
                      [&] { runEngine<Interpreter>(serial); }, kPairs),
        Bound::AtLeast, kFastSpeedup);

    ok &= reportGuard(
        "core sink detached / plain",
        measurePaired([&] { runCore(parallel); },
                      [&] {
                          CountingSink detached;    // never attached
                          runCore(parallel);
                      },
                      kPairs),
        Bound::AtMost, kTraceOffRatio);

    return ok ? 0 : 1;
}
