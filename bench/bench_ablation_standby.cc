/**
 * @file
 * Ablation: standby stations on/off across workloads. Table 2
 * showed only 0-2.2% on the ray tracer ("due to poor parallelism
 * within an instruction stream"); the paper predicts larger gains
 * for threads rich in fine-grained parallelism, which the synthetic
 * ILP-heavy kernel verifies.
 */

#include "bench_common.hh"
#include "paper/paper.hh"
#include "trace/synth.hh"

using namespace smtsim;
using namespace smtsim::bench;

namespace
{

Cycle
runSynth(const Program &prog, int slots, bool standby)
{
    CoreConfig cfg;
    cfg.num_slots = slots;
    cfg.standby_enabled = standby;
    const Workload synth{"synthetic", prog, nullptr, nullptr};
    return mustRun(runCore(synth, cfg), "synthetic").cycles;
}

} // namespace

int
main()
{
    TextTable table("Standby-station ablation (cycles; gain = "
                    "without/with - 1)");
    table.addRow({"workload", "slots", "with standby",
                  "without standby", "gain %"});

    // Ray tracing (the paper's Table 2 columns).
    const Workload ray =
        lab::instantiate(paper::rayTraceSpec(paper::Size::Paper));
    for (int slots : {2, 4, 8}) {
        CoreConfig cfg;
        cfg.num_slots = slots;
        cfg.fus.load_store = 2;
        const RunStats with = mustRun(runCore(ray, cfg), "with");
        cfg.standby_enabled = false;
        const RunStats without =
            mustRun(runCore(ray, cfg), "without");
        table.addRow(
            {"raytrace", std::to_string(slots),
             std::to_string(with.cycles),
             std::to_string(without.cycles),
             fmt(100.0 * (static_cast<double>(without.cycles) /
                              static_cast<double>(with.cycles) -
                          1.0),
                 2)});
    }

    // ILP-rich synthetic kernel: wide mix, low dependence locality.
    SynthParams sp;
    sp.seed = 11;
    sp.iterations = 64;
    sp.insns_per_block = 40;
    sp.dependence_locality = 0.15;
    sp.parallel = true;
    const Program ilp = makeSyntheticKernel(sp);
    for (int slots : {2, 4, 8}) {
        const Cycle with = runSynth(ilp, slots, true);
        const Cycle without = runSynth(ilp, slots, false);
        table.addRow(
            {"synthetic-ilp", std::to_string(slots),
             std::to_string(with), std::to_string(without),
             fmt(100.0 * (static_cast<double>(without) /
                              static_cast<double>(with) -
                          1.0),
                 2)});
    }

    // Serial synthetic kernel: little to gain.
    sp.dependence_locality = 0.95;
    sp.seed = 12;
    const Program serial = makeSyntheticKernel(sp);
    for (int slots : {4}) {
        const Cycle with = runSynth(serial, slots, true);
        const Cycle without = runSynth(serial, slots, false);
        table.addRow(
            {"synthetic-serial", std::to_string(slots),
             std::to_string(with), std::to_string(without),
             fmt(100.0 * (static_cast<double>(without) /
                              static_cast<double>(with) -
                          1.0),
                 2)});
    }

    table.print(std::cout);
    std::printf("\npaper: 0-2.2%% on ray tracing; 'greater "
                "improvement' expected for threads rich in "
                "fine-grained parallelism\n");
    return 0;
}
