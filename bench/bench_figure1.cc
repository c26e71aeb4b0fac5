/**
 * @file
 * Figure 1 — the utilization argument that motivates the whole
 * design: measure each functional unit's single-thread utilization
 * U = N*L/T, predict the multithreaded speed-up bound
 * min(S, units/U) per class, and compare with the simulated
 * machine. "Three processors could be united into one so that the
 * utilization of the busiest functional unit could be expected to
 * be improved nearly to 30x3 = 90%."
 */

#include "bench_common.hh"
#include "harness/analytic.hh"
#include "paper/paper.hh"

using namespace smtsim;
using namespace smtsim::bench;

int
main()
{
    const Workload ray =
        lab::instantiate(paper::rayTraceSpec(paper::Size::Paper));

    for (int lsu : {1, 2}) {
        FuPoolConfig pool;
        pool.load_store = lsu;

        // Single-thread reference on the multithreaded pipeline.
        CoreConfig one;
        one.num_slots = 1;
        one.fus = pool;
        const RunStats ref =
            mustRun(runCore(ray, one), "single-thread reference");
        const AnalyticModel model = buildAnalyticModel(ref);

        TextTable table(
            "Figure 1 check, " + std::to_string(lsu) +
            " load/store unit(s): predicted bound vs simulated");
        table.addRow({"S", "analytic bound", "simulated",
                      "sim/bound", "bottleneck"});
        for (int slots : {1, 2, 4, 8, 16}) {
            CoreConfig cfg;
            cfg.num_slots = slots;
            cfg.fus = pool;
            const RunStats s = mustRun(
                runCore(ray, cfg),
                "slots " + std::to_string(slots));
            const double sim =
                static_cast<double>(ref.cycles) /
                static_cast<double>(s.cycles);
            const double bound = model.speedupBound(slots, pool);
            table.addRow({std::to_string(slots), fmt(bound),
                          fmt(sim), fmt(sim / bound),
                          fuClassName(model.bottleneck(pool))});
        }
        table.print(std::cout);
        std::cout << '\n';
    }

    std::printf("the simulated machine approaches (and never "
                "exceeds) the analytic\ncapacity bound; the gap is "
                "the pipeline's own dependence and branch\n"
                "overheads that multithreading cannot remove.\n");
    return 0;
}
