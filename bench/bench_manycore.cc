/**
 * @file
 * Host-scaling guard for the many-core machine. Sequential
 * throughput is tracked by perfbench's manycore-remote workload;
 * this binary checks two things perfbench does not run:
 *
 *  - the quantum-parallel host loop keeps a 16-core machine at a
 *    4-host-thread parallel efficiency t1 / (4 * t4) of at least
 *    0.3, measured as a paired-round ratio (bench/paired.hh). The
 *    guard is skipped, with a message, on a host with fewer than 4
 *    CPUs: barrier hand-offs on an oversubscribed host measure the
 *    scheduler, not the simulator;
 *  - the headline scale, 64 cores x 8 slots = 512 logical
 *    processors, runs to completion once.
 *
 * Every machine couples its cores through the shared L2 (the
 * workload's data segment is the remote region), so the barrier and
 * fold machinery is on the measured path; an uncoupled machine would
 * parallelize trivially and measure nothing.
 *
 * Prints one line per guard and exits 1 when one fails. Refuses to
 * measure unless built Release.
 */

#include <cstdio>
#include <thread>

#include <sched.h>

#include "machine/manycore.hh"
#include "paired.hh"
#include "workloads/workloads.hh"

using namespace smtsim;
using namespace smtsim::bench;

namespace
{

constexpr int kPairs = 15;
constexpr double kMinEfficiency = 0.3;
constexpr int kGuardThreads = 4;

Workload
benchWorkload()
{
    MatmulParams p;
    p.n = 8;
    return makeMatmul(p);
}

MachineConfig
benchConfig(const Workload &w, int cores)
{
    MachineConfig cfg;
    cfg.num_cores = cores;
    cfg.core.num_slots = 8;
    cfg.core.num_frames = 10;   // concurrent MT over the stalls
    cfg.core.fus.load_store = 2;
    cfg.core.max_cycles = 5'000'000;
    cfg.core.remote.base = w.program.data_base;
    cfg.core.remote.size =
        static_cast<Addr>(w.program.data.size());
    // Paper-scale remote latency. The long minimum latency also
    // means long barrier quanta: the work between barriers, not the
    // barrier itself, should dominate.
    cfg.noc.l2_access_cycles = 200;
    cfg.noc.hop_latency = 8;
    return cfg;
}

MachineStats
runMachine(const Workload &w, int cores, int host_threads)
{
    const auto init = [&w](int, MainMemory &mem) {
        if (w.init)
            w.init(mem);
    };
    ManyCoreMachine m(w.program, benchConfig(w, cores), init);
    return m.run(host_threads);
}

/** CPUs this process may run on, as nproc counts them. */
int
usableCpus()
{
    cpu_set_t set;
    if (sched_getaffinity(0, sizeof set, &set) != 0)
        return static_cast<int>(std::thread::hardware_concurrency());
    return CPU_COUNT(&set);
}

} // namespace

int
main()
{
    if (!releaseBuild("bench_manycore", SMTSIM_BUILD_TYPE))
        return 1;

    const Workload w = benchWorkload();
    bool ok = true;

    const int ncpu = usableCpus();
    if (ncpu < kGuardThreads) {
        std::printf("16-core efficiency, 4 threads skipped: host has "
                    "%d CPU(s), needs %d\n",
                    ncpu, kGuardThreads);
    } else {
        // cost(1 thread) / cost(4 threads) is the speed-up; a
        // quarter of it is the parallel efficiency.
        const PairedEstimate speedup = measurePaired(
            [&] { runMachine(w, 16, kGuardThreads); },
            [&] { runMachine(w, 16, 1); }, kPairs);
        ok &= reportGuard("16-core efficiency, 4 threads",
                          speedup.scaled(1.0 / kGuardThreads),
                          Bound::AtLeast, kMinEfficiency);
    }

    const MachineStats big = runMachine(w, 64, 8);
    std::printf("64 cores x 8 slots (%d logical processors): %s in "
                "%llu cycles\n",
                64 * 8, big.finished ? "finished" : "DID NOT FINISH",
                static_cast<unsigned long long>(big.cycles));
    ok &= big.finished;

    return ok ? 0 : 1;
}
