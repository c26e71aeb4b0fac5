/**
 * @file
 * manycore-remote: seeded ManyCoreMachine runs whose data segment
 * is served through the banked shared L2, on the sequential host
 * schedule (host_threads = 0). Machine, interconnect and the core's
 * stalled, context-switching regime dominate.
 */

#include <memory>

#include <unistd.h>

#include "hostinfo.hh"
#include "machine/manycore_json.hh"
#include "stats.hh"
#include "workloads.hh"
#include "workloads/workloads.hh"

namespace perfbench
{

using smtsim::MachineStats;
using smtsim::RunStats;
using smtsim::Workload;

namespace
{

using MachineOutcome = Outcome<MachineStats>;

MachineOutcome
runMachineOp(const MachineOp &op, Tracer &tracer, std::int64_t id)
{
    MachineOutcome out;
    Tracer::Span whole(tracer, "op", id);
    try {
        Workload w;
        {
            Tracer::Span s(tracer, "workloads.instantiate", id);
            w = lab::instantiate(op.workload);
        }
        MachineConfig cfg = op.cfg;
        cfg.core.remote.base = w.program.data_base;
        cfg.core.remote.size = static_cast<smtsim::Addr>(w.program.data.size());
        std::unique_ptr<smtsim::ManyCoreMachine> machine;
        {
            Tracer::Span s(tracer, "machine.construct", id);
            machine = std::make_unique<smtsim::ManyCoreMachine>(
                w.program, cfg, [&w](int, smtsim::MainMemory &mem) {
                    if (w.init)
                        w.init(mem);
                });
        }
        const auto t0 = Clock::now();
        {
            Tracer::Span s(tracer, "machine.run", id);
            out.stats = machine->run(/*host_threads=*/0);
        }
        out.run_s = secondsBetween(t0, Clock::now());
        Tracer::Span s(tracer, "workloads.verify", id);
        if (!out.stats.finished) {
            out.error = op.label + ": did not finish";
            return out;
        }
        for (int c = 0; c < machine->numCores(); ++c) {
            std::string why;
            if (w.check && !w.check(machine->memory(c), &why)) {
                out.error = op.label + ": core " + std::to_string(c) +
                            ": " + why;
                return out;
            }
        }
        out.ok = true;
    } catch (const std::exception &e) {
        out.error = op.label + ": " + e.what();
    }
    return out;
}

} // namespace

Result
runManycoreRemote(const Options &o, Tracer &tracer)
{
    Result res;
    EndToEnd e;

    Tracer off(false);
    SetUp setUp(
        e, res, [&] { return makeMachinePlan(o.seed, o.seconds); },
        [&](const MachinePlan &p, int) {
            validateWorkloads(p.round, res);
            for (const MachineOp &op : p.warmup) {
                checkInterrupted();
                (void)runMachineOp(op, off, -1);
            }
        },
        [](int) {});
    const MachinePlan plan = setUp();

    double traced_run_s = 0, traced_core_cycles = 0, traced_quanta = 0;
    const std::vector<MachineStats> reference = runRounds(
        o, plan, tracer, e, res, runMachineOp,
        [&](const MachineOp &, const MachineOutcome &m) {
            traced_run_s += m.run_s;
            for (const RunStats &c : m.stats.cores)
                traced_core_cycles += static_cast<double>(c.cycles);
            traced_quanta += static_cast<double>(m.stats.quanta);
        },
        [&](int r) { setUp.afterRound(r, plan.rounds); });

    // Before the paper-table pass: its cells are not this workload.
    e.peak_rss_mb = peakRssMb(getpid());
    e.paper_err = paperErrorPass(res);
    fillEndToEnd(e, res);

    zeroPerLayer(res);
    // Modelled counters over one round: every core of every machine.
    std::vector<RunStats> cores;
    double requests = 0, conflicts = 0, latency = 0, quanta = 0;
    for (const MachineStats &s : reference) {
        cores.insert(cores.end(), s.cores.begin(), s.cores.end());
        requests += static_cast<double>(s.noc.requests);
        conflicts += static_cast<double>(s.noc.conflicts);
        latency += static_cast<double>(s.noc.total_latency);
        quanta += static_cast<double>(s.quanta);
    }
    fillModelCounters(cores, res);
    auto &m = res.metrics;
    m["machine.quanta"] = quanta;
    m["interconnect.requests"] = requests;
    m["interconnect.conflict_ratio"] = ratio(conflicts, requests);
    m["interconnect.mean_latency_cycles"] = ratio(latency, requests);
    if (o.trace) {
        const double rounds = static_cast<double>(e.traced_step_s.size());
        auto ms = [&](const char *name) {
            return median(tracer.durations(name)) * 1e3;
        };
        m["workloads.instantiate_ms"] = ms("workloads.instantiate");
        m["workloads.verify_ms"] = ms("workloads.verify");
        m["machine.construct_ms"] = ms("machine.construct");
        m["machine.run_s"] = ratio(traced_run_s, rounds);
        m["machine.core_cycles_per_s"] =
            ratio(traced_core_cycles, traced_run_s);
        m["machine.host_us_per_quantum"] =
            ratio(traced_run_s * 1e6, traced_quanta);
    }
    return res;
}

} // namespace perfbench
