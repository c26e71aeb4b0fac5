#include "paper/paper.hh"

#include <algorithm>
#include <stdexcept>

#include "base/strutil.hh"
#include "base/table.hh"
#include "harness/runner.hh"
#include "sched/list_scheduler.hh"
#include "sched/standby_scheduler.hh"

namespace smtsim::paper
{

namespace
{

std::string
fmt(double v, int prec = 2)
{
    return formatDouble(v, prec);
}

std::string
paperCell(double v)
{
    return v > 0 ? fmt(v) : "-";
}

double
cycles(const RunStats &s)
{
    return static_cast<double>(s.cycles);
}

CoreConfig
coreConfig(int slots, int lsu = 1,
           RotationMode rotation = RotationMode::Implicit)
{
    CoreConfig cfg;
    cfg.num_slots = slots;
    cfg.fus.load_store = lsu;
    cfg.rotation_mode = rotation;
    return cfg;
}

/** Run @p jobs in one lab::runJobs call: one per cell, after the
 *  base run when there is one job more than cells. */
template <class Key>
void
run(Table<Key> &t, std::vector<lab::Job> jobs,
    const lab::LabOptions &opts)
{
    // A job's identity names it in statsOf()'s failure message.
    for (lab::Job &job : jobs)
        job.id = job.canonical();
    const lab::ResultSet rs = lab::runJobs(jobs, opts);
    const std::size_t skip = jobs.size() - t.cells.size();
    if (skip > 0)
        t.base = rs.statsOf(jobs[0].id);
    for (std::size_t i = 0; i < t.cells.size(); ++i)
        t.cells[i].stats = rs.statsOf(jobs[i + skip].id);
}

/** The stats of the cell @p match accepts. */
template <class Key, class Match>
const RunStats &
statsWhere(const Table<Key> &t, Match match)
{
    const auto it = std::find_if(t.cells.begin(), t.cells.end(), match);
    if (it == t.cells.end())
        throw std::out_of_range("paper: a compared cell is missing");
    return it->stats;
}

/** Fold one cell's test into predicate @p name, which fails at the
 *  first cell that breaks it. */
void
require(std::vector<Check> &out, const std::string &name, bool holds,
        const std::string &where)
{
    auto it = std::find_if(out.begin(), out.end(), [&](const Check &c) {
        return c.name == name;
    });
    if (it == out.end())
        it = out.insert(out.end(), {name, true, "holds"});
    if (!holds && it->ok)
        *it = {name, false, "fails at " + where};
}

/** Percent of data accesses that miss. */
double
missRate(const RunStats &s)
{
    return 100.0 * static_cast<double>(s.dcache_misses) /
           static_cast<double>(s.dcache_hits + s.dcache_misses);
}

/** Cycles of the fastest interval. */
double
fastest(const RotationSweep &t)
{
    Cycle best = kNeverCycle;
    for (const auto &c : t.cells)
        best = std::min(best, c.stats.cycles);
    return static_cast<double>(best);
}

std::string
at(int slots, int lsu = 1)
{
    return std::to_string(slots) + " slots, " + std::to_string(lsu) +
           " LS";
}

} // namespace

lab::WorkloadSpec
rayTraceSpec(Size size)
{
    if (size == Size::Small)
        return lab::WorkloadSpec::rayTrace(12, 12, /*spheres=*/4);
    return lab::WorkloadSpec::rayTrace(24, 24, /*spheres=*/5,
                                       /*seed=*/42);
}

// Table 2: speed-up by parallel multithreading, rotation interval 8.

template <>
Table2
measure<Table2>(Size size, const lab::LabOptions &opts)
{
    // [ls units - 1][standby][1, 2, 4, 8 slots]
    static constexpr double kPaper[2][2][4] = {
        {{0, 1.79, 2.84, 3.22}, {0, 1.83, 2.89, 3.22}},
        {{0, 2.01, 3.68, 5.68}, {0, 2.02, 3.72, 5.79}}};
    const lab::WorkloadSpec ray = rayTraceSpec(size);
    Table2 t;
    std::vector<lab::Job> jobs{lab::baselineJob("", ray)};
    for (int lsu : {1, 2}) {
        for (bool standby : {false, true}) {
            for (int i = 0; i < 4; ++i) {
                CoreConfig cfg = coreConfig(1 << i, lsu);
                cfg.standby_enabled = standby;
                cfg.rotation_interval = 8;
                jobs.push_back(lab::coreJob("", ray, cfg));
                t.cells.push_back({{1 << i, lsu, standby},
                                   kPaper[lsu - 1][standby][i]});
            }
        }
    }
    run(t, jobs, opts);
    return t;
}

void
print(const Table2 &t, std::ostream &os)
{
    os << "sequential baseline: " << t.base.cycles << " cycles, "
       << t.base.instructions << " insns\n\n";
    TextTable table("Table 2: speed-up ratio by parallel "
                    "multithreading (ray tracing, rotation "
                    "interval 8)");
    table.addRow({"slots", "ls units", "standby", "speed-up", "paper",
                  "busiest FU util %", "ls util %"});
    for (const auto &c : t.cells) {
        const RunStats &s = c.stats;
        table.addRow(
            {std::to_string(c.slots), std::to_string(c.lsu),
             c.standby ? "with" : "without", fmt(speedup(t.base, s)),
             paperCell(c.paper), fmt(s.busiestUnitUtilization(), 1),
             fmt(std::max(s.unitUtilization(FuClass::LoadStore, 0),
                          s.unitUtilization(FuClass::LoadStore, 1)),
                 1)});
    }
    table.print(os);
}

std::vector<Check>
check(const Table2 &t)
{
    auto su = [&](int slots, int lsu, bool sb) {
        return speedup(t.base, statsWhere(t, [&](const auto &c) {
            return c.slots == slots && c.lsu == lsu && c.standby == sb;
        }));
    };
    std::vector<Check> out;
    for (const auto &c : t.cells) {
        const double s = speedup(t.base, c.stats);
        const std::string where =
            at(c.slots, c.lsu) + (c.standby ? ", standby" : "");
        // The base RISC has one LS unit.
        if (c.slots == 1 && c.lsu == 1)
            require(out, "one-slot-below-1x", s < 1.0, where);
        if (c.slots == 2) {
            require(out, "two-slots-about-2x", s > 1.6 && s < 2.3,
                    where);
        }
        if (c.slots == 8 && c.lsu == 1) {
            require(out, "one-ls-saturates",
                    c.stats.unitUtilization(FuClass::LoadStore, 0) > 85,
                    where);
            require(out, "second-ls-relieves",
                    su(8, 2, c.standby) > 1.10 * s, where);
        }
        if (c.standby) {
            const double gain = s / su(c.slots, c.lsu, false);
            require(out, "standby-few-percent",
                    gain > 0.97 && gain < 1.06, where);
        }
    }
    return out;
}

// Table 3: hybrid (D,S) processors with eight functional units (a
// second LS unit). As in section 3.3, (D,1) is the base RISC.

template <>
Table3
measure<Table3>(Size size, const lab::LabOptions &opts)
{
    // In grid order; (8,1) is partially garbled in the scan.
    static constexpr double kPaper[] = {0,    2.02, 3.72, 5.79, 1.31,
                                        2.43, 4.37, 1.52, 2.79, 1.68};
    const lab::WorkloadSpec ray = rayTraceSpec(size);
    Table3 t;
    std::vector<lab::Job> jobs{lab::baselineJob("", ray)};
    for (int d : {1, 2, 4, 8}) {
        for (int s = 1; d * s <= 8; s *= 2) {
            CoreConfig cfg = coreConfig(s, 2);
            cfg.width = d;
            BaselineConfig base;
            base.width = d;
            base.fus = cfg.fus;
            jobs.push_back(s == 1 ? lab::baselineJob("", ray, base)
                                  : lab::coreJob("", ray, cfg));
            t.cells.push_back({{d, s}, kPaper[t.cells.size()]});
        }
    }
    run(t, jobs, opts);
    return t;
}

void
print(const Table3 &t, std::ostream &os)
{
    TextTable table("Table 3: speed-up of hybrid (D,S)-processors "
                    "(8 functional units; D*S <= 8)");
    table.addRow({"D (width)", "S (slots)", "speed-up", "paper"});
    for (const auto &c : t.cells) {
        table.addRow({std::to_string(c.width), std::to_string(c.slots),
                      fmt(speedup(t.base, c.stats)),
                      paperCell(c.paper)});
    }
    table.print(os);
    os << "\nThe paper's conclusion to verify: for equal issue\n"
          "bandwidth D*S, larger S wins (e.g. (1,8) > (2,4) > (4,2) "
          "> (8,1)).\n";
}

std::vector<Check>
check(const Table3 &t)
{
    auto su = [&](int d, int slots) {
        return speedup(t.base, statsWhere(t, [&](const auto &c) {
            return c.width == d && c.slots == slots;
        }));
    };
    std::vector<Check> out;
    // At equal D*S, halving D to double S wins: (1,8) > (2,4) >
    // (4,2) > (8,1), and likewise at D*S = 2 and 4.
    for (const auto &c : t.cells) {
        if (c.slots > 1) {
            require(out, "larger-s-wins",
                    su(c.width, c.slots) > su(2 * c.width, c.slots / 2),
                    "(" + std::to_string(c.width) + "," +
                        std::to_string(c.slots) + ")");
        }
    }
    require(out, "slots-beat-width-1.5x", su(1, 4) > 1.5 * su(4, 1),
            "(1,4)");
    return out;
}

// Table 4: static scheduling of Livermore Kernel 1, one LS unit,
// explicit rotation with a change-priority instruction per
// iteration. The cells' programs are built from a schedule.

template <>
Table4
measure<Table4>(Size size, const lab::LabOptions &)
{
    // Legible cells of the scan, by strategy; the saturated 6- and
    // 8-slot rows are read against strategy B.
    static constexpr int kSlots[] = {1, 2, 3, 4, 6, 8};
    static constexpr double kPaper[6][3] = {
        {50.0, 42.0, 0}, {}, {}, {}, {0, 0, 8.83}, {0, 0, 8.0}};
    Lk1Params params;
    params.n = size == Size::Paper ? 400 : 96;
    params.parallel = true;
    const std::vector<Insn> body = lk1LoopBody();
    const std::vector<Insn> order_a = listSchedule(body).order;
    Table4 t;
    t.iterations = params.n;
    for (int i = 0; i < 6; ++i) {
        StandbySchedulerConfig bcfg;
        bcfg.num_slots = kSlots[i];
        const std::vector<Insn> order_b =
            standbySchedule(body, bcfg).order;
        const Workload programs[] = {
            makeLivermore1(params), makeLivermore1(params, &order_a),
            makeLivermore1(params, &order_b)};
        for (int k = 0; k < 3; ++k) {
            const Outcome o = runCore(
                programs[k],
                coreConfig(kSlots[i], 1, RotationMode::Explicit));
            if (!o.ok)
                throw std::runtime_error("table 4: " + o.error);
            t.cells.push_back({{kSlots[i], k}, kPaper[i][k], o.stats});
        }
    }
    return t;
}

void
print(const Table4 &t, std::ostream &os)
{
    TextTable table("Table 4: static code scheduling of Livermore "
                    "Kernel 1 (cycles per iteration, one load/store "
                    "unit)");
    table.addRow({"slots", "non-optimized", "strategy A",
                  "strategy B", "paper (legible cells)"});
    for (std::size_t i = 0; i + 2 < t.cells.size(); i += 3) {
        const auto *c = &t.cells[i];
        std::vector<std::string> row{std::to_string(c->slots)};
        for (int k = 0; k < 3; ++k)
            row.push_back(fmt(cycles(c[k].stats) / t.iterations));
        row.push_back("-");
        if (c[0].paper > 0) {
            row.back() = "none=" + fmt(c[0].paper, 1) + " A=" +
                         fmt(c[1].paper, 1);
        }
        if (c[2].paper > 0)
            row.back() = "~" + fmt(c[2].paper);
        table.addRow(std::move(row));
    }
    table.print(os);
    os << "\nlower bound: (3 loads + 1 store) x issue latency 2 = 8 "
          "cycles/iteration\n";
}

std::vector<Check>
check(const Table4 &t)
{
    std::vector<Check> out;
    for (std::size_t i = 0; i + 2 < t.cells.size(); i += 3) {
        const auto *c = &t.cells[i];
        const double none = cycles(c[0].stats) / t.iterations;
        const double a = cycles(c[1].stats) / t.iterations;
        const double b = cycles(c[2].stats) / t.iterations;
        const double lo = std::min({none, a, b});
        const double hi = std::max({none, a, b});
        const std::string where = at(c->slots);
        // 3 loads + 1 store at issue latency 2 on one LS unit.
        require(out, "memory-floor", lo >= 8.0, where);
        if (c->slots == 8)
            require(out, "floor-by-8-slots", hi < 11.0, where);
        // On the floor the schedule no longer matters; there A
        // trails source order by a few cycles in total.
        if (c->slots <= 4) {
            require(out, "a-never-slower", a <= none, where);
        } else {
            require(out, "strategies-meet-at-floor", hi < 1.01 * lo,
                    where);
        }
    }
    return out;
}

// Table 5: eager execution of the Figure 6 while loop, one
// iteration per logical processor, ptr relayed through queue
// registers. The paper's sequential run takes 56 cycles/iteration.

template <>
Table5
measure<Table5>(Size size, const lab::LabOptions &opts)
{
    static constexpr int kSlots[] = {1, 2, 3, 4, 6, 8};
    static constexpr double kPaper[] = {0, 32.5, 21.67, 17, 17, 17};
    Table5 t;
    t.iterations = size == Size::Paper ? 400 : 150;
    const lab::WorkloadSpec eager =
        lab::WorkloadSpec::listWalk(t.iterations, -1, /*eager=*/true);
    std::vector<lab::Job> jobs{lab::baselineJob(
        "", lab::WorkloadSpec::listWalk(t.iterations))};
    for (int i = 0; i < 6; ++i) {
        jobs.push_back(lab::coreJob(
            "", eager,
            coreConfig(kSlots[i], 1, RotationMode::Explicit)));
        t.cells.push_back({{kSlots[i]}, kPaper[i]});
    }
    run(t, jobs, opts);
    return t;
}

void
print(const Table5 &t, std::ostream &os)
{
    const double sequential = cycles(t.base) / t.iterations;
    os << "sequential execution: " << fmt(sequential)
       << " cycles/iteration (paper: 56)\n\n";
    TextTable table("Table 5: eager execution of sequential loop "
                    "iterations (cycles per iteration)");
    table.addRow({"thread slots", "cycles/iteration", "paper",
                  "speed-up vs sequential"});
    for (const auto &c : t.cells) {
        const double per_iter = cycles(c.stats) / t.iterations;
        table.addRow({std::to_string(c.slots), fmt(per_iter),
                      paperCell(c.paper), fmt(sequential / per_iter)});
    }
    table.print(os);
    os << "\nsaturation: the inter-iteration dependence on ptr->next "
          "bounds the speed-up\n";
}

std::vector<Check>
check(const Table5 &t)
{
    auto su = [&](int slots) {
        return speedup(t.base, statsWhere(t, [&](const auto &c) {
            return c.slots == slots;
        }));
    };
    std::vector<Check> out;
    require(out, "eager-rises-to-4", su(2) > 1.4, at(2));
    for (int slots : {3, 4}) {
        require(out, "eager-rises-to-4", su(slots) > su(slots - 1),
                at(slots));
    }
    // The loop-carried ptr->next recurrence bounds the speed-up.
    for (const auto &c : t.cells) {
        const double s = speedup(t.base, c.stats) / su(4);
        if (c.slots > 4) {
            require(out, "flat-after-4", s > 0.9 && s < 1.1,
                    at(c.slots));
        }
    }
    return out;
}

// Utilization U = N*L/T of each functional unit as slots are added.

template <>
Utilization
measure<Utilization>(Size size, const lab::LabOptions &opts)
{
    Utilization t;
    std::vector<lab::Job> jobs;
    for (int lsu : {1, 2}) {
        for (int slots : {1, 2, 4, 8}) {
            jobs.push_back(lab::coreJob("", rayTraceSpec(size),
                                        coreConfig(slots, lsu)));
            t.cells.push_back({{slots, lsu}});
        }
    }
    run(t, jobs, opts);
    return t;
}

void
print(const Utilization &t, std::ostream &os)
{
    for (int lsu : {1, 2}) {
        TextTable table("Per-unit utilization [%], ray tracing, " +
                        std::to_string(lsu) + " load/store unit(s)");
        table.addRow({"slots", "int_alu", "shifter", "int_mul",
                      "fp_add", "fp_mul", "fp_div", "ls0", "ls1"});
        for (const auto &c : t.cells) {
            if (c.lsu != lsu)
                continue;
            // Unit 0 of IntAlu..LoadStore (FuClass order), then ls1.
            std::vector<std::string> row{std::to_string(c.slots)};
            for (int k = 0; k < 8; ++k) {
                const double u = c.stats.unitUtilization(
                    static_cast<FuClass>(std::min(k, 6)), k / 7);
                row.push_back(k == 7 && lsu == 1 ? "-" : fmt(u, 1));
            }
            table.addRow(std::move(row));
        }
        table.print(os);
        os << '\n';
    }
    os << "paper: with one load/store unit and 8 slots its "
          "utilization reaches 99%,\nexplaining the saturation of "
          "Table 2's speed-up at 3.22\n";
}

std::vector<Check>
check(const Utilization &t)
{
    auto ls = [](const RunStats &s) {
        return s.unitUtilization(FuClass::LoadStore, 0);
    };
    std::vector<Check> out;
    for (std::size_t i = 0; i < t.cells.size(); ++i) {
        const auto &c = t.cells[i];
        if (c.slots == 8 && c.lsu == 1)
            require(out, "ls-saturates", ls(c.stats) > 85.0, at(8, 1));
        // In grid order the cell before has half the slots.
        if (c.slots > 1) {
            require(out, "ls-util-climbs",
                    ls(c.stats) > ls(t.cells[i - 1].stats),
                    at(c.slots, c.lsu));
        }
    }
    return out;
}

// Finite data cache (32-byte lines, 20-cycle miss penalty): misses
// are both tolerated (other threads fill the latency) and amplified
// (the threads share one cache).

template <>
CacheSweep
measure<CacheSweep>(Size size, const lab::LabOptions &opts)
{
    CacheSweep t;
    std::vector<lab::Job> jobs;
    for (int slots : {1, 4, 8}) {
        for (Addr bytes : {0u, 16384u, 2048u, 512u}) {
            CoreConfig cfg = coreConfig(slots, 2);
            if (bytes > 0) {
                cfg.dcache.size_bytes = bytes;
                cfg.dcache.line_bytes = 32;
                cfg.dcache.miss_penalty = 20;
            }
            jobs.push_back(lab::coreJob("", rayTraceSpec(size), cfg));
            t.cells.push_back({{slots, bytes}});
        }
    }
    run(t, jobs, opts);
    return t;
}

void
print(const CacheSweep &t, std::ostream &os)
{
    TextTable table("Finite data cache (32-byte lines, 20-cycle miss "
                    "penalty), ray tracing, 2 load/store units");
    table.addRow({"dcache", "slots", "cycles", "vs perfect",
                  "miss rate %"});
    double perfect = 0;
    for (const auto &c : t.cells) {
        const bool finite = c.dcache_bytes > 0;
        if (!finite)
            perfect = cycles(c.stats);
        table.addRow(
            {finite ? std::to_string(c.dcache_bytes) + "B" : "perfect",
             std::to_string(c.slots), std::to_string(c.stats.cycles),
             fmt(cycles(c.stats) / perfect),
             finite ? fmt(missRate(c.stats), 1) : "-"});
    }
    table.print(os);
    os << "\nslowdown factor vs. perfect caches shrinks as thread "
          "slots are added\n(parallel multithreading hides part of "
          "the miss latency), until the\nshared cache starts "
          "thrashing.\n";
}

std::vector<Check>
check(const CacheSweep &t)
{
    auto perfect = [&](const CacheSweep::Cell &c) {
        return cycles(statsWhere(t, [&](const auto &p) {
            return p.slots == c.slots && p.dcache_bytes == 0;
        }));
    };
    // Cycles each miss adds over the perfect cache.
    auto exposed = [&](const CacheSweep::Cell &c) {
        return (cycles(c.stats) - perfect(c)) /
               static_cast<double>(c.stats.dcache_misses);
    };
    Addr smallest = ~Addr(0);
    for (const auto &c : t.cells)
        if (c.dcache_bytes > 0)
            smallest = std::min(smallest, c.dcache_bytes);

    std::vector<Check> out;
    const CacheSweep::Cell *prev = nullptr;
    for (const auto &c : t.cells) {
        const std::string where =
            std::to_string(c.dcache_bytes) + "B, " + at(c.slots, 2);
        if (c.dcache_bytes >= 2048) {
            require(out, "2k-suffices",
                    cycles(c.stats) < 1.05 * perfect(c), where);
        }
        if (c.dcache_bytes != smallest)
            continue;
        // The threads share one cache, so misses grow with slots,
        // but the other threads fill their latency.
        if (prev) {
            require(out, "misses-grow-with-slots",
                    missRate(c.stats) > missRate(prev->stats), where);
            require(out, "latency-hidden", exposed(c) < exposed(*prev),
                    where);
        }
        prev = &c;
    }
    return out;
}

// Rotation interval 2^n, n = 0..8, 4 slots and 2 LS units. The
// paper: "did not have much influence", 8 or 16 slightly superior.

template <>
RotationSweep
measure<RotationSweep>(Size size, const lab::LabOptions &opts)
{
    RotationSweep t;
    std::vector<lab::Job> jobs;
    for (int n = 0; n <= 8; ++n) {
        CoreConfig cfg = coreConfig(4, 2);
        cfg.rotation_interval = 1 << n;
        jobs.push_back(lab::coreJob("", rayTraceSpec(size), cfg));
        t.cells.push_back({{1 << n}});
    }
    run(t, jobs, opts);
    return t;
}

void
print(const RotationSweep &t, std::ostream &os)
{
    TextTable table("Rotation-interval sweep (ray tracing, 4 slots, "
                    "2 load/store units)");
    table.addRow({"interval (cycles)", "cycles", "vs best"});
    const double best = fastest(t);
    for (const auto &c : t.cells) {
        table.addRow(
            {std::to_string(c.interval), std::to_string(c.stats.cycles),
             "+" + fmt(100.0 * (cycles(c.stats) - best) / best) + "%"});
    }
    table.print(os);
    os << "\npaper: little influence; 8 or 16 cycles slightly "
          "superior\n";
}

std::vector<Check>
check(const RotationSweep &t)
{
    std::vector<Check> out;
    for (const auto &c : t.cells) {
        require(out, "little-influence",
                cycles(c.stats) < 1.02 * fastest(t),
                "interval " + std::to_string(c.interval));
    }
    return out;
}

// Private instruction caches and fetch units per slot versus one
// shared instruction cache. The paper: 1.79 -> 1.80 at 2 slots and
// 5.79 -> 5.80 at 8, so sharing one instruction cache is possible.

template <>
PrivateIcache
measure<PrivateIcache>(Size size, const lab::LabOptions &opts)
{
    const lab::WorkloadSpec ray = rayTraceSpec(size);
    PrivateIcache t;
    std::vector<lab::Job> jobs{lab::baselineJob("", ray)};
    for (int lsu : {1, 2}) {
        for (int slots : {2, 4, 8}) {
            for (bool priv : {false, true}) {
                CoreConfig cfg = coreConfig(slots, lsu);
                cfg.private_icache = priv;
                jobs.push_back(lab::coreJob("", ray, cfg));
                t.cells.push_back({{slots, lsu, priv}});
            }
        }
    }
    run(t, jobs, opts);
    return t;
}

void
print(const PrivateIcache &t, std::ostream &os)
{
    TextTable table("Private vs shared instruction cache / fetch "
                    "unit (ray tracing)");
    table.addRow({"slots", "ls units", "shared speed-up",
                  "private speed-up", "gain %"});
    for (std::size_t i = 0; i + 1 < t.cells.size(); i += 2) {
        const double shared = speedup(t.base, t.cells[i].stats);
        const double priv = speedup(t.base, t.cells[i + 1].stats);
        table.addRow({std::to_string(t.cells[i].slots),
                      std::to_string(t.cells[i].lsu), fmt(shared),
                      fmt(priv), fmt(100.0 * (priv / shared - 1.0))});
    }
    table.print(os);
    os << "\npaper: 1.79->1.80 and 5.79->5.80; instruction fetch "
          "conflicts are hidden\n";
}

std::vector<Check>
check(const PrivateIcache &t)
{
    std::vector<Check> out;
    for (std::size_t i = 0; i + 1 < t.cells.size(); i += 2) {
        const double gain =
            cycles(t.cells[i].stats) / cycles(t.cells[i + 1].stats);
        require(out, "sharing-viable", gain >= 1.0 && gain < 1.06,
                at(t.cells[i].slots, t.cells[i].lsu));
    }
    return out;
}

} // namespace smtsim::paper
