#include "oplist.hh"

#include <algorithm>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "base/random.hh"
#include "sched/list_scheduler.hh"
#include "sched/standby_scheduler.hh"
#include "workloads/workloads.hh"

namespace perfbench
{

using smtsim::RotationMode;
using smtsim::Rng;

const char *
engineName(Engine e)
{
    switch (e) {
      case Engine::Core: return "core";
      case Engine::Baseline: return "baseline";
      case Engine::Interp: return "interp";
      case Engine::Fast: return "fast";
    }
    return "?";
}

const char *
serveKindName(ServeKind k)
{
    switch (k) {
      case ServeKind::Hit: return "hit";
      case ServeKind::Cold: return "cold";
      case ServeKind::Dup: return "dup";
      case ServeKind::Lint: return "lint";
    }
    return "?";
}

namespace
{

/** Independent stream per purpose, so adding draws to one part of
 *  a plan never shifts another part. */
Rng
stream(std::uint64_t seed, std::uint64_t purpose)
{
    return Rng(seed * 0x9e3779b97f4a7c15ull +
               purpose * 0xbf58476d1ce4e5b9ull + 1);
}

template <typename T>
void
shuffle(std::vector<T> &v, Rng &rng)
{
    for (std::size_t i = v.size(); i > 1; --i)
        std::swap(v[i - 1], v[rng.nextBelow(i)]);
}

/** Rounds for a run of @p seconds when one round takes about
 *  @p round_ms on a current 4-CPU host; at least two, so a median
 *  round exists. */
int
roundsFor(int seconds, int round_ms)
{
    return std::max(2, seconds * 1000 / round_ms);
}

GridOp
coreOp(std::string label, lab::WorkloadSpec w, const CoreConfig &cfg)
{
    GridOp op;
    op.label = std::move(label);
    op.engine = Engine::Core;
    op.workload = std::move(w);
    op.core = cfg;
    return op;
}

GridOp
baselineOp(std::string label, lab::WorkloadSpec w,
           const BaselineConfig &cfg = {})
{
    GridOp op;
    op.label = std::move(label);
    op.engine = Engine::Baseline;
    op.workload = std::move(w);
    op.baseline = cfg;
    return op;
}

GridOp
functionalOp(std::string label, Engine engine, lab::WorkloadSpec w,
             int threads)
{
    GridOp op;
    op.label = std::move(label);
    op.engine = engine;
    op.workload = std::move(w);
    op.threads = threads;
    return op;
}

std::string gridLine(const GridOp &op);

/** The job lists of bench_table2..5, bench_utilization and
 *  bench_cache, with their paper values. */
void
addPaperTables(std::vector<GridOp> &ops, std::vector<PaperPoint> &paper)
{
    const lab::WorkloadSpec ray =
        lab::WorkloadSpec::rayTrace(24, 24, 5, 42);

    // Table 2: slots x load/store units x standby stations.
    ops.push_back(baselineOp("t2/baseline", ray));
    const double t2[2][2][3] = {{{1.79, 2.84, 3.22}, {1.83, 2.89, 3.22}},
                                {{2.01, 3.68, 5.68}, {2.02, 3.72, 5.79}}};
    for (int lsu : {1, 2}) {
        for (bool standby : {false, true}) {
            for (int slots : {1, 2, 4, 8}) {
                CoreConfig cfg;
                cfg.num_slots = slots;
                cfg.fus.load_store = lsu;
                cfg.standby_enabled = standby;
                cfg.rotation_interval = 8;
                const std::string id =
                    "t2/s" + std::to_string(slots) + "/ls" +
                    std::to_string(lsu) + (standby ? "/sb" : "/nosb");
                ops.push_back(coreOp(id, ray, cfg));
                if (slots > 1) {
                    const int col = slots == 2 ? 0 : slots == 4 ? 1 : 2;
                    paper.push_back(
                        {id, "t2/baseline", 1.0, t2[lsu - 1][standby][col]});
                }
            }
        }
    }

    // Table 3: hybrid (D,S) processors, D*S <= 8, two LS units.
    ops.push_back(baselineOp("t3/baseline", ray));
    const std::pair<std::pair<int, int>, double> t3[] = {
        {{1, 2}, 2.02}, {{1, 4}, 3.72}, {{1, 8}, 5.79},
        {{2, 1}, 1.31}, {{2, 2}, 2.43}, {{2, 4}, 4.37},
        {{4, 1}, 1.52}, {{4, 2}, 2.79}, {{8, 1}, 1.68}};
    for (int d : {1, 2, 4, 8}) {
        for (int s : {1, 2, 4, 8}) {
            if (d * s > 8)
                continue;
            const std::string id =
                "t3/d" + std::to_string(d) + "/s" + std::to_string(s);
            if (s == 1) {
                BaselineConfig cfg;
                cfg.width = d;
                cfg.fus.load_store = 2;
                ops.push_back(baselineOp(id, ray, cfg));
            } else {
                CoreConfig cfg;
                cfg.width = d;
                cfg.num_slots = s;
                cfg.fus.load_store = 2;
                ops.push_back(coreOp(id, ray, cfg));
            }
            for (const auto &[ds, value] : t3)
                if (ds == std::make_pair(d, s))
                    paper.push_back({id, "t3/baseline", 1.0, value});
        }
    }

    // Table 4: static scheduling of Livermore Kernel 1.
    constexpr int kLk1Iters = 400;
    const lab::WorkloadSpec lk1 =
        lab::WorkloadSpec::livermore1(kLk1Iters, /*parallel=*/true);
    const std::vector<Insn> body = smtsim::lk1LoopBody();
    const std::vector<Insn> order_a = smtsim::listSchedule(body).order;
    for (int slots : {1, 2, 3, 4, 6, 8}) {
        CoreConfig cfg;
        cfg.num_slots = slots;
        cfg.rotation_mode = RotationMode::Explicit;
        smtsim::StandbySchedulerConfig bcfg;
        bcfg.num_slots = slots;
        const std::vector<Insn> order_b =
            smtsim::standbySchedule(body, bcfg).order;
        const std::string s = "/s" + std::to_string(slots);
        ops.push_back(coreOp("t4/none" + s, lk1, cfg));
        GridOp a = coreOp("t4/A" + s, lk1, cfg);
        a.lk1_body = order_a;
        ops.push_back(std::move(a));
        GridOp b = coreOp("t4/B" + s, lk1, cfg);
        b.lk1_body = order_b;
        ops.push_back(std::move(b));
    }
    // Legible cells; the saturated 6- and 8-slot rows are read
    // against strategy B, the schedule the paper recommends.
    paper.push_back({"t4/none/s1", "", kLk1Iters, 50.0});
    paper.push_back({"t4/A/s1", "", kLk1Iters, 42.0});
    paper.push_back({"t4/B/s6", "", kLk1Iters, 8.83});
    paper.push_back({"t4/B/s8", "", kLk1Iters, 8.0});

    // Table 5: eager execution of the Figure 6 while loop.
    constexpr int kNodes = 400;
    ops.push_back(baselineOp(
        "t5/sequential", lab::WorkloadSpec::listWalk(kNodes)));
    paper.push_back({"t5/sequential", "", kNodes, 56.0});
    const lab::WorkloadSpec eager =
        lab::WorkloadSpec::listWalk(kNodes, -1, /*eager=*/true);
    for (int slots : {1, 2, 3, 4, 6, 8}) {
        CoreConfig cfg;
        cfg.num_slots = slots;
        cfg.rotation_mode = RotationMode::Explicit;
        const std::string id = "t5/eager/s" + std::to_string(slots);
        ops.push_back(coreOp(id, eager, cfg));
        if (slots >= 2)
            paper.push_back({id, "", kNodes,
                             slots == 2 ? 32.5 : slots == 3 ? 21.67 : 17.0});
    }
    // The eager program run sequentially: its slot-relay protocol
    // needs several logical processors, so verification fails.
    GridOp broken =
        baselineOp("t5/eager-on-baseline", eager);
    broken.expect_ok = false;
    ops.push_back(std::move(broken));

    // Utilization sweep (Figure 1's motivation).
    for (int lsu : {1, 2}) {
        for (int slots : {1, 2, 4, 8}) {
            CoreConfig cfg;
            cfg.num_slots = slots;
            cfg.fus.load_store = lsu;
            ops.push_back(coreOp("util/s" + std::to_string(slots) + "/ls" +
                                     std::to_string(lsu),
                                 ray, cfg));
        }
    }

    // Finite data cache cells.
    for (int slots : {1, 4, 8}) {
        CoreConfig cfg;
        cfg.num_slots = slots;
        cfg.fus.load_store = 2;
        const std::string s = "/s" + std::to_string(slots);
        ops.push_back(coreOp("cache/perfect" + s, ray, cfg));
        for (smtsim::Addr size : {16384u, 2048u, 512u}) {
            CoreConfig c = cfg;
            c.dcache.size_bytes = size;
            c.dcache.line_bytes = 32;
            c.dcache.miss_penalty = 20;
            ops.push_back(coreOp(
                "cache/d" + std::to_string(size) + s, ray, c));
        }
    }
}

/** Seeded scene and input variants: every engine, finite icache. */
void
addVariants(std::vector<GridOp> &ops, Rng &rng)
{
    auto seed = [&rng] { return 1 + rng.nextBelow(1u << 30); };

    const lab::WorkloadSpec ray =
        lab::WorkloadSpec::rayTrace(16, 16, 5, seed());
    CoreConfig ray4;
    ray4.num_slots = 4;
    ray4.fus.load_store = 2;
    ops.push_back(coreOp("var/ray/s4", ray, ray4));
    CoreConfig ray8 = ray4;
    ray8.num_slots = 8;
    ray8.icache.size_bytes = 512;
    ray8.icache.line_bytes = 32;
    ray8.icache.miss_penalty = 20;
    ops.push_back(coreOp("var/ray/s8/i512", ray, ray8));
    ops.push_back(baselineOp("var/ray/baseline", ray));
    ops.push_back(functionalOp("var/ray/interp", Engine::Interp, ray, 1));
    ops.push_back(functionalOp("var/ray/fast", Engine::Fast, ray, 4));

    const lab::WorkloadSpec bs =
        lab::WorkloadSpec::bsearch(256, 48, seed());
    CoreConfig s2;
    s2.num_slots = 2;
    ops.push_back(coreOp("var/bsearch/s2", bs, s2));
    ops.push_back(baselineOp("var/bsearch/baseline", bs));
    ops.push_back(functionalOp("var/bsearch/interp", Engine::Interp, bs, 4));
    ops.push_back(functionalOp("var/bsearch/fast", Engine::Fast, bs, 4));

    const lab::WorkloadSpec rad =
        lab::WorkloadSpec::radiosity(24, seed());
    ops.push_back(coreOp("var/radiosity/s4", rad, ray4));
    ops.push_back(functionalOp("var/radiosity/fast", Engine::Fast, rad, 4));

    const lab::WorkloadSpec walk =
        lab::WorkloadSpec::listWalk(64, -1, /*eager=*/true, seed());
    CoreConfig eager4;
    eager4.num_slots = 4;
    eager4.rotation_mode = RotationMode::Explicit;
    ops.push_back(coreOp("var/listwalk/eager/s4", walk, eager4));
    ops.push_back(baselineOp("var/listwalk/sequential",
                             lab::WorkloadSpec::listWalk(
                                 64, -1, false,
                                 static_cast<std::uint64_t>(
                                     walk.params.at("seed")))));
    ops.push_back(functionalOp("var/listwalk/interp", Engine::Interp,
                               walk, 4));

    // Small jobs, the size of Table 4's and Table 5's, on every
    // engine: with them small jobs are most of the list, so the
    // median op is a small job, as the median of a paper sweep is,
    // and no seeded variant sits at the median. They also make the
    // list odd in length (95 ops): the median of a latency window,
    // whole rounds of the list, is then the middle repetition of one
    // op, not the mean of one op's slowest and the next one's
    // fastest repetition.
    const lab::WorkloadSpec small[] = {
        lab::WorkloadSpec::listWalk(32, -1, /*eager=*/true, seed()),
        lab::WorkloadSpec::bsearch(64, 12, seed()),
        lab::WorkloadSpec::matmul(5),
    };
    for (const lab::WorkloadSpec &w : small) {
        for (int slots : {1, 2, 4, 6, 8}) {
            CoreConfig cfg;
            cfg.num_slots = slots;
            if (w.kind == "listwalk")
                cfg.rotation_mode = RotationMode::Explicit;
            ops.push_back(coreOp("var/small/" + w.kind + "/s" +
                                     std::to_string(slots),
                                 w, cfg));
        }
        if (w.kind != "listwalk")
            ops.push_back(baselineOp("var/small/" + w.kind + "/baseline", w));
        ops.push_back(functionalOp("var/small/" + w.kind + "/interp",
                                   Engine::Interp, w, 4));
        ops.push_back(functionalOp("var/small/" + w.kind + "/fast",
                                   Engine::Fast, w, 4));
    }
}

/** Cold single-job specs for serve-mixed: small programs that
 *  simulate in about a millisecond. */
lab::ExperimentSpec
singleJob(const lab::WorkloadSpec &w, int slots)
{
    lab::ExperimentSpec spec;
    spec.name = "perfbench";
    spec.workloads = {w};
    spec.slots = {slots};
    return spec;
}

/** The @p i-th small program: the kind and size follow from @p i,
 *  the seed picks the input data. */
lab::ExperimentSpec
smallJob(int i, Rng &rng)
{
    const int size = (i / 4) % 2;
    lab::WorkloadSpec w;
    switch (i % 4) {
      case 0:
        w = lab::WorkloadSpec::matmul(4 + 2 * size);
        break;
      case 1:
        w = lab::WorkloadSpec::bsearch(64, 8 + 8 * size,
                                       1 + rng.nextBelow(1u << 30));
        break;
      case 2:
        w = lab::WorkloadSpec::tokenRing(4 + 4 * size);
        break;
      default:
        w = lab::WorkloadSpec::listWalk(24 + 24 * size, -1, false,
                                        1 + rng.nextBelow(1u << 30));
    }
    return singleJob(w, (i / 8) % 2 ? 4 : 2);
}

/**
 * Keep the first of ops that simulate the same job (the benches
 * share cells: bench_utilization's sweep is Table 2's standby half,
 * bench_cache's perfect-cache row is part of Table 3) and point the
 * paper values at the op kept.
 */
void
dedupe(std::vector<GridOp> &ops, std::vector<PaperPoint> &paper)
{
    std::map<std::string, std::string> kept;    // job text -> label
    std::map<std::string, std::string> alias;   // dropped -> kept
    std::vector<GridOp> unique;
    for (GridOp &op : ops) {
        GridOp anon = op;
        anon.label.clear();
        const auto [it, fresh] = kept.emplace(gridLine(anon), op.label);
        if (fresh)
            unique.push_back(std::move(op));
        else
            alias[op.label] = it->second;
    }
    ops = std::move(unique);
    for (PaperPoint &p : paper) {
        if (alias.count(p.op))
            p.op = alias.at(p.op);
        if (alias.count(p.base))
            p.base = alias.at(p.base);
    }
}

} // namespace

GridPlan
makeGridPlan(std::uint64_t seed, int seconds)
{
    GridPlan plan;
    addPaperTables(plan.round, plan.paper);
    dedupe(plan.round, plan.paper);
    Rng variants = stream(seed, 1);
    addVariants(plan.round, variants);
    // Warm-up: the first op of every distinct (engine, program).
    std::set<std::string> seen;
    for (const GridOp &op : plan.round) {
        const std::string key = std::string(engineName(op.engine)) +
                                op.workload.canonical() +
                                (op.lk1_body.empty() ? "" : op.label);
        if (seen.insert(key).second)
            plan.warmup.push_back(op);
    }
    Rng order = stream(seed, 2);
    shuffle(plan.round, order);
    plan.rounds = roundsFor(seconds, 1000);
    return plan;
}

MachinePlan
makeMachinePlan(std::uint64_t seed, int seconds)
{
    MachinePlan plan;
    Rng rng = stream(seed, 3);
    // The seed picks bsearch's table and queries and the op order;
    // matmul and the fixed radiosity scene keep the simulated work
    // nearly equal across seeds.
    const lab::WorkloadSpec kernels[] = {
        lab::WorkloadSpec::matmul(8),
        lab::WorkloadSpec::radiosity(12),
        lab::WorkloadSpec::bsearch(128, 16, 1 + rng.nextBelow(1u << 30)),
    };
    for (const lab::WorkloadSpec &w : kernels) {
        // 27 ops, an odd number: see addVariants' small jobs.
        for (int cores : {2, 4, 8}) {
            for (int slots : {2, 3, 4}) {
                MachineOp op;
                op.label = w.kind + "/c" + std::to_string(cores) + "/s" +
                           std::to_string(slots);
                op.workload = w;
                op.cfg.num_cores = cores;
                op.cfg.core.num_slots = slots;
                // More context frames than slots: a slot whose
                // context waits on the remote L2 switches to a
                // ready frame (concurrent multithreading).
                op.cfg.core.num_frames = slots + 2;
                op.cfg.core.fus.load_store = 2;
                op.cfg.core.max_cycles = 50'000'000;
                op.cfg.noc.l2_access_cycles = 200;
                op.cfg.noc.hop_latency = 8;
                plan.round.push_back(op);
            }
        }
    }
    shuffle(plan.round, rng);
    // Warm-up: every kernel on every machine size, two slots.
    for (const MachineOp &op : plan.round)
        if (op.cfg.core.num_slots == 2)
            plan.warmup.push_back(op);
    plan.rounds = roundsFor(seconds, 450);
    return plan;
}

ServePlan
makeServePlan(std::uint64_t seed, int seconds)
{
    ServePlan plan;
    Rng rng = stream(seed, 4);

    // The warm cache holds kStored specs; the first kHot of them
    // are each hit once per round.
    constexpr int kStored = 128;
    constexpr int kHot = 27;
    for (int i = 0; i < kStored; ++i) {
        ServeOp op;
        op.kind = ServeKind::Hit;
        op.label = "hot" + std::to_string(i);
        op.spec = smallJob(i, rng);
        // Distinct cache keys even when two specs coincide.
        op.spec.core_template.max_cycles = 40'000'000 + i;
        plan.hot.push_back(op);
    }

    ServeOp lint;
    lint.kind = ServeKind::Lint;
    lint.label = "lint";
    lint.spec = singleJob(lab::WorkloadSpec::tokenRing(8, /*bug=*/1), 4);

    // Cold and duplicate specs carry their index in max_cycles until
    // serveStep() gives them a key of their round.
    int cold_specs = 0;
    auto cold = [&](ServeKind kind) {
        ServeOp op;
        op.kind = kind;
        op.label = std::string(serveKindName(kind)) +
                   std::to_string(cold_specs);
        op.spec = smallJob(cold_specs, rng);
        op.spec.core_template.max_cycles = cold_specs++;
        return op;
    };
    int hits = 0;
    auto hit = [&] { return plan.hot.at(hits++); };
    // A fixed layout: the seed picks the programs' data, not where
    // the slow ops sit. Which ops share a step moves the latency
    // tail, and the tail must compare across seeds.
    std::vector<ServeStep> steps;
    for (int i = 0; i < 16; ++i) {
        switch (i) {
          case 1:
            steps.push_back({hit(), cold(ServeKind::Cold)});
            break;
          case 5: {
            const ServeOp dup = cold(ServeKind::Dup);
            steps.push_back({dup, dup});
            break;
          }
          case 9:
            steps.push_back({cold(ServeKind::Cold), hit()});
            break;
          case 13:
            steps.push_back({lint, hit()});
            break;
          default:
            steps.push_back({hit(), hit()});
        }
    }

    if (hits != kHot)
        throw std::logic_error("serve round template hits " +
                               std::to_string(hits) + " specs");
    plan.round = std::move(steps);
    plan.rounds = roundsFor(seconds, 20);
    plan.cold_per_round = cold_specs;
    return plan;
}

ServeStep
serveStep(const ServePlan &plan, int r, std::size_t i)
{
    ServeStep step = plan.round.at(i);
    for (ServeOp *op : {&step.a, &step.b}) {
        if (op->kind != ServeKind::Cold && op->kind != ServeKind::Dup)
            continue;
        auto &max_cycles = op->spec.core_template.max_cycles;
        max_cycles = 60'000'000 +
                     static_cast<std::uint64_t>(r) * plan.cold_per_round +
                     max_cycles;
        op->label += "/r" + std::to_string(r);
    }
    return step;
}

namespace
{

std::string
gridLine(const GridOp &op)
{
    std::ostringstream os;
    os << op.label << ' ' << engineName(op.engine) << ' '
       << op.workload.canonical();
    if (!op.lk1_body.empty()) {
        os << " body=";
        for (const Insn &insn : op.lk1_body)
            os << static_cast<int>(insn.op) << ':' << int(insn.rd) << ','
               << int(insn.rs) << ',' << int(insn.rt) << ','
               << insn.imm << ';';
    }
    switch (op.engine) {
      case Engine::Core:
        os << ' ' << lab::canonicalConfig(op.core);
        break;
      case Engine::Baseline:
        os << ' ' << lab::canonicalConfig(op.baseline);
        break;
      default:
        os << " threads=" << op.threads;
    }
    os << (op.expect_ok ? "" : " expect=fail") << '\n';
    return os.str();
}

std::string
serveLine(const ServeOp &op)
{
    lab::ExperimentSpec spec = op.spec;
    const std::vector<lab::Job> jobs = spec.expand();
    std::string key = jobs.empty() ? "-" : jobs.front().cacheKey();
    return std::string(serveKindName(op.kind)) + ' ' + op.label + ' ' +
           spec.workloads.front().canonical() + ' ' + key;
}

} // namespace

std::string
describe(const GridPlan &plan)
{
    std::string out = "rounds " + std::to_string(plan.rounds) + '\n';
    for (const GridOp &op : plan.warmup)
        out += "warmup " + gridLine(op);
    for (const GridOp &op : plan.round)
        out += gridLine(op);
    return out;
}

std::string
describe(const MachinePlan &plan)
{
    std::string out = "rounds " + std::to_string(plan.rounds) + '\n';
    auto line = [](const MachineOp &op) {
        return op.label + ' ' + op.workload.canonical() + " cores=" +
               std::to_string(op.cfg.num_cores) + ' ' +
               lab::canonicalConfig(op.cfg.core) + '\n';
    };
    for (const MachineOp &op : plan.warmup)
        out += "warmup " + line(op);
    for (const MachineOp &op : plan.round)
        out += line(op);
    return out;
}

std::string
describe(const ServePlan &plan)
{
    std::string out = "rounds " + std::to_string(plan.rounds) + '\n';
    for (const ServeOp &op : plan.hot)
        out += "hot " + serveLine(op) + '\n';
    for (int r = 0; r < std::min(plan.rounds, 2); ++r) {
        for (std::size_t i = 0; i < plan.round.size(); ++i) {
            const ServeStep s = serveStep(plan, r, i);
            out += "round " + std::to_string(r) + ' ' + serveLine(s.a) +
                   " | " + serveLine(s.b) + '\n';
        }
    }
    return out;
}

} // namespace perfbench
