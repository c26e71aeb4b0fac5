/**
 * @file
 * Cycle-exactness of the idle-cycle fast-forward (docs/PERF.md):
 * for every workload and a spread of machine shapes, a run with
 * fast_forward enabled must be indistinguishable — RunStats, the
 * detailed stall counters, architectural registers, memory — from
 * the naive cycle-by-cycle loop it replaces.
 */

#include <gtest/gtest.h>

#include <array>
#include <string>

#include "asmr/assembler.hh"
#include "core/processor.hh"
#include "harness/runner.hh"
#include "test_common.hh"
#include "trace/synth.hh"

using namespace smtsim;
using namespace smtsim::test;

namespace
{

void
expectSameStats(const RunStats &ff, const RunStats &naive,
                const std::string &what)
{
    EXPECT_EQ(ff.cycles, naive.cycles) << what;
    EXPECT_EQ(ff.instructions, naive.instructions) << what;
    EXPECT_EQ(ff.finished, naive.finished) << what;
    EXPECT_EQ(ff.fu_grants, naive.fu_grants) << what;
    EXPECT_EQ(ff.fu_busy, naive.fu_busy) << what;
    EXPECT_EQ(ff.unit_busy, naive.unit_busy) << what;
    EXPECT_EQ(ff.branches, naive.branches) << what;
    EXPECT_EQ(ff.loads, naive.loads) << what;
    EXPECT_EQ(ff.stores, naive.stores) << what;
    EXPECT_EQ(ff.standby_stalls, naive.standby_stalls) << what;
    EXPECT_EQ(ff.context_switches, naive.context_switches) << what;
    EXPECT_EQ(ff.writeback_conflicts, naive.writeback_conflicts)
        << what;
    EXPECT_EQ(ff.dcache_hits, naive.dcache_hits) << what;
    EXPECT_EQ(ff.dcache_misses, naive.dcache_misses) << what;
    EXPECT_EQ(ff.icache_hits, naive.icache_hits) << what;
    EXPECT_EQ(ff.icache_misses, naive.icache_misses) << what;
}

/** Run @p w on the core twice (fast-forward on/off) and compare
 *  everything observable; @p ff_stats receives the fast-forward
 *  run's stats. */
void
checkCoreExact(const Workload &w, CoreConfig cfg,
               const std::string &what, RunStats *ff_stats = nullptr)
{
    // Bound the naive pass: a misconfigured shape must exhaust a
    // small budget, not the 2e9-cycle default.
    cfg.max_cycles = 500'000;
    cfg.fast_forward = true;
    MainMemory mem_ff;
    w.program.loadInto(mem_ff);
    if (w.init)
        w.init(mem_ff);
    MultithreadedProcessor ff(w.program, mem_ff, cfg);
    const RunStats sf = ff.run();
    if (ff_stats)
        *ff_stats = sf;

    cfg.fast_forward = false;
    MainMemory mem_nv;
    w.program.loadInto(mem_nv);
    if (w.init)
        w.init(mem_nv);
    MultithreadedProcessor nv(w.program, mem_nv, cfg);
    const RunStats sn = nv.run();

    expectSameStats(sf, sn, what);
    EXPECT_EQ(ff.detail().all(), nv.detail().all()) << what;
    for (int f = 0; f < cfg.frames(); ++f) {
        for (RegIndex r = 0; r < kNumRegs; ++r) {
            EXPECT_EQ(ff.intReg(f, r), nv.intReg(f, r))
                << what << " frame " << f << " r" << int{r};
            EXPECT_EQ(ff.fpReg(f, r), nv.fpReg(f, r))
                << what << " frame " << f << " f" << int{r};
        }
    }
    const Addr base = w.program.data_base;
    const Addr end =
        base + static_cast<Addr>(w.program.data.size());
    for (Addr a = base; a < end; a += 4)
        ASSERT_EQ(mem_ff.read32(a), mem_nv.read32(a))
            << what << " data word @" << a;
    if (w.check) {
        std::string why;
        EXPECT_TRUE(w.check(mem_ff, &why)) << what << ": " << why;
    }
}

std::vector<Workload>
smallWorkloads()
{
    RayTraceParams rp;
    rp.width = 4;
    rp.height = 4;
    rp.num_spheres = 3;
    Lk1Params lp;
    lp.n = 16;
    Lk1Params lpp;
    lpp.n = 16;
    lpp.parallel = true;
    ListWalkParams wp;
    wp.num_nodes = 10;
    MatmulParams mp;
    mp.n = 4;
    BsearchParams bp;
    bp.table_size = 16;
    bp.queries_per_thread = 4;
    RadiosityParams dp;
    dp.num_patches = 5;
    RecurrenceParams cq;
    cq.n = 12;
    cq.variant = RecurrenceVariant::DoacrossQueue;
    RecurrenceParams cm;
    cm.n = 12;
    cm.variant = RecurrenceVariant::DoacrossMemory;

    std::vector<Workload> ws;
    ws.push_back(makeRayTrace(rp));
    ws.push_back(makeLivermore1(lp));
    ws.push_back(makeLivermore1(lpp));
    ws.push_back(makeListWalk(wp));
    ws.push_back(makeMatmul(mp));
    ws.push_back(makeBsearch(bp));
    ws.push_back(makeRadiosity(dp));
    ws.push_back(makeRecurrence(cq));
    ws.push_back(makeRecurrence(cm));
    return ws;
}

std::vector<std::pair<std::string, CoreConfig>>
coreShapes()
{
    std::vector<std::pair<std::string, CoreConfig>> shapes;

    CoreConfig lone;
    lone.num_slots = 1;
    shapes.emplace_back("slots=1", lone);

    shapes.emplace_back("default", CoreConfig{});

    CoreConfig wide;
    wide.num_slots = 8;
    wide.fus.int_alu = 2;
    wide.fus.load_store = 2;
    shapes.emplace_back("slots=8,lsu=2", wide);

    CoreConfig nostandby;
    nostandby.standby_enabled = false;
    shapes.emplace_back("no-standby", nostandby);

    CoreConfig fastrot;
    fastrot.rotation_interval = 1;
    shapes.emplace_back("rot=1", fastrot);

    CoreConfig expl;
    expl.rotation_mode = RotationMode::Explicit;
    shapes.emplace_back("explicit-rot", expl);

    CoreConfig priv;
    priv.private_icache = true;
    shapes.emplace_back("private-icache", priv);

    return shapes;
}

} // namespace

TEST(FastForward, CoreExactOnEveryWorkloadAndShape)
{
    for (const Workload &w : smallWorkloads()) {
        for (const auto &[tag, cfg] : coreShapes()) {
            checkCoreExact(w, cfg, w.name + " / " + tag);
            if (HasFatalFailure())
                return;
        }
    }
}

TEST(FastForward, InstructionQueueSmallerThanFetchBlock)
{
    // A queue that cannot hold a whole fetch block must refetch the
    // words a delivery drops, redirect blocks included. Dropping
    // them skips instructions (wrong matmul results) or leaves a
    // 1-word queue spinning until the budget runs out.
    MatmulParams mp;
    mp.n = 4;
    const Workload w = makeMatmul(mp);
    for (int slots : {2, 4}) {
        for (int words : {1, 2, 4, 7}) {
            CoreConfig cfg;
            cfg.num_slots = slots;
            cfg.iqueue_words = words;
            const std::string what = "slots=" + std::to_string(slots) +
                                     " iqueue_words=" +
                                     std::to_string(words);
            RunStats st;
            checkCoreExact(w, cfg, what, &st);
            EXPECT_TRUE(st.finished) << what;
        }
    }
}

TEST(FastForward, CoreExactOnDenseSyntheticKernel)
{
    SynthParams sp;
    sp.seed = 101;
    sp.iterations = 48;
    const Program prog = makeSyntheticKernel(sp);

    Workload w;
    w.name = "synth";
    w.program = prog;

    CoreConfig cfg;
    cfg.num_slots = 4;
    cfg.width = 2;
    cfg.fus.int_alu = 2;
    cfg.fus.load_store = 2;
    checkCoreExact(w, cfg, "synth dense width=2");
}

TEST(FastForward, CoreExactUnderConcurrentMultithreading)
{
    // The configuration fast-forward pays off most: long remote
    // latencies with more contexts than slots, so the machine
    // spends most wall cycles waiting for remote lines.
    const char *src = R"(
main:   blez r2, done
loop:   lw   r3, 0(r1)
        add  r4, r4, r3
        addi r1, r1, 4
        addi r2, r2, -1
        bgtz r2, loop
        sw   r4, 0(r6)
done:   halt
        .data
outs:   .word 0, 0, 0, 0, 0, 0, 0, 0
)";
    constexpr Addr kRemoteBase = 0x00400000;
    const int words = 12;
    const int ctxs = 6;

    for (Cycle latency : {Cycle{50}, Cycle{200}, Cycle{800}}) {
        RunStats stats[2];
        std::uint32_t outs_val[2][8];
        for (int pass = 0; pass < 2; ++pass) {
            Machine m(src);
            const Addr outs = m.prog.symbol("outs");
            for (int i = 0; i < words * ctxs; ++i) {
                m.mem.write32(kRemoteBase +
                                  static_cast<Addr>(4 * i),
                              static_cast<std::uint32_t>(i + 1));
            }
            CoreConfig cfg;
            cfg.num_slots = 2;
            cfg.num_frames = ctxs + 2;
            cfg.remote.base = kRemoteBase;
            cfg.remote.size = 0x10000;
            cfg.remote.latency = latency;
            cfg.fast_forward = pass == 0;
            MultithreadedProcessor cpu(m.prog, m.mem, cfg);
            for (int c = 0; c < ctxs; ++c) {
                std::array<std::uint32_t, kNumRegs> regs{};
                regs[1] = kRemoteBase +
                          static_cast<Addr>(4 * c * words);
                regs[2] = static_cast<std::uint32_t>(words);
                regs[6] = outs + static_cast<Addr>(4 * c);
                cpu.spawnContext(m.prog.entry, regs);
            }
            stats[pass] = cpu.run();
            for (int c = 0; c < 8; ++c) {
                outs_val[pass][c] = m.mem.read32(
                    outs + static_cast<Addr>(4 * c));
            }
        }
        const std::string what =
            "remote latency " + std::to_string(latency);
        expectSameStats(stats[0], stats[1], what);
        EXPECT_GT(stats[0].context_switches, 0u) << what;
        for (int c = 0; c < 8; ++c)
            EXPECT_EQ(outs_val[0][c], outs_val[1][c]) << what;
    }
}

TEST(FastForward, CoreExactWhenBudgetExpires)
{
    // An infinite loop and a deadlocked doacross ring: the budget
    // path must report the same (cycles, finished) either way.
    for (const char *src :
         {"main: j main\n",
          "main: qen r20, r21\n      add r1, r20, r0\n"
          "      halt\n"}) {
        RunStats s[2];
        for (int pass = 0; pass < 2; ++pass) {
            CoreConfig cfg;
            cfg.num_slots = 2;
            cfg.max_cycles = 5000;
            cfg.fast_forward = pass == 0;
            s[pass] = runCoreAsm(src, cfg);
        }
        expectSameStats(s[0], s[1], src);
        EXPECT_FALSE(s[0].finished) << src;
        EXPECT_EQ(s[0].cycles, 5000u) << src;
    }
}

TEST(FastForward, BaselineExactOnEveryWorkload)
{
    for (const Workload &w : smallWorkloads()) {
        for (int width : {1, 2, 4}) {
            BaselineConfig cfg;
            cfg.width = width;
            if (width > 1) {
                cfg.fus.int_alu = 2;
                cfg.fus.load_store = 2;
            }
            cfg.fast_forward = true;
            const Outcome ff = runBaseline(w, cfg);
            cfg.fast_forward = false;
            const Outcome nv = runBaseline(w, cfg);
            const std::string what =
                w.name + " / baseline width=" +
                std::to_string(width);
            EXPECT_EQ(ff.ok, nv.ok) << what;
            expectSameStats(ff.stats, nv.stats, what);
        }
    }
}

TEST(FastForward, BaselineExactWhenBudgetExpires)
{
    RunStats s[2];
    for (int pass = 0; pass < 2; ++pass) {
        BaselineConfig cfg;
        cfg.max_cycles = 3000;
        cfg.fast_forward = pass == 0;
        // Runs off the end of text: the window drains and the
        // machine spins to the budget.
        s[pass] = runBaselineAsm("main: addi r1, r0, 1\n", cfg);
    }
    expectSameStats(s[0], s[1], "baseline off-text");
    EXPECT_FALSE(s[0].finished);
    EXPECT_EQ(s[0].cycles, 3000u);
}
