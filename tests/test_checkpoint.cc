/**
 * @file
 * Machine-checkpoint determinism: a run that is snapshotted at
 * cycle k, restored into a freshly constructed processor and run to
 * completion must be indistinguishable — RunStats, the detailed
 * stall counters, architectural registers, data memory — from the
 * same run left alone. Exercised over the real workloads and over
 * hundreds of fuzzer-generated programs at pseudo-random snapshot
 * cycles and machine shapes.
 */

#include <gtest/gtest.h>

#include <bit>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "asmr/assembler.hh"
#include "core/processor.hh"
#include "fuzz/generate.hh"
#include "machine/manycore.hh"
#include "machine/manycore_json.hh"
#include "obs/serial.hh"
#include "test_common.hh"
#include "workloads/workloads.hh"

using namespace smtsim;
using namespace smtsim::test;

namespace
{

void
expectSameStats(const RunStats &a, const RunStats &b,
                const std::string &what)
{
    EXPECT_EQ(a.cycles, b.cycles) << what;
    EXPECT_EQ(a.instructions, b.instructions) << what;
    EXPECT_EQ(a.finished, b.finished) << what;
    EXPECT_EQ(a.fu_grants, b.fu_grants) << what;
    EXPECT_EQ(a.fu_busy, b.fu_busy) << what;
    EXPECT_EQ(a.unit_busy, b.unit_busy) << what;
    EXPECT_EQ(a.branches, b.branches) << what;
    EXPECT_EQ(a.loads, b.loads) << what;
    EXPECT_EQ(a.stores, b.stores) << what;
    EXPECT_EQ(a.standby_stalls, b.standby_stalls) << what;
    EXPECT_EQ(a.context_switches, b.context_switches) << what;
    EXPECT_EQ(a.writeback_conflicts, b.writeback_conflicts)
        << what;
    EXPECT_EQ(a.dcache_hits, b.dcache_hits) << what;
    EXPECT_EQ(a.dcache_misses, b.dcache_misses) << what;
    EXPECT_EQ(a.icache_hits, b.icache_hits) << what;
    EXPECT_EQ(a.icache_misses, b.icache_misses) << what;
}

struct FinalState
{
    RunStats stats;
    std::map<std::string, std::uint64_t, std::less<>> detail;
    std::vector<std::uint32_t> iregs;
    std::vector<double> fregs;
    std::vector<std::uint32_t> data;
};

FinalState
capture(const MultithreadedProcessor &cpu, const RunStats &stats,
        const CoreConfig &cfg, const Program &prog,
        const MainMemory &mem)
{
    FinalState st;
    st.stats = stats;
    st.detail = cpu.detail().all();
    for (int f = 0; f < cfg.frames(); ++f) {
        for (RegIndex r = 0; r < kNumRegs; ++r) {
            st.iregs.push_back(cpu.intReg(f, r));
            st.fregs.push_back(cpu.fpReg(f, r));
        }
    }
    const Addr base = prog.data_base;
    const Addr end = base + static_cast<Addr>(prog.data.size());
    for (Addr a = base; a < end; a += 4)
        st.data.push_back(mem.read32(a));
    return st;
}

void
expectSameState(const FinalState &ref, const FinalState &got,
                const std::string &what)
{
    expectSameStats(ref.stats, got.stats, what);
    EXPECT_EQ(ref.detail, got.detail) << what;
    ASSERT_EQ(ref.iregs.size(), got.iregs.size()) << what;
    EXPECT_EQ(ref.iregs, got.iregs) << what;
    for (std::size_t i = 0; i < ref.fregs.size(); ++i) {
        // Bit-level compare: NaN payloads must survive too.
        EXPECT_EQ(std::bit_cast<std::uint64_t>(ref.fregs[i]),
                  std::bit_cast<std::uint64_t>(got.fregs[i]))
            << what << " freg " << i;
    }
    EXPECT_EQ(ref.data, got.data) << what;
}

void
initMemory(const Workload &w, MainMemory &mem)
{
    w.program.loadInto(mem);
    if (w.init)
        w.init(mem);
}

/**
 * Run @p prog plain, then run it again snapshotting at @p at and
 * resuming into a fresh processor + memory; both final states must
 * match bit for bit.
 */
void
checkCheckpointExact(const Program &prog, const CoreConfig &cfg,
                     Cycle at, const std::string &what,
                     void (*init)(MainMemory &) = nullptr)
{
    MainMemory mem_ref;
    prog.loadInto(mem_ref);
    if (init)
        init(mem_ref);
    MultithreadedProcessor ref(prog, mem_ref, cfg);
    const RunStats ref_stats = ref.run();
    const FinalState ref_state =
        capture(ref, ref_stats, cfg, prog, mem_ref);

    // First half: run to the snapshot point and save.
    MainMemory mem_a;
    prog.loadInto(mem_a);
    if (init)
        init(mem_a);
    MultithreadedProcessor a(prog, mem_a, cfg);
    a.runUntil(at);
    std::stringstream ckpt;
    a.saveCheckpoint(ckpt);

    // Byte stability: the same state must serialize to the same
    // bytes every time (memory pages are sorted, nothing iterates
    // in address-order-unstable containers).
    std::stringstream ckpt2;
    a.saveCheckpoint(ckpt2);
    ASSERT_EQ(ckpt.str(), ckpt2.str()) << what;

    // Second half: fresh machine, restore, run to completion.
    MainMemory mem_b;
    MultithreadedProcessor b(prog, mem_b, cfg);
    b.restoreCheckpoint(ckpt);
    EXPECT_EQ(b.now(), a.now()) << what;
    const RunStats got_stats = b.run();
    const FinalState got_state =
        capture(b, got_stats, cfg, prog, mem_b);

    expectSameState(ref_state, got_state, what);

    // Save-restore-save must reproduce the checkpoint bytes.
    MainMemory mem_c;
    MultithreadedProcessor c(prog, mem_c, cfg);
    std::stringstream ckpt_in(ckpt2.str());
    c.restoreCheckpoint(ckpt_in);
    std::stringstream ckpt3;
    c.saveCheckpoint(ckpt3);
    EXPECT_EQ(ckpt2.str(), ckpt3.str()) << what;
}

} // namespace

TEST(Checkpoint, RunUntilSplitMatchesSingleRun)
{
    MatmulParams mp;
    mp.n = 6;
    const Workload w = makeMatmul(mp);
    CoreConfig cfg;
    cfg.max_cycles = 500'000;

    MainMemory mem_ref;
    initMemory(w, mem_ref);
    MultithreadedProcessor ref(w.program, mem_ref, cfg);
    const RunStats sr = ref.run();
    ASSERT_TRUE(sr.finished);

    MainMemory mem;
    initMemory(w, mem);
    MultithreadedProcessor cpu(w.program, mem, cfg);
    // Arbitrary uneven split points, including no-op repeats.
    for (Cycle stop : {7ull, 8ull, 100ull, 100ull, 1000ull})
        cpu.runUntil(stop);
    const RunStats ss = cpu.run();
    expectSameStats(sr, ss, "split run");
    EXPECT_EQ(ref.detail().all(), cpu.detail().all());
}

TEST(Checkpoint, WorkloadsResumeBitIdentically)
{
    struct Case
    {
        const char *name;
        Workload w;
        Cycle at;
    };
    MatmulParams mp;
    mp.n = 6;
    RayTraceParams rp;
    rp.width = 6;
    rp.height = 6;
    rp.num_spheres = 3;
    RecurrenceParams cq;
    cq.n = 12;
    cq.variant = RecurrenceVariant::DoacrossQueue;
    BsearchParams bp;
    bp.table_size = 16;
    bp.queries_per_thread = 4;

    std::vector<Case> cases;
    cases.push_back({"matmul", makeMatmul(mp), 500});
    cases.push_back({"raytrace", makeRayTrace(rp), 1000});
    cases.push_back({"recurrence-q", makeRecurrence(cq), 97});
    cases.push_back({"bsearch", makeBsearch(bp), 333});

    for (const Case &tc : cases) {
        CoreConfig cfg;
        cfg.max_cycles = 500'000;

        // Workload init functions close over parameters, so run
        // the generic checker inline here instead.
        MainMemory mem_ref;
        initMemory(tc.w, mem_ref);
        MultithreadedProcessor ref(tc.w.program, mem_ref, cfg);
        const RunStats sr = ref.run();
        ASSERT_TRUE(sr.finished) << tc.name;
        ASSERT_GT(sr.cycles, tc.at) << tc.name
            << ": snapshot point after the end of the run";
        const FinalState ref_state =
            capture(ref, sr, cfg, tc.w.program, mem_ref);

        MainMemory mem_a;
        initMemory(tc.w, mem_a);
        MultithreadedProcessor a(tc.w.program, mem_a, cfg);
        a.runUntil(tc.at);
        std::stringstream ckpt;
        a.saveCheckpoint(ckpt);

        MainMemory mem_b;
        MultithreadedProcessor b(tc.w.program, mem_b, cfg);
        b.restoreCheckpoint(ckpt);
        const RunStats sg = b.run();
        const FinalState got =
            capture(b, sg, cfg, tc.w.program, mem_b);
        expectSameState(ref_state, got, tc.name);

        if (tc.w.check) {
            std::string why;
            EXPECT_TRUE(tc.w.check(mem_b, &why))
                << tc.name << ": " << why;
        }
    }
}

TEST(Checkpoint, ChainedCheckpointsStayExact)
{
    // Checkpoint every 200 cycles, restoring into a fresh machine
    // each leg: errors would compound if any state leaked.
    MatmulParams mp;
    mp.n = 6;
    const Workload w = makeMatmul(mp);
    CoreConfig cfg;
    cfg.max_cycles = 500'000;

    MainMemory mem_ref;
    initMemory(w, mem_ref);
    MultithreadedProcessor ref(w.program, mem_ref, cfg);
    const RunStats sr = ref.run();
    const FinalState ref_state =
        capture(ref, sr, cfg, w.program, mem_ref);

    auto mem = std::make_unique<MainMemory>();
    initMemory(w, *mem);
    auto cpu = std::make_unique<MultithreadedProcessor>(
        w.program, *mem, cfg);
    RunStats sg;
    for (Cycle at = 200;; at += 200) {
        sg = cpu->runUntil(at);
        if (cpu->finished())
            break;
        std::stringstream ckpt;
        cpu->saveCheckpoint(ckpt);
        auto next_mem = std::make_unique<MainMemory>();
        auto next = std::make_unique<MultithreadedProcessor>(
            w.program, *next_mem, cfg);
        next->restoreCheckpoint(ckpt);
        cpu = std::move(next);
        mem = std::move(next_mem);
    }
    const FinalState got =
        capture(*cpu, sg, cfg, w.program, *mem);
    expectSameState(ref_state, got, "chained");
}

TEST(Checkpoint, FingerprintRejectsMismatchedConfig)
{
    MatmulParams mp;
    mp.n = 4;
    const Workload w = makeMatmul(mp);
    CoreConfig cfg;
    cfg.max_cycles = 100'000;

    MainMemory mem;
    initMemory(w, mem);
    MultithreadedProcessor cpu(w.program, mem, cfg);
    cpu.runUntil(100);
    std::stringstream ckpt;
    cpu.saveCheckpoint(ckpt);

    CoreConfig other = cfg;
    other.num_slots = 2;
    MainMemory mem2;
    MultithreadedProcessor wrong(w.program, mem2, other);
    EXPECT_THROW(wrong.restoreCheckpoint(ckpt),
                 std::runtime_error);
}

TEST(Checkpoint, RejectsTruncatedStream)
{
    MatmulParams mp;
    mp.n = 4;
    const Workload w = makeMatmul(mp);
    CoreConfig cfg;
    cfg.max_cycles = 100'000;

    MainMemory mem;
    initMemory(w, mem);
    MultithreadedProcessor cpu(w.program, mem, cfg);
    cpu.runUntil(100);
    std::stringstream ckpt;
    cpu.saveCheckpoint(ckpt);
    const std::string bytes = ckpt.str();

    std::stringstream cut(bytes.substr(0, bytes.size() / 2));
    MainMemory mem2;
    MultithreadedProcessor fresh(w.program, mem2, cfg);
    EXPECT_THROW(fresh.restoreCheckpoint(cut),
                 std::runtime_error);

    // Garbage, and the header of a version-1 image (the layout
    // before FetchOp lost its redirect flag).
    std::string v1 = bytes;
    v1[8] = 1;
    for (const std::string &bad :
         {std::string("not a checkpoint at all"), v1}) {
        std::stringstream in(bad);
        MainMemory mem3;
        MultithreadedProcessor fresh2(w.program, mem3, cfg);
        EXPECT_THROW(fresh2.restoreCheckpoint(in),
                     std::runtime_error);
    }
}

namespace
{

/**
 * Byte offsets of the checkpoint fields the corruption tests
 * rewrite, found by walking an image field by field
 * (docs/OBSERVABILITY.md layout, src/core/checkpoint.cc order).
 */
struct CkptLayout
{
    std::size_t ctx0_queue_map = 0;     ///< flag + u8, first mapping
    std::size_t slot0_frame = 0;        ///< i32
    std::size_t slot0_queue = 0;        ///< slot 0's queue addresses
    std::uint32_t slot0_queue_count = 0;
    std::size_t slot0_fetch_addr = 0;   ///< u32, then the in-flight flag
    std::size_t slot0_window = 0;       ///< u32 window length
    std::size_t slot0_ungranted = 0;    ///< i32 ungranted_total
    std::size_t fetch_op = 0;           ///< first in-flight fetch
    std::size_t sched0_units = 0;       ///< u32, first schedule unit
    std::size_t sched0_standby = 0;     ///< u32, first schedule unit
    std::size_t held_op = 0;            ///< first op a unit holds
    std::size_t held_incoming = 0;      ///< u32, that unit's arrivals
    std::size_t held_incoming_end = 0;  ///< just past its arrivals
    std::size_t link0_reserved = 0;     ///< i32
    std::size_t pushes = 0;             ///< u32 pending-push count
    std::size_t pushes_end = 0;         ///< just past the pushes
    std::size_t ring = 0;               ///< first i32 of the ring
    std::size_t unit_busy = 0;          ///< u32, first non-empty class
};

/** Serialized sizes: Insn is u16 op + 3 u8 registers + i32 imm;
 *  IssuedOp adds pc, slot, 2 u32 + 2 f64 operands, arrive and a
 *  flag. Slot::wb_ring has 64 bins of u64 + i32. */
constexpr std::size_t kInsnBytes = 2 + 3 + 4;
constexpr std::size_t kIssuedOpBytes = kInsnBytes + 4 + 4 + 8 + 16 +
                                       8 + 1;
constexpr std::size_t kWbRingBytes = 64 * (8 + 4);

CkptLayout
walkCheckpoint(const std::string &bytes)
{
    std::istringstream is(bytes);
    obs::ByteReader r(is);
    const auto at = [&is] {
        return static_cast<std::size_t>(is.tellg());
    };
    const auto skip = [&r](std::size_t n) {
        for (std::size_t i = 0; i < n; ++i)
            r.u8();
    };
    CkptLayout l;

    skip(8 + 4 + 8 + 8);        // magic, version, fingerprint, cycle
    const std::uint32_t nctx = r.u32();
    for (std::uint32_t f = 0; f < nctx; ++f) {
        skip(1 + 4 + 4 * kNumRegs + 8 * kNumRegs);  // state, pc, regs
        if (f == 0)
            l.ctx0_queue_map = at();
        skip(4 * 2);            // four queue mappings
        skip(r.u32() * (kInsnBytes + 4));       // replay entries
        skip(8 + 1 + 4 + 8);    // ready_at, satisfied addr, insns
    }

    const std::uint32_t nslots = r.u32();
    for (std::uint32_t s = 0; s < nslots; ++s) {
        if (s == 0)
            l.slot0_frame = at();
        skip(4 + 1);            // frame, trap pending
        const std::uint32_t niq = r.u32();
        if (s == 0) {
            l.slot0_queue = at();
            l.slot0_queue_count = niq;
        }
        skip(4 * niq);
        if (s == 0)
            l.slot0_fetch_addr = at();
        skip(4 + 1);            // fetch address, fetch in flight
        if (s == 0)
            l.slot0_window = at();
        skip(r.u32() * (kInsnBytes + 4 + 1));
        skip(8 + 16 * kNumRegs);        // d2_allowed, scoreboards
        if (s == 0)
            l.slot0_ungranted = at();
        // ungranted counts, push pending
        skip(4 + 4 * kNumFuClasses + 4 + 4);
        skip(kWbRingBytes);
    }

    const std::uint32_t nports = r.u32();
    for (std::uint32_t p = 0; p < nports; ++p) {
        skip(8);                // free_at
        const std::uint32_t nops = r.u32();
        if (nops > 0 && l.fetch_op == 0)
            l.fetch_op = at();
        skip(nops * (4 + 4 + 4 + 8));   // slot, addr, words, done_at
        skip(4);                // round-robin pointer
    }

    const std::uint32_t nsched = r.u32();
    for (std::uint32_t u = 0; u < nsched; ++u) {
        if (u == 0)
            l.sched0_units = at();
        skip(8 * r.u32());
        if (u == 0)
            l.sched0_standby = at();
        std::size_t held = 0;
        const std::uint32_t ns = r.u32();
        for (std::uint32_t i = 0; i < ns; ++i) {
            if (r.b()) {
                held = held ? held : at();
                skip(kIssuedOpBytes);
            }
        }
        const std::size_t incoming = at();
        const std::uint32_t ni = r.u32();
        held = held ? held : (ni > 0 ? at() : 0);
        skip(ni * kIssuedOpBytes);
        if (held != 0 && l.held_op == 0) {
            l.held_op = held;
            l.held_incoming = incoming;
            l.held_incoming_end = at();
        }
    }
    const std::uint32_t nlinks = r.u32();
    for (std::uint32_t i = 0; i < nlinks; ++i) {
        skip(8 * r.u32());
        if (i == 0)
            l.link0_reserved = at();
        skip(4);                // reserved
    }
    l.pushes = at();
    skip(r.u32() * (8 + 4 + 8));
    l.pushes_end = at();

    const std::uint32_t nring = r.u32();
    l.ring = at();
    skip(4 * nring);
    // rotate flag, mode, interval, last activity, now, finished
    skip(1 + 1 + 4 + 8 + 8 + 1);
    skip(4 * r.u32());          // ready fifo

    // RunStats up to unit_busy: cycles, insns, finished, grants,
    // busy.
    skip(8 + 8 + 1 + 16 * kNumFuClasses);
    for (int c = 0; c < kNumFuClasses; ++c) {
        const std::size_t pos = at();
        const std::uint32_t n = r.u32();
        if (n > 0 && l.unit_busy == 0)
            l.unit_busy = pos;
        skip(8 * n);
    }
    return l;
}

void
putU32(std::string &bytes, std::size_t off, std::uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        bytes[off + i] = static_cast<char>(v >> (8 * i));
}

std::uint32_t
getU32(const std::string &bytes, std::size_t off)
{
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i)
        v |= static_cast<std::uint32_t>(
                 static_cast<unsigned char>(bytes[off + i]))
             << (8 * i);
    return v;
}

/** A matmul n=4 checkpoint taken at cycle 60 and its layout. */
struct MatmulCheckpoint
{
    Workload w;
    CoreConfig cfg;
    std::string bytes;
    CkptLayout layout;

    MatmulCheckpoint()
    {
        MatmulParams mp;
        mp.n = 4;
        w = makeMatmul(mp);
        cfg.max_cycles = 100'000;
        MainMemory mem;
        initMemory(w, mem);
        MultithreadedProcessor cpu(w.program, mem, cfg);
        cpu.runUntil(60);
        std::ostringstream os;
        cpu.saveCheckpoint(os);
        bytes = os.str();
        layout = walkCheckpoint(bytes);
    }

    /** Restoring @p image must throw std::runtime_error whose
     *  message names @p needle — not crash, abort or panic. */
    void
    expectRejected(const std::string &image, const char *needle) const
    {
        std::istringstream is(image);
        MainMemory mem;
        MultithreadedProcessor fresh(w.program, mem, cfg);
        try {
            fresh.restoreCheckpoint(is);
            ADD_FAILURE() << "corrupt image accepted (" << needle
                          << ")";
        } catch (const std::runtime_error &e) {
            EXPECT_NE(std::string(e.what()).find(needle),
                      std::string::npos)
                << e.what();
        }
    }
};

} // namespace

TEST(CheckpointCorruption, TheUntouchedImageRestores)
{
    const MatmulCheckpoint c;
    std::istringstream is(c.bytes);
    MainMemory mem;
    MultithreadedProcessor fresh(c.w.program, mem, c.cfg);
    EXPECT_NO_THROW(fresh.restoreCheckpoint(is));
}

TEST(CheckpointCorruption, SlotFrameOutOfRange)
{
    const MatmulCheckpoint c;
    for (const int frame : {c.cfg.frames(), 1 << 20, -2}) {
        std::string bad = c.bytes;
        putU32(bad, c.layout.slot0_frame,
               static_cast<std::uint32_t>(frame));
        c.expectRejected(bad, "bad slot frame");
    }
}

TEST(CheckpointCorruption, UnitBusySizeDiffersFromUnitCount)
{
    const MatmulCheckpoint c;
    ASSERT_NE(c.layout.unit_busy, 0u);
    for (const std::uint32_t n :
         {getU32(c.bytes, c.layout.unit_busy) + 1, 0x7fffffffu}) {
        std::string bad = c.bytes;
        putU32(bad, c.layout.unit_busy, n);
        c.expectRejected(bad, "unit_busy shape");
    }
}

TEST(CheckpointCorruption, WindowLongerThanWidth)
{
    const MatmulCheckpoint c;
    std::string bad = c.bytes;
    putU32(bad, c.layout.slot0_window,
           static_cast<std::uint32_t>(c.cfg.width + 1));
    c.expectRejected(bad, "window over width");
}

TEST(CheckpointCorruption, PendingPushSlotOutOfRange)
{
    const MatmulCheckpoint c;
    // Append one well-formed push (at, slot, value) naming a slot
    // past the machine, so only its slot field is wrong.
    for (const int slot : {c.cfg.num_slots, -1}) {
        std::string bad = c.bytes;
        putU32(bad, c.layout.pushes,
               getU32(bad, c.layout.pushes) + 1);
        std::string push(8 + 4 + 8, '\0');
        putU32(push, 8, static_cast<std::uint32_t>(slot));
        bad.insert(c.layout.pushes_end, push);
        c.expectRejected(bad, "pending-push slot");
    }
}

TEST(CheckpointCorruption, PriorityRingNotAPermutation)
{
    const MatmulCheckpoint c;
    ASSERT_GE(c.cfg.num_slots, 2);
    std::string duplicate = c.bytes;
    putU32(duplicate, c.layout.ring + 4,
           getU32(c.bytes, c.layout.ring));
    c.expectRejected(duplicate, "not a permutation");
    std::string outside = c.bytes;
    putU32(outside, c.layout.ring,
           static_cast<std::uint32_t>(c.cfg.num_slots));
    c.expectRejected(outside, "not a permutation");
}

TEST(CheckpointCorruption, ScheduleUnitShapeMismatch)
{
    const MatmulCheckpoint c;
    std::string units = c.bytes;
    putU32(units, c.layout.sched0_units,
           getU32(c.bytes, c.layout.sched0_units) + 1);
    c.expectRejected(units, "schedule-unit shape");
    std::string standby = c.bytes;
    putU32(standby, c.layout.sched0_standby,
           getU32(c.bytes, c.layout.sched0_standby) + 1);
    c.expectRejected(standby, "standby shape");
}

TEST(CheckpointCorruption, RegisterIndexOutOfRange)
{
    // Register indices name a 32-entry array; the run indexes the
    // scoreboards and register files with them unchecked.
    const MatmulCheckpoint c;
    std::string mapping = c.bytes;
    mapping[c.layout.ctx0_queue_map] = 1;
    mapping[c.layout.ctx0_queue_map + 1] = kNumRegs;
    c.expectRejected(mapping, "register index out of range");

    ASSERT_NE(c.layout.held_op, 0u) << "no unit holds an op";
    std::string op = c.bytes;
    op[c.layout.held_op + 2] = static_cast<char>(0xff);    // rd
    c.expectRejected(op, "register index out of range");
}

TEST(CheckpointCorruption, ScheduleUnitsDisagreeWithTheSlots)
{
    const MatmulCheckpoint c;
    ASSERT_NE(c.layout.held_op, 0u) << "no unit holds an op";
    // A second copy of a held op among the same unit's arrivals:
    // one slot then has two ops bound for one standby station.
    std::string twice = c.bytes;
    putU32(twice, c.layout.held_incoming,
           getU32(c.bytes, c.layout.held_incoming) + 1);
    twice.insert(c.layout.held_incoming_end,
                 c.bytes.substr(c.layout.held_op, kIssuedOpBytes));
    c.expectRejected(twice, "overlap");

    std::string counts = c.bytes;
    putU32(counts, c.layout.slot0_ungranted,
           getU32(c.bytes, c.layout.slot0_ungranted) + 1);
    c.expectRejected(counts, "ungranted counts");
}

TEST(CheckpointCorruption, FetchStreamNotContiguous)
{
    const MatmulCheckpoint c;
    std::string flag = c.bytes;
    flag[c.layout.slot0_fetch_addr + 4] ^= 1;
    c.expectRejected(flag, "fetch in flight not contiguous");

    // Moving the next fetch address breaks the run whenever slot 0
    // has words queued or a block in flight.
    ASSERT_TRUE(c.layout.slot0_queue_count > 0 ||
                c.bytes[c.layout.slot0_fetch_addr + 4] != 0);
    std::string addr = c.bytes;
    putU32(addr, c.layout.slot0_fetch_addr,
           getU32(c.bytes, c.layout.slot0_fetch_addr) + 4);
    c.expectRejected(addr, "fetch in flight not contiguous");

    // Bit 31 of a block's size vanishes from the 32-bit address
    // sum, so the size needs its own range check.
    ASSERT_NE(c.layout.fetch_op, 0u) << "no fetch in flight";
    std::string words = c.bytes;
    putU32(words, c.layout.fetch_op + 8,
           getU32(c.bytes, c.layout.fetch_op + 8) | 0x80000000u);
    c.expectRejected(words, "fetch block size");
}

TEST(CheckpointCorruption, ReservationWithoutPendingPush)
{
    const MatmulCheckpoint c;
    std::string bad = c.bytes;
    putU32(bad, c.layout.link0_reserved,
           getU32(c.bytes, c.layout.link0_reserved) + 1);
    c.expectRejected(bad, "reservations differ from pending pushes");
}

TEST(Checkpoint, RejectsNonContiguousInstructionQueue)
{
    MatmulParams mp;
    mp.n = 4;
    const Workload w = makeMatmul(mp);
    CoreConfig cfg;
    cfg.max_cycles = 100'000;

    // Find a cycle at which slot 0 holds at least two queued words.
    MainMemory mem;
    initMemory(w, mem);
    MultithreadedProcessor cpu(w.program, mem, cfg);
    std::string bytes;
    std::uint32_t count = 0;
    std::size_t off = 0;
    for (Cycle at = 10; at < 400 && count < 2; ++at) {
        cpu.runUntil(at);
        std::ostringstream os;
        cpu.saveCheckpoint(os);
        bytes = os.str();
        const CkptLayout layout = walkCheckpoint(bytes);
        off = layout.slot0_queue;
        count = layout.slot0_queue_count;
    }
    ASSERT_GE(count, 2u) << "slot 0 never queued two words";

    // The untouched image restores.
    {
        std::istringstream is(bytes);
        MainMemory mem2;
        MultithreadedProcessor ok(w.program, mem2, cfg);
        EXPECT_NO_THROW(ok.restoreCheckpoint(is));
    }

    // Flip a bit of the second queued address: the list is no longer
    // one run of consecutive words, which restore must reject as a
    // corrupt checkpoint rather than crash on.
    std::string bad = bytes;
    bad[off + 4] = static_cast<char>(bad[off + 4] ^ 0x04);
    std::istringstream is(bad);
    MainMemory mem3;
    MultithreadedProcessor fresh(w.program, mem3, cfg);
    try {
        fresh.restoreCheckpoint(is);
        ADD_FAILURE() << "non-contiguous queue accepted";
    } catch (const std::runtime_error &e) {
        EXPECT_NE(std::string(e.what()).find("not contiguous"),
                  std::string::npos)
            << e.what();
    }
}

TEST(Checkpoint, QueueWritesAcrossRemoteSwitchesRestoreAtEveryCycle)
{
    // Each context maps r21 onto its slot's queue link, writes it and
    // then traps on a remote load, so a queue write is still on its
    // way to the link when the slot switches to the next ready
    // context. Every cycle's image must restore and finish exactly
    // like the uninterrupted run.
    const Program prog = assemble(R"(
main:   qen  r20, r21
        la   r1, vals
        addi r21, r0, 7
        lw   r5, 0(r1)
        add  r21, r5, r0
        lw   r6, 4(r1)
        addi r21, r6, 1
        halt
        .data
vals:   .word 1, 2, 3, 4
)");
    for (const int slots : {1, 2}) {
        CoreConfig cfg;
        cfg.num_slots = slots;
        cfg.num_frames = slots + 2;
        cfg.queue_reg_depth = 16;
        cfg.max_cycles = 100'000;
        cfg.remote.base = prog.data_base;
        cfg.remote.size = static_cast<Addr>(prog.data.size());
        cfg.remote.latency = 7;
        const auto spawnAll = [&](MultithreadedProcessor &cpu) {
            for (int f = 1; f < cfg.frames(); ++f)
                cpu.spawnContext(prog.entry);
        };

        MainMemory mem_ref;
        prog.loadInto(mem_ref);
        MultithreadedProcessor ref(prog, mem_ref, cfg);
        spawnAll(ref);
        const RunStats ref_stats = ref.run();
        ASSERT_TRUE(ref_stats.finished) << slots << " slots";
        ASSERT_GT(ref_stats.context_switches, 0u) << slots << " slots";

        for (Cycle at = 1; at < ref_stats.cycles; ++at) {
            const std::string what = std::to_string(slots) +
                                     " slots @" + std::to_string(at);
            MainMemory mem_a;
            prog.loadInto(mem_a);
            MultithreadedProcessor a(prog, mem_a, cfg);
            spawnAll(a);
            a.runUntil(at);
            std::stringstream ckpt;
            a.saveCheckpoint(ckpt);

            MainMemory mem_b;
            MultithreadedProcessor b(prog, mem_b, cfg);
            ASSERT_NO_THROW(b.restoreCheckpoint(ckpt)) << what;
            expectSameStats(ref_stats, b.run(), what);
        }
    }
}

TEST(Checkpoint, ManyCoreMachineResumesBitIdentically)
{
    // The whole machine — 3 cores coupled through the interconnect
    // — snapshotted mid-run and resumed into a fresh machine must
    // reproduce the uninterrupted run's stats and every core's
    // memory (test_manycore covers the register file).
    MatmulParams mp;
    mp.n = 6;
    const Workload w = makeMatmul(mp);
    MachineConfig cfg;
    cfg.num_cores = 3;
    cfg.core.max_cycles = 500'000;
    cfg.core.remote.base = w.program.data_base;
    cfg.core.remote.size =
        static_cast<Addr>(w.program.data.size());
    const auto init = [&w](int, MainMemory &mem) {
        if (w.init)
            w.init(mem);
    };

    ManyCoreMachine ref(w.program, cfg, init);
    const MachineStats sr = ref.run();
    ASSERT_TRUE(sr.finished);
    ASSERT_GT(sr.cycles, 1000u);

    ManyCoreMachine a(w.program, cfg, init);
    a.runUntil(1000);
    std::stringstream ckpt;
    a.saveCheckpoint(ckpt);

    ManyCoreMachine b(w.program, cfg);  // no init: all from ckpt
    b.restoreCheckpoint(ckpt);
    const MachineStats sg = b.run(2);   // finish in parallel
    EXPECT_EQ(sr.cycles, sg.cycles);
    EXPECT_EQ(sr.finished, sg.finished);
    ASSERT_EQ(sr.cores.size(), sg.cores.size());
    for (std::size_t c = 0; c < sr.cores.size(); ++c) {
        expectSameStats(sr.cores[c], sg.cores[c],
                        "machine core " + std::to_string(c));
        const Addr base = w.program.data_base;
        const Addr end =
            base + static_cast<Addr>(w.program.data.size());
        for (Addr addr = base; addr < end; addr += 4) {
            ASSERT_EQ(ref.memory(static_cast<int>(c)).read32(addr),
                      b.memory(static_cast<int>(c)).read32(addr))
                << "core " << c << " addr " << addr;
        }
        std::string why;
        EXPECT_TRUE(w.check(b.memory(static_cast<int>(c)), &why))
            << "core " << c << ": " << why;
    }

    // A machine of a different shape must refuse the checkpoint.
    MachineConfig other = cfg;
    other.num_cores = 2;
    ManyCoreMachine wrong(w.program, other, init);
    std::stringstream in(ckpt.str());
    EXPECT_THROW(wrong.restoreCheckpoint(in), std::runtime_error);
}

TEST(Checkpoint, FuzzedProgramsResumeBitIdentically)
{
    // >= 200 generated programs, each snapshotted at a
    // pseudo-random cycle under a seed-dependent machine shape.
    constexpr int kPrograms = 220;
    int checked = 0;
    for (int seed = 1; seed <= kPrograms; ++seed) {
        fuzz::GenOptions opts;
        opts.seed = static_cast<std::uint64_t>(seed);
        opts.max_top_units = 6;
        const fuzz::GenProgram gp = fuzz::generate(opts);
        const Program prog = assemble(gp.render());

        CoreConfig cfg;
        cfg.max_cycles = 200'000;
        cfg.num_slots = (seed % 3 == 0) ? 2 : 4;
        cfg.width = (seed % 4 == 0) ? 2 : 1;
        cfg.standby_enabled = seed % 5 != 0;
        if (seed % 7 == 0)
            cfg.rotation_mode = RotationMode::Explicit;

        // Pick the snapshot cycle from the run's actual length so
        // it always lands mid-run (deterministic per seed).
        MainMemory probe_mem;
        prog.loadInto(probe_mem);
        MultithreadedProcessor probe(prog, probe_mem, cfg);
        const RunStats ps = probe.run();
        ASSERT_TRUE(ps.finished)
            << "fuzz seed " << seed << " did not finish";
        if (ps.cycles < 4)
            continue;           // too short to split meaningfully
        const Cycle at =
            1 + (static_cast<Cycle>(seed) * 2654435761ull) %
                    (ps.cycles - 2);

        checkCheckpointExact(prog, cfg, at,
                             "fuzz seed " +
                                 std::to_string(seed) +
                                 " @" + std::to_string(at));
        ++checked;
    }
    // The generator occasionally emits near-empty programs; most
    // must still exercise a real split.
    EXPECT_GE(checked, 200);
}
