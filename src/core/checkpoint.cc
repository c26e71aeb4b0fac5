/**
 * @file
 * Full machine checkpoints for the multithreaded core: every piece
 * of state that run()/runUntil() reads — contexts, thread slots,
 * fetch ports, schedule units + standby stations, the queue-register
 * ring, caches, statistics and the backing memory image — is
 * serialized so a restored processor continues bit-identically (the
 * determinism tests compare final statistics, registers and memory
 * against an unsnapshotted run). docs/OBSERVABILITY.md documents the
 * format; bump kCheckpointVersion on any layout change.
 */

#include <algorithm>
#include <array>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "base/hash.hh"
#include "core/processor.hh"
#include "obs/serial.hh"

namespace smtsim
{

namespace
{

/** "SMTCKPT1" read as a little-endian u64. */
constexpr std::uint64_t kCheckpointMagic = 0x3154504b43544d53ull;
constexpr std::uint32_t kCheckpointVersion = 2;

void
fail(const std::string &what)
{
    throw std::runtime_error("checkpoint: " + what);
}

void
writeInsn(obs::ByteWriter &w, const Insn &insn)
{
    // Fields directly, never via encode(): the checkpoint must not
    // depend on an encode/decode round trip.
    w.u16(static_cast<std::uint16_t>(insn.op));
    w.u8(insn.rd);
    w.u8(insn.rs);
    w.u8(insn.rt);
    w.i32(insn.imm);
}

Insn
readInsn(obs::ByteReader &r)
{
    Insn insn;
    const std::uint16_t op = r.u16();
    if (op >= kNumOps)
        fail("bad opcode");
    insn.op = static_cast<Op>(op);
    insn.rd = r.u8();
    insn.rs = r.u8();
    insn.rt = r.u8();
    if (insn.rd >= kNumRegs || insn.rs >= kNumRegs ||
        insn.rt >= kNumRegs)
        fail("register index out of range");
    insn.imm = r.i32();
    return insn;
}

void
writeOptReg(obs::ByteWriter &w, const std::optional<RegIndex> &v)
{
    w.b(v.has_value());
    w.u8(v.value_or(0));
}

std::optional<RegIndex>
readOptReg(obs::ByteReader &r)
{
    const bool has = r.b();
    const RegIndex idx = r.u8();
    if (has && idx >= kNumRegs)
        fail("register index out of range");
    return has ? std::optional<RegIndex>(idx) : std::nullopt;
}

void
writeCache(obs::ByteWriter &w,
           const std::optional<DirectMappedCache> &cache)
{
    w.b(cache.has_value());
    if (!cache.has_value())
        return;
    const auto &ways = cache->rawWays();
    w.u32(static_cast<std::uint32_t>(ways.size()));
    for (const auto &way : ways) {
        w.u64(way.tag);
        w.u64(way.last_used);
    }
    w.u64(cache->tick());
    w.u64(cache->hits());
    w.u64(cache->misses());
}

void
readCache(obs::ByteReader &r,
          std::optional<DirectMappedCache> &cache)
{
    const bool present = r.b();
    if (present != cache.has_value())
        fail("cache presence mismatch");
    if (!present)
        return;
    const std::uint32_t n = r.u32();
    if (n != cache->rawWays().size())
        fail("cache shape mismatch");
    std::vector<DirectMappedCache::Way> ways(n);
    for (auto &way : ways) {
        way.tag = r.u64();
        way.last_used = r.u64();
    }
    const std::uint64_t tick = r.u64();
    const std::uint64_t hits = r.u64();
    const std::uint64_t misses = r.u64();
    cache->restoreRaw(std::move(ways), tick, hits, misses);
}

void
writeRunStats(obs::ByteWriter &w, const RunStats &s)
{
    w.u64(s.cycles);
    w.u64(s.instructions);
    w.b(s.finished);
    for (std::uint64_t v : s.fu_grants)
        w.u64(v);
    for (std::uint64_t v : s.fu_busy)
        w.u64(v);
    for (const auto &units : s.unit_busy) {
        w.u32(static_cast<std::uint32_t>(units.size()));
        for (std::uint64_t v : units)
            w.u64(v);
    }
    w.u64(s.branches);
    w.u64(s.loads);
    w.u64(s.stores);
    w.u64(s.standby_stalls);
    w.u64(s.context_switches);
    w.u64(s.writeback_conflicts);
    w.u64(s.dcache_hits);
    w.u64(s.dcache_misses);
    w.u64(s.icache_hits);
    w.u64(s.icache_misses);
}

void
readRunStats(obs::ByteReader &r, RunStats &s)
{
    s.cycles = r.u64();
    s.instructions = r.u64();
    s.finished = r.b();
    for (std::uint64_t &v : s.fu_grants)
        v = r.u64();
    for (std::uint64_t &v : s.fu_busy)
        v = r.u64();
    // The per-class unit counts are configuration: the sizes were
    // set at construction and the image must agree with them.
    for (auto &units : s.unit_busy) {
        const std::uint32_t n = r.u32();
        if (n != units.size())
            fail("unit_busy shape mismatch");
        for (std::uint64_t &v : units)
            v = r.u64();
    }
    s.branches = r.u64();
    s.loads = r.u64();
    s.stores = r.u64();
    s.standby_stalls = r.u64();
    s.context_switches = r.u64();
    s.writeback_conflicts = r.u64();
    s.dcache_hits = r.u64();
    s.dcache_misses = r.u64();
    s.icache_hits = r.u64();
    s.icache_misses = r.u64();
}

void
writeMemory(obs::ByteWriter &w, const MainMemory &mem)
{
    // pages() iterates in unordered_map order; sort by base address
    // so checkpoints of identical machine states are byte-stable.
    std::vector<std::pair<Addr, const MainMemory::Page *>> pages;
    pages.reserve(mem.pages().size());
    for (const auto &[index, page] : mem.pages())
        pages.emplace_back(index, &page);
    std::sort(pages.begin(), pages.end(),
              [](const auto &a, const auto &b) {
                  return a.first < b.first;
              });
    w.u32(static_cast<std::uint32_t>(pages.size()));
    for (const auto &[index, page] : pages) {
        // The page table is keyed by page index; the stream stores
        // the byte base address.
        w.u32(index * MainMemory::kPageBytes);
        w.u32(static_cast<std::uint32_t>(page->size()));
        w.bytes(page->data(), page->size());
    }
}

void
readMemory(obs::ByteReader &r, MainMemory &mem)
{
    mem.reset();
    const std::uint32_t n = r.u32();
    std::vector<std::uint8_t> bytes;
    for (std::uint32_t i = 0; i < n; ++i) {
        const Addr base = r.u32();
        const std::uint32_t len = r.u32();
        if (len > MainMemory::kPageBytes)
            fail("implausible page size");
        bytes.resize(len);
        r.bytes(bytes.data(), len);
        mem.loadBytes(base, bytes);
    }
}

} // namespace

std::uint64_t
MultithreadedProcessor::checkpointFingerprint() const
{
    Fnv1a h;
    auto add = [&h](std::uint64_t v) {
        for (int i = 0; i < 8; ++i) {
            const unsigned char byte =
                static_cast<unsigned char>(v >> (8 * i));
            h.add(&byte, 1);
        }
    };
    h.add("smtsim-ckpt-fp-v1");

    // Program image: a checkpoint is only meaningful against the
    // exact text/data it was taken from.
    add(prog_.text_base);
    add(prog_.text.size());
    for (std::uint32_t word : prog_.text)
        add(word);
    add(prog_.data_base);
    add(prog_.data.size());
    if (!prog_.data.empty())
        h.add(prog_.data.data(), prog_.data.size());
    add(prog_.entry);

    // Every configuration field that shapes the machine state or
    // its timing (max_cycles and fast_forward are excluded: both
    // are bit-identical knobs of the same trajectory).
    add(static_cast<std::uint64_t>(cfg_.num_slots));
    add(static_cast<std::uint64_t>(cfg_.frames()));
    add(static_cast<std::uint64_t>(cfg_.width));
    add(static_cast<std::uint64_t>(cfg_.fus.int_alu));
    add(static_cast<std::uint64_t>(cfg_.fus.shifter));
    add(static_cast<std::uint64_t>(cfg_.fus.int_mul));
    add(static_cast<std::uint64_t>(cfg_.fus.fp_add));
    add(static_cast<std::uint64_t>(cfg_.fus.fp_mul));
    add(static_cast<std::uint64_t>(cfg_.fus.fp_div));
    add(static_cast<std::uint64_t>(cfg_.fus.load_store));
    add(cfg_.standby_enabled ? 1 : 0);
    add(static_cast<std::uint64_t>(cfg_.rotation_mode));
    add(static_cast<std::uint64_t>(cfg_.rotation_interval));
    add(cfg_.private_icache ? 1 : 0);
    add(static_cast<std::uint64_t>(cfg_.icache_cycles));
    add(static_cast<std::uint64_t>(cfg_.iqueueWords()));
    add(static_cast<std::uint64_t>(cfg_.queue_reg_depth));
    add(static_cast<std::uint64_t>(cfg_.branch_gap));
    add(static_cast<std::uint64_t>(cfg_.context_switch_cycles));
    add(cfg_.remote.base);
    add(cfg_.remote.size);
    add(cfg_.remote.latency);
    for (const CacheConfig *cc : {&cfg_.dcache, &cfg_.icache}) {
        add(cc->size_bytes);
        add(cc->line_bytes);
        add(static_cast<std::uint64_t>(cc->ways));
        add(cc->miss_penalty);
    }
    return h.digest();
}

void
MultithreadedProcessor::saveCheckpoint(std::ostream &os) const
{
    obs::ByteWriter w(os);
    w.u64(kCheckpointMagic);
    w.u32(kCheckpointVersion);
    w.u64(checkpointFingerprint());
    w.u64(now_);

    // --- contexts ------------------------------------------------
    w.u32(static_cast<std::uint32_t>(contexts_.size()));
    for (const Context &ctx : contexts_) {
        w.u8(static_cast<std::uint8_t>(ctx.state));
        w.u32(ctx.resume_pc);
        for (std::uint32_t reg : ctx.iregs)
            w.u32(reg);
        for (double reg : ctx.fregs)
            w.f64(reg);
        writeOptReg(w, ctx.q_read_int);
        writeOptReg(w, ctx.q_write_int);
        writeOptReg(w, ctx.q_read_fp);
        writeOptReg(w, ctx.q_write_fp);
        w.u32(static_cast<std::uint32_t>(ctx.replay.size()));
        for (const ReplayEntry &e : ctx.replay) {
            writeInsn(w, e.insn);
            w.u32(e.pc);
        }
        w.u64(ctx.ready_at);
        w.b(ctx.satisfied_addr.has_value());
        w.u32(ctx.satisfied_addr.value_or(0));
        w.u64(ctx.insns);
    }

    // --- thread slots --------------------------------------------
    w.u32(static_cast<std::uint32_t>(slots_.size()));
    for (const Slot &slot : slots_) {
        w.i32(slot.frame);
        w.b(slot.trap_pending);
        // The queue is a contiguous run; the format keeps the
        // explicit address list.
        w.u32(static_cast<std::uint32_t>(slot.iq_count));
        for (int i = 0; i < slot.iq_count; ++i)
            w.u32(slot.iq_head + static_cast<Addr>(i) * kInsnBytes);
        w.u32(slot.fetch_addr);
        w.b(slot.fetch_inflight);
        w.u32(static_cast<std::uint32_t>(slot.window.size()));
        for (const WindowEntry &e : slot.window) {
            writeInsn(w, e.insn);
            w.u32(e.pc);
            w.b(e.replay);
        }
        w.u64(slot.d2_allowed);
        for (Cycle c : slot.isb)
            w.u64(c);
        for (Cycle c : slot.fsb)
            w.u64(c);
        w.i32(slot.ungranted_total);
        for (int v : slot.ungranted_class)
            w.i32(v);
        w.i32(slot.ungranted_mem);
        w.i32(slot.queue_push_pending);
        for (const Slot::WbBin &bin : slot.wb_ring) {
            w.u64(bin.at);
            w.i32(bin.count);
        }
    }

    // --- fetch engine --------------------------------------------
    w.u32(static_cast<std::uint32_t>(ports_.size()));
    for (const FetchPort &port : ports_) {
        w.u64(port.free_at);
        w.u32(static_cast<std::uint32_t>(port.inflight.size()));
        for (const FetchOp &op : port.inflight) {
            w.i32(op.slot);
            w.u32(op.addr);
            w.i32(op.words);
            w.u64(op.done_at);
        }
        w.i32(port.rr_next);
    }

    // --- schedule units + queue ring -----------------------------
    w.u32(static_cast<std::uint32_t>(sched_units_.size()));
    for (const ScheduleUnit &su : sched_units_)
        su.serialize(w);
    ring_regs_.serialize(w);
    w.u32(static_cast<std::uint32_t>(pending_pushes_.size()));
    for (const PendingPush &push : pending_pushes_) {
        w.u64(push.at);
        w.i32(push.slot);
        w.u64(push.value);
    }

    // --- priority ring + run-loop scalars ------------------------
    w.u32(static_cast<std::uint32_t>(ring_.size()));
    for (int s : ring_)
        w.i32(s);
    w.b(rotate_requested_);
    // SETRMODE mutates the rotation mode/interval at runtime, so
    // the live values are state, not configuration.
    w.u8(static_cast<std::uint8_t>(rotation_mode_));
    w.i32(rotation_interval_);
    w.u64(last_activity_);
    w.u64(now_);
    w.b(finished_);
    w.u32(static_cast<std::uint32_t>(ready_fifo_.size()));
    for (int frame : ready_fifo_)
        w.i32(frame);

    // --- statistics ----------------------------------------------
    writeRunStats(w, stats_);
    w.u32(static_cast<std::uint32_t>(detail_.all().size()));
    for (const auto &[name, value] : detail_.all()) {
        w.str(name);
        w.u64(value);
    }

    // --- caches + memory -----------------------------------------
    writeCache(w, dcache_);
    writeCache(w, icache_);
    writeMemory(w, mem_);

    os.flush();
    if (!w.ok())
        fail("write failed");
}

void
MultithreadedProcessor::restoreCheckpoint(std::istream &is)
{
    obs::ByteReader r(is);
    obs::expectU64(r, kCheckpointMagic, "checkpoint magic");
    obs::expectU32(r, kCheckpointVersion, "checkpoint version");
    obs::expectU64(r, checkpointFingerprint(),
                   "checkpoint fingerprint (program/config "
                   "mismatch)");
    r.u64();    // header copy of now_ (peekable without parsing)

    // --- contexts ------------------------------------------------
    const std::uint32_t nctx = r.u32();
    if (nctx != contexts_.size())
        fail("context-frame count mismatch");
    for (Context &ctx : contexts_) {
        const std::uint8_t state = r.u8();
        if (state > static_cast<std::uint8_t>(CtxState::Finished))
            fail("bad context state");
        ctx.state = static_cast<CtxState>(state);
        ctx.resume_pc = r.u32();
        for (std::uint32_t &reg : ctx.iregs)
            reg = r.u32();
        for (double &reg : ctx.fregs)
            reg = r.f64();
        ctx.q_read_int = readOptReg(r);
        ctx.q_write_int = readOptReg(r);
        ctx.q_read_fp = readOptReg(r);
        ctx.q_write_fp = readOptReg(r);
        ctx.replay.clear();
        const std::uint32_t nreplay = r.u32();
        for (std::uint32_t i = 0; i < nreplay; ++i) {
            ReplayEntry e;
            e.insn = readInsn(r);
            e.pc = r.u32();
            ctx.replay.push_back(e);
        }
        ctx.ready_at = r.u64();
        const bool has_sat = r.b();
        const Addr sat = r.u32();
        ctx.satisfied_addr =
            has_sat ? std::optional<Addr>(sat) : std::nullopt;
        ctx.insns = r.u64();
    }

    // --- thread slots --------------------------------------------
    const std::uint32_t nslots = r.u32();
    if (nslots != slots_.size())
        fail("thread-slot count mismatch");
    const int frames = static_cast<int>(contexts_.size());
    for (Slot &slot : slots_) {
        slot.frame = r.i32();
        if (slot.frame < -1 || slot.frame >= frames)
            fail("bad slot frame");
        slot.trap_pending = r.b();
        const std::uint32_t niq = r.u32();
        if (niq > static_cast<std::uint32_t>(cfg_.iqueueWords()))
            fail("instruction queue over capacity");
        slot.iq_head = 0;
        slot.iq_count = static_cast<int>(niq);
        for (std::uint32_t i = 0; i < niq; ++i) {
            const Addr a = r.u32();
            if (i == 0)
                slot.iq_head = a;
            else if (a != slot.iq_head + i * kInsnBytes)
                fail("instruction queue not contiguous (corrupt)");
        }
        slot.fetch_addr = r.u32();
        slot.fetch_inflight = r.b();
        slot.window.clear();
        const std::uint32_t nwin = r.u32();
        if (nwin > static_cast<std::uint32_t>(cfg_.width))
            fail("decode window over width");
        for (std::uint32_t i = 0; i < nwin; ++i) {
            const Insn insn = readInsn(r);
            const Addr pc = r.u32();
            const bool replay = r.b();
            slot.window.push_back(makeEntry(insn, pc, replay));
        }
        slot.d2_allowed = r.u64();
        for (Cycle &c : slot.isb)
            c = r.u64();
        for (Cycle &c : slot.fsb)
            c = r.u64();
        slot.ungranted_total = r.i32();
        for (int &v : slot.ungranted_class)
            v = r.i32();
        slot.ungranted_mem = r.i32();
        slot.queue_push_pending = r.i32();
        for (Slot::WbBin &bin : slot.wb_ring) {
            bin.at = r.u64();
            bin.count = r.i32();
        }
    }

    // --- fetch engine --------------------------------------------
    const std::uint32_t nports = r.u32();
    if (nports != ports_.size())
        fail("fetch-port count mismatch");
    for (FetchPort &port : ports_) {
        port.free_at = r.u64();
        port.inflight.clear();
        const std::uint32_t nops = r.u32();
        for (std::uint32_t i = 0; i < nops; ++i) {
            FetchOp op;
            op.slot = r.i32();
            if (op.slot < 0 || op.slot >= cfg_.num_slots)
                fail("bad fetch slot");
            op.addr = r.u32();
            op.words = r.i32();
            if (op.words < 0 || op.words > cfg_.fetchBlockWords())
                fail("fetch block size out of range");
            op.done_at = r.u64();
            port.inflight.push_back(op);
        }
        port.rr_next = r.i32();
        if (port.rr_next < 0 || port.rr_next >= cfg_.num_slots)
            fail("bad fetch round-robin pointer");
    }

    // --- schedule units + queue ring -----------------------------
    const std::uint32_t nsched = r.u32();
    if (nsched != sched_units_.size())
        fail("schedule-unit count mismatch");
    for (ScheduleUnit &su : sched_units_)
        su.deserialize(r);
    ring_regs_.deserialize(r);
    pending_pushes_.clear();
    const std::uint32_t npush = r.u32();
    for (std::uint32_t i = 0; i < npush; ++i) {
        PendingPush push;
        push.at = r.u64();
        push.slot = r.i32();
        if (push.slot < 0 || push.slot >= cfg_.num_slots)
            fail("bad pending-push slot");
        push.value = r.u64();
        pending_pushes_.push_back(push);
    }

    // --- priority ring + run-loop scalars ------------------------
    const std::uint32_t nring = r.u32();
    if (nring != ring_.size())
        fail("priority-ring size mismatch");
    std::vector<bool> in_ring(ring_.size(), false);
    for (int &s : ring_) {
        s = r.i32();
        if (s < 0 || s >= cfg_.num_slots || in_ring[s])
            fail("priority ring is not a permutation of the slots");
        in_ring[s] = true;
    }
    rotate_requested_ = r.b();
    const std::uint8_t rmode = r.u8();
    if (rmode > static_cast<std::uint8_t>(RotationMode::Explicit))
        fail("bad rotation mode");
    rotation_mode_ = static_cast<RotationMode>(rmode);
    rotation_interval_ = r.i32();
    last_activity_ = r.u64();
    now_ = r.u64();
    resetRotationClock(now_ + 1);
    finished_ = r.b();
    ready_fifo_.clear();
    const std::uint32_t nready = r.u32();
    for (std::uint32_t i = 0; i < nready; ++i) {
        const int frame = r.i32();
        if (frame < 0 || frame >= frames)
            fail("bad ready-queue frame");
        ready_fifo_.push_back(frame);
    }

    // --- statistics ----------------------------------------------
    readRunStats(r, stats_);
    // Zero existing counters, then apply the saved values through
    // counter(): reset() would invalidate the stall-counter
    // pointers resolved at construction (std::map nodes are stable;
    // the checkpoint may simply lack counters never bumped so far).
    for (const auto &[name, value] : detail_.all()) {
        (void)value;
        detail_.counter(name) = 0;
    }
    const std::uint32_t ndetail = r.u32();
    for (std::uint32_t i = 0; i < ndetail; ++i) {
        const std::string name = r.str();
        const std::uint64_t value = r.u64();
        detail_.counter(name) = value;
    }

    // --- caches + memory -----------------------------------------
    readCache(r, dcache_);
    readCache(r, icache_);
    readMemory(r, mem_);

    validateRestored();

    // An attached event stream must be self-contained from here on.
    snapshot_pending_ = sink_ != nullptr;
    grants_scratch_.clear();
}

void
MultithreadedProcessor::validateRestored() const
{
    // What the schedule units hold for each slot.
    struct Held
    {
        std::array<int, kNumFuClasses> per_class{};
        int total = 0;
        int mem = 0;
        int queue_writes = 0;
    };
    std::vector<Held> held(slots_.size());
    for (const ScheduleUnit &su : sched_units_) {
        const int cls = static_cast<int>(su.fuClass());
        su.forEachHeld([&](const IssuedOp &op) {
            Held &h = held[op.slot];
            if (++h.per_class[cls] > 1)
                fail("standby station and incoming ops of one slot "
                     "overlap (corrupt)");
            ++h.total;
            h.mem += op.insn.isMem() ? 1 : 0;
            h.queue_writes += op.queue_write ? 1 : 0;
        });
    }
    std::vector<int> pushes(slots_.size(), 0);
    for (const PendingPush &push : pending_pushes_)
        ++pushes[push.slot];

    for (std::size_t s = 0; s < slots_.size(); ++s) {
        const Slot &slot = slots_[s];
        const Held &h = held[s];
        if (slot.ungranted_class != h.per_class ||
            slot.ungranted_total != h.total ||
            slot.ungranted_mem != h.mem) {
            fail("ungranted counts differ from the schedule units "
                 "(corrupt)");
        }

        // The fetch stream: queued run, then at most one block in
        // flight, then the next fetch address.
        const int sid = static_cast<int>(s);
        const FetchOp *block = nullptr;
        for (std::size_t p = 0; p < ports_.size(); ++p) {
            for (const FetchOp &op : ports_[p].inflight) {
                if (op.slot != sid)
                    continue;
                if (block != nullptr ||
                    p != (cfg_.private_icache ? s : 0))
                    fail("fetch in flight twice or on a foreign "
                         "port (corrupt)");
                block = &op;
            }
        }
        const Addr iq_end =
            slot.iq_head + static_cast<Addr>(slot.iq_count) * kInsnBytes;
        const bool stream_ok =
            block != nullptr
                ? slot.fetch_inflight &&
                      (slot.iq_count == 0 || block->addr == iq_end) &&
                      slot.fetch_addr ==
                          block->addr +
                              static_cast<Addr>(block->words) *
                                  kInsnBytes
                : !slot.fetch_inflight &&
                      (slot.iq_count == 0 || slot.fetch_addr == iq_end);
        if (!stream_ok)
            fail("fetch in flight not contiguous with its "
                 "instruction queue (corrupt)");

        // One reservation per deposit still to come. The slot's
        // queue_push_pending is not compared: a switched-out
        // context's deposit can land after bindContext() zeroed the
        // counter for the next context, which a real run saves.
        const int owed = pushes[s] + h.queue_writes;
        if (ring_regs_.reservedOn(sid) != owed ||
            ring_regs_.sizeOf(sid) + owed > ring_regs_.depth())
            fail("queue-link reservations differ from pending "
                 "pushes (corrupt)");
    }
}

} // namespace smtsim
