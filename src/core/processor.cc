#include "processor.hh"

#include <algorithm>
#include <bit>

#include "base/logging.hh"
#include "isa/semantics.hh"
#include "obs/sinks.hh"

namespace smtsim
{

namespace
{

inline bool
inMask(std::uint32_t mask, RegIndex idx)
{
    return (mask >> idx) & 1u;
}

inline void
addMask(std::uint32_t &mask, RegIndex idx)
{
    mask |= 1u << idx;
}

} // namespace

MultithreadedProcessor::MultithreadedProcessor(const Program &prog,
                                               MainMemory &mem,
                                               const CoreConfig &cfg)
    : prog_(prog), mem_(mem), cfg_(cfg), text_(prog),
      ring_regs_(cfg.num_slots, cfg.queue_reg_depth),
      rotation_mode_(cfg.rotation_mode),
      rotation_interval_(cfg.rotation_interval)
{
    stall_branch_operands_ =
        &detail_.counter("stall.branch_operands");
    stall_priority_ = &detail_.counter("stall.priority");
    stall_waw_ = &detail_.counter("stall.waw");
    stall_standby_ = &detail_.counter("stall.standby");
    stall_no_standby_ = &detail_.counter("stall.no_standby");
    stall_memorder_ = &detail_.counter("stall.memorder");
    stall_operands_ = &detail_.counter("stall.operands");
    stall_queue_full_ = &detail_.counter("stall.queue_full");

    SMTSIM_ASSERT(cfg_.num_slots >= 1, "need at least one slot");
    SMTSIM_ASSERT(cfg_.frames() >= cfg_.num_slots,
                  "need at least one frame per slot");
    SMTSIM_ASSERT(cfg_.width >= 1, "width must be positive");

    records_.reserve(text_.size());
    for (std::size_t i = 0; i < text_.size(); ++i) {
        const Addr a =
            prog_.text_base + static_cast<Addr>(i) * kInsnBytes;
        records_.push_back(makeEntry(text_.at(a), a, false));
    }

    contexts_.resize(cfg_.frames());
    slots_.resize(cfg_.num_slots);
    for (int s = 0; s < cfg_.num_slots; ++s)
        ring_.push_back(s);
    resetRotationClock(now_ + 1);

    for (int cls = 0; cls < kNumFuClasses; ++cls) {
        const FuClass fc = static_cast<FuClass>(cls);
        if (fc == FuClass::None)
            continue;
        sched_units_.emplace_back(fc, cfg_.fus.count(fc),
                                  cfg_.num_slots);
        stats_.unit_busy[cls].assign(cfg_.fus.count(fc), 0);
    }

    ports_.resize(cfg_.private_icache ? cfg_.num_slots : 1);

    if (cfg_.dcache.enabled())
        dcache_.emplace(cfg_.dcache);
    if (cfg_.icache.enabled())
        icache_.emplace(cfg_.icache);

    // The entry thread occupies context frame 0 and thread slot 0.
    contexts_[0].state = CtxState::Ready;
    contexts_[0].resume_pc = prog_.entry;
    bindContext(0, 0, 0);
}

MultithreadedProcessor::WindowEntry
MultithreadedProcessor::makeEntry(const Insn &insn, Addr pc,
                                  bool replay)
{
    WindowEntry e;
    e.insn = insn;
    e.pc = pc;
    e.replay = replay;
    e.control = insn.isBranch() || insn.isThreadCtl();
    e.mem = insn.isMem();
    e.fu = insn.fu();
    e.nsrcs = static_cast<std::uint8_t>(insn.srcs(e.srcs));
    e.dst = insn.dst();
    return e;
}

void
MultithreadedProcessor::setRemoteModel(RemoteTimingModel *model)
{
    SMTSIM_ASSERT(now_ == 0,
                  "remote model must be attached before the first "
                  "cycle");
    remote_model_ = model;
}

void
MultithreadedProcessor::completeRemote(int frame, Cycle ready_at)
{
    SMTSIM_ASSERT(remote_model_ != nullptr,
                  "completeRemote without an attached remote model");
    SMTSIM_ASSERT(frame >= 0 && frame < cfg_.frames(),
                  "completeRemote: bad frame");
    Context &ctx = contexts_[static_cast<std::size_t>(frame)];
    SMTSIM_ASSERT(ctx.state == CtxState::WaitRemote,
                  "completeRemote: frame is not waiting on a remote "
                  "access");
    SMTSIM_ASSERT(ctx.ready_at == kNeverCycle,
                  "completeRemote: frame's access already resolved");
    SMTSIM_ASSERT(ready_at > now_,
                  "completeRemote: completion not in the future");
    ctx.ready_at = ready_at;
    last_activity_ = std::max(last_activity_, ready_at);
}

int
MultithreadedProcessor::spawnContext(
    Addr entry, const std::array<std::uint32_t, kNumRegs> &iregs,
    const std::array<double, kNumRegs> &fregs)
{
    for (int f = 0; f < cfg_.frames(); ++f) {
        if (contexts_[f].state == CtxState::Unused) {
            contexts_[f].state = CtxState::Ready;
            contexts_[f].resume_pc = entry;
            contexts_[f].iregs = iregs;
            contexts_[f].fregs = fregs;
            ready_fifo_.push_back(f);
            return f;
        }
    }
    fatal("spawnContext: no free context frame");
}

std::uint32_t
MultithreadedProcessor::intReg(int frame, RegIndex idx) const
{
    return contexts_.at(frame).iregs[idx];
}

double
MultithreadedProcessor::fpReg(int frame, RegIndex idx) const
{
    return contexts_.at(frame).fregs[idx];
}

MultithreadedProcessor::Context &
MultithreadedProcessor::ctxOf(int slot_id)
{
    const int frame = slots_[slot_id].frame;
    SMTSIM_ASSERT(frame >= 0, "slot has no bound context");
    return contexts_[frame];
}

const MultithreadedProcessor::Context &
MultithreadedProcessor::ctxOf(int slot_id) const
{
    const int frame = slots_[slot_id].frame;
    SMTSIM_ASSERT(frame >= 0, "slot has no bound context");
    return contexts_[frame];
}

// ---------------------------------------------------------------
// Priority handling
// ---------------------------------------------------------------

bool
MultithreadedProcessor::slotActive(int slot_id) const
{
    const Slot &slot = slots_[slot_id];
    return slot.frame >= 0 && !slot.trap_pending &&
           contexts_[slot.frame].state == CtxState::Running;
}

bool
MultithreadedProcessor::hasTopPriority(int slot_id) const
{
    for (int s : ring_) {
        if (slotActive(s))
            return s == slot_id;
    }
    return false;
}

void
MultithreadedProcessor::rotateRing()
{
    if (ring_.size() > 1) {
        ring_.push_back(ring_.front());
        ring_.erase(ring_.begin());
    }
}

void
MultithreadedProcessor::resetRotationClock(Cycle from)
{
    if (rotation_mode_ != RotationMode::Implicit ||
        rotation_interval_ <= 0) {
        next_rotation_ = kNeverCycle;
        return;
    }
    const Cycle ival = static_cast<Cycle>(rotation_interval_);
    next_rotation_ = (from + ival - 1) / ival * ival;
}

// ---------------------------------------------------------------
// Scoreboard
// ---------------------------------------------------------------

Cycle &
MultithreadedProcessor::sbOf(Slot &slot, RegRef ref)
{
    // thread_local: simulations run concurrently under smtsim::lab.
    thread_local Cycle dummy;
    if (ref.file == RF::Fp)
        return slot.fsb[ref.idx];
    if (ref.idx == 0) {
        dummy = 0;
        return dummy;
    }
    return slot.isb[ref.idx];
}

Cycle
MultithreadedProcessor::sbOf(const Slot &slot, RegRef ref) const
{
    if (ref.file == RF::Fp)
        return slot.fsb[ref.idx];
    return ref.idx == 0 ? 0 : slot.isb[ref.idx];
}

bool
MultithreadedProcessor::operandsReady(int slot_id,
                                      const Context &ctx,
                                      const WindowEntry &entry,
                                      Cycle c, std::uint32_t pw_int,
                                      std::uint32_t pw_fp) const
{
    const Slot &slot = slots_[slot_id];
    int pops = 0;
    for (int i = 0; i < entry.nsrcs; ++i) {
        const RegRef &src = entry.srcs[i];
        const bool mapped =
            (src.file == RF::Int && ctx.q_read_int &&
             *ctx.q_read_int == src.idx) ||
            (src.file == RF::Fp && ctx.q_read_fp &&
             *ctx.q_read_fp == src.idx);
        if (mapped) {
            ++pops;
            continue;
        }
        if (sbOf(slot, src) > c)
            return false;
        if (inMask(src.file == RF::Fp ? pw_fp : pw_int, src.idx))
            return false;
    }
    // The slot that issued this instruction is the consumer side of
    // its incoming queue link.
    return pops == 0 || ring_regs_.canPop(slot_id, pops);
}

int
MultithreadedProcessor::queuePopCount(const Context &ctx,
                                      const WindowEntry &entry) const
{
    int pops = 0;
    for (int i = 0; i < entry.nsrcs; ++i) {
        const RegRef &src = entry.srcs[i];
        if ((src.file == RF::Int && ctx.q_read_int &&
             *ctx.q_read_int == src.idx) ||
            (src.file == RF::Fp && ctx.q_read_fp &&
             *ctx.q_read_fp == src.idx)) {
            ++pops;
        }
    }
    return pops;
}

OperandValues
MultithreadedProcessor::readOperands(int slot_id, const Insn &insn)
{
    Context &ctx = ctxOf(slot_id);
    auto q_pop = [&]() -> std::uint64_t {
        const std::uint64_t v = ring_regs_.pop(slot_id);
        if (sink_) {
            obs::Event ev;
            ev.cycle = now_;
            ev.kind = obs::EventKind::QueuePop;
            ev.slot = static_cast<std::int8_t>(slot_id);
            ev.a = v;
            sink_->event(ev);
        }
        return v;
    };
    auto rd_int = [&](RegIndex r) -> std::uint32_t {
        if (ctx.q_read_int && *ctx.q_read_int == r && r != 0)
            return static_cast<std::uint32_t>(q_pop());
        return r == 0 ? 0 : ctx.iregs[r];
    };
    auto rd_fp = [&](RegIndex r) -> double {
        if (ctx.q_read_fp && *ctx.q_read_fp == r)
            return std::bit_cast<double>(q_pop());
        return ctx.fregs[r];
    };

    OperandValues ops;
    switch (opMeta(insn.op).format) {
      case Format::R3:
        ops.rs_i = rd_int(insn.rs);
        ops.rt_i = rd_int(insn.rt);
        break;
      case Format::R2:
      case Format::SHI:
      case Format::I:
        ops.rs_i = rd_int(insn.rs);
        break;
      case Format::LUIF:
        break;
      case Format::FR3:
      case Format::FCMP:
        ops.rs_f = rd_fp(insn.rs);
        ops.rt_f = rd_fp(insn.rt);
        break;
      case Format::FR2:
      case Format::FTOIF:
        ops.rs_f = rd_fp(insn.rs);
        break;
      case Format::ITOFF:
        ops.rs_i = rd_int(insn.rs);
        break;
      case Format::MEM:
        ops.rs_i = rd_int(insn.rs);
        if (isStoreOp(insn.op)) {
            if (isFpFormatOp(insn.op))
                ops.rt_f = rd_fp(insn.rt);
            else
                ops.rt_i = rd_int(insn.rt);
        }
        break;
      case Format::BR2:
        ops.rs_i = rd_int(insn.rs);
        ops.rt_i = rd_int(insn.rt);
        break;
      case Format::BR1:
      case Format::JRF:
      case Format::JALRF:
        ops.rs_i = rd_int(insn.rs);
        break;
      default:
        break;
    }
    return ops;
}

// ---------------------------------------------------------------
// Fetch engine
// ---------------------------------------------------------------

MultithreadedProcessor::FetchPort &
MultithreadedProcessor::portOf(int slot_id)
{
    return ports_[cfg_.private_icache ? slot_id : 0];
}

Cycle
MultithreadedProcessor::icacheDelay(Addr addr, int words)
{
    if (!icache_ || words <= 0)
        return 0;
    Cycle delay = 0;
    const Addr line = cfg_.icache.line_bytes;
    const Addr first = addr & ~(line - 1);
    const Addr last =
        (addr + static_cast<Addr>(words) * kInsnBytes - 1) &
        ~(line - 1);
    for (Addr a = first; a <= last; a += line) {
        if (icache_->access(a)) {
            ++stats_.icache_hits;
        } else {
            ++stats_.icache_misses;
            delay += cfg_.icache.miss_penalty;
        }
    }
    return delay;
}

void
MultithreadedProcessor::cancelFetches(int slot_id)
{
    FetchPort &port = portOf(slot_id);
    bool removed = false;
    for (auto it = port.inflight.begin();
         it != port.inflight.end();) {
        if (it->slot == slot_id) {
            it = port.inflight.erase(it);
            removed = true;
        } else {
            ++it;
        }
    }
    slots_[slot_id].fetch_inflight = false;
    if (removed) {
        Cycle free_at = 0;
        for (const FetchOp &op : port.inflight)
            free_at = std::max(free_at, op.done_at);
        port.free_at = free_at;
    }
}

Cycle
MultithreadedProcessor::scheduleRedirect(int slot_id, Addr target,
                                         Cycle earliest)
{
    cancelFetches(slot_id);
    FetchPort &port = portOf(slot_id);
    const Cycle s = std::max(earliest, port.free_at);
    const Cycle cache = static_cast<Cycle>(cfg_.icache_cycles);

    FetchOp op;
    op.slot = slot_id;
    op.addr = target;
    const Addr end = prog_.textEnd();
    const int avail =
        target < end ? static_cast<int>((end - target) / kInsnBytes)
                     : 0;
    op.words = std::min(cfg_.fetchBlockWords(), avail);
    const Cycle miss_delay = icacheDelay(target, op.words);
    op.done_at = s + cache + miss_delay;
    port.inflight.push_back(op);
    slots_[slot_id].fetch_inflight = true;
    port.free_at = s + cache + miss_delay;
    // Subsequent sequential refills continue past this block.
    slots_[slot_id].fetch_addr =
        target + static_cast<Addr>(op.words) * kInsnBytes;
    return s;
}

void
MultithreadedProcessor::fetchPhase(Cycle c)
{
    const Addr end = prog_.textEnd();
    for (size_t pi = 0; pi < ports_.size(); ++pi) {
        FetchPort &port = ports_[pi];

        // Deliveries. A block starts no earlier than the port frees
        // up, so completion times rise along inflight and the due
        // blocks are a prefix.
        auto it = port.inflight.begin();
        for (; it != port.inflight.end() && it->done_at <= c; ++it) {
            Slot &slot = slots_[it->slot];
            if (slot.frame >= 0 && !slot.trap_pending) {
                const int n = std::min(
                    cfg_.iqueueWords() - slot.iq_count, it->words);
                if (n > 0) {
                    // Fetch blocks never extend past the text end,
                    // and each one starts where the queued run ends.
                    if (slot.iq_count == 0)
                        slot.iq_head = it->addr;
                    SMTSIM_ASSERT(
                        slot.iq_head +
                                static_cast<Addr>(slot.iq_count) *
                                    kInsnBytes ==
                            it->addr,
                        "fetch delivery not contiguous with the "
                        "instruction queue");
                    slot.iq_count += n;
                }
                if (sink_ && n > 0) {
                    obs::Event ev;
                    ev.cycle = c;
                    ev.kind = obs::EventKind::Fetch;
                    ev.slot = static_cast<std::int8_t>(it->slot);
                    ev.pc = it->addr;
                    ev.a = static_cast<std::uint64_t>(n);
                    sink_->event(ev);
                }
                // Words that did not fit are refetched: the stream
                // position rewinds to the first undelivered word
                // (a redirect block included: a queue smaller than
                // a fetch block must not drop its tail).
                if (n < it->words) {
                    slot.fetch_addr =
                        it->addr + static_cast<Addr>(n) * kInsnBytes;
                }
            }
            slots_[it->slot].fetch_inflight = false;
        }
        port.inflight.erase(port.inflight.begin(), it);

        // Start a new fetch if the port is idle.
        if (port.free_at > c)
            continue;
        // Round-robin from rr_next. A shared fetch unit serves
        // every slot; a private one only its own.
        const int num_slots = cfg_.num_slots;
        int s = port.rr_next;
        for (int k = 0; k < num_slots;
             ++k, s = s + 1 == num_slots ? 0 : s + 1) {
            if (cfg_.private_icache && s != static_cast<int>(pi))
                continue;
            Slot &slot = slots_[s];
            if (slot.frame < 0 || slot.trap_pending ||
                slot.fetch_inflight) {
                continue;
            }
            if (slot.iq_count >= cfg_.iqueueWords() ||
                slot.fetch_addr >= end)
                continue;

            FetchOp op;
            op.slot = s;
            op.addr = slot.fetch_addr;
            op.words = std::min(
                cfg_.fetchBlockWords(),
                static_cast<int>((end - slot.fetch_addr) /
                                 kInsnBytes));
            op.done_at = c +
                         static_cast<Cycle>(cfg_.icache_cycles) +
                         icacheDelay(op.addr, op.words);
            slot.fetch_addr +=
                static_cast<Addr>(op.words) * kInsnBytes;
            port.inflight.push_back(op);
            slot.fetch_inflight = true;
            port.free_at = op.done_at;
            port.rr_next = s + 1 == num_slots ? 0 : s + 1;
            break;
        }
    }
}

// ---------------------------------------------------------------
// Thread management
// ---------------------------------------------------------------

void
MultithreadedProcessor::flushFrontEnd(int slot_id)
{
    Slot &slot = slots_[slot_id];
    slot.iq_count = 0;
    slot.window.clear();
    cancelFetches(slot_id);
}

void
MultithreadedProcessor::bindContext(int frame, int slot_id, Cycle c)
{
    Slot &slot = slots_[slot_id];
    SMTSIM_ASSERT(slot.frame < 0, "binding to an occupied slot");
    Context &ctx = contexts_[frame];

    slot.frame = frame;
    slot.trap_pending = false;
    slot.iq_count = 0;
    slot.window.clear();
    slot.isb.fill(0);
    slot.fsb.fill(0);
    slot.ungranted_total = 0;
    slot.ungranted_class.fill(0);
    slot.ungranted_mem = 0;
    slot.queue_push_pending = 0;
    slot.wb_ring.fill({});

    ctx.state = CtxState::Running;

    // Access-requirement-buffer entries are re-decoded first.
    for (const ReplayEntry &e : ctx.replay)
        slot.window.push_back(makeEntry(e.insn, e.pc, true));
    ctx.replay.clear();

    if (sink_) {
        obs::Event ev;
        ev.cycle = c;
        ev.kind = obs::EventKind::SlotBind;
        ev.slot = static_cast<std::int8_t>(slot_id);
        ev.unit = static_cast<std::int16_t>(frame);
        ev.pc = ctx.resume_pc;
        sink_->event(ev);
    }
    slot.fetch_addr = ctx.resume_pc;
    const Cycle s = scheduleRedirect(slot_id, ctx.resume_pc, c + 1);
    slot.d2_allowed =
        std::max(s + static_cast<Cycle>(cfg_.branch_gap),
                 c + 1 + static_cast<Cycle>(
                             cfg_.context_switch_cycles));
}

void
MultithreadedProcessor::unbindSlot(int slot_id)
{
    Slot &slot = slots_[slot_id];
    if (sink_) {
        obs::Event ev;
        ev.cycle = now_;
        ev.kind = obs::EventKind::SlotUnbind;
        ev.slot = static_cast<std::int8_t>(slot_id);
        ev.unit = static_cast<std::int16_t>(slot.frame);
        sink_->event(ev);
    }
    flushFrontEnd(slot_id);
    slot.frame = -1;
    slot.trap_pending = false;
}

Addr
MultithreadedProcessor::nextUnissuedPc(int slot_id) const
{
    const Slot &slot = slots_[slot_id];
    if (!slot.window.empty())
        return slot.window.front().pc;
    if (slot.iq_count > 0)
        return slot.iq_head;
    // fetch_addr has already advanced past any in-flight fetch
    // block; resuming there would skip the block's instructions
    // once the switch-out cancels the fetch.
    if (slot.fetch_inflight) {
        const FetchPort &port =
            ports_[cfg_.private_icache ? slot_id : 0];
        for (const FetchOp &op : port.inflight) {
            if (op.slot == slot_id)
                return op.addr;
        }
    }
    return slot.fetch_addr;
}

void
MultithreadedProcessor::killOtherThreads(int killer_slot, Cycle c)
{
    (void)c;
    const int killer_frame = slots_[killer_slot].frame;
    for (int f = 0; f < cfg_.frames(); ++f) {
        Context &ctx = contexts_[f];
        if (f == killer_frame || ctx.state == CtxState::Unused ||
            ctx.state == CtxState::Finished) {
            continue;
        }
        ctx.state = CtxState::Finished;
    }
    for (int s = 0; s < cfg_.num_slots; ++s) {
        if (s == killer_slot || slots_[s].frame < 0)
            continue;
        for (ScheduleUnit &su : sched_units_)
            su.flushSlot(s);
        Slot &slot = slots_[s];
        slot.ungranted_total = 0;
        slot.ungranted_class.fill(0);
        slot.ungranted_mem = 0;
        slot.queue_push_pending = 0;
        unbindSlot(s);
    }
    // Kill-threads resets the queue-register network.
    ring_regs_.clear();
    pending_pushes_.clear();
    slots_[killer_slot].queue_push_pending = 0;
    ready_fifo_.clear();
    if (sink_) {
        for (int l = 0; l < ring_regs_.numLinks(); ++l) {
            obs::Event ev;
            ev.cycle = now_;
            ev.kind = obs::EventKind::QueueState;
            ev.slot = static_cast<std::int8_t>(l);
            ev.a = 0;
            sink_->event(ev);
        }
    }
}

// ---------------------------------------------------------------
// Grant-time execution
// ---------------------------------------------------------------

void
MultithreadedProcessor::writeResult(int slot_id, const IssuedOp &op,
                                    bool is_fp, std::uint32_t ival,
                                    double fval, Cycle clear_at)
{
    Slot &slot = slots_[slot_id];
    Context &ctx = ctxOf(slot_id);

    const RegRef dst = op.insn.dst();
    if (op.queue_write) {
        PendingPush push;
        push.at = clear_at;
        push.slot = slot_id;
        push.value = is_fp ? std::bit_cast<std::uint64_t>(fval)
                           : std::uint64_t{ival};
        pending_pushes_.push_back(push);
    } else if (dst.file == RF::Int && dst.idx == 0) {
        // Writes to r0 vanish; no write port needed.
    } else {
        SMTSIM_ASSERT(dst.valid(), "writeResult without destination");
        if (dst.file == RF::Fp)
            ctx.fregs[dst.idx] = fval;
        else if (dst.idx != 0)
            ctx.iregs[dst.idx] = ival;
        sbOf(slot, dst) = clear_at;

        // Each register bank has one write port; two results
        // retiring in the same cycle for one slot is a structural
        // conflict (reported as a statistic; the paper leaves its
        // resolution open).
        Slot::WbBin &bin =
            slot.wb_ring[clear_at % slot.wb_ring.size()];
        if (bin.at == clear_at) {
            if (++bin.count > 1)
                ++stats_.writeback_conflicts;
        } else {
            bin.at = clear_at;
            bin.count = 1;
        }
    }
    last_activity_ = std::max(last_activity_, clear_at);
}

void
MultithreadedProcessor::takeRemoteTrap(const IssuedOp &op, Cycle c,
                                       Addr addr)
{
    Slot &slot = slots_[op.slot];
    Context &ctx = ctxOf(op.slot);
    SMTSIM_ASSERT(!op.queue_write,
                  "remote access with queue-register destination");

    ++stats_.context_switches;
    if (sink_) {
        obs::Event ev;
        ev.cycle = c;
        ev.kind = obs::EventKind::Trap;
        ev.slot = static_cast<std::int8_t>(op.slot);
        ev.pc = addr;
        ev.insn = encode(op.insn);
        ev.a = remote_model_ ? 0 : cfg_.remote.latency;
        sink_->event(ev);
    }
    ctx.state = CtxState::WaitRemote;
    if (remote_model_) {
        // Completion depends on machine-wide interconnect state the
        // core cannot see; park the context unwakeably and let the
        // machine resolve it at its next quantum barrier.
        ctx.ready_at = kNeverCycle;
        remote_model_->request(slot.frame, addr, c);
    } else {
        ctx.ready_at = c + cfg_.remote.latency;
    }
    ctx.satisfied_addr = addr;
    ctx.replay.push_back(ReplayEntry{op.insn, op.pc});
    ctx.resume_pc = nextUnissuedPc(op.slot);

    flushFrontEnd(op.slot);
    slot.trap_pending = true;
}

void
MultithreadedProcessor::performGrant(const Grant &grant, Cycle c)
{
    const IssuedOp &op = grant.op;
    Slot &slot = slots_[op.slot];
    const OpMeta &meta = opMeta(op.insn.op);
    const int cls = static_cast<int>(meta.fu);

    --slot.ungranted_total;
    --slot.ungranted_class[cls];
    if (op.insn.isMem())
        --slot.ungranted_mem;

    ++stats_.fu_grants[cls];
    stats_.fu_busy[cls] += meta.issue_latency;
    stats_.unit_busy[cls][grant.unit] += meta.issue_latency;

    if (sink_) {
        obs::Event ev;
        ev.cycle = c;
        ev.kind = obs::EventKind::Grant;
        ev.slot = static_cast<std::int8_t>(op.slot);
        ev.fu = static_cast<std::int8_t>(cls);
        ev.unit = static_cast<std::int16_t>(grant.unit);
        ev.pc = op.pc;
        ev.insn = encode(op.insn);
        sink_->event(ev);
    }

    Context &ctx = ctxOf(op.slot);

    if (op.insn.isMem()) {
        const Addr addr =
            op.ops.rs_i + static_cast<std::uint32_t>(op.insn.imm);
        Cycle result_lat =
            static_cast<Cycle>(meta.result_latency);

        const bool satisfied =
            ctx.satisfied_addr && *ctx.satisfied_addr == addr;
        if (cfg_.remote.contains(addr) && !satisfied) {
            if (rotation_mode_ == RotationMode::Implicit) {
                takeRemoteTrap(op, c, addr);
                return;
            }
            // Explicit-rotation mode suppresses data-absence
            // context switches (section 2.3.1); the thread simply
            // waits out the latency. Under a machine-level model the
            // wait charges the uncontended topology latency — known
            // at grant time, unlike bank contention.
            result_lat = remote_model_
                             ? remote_model_->uncontendedLatency(addr)
                             : cfg_.remote.latency;
        }
        if (satisfied)
            ctx.satisfied_addr.reset();

        // Finite data cache: a miss lengthens the access latency
        // (non-blocking; the unit keeps accepting work).
        if (dcache_) {
            if (dcache_->access(addr)) {
                ++stats_.dcache_hits;
            } else {
                ++stats_.dcache_misses;
                result_lat += cfg_.dcache.miss_penalty;
            }
        }

        switch (op.insn.op) {
          case Op::LW:
            writeResult(op.slot, op, false, mem_.read32(addr), 0.0,
                        c + result_lat);
            ++stats_.loads;
            break;
          case Op::LF:
            writeResult(op.slot, op, true, 0,
                        mem_.readDouble(addr), c + result_lat);
            ++stats_.loads;
            break;
          case Op::SW:
          case Op::PSTW:
            mem_.write32(addr, op.ops.rt_i);
            ++stats_.stores;
            last_activity_ =
                std::max(last_activity_, c + result_lat);
            break;
          case Op::SF:
          case Op::PSTF:
            mem_.writeDouble(addr, op.ops.rt_f);
            ++stats_.stores;
            last_activity_ =
                std::max(last_activity_, c + result_lat);
            break;
          default:
            panic("performGrant: unexpected memory op");
        }
    } else {
        const DataResult r = execDataOp(op.insn, op.ops);
        writeResult(op.slot, op, r.is_fp, r.ival, r.fval,
                    c + static_cast<Cycle>(meta.result_latency));
    }

    ++ctx.insns;
    ++stats_.instructions;
}

void
MultithreadedProcessor::schedulePhase(Cycle c)
{
    // Queue-register deposits land at the producer's write-back.
    for (auto it = pending_pushes_.begin();
         it != pending_pushes_.end();) {
        if (it->at <= c) {
            ring_regs_.push(it->slot, it->value);
            --slots_[it->slot].queue_push_pending;
            if (sink_) {
                obs::Event ev;
                ev.cycle = c;
                ev.kind = obs::EventKind::QueuePush;
                ev.slot = static_cast<std::int8_t>(it->slot);
                ev.a = it->value;
                sink_->event(ev);
            }
            it = pending_pushes_.erase(it);
        } else {
            ++it;
        }
    }

    for (ScheduleUnit &su : sched_units_) {
        if (su.idle())
            continue;
        su.select(c, ring_, grants_scratch_);
        for (const Grant &grant : grants_scratch_)
            performGrant(grant, c);
    }
}

// ---------------------------------------------------------------
// Context phase (concurrent multithreading)
// ---------------------------------------------------------------

void
MultithreadedProcessor::contextPhase(Cycle c)
{
    // Remote accesses that completed make their contexts ready.
    // Only a remote region can park a context.
    if (cfg_.remote.size > 0) {
        for (int f = 0; f < cfg_.frames(); ++f) {
            Context &ctx = contexts_[f];
            if (ctx.state == CtxState::WaitRemote &&
                ctx.ready_at <= c) {
                ctx.state = CtxState::Ready;
                ready_fifo_.push_back(f);
            }
        }
    }

    // Switch-outs complete once every granted-op drain finishes.
    for (int s = 0; s < cfg_.num_slots; ++s) {
        Slot &slot = slots_[s];
        if (slot.frame >= 0 && slot.trap_pending &&
            slot.ungranted_total == 0) {
            unbindSlot(s);
        }
    }

    // Bind ready contexts to free slots, FIFO.
    if (ready_fifo_.empty())
        return;
    for (int s = 0; s < cfg_.num_slots; ++s) {
        if (slots_[s].frame >= 0)
            continue;
        // Skip stale fifo entries (e.g. killed while queued).
        while (!ready_fifo_.empty() &&
               contexts_[ready_fifo_.front()].state !=
                   CtxState::Ready) {
            ready_fifo_.erase(ready_fifo_.begin());
        }
        if (ready_fifo_.empty())
            break;
        const int frame = ready_fifo_.front();
        ready_fifo_.erase(ready_fifo_.begin());
        bindContext(frame, s, c);
    }
}

// ---------------------------------------------------------------
// Decode phase
// ---------------------------------------------------------------

MultithreadedProcessor::ControlOutcome
MultithreadedProcessor::handleControl(int slot_id,
                                      const WindowEntry &entry,
                                      Cycle c)
{
    Slot &slot = slots_[slot_id];
    Context &ctx = ctxOf(slot_id);
    const Insn &insn = entry.insn;

    if (insn.isBranch()) {
        if (!operandsReady(slot_id, ctx, entry, c, 0, 0)) {
            ++*stall_branch_operands_;
            return ControlOutcome::Blocked;
        }
        // Link-writing jumps respect the write-after-write
        // interlock on their destination.
        if (insn.op == Op::JAL && slot.isb[31] > c)
            return ControlOutcome::Blocked;
        if (insn.op == Op::JALR && insn.rd != 0 &&
            slot.isb[insn.rd] > c) {
            return ControlOutcome::Blocked;
        }
        const OperandValues ops = readOperands(slot_id, insn);
        Addr next = entry.pc + kInsnBytes;
        switch (insn.op) {
          case Op::J:
            next = (entry.pc & 0xf0000000u) |
                   (static_cast<std::uint32_t>(insn.imm) << 2);
            break;
          case Op::JAL:
            ctx.iregs[31] = entry.pc + kInsnBytes;
            slot.isb[31] = c;
            next = (entry.pc & 0xf0000000u) |
                   (static_cast<std::uint32_t>(insn.imm) << 2);
            break;
          case Op::JR:
            next = ops.rs_i;
            break;
          case Op::JALR:
            if (insn.rd != 0) {
                ctx.iregs[insn.rd] = entry.pc + kInsnBytes;
                slot.isb[insn.rd] = c;
            }
            next = ops.rs_i;
            break;
          default:
            if (evalBranch(insn.op, ops.rs_i, ops.rt_i)) {
                next = entry.pc + kInsnBytes +
                       static_cast<Addr>(insn.imm * 4);
            }
            break;
        }
        ++stats_.branches;
        ++stats_.instructions;
        ++ctx.insns;
        if (sink_) {
            obs::Event ev;
            ev.cycle = c;
            ev.kind = obs::EventKind::Issue;
            ev.slot = static_cast<std::int8_t>(slot_id);
            ev.pc = entry.pc;
            ev.insn = encode(insn);
            sink_->event(ev);
        }

        // Untaken conditional branches keep the sequential stream:
        // the fetch request sent at the end of D1 was already
        // fetching fall-through instructions (predict-not-taken).
        // Taken branches flush and redirect, paying the 5-cycle
        // gap of section 2.1.2 (plus fetch-unit contention).
        if (next == entry.pc + kInsnBytes)
            return ControlOutcome::Issued;

        if (sink_) {
            obs::Event ev;
            ev.cycle = c;
            ev.kind = obs::EventKind::Branch;
            ev.slot = static_cast<std::int8_t>(slot_id);
            ev.pc = entry.pc;
            ev.insn = encode(insn);
            ev.a = next;
            sink_->event(ev);
        }
        flushFrontEnd(slot_id);
        slot.fetch_addr = next;
        const Cycle s = scheduleRedirect(slot_id, next, c);
        slot.d2_allowed =
            s + static_cast<Cycle>(cfg_.branch_gap);
        return ControlOutcome::Flushed;
    }

    // Thread-control instruction.
    switch (insn.op) {
      case Op::NOP:
        break;
      case Op::HALT:
        ++stats_.instructions;
        ++ctx.insns;
        if (sink_) {
            obs::Event ev;
            ev.cycle = c;
            ev.kind = obs::EventKind::Issue;
            ev.slot = static_cast<std::int8_t>(slot_id);
            ev.pc = entry.pc;
            ev.insn = encode(insn);
            sink_->event(ev);
            ev.kind = obs::EventKind::Halt;
            sink_->event(ev);
        }
        ctx.state = CtxState::Finished;
        flushFrontEnd(slot_id);
        slot.trap_pending = true;   // drain, then unbind
        return ControlOutcome::Flushed;
      case Op::FASTFORK: {
        for (int j = 0; j < cfg_.num_slots; ++j) {
            if (j == slot_id || slots_[j].frame >= 0)
                continue;
            int frame = -1;
            for (int f = 0; f < cfg_.frames(); ++f) {
                if (contexts_[f].state == CtxState::Unused) {
                    frame = f;
                    break;
                }
            }
            if (frame < 0)
                break;
            contexts_[frame].iregs = ctx.iregs;
            contexts_[frame].fregs = ctx.fregs;
            contexts_[frame].q_read_int = ctx.q_read_int;
            contexts_[frame].q_write_int = ctx.q_write_int;
            contexts_[frame].q_read_fp = ctx.q_read_fp;
            contexts_[frame].q_write_fp = ctx.q_write_fp;
            contexts_[frame].resume_pc = entry.pc + kInsnBytes;
            contexts_[frame].state = CtxState::Ready;
            bindContext(frame, j, c);
        }
        break;
      }
      case Op::CHGPRI:
        if (!hasTopPriority(slot_id)) {
            ++*stall_priority_;
            return ControlOutcome::Blocked;
        }
        rotate_requested_ = true;
        break;
      case Op::KILLT:
        if (!hasTopPriority(slot_id)) {
            ++*stall_priority_;
            return ControlOutcome::Blocked;
        }
        killOtherThreads(slot_id, c);
        break;
      case Op::TID:
      case Op::NSLOT: {
        const RegRef dst = entry.dst;
        if (sbOf(slot, dst) > c) {
            ++*stall_waw_;
            return ControlOutcome::Blocked;
        }
        if (dst.idx != 0) {
            ctx.iregs[dst.idx] =
                insn.op == Op::TID
                    ? static_cast<std::uint32_t>(slot_id)
                    : static_cast<std::uint32_t>(cfg_.num_slots);
            sbOf(slot, dst) = c;
        }
        break;
      }
      case Op::QEN:
        if (insn.rs == 0 || insn.rt == 0 || insn.rs == insn.rt)
            fatal("qen: bad register pair");
        ctx.q_read_int = insn.rs;
        ctx.q_write_int = insn.rt;
        break;
      case Op::QENF:
        if (insn.rs == insn.rt)
            fatal("qenf: read and write register identical");
        ctx.q_read_fp = insn.rs;
        ctx.q_write_fp = insn.rt;
        break;
      case Op::QDIS:
        ctx.q_read_int.reset();
        ctx.q_write_int.reset();
        ctx.q_read_fp.reset();
        ctx.q_write_fp.reset();
        break;
      case Op::SETRMODE:
        rotation_mode_ = insn.rt == 1 ? RotationMode::Explicit
                                      : RotationMode::Implicit;
        if (insn.imm > 0)
            rotation_interval_ = insn.imm;
        // This cycle's rotation phase already sees the new mode.
        resetRotationClock(c);
        break;
      default:
        panic("handleControl: unexpected op ",
              opMeta(insn.op).mnemonic);
    }
    ++stats_.instructions;
    ++ctx.insns;
    if (sink_) {
        obs::Event ev;
        ev.cycle = c;
        ev.kind = obs::EventKind::Issue;
        ev.slot = static_cast<std::int8_t>(slot_id);
        ev.pc = entry.pc;
        ev.insn = encode(insn);
        sink_->event(ev);
    }
    return ControlOutcome::Issued;
}

void
MultithreadedProcessor::decodeSlot(int slot_id, Cycle c)
{
    Slot &slot = slots_[slot_id];
    if (slot.frame < 0 || slot.trap_pending)
        return;

    if (c >= slot.d2_allowed && !slot.window.empty()) {
        int issues = 0;
        bool mem_blocked = false;
        bool queue_write_blocked = false;
        bool queue_read_blocked = false;
        bool flushed = false;
        std::uint32_t pr_int = 0, pr_fp = 0;
        std::uint32_t pw_int = 0, pw_fp = 0;
        // Entries that stay are compacted as the scan goes:
        // window[0, keep) holds the survivors of window[0, i).
        size_t keep = 0;
        size_t i = 0;

        for (; i < slot.window.size() && issues < cfg_.width; ++i) {
            const WindowEntry &entry = slot.window[i];
            const Insn &insn = entry.insn;
            const bool front = pr_int == 0 && pr_fp == 0 &&
                               pw_int == 0 && pw_fp == 0 &&
                               !mem_blocked && !queue_write_blocked;

            if (entry.control) {
                if (!front)
                    break;
                // Control instructions also wait for the slot's own
                // in-flight instructions when they change global
                // state (fork, kill, priority, halt).
                // CHGPRI drains too: an iteration is acknowledged
                // (and priority handed over) only once its issued
                // instructions have executed, which keeps priority
                // stores of successive iterations in order.
                const bool needs_drain =
                    insn.op == Op::KILLT || insn.op == Op::HALT ||
                    insn.op == Op::FASTFORK ||
                    insn.op == Op::CHGPRI;
                if (needs_drain && slot.ungranted_total > 0)
                    break;
                const ControlOutcome outcome =
                    handleControl(slot_id, entry, c);
                if (outcome == ControlOutcome::Blocked)
                    break;
                ++issues;
                if (outcome == ControlOutcome::Flushed) {
                    flushed = true;
                    break;
                }
                continue;
            }

            // ----- data / memory instruction ---------------------
            Context &ctx = ctxOf(slot_id);
            bool issuable = true;

            if (isPriorityStoreOp(insn.op) &&
                !hasTopPriority(slot_id)) {
                ++*stall_priority_;
                issuable = false;
            }

            const FuClass cls = entry.fu;
            if (issuable) {
                if (cfg_.standby_enabled) {
                    if (slot.ungranted_class[static_cast<int>(
                            cls)] > 0) {
                        ++stats_.standby_stalls;
                        ++*stall_standby_;
                        issuable = false;
                    }
                } else if (slot.ungranted_total > 0) {
                    ++stats_.standby_stalls;
                    ++*stall_no_standby_;
                    issuable = false;
                }
            }

            if (issuable && entry.mem &&
                (slot.ungranted_mem > 0 || mem_blocked)) {
                ++*stall_memorder_;
                issuable = false;
            }

            // Queue-register reads dequeue, so they must stay in
            // program order: a younger pop may not overtake an
            // older instruction still waiting in the window.
            if (issuable && queue_read_blocked &&
                queuePopCount(ctx, entry) > 0) {
                ++*stall_operands_;
                issuable = false;
            }

            if (issuable && !operandsReady(slot_id, ctx, entry, c,
                                           pw_int, pw_fp)) {
                ++*stall_operands_;
                issuable = false;
            }

            const RegRef dst = entry.dst;
            bool queue_write = false;
            if (issuable && dst.valid()) {
                queue_write =
                    (dst.file == RF::Int && ctx.q_write_int &&
                     *ctx.q_write_int == dst.idx) ||
                    (dst.file == RF::Fp && ctx.q_write_fp &&
                     *ctx.q_write_fp == dst.idx);
                if (queue_write) {
                    if (queue_write_blocked ||
                        slot.queue_push_pending > 0 ||
                        !ring_regs_.canReserve(slot_id)) {
                        ++*stall_queue_full_;
                        issuable = false;
                    }
                } else if (sbOf(slot, dst) > c ||
                           inMask(dst.file == RF::Fp ? pr_fp
                                                     : pr_int,
                                  dst.idx) ||
                           inMask(dst.file == RF::Fp ? pw_fp
                                                     : pw_int,
                                  dst.idx)) {
                    ++*stall_waw_;
                    issuable = false;
                }
            }

            if (issuable) {
                IssuedOp op;
                op.insn = insn;
                op.pc = entry.pc;
                op.slot = slot_id;
                op.ops = readOperands(slot_id, insn);
                op.arrive = c + 1;
                op.queue_write = queue_write;

                if (queue_write) {
                    ring_regs_.reserve(slot_id);
                    ++slot.queue_push_pending;
                } else if (dst.valid()) {
                    sbOf(slot, dst) = kNeverCycle;
                }
                if (sink_) {
                    obs::Event ev;
                    ev.cycle = c;
                    ev.kind = obs::EventKind::Issue;
                    ev.slot = static_cast<std::int8_t>(slot_id);
                    ev.fu = static_cast<std::int8_t>(cls);
                    ev.pc = entry.pc;
                    ev.insn = encode(insn);
                    sink_->event(ev);
                }
                sched_units_[static_cast<int>(cls)].submit(op);
                ++slot.ungranted_total;
                ++slot.ungranted_class[static_cast<int>(cls)];
                if (entry.mem)
                    ++slot.ungranted_mem;
                ++issues;
            } else {
                for (int s = 0; s < entry.nsrcs; ++s) {
                    const RegRef &src = entry.srcs[s];
                    if (src.file == RF::Fp)
                        addMask(pr_fp, src.idx);
                    else
                        addMask(pr_int, src.idx);
                }
                if (dst.valid()) {
                    if (dst.file == RF::Fp)
                        addMask(pw_fp, dst.idx);
                    else if (dst.idx != 0)
                        addMask(pw_int, dst.idx);
                }
                if (entry.mem)
                    mem_blocked = true;
                // Conservatively keep queue writes and reads in
                // order even when we cannot cheaply tell the
                // mapping here.
                queue_write_blocked = true;
                queue_read_blocked = true;
                if (keep != i)
                    slot.window[keep] = entry;
                ++keep;
            }
        }

        // Close the gap issued entries left (a flush emptied the
        // window already).
        if (!flushed && keep != i) {
            slot.window.erase(slot.window.begin() + keep,
                              slot.window.begin() + i);
        }
    }

    // D1: move instructions from the queue unit into the window.
    if (slot.frame >= 0 && !slot.trap_pending) {
        while (static_cast<int>(slot.window.size()) < cfg_.width &&
               slot.iq_count > 0) {
            const Addr a = slot.iq_head;
            slot.iq_head += kInsnBytes;
            --slot.iq_count;
            // text_.at() raises the off-text FatalError; the record
            // at the same index carries the derived operand fields.
            (void)text_.at(a);
            slot.window.push_back(
                records_[(a - prog_.text_base) / kInsnBytes]);
        }
    }
}

void
MultithreadedProcessor::decodePhase(Cycle c)
{
    // Decode in current priority order; determinism matters for the
    // queue-register network. Only rotationPhase and fastForward
    // reorder ring_, so it is stable for the whole phase.
    for (int s : ring_)
        decodeSlot(s, c);
}

void
MultithreadedProcessor::rotationPhase(Cycle c)
{
    bool rotated = false;
    if (c == next_rotation_) {
        rotateRing();
        next_rotation_ += static_cast<Cycle>(rotation_interval_);
        rotated = true;
    }
    if (rotate_requested_) {
        rotateRing();
        rotate_requested_ = false;
        rotated = true;
    }
    if (rotated && sink_)
        emitRing(c);
}

bool
MultithreadedProcessor::allDone() const
{
    for (const Context &ctx : contexts_) {
        if (ctx.state != CtxState::Unused &&
            ctx.state != CtxState::Finished) {
            return false;
        }
    }
    for (const Slot &slot : slots_) {
        if (slot.frame >= 0 && slot.ungranted_total > 0)
            return false;
    }
    return true;
}

void
MultithreadedProcessor::dumpState(std::ostream &os) const
{
    os << "cycle " << now_ << " ring:";
    for (int s : ring_)
        os << ' ' << s;
    os << '\n';
    for (int s = 0; s < cfg_.num_slots; ++s) {
        const Slot &slot = slots_[s];
        os << "slot " << s << ": frame=" << slot.frame
           << " trap=" << slot.trap_pending
           << " iq=" << slot.iq_count
           << " win=" << slot.window.size()
           << " ungranted=" << slot.ungranted_total
           << " qpush=" << slot.queue_push_pending
           << " d2_allowed=" << slot.d2_allowed;
        if (!slot.window.empty()) {
            os << " front='"
               << disassemble(slot.window.front().insn) << "' @"
               << slot.window.front().pc;
        }
        os << '\n';
    }
    for (size_t f = 0; f < contexts_.size(); ++f) {
        const Context &ctx = contexts_[f];
        os << "ctx " << f << ": state="
           << static_cast<int>(ctx.state)
           << " resume=" << ctx.resume_pc << '\n';
    }
}

// ---------------------------------------------------------------
// Idle-cycle fast-forward (docs/PERF.md)
// ---------------------------------------------------------------

Cycle
MultithreadedProcessor::nextEventCycle(Cycle c) const
{
    Cycle ev = kNeverCycle;
    const Addr end = prog_.textEnd();

    // Fetch deliveries land at their done_at.
    for (const FetchPort &port : ports_) {
        for (const FetchOp &op : port.inflight)
            ev = std::min(ev, op.done_at);
    }

    bool free_slot = false;
    for (int s = 0; s < cfg_.num_slots; ++s) {
        const Slot &slot = slots_[s];
        if (slot.frame < 0) {
            free_slot = true;
            continue;
        }
        if (slot.trap_pending) {
            // A drained switch-out unbinds in the next contextPhase.
            if (slot.ungranted_total == 0)
                return c + 1;
            continue;   // remaining drain comes via grant events
        }
        // A new fetch starts once this slot's port is idle.
        if (!slot.fetch_inflight &&
            cfg_.iqueueWords() > slot.iq_count &&
            slot.fetch_addr < end) {
            const FetchPort &port =
                ports_[cfg_.private_icache ? s : 0];
            ev = std::min(ev, std::max(c + 1, port.free_at));
        }
        // A non-empty window is (re)examined by D2 once the refill
        // bubble expires — even a fruitless attempt bumps stall
        // counters, so it can never be skipped over.
        if (!slot.window.empty())
            ev = std::min(ev, std::max(c + 1, slot.d2_allowed));
        // D1 moves queued instructions into free window space.
        if (static_cast<int>(slot.window.size()) < cfg_.width &&
            slot.iq_count > 0) {
            return c + 1;
        }
    }

    // Queue-register deposits land at the producer's write-back.
    for (const PendingPush &push : pending_pushes_)
        ev = std::min(ev, push.at);

    // Standby latches and grants.
    for (const ScheduleUnit &su : sched_units_)
        ev = std::min(ev, su.nextEventCycle());

    // Context wake-ups and binds.
    if (free_slot && !ready_fifo_.empty())
        return c + 1;
    for (const Context &ctx : contexts_) {
        if (ctx.state == CtxState::WaitRemote)
            ev = std::min(ev, ctx.ready_at);
    }

    return std::max(ev, c + 1);
}

void
MultithreadedProcessor::fastForward(Cycle stop)
{
    // Cheap gate: when any slot can attempt a decode or refill its
    // window next cycle, nothing is skippable — bail before the
    // full event scan below touches ports, schedule units and
    // contexts. On busy workloads this loop is the entire cost of
    // having fast-forward enabled.
    for (const Slot &slot : slots_) {
        if (slot.frame < 0 || slot.trap_pending)
            continue;
        if (!slot.window.empty() && slot.d2_allowed <= now_ + 1)
            return;
        if (static_cast<int>(slot.window.size()) < cfg_.width &&
            slot.iq_count > 0)
            return;
    }
    const Cycle next = nextEventCycle(now_);
    if (next <= now_ + 1)
        return;
    // Skip cycles now_+1 .. target-1; the loop increment then lands
    // on the event cycle (or past the stop cycle when nothing is
    // pending, matching the naive loop's budget exhaustion). The
    // clamp to `stop` keeps runUntil() bit-identical to run():
    // skipped cycles are no-ops and the batched rotation below is
    // linear in the cycle count, so splitting the jump at a
    // checkpoint boundary changes nothing.
    const Cycle target = std::min(next, stop + 1);
    if (rotation_mode_ == RotationMode::Implicit &&
        rotation_interval_ > 0 && ring_.size() > 1) {
        // Batch-apply the implicit rotations the skipped cycles
        // would have performed: one per multiple of the interval.
        const Cycle ival = static_cast<Cycle>(rotation_interval_);
        const std::uint64_t rotations =
            (target - 1) / ival - now_ / ival;
        const std::size_t r = rotations % ring_.size();
        if (r > 0) {
            std::rotate(ring_.begin(),
                        ring_.begin() + static_cast<long>(r),
                        ring_.end());
            if (sink_)
                emitRing(target - 1);
        }
    }
    now_ = target - 1;
    resetRotationClock(target);
}

RunStats
MultithreadedProcessor::run()
{
    return runUntil(cfg_.max_cycles);
}

RunStats
MultithreadedProcessor::runUntil(Cycle stop)
{
    stop = std::min(stop, cfg_.max_cycles);
    if (finished_)
        return stats_;
    if (snapshot_pending_)
        emitStateSnapshot();

    while (now_ < stop) {
        ++now_;
        fetchPhase(now_);
        schedulePhase(now_);
        contextPhase(now_);
        decodePhase(now_);
        rotationPhase(now_);
        if (allDone()) {
            stats_.cycles = std::max(now_, last_activity_);
            stats_.finished = true;
            finished_ = true;
            if (sink_) {
                obs::Event ev;
                ev.cycle = stats_.cycles;
                ev.kind = obs::EventKind::RunEnd;
                ev.a = stats_.instructions;
                sink_->event(ev);
                sink_->flush();
            }
            return stats_;
        }
        if (cfg_.fast_forward)
            fastForward(stop);
    }
    if (now_ >= cfg_.max_cycles) {
        stats_.cycles = cfg_.max_cycles;
        stats_.finished = false;
        if (sink_) {
            obs::Event ev;
            ev.cycle = stats_.cycles;
            ev.kind = obs::EventKind::RunEnd;
            ev.a = stats_.instructions;
            sink_->event(ev);
            sink_->flush();
        }
    }
    return stats_;
}

void
MultithreadedProcessor::setEventSink(obs::EventSink *sink)
{
    sink_ = sink;
    owned_sink_.reset();
    for (ScheduleUnit &su : sched_units_)
        su.setSink(sink_);
    snapshot_pending_ = sink_ != nullptr;
}

void
MultithreadedProcessor::setPipeTrace(std::ostream *os)
{
    if (!os) {
        setEventSink(nullptr);
        return;
    }
    setEventSink(nullptr);
    owned_sink_ = std::make_unique<obs::TextSink>(*os);
    sink_ = owned_sink_.get();
    for (ScheduleUnit &su : sched_units_)
        su.setSink(sink_);
    snapshot_pending_ = true;
}

void
MultithreadedProcessor::emitRing(Cycle c)
{
    obs::Event ev;
    ev.cycle = c;
    ev.kind = obs::EventKind::RingState;
    ev.unit = static_cast<std::int16_t>(ring_.size());
    ev.a = obs::packRing(ring_.data(),
                         static_cast<int>(ring_.size()));
    sink_->event(ev);
}

void
MultithreadedProcessor::emitStateSnapshot()
{
    snapshot_pending_ = false;
    if (!sink_)
        return;

    obs::Event ev;
    ev.cycle = now_;
    ev.kind = obs::EventKind::Snapshot;
    ev.a = stats_.instructions;
    sink_->event(ev);

    emitRing(now_);

    for (int s = 0; s < cfg_.num_slots; ++s) {
        const Slot &slot = slots_[s];
        if (slot.frame < 0)
            continue;
        obs::Event bind;
        bind.cycle = now_;
        bind.kind = obs::EventKind::SlotBind;
        bind.slot = static_cast<std::int8_t>(s);
        bind.unit = static_cast<std::int16_t>(slot.frame);
        bind.pc = contexts_[slot.frame].resume_pc;
        sink_->event(bind);
    }

    for (int l = 0; l < ring_regs_.numLinks(); ++l) {
        obs::Event qs;
        qs.cycle = now_;
        qs.kind = obs::EventKind::QueueState;
        qs.slot = static_cast<std::int8_t>(l);
        qs.a = static_cast<std::uint64_t>(ring_regs_.sizeOf(l));
        sink_->event(qs);
    }

    for (const ScheduleUnit &su : sched_units_)
        su.snapshotTo(*sink_, now_);
}

} // namespace smtsim
