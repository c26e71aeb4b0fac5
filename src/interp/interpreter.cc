#include "interpreter.hh"

#include <bit>

#include "base/logging.hh"
#include "isa/semantics.hh"

namespace smtsim
{

Interpreter::Interpreter(const Program &prog, MainMemory &mem,
                         const InterpConfig &cfg)
    : prog_(prog), mem_(mem), cfg_(cfg), text_(prog)
{
    SMTSIM_ASSERT(cfg_.num_threads >= 1, "need at least one thread");
    threads_.resize(cfg_.num_threads);
    queues_.resize(cfg_.num_threads);

    threads_[0].state = ThreadState::Running;
    threads_[0].pc = prog_.entry;
    ring_.push_back(0);
}

std::uint32_t
Interpreter::intReg(int thread, RegIndex idx) const
{
    return threads_.at(thread).iregs[idx];
}

double
Interpreter::fpReg(int thread, RegIndex idx) const
{
    return threads_.at(thread).fregs[idx];
}

bool
Interpreter::hasTopPriority(int tid) const
{
    return !ring_.empty() && ring_.front() == tid;
}

void
Interpreter::rotatePriority()
{
    if (ring_.size() > 1) {
        ring_.push_back(ring_.front());
        ring_.erase(ring_.begin());
    }
}

void
Interpreter::removeFromRing(int tid)
{
    for (auto it = ring_.begin(); it != ring_.end(); ++it) {
        if (*it == tid) {
            ring_.erase(it);
            return;
        }
    }
}

std::deque<std::uint64_t> &
Interpreter::queueFrom(int src)
{
    return queues_[src];
}

std::deque<std::uint64_t> &
Interpreter::queueInto(int dst)
{
    return queues_[(dst + cfg_.num_threads - 1) % cfg_.num_threads];
}

bool
Interpreter::readInt(Thread &t, int tid, RegIndex idx,
                     std::uint32_t &out)
{
    if (t.q_read_int && *t.q_read_int == idx) {
        auto &q = queueInto(tid);
        if (q.empty())
            return false;
        out = static_cast<std::uint32_t>(q.front());
        q.pop_front();
        return true;
    }
    out = idx == 0 ? 0 : t.iregs[idx];
    return true;
}

bool
Interpreter::readFp(Thread &t, int tid, RegIndex idx, double &out)
{
    if (t.q_read_fp && *t.q_read_fp == idx) {
        auto &q = queueInto(tid);
        if (q.empty())
            return false;
        out = std::bit_cast<double>(q.front());
        q.pop_front();
        return true;
    }
    out = t.fregs[idx];
    return true;
}

bool
Interpreter::writeInt(Thread &t, int tid, RegIndex idx,
                      std::uint32_t value)
{
    if (t.q_write_int && *t.q_write_int == idx) {
        auto &q = queueFrom(tid);
        if (static_cast<int>(q.size()) >= cfg_.queue_depth)
            return false;
        q.push_back(value);
        return true;
    }
    if (idx != 0)
        t.iregs[idx] = value;
    return true;
}

bool
Interpreter::writeFp(Thread &t, int tid, RegIndex idx, double value)
{
    if (t.q_write_fp && *t.q_write_fp == idx) {
        auto &q = queueFrom(tid);
        if (static_cast<int>(q.size()) >= cfg_.queue_depth)
            return false;
        q.push_back(std::bit_cast<std::uint64_t>(value));
        return true;
    }
    t.fregs[idx] = value;
    return true;
}

bool
Interpreter::step(int tid)
{
    Thread &t = threads_[tid];
    const Insn &insn = text_.at(t.pc);
    const Op op = insn.op;

    // --- Blocking pre-checks -------------------------------------
    // An instruction must either execute completely or not at all,
    // so availability of every queue-register operand is verified
    // before any FIFO is mutated.
    {
        RegRef srcs[3];
        const int n = insn.srcs(srcs);
        int need_from_queue = 0;
        for (int i = 0; i < n; ++i) {
            const bool mapped =
                (srcs[i].file == RF::Int && t.q_read_int &&
                 *t.q_read_int == srcs[i].idx) ||
                (srcs[i].file == RF::Fp && t.q_read_fp &&
                 *t.q_read_fp == srcs[i].idx);
            if (mapped)
                ++need_from_queue;
        }
        if (need_from_queue >
            static_cast<int>(queueInto(tid).size())) {
            return false;
        }
        const RegRef dst = insn.dst();
        const bool dst_mapped =
            (dst.file == RF::Int && t.q_write_int &&
             *t.q_write_int == dst.idx) ||
            (dst.file == RF::Fp && t.q_write_fp &&
             *t.q_write_fp == dst.idx);
        if (dst_mapped && static_cast<int>(queueFrom(tid).size()) >=
                              cfg_.queue_depth) {
            return false;
        }
    }

    if ((op == Op::CHGPRI || op == Op::KILLT ||
         isPriorityStoreOp(op)) &&
        !hasTopPriority(tid)) {
        return false;
    }

    // --- Execute --------------------------------------------------
    Addr next_pc = t.pc + kInsnBytes;

    if (isThreadCtlOp(op)) {
        switch (op) {
          case Op::NOP:
          case Op::SETRMODE:
            break;
          case Op::HALT:
            t.state = ThreadState::Halted;
            removeFromRing(tid);
            break;
          case Op::FASTFORK:
            for (int j = 0; j < cfg_.num_threads; ++j) {
                if (j == tid ||
                    threads_[j].state != ThreadState::Inactive) {
                    continue;
                }
                threads_[j] = t;
                threads_[j].state = ThreadState::Running;
                threads_[j].pc = next_pc;
                threads_[j].steps = 0;
                ring_.push_back(j);
            }
            break;
          case Op::CHGPRI:
            rotatePriority();
            break;
          case Op::KILLT:
            for (int j = 0; j < cfg_.num_threads; ++j) {
                if (j != tid &&
                    threads_[j].state == ThreadState::Running) {
                    threads_[j].state = ThreadState::Killed;
                    removeFromRing(j);
                }
            }
            break;
          case Op::TID:
            if (insn.rd != 0)
                t.iregs[insn.rd] = static_cast<std::uint32_t>(tid);
            break;
          case Op::NSLOT:
            if (insn.rd != 0)
                t.iregs[insn.rd] =
                    static_cast<std::uint32_t>(cfg_.num_threads);
            break;
          case Op::QEN:
            if (insn.rs == 0 || insn.rt == 0 || insn.rs == insn.rt)
                fatal("qen: bad register pair");
            t.q_read_int = insn.rs;
            t.q_write_int = insn.rt;
            break;
          case Op::QENF:
            if (insn.rs == insn.rt)
                fatal("qenf: read and write register identical");
            t.q_read_fp = insn.rs;
            t.q_write_fp = insn.rt;
            break;
          case Op::QDIS:
            t.q_read_int.reset();
            t.q_write_int.reset();
            t.q_read_fp.reset();
            t.q_write_fp.reset();
            break;
          default:
            panic("unhandled thread-control op");
        }
    } else if (insn.isBranch()) {
        std::uint32_t a = 0, b = 0;
        if (op != Op::J && op != Op::JAL) {
            if (!readInt(t, tid, insn.rs, a))
                panic("queue precheck missed a branch source");
        }
        if (op == Op::BEQ || op == Op::BNE) {
            if (!readInt(t, tid, insn.rt, b))
                panic("queue precheck missed a branch source");
        }
        switch (op) {
          case Op::J:
            next_pc = (t.pc & 0xf0000000u) |
                      (static_cast<std::uint32_t>(insn.imm) << 2);
            break;
          case Op::JAL:
            t.iregs[31] = t.pc + kInsnBytes;
            next_pc = (t.pc & 0xf0000000u) |
                      (static_cast<std::uint32_t>(insn.imm) << 2);
            break;
          case Op::JR:
            next_pc = a;
            break;
          case Op::JALR:
            if (insn.rd != 0)
                t.iregs[insn.rd] = t.pc + kInsnBytes;
            next_pc = a;
            break;
          default:
            if (evalBranch(op, a, b)) {
                next_pc = t.pc + kInsnBytes +
                          static_cast<Addr>(insn.imm * 4);
            }
            break;
        }
    } else if (insn.isMem()) {
        std::uint32_t base = 0;
        if (!readInt(t, tid, insn.rs, base))
            panic("queue precheck missed a base register");
        const Addr addr =
            base + static_cast<std::uint32_t>(insn.imm);
        switch (op) {
          case Op::LW: {
            if (!writeInt(t, tid, insn.rt, mem_.read32(addr)))
                panic("queue precheck missed a load destination");
            break;
          }
          case Op::LF: {
            if (!writeFp(t, tid, insn.rt, mem_.readDouble(addr)))
                panic("queue precheck missed a load destination");
            break;
          }
          case Op::SW:
          case Op::PSTW: {
            std::uint32_t v = 0;
            if (!readInt(t, tid, insn.rt, v))
                panic("queue precheck missed a store source");
            mem_.write32(addr, v);
            break;
          }
          case Op::SF:
          case Op::PSTF: {
            double v = 0;
            if (!readFp(t, tid, insn.rt, v))
                panic("queue precheck missed a store source");
            mem_.writeDouble(addr, v);
            break;
          }
          default:
            panic("unhandled memory op");
        }
    } else if (isFpFormatOp(op) || op == Op::FCMPLT ||
               op == Op::FCMPLE || op == Op::FCMPEQ ||
               op == Op::FTOI) {
        switch (opMeta(op).format) {
          case Format::FR3: {
            double a = 0, b = 0;
            if (!readFp(t, tid, insn.rs, a) ||
                !readFp(t, tid, insn.rt, b)) {
                panic("queue precheck missed an FP source");
            }
            if (!writeFp(t, tid, insn.rd, execFpOp(op, a, b)))
                panic("queue precheck missed an FP destination");
            break;
          }
          case Format::FR2: {
            double a = 0;
            if (!readFp(t, tid, insn.rs, a))
                panic("queue precheck missed an FP source");
            if (!writeFp(t, tid, insn.rd, execFpOp(op, a, 0.0)))
                panic("queue precheck missed an FP destination");
            break;
          }
          case Format::FCMP: {
            double a = 0, b = 0;
            if (!readFp(t, tid, insn.rs, a) ||
                !readFp(t, tid, insn.rt, b)) {
                panic("queue precheck missed an FP source");
            }
            if (!writeInt(t, tid, insn.rd,
                          execFpToIntOp(op, a, b))) {
                panic("queue precheck missed a cmp destination");
            }
            break;
          }
          case Format::ITOFF: {
            std::uint32_t a = 0;
            if (!readInt(t, tid, insn.rs, a))
                panic("queue precheck missed an itof source");
            const double v = static_cast<double>(
                static_cast<std::int32_t>(a));
            if (!writeFp(t, tid, insn.rd, v))
                panic("queue precheck missed an itof destination");
            break;
          }
          case Format::FTOIF: {
            double a = 0;
            if (!readFp(t, tid, insn.rs, a))
                panic("queue precheck missed an ftoi source");
            if (!writeInt(t, tid, insn.rd,
                          execFpToIntOp(op, a, 0.0))) {
                panic("queue precheck missed an ftoi destination");
            }
            break;
          }
          default:
            panic("unhandled FP format");
        }
    } else {
        // Integer ALU / shifter / multiplier.
        std::uint32_t a = 0, b = 0;
        if (!readInt(t, tid, insn.rs, a))
            panic("queue precheck missed an int source");
        const Format fmt = opMeta(op).format;
        if (fmt == Format::R3) {
            if (!readInt(t, tid, insn.rt, b))
                panic("queue precheck missed an int source");
        }
        const std::uint32_t result = execIntOp(insn, a, b);
        const RegRef dst = insn.dst();
        if (!writeInt(t, tid, dst.idx, result))
            panic("queue precheck missed an int destination");
    }

    if (t.state == ThreadState::Running)
        t.pc = next_pc;
    ++t.steps;
    return true;
}

InterpResult
Interpreter::run()
{
    InterpResult result;
    std::uint64_t total = 0;

    while (total < cfg_.max_steps) {
        bool any_running = false;
        bool progressed = false;
        for (int tid = 0; tid < cfg_.num_threads; ++tid) {
            if (threads_[tid].state != ThreadState::Running)
                continue;
            any_running = true;
            if (step(tid)) {
                progressed = true;
                ++total;
            }
            if (total >= cfg_.max_steps)
                break;
        }
        if (!any_running)
            break;
        if (!progressed)
            fatal("interpreter deadlock: all running threads "
                  "blocked");
    }

    result.completed = true;
    for (const Thread &t : threads_) {
        if (t.state == ThreadState::Running)
            result.completed = false;
        result.per_thread_steps.push_back(t.steps);
    }
    result.steps = total;
    return result;
}

} // namespace smtsim
