/**
 * @file
 * Functional reference interpreter (golden model).
 *
 * Executes programs architecturally, with full support for the
 * multithreading primitives (fast-fork, queue registers, priority
 * rotation, kill-threads, priority stores), but without any timing.
 * Both pipeline models are validated against it: for every workload,
 * final memory contents and halted-register state must match.
 */

#ifndef SMTSIM_INTERP_INTERPRETER_HH
#define SMTSIM_INTERP_INTERPRETER_HH

#include <array>
#include <cstdint>
#include <deque>
#include <optional>
#include <vector>

#include "asmr/program.hh"
#include "base/types.hh"
#include "isa/insn.hh"
#include "mem/memory.hh"

namespace smtsim
{

/** Interpreter configuration. */
struct InterpConfig
{
    /** Number of logical processors (thread slots). */
    int num_threads = 1;
    /** Queue-register FIFO depth (paper's Figure 5 shows 4). */
    int queue_depth = 4;
    /** Step budget; exceeding it is reported as a failure. */
    std::uint64_t max_steps = 500'000'000;
};

/** Outcome of a functional run. */
struct InterpResult
{
    bool completed = false;     ///< every thread halted or was killed
    std::uint64_t steps = 0;    ///< total instructions executed
    std::vector<std::uint64_t> per_thread_steps;
};

/**
 * The functional engine. Architectural state lives in the
 * interpreter; memory is shared with the caller.
 */
class Interpreter
{
  public:
    Interpreter(const Program &prog, MainMemory &mem,
                const InterpConfig &cfg = {});

    /** Run until all threads finish; returns statistics. */
    InterpResult run();

    /** Architectural integer register of a thread (post-run). */
    std::uint32_t intReg(int thread, RegIndex idx) const;
    /** Architectural FP register of a thread (post-run). */
    double fpReg(int thread, RegIndex idx) const;

  private:
    enum class ThreadState
    {
        Inactive,   ///< slot not started (before fast-fork)
        Running,
        Halted,     ///< executed HALT
        Killed      ///< terminated by another thread's KILLT
    };

    struct Thread
    {
        ThreadState state = ThreadState::Inactive;
        Addr pc = 0;
        std::array<std::uint32_t, kNumRegs> iregs{};
        std::array<double, kNumRegs> fregs{};
        /** Queue-register mappings (section 2.3.1). */
        std::optional<RegIndex> q_read_int, q_write_int;
        std::optional<RegIndex> q_read_fp, q_write_fp;
        std::uint64_t steps = 0;
    };

    /**
     * Step one instruction on thread @p tid.
     * @return true if the thread made progress (false = blocked).
     */
    bool step(int tid);

    bool hasTopPriority(int tid) const;
    void rotatePriority();
    void removeFromRing(int tid);

    /** Queue from LP @p src to its ring successor. */
    std::deque<std::uint64_t> &queueFrom(int src);
    std::deque<std::uint64_t> &queueInto(int dst);

    /** Read an int source, honoring queue-register mappings. */
    bool readInt(Thread &t, int tid, RegIndex idx,
                 std::uint32_t &out);
    bool readFp(Thread &t, int tid, RegIndex idx, double &out);
    bool writeInt(Thread &t, int tid, RegIndex idx,
                  std::uint32_t value);
    bool writeFp(Thread &t, int tid, RegIndex idx, double value);

    const Program &prog_;
    MainMemory &mem_;
    InterpConfig cfg_;
    /** Text segment decoded once; step() indexes it. */
    PredecodedText text_;

    std::vector<Thread> threads_;
    /** Per-link FIFO: queues_[i] carries LP i -> LP i+1 data. */
    std::vector<std::deque<std::uint64_t>> queues_;
    /** Priority ring, highest priority first (alive threads only). */
    std::vector<int> ring_;
};

} // namespace smtsim

#endif // SMTSIM_INTERP_INTERPRETER_HH
