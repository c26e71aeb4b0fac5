/**
 * @file
 * The multithreaded processor of section 2: several thread slots
 * (instruction queue unit + decode unit pairs) sharing one fetch
 * unit and one pool of functional units, with simultaneous issuing
 * from multiple threads arbitrated by rotating-priority instruction
 * schedule units and standby stations.
 *
 * Timing contract implemented here (see DESIGN.md):
 *  - logical-processor pipeline IF1 IF2 D1 D2 S EX* W;
 *  - an instruction issued from D2 in cycle t reaches S in t+1; if
 *    granted in cycle g its result is usable by a D2 check in cycle
 *    g + result_latency (dependent ALU ops are 3 cycles apart);
 *  - branches execute in the decode unit; the next instruction of
 *    the same thread decodes branch_gap (5) cycles later, more if
 *    the shared fetch unit is busy with another thread;
 *  - instructions that lose schedule-unit arbitration wait in a
 *    depth-1 standby station per (FU class x slot); with standby
 *    stations disabled the whole decode unit stalls instead;
 *  - loads/stores have issue latency 2 (2-cycle data cache, always
 *    hitting unless a RemoteRegion is configured).
 */

#ifndef SMTSIM_CORE_PROCESSOR_HH
#define SMTSIM_CORE_PROCESSOR_HH

#include <array>
#include <cstdint>
#include <istream>
#include <memory>
#include <optional>
#include <ostream>
#include <vector>

#include "asmr/program.hh"
#include "base/stats.hh"
#include "base/types.hh"
#include "core/config.hh"
#include "core/queue_ring.hh"
#include "core/remote_model.hh"
#include "core/schedule.hh"
#include "isa/insn.hh"
#include "machine/run_stats.hh"
#include "mem/memory.hh"
#include "obs/event.hh"

namespace smtsim
{

/**
 * Cycle-accurate model of the multithreaded core.
 *
 * Basic use: construct, optionally spawnContext() extra threads
 * (concurrent multithreading), then run(). The program's entry
 * thread starts on thread slot 0; FASTFORK inside the program
 * activates the remaining slots.
 */
class MultithreadedProcessor
{
  public:
    MultithreadedProcessor(const Program &prog, MainMemory &mem,
                           const CoreConfig &cfg = {});

    /**
     * Queue an additional software thread (context) to execute,
     * starting at @p entry. It runs when a context frame and thread
     * slot become available. Returns the context-frame id.
     */
    int spawnContext(Addr entry,
                     const std::array<std::uint32_t, kNumRegs> &iregs =
                         {},
                     const std::array<double, kNumRegs> &fregs = {});

    /** Simulate until every context finishes (or budget expires). */
    RunStats run();

    /**
     * Simulate until the last completed cycle reaches
     * min(@p stop, max_cycles) or the program finishes, whichever
     * comes first. Calling runUntil(k1), runUntil(k2), ... run() is
     * bit-identical to one run() — the checkpoint machinery and
     * tests rely on it. Returns the statistics so far; cycles /
     * finished are only final once finished() is true or the
     * budget is exhausted.
     */
    RunStats runUntil(Cycle stop);

    /** Last completed cycle (0 before the first). */
    Cycle now() const { return now_; }

    /** True once run()/runUntil() retired the last instruction. */
    bool finished() const { return finished_; }

    /** Post-run architectural state of a context frame. */
    std::uint32_t intReg(int frame, RegIndex idx) const;
    double fpReg(int frame, RegIndex idx) const;

    /** Detailed counters (stall breakdown etc.). */
    const stats::Group &detail() const { return detail_; }

    /** Dump slot/context/queue state (debugging aid). */
    void dumpState(std::ostream &os) const;

    /**
     * Attach a structured event sink (issue, grant, park, branch,
     * queue push/pop, rotation, trap, bind — the cycle-by-cycle
     * view of Figure 4). Pass nullptr to disable (the default);
     * disabled emission costs one branch per would-be event. The
     * sink is not owned. On the next run()/runUntil() the
     * processor emits a state snapshot so streams attached mid-run
     * (or after a checkpoint restore) are self-contained.
     */
    void setEventSink(obs::EventSink *sink);

    /**
     * Convenience shim for the classic pipe trace: attaches an
     * owned TextSink writing one human-readable line per event to
     * @p os (nullptr detaches).
     */
    void setPipeTrace(std::ostream *os);

    /**
     * Serialize the complete machine state — contexts, thread
     * slots, fetch ports, schedule units + standby stations, queue
     * ring, caches, statistics and the backing memory — so a later
     * restoreCheckpoint() resumes bit-identically
     * (docs/OBSERVABILITY.md documents the format).
     */
    void saveCheckpoint(std::ostream &os) const;

    /**
     * Restore state saved by saveCheckpoint() into this processor,
     * which must have been constructed with the same program and
     * configuration (validated via a fingerprint; throws
     * std::runtime_error on mismatch or corruption). The backing
     * memory is replaced by the checkpointed image.
     */
    void restoreCheckpoint(std::istream &is);

    /** Fingerprint binding checkpoints to (program, config). */
    std::uint64_t checkpointFingerprint() const;

    /**
     * Attach the many-core machine's inter-core timing model
     * (src/core/remote_model.hh). With a model attached, a
     * data-absence trap no longer charges the RemoteRegion's fixed
     * latency: the context parks with ready_at = kNeverCycle and the
     * access is handed to the model; the owner must later resolve it
     * with completeRemote(). Inline (explicit-rotation) remote waits
     * charge the model's uncontendedLatency() instead of the stub
     * latency. Must be called before the first cycle; pass nullptr
     * to detach. The model is not owned.
     */
    void setRemoteModel(RemoteTimingModel *model);

    /**
     * Resolve a remote access previously handed to the attached
     * RemoteTimingModel: context frame @p frame wakes at
     * @p ready_at, which must be in this core's future. Called by
     * the many-core machine at quantum barriers.
     */
    void completeRemote(int frame, Cycle ready_at);

    /**
     * Earliest cycle after now() at which this core can do work
     * (kNeverCycle when drained — e.g. every runnable context is
     * parked on an unresolved remote access). The many-core machine
     * uses this to pick quantum boundaries; it is exactly the idle
     * fast-forward event bound.
     */
    Cycle nextEventHint() const { return nextEventCycle(now_); }

    /** Statistics accumulated so far (final once finished()). */
    const RunStats &stats() const { return stats_; }

  private:
    // ----- contexts (section 2.1.3) ------------------------------
    enum class CtxState
    {
        Unused,
        Ready,      ///< waiting for a free thread slot
        Running,    ///< bound to a slot
        WaitRemote, ///< switched out on a data-absence trap
        Finished
    };

    /** Access-requirement-buffer entry replayed after a resume. */
    struct ReplayEntry
    {
        Insn insn;
        Addr pc = 0;
    };

    struct Context
    {
        CtxState state = CtxState::Unused;
        Addr resume_pc = 0;
        std::array<std::uint32_t, kNumRegs> iregs{};
        std::array<double, kNumRegs> fregs{};
        std::optional<RegIndex> q_read_int, q_write_int;
        std::optional<RegIndex> q_read_fp, q_write_fp;
        std::vector<ReplayEntry> replay;
        Cycle ready_at = 0;
        /** Remote line now present; next access to it hits. */
        std::optional<Addr> satisfied_addr;
        std::uint64_t insns = 0;
    };

    // ----- thread slots ------------------------------------------
    /**
     * One decode-window entry: the instruction plus the operand
     * facts D2 needs on every attempt, derived once by makeEntry()
     * (at construction for text words, on bind for replayed
     * entries, on checkpoint restore) instead of on every attempt.
     */
    struct WindowEntry
    {
        Insn insn;
        Addr pc = 0;
        bool replay = false;
        /** Branch or thread-control: executes in the decode unit. */
        bool control = false;
        bool mem = false;
        FuClass fu = FuClass::None;
        std::uint8_t nsrcs = 0;
        RegRef srcs[3];
        RegRef dst;
    };

    static WindowEntry makeEntry(const Insn &insn, Addr pc,
                                 bool replay);

    struct Slot
    {
        int frame = -1;             ///< bound context, -1 = free
        bool trap_pending = false;  ///< draining for a switch-out

        /** Instruction queue unit: iq_count consecutive text
         *  words starting at iq_head (deliveries always extend the
         *  run: a partial one rewinds fetch_addr to its first
         *  dropped word). */
        Addr iq_head = 0;
        int iq_count = 0;
        Addr fetch_addr = 0;        ///< next address to fetch
        /** A FetchOp for this slot is in flight (at most one ever
         *  is; spares fetchPhase an O(inflight) scan per port). */
        bool fetch_inflight = false;
        std::vector<WindowEntry> window;
        Cycle d2_allowed = 0;       ///< front-end refill bubble

        /** Scoreboard: result-clear cycle per register; kNeverCycle
         *  while the producing instruction waits to be granted. */
        std::array<Cycle, kNumRegs> isb{};
        std::array<Cycle, kNumRegs> fsb{};

        int ungranted_total = 0;
        std::array<int, kNumFuClasses> ungranted_class{};
        int ungranted_mem = 0;
        /** Queue-register writes reserved but not yet deposited. */
        int queue_push_pending = 0;

        /** One {clear-cycle, count} bin of the write-back conflict
         *  tracker (each bank has one write port). */
        struct WbBin
        {
            Cycle at = 0;
            int count = 0;
        };

        /**
         * Write-back cycles seen recently, for the 1-write-port
         * conflict statistic, binned modulo the ring size. Live
         * clear-at values span at most the maximum result latency
         * (12 cycles), far below the ring size, so distinct live
         * cycles never share a bin; stale bins are simply
         * overwritten. Replaces a std::map whose node churn cost a
         * malloc/free pair per retired instruction.
         */
        std::array<WbBin, 64> wb_ring{};
    };

    // ----- fetch engine ------------------------------------------
    struct FetchOp
    {
        int slot = -1;
        Addr addr = 0;
        int words = 0;
        Cycle done_at = 0;
    };

    struct FetchPort
    {
        Cycle free_at = 0;
        std::vector<FetchOp> inflight;
        int rr_next = 0;            ///< round-robin refill pointer
    };

    struct PendingPush
    {
        Cycle at = 0;
        int slot = -1;
        std::uint64_t value = 0;
    };

    /**
     * Throw std::runtime_error unless the restored state holds the
     * cross-field invariants the run loop asserts: per slot, the
     * schedule units hold at most one op per class and exactly what
     * its ungranted counts say; its fetch stream (queue, in-flight
     * block, next fetch address) is one contiguous run; and every
     * queue-link reservation belongs to a pending push or a held
     * queue write.
     */
    void validateRestored() const;

    // ----- per-phase helpers --------------------------------------
    void fetchPhase(Cycle c);
    void schedulePhase(Cycle c);
    void contextPhase(Cycle c);
    void decodePhase(Cycle c);
    void rotationPhase(Cycle c);
    bool allDone() const;

    // idle-cycle fast-forward (docs/PERF.md)
    /**
     * Earliest cycle after @p c at which any pipeline state can
     * change: fetch deliveries/starts, schedule-unit latches and
     * grants, queue-register deposits, context wake-ups/binds, and
     * decode attempts. Returns c + 1 whenever the very next cycle
     * may do work and kNeverCycle when the machine is drained.
     */
    Cycle nextEventCycle(Cycle c) const;
    /** Jump now_ to just before the next event (clamped to
     *  @p stop), batch-applying the implicit priority rotations of
     *  the skipped cycles. */
    void fastForward(Cycle stop);

    // decode helpers
    enum class ControlOutcome { Blocked, Issued, Flushed };

    void decodeSlot(int slot_id, Cycle c);
    ControlOutcome handleControl(int slot_id,
                                 const WindowEntry &entry, Cycle c);
    OperandValues readOperands(int slot_id, const Insn &insn);
    bool operandsReady(int slot_id, const Context &ctx,
                       const WindowEntry &entry, Cycle c,
                       std::uint32_t pw_int,
                       std::uint32_t pw_fp) const;
    /** Queue-register pops @p entry performs under @p ctx's current
     *  queue mappings (0 = reads no queue register). */
    int queuePopCount(const Context &ctx,
                      const WindowEntry &entry) const;
    Cycle &sbOf(Slot &slot, RegRef ref);
    Cycle sbOf(const Slot &slot, RegRef ref) const;

    // grant-time execution
    void performGrant(const Grant &grant, Cycle c);
    void writeResult(int slot_id, const IssuedOp &op, bool is_fp,
                     std::uint32_t ival, double fval, Cycle c);
    void takeRemoteTrap(const IssuedOp &op, Cycle c, Addr addr);

    // thread management
    void bindContext(int frame, int slot_id, Cycle c);
    void unbindSlot(int slot_id);
    void flushFrontEnd(int slot_id);
    void killOtherThreads(int killer_slot, Cycle c);
    Addr nextUnissuedPc(int slot_id) const;

    // fetch helpers
    FetchPort &portOf(int slot_id);
    Cycle scheduleRedirect(int slot_id, Addr target, Cycle earliest);
    void cancelFetches(int slot_id);
    /** Extra fetch cycles from instruction-cache misses. */
    Cycle icacheDelay(Addr addr, int words);

    // priority
    bool slotActive(int slot_id) const;
    bool hasTopPriority(int slot_id) const;
    void rotateRing();
    /** Point next_rotation_ at the first implicit-rotation cycle
     *  >= @p from under the current mode and interval. */
    void resetRotationClock(Cycle from);

    Context &ctxOf(int slot_id);
    const Context &ctxOf(int slot_id) const;

    const Program &prog_;
    MainMemory &mem_;
    CoreConfig cfg_;
    /** Text segment decoded once; D1 validates fetch addresses
     *  against it (off-text FatalError). */
    PredecodedText text_;
    /** One window record per text word, indexed like text_. */
    std::vector<WindowEntry> records_;

    std::vector<Context> contexts_;
    std::vector<Slot> slots_;
    std::optional<DirectMappedCache> dcache_;
    std::optional<DirectMappedCache> icache_;
    std::vector<ScheduleUnit> sched_units_;
    std::vector<FetchPort> ports_;
    QueueRing ring_regs_;
    std::vector<PendingPush> pending_pushes_;

    /** Thread-slot priority order, highest first. */
    std::vector<int> ring_;
    bool rotate_requested_ = false;
    RotationMode rotation_mode_;
    int rotation_interval_;
    /** Next cycle whose rotation phase rotates implicitly
     *  (kNeverCycle when none will); derived from now_, the mode
     *  and the interval, so it is never checkpointed. */
    Cycle next_rotation_ = kNeverCycle;

    Cycle last_activity_ = 0;
    /** Last completed cycle; run loops execute cycle now_ + 1. */
    Cycle now_ = 0;
    bool finished_ = false;
    std::vector<int> ready_fifo_;   ///< Ready contexts, FIFO order

    RunStats stats_;
    stats::Group detail_{"core"};

    /** Inter-core timing model for remote accesses (not owned);
     *  nullptr = the fixed-latency RemoteRegion stub. */
    RemoteTimingModel *remote_model_ = nullptr;

    obs::EventSink *sink_ = nullptr;
    /** Backing storage for the setPipeTrace() TextSink shim. */
    std::unique_ptr<obs::EventSink> owned_sink_;
    /** Emit a state snapshot at the next run()/runUntil() entry. */
    bool snapshot_pending_ = false;

    /** Reused per-cycle buffer (no per-cycle heap traffic). */
    std::vector<Grant> grants_scratch_;

    /**
     * Issue-path stall counters resolved once at construction;
     * detail_'s string-keyed export surface is unchanged (std::map
     * node references are stable).
     */
    std::uint64_t *stall_branch_operands_ = nullptr;
    std::uint64_t *stall_priority_ = nullptr;
    std::uint64_t *stall_waw_ = nullptr;
    std::uint64_t *stall_standby_ = nullptr;
    std::uint64_t *stall_no_standby_ = nullptr;
    std::uint64_t *stall_memorder_ = nullptr;
    std::uint64_t *stall_operands_ = nullptr;
    std::uint64_t *stall_queue_full_ = nullptr;

    /** Emit the synthetic machine-state events a fresh stream
     *  needs to be self-contained (snapshot, ring, binds, queue
     *  depths, parked ops). */
    void emitStateSnapshot();
    /** Emit the current priority-ring order at cycle @p c. */
    void emitRing(Cycle c);
};

} // namespace smtsim

#endif // SMTSIM_CORE_PROCESSOR_HH
