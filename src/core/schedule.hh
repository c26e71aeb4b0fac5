/**
 * @file
 * Instruction schedule units and standby stations (sections 2.1.1
 * and 2.2).
 *
 * One ScheduleUnit manages every functional unit of a class. Each
 * cycle it selects, in rotating thread-priority order, up to as many
 * waiting instructions as units can accept. Losers stay in their
 * depth-1 standby station (one per functional-unit class per thread
 * slot), which lets the owning decode unit keep issuing instructions
 * bound for *other* units — the paper's bounded out-of-order
 * execution.
 */

#ifndef SMTSIM_CORE_SCHEDULE_HH
#define SMTSIM_CORE_SCHEDULE_HH

#include <optional>
#include <vector>

#include "base/types.hh"
#include "isa/dataop.hh"
#include "isa/insn.hh"
#include "obs/event.hh"
#include "obs/serial.hh"

namespace smtsim
{

/** An instruction in flight between decode (D2) and execution. */
struct IssuedOp
{
    Insn insn;
    Addr pc = 0;
    int slot = -1;
    /** Operand values captured at issue (register-read model). */
    OperandValues ops;
    /** Cycle the op reaches the schedule (S) stage. */
    Cycle arrive = 0;
    /** Destination is a queue-register mapping (push, not write). */
    bool queue_write = false;
};

/** One granted instruction with its assigned functional unit. */
struct Grant
{
    IssuedOp op;
    int unit = 0;
};

/** Schedule unit for one functional-unit class. */
class ScheduleUnit
{
  public:
    ScheduleUnit(FuClass cls, int num_units, int num_slots);

    /** True while @p slot has an instruction waiting here. */
    bool slotBusy(int slot) const;

    /** Accept an instruction issued by a decode unit. */
    void submit(const IssuedOp &op);

    /**
     * Run the selection for cycle @p c. @p priority_order lists the
     * thread slots from highest to lowest priority.
     */
    std::vector<Grant> select(Cycle c,
                              const std::vector<int> &priority_order);

    /** Allocation-free variant: grants are appended to @p out
     *  (cleared first) so the caller can reuse one buffer. */
    void select(Cycle c, const std::vector<int> &priority_order,
                std::vector<Grant> &out);

    /**
     * Earliest cycle at which this unit can act on its current
     * contents — an incoming instruction latching into its standby
     * station, or a waiting instruction being granted once a unit
     * frees up. kNeverCycle when empty. Used by the idle-cycle
     * fast-forward; callers clamp the result to "next cycle".
     */
    Cycle nextEventCycle() const;

    /** Discard any waiting instruction of @p slot (thread killed). */
    void flushSlot(int slot);

    /**
     * Nothing in flight anywhere in this unit: no arriving
     * instructions, no occupied standby station. An idle unit's
     * select() is a guaranteed no-op, so the per-cycle schedule
     * phase skips it (hot-path profile, docs/PERF.md).
     */
    bool
    idle() const
    {
        return incoming_.empty() && standby_occupied_ == 0;
    }

    /** Call @p fn on every instruction held here: each occupied
     *  standby station, then each arriving instruction. */
    template <class Fn>
    void
    forEachHeld(Fn &&fn) const
    {
        for (const auto &station : standby_) {
            if (station.has_value())
                fn(*station);
        }
        for (const IssuedOp &op : incoming_)
            fn(op);
    }

    int numUnits() const { return static_cast<int>(units_.size()); }
    FuClass fuClass() const { return cls_; }

    /** Attach/detach the event sink (Park events from select()). */
    void setSink(obs::EventSink *sink) { sink_ = sink; }

    /** Emit Park events for every occupied standby station, part
     *  of the processor's state snapshot at trace start. */
    void snapshotTo(obs::EventSink &sink, Cycle c) const;

    /** Checkpoint support (docs/OBSERVABILITY.md). */
    void serialize(obs::ByteWriter &w) const;
    void deserialize(obs::ByteReader &r);

  private:
    FuClass cls_;
    obs::EventSink *sink_ = nullptr;
    /** Earliest cycle each unit accepts a new instruction. */
    std::vector<Cycle> units_;
    /** Standby stations, one per thread slot, depth 1. */
    std::vector<std::optional<IssuedOp>> standby_;
    /** Count of occupied standby stations (backs idle()). */
    int standby_occupied_ = 0;
    /** Instructions issued this cycle, arriving at S next cycle. */
    std::vector<IssuedOp> incoming_;
};

} // namespace smtsim

#endif // SMTSIM_CORE_SCHEDULE_HH
