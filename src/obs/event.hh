/**
 * @file
 * Structured cycle-event layer (docs/OBSERVABILITY.md).
 *
 * The pipeline models emit one compact POD Event per architectural
 * happening — fetch delivery, D2 issue, standby park, grant, queue
 * push/pop, rotation, trap, context bind/unbind — through an
 * abstract EventSink. The emitting code guards every emission with
 * a null-pointer check, so a disabled sink is meant to cost one
 * predictable branch per would-be event and nothing else. No check
 * measures that cost: bench_simspeed's ≤2% pair runs this same
 * null-sink code on both sides, and a core built without emission
 * to compare against does not exist.
 *
 * Events deliberately carry the *encoded* instruction word instead
 * of strings: formatting (disassembly) happens in the sink or in
 * smtsim-scope, never on the simulator's hot path.
 */

#ifndef SMTSIM_OBS_EVENT_HH
#define SMTSIM_OBS_EVENT_HH

#include <cstdint>
#include <string>

#include "base/types.hh"

namespace smtsim::obs
{

/** Schema version of the Event record and its binary encoding. */
constexpr std::uint32_t kEventSchemaVersion = 1;

enum class EventKind : std::uint8_t
{
    /**
     * Synthetic marker emitted when tracing starts (fresh run or
     * checkpoint restore): cycle = last completed cycle, a =
     * instructions retired so far. Followed by RingState /
     * SlotBind / QueueState / Park events describing the live
     * machine state, so a stream recorded after a restore is
     * self-contained.
     */
    Snapshot = 0,
    /** Priority ring order changed (or snapshot); a = packed ring
     *  (4 bits per slot, highest priority in the low nibble),
     *  unit = slot count. */
    RingState = 1,
    /** Context bound to a thread slot; unit = frame, pc = resume. */
    SlotBind = 2,
    /** Thread slot released its context; unit = frame. */
    SlotUnbind = 3,
    /** Fetch block delivered; pc = base address, a = words. */
    Fetch = 4,
    /** D2 issued an instruction toward a schedule unit (fu); for
     *  control ops retired in decode, fu = -1. */
    Issue = 5,
    /** Op latched into its standby station (fu x slot). */
    Park = 6,
    /** Op granted to functional unit `unit` of class fu. Grant of
     *  a parked op is the paper's standby "wake". */
    Grant = 7,
    /** Taken branch or jump; pc = branch pc, a = target. */
    Branch = 8,
    /** Queue-register deposit; slot = producer, a = raw value. */
    QueuePush = 9,
    /** Queue-register pop; slot = consumer, a = raw value. */
    QueuePop = 10,
    /** Synthetic: queue-link occupancy; slot = producer link,
     *  a = entries resident. Emitted with Snapshot. */
    QueueState = 11,
    /** Data-absence trap (context switch out); pc = faulting
     *  address, a = remote latency. */
    Trap = 12,
    /** HALT retired; the context is finished. */
    Halt = 13,
    /** Run ended; cycle = final stats.cycles, a = instructions. */
    RunEnd = 14,
};

/** Number of distinct EventKind values (validation bound). */
constexpr int kNumEventKinds = 15;

/**
 * One pipeline event. POD, fixed width, trivially copyable — the
 * binary stream writes these fields verbatim (little-endian).
 */
struct Event
{
    Cycle cycle = 0;
    EventKind kind = EventKind::Snapshot;
    std::int8_t slot = -1;   ///< thread slot (or queue link)
    std::int8_t fu = -1;     ///< FuClass index, -1 = n/a
    std::int16_t unit = -1;  ///< granted unit / context frame
    std::uint32_t pc = 0;    ///< pc or address
    std::uint32_t insn = 0;  ///< encoded instruction word, 0 = n/a
    std::uint64_t a = 0;     ///< kind-specific payload
};

/** Stable lower-case name of an event kind ("issue", "grant"...). */
const char *eventKindName(EventKind kind);

/** Human-readable one-line rendering (no trailing newline). */
std::string formatEvent(const Event &ev);

/**
 * Receiver of pipeline events. Implementations must tolerate
 * events arriving with non-decreasing cycle numbers and may be
 * attached mid-run (the processor re-emits a state snapshot).
 */
class EventSink
{
  public:
    virtual ~EventSink();

    virtual void event(const Event &ev) = 0;

    /** Push buffered output down (stream sinks override). */
    virtual void flush() {}
};

/** Pack a priority ring (≤16 slots) into 4-bit nibbles, highest
 *  priority in the low nibble. Returns ~0ull when it can't fit. */
std::uint64_t packRing(const int *ring, int n);

/** Inverse of packRing into @p out[n]. */
void unpackRing(std::uint64_t packed, int *out, int n);

} // namespace smtsim::obs

#endif // SMTSIM_OBS_EVENT_HH
