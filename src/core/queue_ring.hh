/**
 * @file
 * Queue registers (section 2.3.1): a ring of FIFO links between
 * logical processors, used to pass loop-carried values without going
 * through memory. Link i carries data from logical processor i to
 * logical processor (i+1) mod S. Full/empty state acts as the
 * scoreboard bits that interlock the decode units.
 */

#ifndef SMTSIM_CORE_QUEUE_RING_HH
#define SMTSIM_CORE_QUEUE_RING_HH

#include <cstdint>
#include <deque>
#include <vector>

#include "base/types.hh"
#include "obs/serial.hh"

namespace smtsim
{

/** The ring of queue-register FIFOs. */
class QueueRing
{
  public:
    QueueRing(int num_slots, int depth);

    /** Can @p consumer_slot pop @p count values this cycle? */
    bool canPop(int consumer_slot, int count) const;

    /** Pop the next value arriving at @p consumer_slot. */
    std::uint64_t pop(int consumer_slot);

    /**
     * Will the producer's link accept one more value, counting
     * reservations of in-flight writers?
     */
    bool canReserve(int producer_slot) const;

    /** Reserve one entry on the producer's link (at issue time). */
    void reserve(int producer_slot);

    /** Deposit a value, consuming one reservation (at write-back). */
    void push(int producer_slot, std::uint64_t value);

    /** Drop one reservation without pushing (flush of a writer). */
    void unreserve(int producer_slot);

    /** Empty all links and reservations (kill-threads semantics). */
    void clear();

    int depth() const { return depth_; }

    /** Number of links (== number of slots). */
    int numLinks() const { return static_cast<int>(links_.size()); }

    /** Values resident on link @p link (slot link -> link+1). */
    int
    sizeOf(int link) const
    {
        return static_cast<int>(links_[link].fifo.size());
    }

    /** Entries reserved on link @p link by in-flight writers. */
    int reservedOn(int link) const { return links_[link].reserved; }

    /** Checkpoint support (docs/OBSERVABILITY.md). */
    void serialize(obs::ByteWriter &w) const;
    void deserialize(obs::ByteReader &r);

  private:
    struct Link
    {
        std::deque<std::uint64_t> fifo;
        int reserved = 0;
    };

    /** Link feeding @p consumer_slot (its ring predecessor's link). */
    const Link &linkInto(int consumer_slot) const;
    Link &linkInto(int consumer_slot);

    std::vector<Link> links_;   ///< links_[i]: slot i -> slot i+1
    int depth_;
};

} // namespace smtsim

#endif // SMTSIM_CORE_QUEUE_RING_HH
