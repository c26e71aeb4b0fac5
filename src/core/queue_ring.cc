#include "queue_ring.hh"

#include <stdexcept>

#include "base/logging.hh"

namespace smtsim
{

QueueRing::QueueRing(int num_slots, int depth)
    : links_(static_cast<size_t>(num_slots)), depth_(depth)
{
    SMTSIM_ASSERT(num_slots >= 1 && depth >= 1,
                  "bad queue ring shape");
}

const QueueRing::Link &
QueueRing::linkInto(int consumer_slot) const
{
    const int n = static_cast<int>(links_.size());
    return links_[(consumer_slot + n - 1) % n];
}

QueueRing::Link &
QueueRing::linkInto(int consumer_slot)
{
    const int n = static_cast<int>(links_.size());
    return links_[(consumer_slot + n - 1) % n];
}

bool
QueueRing::canPop(int consumer_slot, int count) const
{
    return static_cast<int>(linkInto(consumer_slot).fifo.size()) >=
           count;
}

std::uint64_t
QueueRing::pop(int consumer_slot)
{
    Link &link = linkInto(consumer_slot);
    SMTSIM_ASSERT(!link.fifo.empty(), "pop from empty queue link");
    const std::uint64_t v = link.fifo.front();
    link.fifo.pop_front();
    return v;
}

bool
QueueRing::canReserve(int producer_slot) const
{
    const Link &link = links_[producer_slot];
    return static_cast<int>(link.fifo.size()) + link.reserved <
           depth_;
}

void
QueueRing::reserve(int producer_slot)
{
    Link &link = links_[producer_slot];
    SMTSIM_ASSERT(static_cast<int>(link.fifo.size()) + link.reserved <
                      depth_,
                  "queue link over-reserved");
    ++link.reserved;
}

void
QueueRing::push(int producer_slot, std::uint64_t value)
{
    Link &link = links_[producer_slot];
    SMTSIM_ASSERT(link.reserved > 0, "push without reservation");
    --link.reserved;
    link.fifo.push_back(value);
}

void
QueueRing::unreserve(int producer_slot)
{
    Link &link = links_[producer_slot];
    SMTSIM_ASSERT(link.reserved > 0, "unreserve without reservation");
    --link.reserved;
}

void
QueueRing::clear()
{
    for (Link &link : links_) {
        link.fifo.clear();
        link.reserved = 0;
    }
}

void
QueueRing::serialize(obs::ByteWriter &w) const
{
    w.u32(static_cast<std::uint32_t>(links_.size()));
    for (const Link &link : links_) {
        w.u32(static_cast<std::uint32_t>(link.fifo.size()));
        for (std::uint64_t v : link.fifo)
            w.u64(v);
        w.i32(link.reserved);
    }
}

void
QueueRing::deserialize(obs::ByteReader &r)
{
    const std::uint32_t n = r.u32();
    if (n != links_.size())
        throw std::runtime_error(
            "checkpoint: queue-ring shape mismatch");
    for (Link &link : links_) {
        link.fifo.clear();
        const std::uint32_t m = r.u32();
        for (std::uint32_t i = 0; i < m; ++i)
            link.fifo.push_back(r.u64());
        link.reserved = r.i32();
    }
}

} // namespace smtsim
