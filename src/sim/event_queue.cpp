#include "sim/event_queue.hpp"

#include <algorithm>
#include <bit>

namespace irmc {

namespace {

struct Later {
  template <class E>
  bool operator()(const E& a, const E& b) const {
    if (a.when != b.when) return a.when > b.when;
    return a.seq > b.seq;
  }
};

}  // namespace

// Defaulted out of line, so user-provided: value-initialisation runs it
// instead of zeroing buckets_ first.
EventQueue::EventQueue() = default;

std::uint32_t EventQueue::GrowSlots() {
  IRMC_EXPECT(slots_.size() < kNil);
  if (slots_.capacity() == 0) slots_.reserve(first_slots_);
  slots_.emplace_back();
  return static_cast<std::uint32_t>(slots_.size() - 1);
}

void EventQueue::PushOverflow(Cycles when, std::uint32_t id) {
  overflow_.push_back(Overflow{when, overflow_seq_++, id});
  std::push_heap(overflow_.begin(), overflow_.end(), Later{});
}

void EventQueue::Migrate() {
  while (!overflow_.empty() && overflow_.front().when - now_ < kWindow) {
    std::pop_heap(overflow_.begin(), overflow_.end(), Later{});
    const Overflow e = overflow_.back();
    overflow_.pop_back();
    Append(static_cast<std::size_t>(e.when) & kMask, e.slot);
  }
}

Cycles EventQueue::NextTime() const {
  // Every bucketed event precedes every overflow event, so the window
  // decides whenever it holds anything.
  if (in_window_ == 0) return overflow_.front().when;
  const std::size_t start = static_cast<std::size_t>(now_) & kMask;
  std::size_t w = start / 64;
  std::uint64_t bits = occupied_[w] & (~std::uint64_t{0} << (start % 64));
  for (std::size_t scanned = 0; bits == 0; ++scanned) {
    // A bucketed event sets its bucket's bit; past one full turn the
    // bookkeeping is broken, so stop rather than spin.
    IRMC_ENSURE(scanned < kWords);
    // Wrapping back to the start word finds the buckets below `start`,
    // which hold the latest times of the window.
    w = (w + 1) % kWords;
    bits = occupied_[w];
  }
  const std::size_t b =
      w * 64 + static_cast<std::size_t>(std::countr_zero(bits));
  return now_ + static_cast<Cycles>((b - start) & kMask);
}

inline void EventQueue::AdvanceTo(Cycles when) {
  IRMC_ENSURE(when >= now_);
  now_ = when;
  if (!overflow_.empty() && overflow_.front().when - now_ < kWindow)
    Migrate();
}

inline void EventQueue::RunHead(std::size_t b) {
  Bucket& bucket = buckets_[b];
  const std::uint32_t id = bucket.head;
  Slot& slot = slots_[id];
  bucket.head = slot.next;
  // Cleared before the action runs: an event it schedules at Now() then
  // starts the bucket afresh instead of trailing the recycled slot.
  if (bucket.head == kNil)
    occupied_[b / 64] &= ~(std::uint64_t{1} << (b % 64));
  --in_window_;
  ++executed_;
  // Recycle the slot, then run its action: RunOnce moves the callable
  // out before it runs, and the event may schedule into this very slot
  // or grow the arena.
  slot.next = free_;
  free_ = id;
  slot.action.RunOnce();
}

void EventQueue::RunUntil(Cycles deadline) {
  while (!Empty()) {
    const Cycles when = NextTime();
    if (when > deadline) return;
    AdvanceTo(when);
    const std::size_t b = static_cast<std::size_t>(when) & kMask;
    const std::uint64_t& word = occupied_[b / 64];
    const std::uint64_t bit = std::uint64_t{1} << (b % 64);
    do {
      RunHead(b);
    } while ((word & bit) != 0);
  }
}

bool EventQueue::RunNext(Cycles deadline) {
  if (Empty()) return false;
  const Cycles when = NextTime();
  if (when > deadline) return false;
  AdvanceTo(when);
  RunHead(static_cast<std::size_t>(when) & kMask);
  return true;
}

}  // namespace irmc
