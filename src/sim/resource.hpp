// Serially-reusable resources for the host/NI/fabric models.
//
// Two flavours cover everything the models need:
//
//  * TimelineResource — a FIFO server whose hold time is known at request
//    time (host CPU running an overhead, the I/O bus DMA-ing a packet, a
//    link streaming a packet). Because every request is issued from an
//    event, "start = max(now, free_at)" yields exact FIFO service order
//    without storing a queue.
//
//  * CountingResource — a pool of identical slots (VCT input-buffer slots)
//    whose release time is not known at acquire time. Waiters are granted
//    in FIFO order as slots free up.
#pragma once

#include <cstdint>
#include <utility>

#include "common/expect.hpp"
#include "common/fifo.hpp"
#include "common/types.hpp"
#include "sim/engine.hpp"

namespace irmc {

class TimelineResource {
 public:
  /// Reserve the resource for `hold` cycles starting no earlier than
  /// `earliest`. Returns the service start time. The resource is busy
  /// until (returned start) + hold.
  Cycles Reserve(Cycles earliest, Cycles hold) {
    IRMC_EXPECT(hold >= 0);
    const Cycles start = earliest > free_at_ ? earliest : free_at_;
    free_at_ = start + hold;
    busy_total_ += hold;
    return start;
  }

  Cycles free_at() const { return free_at_; }
  /// Total busy cycles reserved so far (utilisation accounting).
  Cycles busy_total() const { return busy_total_; }

 private:
  Cycles free_at_ = 0;
  Cycles busy_total_ = 0;
};

/// Move-only: queued waiters are move-only EventQueue::Actions.
class CountingResource {
 public:
  explicit CountingResource(int slots) : available_(slots) {
    IRMC_EXPECT(slots > 0);
  }
  CountingResource(CountingResource&&) noexcept = default;
  CountingResource& operator=(CountingResource&&) noexcept = default;
  CountingResource(const CountingResource&) = delete;
  CountingResource& operator=(const CountingResource&) = delete;

  /// Acquire one slot; `granted` (an EventQueue::Action or a callable one
  /// can hold) runs immediately (same timestamp) if a slot is free,
  /// otherwise when a slot is released, in FIFO order.
  template <class F>
  void Acquire(Engine& engine, F&& granted) {
    if (available_ > 0) {
      --available_;
      engine.ScheduleAfter(0, std::forward<F>(granted));
    } else {
      waiters_.emplace_back(std::forward<F>(granted));
      IRMC_EXPECT(static_cast<bool>(waiters_.back()));
    }
  }

  /// Return one slot; the oldest waiter (if any) is granted at the
  /// current timestamp.
  void Release(Engine& engine) {
    if (!waiters_.empty()) {
      auto granted = std::move(waiters_.front());
      waiters_.pop_front();
      engine.ScheduleAfter(0, std::move(granted));
    } else {
      ++available_;
    }
  }

  int available() const { return available_; }
  std::int64_t queue_length() const {
    return static_cast<std::int64_t>(waiters_.size());
  }

 private:
  int available_;
  Fifo<EventQueue::Action> waiters_;  ///< allocates on the first wait
};

}  // namespace irmc
