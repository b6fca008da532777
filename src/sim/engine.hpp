// Simulation engine: event queue plus run-control helpers.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>

#include "sim/event_queue.hpp"

namespace irmc {

class MetricsRegistry;

/// Thin facade over EventQueue used by all models. Provides relative
/// scheduling and bounded runs (run-until-time / run-until-quiescent).
/// A fresh Engine allocates nothing (the event queue's storage is
/// allocated on the first event, sized by ReserveEvents); it is
/// ~16.7 KB, held on the stack or inside a per-trial object.
class Engine {
 public:
  /// User-provided, so even a value-initialised Engine (`Engine{}`,
  /// std::optional::emplace, std::make_unique) leaves the event queue's
  /// bucket ring unwritten.
  Engine();

  Cycles Now() const { return queue_.Now(); }

  /// Schedule `fn` (an EventQueue::Action or a callable one can hold)
  /// `delay` cycles from now (delay >= 0).
  template <class F>
  void ScheduleAfter(Cycles delay, F&& fn) {
    IRMC_EXPECT(delay >= 0);
    queue_.ScheduleAt(Now() + delay, std::forward<F>(fn));
  }

  template <class F>
  void ScheduleAt(Cycles when, F&& fn) {
    queue_.ScheduleAt(when, std::forward<F>(fn));
  }

  /// Sizes the event arena's first allocation for `n` events pending
  /// at once (the largest request wins). Allocates nothing; after the
  /// first event it has no effect.
  void ReserveEvents(std::size_t n) { queue_.ReserveSlots(n); }

  /// Run until no events remain. Returns the final time.
  Cycles RunToQuiescence();

  /// Run until simulated time would exceed `deadline`; events at exactly
  /// `deadline` still run. Returns true if the queue drained first.
  bool RunUntil(Cycles deadline);

  /// Runs the next event alone (tests check state between events).
  /// Returns false, running nothing, when no events remain.
  bool Step() { return queue_.RunNext(); }

  std::uint64_t events_executed() const { return queue_.executed(); }
  bool Idle() const { return queue_.Empty(); }

  /// Folds this engine's run totals into `reg`: `sim.events` (events
  /// dispatched) and `sim.end_time` (final simulated time, max across
  /// trials). Called once per run, not per event — the hot loop stays
  /// untouched — and binds its two names once per registry.
  void CollectMetrics(MetricsRegistry& reg) const;

 private:
  EventQueue queue_;
};

}  // namespace irmc
