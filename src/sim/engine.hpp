// Simulation engine: event queue plus run-control helpers.
#pragma once

#include <cstdint>
#include <utility>

#include "sim/event_queue.hpp"

namespace irmc {

class MetricsRegistry;

/// Thin facade over EventQueue used by all models. Provides relative
/// scheduling and bounded runs (run-until-time / run-until-quiescent).
class Engine {
 public:
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

  /// Run until no events remain. Returns the final time.
  Cycles RunToQuiescence();

  /// Run until simulated time would exceed `deadline`; events at exactly
  /// `deadline` still run. Returns true if the queue drained first.
  bool RunUntil(Cycles deadline);

  std::uint64_t events_executed() const { return queue_.executed(); }
  bool Idle() const { return queue_.Empty(); }

  /// Folds this engine's run totals into `reg`: `sim.events` (events
  /// dispatched) and `sim.end_time` (final simulated time, max across
  /// trials). Called once per trial, not per event — the hot loop stays
  /// untouched.
  void CollectMetrics(MetricsRegistry& reg) const;

 private:
  EventQueue queue_;
};

}  // namespace irmc
