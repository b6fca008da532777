#include "sim/engine.hpp"

#include "metrics/metrics.hpp"

namespace irmc {
namespace {

constexpr MetricSpec kSimMetrics[] = {
    {MetricKind::kCounter, "sim.events"},
    {MetricKind::kGauge, "sim.end_time", GaugeMode::kMax},
};

}  // namespace

// Defaulted out of line, so user-provided (see the header).
Engine::Engine() = default;

Cycles Engine::RunToQuiescence() {
  queue_.RunUntil(kNever);
  return queue_.Now();
}

bool Engine::RunUntil(Cycles deadline) {
  queue_.RunUntil(deadline);
  return queue_.Empty();
}

void Engine::CollectMetrics(MetricsRegistry& reg) const {
  const MetricSlots slots = reg.Bind(kSimMetrics);
  slots.counter(0).Add(static_cast<std::int64_t>(events_executed()));
  slots.gauge(1).Set(static_cast<double>(Now()));
}

}  // namespace irmc
