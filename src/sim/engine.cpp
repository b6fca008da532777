#include "sim/engine.hpp"

#include "metrics/metrics.hpp"

namespace irmc {

Cycles Engine::RunToQuiescence() {
  while (queue_.RunNext()) {
  }
  return queue_.Now();
}

bool Engine::RunUntil(Cycles deadline) {
  while (queue_.RunNext(deadline)) {
  }
  return queue_.Empty();
}

void Engine::CollectMetrics(MetricsRegistry& reg) const {
  reg.GetCounter("sim.events").Add(
      static_cast<std::int64_t>(events_executed()));
  reg.GetGauge("sim.end_time", GaugeMode::kMax)
      .Set(static_cast<double>(Now()));
}

}  // namespace irmc
