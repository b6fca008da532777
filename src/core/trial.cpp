#include "core/trial.hpp"

#include <vector>

#include "common/expect.hpp"
#include "core/parallel.hpp"

namespace irmc {

void TrialOutcome::Merge(const TrialOutcome& other) {
  latency.Merge(other.latency);
  samples.Merge(other.samples);
  launched += other.launched;
  completed += other.completed;
  util_sum += other.util_sum;
  events += other.events;
  metrics.Merge(other.metrics);
  trace.Append(other.trace);
}

TrialOutcome RunTrials(const SimConfig& cfg, int count, const TrialFn& fn) {
  IRMC_EXPECT(count >= 1);
  std::vector<TrialOutcome> slots(static_cast<std::size_t>(count));
  const ParallelExecutor exec(ParallelThreads());
  exec.ForIndex(count, [&](int i) {
    TrialContext ctx;
    ctx.cfg = &cfg;
    ctx.trial_index = i;
    ctx.derived_seed = cfg.seed + static_cast<std::uint64_t>(i);
    slots[static_cast<std::size_t>(i)] = fn(ctx);
  });
  TrialOutcome merged;
  for (const TrialOutcome& slot : slots) merged.Merge(slot);
  return merged;
}

}  // namespace irmc
