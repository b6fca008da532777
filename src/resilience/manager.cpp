#include "resilience/manager.hpp"

#include <cstdio>

#include "common/expect.hpp"
#include "topology/system_builder.hpp"
#include "verify/deadlock.hpp"

namespace irmc {
namespace {

constexpr MetricSpec kResilienceMetrics[] = {
    {MetricKind::kCounter, "resilience.faults"},
    {MetricKind::kCounter, "resilience.reconfigs"},
    {MetricKind::kCounter, "resilience.reconfig_cycles"},
};

}  // namespace

ResilienceManager::ResilienceManager(Engine& engine, NetworkModel& network,
                                     const System& base, const SimConfig& cfg,
                                     Tracer* tracer, MetricsRegistry* metrics,
                                     SwapFn on_swap)
    : engine_(engine),
      network_(network),
      cfg_(cfg),
      tracer_(tracer) {
  if (metrics) {
    const MetricSlots slots = metrics->Bind(kResilienceMetrics);
    m_faults_ = &slots.counter(0);
    m_reconfigs_ = &slots.counter(1);
    m_reconfig_cycles_ = &slots.counter(2);
  }
  on_swap_ = std::move(on_swap);

  schedule_ = cfg.resilience.schedule;
  if (cfg.resilience.mtbf > 0.0) {
    const auto random =
        ScheduleFromMtbf(base.graph, cfg.resilience.mtbf,
                         ResilienceParams::max_random_faults, cfg.seed);
    schedule_.insert(schedule_.end(), random.begin(), random.end());
  }
  SortSchedule(schedule_);
  // SurvivingGraphs aborts on an unsurvivable schedule — a bridge fault
  // cannot be reconfigured around, so refusing the run beats silently
  // stranding destinations.
  graphs_ = SurvivingGraphs(base.graph, schedule_);

  for (int i = 0; i < static_cast<int>(schedule_.size()); ++i)
    engine_.ScheduleAt(schedule_[static_cast<std::size_t>(i)].at,
                       [this, i]() { InjectFault(i); });
}

Cycles ResilienceManager::SafeRepairTime(Cycles now) const {
  return pending_swaps_ > 0 ? std::max(now, last_swap_at_) : now;
}

void ResilienceManager::InjectFault(int index) {
  const TimedFault& f = schedule_[static_cast<std::size_t>(index)];
  network_.FailLink(f.sw, f.port);
  if (tracer_)
    tracer_->Record(TraceEvent{engine_.Now(), TraceKind::kFault, -1, 0, f.sw,
                               f.port});
  if (m_faults_) m_faults_->Add();
  last_fault_index_ = index;
  ++pending_swaps_;
  const Cycles swap_at = engine_.Now() + ResilienceParams::detection_delay +
                         cfg_.resilience.reconfig_delay;
  last_swap_at_ = std::max(last_swap_at_, swap_at);
  engine_.ScheduleAt(swap_at, [this, index]() { ApplySwap(index); });
}

void ResilienceManager::ApplySwap(int index) {
  --pending_swaps_;
  // A later fault arrived before this rebuild finished: Autonet restarts
  // reconfiguration on the new failure, so only the latest rebuild —
  // which sees every fault so far — swaps in.
  if (index != last_fault_index_) return;

  rebuilt_.push_back(SystemBuilder::Global().FromGraph(
      graphs_[static_cast<std::size_t>(index)]));
  const System& sys = *rebuilt_.back();
  if (cfg_.resilience.verify_reconfig) {
    verify::DeadlockSpec spec;
    spec.engine = cfg_.engine;
    spec.net = cfg_.net;
    spec.payload_flits = cfg_.message.packet_flits;
    spec.headers = cfg_.headers;
    const verify::VerifyReport report = verify::VerifySystem(
        sys, "post-reconfig (fault " + std::to_string(index) + ")", spec);
    if (!report.pass()) {
      std::fprintf(stderr, "%s", verify::Render(report).c_str());
      IRMC_ENSURE(false && "reconfigured System failed verification");
    }
  }
  network_.SwapSystem(sys);
  if (on_swap_) on_swap_(sys);
  if (m_reconfigs_) {
    m_reconfigs_->Add();
    m_reconfig_cycles_->Add(ResilienceParams::detection_delay +
                            cfg_.resilience.reconfig_delay);
  }
}

}  // namespace irmc
