// single_sweep: the single-multicast grid of paper fig6-fig8.
//
// The grid is the union of the three figures' panels: R in {0.5, 1, 2,
// 4}, switches in {8, 16, 32} (32 nodes), message length in {128, 256,
// 512, 1024} flits, each varied alone from the defaults (9 distinct
// configurations), times the figures' six multicast sizes and all four
// schemes. Every sample is planned and played on a fresh Engine +
// McastDriver, as PlayOnce does, and the draws follow RunSingleMulticast
// (`Rng(seed * 7919 + topology)`), so a cell's mean is bit-identical to
// the library runner's (the gate checks one cell).
#include <algorithm>
#include <memory>
#include <optional>

#include "bench.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "core/single_runner.hpp"
#include "core/trial.hpp"
#include "core/trial_setup.hpp"
#include "mcast/scheme.hpp"
#include "topology/system_builder.hpp"

namespace irmcbench {
namespace {

using namespace irmc;

constexpr std::array<int, 6> kSizes = {2, 4, 8, 15, 23, 31};
constexpr int kNumSizes = static_cast<int>(kSizes.size());
/// Simulated cycles per Engine::RunUntil call; a sample takes 2k-100k
/// cycles.
constexpr Cycles kSlice = 2'000;
/// A sample still running after this many cycles counts as failed.
constexpr Cycles kMaxCycles = 50'000'000;
/// The cell the fidelity check compares with RunSingleMulticast: the
/// default configuration, tree-worm, 8 destinations.
constexpr int kFidelityScheme = 2;
constexpr int kFidelitySize = 2;

std::vector<SimConfig> MakeGrid(std::uint64_t seed) {
  std::vector<SimConfig> grid(1);
  for (double r : {0.5, 2.0, 4.0}) {
    grid.emplace_back();
    grid.back().host.SetRatio(r);
  }
  for (int switches : {16, 32}) {
    grid.emplace_back();
    grid.back().topology.num_switches = switches;
  }
  for (int flits : {256, 512, 1024}) {
    grid.emplace_back();
    grid.back().message = MessageShape::FromMessageFlits(flits, 128);
  }
  for (SimConfig& cfg : grid) cfg.seed = seed;
  return grid;
}

struct TrialOut {
  Digest digest;
  long launched = 0;
  long completed = 0;
  long wrong = 0;
  StreamingStats latency;
  double flits = 0.0;          ///< delivered payload flits
  double latency_cycles = 0.0; ///< summed latency
  double util = 0.0;
  std::uint64_t events = 0;
  std::int64_t backlog_max = 0;
  int live_max = 0;
  std::vector<double> op_us;
  MetricsRegistry metrics;
};

class SingleSweepWorkload final : public Workload {
 public:
  SingleSweepWorkload(std::uint64_t seed, int topologies, int samples)
      : seed_(seed),
        topologies_(topologies),
        samples_(samples),
        grid_(MakeGrid(seed)) {}

  void Setup(SpanLog* log) override {
    SystemBuilder::Global().Clear();
    systems_.clear();
    // The k-binomial planner's k choice depends on the host parameters,
    // so each configuration gets its own planners.
    schemes_.clear();
    for (const SimConfig& cfg : grid_) {
      for (SchemeKind kind : kSchemes)
        schemes_.push_back(MakeScheme(kind, cfg.host));
    }
    // Every configuration asks for its topologies, as each figure cell's
    // RunSingleMulticast does; those sharing a switch count hit the cache.
    for (const SimConfig& cfg : grid_) {
      for (int t = 0; t < topologies_; ++t) {
        const ScopedSpan span(log, Layer::kTopology, -1);
        systems_.push_back(SystemBuilder::Global().Build(
            cfg.topology, seed_ + static_cast<std::uint64_t>(t)));
      }
    }
    const int nodes = grid_[0].topology.num_hosts;
    draws_.assign(static_cast<std::size_t>(kNumSizes), {});
    for (int z = 0; z < kNumSizes; ++z) {
      for (int t = 0; t < topologies_; ++t) {
        Rng rng(seed_ * 7919 + static_cast<std::uint64_t>(t));
        std::vector<NodeId> draws;
        for (int k = 0; k < samples_; ++k) {
          for (auto n : rng.SampleWithoutReplacement(
                   nodes, kSizes[static_cast<std::size_t>(z)] + 1))
            draws.push_back(static_cast<NodeId>(n));
        }
        draws_[static_cast<std::size_t>(z)].push_back(std::move(draws));
      }
    }
  }

  BatchResult RunBatch(const BatchOptions& opt) override {
    const int cells = static_cast<int>(grid_.size()) * kNumSchemes * kNumSizes;
    const auto trials = static_cast<std::size_t>(cells * topologies_);
    std::vector<TrialOut> outs(trials);
    BatchResult res;
    res.trial_s.resize(trials);
    if (opt.traced) res.spans.resize(trials);
    const std::int64_t t0 = NowNs();
    for (int cell = 0; cell < cells; ++cell) {
      const int c = cell / (kNumSchemes * kNumSizes);
      const int s = cell / kNumSizes % kNumSchemes;
      const int z = cell % kNumSizes;
      const SimConfig& cfg = grid_[static_cast<std::size_t>(c)];
      const MulticastScheme& scheme =
          *schemes_[static_cast<std::size_t>(c * kNumSchemes + s)];
      const int size = kSizes[static_cast<std::size_t>(z)];
      RunTrials(cfg, topologies_, [&](const TrialContext& ctx) {
        const std::int64_t start = NowNs();
        const auto i = static_cast<std::size_t>(cell * topologies_ +
                                                ctx.trial_index);
        TrialOut& out = outs[i];
        SpanLog* log = opt.traced ? &res.spans[i] : nullptr;
        const ScopedSpan trial(log, Layer::kTrial, -1);
        TrialOutcome outcome;
        TrialSetup setup;
        {
          const ScopedSpan span(log, Layer::kTopology, trial.id());
          setup = PrepareTrial(outcome, ctx, cfg.topology, opt.metrics,
                               nullptr, 0);
        }
        const std::vector<NodeId>& draws =
            draws_[static_cast<std::size_t>(z)]
                  [static_cast<std::size_t>(ctx.trial_index)];
        for (int k = 0; k < samples_; ++k) {
          const NodeId* d = &draws[static_cast<std::size_t>(k * (size + 1))];
          PlaySample(cfg, *setup.sys, scheme, d[0], d + 1, size,
                     setup.metrics, log, trial.id(), out);
        }
        out.metrics = std::move(outcome.metrics);
        res.trial_s[i] = static_cast<double>(NowNs() - start) * 1e-9;
        return TrialOutcome{};
      });
    }
    res.wall_s = static_cast<double>(NowNs() - t0) * 1e-9;

    Digest digest;
    std::array<double, kNumSchemes> lat_sum{};
    std::array<long, kNumSchemes> lat_count{};
    StreamingStats fidelity_cell;
    double flits = 0.0;
    double latency_cycles = 0.0;
    for (std::size_t i = 0; i < outs.size(); ++i) {
      const TrialOut& out = outs[i];
      const int cell = static_cast<int>(i) / topologies_;
      const auto s = static_cast<std::size_t>(cell / kNumSizes % kNumSchemes);
      digest.Mix(out.digest.value());
      digest.Mix(out.events);
      res.launched += out.launched;
      res.completed += out.completed;
      res.failed += out.wrong + (out.launched - out.completed);
      res.events += out.events;
      res.max_link_util = std::max(res.max_link_util, out.util);
      res.backlog_max = std::max(res.backlog_max, out.backlog_max);
      res.live_max = std::max(res.live_max, out.live_max);
      res.op_us.insert(res.op_us.end(), out.op_us.begin(), out.op_us.end());
      lat_sum[s] += out.latency_cycles;
      lat_count[s] += static_cast<long>(out.latency.count());
      flits += out.flits;
      latency_cycles += out.latency_cycles;
      res.metrics[s].Merge(out.metrics);
      if (cell == kFidelityScheme * kNumSizes + kFidelitySize)
        fidelity_cell.Merge(out.latency);
    }
    res.digest = digest.value();
    for (std::size_t s = 0; s < kNumSchemes; ++s)
      res.latency_mean[s] =
          lat_count[s] > 0 ? lat_sum[s] / static_cast<double>(lat_count[s])
                           : 0.0;
    // Delivered payload flits per host per cycle while a multicast is in
    // flight.
    res.throughput =
        latency_cycles > 0.0
            ? flits / (latency_cycles *
                       static_cast<double>(grid_[0].topology.num_hosts))
            : 0.0;
    res.fidelity.push_back(fidelity_cell.mean());
    return res;
  }

  std::vector<double> ReferenceFidelity() const override {
    SingleRunSpec spec;
    spec.cfg = grid_[0];
    spec.scheme = kSchemes[kFidelityScheme];
    spec.multicast_size = kSizes[kFidelitySize];
    spec.topologies = topologies_;
    spec.samples_per_topology = samples_;
    return {RunSingleMulticast(spec).mean_latency};
  }

  std::vector<std::string> FidelityNames() const override {
    return {std::string(ToString(kSchemes[kFidelityScheme])) + ".size" +
            std::to_string(kSizes[kFidelitySize]) + ".mean"};
  }

 private:
  /// One sample: fresh Engine + McastDriver, plan, launch, run to
  /// quiescence in slices. Host time covers what PlayOnce does.
  static void PlaySample(const SimConfig& cfg, const System& sys,
                         const MulticastScheme& scheme, NodeId src,
                         const NodeId* dest_ptr, int size,
                         MetricsRegistry* reg, SpanLog* log,
                         std::int32_t trial_span, TrialOut& out) {
    const std::int64_t t0 = NowNs();
    Engine engine;
    std::optional<McastDriver> driver;
    {
      const ScopedSpan span(log, Layer::kDriverSetup, trial_span);
      driver.emplace(engine, sys, cfg, nullptr, reg);
    }
    const std::vector<NodeId> dests(dest_ptr, dest_ptr + size);
    McastPlan plan;
    {
      const ScopedSpan span(log, Layer::kPlan, trial_span);
      plan = scheme.Plan(sys, src, dests, cfg.message, cfg.headers);
    }
    std::optional<MulticastResult> result;
    {
      const ScopedSpan span(log, Layer::kLaunch, trial_span);
      driver->Launch(std::move(plan), 0,
                     [&result](const MulticastResult& r) { result = r; });
    }
    bool drained = false;
    for (Cycles until = kSlice; !drained && until <= kMaxCycles;
         until += kSlice) {
      {
        const ScopedSpan span(log, Layer::kRunSlice, trial_span);
        drained = engine.RunUntil(until);
      }
      out.backlog_max =
          std::max(out.backlog_max, driver->network().TotalBacklog());
      out.live_max = std::max(out.live_max, driver->live_multicasts());
    }
    if (reg != nullptr) {
      engine.CollectMetrics(*reg);
      driver->network().CollectMetrics(engine.Now());
    }
    out.op_us.push_back(static_cast<double>(NowNs() - t0) * 1e-3);

    out.util = std::max(out.util,
                        driver->network().MaxLinkUtilization(engine.Now()));
    out.events += engine.events_executed();
    ++out.launched;
    if (!result.has_value()) return;
    ++out.completed;
    if (!DeliveredExactlyOnce(*result, dest_ptr, size)) ++out.wrong;
    out.digest.Mix(*result);
    const auto latency = static_cast<double>(result->Latency());
    out.latency.Add(latency);
    out.latency_cycles += latency;
    out.flits += static_cast<double>(size) *
                 static_cast<double>(cfg.message.TotalFlits());
  }

  std::uint64_t seed_;
  int topologies_;
  int samples_;
  std::vector<SimConfig> grid_;
  /// Planners per (configuration, scheme).
  std::vector<std::unique_ptr<MulticastScheme>> schemes_;
  /// Holds every System a batch uses, whatever the cache evicts.
  std::vector<std::shared_ptr<const System>> systems_;
  /// draws_[size][topology]: samples x (source, destinations...).
  std::vector<std::vector<std::vector<NodeId>>> draws_;
};

}  // namespace

std::unique_ptr<Workload> MakeSingleSweepWorkload(std::uint64_t seed,
                                                  bool gate) {
  return gate ? std::make_unique<SingleSweepWorkload>(seed, 2, 1)
              : std::make_unique<SingleSweepWorkload>(seed, 10, 4);
}

}  // namespace irmcbench
