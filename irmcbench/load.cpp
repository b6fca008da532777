// load_vct and load_flit: the open-loop traffic of paper fig9-fig11.
//
// The generator reproduces RunLoadSweepPoint's arrival process exactly:
// per-host Rng streams forked from `seed * 104729 + replica`, exponential
// interarrivals with one pending arrival per host, uniform destination
// sets of degree 8, generation until the horizon, and a drain to twice
// the horizon. The arrivals are drawn up front in Setup() and replayed
// through the same scheduling order, so the simulated results are
// bit-identical to the library runner's (the gate checks this).
#include <algorithm>
#include <memory>

#include "bench.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "core/load_runner.hpp"
#include "core/trial.hpp"
#include "core/trial_setup.hpp"
#include "mcast/scheme.hpp"
#include "topology/system_builder.hpp"

namespace irmcbench {
namespace {

using namespace irmc;

/// Each scheme's highest load whose mean latency does not grow with the
/// horizon (README.md, stable-load table), in kSchemes order.
constexpr std::array<double, kNumSchemes> kStableLoad = {0.05, 0.10, 0.10,
                                                         0.05};
constexpr int kDegree = 8;
constexpr Cycles kWarmup = 20'000;

struct LoadParams {
  EngineKind engine = EngineKind::kVct;
  Cycles horizon = 0;  ///< generation stops here; the drain runs to 2x
  int replicas = 0;    ///< topology replicas per scheme
  Cycles slice = 0;    ///< simulated cycles per Engine::RunUntil call
};

/// One host's arrivals: arrival k fires at times[k] and multicasts to
/// dests[k * kDegree, (k + 1) * kDegree). The last time is at or past the
/// horizon and launches nothing, as in RunLoadSweepPoint.
struct HostStream {
  std::vector<Cycles> times;
  std::vector<NodeId> dests;
};

/// One trial: one topology replica of one scheme.
struct TrialInput {
  int scheme = 0;
  std::uint64_t topo_seed = 0;
  std::vector<HostStream> hosts;
};

struct TrialOut {
  Digest digest;
  long launched = 0;
  long completed = 0;
  long wrong = 0;  ///< completed with a wrong delivery set
  long launched_measured = 0;
  long completed_measured = 0;
  SampleSet latencies;  ///< measured multicasts (launched after warmup)
  double util = 0.0;
  std::uint64_t events = 0;
  std::int64_t backlog_max = 0;
  int live_max = 0;
  std::vector<double> op_us;
  MetricsRegistry metrics;
};

/// One trial's engine, driver, and arrival replay.
class TrialRun {
 public:
  TrialRun(const LoadParams& p, const SimConfig& cfg, const System& sys,
           const MulticastScheme& scheme, const TrialInput& in,
           MetricsRegistry* reg, SpanLog* log, TrialOut& out)
      : p_(p),
        cfg_(cfg),
        sys_(sys),
        scheme_(scheme),
        in_(in),
        log_(log),
        out_(out),
        driver_(engine_, sys, cfg, nullptr, reg),
        next_(in.hosts.size(), 0) {
    for (NodeId n = 0; n < static_cast<NodeId>(in.hosts.size()); ++n)
      ScheduleArrival(n);
  }

  void Run(std::int32_t trial_span) {
    const Cycles end = 2 * p_.horizon;
    Cycles until = 0;
    bool drained = false;
    while (!drained && until < end) {
      until = std::min(until + p_.slice, end);
      const std::int64_t t0 = NowNs();
      {
        const ScopedSpan span(log_, Layer::kRunSlice, trial_span);
        slice_span_ = span.id();
        drained = engine_.RunUntil(until);
      }
      out_.op_us.push_back(static_cast<double>(NowNs() - t0) * 1e-3);
      out_.backlog_max =
          std::max(out_.backlog_max, driver_.network().TotalBacklog());
      out_.live_max = std::max(out_.live_max, driver_.live_multicasts());
    }
  }

  void Finish(MetricsRegistry* reg) {
    if (reg != nullptr) {
      engine_.CollectMetrics(*reg);
      driver_.network().CollectMetrics(engine_.Now());
    }
    out_.util = driver_.network().MaxLinkUtilization(engine_.Now());
    out_.events = engine_.events_executed();
  }

 private:
  void ScheduleArrival(NodeId n) {
    const std::uint32_t k = next_[static_cast<std::size_t>(n)];
    engine_.ScheduleAt(in_.hosts[static_cast<std::size_t>(n)].times[k],
                       [this, n]() { OnArrival(n); });
  }

  void OnArrival(NodeId n) {
    if (engine_.Now() >= p_.horizon) return;  // generation stops
    const std::uint32_t k = next_[static_cast<std::size_t>(n)];
    const NodeId* d =
        &in_.hosts[static_cast<std::size_t>(n)].dests[k * kDegree];
    const std::vector<NodeId> dests(d, d + kDegree);
    McastPlan plan;
    {
      const ScopedSpan span(log_, Layer::kPlan, slice_span_);
      plan = scheme_.Plan(sys_, n, dests, cfg_.message, cfg_.headers);
    }
    const Cycles start = engine_.Now();
    ++out_.launched;
    if (start >= kWarmup) ++out_.launched_measured;
    {
      const ScopedSpan span(log_, Layer::kLaunch, slice_span_);
      driver_.Launch(std::move(plan), start,
                     [this, n, k](const MulticastResult& r) {
                       OnDone(n, k, r);
                     });
    }
    next_[static_cast<std::size_t>(n)] = k + 1;
    ScheduleArrival(n);
  }

  void OnDone(NodeId n, std::uint32_t k, const MulticastResult& r) {
    ++out_.completed;
    const NodeId* want =
        &in_.hosts[static_cast<std::size_t>(n)].dests[k * kDegree];
    if (!DeliveredExactlyOnce(r, want, kDegree)) ++out_.wrong;
    out_.digest.Mix(r);
    if (r.start >= kWarmup) {
      ++out_.completed_measured;
      out_.latencies.Add(static_cast<double>(r.Latency()));
    }
  }

  const LoadParams& p_;
  const SimConfig& cfg_;
  const System& sys_;
  const MulticastScheme& scheme_;
  const TrialInput& in_;
  SpanLog* log_;
  TrialOut& out_;
  Engine engine_;
  McastDriver driver_;
  std::vector<std::uint32_t> next_;  ///< per host: next arrival index
  std::int32_t slice_span_ = -1;
};

class LoadWorkload final : public Workload {
 public:
  LoadWorkload(const LoadParams& p, std::uint64_t seed) : p_(p), seed_(seed) {
    cfg_.engine = p.engine;
    cfg_.seed = seed;
  }

  void Setup(SpanLog* log) override {
    SystemBuilder::Global().Clear();
    systems_.clear();
    inputs_.clear();
    for (int s = 0; s < kNumSchemes; ++s)
      schemes_[static_cast<std::size_t>(s)] =
          MakeScheme(kSchemes[static_cast<std::size_t>(s)], cfg_.host);
    const double flits = static_cast<double>(cfg_.message.TotalFlits());
    for (int s = 0; s < kNumSchemes; ++s) {
      const double mean = kDegree * flits / kStableLoad[s];
      for (int r = 0; r < p_.replicas; ++r) {
        TrialInput in;
        in.scheme = s;
        in.topo_seed = seed_ + static_cast<std::uint64_t>(r);
        {
          const ScopedSpan span(log, Layer::kTopology, -1);
          systems_.push_back(
              SystemBuilder::Global().Build(cfg_.topology, in.topo_seed));
        }
        const NodeId hosts = systems_.back()->num_nodes();
        Rng seeder(seed_ * 104729 + static_cast<std::uint64_t>(r));
        in.hosts.resize(static_cast<std::size_t>(hosts));
        for (NodeId n = 0; n < hosts; ++n) {
          HostStream& hs = in.hosts[static_cast<std::size_t>(n)];
          Rng rng = seeder.Fork();
          Cycles t = 0;
          for (;;) {
            t += std::max<Cycles>(
                1, static_cast<Cycles>(rng.NextExponential(mean)));
            hs.times.push_back(t);
            if (t >= p_.horizon) break;
            for (auto d : rng.SampleWithoutReplacement(hosts - 1, kDegree))
              hs.dests.push_back(static_cast<NodeId>(d >= n ? d + 1 : d));
          }
        }
        inputs_.push_back(std::move(in));
      }
    }
  }

  BatchResult RunBatch(const BatchOptions& opt) override {
    const int trials = static_cast<int>(inputs_.size());
    std::vector<TrialOut> outs(static_cast<std::size_t>(trials));
    BatchResult res;
    res.trial_s.resize(static_cast<std::size_t>(trials));
    if (opt.traced) res.spans.resize(static_cast<std::size_t>(trials));
    const std::int64_t t0 = NowNs();
    RunTrials(cfg_, trials, [&](const TrialContext& ctx) {
      const std::int64_t start = NowNs();
      const auto i = static_cast<std::size_t>(ctx.trial_index);
      const TrialInput& in = inputs_[i];
      TrialOut& out = outs[i];
      SpanLog* log = opt.traced ? &res.spans[i] : nullptr;
      const ScopedSpan trial(log, Layer::kTrial, -1);
      TrialOutcome outcome;
      TrialContext replica = ctx;
      replica.derived_seed = in.topo_seed;
      TrialSetup setup;
      {
        const ScopedSpan span(log, Layer::kTopology, trial.id());
        setup = PrepareTrial(outcome, replica, cfg_.topology, opt.metrics,
                             nullptr, 0);
      }
      std::unique_ptr<TrialRun> run;
      {
        const ScopedSpan span(log, Layer::kDriverSetup, trial.id());
        run = std::make_unique<TrialRun>(
            p_, cfg_, *setup.sys,
            *schemes_[static_cast<std::size_t>(in.scheme)], in,
            setup.metrics, log, out);
      }
      run->Run(trial.id());
      run->Finish(setup.metrics);
      out.metrics = std::move(outcome.metrics);
      res.trial_s[i] = static_cast<double>(NowNs() - start) * 1e-9;
      return TrialOutcome{};
    });
    res.wall_s = static_cast<double>(NowNs() - t0) * 1e-9;

    Digest digest;
    std::array<SampleSet, kNumSchemes> latencies;
    std::array<long, kNumSchemes> measured{};
    for (std::size_t i = 0; i < outs.size(); ++i) {
      const TrialOut& out = outs[i];
      const auto s = static_cast<std::size_t>(inputs_[i].scheme);
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
      latencies[s].Merge(out.latencies);
      measured[s] += out.completed_measured;
      res.metrics[s].Merge(out.metrics);
    }
    res.digest = digest.value();

    // Delivered payload flits per host per cycle of the measured window,
    // normalised as RunLoadSweepPoint's achieved_throughput.
    double delivered = 0.0;
    for (int s = 0; s < kNumSchemes; ++s) {
      const SampleSet& lat = latencies[static_cast<std::size_t>(s)];
      const long done = measured[static_cast<std::size_t>(s)];
      res.latency_mean[static_cast<std::size_t>(s)] =
          lat.count() > 0 ? lat.Mean() : 0.0;
      delivered += static_cast<double>(done) * kDegree *
                   static_cast<double>(cfg_.message.TotalFlits());
      res.fidelity.push_back(static_cast<double>(done));
      res.fidelity.push_back(lat.count() > 0 ? lat.Mean() : 0.0);
      res.fidelity.push_back(lat.count() > 0 ? lat.Quantile(0.95) : 0.0);
    }
    res.throughput =
        delivered / (static_cast<double>(p_.horizon - kWarmup) *
                     static_cast<double>(cfg_.topology.num_hosts) *
                     static_cast<double>(trials));
    return res;
  }

  std::vector<double> ReferenceFidelity() const override {
    std::vector<double> out;
    for (int s = 0; s < kNumSchemes; ++s) {
      LoadRunSpec spec;
      spec.cfg = cfg_;
      spec.scheme = kSchemes[static_cast<std::size_t>(s)];
      spec.degree = kDegree;
      spec.effective_load = kStableLoad[static_cast<std::size_t>(s)];
      spec.warmup = kWarmup;
      spec.horizon = p_.horizon;
      spec.topologies = p_.replicas;
      const LoadRunResult r = RunLoadSweepPoint(spec);
      out.push_back(static_cast<double>(r.completed));
      out.push_back(r.mean_latency);
      out.push_back(r.p95_latency);
    }
    return out;
  }

  std::vector<std::string> FidelityNames() const override {
    std::vector<std::string> names;
    for (SchemeKind k : kSchemes) {
      for (const char* what : {"completed", "mean", "p95"})
        names.push_back(std::string(ToString(k)) + "." + what);
    }
    return names;
  }

 private:
  LoadParams p_;
  std::uint64_t seed_;
  SimConfig cfg_;
  std::array<std::unique_ptr<MulticastScheme>, kNumSchemes> schemes_;
  /// Holds every System a batch uses, whatever the cache evicts.
  std::vector<std::shared_ptr<const System>> systems_;
  std::vector<TrialInput> inputs_;  ///< scheme-major, then replica
};

}  // namespace

std::unique_ptr<Workload> MakeLoadWorkload(bool flit, std::uint64_t seed,
                                           bool gate) {
  LoadParams p;
  p.engine = flit ? EngineKind::kFlit : EngineKind::kVct;
  if (gate) {
    p.horizon = 60'000;
    p.replicas = 1;
  } else {
    p.horizon = flit ? 300'000 : 1'000'000;
    p.replicas = 8;
  }
  p.slice = 5'000;
  return std::make_unique<LoadWorkload>(p, seed);
}

}  // namespace irmcbench
