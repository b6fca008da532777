#include "workloads/dsm.hpp"

#include <memory>
#include <unordered_map>
#include <vector>

#include "common/rng.hpp"
#include "core/executor.hpp"
#include "core/trial.hpp"
#include "core/trial_setup.hpp"
#include "mcast/binomial.hpp"
#include "mcast/scheme.hpp"
#include "topology/system.hpp"

namespace irmc {
namespace {

/// One topology's worth of DSM traffic.
class DsmRun {
 public:
  DsmRun(const SimConfig& cfg, SchemeKind scheme, const DsmParams& params,
         const System& sys, std::uint64_t seed, Tracer* tracer,
         MetricsRegistry* metrics)
      : cfg_(cfg),
        params_(params),
        sys_(sys),
        driver_(engine_, sys, cfg, tracer, metrics),
        scheme_(MakeScheme(scheme, cfg.host)),
        rng_(seed) {
    IRMC_EXPECT(params.sharers_per_line < sys.num_nodes());
    // Fix the directory: each line's sharer set is drawn once.
    sharers_.reserve(static_cast<std::size_t>(params.num_lines));
    for (int line = 0; line < params.num_lines; ++line) {
      auto draw = rng_.SampleWithoutReplacement(sys.num_nodes(),
                                                params.sharers_per_line);
      std::vector<NodeId> set;
      for (auto n : draw) set.push_back(static_cast<NodeId>(n));
      sharers_.push_back(std::move(set));
    }
    for (NodeId n = 0; n < sys.num_nodes(); ++n) {
      writer_rng_.push_back(rng_.Fork());
      ScheduleWrite(n);
    }
  }

  void Run() { engine_.RunUntil(params_.horizon * 2); }

  void CollectMetrics(MetricsRegistry& reg) {
    engine_.CollectMetrics(reg);
    driver_.network().CollectMetrics(engine_.Now());
  }

  const SampleSet& latencies() const { return latencies_; }
  long started() const { return started_; }
  long completed() const { return completed_; }

 private:
  struct Write {
    NodeId writer = kInvalidNode;
    Cycles start = 0;
    int acks_pending = 0;
    bool measured = false;
  };

  void ScheduleWrite(NodeId n) {
    Rng& rng = writer_rng_[static_cast<std::size_t>(n)];
    const auto delay = std::max<Cycles>(
        1, static_cast<Cycles>(rng.NextExponential(params_.write_interarrival)));
    engine_.ScheduleAfter(delay, [this, n]() {
      if (engine_.Now() >= params_.horizon) return;
      StartWrite(n);
      ScheduleWrite(n);
    });
  }

  void StartWrite(NodeId writer) {
    Rng& rng = writer_rng_[static_cast<std::size_t>(writer)];
    const auto& line =
        sharers_[rng.NextBelow(static_cast<std::uint64_t>(params_.num_lines))];
    // Invalidate every sharer except the writer itself.
    std::vector<NodeId> dests;
    for (NodeId s : line)
      if (s != writer) dests.push_back(s);
    if (dests.empty()) return;  // writer was the only sharer

    const std::int64_t wid = next_write_++;
    Write& w = writes_[wid];
    w.writer = writer;
    w.start = engine_.Now();
    w.acks_pending = static_cast<int>(dests.size());
    w.measured = w.start >= params_.warmup;
    if (w.measured) ++started_;

    McastPlan plan = scheme_->Plan(sys_, writer, dests, InvalShape(),
                                   cfg_.headers);
    plan.shape = InvalShape();
    driver_.Launch(
        std::move(plan), engine_.Now(), [](const MulticastResult&) {},
        [this, wid](NodeId sharer, Cycles when) { SendAck(wid, sharer, when); });
  }

  void SendAck(std::int64_t wid, NodeId sharer, Cycles when) {
    const Write& w = writes_.at(wid);
    // Short conventional unicast back to the writer.
    McastPlan ack = StarPlan(sys_, sharer, {w.writer});
    ack.shape = MessageShape{DsmParams::ack_flits, 1};
    driver_.Launch(std::move(ack), when,
                   [this, wid](const MulticastResult& r) {
                     OnAck(wid, r.completion);
                   });
  }

  void OnAck(std::int64_t wid, Cycles when) {
    Write& w = writes_.at(wid);
    IRMC_ENSURE(w.acks_pending > 0);
    if (--w.acks_pending == 0) {
      if (w.measured) {
        ++completed_;
        latencies_.Add(static_cast<double>(when - w.start));
      }
      writes_.erase(wid);
    }
  }

  MessageShape InvalShape() const {
    return MessageShape{params_.inval_flits, 1};
  }

  SimConfig cfg_;
  DsmParams params_;
  const System& sys_;
  Engine engine_;
  McastDriver driver_;
  std::unique_ptr<MulticastScheme> scheme_;
  Rng rng_;
  std::vector<Rng> writer_rng_;
  std::vector<std::vector<NodeId>> sharers_;
  std::unordered_map<std::int64_t, Write> writes_;
  std::int64_t next_write_ = 0;
  long started_ = 0;
  long completed_ = 0;
  SampleSet latencies_;
};

}  // namespace

DsmResult RunDsmInvalidation(const SimConfig& cfg, SchemeKind scheme,
                             const DsmParams& params) {
  // Trial = one DSM topology replica (core/trial.hpp): replicas run on
  // the parallel executor and merge in trial-index order.
  TrialOutcome merged = RunTrials(
      cfg, params.topologies, [&](const TrialContext& ctx) {
        TrialOutcome out;
        const TrialSetup setup =
            PrepareTrial(out, ctx, cfg.topology, true, params.tracer,
                         params.trace_cap);
        MetricsRegistry* reg = setup.metrics;
        Tracer* trace = setup.tracer;
        const auto& sys = setup.sys;
        DsmRun run(cfg, scheme, params, *sys,
                   cfg.seed * 6151 +
                       static_cast<std::uint64_t>(ctx.trial_index),
                   trace, reg);
        run.Run();
        run.CollectMetrics(*reg);
        out.launched = run.started();
        out.completed = run.completed();
        out.samples = run.latencies();
        return out;
      });
  if (params.tracer != nullptr) params.tracer->Append(merged.trace);

  DsmResult out;
  out.writes_started = merged.launched;
  out.writes_completed = merged.completed;
  if (merged.samples.count() > 0) {
    out.mean_write_latency = merged.samples.Mean();
    out.p95_write_latency = merged.samples.Quantile(0.95);
  }
  out.metrics = std::move(merged.metrics);
  return out;
}

}  // namespace irmc
