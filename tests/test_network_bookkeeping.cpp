// The network layer's running bookkeeping against full walks, on both
// engines: every scheme through McastDriver, pristine and with a
// mid-run link fault followed by its Autonet swap (resilience on), and
// open-loop unicast traffic straight into the engine with a busy link
// cut mid-run (transmissions queued on it, granted and waiting for a
// downstream slot, or on the wire):
//
//  * after every event, TotalBacklog()'s running count equals a recount
//    of ChannelBacklog over every switch port plus InjectionBacklog over
//    every NI;
//  * at the end, the fold over the channels that carried flits —
//    `<engine>.link_busy_cycles`, every bin, count, sum, min and max of
//    `<engine>.link_utilization_pct`, and
//    `<engine>.max_link_utilization` — and MaxLinkUtilization() equal
//    what a full walk gives: flits_sent() for the busy cycles, and
//    LinkReports(now) over the switch links the current System still
//    has for the rest (a link the swap removed drops out of both).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/config.hpp"
#include "core/executor.hpp"
#include "mcast/scheme.hpp"
#include "metrics/metrics.hpp"
#include "network/network_model.hpp"
#include "resilience/fault_schedule.hpp"
#include "sim/engine.hpp"
#include "topology/system.hpp"

namespace irmc {
namespace {

std::int64_t RecountBacklog(const NetworkModel& net, const System& sys) {
  std::int64_t total = 0;
  for (SwitchId s = 0; s < sys.num_switches(); ++s)
    for (PortId p = 0; p < sys.graph.ports_per_switch(); ++p)
      total += net.ChannelBacklog(s, p);
  for (NodeId n = 0; n < sys.num_nodes(); ++n)
    total += net.InjectionBacklog(n);
  return total;
}

/// Runs `engine` to quiescence one event at a time, checking the
/// running backlog count against the recount after every event; returns
/// the peak backlog.
std::int64_t StepCheckingBacklog(Engine& engine, const NetworkModel& net,
                                 const System& sys) {
  std::int64_t events = 0;
  std::int64_t peak = 0;
  while (engine.Step()) {
    ++events;
    const std::int64_t backlog = net.TotalBacklog();
    const std::int64_t recount = RecountBacklog(net, sys);
    if (backlog != recount) {
      ADD_FAILURE() << "backlog " << backlog << ", recount " << recount
                    << " after event " << events << " at cycle "
                    << engine.Now();
      break;
    }
    peak = std::max(peak, backlog);
  }
  EXPECT_EQ(net.TotalBacklog(), 0);
  return peak;
}

/// Checks the fold `net.CollectMetrics(now)` left in `reg` (and
/// MaxLinkUtilization) against a full walk: flits_sent() for the busy
/// cycles, LinkReports(now) over the switch links for the rest. Returns
/// the flits the reports cover.
std::int64_t ExpectFoldMatchesFullWalk(const NetworkModel& net,
                                       const MetricsRegistry& reg,
                                       EngineKind engine, Cycles now) {
  Histogram util;
  double best = 0.0;
  std::int64_t reported_flits = 0;
  for (const LinkLoadReport& r : net.LinkReports(now)) {
    reported_flits += r.flits;
    if (r.sw == kInvalidSwitch || r.to_host) continue;
    util.Add(static_cast<std::int64_t>(100.0 * r.utilization));
    best = std::max(best, r.utilization);
  }
  const std::string prefix = engine == EngineKind::kVct ? "fabric." : "flit.";
  EXPECT_EQ(reg.counters().at(prefix + "link_busy_cycles").value,
            net.flits_sent());
  const Histogram& folded =
      reg.histograms().at(prefix + "link_utilization_pct");
  EXPECT_EQ(folded.count(), util.count());
  EXPECT_EQ(folded.sum(), util.sum());
  EXPECT_EQ(folded.min(), util.min());
  EXPECT_EQ(folded.max(), util.max());
  for (int b = 0; b < Histogram::kBins; ++b)
    EXPECT_EQ(folded.bin(b), util.bin(b)) << "bin " << b;
  EXPECT_EQ(reg.gauges().at(prefix + "max_link_utilization").value, best);
  EXPECT_EQ(net.MaxLinkUtilization(now), best);
  EXPECT_GT(best, 0.0);
  return reported_flits;
}

SimConfig MakeConfig(EngineKind engine) {
  SimConfig cfg;
  cfg.engine = engine;
  cfg.message.num_packets = 2;
  return cfg;
}

/// Three concurrent multicasts of `kind` from hosts 0, 11 and 22, each
/// to every other host.
void LaunchBatch(McastDriver& driver, const System& sys, const SimConfig& cfg,
                 SchemeKind kind, int* completed) {
  const auto scheme = MakeScheme(kind, cfg.host);
  for (NodeId root : {0, 11, 22}) {
    std::vector<NodeId> dests;
    for (NodeId d = 0; d < sys.num_nodes(); ++d)
      if (d != root) dests.push_back(d);
    driver.Launch(scheme->Plan(sys, root, dests, cfg.message, cfg.headers), 0,
                  [completed](const MulticastResult&) { ++*completed; });
  }
}

/// A fault a third of the way through a pristine run of the batch, on
/// the switch link that carried the most flits by then among those whose
/// loss the topology survives.
TimedFault BusiestSurvivableLink(const System& sys, const SimConfig& cfg,
                                 SchemeKind kind) {
  Cycles at = 0;
  {
    Engine engine;
    McastDriver driver(engine, sys, cfg);
    int completed = 0;
    LaunchBatch(driver, sys, cfg, kind, &completed);
    at = engine.RunToQuiescence() / 3;
  }
  Engine engine;
  McastDriver driver(engine, sys, cfg);
  int completed = 0;
  LaunchBatch(driver, sys, cfg, kind, &completed);
  engine.RunUntil(at);
  TimedFault best{at, kInvalidSwitch, kInvalidPort};
  std::int64_t most = 0;
  for (const LinkLoadReport& r : driver.network().LinkReports(at)) {
    if (r.sw == kInvalidSwitch || r.to_host || r.flits <= most) continue;
    const TimedFault f{at, r.sw, r.port};
    if (!ScheduleIsSurvivable(sys.graph, {f})) continue;
    best = f;
    most = r.flits;
  }
  EXPECT_NE(best.sw, kInvalidSwitch) << "no busy survivable link";
  return best;
}

struct Case {
  EngineKind engine;
  SchemeKind scheme;
  bool fault;
};

std::string Label(const Case& c) {
  return std::string(ToString(c.engine)) + " " + ToIdent(c.scheme) +
         (c.fault ? " with a fault" : "");
}

void CheckBookkeeping(const Case& c) {
  SCOPED_TRACE(Label(c));
  const auto sys = System::Build(TopologySpec{}, 7);
  SimConfig cfg = MakeConfig(c.engine);
  if (c.fault) {
    cfg.resilience.enabled = true;
    cfg.resilience.schedule = {BusiestSurvivableLink(*sys, cfg, c.scheme)};
  }
  MetricsRegistry reg;
  Engine engine;
  McastDriver driver(engine, *sys, cfg, nullptr, &reg);
  NetworkModel& net = driver.network();
  int completed = 0;
  LaunchBatch(driver, *sys, cfg, c.scheme, &completed);

  const std::int64_t peak = StepCheckingBacklog(engine, net, *sys);
  EXPECT_EQ(completed, 3);
  EXPECT_GT(peak, 3);  // contention queued transmissions somewhere

  engine.CollectMetrics(reg);
  net.CollectMetrics(engine.Now());
  const std::int64_t reported_flits =
      ExpectFoldMatchesFullWalk(net, reg, c.engine, engine.Now());
  if (c.fault) {
    EXPECT_EQ(reg.counters().at("resilience.faults").value, 1);
    EXPECT_EQ(reg.counters().at("resilience.reconfigs").value, 1);
    // The failed link carried flits and the swap removed it: its flits
    // count in the busy cycles but it left the switch-link set.
    EXPECT_GT(net.flits_sent(), reported_flits);
  } else {
    EXPECT_EQ(net.flits_sent(), reported_flits);
  }
}

class NetworkBookkeeping : public ::testing::TestWithParam<EngineKind> {};

TEST_P(NetworkBookkeeping, RunningCountsMatchFullWalks) {
  for (SchemeKind scheme :
       {SchemeKind::kUnicastBinomial, SchemeKind::kNiKBinomial,
        SchemeKind::kTreeWorm, SchemeKind::kPathWorm})
    for (bool fault : {false, true})
      CheckBookkeeping(Case{GetParam(), scheme, fault});
}

TEST_P(NetworkBookkeeping, CutUnderOpenLoopUnicastTraffic) {
  // Every node sends 128-flit unicasts at exponential gaps (mean 300
  // cycles) until cycle 20,000, straight into the engine; the first
  // switch link of switch 0 dies at cycle 6,000 under that load.
  const auto sys = System::Build(TopologySpec{}, 3);
  MetricsRegistry reg;
  Engine engine;
  const auto net = MakeNetworkModel(
      GetParam(), engine, *sys, NetParams{},
      [](NodeId, const Packet&, Cycles, Cycles) {}, nullptr, &reg);
  int drops = 0;
  net->SetDropHandler([&drops](const Packet&, Cycles, SwitchId) { ++drops; });
  PortId port = 0;
  while (sys->graph.port(0, port).kind != PortKind::kSwitch) ++port;
  engine.ScheduleAt(6'000, [&net, port]() { net->FailLink(0, port); });
  const int nodes = sys->num_nodes();
  Rng rng(11);
  std::vector<Packet> sends;
  for (NodeId src = 0; src < nodes; ++src) {
    Cycles t = 0;
    while (true) {
      t += 1 + static_cast<Cycles>(rng.NextExponential(300.0));
      if (t >= 20'000) break;
      Packet pkt;
      pkt.mcast_id = static_cast<std::int64_t>(sends.size());
      pkt.src = src;
      pkt.data_flits = 128;
      pkt.kind = HeaderKind::kUnicast;
      const auto dest = static_cast<NodeId>(
          rng.NextBelow(static_cast<std::uint64_t>(nodes - 1)));
      pkt.uni_dest = dest >= src ? dest + 1 : dest;
      pkt.header_flits = 2;
      // The packet waits in `sends`; the event carries its index.
      sends.push_back(std::move(pkt));
      engine.ScheduleAt(t, [&net, &sends, i = sends.size() - 1, src, t]() {
        net->InjectFromNi(src, std::move(sends[i]), t);
      });
    }
  }
  EXPECT_GT(StepCheckingBacklog(engine, *net, *sys), 10);
  EXPECT_GT(drops, 0);
  net->CollectMetrics(engine.Now());
  EXPECT_EQ(ExpectFoldMatchesFullWalk(*net, reg, GetParam(), engine.Now()),
            net->flits_sent());
}

INSTANTIATE_TEST_SUITE_P(Engines, NetworkBookkeeping,
                         ::testing::Values(EngineKind::kVct,
                                           EngineKind::kFlit),
                         [](const auto& info) {
                           return std::string(ToString(info.param));
                         });

}  // namespace
}  // namespace irmc
