// The network layer's running bookkeeping against full walks, on both
// engines: every scheme through McastDriver, and open-loop unicast
// traffic straight into the engine:
//
//  * after every event, TotalBacklog()'s running count equals a recount
//    of ChannelBacklog over every switch port plus InjectionBacklog over
//    every NI;
//  * at the end, the fold over the channels that carried flits —
//    `<engine>.link_busy_cycles`, every bin, count, sum, min and max of
//    `<engine>.link_utilization_pct`, and
//    `<engine>.max_link_utilization` — and MaxLinkUtilization() equal
//    what a full walk gives: flits_sent() for the busy cycles, and
//    LinkReports(now) over the switch links for the rest.
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

void CheckBookkeeping(EngineKind kind, SchemeKind scheme) {
  SCOPED_TRACE(std::string(ToString(kind)) + " " + ToIdent(scheme));
  const auto sys = System::Build(TopologySpec{}, 7);
  const SimConfig cfg = MakeConfig(kind);
  MetricsRegistry reg;
  Engine engine;
  McastDriver driver(engine, *sys, cfg, nullptr, &reg);
  NetworkModel& net = driver.network();
  int completed = 0;
  LaunchBatch(driver, *sys, cfg, scheme, &completed);

  const std::int64_t peak = StepCheckingBacklog(engine, net, *sys);
  EXPECT_EQ(completed, 3);
  EXPECT_GT(peak, 3);  // contention queued transmissions somewhere

  engine.CollectMetrics(reg);
  net.CollectMetrics(engine.Now());
  EXPECT_EQ(ExpectFoldMatchesFullWalk(net, reg, kind, engine.Now()),
            net.flits_sent());
}

class NetworkBookkeeping : public ::testing::TestWithParam<EngineKind> {};

TEST_P(NetworkBookkeeping, RunningCountsMatchFullWalks) {
  for (SchemeKind scheme :
       {SchemeKind::kUnicastBinomial, SchemeKind::kNiKBinomial,
        SchemeKind::kTreeWorm, SchemeKind::kPathWorm})
    CheckBookkeeping(GetParam(), scheme);
}

TEST_P(NetworkBookkeeping, OpenLoopUnicastTraffic) {
  // Every node sends 128-flit unicasts at exponential gaps (mean 300
  // cycles) until cycle 20,000, straight into the engine; every one of
  // them is delivered.
  const auto sys = System::Build(TopologySpec{}, 3);
  MetricsRegistry reg;
  Engine engine;
  std::int64_t delivered = 0;
  const auto net = MakeNetworkModel(
      GetParam(), engine, *sys, NetParams{},
      [&delivered](NodeId, const Packet&, Cycles, Cycles) { ++delivered; },
      nullptr, &reg);
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
  EXPECT_EQ(delivered, static_cast<std::int64_t>(sends.size()));
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
