#include "network/flit_engine.hpp"

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <tuple>

#include "common/rng.hpp"
#include "core/executor.hpp"
#include "core/load_runner.hpp"
#include "mcast/scheme.hpp"
#include "metrics/metrics.hpp"
#include "network/fabric.hpp"
#include "topology/system.hpp"
#include "trace/analysis.hpp"
#include "trace/tracer.hpp"

namespace irmc {
namespace {

Packet Unicast(NodeId src, NodeId dst, int data_flits = 64) {
  Packet pkt;
  pkt.mcast_id = 1;
  pkt.src = src;
  pkt.kind = HeaderKind::kUnicast;
  pkt.uni_dest = dst;
  pkt.data_flits = data_flits;
  pkt.header_flits = 2;
  return pkt;
}

/// Runs the same injections through the packet-granular VCT fabric
/// (deterministic routing) and returns node -> (head, tail).
std::map<NodeId, std::pair<Cycles, Cycles>> RunVct(
    const System& sys, const std::vector<std::pair<NodeId, Packet>>& txs) {
  Engine engine;
  NetParams params;
  params.adaptive = false;
  std::map<NodeId, std::pair<Cycles, Cycles>> out;
  Fabric fabric(engine, sys, params,
                [&](NodeId n, const Packet&, Cycles h, Cycles t) {
                  out[n] = {h, t};
                });
  for (const auto& [n, p] : txs)
    fabric.InjectFromNi(n, p, 0);
  engine.RunToQuiescence();
  return out;
}

std::map<NodeId, std::pair<Cycles, Cycles>> RunFlit(
    const System& sys, const std::vector<std::pair<NodeId, Packet>>& txs,
    int buffer_flits = 128) {
  Engine engine;
  NetParams params;
  params.adaptive = false;
  params.buffer_flits = buffer_flits;
  std::map<NodeId, std::pair<Cycles, Cycles>> out;
  FlitEngine flit(engine, sys, params,
                  [&](NodeId n, const Packet&, Cycles h, Cycles t) {
                    out[n] = {h, t};
                  });
  for (const auto& [n, p] : txs)
    flit.InjectFromNi(n, p, 0);
  engine.RunToQuiescence();
  return out;
}

class EngineXCheck : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  void SetUp() override {
    TopologySpec spec;
    spec.num_switches = 8;
    spec.num_hosts = 32;
    sys_ = System::Build(spec, GetParam());
  }
  std::unique_ptr<System> sys_;
};

TEST_P(EngineXCheck, UnicastZeroLoadAgreesExactly) {
  for (NodeId dst : {1, 7, 19, 31}) {
    std::vector<std::pair<NodeId, Packet>> txs{{0, Unicast(0, dst)}};
    const auto vct = RunVct(*sys_, txs);
    const auto flit = RunFlit(*sys_, txs);
    ASSERT_EQ(vct.size(), 1u);
    ASSERT_EQ(flit.size(), 1u);
    EXPECT_EQ(vct.at(dst), flit.at(dst)) << "dst " << dst;
  }
}

TEST_P(EngineXCheck, TreeWormZeroLoadAgreesExactly) {
  std::vector<NodeId> dests{3, 9, 14, 22, 27, 31};
  Packet pkt;
  pkt.mcast_id = 1;
  pkt.src = 0;
  pkt.kind = HeaderKind::kTreeWorm;
  pkt.tree_dests = NodeSet::FromVector(32, dests);
  pkt.data_flits = 64;
  pkt.header_flits = 6;
  std::vector<std::pair<NodeId, Packet>> txs{{0, pkt}};
  const auto vct = RunVct(*sys_, txs);
  const auto flit = RunFlit(*sys_, txs);
  ASSERT_EQ(vct.size(), dests.size());
  ASSERT_EQ(flit.size(), dests.size());
  for (NodeId d : dests) EXPECT_EQ(vct.at(d), flit.at(d)) << "dest " << d;
}

INSTANTIATE_TEST_SUITE_P(Seeds, EngineXCheck,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u));

TEST(FlitEngine, LineLatencyExact) {
  Graph g(3, 4);
  g.AddLink(0, 0, 1, 0);
  g.AddLink(1, 1, 2, 0);
  g.AttachHost(0, 3);
  g.AttachHost(1, 3);
  g.AttachHost(2, 3);
  System sys{std::move(g)};
  Engine engine;
  std::vector<std::pair<Cycles, Cycles>> deliveries;
  FlitEngine flit(engine, sys, {},
                  [&](NodeId, const Packet&, Cycles h, Cycles t) {
                    deliveries.emplace_back(h, t);
                  });
  flit.InjectFromNi(0, Unicast(0, 2, 128), 0);
  engine.RunToQuiescence();
  ASSERT_EQ(deliveries.size(), 1u);
  EXPECT_EQ(deliveries[0].first, 10);
  EXPECT_EQ(deliveries[0].second, 10 + 130 - 1);
}

TEST(FlitEngine, IdleGapsCostNoCycles) {
  // Event-driven stepping: an injection ready at cycle 100'000 must not
  // make the engine step the 100'000 idle cycles before it.
  Graph g(2, 4);
  g.AddLink(0, 0, 1, 0);
  g.AttachHost(0, 3);
  g.AttachHost(1, 3);
  System sys{std::move(g)};
  Engine engine;
  int delivered = 0;
  FlitEngine flit(engine, sys, {},
                  [&](NodeId, const Packet&, Cycles, Cycles) {
                    ++delivered;
                  });
  flit.InjectFromNi(0, Unicast(0, 1, 50), 100'000);
  engine.RunToQuiescence();
  EXPECT_EQ(delivered, 1);
  // Only the active window around the transfer is stepped: 52 wire
  // flits, the hops to the far NI, and nothing before cycle 100'000.
  EXPECT_EQ(flit.cycles_stepped(), 59);
}

TEST(FlitEngine, SmallBuffersStretchWormAcrossLinks) {
  // With a 4-flit buffer the worm cannot be absorbed when blocked; the
  // uncontended latency must still be identical (pipelining unaffected),
  // but under contention the blocked worm stalls upstream links.
  Graph g(3, 6);
  g.AddLink(0, 0, 1, 0);
  g.AddLink(1, 1, 2, 0);
  g.AttachHost(0, 4);  // node 0
  g.AttachHost(0, 5);  // node 1
  g.AttachHost(2, 4);  // node 2
  g.AttachHost(2, 5);  // node 3
  System sys{std::move(g)};

  {  // uncontended: buffer size irrelevant
    Engine engine;
    NetParams params;
    params.adaptive = false;
    params.buffer_flits = 4;
    std::vector<Cycles> heads;
    FlitEngine flit(engine, sys, params,
                    [&](NodeId, const Packet&, Cycles h, Cycles) {
                      heads.push_back(h);
                    });
    flit.InjectFromNi(0, Unicast(0, 2, 128), 0);
    engine.RunToQuiescence();
    ASSERT_EQ(heads.size(), 1u);
    EXPECT_EQ(heads[0], 10);
  }
  {  // contended: two worms to the same switch serialize
    Engine engine;
    NetParams params;
    params.adaptive = false;
    params.buffer_flits = 4;
    std::vector<Cycles> tails;
    FlitEngine flit(engine, sys, params,
                    [&](NodeId, const Packet&, Cycles, Cycles t) {
                      tails.push_back(t);
                    });
    flit.InjectFromNi(0, Unicast(0, 2, 128), 0);
    flit.InjectFromNi(1, Unicast(1, 3, 128), 0);
    engine.RunToQuiescence();
    ASSERT_EQ(tails.size(), 2u);
    const Cycles spread = std::max(tails[0], tails[1]) -
                          std::min(tails[0], tails[1]);
    EXPECT_GE(spread, 100);
  }
}

TEST(FlitEngine, BlockTracePairsSumToBlockedCyclesCounter) {
  // The contended small-buffer scenario above, with a tracer and a
  // registry attached: every credit-stall streak must surface as a
  // kBlockBegin/kBlockEnd pair, and the matched durations must sum
  // exactly to the flit.blocked_cycles counter.
  Graph g(3, 6);
  g.AddLink(0, 0, 1, 0);
  g.AddLink(1, 1, 2, 0);
  g.AttachHost(0, 4);  // node 0
  g.AttachHost(0, 5);  // node 1
  g.AttachHost(2, 4);  // node 2
  g.AttachHost(2, 5);  // node 3
  System sys{std::move(g)};

  Engine engine;
  NetParams params;
  params.adaptive = false;
  params.buffer_flits = 4;
  MetricsRegistry reg;
  Tracer tracer;
  int delivered = 0;
  FlitEngine flit(engine, sys, params,
                  [&](NodeId, const Packet&, Cycles, Cycles) {
                    ++delivered;
                  },
                  &tracer, &reg);
  flit.InjectFromNi(0, Unicast(0, 2, 128), 0);
  flit.InjectFromNi(1, Unicast(1, 3, 128), 0);
  engine.RunToQuiescence();
  ASSERT_EQ(delivered, 2);

  const std::int64_t counter = reg.GetCounter("flit.blocked_cycles").value;
  ASSERT_GT(counter, 0);  // the scenario really does block
  EXPECT_EQ(TotalBlockedCycles(tracer), counter);

  // Pairs are balanced and every interval names a real channel.
  const auto intervals = BlockIntervals(tracer);
  std::size_t block_events = 0;
  tracer.ForEach([&block_events](const TraceEvent& e) {
    if (e.kind == TraceKind::kBlockBegin || e.kind == TraceKind::kBlockEnd)
      ++block_events;
  });
  EXPECT_EQ(block_events, intervals.size() * 2);
  for (const auto& iv : intervals) {
    EXPECT_GT(iv.Duration(), 0);
    EXPECT_GE(iv.source.actor, 0);
    if (!iv.source.IsInjection()) {
      EXPECT_LT(iv.source.actor, sys.num_switches());
      EXPECT_LT(iv.source.port, sys.graph.ports_per_switch());
    } else {
      EXPECT_LT(iv.source.actor, sys.num_nodes());
    }
  }
}

TEST(FlitEngine, MultipleInjectionsSameNodeSerialize) {
  Graph g(2, 4);
  g.AddLink(0, 0, 1, 0);
  g.AttachHost(0, 3);
  g.AttachHost(1, 3);
  System sys{std::move(g)};
  Engine engine;
  std::vector<Cycles> heads;
  FlitEngine flit(engine, sys, {},
                  [&](NodeId, const Packet&, Cycles h, Cycles) {
                    heads.push_back(h);
                  });
  flit.InjectFromNi(0, Unicast(0, 1, 50), 0);
  flit.InjectFromNi(0, Unicast(0, 1, 50), 0);
  engine.RunToQuiescence();
  ASSERT_EQ(heads.size(), 2u);
  // 52 wire flits plus the route+xbar offset before the input-port
  // buffer frees for the second worm — identical to the VCT engine.
  EXPECT_EQ(heads[1] - heads[0], 55);
}

using FlitEngineDeathTest = ::testing::Test;

TEST(FlitEngineDeathTest, DeadlockHorizonNamesStuckWormsAndPorts) {
  // Spur topology: a long blocker occupies switch B's input from A while
  // a victim worm behind it cannot make progress. With a tiny buffer and
  // a tiny horizon, the victim's credit-stall streak trips the deadlock
  // check, and the failure must name the stuck worm and its port.
  auto run = []() {
    Graph g(3, 6);
    g.AddLink(0, 0, 1, 0);
    g.AddLink(1, 1, 2, 0);
    g.AttachHost(0, 4);  // node 0
    g.AttachHost(0, 5);  // node 1
    g.AttachHost(2, 4);  // node 2
    g.AttachHost(2, 5);  // node 3
    System sys{std::move(g)};
    Engine engine;
    NetParams params;
    params.adaptive = false;
    params.buffer_flits = 4;
    params.deadlock_horizon = 16;  // far below the real drain time
    FlitEngine flit(engine, sys, params,
                    [](NodeId, const Packet&, Cycles, Cycles) {});
    flit.InjectFromNi(0, Unicast(0, 2, 128), 0);
    flit.InjectFromNi(1, Unicast(1, 3, 128), 0);
    engine.RunToQuiescence();
  };
  EXPECT_DEATH(run(), "blocked past deadlock horizon.*blocked worms:");
}

/// Three 6-port switches in a line (0-1-2): hosts 0 and 1 on switch 0,
/// 2 and 3 on switch 2, host 4 on switch 1, and with `west` host 5 on
/// switch 1 too.
System HeldPortLine(bool west) {
  Graph g(3, 6);
  g.AddLink(0, 0, 1, 0);
  g.AddLink(1, 1, 2, 0);
  g.AttachHost(0, 4);  // node 0
  g.AttachHost(0, 5);  // node 1
  g.AttachHost(2, 4);  // node 2
  g.AttachHost(2, 5);  // node 3
  g.AttachHost(1, 4);  // node 4
  if (west) g.AttachHost(1, 5);  // node 5
  return System{std::move(g)};
}

/// 128-flit unicasts, each its source's multicast. 4 -> 2 takes switch
/// 1's port 1 from cycle 0; 0 -> 3 and 1 -> 3 follow at cycle 2. 0's worm
/// waits in switch 1's input port 0 for that port, so 1's head finds
/// switch 0's port 0 held by it from cycle 135 until 0's tail leaves.
/// With `west_ready` >= 0 the mirror image runs too on
/// HeldPortLine(true): 5 -> 0 from cycle 0, then 2 -> 1 and 3 -> 1 at
/// `west_ready`, so 3's head stalls on switch 2's port 0, a higher
/// channel than switch 0's port 0.
void InjectHeldPortTraffic(FlitEngine& flit, Cycles west_ready = -1) {
  auto uni = [](NodeId src, NodeId dst) {
    Packet pkt = Unicast(src, dst, 128);
    pkt.mcast_id = src;
    return pkt;
  };
  flit.InjectFromNi(4, uni(4, 2), 0);
  flit.InjectFromNi(0, uni(0, 3), 2);
  flit.InjectFromNi(1, uni(1, 3), 2);
  if (west_ready < 0) return;
  flit.InjectFromNi(5, uni(5, 0), 0);
  flit.InjectFromNi(2, uni(2, 1), west_ready);
  flit.InjectFromNi(3, uni(3, 1), west_ready);
}

/// The held-port traffic under a deadlock handler: the trip (if any)
/// and flit.blocked_cycles as CollectMetrics reads it at the end.
struct HeldPortRun {
  bool tripped = false;
  FlitDeadlockInfo info;
  std::int64_t blocked = 0;
  std::map<std::int64_t, std::pair<Cycles, Cycles>> delivered;  // by mcast
};

HeldPortRun RunHeldPort(Cycles horizon, Cycles west_ready = -1) {
  const System sys = HeldPortLine(west_ready >= 0);
  Engine engine;
  NetParams params;
  params.adaptive = false;
  params.deadlock_horizon = horizon;
  MetricsRegistry reg;
  HeldPortRun run;
  FlitEngine flit(engine, sys, params,
                  [&](NodeId, const Packet& pkt, Cycles h, Cycles t) {
                    run.delivered[pkt.mcast_id] = {h, t};
                  },
                  nullptr, &reg);
  flit.SetDeadlockHandler([&](const FlitDeadlockInfo& info) {
    run.tripped = true;
    run.info = info;
  });
  InjectHeldPortTraffic(flit, west_ready);
  engine.RunToQuiescence();
  flit.CollectMetrics(engine.Now());
  run.blocked = reg.GetCounter("flit.blocked_cycles").value;
  return run;
}

TEST(FlitEngine, HeldPortStallTripsAtTheHorizon) {
  // A branch stalled on a held port trips at stall_begin + horizon, in
  // that cycle's move phase, whether the engine polls the port or waits
  // for its release. Values recorded with the polling engine.
  const struct {
    Cycles horizon, trip;
    std::int64_t blocked;
  } cases[] = {{16, 151, 20}, {50, 185, 54}, {100, 235, 104}};
  for (const auto& c : cases) {
    SCOPED_TRACE(c.horizon);
    const HeldPortRun run = RunHeldPort(c.horizon);
    ASSERT_TRUE(run.tripped);
    EXPECT_EQ(run.info.now, c.trip);
    ASSERT_EQ(run.info.pending.size(), 1u);
    const FlitDeadlockInfo::Pending& p = run.info.pending[0];
    EXPECT_EQ(p.mcast_id, 1);
    EXPECT_EQ(p.sw, 0);
    EXPECT_EQ(p.port, 0);
    EXPECT_TRUE(p.stalled);
    EXPECT_STREQ(p.reason, "output port held by another worm");
    EXPECT_EQ(run.blocked, c.blocked);
  }
  const HeldPortRun run = RunHeldPort(1'000);
  EXPECT_FALSE(run.tripped);
  EXPECT_EQ(run.blocked, 134);
  using Span = std::pair<Cycles, Cycles>;
  EXPECT_EQ(run.delivered,
            (std::map<std::int64_t, Span>{
                {4, {7, 136}}, {0, {140, 269}}, {1, {273, 402}}}));
}

TEST(FlitEngine, DeadlockTripCountsEveryHeldPortStall) {
  // Two branches stall on held ports at once. At the trip, a branch on a
  // lower channel than the tripping one has been checked this cycle and
  // a branch on a higher channel has not, so their stall counts end at
  // the trip cycle and the one before.
  {
    // 3 trips first, at cycle 149 on switch 2's port 0; 1 sits below it.
    const HeldPortRun run = RunHeldPort(16, 0);
    ASSERT_TRUE(run.tripped);
    EXPECT_EQ(run.info.now, 149);
    ASSERT_EQ(run.info.pending.size(), 2u);
    EXPECT_EQ(run.blocked, 38);
  }
  {
    // 1 trips first, at cycle 151 on switch 0's port 0; 3 sits above it.
    const HeldPortRun run = RunHeldPort(16, 3);
    ASSERT_TRUE(run.tripped);
    EXPECT_EQ(run.info.now, 151);
    ASSERT_EQ(run.info.pending.size(), 2u);
    EXPECT_EQ(run.blocked, 38);
  }
}

TEST(FlitEngineDeathTest, DeadlockReportCountsEveryHeldPortStall) {
  // The aborting trip's report of the first case above: 3 stalled from
  // cycle 133 through 149, 1 from 135 through 149.
  auto run = []() {
    const System sys = HeldPortLine(true);
    Engine engine;
    NetParams params;
    params.adaptive = false;
    params.deadlock_horizon = 16;
    FlitEngine flit(engine, sys, params,
                    [](NodeId, const Packet&, Cycles, Cycles) {});
    InjectHeldPortTraffic(flit, 0);
    engine.RunToQuiescence();
  };
  EXPECT_DEATH(run(),
               "mcast 3 pkt 0\\) blocked for 17 cycles > deadlock horizon 16 "
               "at cycle 149.*mcast 1 pkt 0\\) at switch 0 port 0: output "
               "port held by another worm for 15 cycles");
}

TEST(FlitEngine, MidRunMetricsCountHeldPortStalls) {
  // CollectMetrics after RunUntil(t) counts every stall cycle through t,
  // including those of a branch still waiting on a held port.
  const std::pair<Cycles, std::int64_t> reads[] = {
      {150, 19}, {200, 69}, {272, 134}};
  for (const auto& [t, blocked] : reads) {
    SCOPED_TRACE(t);
    const System sys = HeldPortLine(false);
    Engine engine;
    NetParams params;
    params.adaptive = false;
    MetricsRegistry reg;
    FlitEngine flit(engine, sys, params,
                    [](NodeId, const Packet&, Cycles, Cycles) {}, nullptr,
                    &reg);
    InjectHeldPortTraffic(flit);
    engine.RunUntil(t);
    flit.CollectMetrics(engine.Now());
    EXPECT_EQ(reg.GetCounter("flit.blocked_cycles").value, blocked);
  }
}

class ContendedXCheck : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ContendedXCheck, EnginesAgreeExactlyUnderContention) {
  // With packet-sized buffers and deterministic routing, the two engines
  // implement the same physics: even contended, arbitrated traffic must
  // produce the identical multiset of (node, head, tail) deliveries.
  TopologySpec spec;
  spec.num_switches = 8;
  spec.num_hosts = 32;
  const auto sys = System::Build(spec, GetParam());
  std::vector<std::tuple<NodeId, NodeId, Cycles>> txs;
  Rng rng(GetParam() * 1000 + 5);
  for (int i = 0; i < 16; ++i) {
    auto d = rng.SampleWithoutReplacement(32, 2);
    txs.emplace_back(static_cast<NodeId>(d[0]), static_cast<NodeId>(d[1]),
                     static_cast<Cycles>(rng.NextBelow(300)));
  }
  std::multiset<std::tuple<NodeId, Cycles, Cycles>> vct_set, flit_set;
  {
    Engine engine;
    NetParams params;
    params.adaptive = false;
    Fabric fabric(engine, *sys, params,
                  [&](NodeId n, const Packet&, Cycles h, Cycles t) {
                    vct_set.insert({n, h, t});
                  });
    for (const auto& [s, t, r] : txs)
      fabric.InjectFromNi(s, Unicast(s, t), r);
    engine.RunToQuiescence();
  }
  {
    Engine engine;
    NetParams params;
    params.adaptive = false;
    FlitEngine flit(engine, *sys, params,
                    [&](NodeId n, const Packet&, Cycles h, Cycles t) {
                      flit_set.insert({n, h, t});
                    });
    for (const auto& [s, t, r] : txs) flit.InjectFromNi(s, Unicast(s, t), r);
    engine.RunToQuiescence();
  }
  EXPECT_EQ(vct_set, flit_set);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ContendedXCheck,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u));

// --- Work done under load ----------------------------------------------------

/// The flit engine's work counters for one load point: two replicas of
/// the paper's default system, 20k-cycle horizon.
struct LoadWork {
  std::int64_t cycles_run, flits_moved, blocked_cycles, events;
  long completed;
  double mean_latency;
};

LoadWork RunFlitLoadPoint(SchemeKind scheme, double load) {
  LoadRunSpec spec;
  spec.cfg.engine = EngineKind::kFlit;
  spec.scheme = scheme;
  spec.degree = 8;
  spec.effective_load = load;
  spec.warmup = 2'000;
  spec.horizon = 20'000;
  spec.topologies = 2;
  LoadRunResult r = RunLoadSweepPoint(spec);
  return {r.metrics.GetCounter("flit.cycles_run").value,
          r.metrics.GetCounter("flit.flits_moved").value,
          r.metrics.GetCounter("flit.blocked_cycles").value,
          r.metrics.GetCounter("sim.events").value,
          r.completed,
          r.mean_latency};
}

/// Cycles stepped and channel visits of RunFlitLoadPoint's two topology
/// replicas, replayed here with the engine in reach (the load runner
/// keeps its engines private): same systems, same per-host streams,
/// same horizon and drain.
struct Visits {
  std::int64_t cycles = 0;
  std::int64_t visits = 0;
};

Visits FlitLoadPointVisits(SchemeKind kind, double load) {
  struct Replica {
    SimConfig cfg;
    std::unique_ptr<System> sys;
    Engine engine;
    std::unique_ptr<McastDriver> driver;
    std::unique_ptr<MulticastScheme> scheme;
    std::vector<Rng> rngs;
    double mean_gap = 0.0;

    void Arrive(NodeId n) {
      Rng& rng = rngs[static_cast<std::size_t>(n)];
      const auto gap = static_cast<Cycles>(rng.NextExponential(mean_gap));
      engine.ScheduleAfter(std::max<Cycles>(1, gap), [this, n]() {
        if (engine.Now() >= 20'000) return;
        Rng& r = rngs[static_cast<std::size_t>(n)];
        std::vector<NodeId> dests;
        for (auto d : r.SampleWithoutReplacement(sys->num_nodes() - 1, 8))
          dests.push_back(static_cast<NodeId>(d >= n ? d + 1 : d));
        driver->Launch(scheme->Plan(*sys, n, dests, cfg.message, cfg.headers),
                       engine.Now(), [](const MulticastResult&) {});
        Arrive(n);
      });
    }
  };
  Visits total;
  for (std::uint64_t trial = 0; trial < 2; ++trial) {
    Replica run;
    run.cfg.engine = EngineKind::kFlit;
    run.sys = System::Build(run.cfg.topology, run.cfg.seed + trial);
    run.driver = std::make_unique<McastDriver>(run.engine, *run.sys, run.cfg);
    run.scheme = MakeScheme(kind, run.cfg.host);
    run.mean_gap =
        8.0 * static_cast<double>(run.cfg.message.TotalFlits()) / load;
    Rng seeder(run.cfg.seed * 104729 + trial);
    for (NodeId n = 0; n < run.sys->num_nodes(); ++n)
      run.rngs.push_back(seeder.Fork());
    for (NodeId n = 0; n < run.sys->num_nodes(); ++n) run.Arrive(n);
    run.engine.RunUntil(40'000);
    const auto& flit =
        dynamic_cast<const FlitEngine&>(run.driver->network());
    total.cycles += flit.cycles_stepped();
    total.visits += flit.channel_visits();
  }
  return total;
}

TEST(FlitEngineWork, GoldenTreeWormLoadPoint) {
  // Golden values: any change to what the engine steps, moves or blocks
  // on — or to the kernel events it schedules — shows up here.
  const LoadWork w = RunFlitLoadPoint(SchemeKind::kTreeWorm, 0.3);
  EXPECT_EQ(w.cycles_run, 49848);
  EXPECT_EQ(w.flits_moved, 749864);
  EXPECT_EQ(w.blocked_cycles, 47330);
  EXPECT_EQ(w.events, 54239);
  EXPECT_EQ(w.completed, 323);
  EXPECT_DOUBLE_EQ(w.mean_latency, 14292.133126934985);
  // Work gate: streaming worms cost visits only at their events, and a
  // branch parked on a held port none while it waits. The per-flit walk
  // made 801,522 visits here (47,330 of them stalls); polling held ports
  // every cycle, 62,850.
  const Visits v = FlitLoadPointVisits(SchemeKind::kTreeWorm, 0.3);
  EXPECT_EQ(v.cycles, w.cycles_run);  // the same run
  EXPECT_LE(v.visits, 20'000);
}

TEST(FlitEngineWork, SlotsStayBoundedOverALongLoadedRun) {
  // 300k cycles of open-loop tree-worm traffic on the paper's default
  // system (the McastDriver path every load figure takes). Finished
  // worms and branches are recycled, so the slots ever allocated follow
  // the worms alive at once, not the packets ever sent.
  struct OpenLoop {
    SimConfig cfg;
    std::unique_ptr<System> sys;
    Engine engine;
    std::unique_ptr<McastDriver> driver;
    std::unique_ptr<MulticastScheme> scheme;
    Rng rng{7};
    double mean_gap = 0.0;
    long launched = 0;
    long completed = 0;

    void Arrive(NodeId n) {
      const auto gap = static_cast<Cycles>(rng.NextExponential(mean_gap));
      engine.ScheduleAfter(std::max<Cycles>(1, gap), [this, n]() {
        if (engine.Now() >= 300'000) return;
        std::vector<NodeId> dests;
        for (auto d : rng.SampleWithoutReplacement(sys->num_nodes() - 1, 8))
          dests.push_back(static_cast<NodeId>(d >= n ? d + 1 : d));
        ++launched;
        driver->Launch(
            scheme->Plan(*sys, n, dests, cfg.message, cfg.headers),
            engine.Now(), [this](const MulticastResult&) { ++completed; });
        Arrive(n);
      });
    }
  } run;
  run.cfg.engine = EngineKind::kFlit;
  run.sys = System::Build(run.cfg.topology, 1);
  run.driver = std::make_unique<McastDriver>(run.engine, *run.sys, run.cfg);
  run.scheme = MakeScheme(SchemeKind::kTreeWorm, run.cfg.host);
  run.mean_gap = 8.0 * static_cast<double>(run.cfg.message.TotalFlits()) / 0.2;
  for (NodeId n = 0; n < run.sys->num_nodes(); ++n) run.Arrive(n);
  run.engine.RunToQuiescence();
  EXPECT_GT(run.launched, 1500);
  EXPECT_EQ(run.completed, run.launched);

  // A worm lives in an input port or on an injection channel, so the
  // live set is of the order of ports + NIs (96 here) however long the
  // run. Without recycling this run allocates about 44k slots.
  const auto& flit = dynamic_cast<const FlitEngine&>(run.driver->network());
  const auto ports_and_nis = static_cast<std::size_t>(
      run.sys->num_switches() * run.sys->graph.ports_per_switch() +
      run.sys->num_nodes());
  EXPECT_GT(flit.allocated_slots(), 0u);
  EXPECT_LT(flit.allocated_slots(), 2 * ports_and_nis);
}

TEST(FlitEngineWork, GoldenUniBinomialLoadPoint) {
  const LoadWork w = RunFlitLoadPoint(SchemeKind::kUnicastBinomial, 0.05);
  EXPECT_EQ(w.cycles_run, 35273);
  EXPECT_EQ(w.flits_moved, 195260);
  EXPECT_EQ(w.blocked_cycles, 228);
  EXPECT_EQ(w.events, 36213);
  EXPECT_EQ(w.completed, 47);
  EXPECT_DOUBLE_EQ(w.mean_latency, 9082.9574468085102);
  // The per-flit walk made 196,515 visits here: 1,502 heads, 228 stalls
  // and 1,027 idle visits, the rest streamed flits.
  const Visits v = FlitLoadPointVisits(SchemeKind::kUnicastBinomial, 0.05);
  EXPECT_EQ(v.cycles, w.cycles_run);  // the same run
  EXPECT_LE(v.visits, 10'000);
}


}  // namespace
}  // namespace irmc
