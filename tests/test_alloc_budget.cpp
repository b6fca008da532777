// Allocation budget: deterministic work counters for simulator setup and
// worm routing, gated in CI on any machine.
//
//  * A fresh Engine allocates nothing. Building a McastDriver costs a
//    fixed number of heap allocations whatever the switch count, on both
//    engines: the channel wiring is the System's, a run's channel state
//    is plain arrays, per-port queues allocate on first use, and binding
//    a metric table costs one allocation on a fresh registry and none
//    after. The single-multicast panels build one per sample, so a
//    per-port allocation here is paid thousands of times per figure.
//  * A sample pays for what it simulates. The end-of-run fold, the
//    hottest-link read and the backlog read allocate nothing on a bound
//    registry, and a fresh VCT run allocates each arena once, at a size
//    taken from the System: a whole `single_sweep` sample on a fresh
//    registry costs the same allocations at 8, 16 and 32 switches.
//  * A hop allocates nothing. Packets are values the engines own (slot
//    arenas recycled as packets leave), a replica is a copy with its
//    header words inline, and a tree-worm decision lists its ports
//    inline. Once an engine's queues and arenas have grown to a batch's
//    peak, replaying the batch — every scheme, small and large
//    multicasts, one- and four-packet messages — makes no allocation
//    from its first event to quiescence, on either engine.
//  * A launch on a warm driver allocates nothing, whatever the scheme:
//    it reuses a retired multicast's pooled state, whose per-node receive
//    progress and delivery list keep their capacity (the smallest
//    delivery list that fits is taken). The first launch on a fresh
//    driver allocates that state and the pool's tables once.
//  * Planning costs what the plan emits. The k choice scores every
//    candidate k on one flat scratch; a binomial or k-binomial plan
//    allocates little beyond its children lists; a path-worm plan runs
//    every coverage DP of all its worms and phases on one reused pair
//    of tables, so it allocates a few buffers per worm it emits.
//
// Counts come from a replaced global operator new (counting_new.hpp).
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "core/config.hpp"
#include "core/executor.hpp"
#include "counting_new.hpp"
#include "mcast/kbinomial.hpp"
#include "mcast/scheme.hpp"
#include "metrics/metrics.hpp"
#include "network/route_logic.hpp"
#include "sim/engine.hpp"
#include "topology/system.hpp"

namespace irmc {
namespace {

/// Allocations of one Engine + McastDriver build, as measured: the
/// driver's node table and network, plus the network's channel state
/// and its lanes (VCT: transmission queues and input slots in one
/// array) or its arbiters, NI queues, resident-worm table and two
/// activity bitmaps (flit). The wiring is the System's. VCT read 5
/// while the input-slot pools were an array of their own.
std::size_t ConstructionBudget(EngineKind kind) {
  return kind == EngineKind::kVct ? 4 : 8;
}

/// Allocations made building an Engine + McastDriver over a system of
/// `switches` switches, with a registry that has bound every metric
/// table McastDriver and the engine bind (as each trial's registry has
/// after its first sample).
std::size_t ConstructionAllocations(EngineKind kind, int switches) {
  SimConfig cfg;
  cfg.engine = kind;
  cfg.topology.num_switches = switches;
  const auto sys = System::Build(cfg.topology, 42);
  MetricsRegistry metrics;
  {
    Engine engine;
    const McastDriver warm(engine, *sys, cfg, nullptr, &metrics);
  }
  const std::size_t before = counting_new::Allocations();
  Engine engine;
  const McastDriver driver(engine, *sys, cfg, nullptr, &metrics);
  return counting_new::Allocations() - before;
}

class AllocBudget : public ::testing::TestWithParam<EngineKind> {};

TEST(AllocBudget, FreshEngineAllocatesNothing) {
  const std::size_t before = counting_new::Allocations();
  {
    const Engine engine;
    const auto held = std::make_unique<Engine>();  // value-initialised
    EXPECT_TRUE(engine.Idle() && held->Idle());
  }
  EXPECT_EQ(counting_new::Allocations() - before, 1u);  // the unique_ptr
}

TEST_P(AllocBudget, ConstructionIsIndependentOfSwitchCount) {
  const std::size_t at8 = ConstructionAllocations(GetParam(), 8);
  EXPECT_LE(at8, ConstructionBudget(GetParam())) << at8 << " allocations";
  EXPECT_EQ(ConstructionAllocations(GetParam(), 16), at8);
  EXPECT_EQ(ConstructionAllocations(GetParam(), 32), at8);
}

/// A multicast from host 0 to hosts 1..31, planned by every scheme on
/// `sys`.
std::vector<McastPlan> BroadcastPlans(const System& sys) {
  std::vector<McastPlan> plans;
  std::vector<NodeId> dests;
  for (NodeId d = 1; d < 32; ++d) dests.push_back(d);
  for (SchemeKind kind :
       {SchemeKind::kUnicastBinomial, SchemeKind::kNiKBinomial,
        SchemeKind::kTreeWorm, SchemeKind::kPathWorm})
    plans.push_back(
        MakeScheme(kind, HostParams{})->Plan(sys, 0, dests, {}, {}));
  return plans;
}

/// Per plan of BroadcastPlans: allocations of running it to quiescence
/// on a fresh Engine + McastDriver (launch excluded), and of the
/// end-of-run reads that follow — the fold, MaxLinkUtilization and
/// TotalBacklog — on a registry that has bound every table before.
struct RunCost {
  std::size_t run = 0;
  std::size_t reads = 0;
};

std::vector<RunCost> FreshRunAllocations(EngineKind kind, int switches) {
  SimConfig cfg;
  cfg.engine = kind;
  cfg.topology.num_switches = switches;
  const auto sys = System::Build(cfg.topology, 42);
  MetricsRegistry metrics;
  {
    Engine engine;
    McastDriver warm(engine, *sys, cfg, nullptr, &metrics);
    engine.CollectMetrics(metrics);
    warm.network().CollectMetrics(engine.Now());
  }
  std::vector<RunCost> costs;
  for (McastPlan& plan : BroadcastPlans(*sys)) {
    Engine engine;
    McastDriver driver(engine, *sys, cfg, nullptr, &metrics);
    bool done = false;
    driver.Launch(std::move(plan), 0,
                  [&done](const MulticastResult&) { done = true; });
    RunCost cost;
    std::size_t before = counting_new::Allocations();
    engine.RunToQuiescence();
    cost.run = counting_new::Allocations() - before;
    EXPECT_TRUE(done);
    before = counting_new::Allocations();
    engine.CollectMetrics(metrics);
    driver.network().CollectMetrics(engine.Now());
    EXPECT_GT(driver.network().MaxLinkUtilization(engine.Now()), 0.0);
    EXPECT_EQ(driver.network().TotalBacklog(), 0);
    cost.reads = counting_new::Allocations() - before;
    costs.push_back(cost);
  }
  return costs;
}

TEST_P(AllocBudget, EndOfRunReadsAllocateNothing) {
  for (int switches : {8, 32})
    for (const RunCost& cost : FreshRunAllocations(GetParam(), switches))
      EXPECT_EQ(cost.reads, 0u) << switches << " switches";
}

TEST(AllocBudget, VctFreshRunsCostTheSameOnBiggerNetworks) {
  // A fresh run allocates each arena once, at a size taken from the
  // System, not per channel it touches or per doubling: running the same
  // multicast on four times the switches costs the same allocations.
  const std::vector<RunCost> at8 = FreshRunAllocations(EngineKind::kVct, 8);
  const std::vector<RunCost> at32 = FreshRunAllocations(EngineKind::kVct, 32);
  ASSERT_EQ(at8.size(), at32.size());
  for (std::size_t i = 0; i < at8.size(); ++i)
    EXPECT_EQ(at32[i].run, at8[i].run)
        << "scheme " << i << ": " << at8[i].run << " allocations at 8 "
        << "switches, " << at32[i].run << " at 32";
}

/// Allocations of one `single_sweep` sample per plan of BroadcastPlans,
/// played as a trial's first sample: a fresh registry, an Engine +
/// McastDriver, the run to quiescence, the engine's and the network's
/// CollectMetrics, then MaxLinkUtilization. The plan and Launch are not
/// counted.
std::vector<std::size_t> FreshSampleAllocations(int switches) {
  SimConfig cfg;
  cfg.topology.num_switches = switches;
  const auto sys = System::Build(cfg.topology, 42);
  std::vector<std::size_t> costs;
  for (McastPlan& plan : BroadcastPlans(*sys)) {
    std::size_t before = counting_new::Allocations();
    MetricsRegistry metrics;
    Engine engine;
    McastDriver driver(engine, *sys, cfg, nullptr, &metrics);
    std::size_t made = counting_new::Allocations() - before;
    bool done = false;
    driver.Launch(std::move(plan), 0,
                  [&done](const MulticastResult&) { done = true; });
    before = counting_new::Allocations();
    engine.RunToQuiescence();
    engine.CollectMetrics(metrics);
    driver.network().CollectMetrics(engine.Now());
    EXPECT_GT(driver.network().MaxLinkUtilization(engine.Now()), 0.0);
    made += counting_new::Allocations() - before;
    EXPECT_TRUE(done);
    costs.push_back(made);
  }
  return costs;
}

/// A fresh VCT sample's allocations, as measured: five metric tables
/// bound on the fresh registry (the driver's and the network's at
/// construction, the engine's, the link fold's and the Fabric's series
/// at collection), four for the driver and its network (node table,
/// network, channel state, lanes), and one first-use allocation of each
/// arena the run touches (packets and their free list, transmissions,
/// buffered entries and their free list, route branches; the event
/// arena's comes with Launch). 88-100 when the registry interned names
/// and arenas grew by doubling.
constexpr std::size_t kFreshSampleAllocations = 15;

TEST(AllocBudget, FreshSingleSweepSampleCostsTheSameOnEveryNetwork) {
  const std::vector<std::size_t> at8 = FreshSampleAllocations(8);
  for (std::size_t made : at8) EXPECT_EQ(made, kFreshSampleAllocations);
  EXPECT_EQ(FreshSampleAllocations(16), at8);
  EXPECT_EQ(FreshSampleAllocations(32), at8);
}

constexpr MetricSpec kCounters[] = {
    {MetricKind::kCounter, "budget.first"},
    {MetricKind::kCounter, "budget.second"},
};
constexpr MetricSpec kMixed[] = {
    {MetricKind::kHistogram, "budget.hist"},
    {MetricKind::kGauge, "budget.peak", GaugeMode::kMax},
    {MetricKind::kCounter, "budget.count"},
};

TEST(AllocBudget, BindingATableCostsOneAllocationAndNoName) {
  MetricsRegistry reg;
  std::size_t before = counting_new::Allocations();
  reg.Bind(kCounters).counter(1).Add(2);
  reg.Bind(kMixed).histogram(0).Add(9);
  EXPECT_EQ(counting_new::Allocations() - before, 2u);
  before = counting_new::Allocations();
  reg.Bind(kCounters).counter(0).Add();
  MetricsRegistry total;
  total.Merge(reg);  // a table the total lacks: one copied block
  total.Merge(reg);  // bound on both sides: a row-wise add
  EXPECT_EQ(counting_new::Allocations() - before, 2u);
  EXPECT_EQ(total.counters().at("budget.second").value, 4);
  EXPECT_EQ(total.histograms().at("budget.hist").count(), 2);
}

TEST(AllocBudget, FreshRegistryCostsOneAllocationPerTable) {
  // The same sample on a fresh registry and on one that has bound every
  // table differs by exactly the tables bound: five on either engine.
  for (EngineKind kind : {EngineKind::kVct, EngineKind::kFlit}) {
    SimConfig cfg;
    cfg.engine = kind;
    const auto sys = System::Build(cfg.topology, 42);
    MetricsRegistry warm;
    std::size_t made[2] = {0, 0};
    for (int fresh = 0; fresh < 2; ++fresh) {
      MetricsRegistry cold;
      MetricsRegistry& reg = fresh ? cold : warm;
      for (int round = 0; round < 2 - fresh; ++round) {
        const std::size_t before = counting_new::Allocations();
        Engine engine;
        McastDriver driver(engine, *sys, cfg, nullptr, &reg);
        engine.CollectMetrics(reg);
        driver.network().CollectMetrics(engine.Now());
        made[fresh] = counting_new::Allocations() - before;
      }
    }
    EXPECT_EQ(made[1], made[0] + 5) << ToString(kind);
  }
}

INSTANTIATE_TEST_SUITE_P(Engines, AllocBudget,
                         ::testing::Values(EngineKind::kVct,
                                           EngineKind::kFlit),
                         [](const auto& info) {
                           return std::string(ToString(info.param));
                         });

TEST(AllocBudget, TreeWormRoutingAllocatesNothing) {
  const auto sys = System::Build({}, 42);  // 8 switches, 32 hosts
  const int n = sys->num_nodes();
  Packet worm;
  worm.kind = HeaderKind::kTreeWorm;
  worm.src = 0;
  worm.data_flits = 128;
  worm.header_flits = HeaderSizing{}.TreeWormFlits(n);
  worm.tree_dests = NodeSet(n);
  for (NodeId d = 1; d < n; ++d) worm.tree_dests.Set(d);

  // Walk the broadcast switch by switch from host 0, as the engines do.
  const PortLoadFn load = [](SwitchId, PortId) { return 0; };
  std::vector<std::pair<SwitchId, Packet>> pending{
      {sys->graph.host(0).sw, worm}};
  std::vector<RouteBranch> out;
  out.reserve(64);
  std::size_t allocations = 0;
  std::size_t branches = 0;
  std::size_t decisions = 0;
  NodeSet delivered(n);
  while (!pending.empty()) {
    auto [s, pkt] = std::move(pending.back());
    pending.pop_back();
    out.clear();
    const std::size_t before = counting_new::Allocations();
    ComputeRouteBranches(*sys, s, pkt, true, load, out);
    allocations += counting_new::Allocations() - before;
    ++decisions;
    branches += out.size();
    for (RouteBranch& b : out) {
      const Port& pt = sys->graph.port(s, b.port);
      if (pt.kind == PortKind::kHost)
        delivered.Set(pt.host);
      else
        pending.emplace_back(pt.peer_switch, std::move(b.pkt));
    }
  }
  EXPECT_EQ(delivered, worm.tree_dests);
  EXPECT_EQ(allocations, 0u)
      << branches << " branches, " << decisions << " decisions";
}

/// Plans for a batch of concurrent multicasts on `sys`: every scheme x
/// 8 and 31 destinations x 1 and 4 packets, from seeded sources.
std::vector<McastPlan> HopBatch(const System& sys) {
  std::vector<McastPlan> plans;
  const int nodes = sys.num_nodes();
  Rng rng(5);
  for (SchemeKind kind :
       {SchemeKind::kUnicastBinomial, SchemeKind::kNiKBinomial,
        SchemeKind::kTreeWorm, SchemeKind::kPathWorm}) {
    const auto scheme = MakeScheme(kind, HostParams{});
    for (int size : {8, 31})
      for (int packets : {1, 4}) {
        const auto src = static_cast<NodeId>(
            rng.NextBelow(static_cast<std::uint64_t>(nodes)));
        std::vector<NodeId> dests;
        for (std::int64_t v : rng.SampleWithoutReplacement(nodes - 1, size))
          dests.push_back(static_cast<NodeId>(v >= src ? v + 1 : v));
        const MessageShape shape{128, packets};
        McastPlan plan = scheme->Plan(sys, src, dests, shape, {});
        plan.shape = shape;
        plans.push_back(std::move(plan));
      }
  }
  return plans;
}

/// Allocations made running a launched HopBatch to quiescence, with
/// metrics on, on an Engine + McastDriver that has run the same batch
/// once before (so its queues, arenas and free lists are warm).
/// Launching (the driver's per-multicast state) is not counted.
std::size_t HopReplayAllocations(EngineKind kind) {
  SimConfig cfg;
  cfg.engine = kind;
  const auto sys = System::Build(cfg.topology, 42);
  const std::vector<McastPlan> plans = HopBatch(*sys);
  MetricsRegistry metrics;
  Engine engine;
  McastDriver driver(engine, *sys, cfg, nullptr, &metrics);
  std::size_t completed = 0;
  const auto launch = [&]() {
    for (const McastPlan& plan : plans)
      driver.Launch(plan, engine.Now(),
                    [&completed](const MulticastResult&) { ++completed; });
  };
  launch();
  engine.RunToQuiescence();
  launch();
  const std::size_t before = counting_new::Allocations();
  while (!engine.RunUntil(engine.Now() + 1'000)) {
  }
  const std::size_t made = counting_new::Allocations() - before;
  EXPECT_EQ(completed, 2 * plans.size());
  return made;
}

TEST(AllocBudget, VctHopsAllocateNothing) {
  EXPECT_EQ(HopReplayAllocations(EngineKind::kVct), 0u);
}

TEST(AllocBudget, FlitHopsAllocateNothing) {
  EXPECT_EQ(HopReplayAllocations(EngineKind::kFlit), 0u);
}

/// What one Launch on a warm driver allocates: nothing, since a retired
/// multicast's state is reused with its per-node receive progress and a
/// delivery list with room for the new destinations. Read 3 while each
/// live multicast was a node of a hash map (the node, its per-node state
/// and its delivery list), 4 while its state was a separate heap object,
/// and 6 for path worms while they were indexed by sender.
constexpr std::size_t kLaunchAllocations = 0;

TEST(AllocBudget, LaunchOnAWarmDriverAllocatesNothing) {
  const SimConfig cfg;
  const auto sys = System::Build(cfg.topology, 42);
  std::vector<McastPlan> plans = HopBatch(*sys);
  Engine engine;
  McastDriver driver(engine, *sys, cfg);
  std::size_t completed = 0;
  const auto count = [&completed](const MulticastResult&) { ++completed; };
  // Warm the multicast pool, its index and the event arena with the
  // batch.
  for (const McastPlan& plan : plans) driver.Launch(plan, engine.Now(), count);
  engine.RunToQuiescence();
  for (McastPlan& plan : plans) {
    const SchemeKind scheme = plan.scheme;
    const std::size_t dests = plan.dests.size();
    const int packets = plan.shape->num_packets;
    const std::size_t before = counting_new::Allocations();
    driver.Launch(std::move(plan), engine.Now(), count);
    EXPECT_EQ(counting_new::Allocations() - before, kLaunchAllocations)
        << ToString(scheme) << ", " << dests << " destinations, " << packets
        << " packets";
  }
  engine.RunToQuiescence();
  EXPECT_EQ(completed, 2 * plans.size());
}

/// What the first Launch on a fresh driver allocates: the pool's list,
/// the multicast's pooled state, its per-node receive progress and its
/// delivery list, the index of live multicasts, and the event arena.
/// Read 5 with the hash-map live table, whose bucket array and node
/// held what the pool's list, the state and the index hold now.
constexpr std::size_t kFirstLaunchAllocations = 6;

TEST(AllocBudget, FirstLaunchOnAFreshDriverSizesThePoolOnce) {
  const SimConfig cfg;
  const auto sys = System::Build(cfg.topology, 42);
  std::size_t completed = 0;
  const auto count = [&completed](const MulticastResult&) { ++completed; };
  for (McastPlan& plan : HopBatch(*sys)) {
    const SchemeKind scheme = plan.scheme;
    const std::size_t dests = plan.dests.size();
    Engine engine;
    McastDriver driver(engine, *sys, cfg);
    const std::size_t before = counting_new::Allocations();
    driver.Launch(std::move(plan), 0, count);
    EXPECT_EQ(counting_new::Allocations() - before, kFirstLaunchAllocations)
        << ToString(scheme) << ", " << dests << " destinations";
    engine.RunToQuiescence();
  }
  EXPECT_EQ(completed, 16u);
}

/// Upper bound on the allocations of one ChooseK call, whatever the
/// receiver count: every candidate k is scored on the same scratch.
constexpr std::size_t kChooseKBudget = 8;

TEST(AllocBudget, ChooseKScoresEveryKOnOneScratch) {
  const HostParams host;
  for (int packets : {1, 8})
    for (int receivers = 1; receivers <= 31; ++receivers) {
      const std::size_t before = counting_new::Allocations();
      const int k = ChooseK(receivers, MessageShape{128, packets}, host, 130,
                            9 + 2 * host.o_ni);
      const std::size_t made = counting_new::Allocations() - before;
      EXPECT_GE(k, 1);
      EXPECT_LE(made, kChooseKBudget)
          << receivers << " receivers, " << packets << " packets";
    }
}

/// Allocations of one Plan() call, for every seeded (source,
/// destinations) draw of 2, 8, 15 and 31 destinations on the default
/// topology at 8, 16 and 32 switches. `check(plan, allocations)` judges
/// each plan against its budget.
template <typename Check>
void ForEachPlan(SchemeKind kind, Check check) {
  const auto scheme = MakeScheme(kind, HostParams{});
  for (int switches : {8, 16, 32}) {
    TopologySpec spec;
    spec.num_switches = switches;
    const auto sys = System::Build(spec, 42);
    const int nodes = sys->num_nodes();
    Rng rng(7);
    for (int size : {2, 8, 15, 31})
      for (int draw = 0; draw < 5; ++draw) {
        const auto src = static_cast<NodeId>(
            rng.NextBelow(static_cast<std::uint64_t>(nodes)));
        std::vector<NodeId> dests;
        for (std::int64_t v : rng.SampleWithoutReplacement(nodes - 1, size))
          dests.push_back(static_cast<NodeId>(v >= src ? v + 1 : v));
        const std::size_t before = counting_new::Allocations();
        const McastPlan plan = scheme->Plan(*sys, src, dests, {}, {});
        const std::size_t made = counting_new::Allocations() - before;
        check(plan, made);
      }
  }
}

TEST(AllocBudget, BinomialPlansAllocateAboutOncePerDestination) {
  for (SchemeKind kind :
       {SchemeKind::kUnicastBinomial, SchemeKind::kNiKBinomial})
    ForEachPlan(kind, [kind](const McastPlan& plan, std::size_t made) {
      EXPECT_LE(made, plan.dests.size() + 16)
          << ToString(kind) << ", " << plan.dests.size() << " destinations";
    });
}

TEST(AllocBudget, PathWormPlansAllocateAFewBuffersPerWorm) {
  ForEachPlan(SchemeKind::kPathWorm,
              [](const McastPlan& plan, std::size_t made) {
                EXPECT_LE(made, 8 * plan.worms.size() + 32)
                    << plan.worms.size() << " worms, " << plan.dests.size()
                    << " destinations";
              });
}

}  // namespace
}  // namespace irmc
