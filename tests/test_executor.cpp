#include "core/executor.hpp"

#include <gtest/gtest.h>

#include <set>

#include "core/single_runner.hpp"
#include "mcast/binomial.hpp"
#include "mcast/kbinomial.hpp"
#include "mcast/scheme.hpp"
#include "topology/system.hpp"

namespace irmc {
namespace {

std::vector<NodeId> Range(NodeId lo, NodeId hi, NodeId step = 1) {
  std::vector<NodeId> v;
  for (NodeId n = lo; n <= hi; n += step) v.push_back(n);
  return v;
}

MulticastResult RunMcast(const System& sys, const SimConfig& cfg, SchemeKind kind,
                    NodeId src, const std::vector<NodeId>& dests) {
  const auto scheme = MakeScheme(kind, cfg.host);
  return PlayOnce(sys, cfg, scheme->Plan(sys, src, dests, cfg.message,
                                         cfg.headers));
}

class ExecutorAllSchemes : public ::testing::TestWithParam<SchemeKind> {
 protected:
  void SetUp() override { sys_ = System::Build({}, 42); }
  std::unique_ptr<System> sys_;
  SimConfig cfg_;
};

TEST_P(ExecutorAllSchemes, DeliversToExactlyTheDestinationSet) {
  const auto dests = Range(1, 15);
  const MulticastResult r = RunMcast(*sys_, cfg_, GetParam(), 0, dests);
  EXPECT_EQ(r.num_dests, 15);
  ASSERT_EQ(r.deliveries.size(), dests.size());
  std::set<NodeId> delivered;
  for (const auto& [node, when] : r.deliveries) {
    EXPECT_TRUE(delivered.insert(node).second) << "duplicate at " << node;
    EXPECT_GT(when, 0);
    EXPECT_LE(when, r.completion);
  }
  for (NodeId d : dests) EXPECT_TRUE(delivered.count(d));
  EXPECT_FALSE(delivered.count(0));  // source never delivered to
}

TEST_P(ExecutorAllSchemes, SingleDestinationWorks) {
  const MulticastResult r = RunMcast(*sys_, cfg_, GetParam(), 3, {17});
  EXPECT_EQ(r.deliveries.size(), 1u);
  EXPECT_EQ(r.deliveries[0].first, 17);
}

TEST_P(ExecutorAllSchemes, LatencyHasSoftwareFloor) {
  // Any scheme pays at least send-side o_host + o_ni, receive-side
  // o_ni + o_host, and one receive DMA. (The wire time overlaps with the
  // receive-side NI overhead under cut-through, so it is not additive.)
  const MulticastResult r = RunMcast(*sys_, cfg_, GetParam(), 0, {31});
  const Cycles floor = 2 * cfg_.host.o_host + 2 * cfg_.host.o_ni +
                       cfg_.host.DmaCycles(cfg_.message.packet_flits);
  EXPECT_GE(r.Latency(), floor);
}

TEST_P(ExecutorAllSchemes, LatencyMonotoneInMessageLength) {
  SimConfig longer = cfg_;
  longer.message.num_packets = 4;
  const auto dests = Range(1, 7);
  const MulticastResult short_r = RunMcast(*sys_, cfg_, GetParam(), 0, dests);
  const MulticastResult long_r = RunMcast(*sys_, longer, GetParam(), 0, dests);
  EXPECT_GT(long_r.Latency(), short_r.Latency());
}

TEST_P(ExecutorAllSchemes, LatencyGrowsWithHostOverhead) {
  SimConfig heavy = cfg_;
  heavy.host.o_host = 2000;
  const auto dests = Range(1, 7);
  const MulticastResult light_r = RunMcast(*sys_, cfg_, GetParam(), 0, dests);
  const MulticastResult heavy_r = RunMcast(*sys_, heavy, GetParam(), 0, dests);
  EXPECT_GT(heavy_r.Latency(), light_r.Latency());
}

INSTANTIATE_TEST_SUITE_P(
    Schemes, ExecutorAllSchemes,
    ::testing::Values(SchemeKind::kUnicastBinomial, SchemeKind::kNiKBinomial,
                      SchemeKind::kTreeWorm, SchemeKind::kPathWorm),
    [](const auto& info) { return std::string(ToIdent(info.param)); });

TEST(Executor, TreeWormBeatsSoftwareBaselineAtDefaults) {
  const auto sys = System::Build({}, 42);
  SimConfig cfg;
  const auto dests = Range(1, 15);
  const auto tree = RunMcast(*sys, cfg, SchemeKind::kTreeWorm, 0, dests);
  const auto base = RunMcast(*sys, cfg, SchemeKind::kUnicastBinomial, 0, dests);
  EXPECT_LT(tree.Latency(), base.Latency());
}

TEST(Executor, NiSchemeBeatsSoftwareBaselineAtDefaults) {
  const auto sys = System::Build({}, 42);
  SimConfig cfg;
  const auto dests = Range(1, 15);
  const auto ni = RunMcast(*sys, cfg, SchemeKind::kNiKBinomial, 0, dests);
  const auto base = RunMcast(*sys, cfg, SchemeKind::kUnicastBinomial, 0, dests);
  EXPECT_LT(ni.Latency(), base.Latency());
}

TEST(Executor, UnicastToSameSwitchNeighborIsCheap) {
  // Node on the same switch: one switch traversal, no climbing.
  const auto sys = System::Build({}, 42);
  SimConfig cfg;
  const SwitchId home = sys->graph.SwitchOf(0);
  NodeId neighbor = kInvalidNode;
  for (NodeId n : sys->graph.HostsAt(home))
    if (n != 0) neighbor = n;
  ASSERT_NE(neighbor, kInvalidNode);
  const auto near = RunMcast(*sys, cfg, SchemeKind::kUnicastBinomial, 0, {neighbor});
  // Find a node two+ switches away.
  NodeId far = kInvalidNode;
  for (NodeId n = 0; n < sys->num_nodes(); ++n)
    if (sys->routing.Distance(home, sys->graph.SwitchOf(n)) >= 2) far = n;
  ASSERT_NE(far, kInvalidNode);
  const auto far_r = RunMcast(*sys, cfg, SchemeKind::kUnicastBinomial, 0, {far});
  EXPECT_LT(near.Latency(), far_r.Latency());
}

TEST(Executor, ConcurrentMulticastsAllComplete) {
  const auto sys = System::Build({}, 42);
  SimConfig cfg;
  Engine engine;
  McastDriver driver(engine, *sys, cfg);
  const auto scheme = MakeScheme(SchemeKind::kTreeWorm, cfg.host);
  int done = 0;
  for (NodeId src = 0; src < 8; ++src) {
    std::vector<NodeId> dests;
    for (NodeId n = 8; n < 16; ++n) dests.push_back(n);
    driver.Launch(
        scheme->Plan(*sys, src, dests, cfg.message, cfg.headers),
        /*when=*/src * 10, [&done](const MulticastResult&) { ++done; });
  }
  engine.RunToQuiescence();
  EXPECT_EQ(done, 8);
  EXPECT_EQ(driver.live_multicasts(), 0);
}

TEST(Executor, StaggeredLaunchRespectsStartTime) {
  const auto sys = System::Build({}, 42);
  SimConfig cfg;
  Engine engine;
  McastDriver driver(engine, *sys, cfg);
  const auto scheme = MakeScheme(SchemeKind::kTreeWorm, cfg.host);
  MulticastResult result;
  driver.Launch(scheme->Plan(*sys, 0, {9}, cfg.message, cfg.headers),
                /*when=*/5000,
                [&result](const MulticastResult& r) { result = r; });
  engine.RunToQuiescence();
  EXPECT_EQ(result.start, 5000);
  EXPECT_GT(result.completion, 5000);
}

TEST(ExecutorDeathTest, LaunchRejectsAnEmptyMessage) {
  const auto sys = System::Build({}, 42);
  SimConfig cfg;
  Engine engine;
  McastDriver driver(engine, *sys, cfg);
  const auto scheme = MakeScheme(SchemeKind::kTreeWorm, cfg.host);
  McastPlan plan = scheme->Plan(*sys, 0, {9}, cfg.message, cfg.headers);
  plan.shape = MessageShape{128, 0};
  EXPECT_DEATH(driver.Launch(plan, 0, [](const MulticastResult&) {}),
               "message of 0 packets x 128 flits");
  cfg.message.packet_flits = 0;
  McastDriver flitless(engine, *sys, cfg);
  plan.shape.reset();
  EXPECT_DEATH(flitless.Launch(plan, 0, [](const MulticastResult&) {}),
               "message of 1 packets x 0 flits");
}

TEST(ExecutorDeathTest, DeliveryForAMulticastItNeverLaunchedAborts) {
  // Every packet the network delivers belongs to a live multicast: a
  // stray one aborts the run instead of being ignored.
  const auto sys = System::Build({}, 42);
  SimConfig cfg;
  Engine engine;
  McastDriver driver(engine, *sys, cfg);
  const auto scheme = MakeScheme(SchemeKind::kTreeWorm, cfg.host);
  const std::int64_t id =
      driver.Launch(scheme->Plan(*sys, 0, {9}, cfg.message, cfg.headers), 0,
                    [](const MulticastResult&) {});
  Packet stray;
  stray.mcast_id = id + 1;
  stray.src = 0;
  stray.kind = HeaderKind::kUnicast;
  stray.uni_dest = 5;
  stray.data_flits = 128;
  stray.header_flits = 2;
  driver.network().InjectFromNi(0, std::move(stray), 0);
  EXPECT_DEATH(engine.RunToQuiescence(),
               "delivery for multicast 1, which the driver does not hold");
}

TEST(Executor, SmartNiForwardsBeforeHostDelivery) {
  // In a 2-deep k-binomial chain the grandchild must receive well before
  // intermediate-host-delivery + full-send would allow (the FPFS
  // advantage over the software baseline through one intermediate).
  const auto sys = System::Build({}, 42);
  SimConfig cfg;
  KBinomialNiScheme ni;
  ni.host = cfg.host;
  ni.forced_k = 1;  // chain: 0 -> a -> b
  UnicastBinomialScheme sw;
  // Pick two destinations far from the source.
  const McastPlan ni_plan = ni.Plan(*sys, 0, {16, 24}, cfg.message,
                                    cfg.headers);
  const auto ni_r = PlayOnce(*sys, cfg, ni_plan);

  // Same chain shape through the software baseline: binomial over 2
  // dests is 0->a, a->b only if a adopted b; force equivalent comparison
  // via a 2-element chain: use k-binomial plan shape but conventional
  // execution.
  McastPlan sw_plan = ni_plan;
  sw_plan.scheme = SchemeKind::kUnicastBinomial;
  const auto sw_r = PlayOnce(*sys, cfg, sw_plan);
  EXPECT_LT(ni_r.Latency(), sw_r.Latency());
  // The saving must be at least the hidden host receive overhead.
  EXPECT_GE(sw_r.Latency() - ni_r.Latency(), cfg.host.o_host);
}

TEST(Executor, MultiPacketFpfsPipelines) {
  // With FPFS, a 4-packet message through a chain of 2 overlaps packet
  // forwarding: latency must be far below the store-and-forward bound.
  const auto sys = System::Build({}, 42);
  SimConfig cfg;
  cfg.message.num_packets = 4;
  KBinomialNiScheme ni;
  ni.host = cfg.host;
  ni.forced_k = 1;
  const auto ni_r =
      PlayOnce(*sys, cfg, ni.Plan(*sys, 0, {16, 24}, cfg.message,
                                  cfg.headers));
  McastPlan sw_plan = ni.Plan(*sys, 0, {16, 24}, cfg.message, cfg.headers);
  sw_plan.scheme = SchemeKind::kUnicastBinomial;
  const auto sw_r = PlayOnce(*sys, cfg, sw_plan);
  EXPECT_LT(ni_r.Latency(), sw_r.Latency());
}


TEST(Executor, FpfsMatchesStoreAndForwardForOnePacket) {
  // With a single packet the two NI disciplines are the same machine.
  const auto sys = System::Build({}, 42);
  SimConfig fpfs_cfg;
  SimConfig saf_cfg;
  saf_cfg.host.ni_discipline = NiDiscipline::kMessageStoreAndForward;
  const auto dests = Range(1, 15);
  const auto a = RunMcast(*sys, fpfs_cfg, SchemeKind::kNiKBinomial, 0, dests);
  const auto b = RunMcast(*sys, saf_cfg, SchemeKind::kNiKBinomial, 0, dests);
  EXPECT_EQ(a.Latency(), b.Latency());
}

TEST(Executor, FpfsBeatsStoreAndForwardForMultiPacket) {
  const auto sys = System::Build({}, 42);
  SimConfig fpfs_cfg;
  fpfs_cfg.message.num_packets = 8;
  SimConfig saf_cfg = fpfs_cfg;
  saf_cfg.host.ni_discipline = NiDiscipline::kMessageStoreAndForward;
  const auto dests = Range(1, 15);
  const auto a = RunMcast(*sys, fpfs_cfg, SchemeKind::kNiKBinomial, 0, dests);
  const auto b = RunMcast(*sys, saf_cfg, SchemeKind::kNiKBinomial, 0, dests);
  // FPFS pipelines packets through intermediate NIs; SAF re-serialises
  // the whole message at every level.
  EXPECT_LT(a.Latency(), b.Latency());
  EXPECT_GT(b.Latency() - a.Latency(), 1000);
}

TEST(Executor, SeparateAddressingCoversAllButSlower) {
  const auto sys = System::Build({}, 42);
  SimConfig cfg;
  SeparateAddressingScheme flat;
  UnicastBinomialScheme binomial;
  const auto dests = Range(1, 15);
  const auto flat_r = PlayOnce(
      *sys, cfg, flat.Plan(*sys, 0, dests, cfg.message, cfg.headers));
  const auto bin_r = PlayOnce(
      *sys, cfg, binomial.Plan(*sys, 0, dests, cfg.message, cfg.headers));
  EXPECT_EQ(flat_r.deliveries.size(), dests.size());
  // The source serialises 15 full sends; binomial parallelises them.
  EXPECT_GT(flat_r.Latency(), bin_r.Latency());
}

TEST(Executor, PerMulticastShapeOverride) {
  // Two multicasts on one driver, one with a short override: the short
  // one must finish far sooner and both must deliver.
  const auto sys = System::Build({}, 42);
  SimConfig cfg;
  cfg.message.num_packets = 8;  // driver default: long messages
  Engine engine;
  McastDriver driver(engine, *sys, cfg);
  const auto scheme = MakeScheme(SchemeKind::kTreeWorm, cfg.host);

  McastPlan long_plan =
      scheme->Plan(*sys, 0, {9, 17}, cfg.message, cfg.headers);
  McastPlan short_plan =
      scheme->Plan(*sys, 1, {10, 18}, cfg.message, cfg.headers);
  short_plan.shape = MessageShape{16, 1};  // 16-flit single packet

  MulticastResult long_r, short_r;
  driver.Launch(std::move(long_plan), 0,
                [&](const MulticastResult& r) { long_r = r; });
  driver.Launch(std::move(short_plan), 0,
                [&](const MulticastResult& r) { short_r = r; });
  engine.RunToQuiescence();
  EXPECT_EQ(long_r.deliveries.size(), 2u);
  EXPECT_EQ(short_r.deliveries.size(), 2u);
  // Software overheads dominate both; the short override still saves
  // the seven extra packets' wire and DMA time.
  EXPECT_LT(short_r.Latency() + 400, long_r.Latency());
}

TEST(Executor, DeliveredCallbackFiresPerDestinationInOrder) {
  const auto sys = System::Build({}, 42);
  SimConfig cfg;
  Engine engine;
  McastDriver driver(engine, *sys, cfg);
  const auto scheme = MakeScheme(SchemeKind::kNiKBinomial, cfg.host);
  std::vector<std::pair<NodeId, Cycles>> seen;
  driver.Launch(
      scheme->Plan(*sys, 0, {3, 11, 19, 27}, cfg.message, cfg.headers), 0,
      [](const MulticastResult&) {},
      [&seen](NodeId n, Cycles when) { seen.emplace_back(n, when); });
  engine.RunToQuiescence();
  ASSERT_EQ(seen.size(), 4u);
  for (std::size_t i = 1; i < seen.size(); ++i)
    EXPECT_GE(seen[i].second, seen[i - 1].second);
}

}  // namespace
}  // namespace irmc
