#include "mcast/tree_worm.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "core/single_runner.hpp"

#include "topology/system.hpp"

namespace irmc {
namespace {

TEST(TreeWormPlan, CarriesDestinationsVerbatim) {
  const auto sys = System::Build({}, 21);
  TreeWormScheme scheme;
  const std::vector<NodeId> dests{1, 5, 9, 30};
  const McastPlan plan = scheme.Plan(*sys, 0, dests, {}, {});
  EXPECT_EQ(plan.scheme, SchemeKind::kTreeWorm);
  EXPECT_EQ(plan.root, 0);
  EXPECT_EQ(plan.dests, dests);
  EXPECT_TRUE(plan.worms.empty());
}

TEST(TreeWormHeader, SizeMatchesPaperEncoding) {
  // Header is an N-bit string, one bit per node (plus the routing tag).
  HeaderSizing sizing;
  EXPECT_EQ(sizing.TreeWormFlits(32), HeaderSizing::unicast_flits + 4);
  EXPECT_EQ(sizing.TreeWormFlits(8), HeaderSizing::unicast_flits + 1);
  EXPECT_EQ(sizing.TreeWormFlits(256), HeaderSizing::unicast_flits + 32);
  EXPECT_EQ(sizing.TreeWormFlits(257), HeaderSizing::unicast_flits + 33);
}

TEST(PathHeader, FieldSizeMatchesPaperEncoding) {
  // One node-ID flit plus a ports-wide bit string per replication switch.
  HeaderSizing sizing;
  EXPECT_EQ(sizing.PathFieldFlits(8), 2);
  EXPECT_EQ(sizing.PathFieldFlits(16), 3);
}


TEST(TreeWormChunked, SpanZeroKeepsSingleWorm) {
  const auto sys = System::Build({}, 21);
  TreeWormScheme scheme;
  const McastPlan plan = scheme.Plan(*sys, 0, {1, 5, 30}, {}, {});
  EXPECT_TRUE(plan.tree_regions.empty());
}

TEST(TreeWormChunked, RegionsPartitionDestinations) {
  const auto sys = System::Build({}, 21);
  TreeWormScheme scheme;
  scheme.max_region_span = 8;
  const std::vector<NodeId> dests{1, 3, 7, 9, 17, 20, 30};
  const McastPlan plan = scheme.Plan(*sys, 0, dests, {}, {});
  ASSERT_FALSE(plan.tree_regions.empty());
  std::vector<NodeId> merged;
  for (const auto& region : plan.tree_regions) {
    ASSERT_FALSE(region.empty());
    // Window constraint: span of IDs within a region < cap.
    EXPECT_LT(region.back() - region.front(), 8);
    merged.insert(merged.end(), region.begin(), region.end());
  }
  std::sort(merged.begin(), merged.end());
  auto expected = dests;
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(merged, expected);
  EXPECT_EQ(plan.tree_region_header_flits.size(),
            plan.tree_regions.size());
}

TEST(TreeWormChunked, HeaderSizeIndependentOfSystemSize) {
  HeaderSizing sizing;
  TopologySpec big;
  big.num_hosts = 256;
  big.num_switches = 64;
  const auto sys = System::Build(big, 3);
  TreeWormScheme scheme;
  scheme.max_region_span = 32;
  const McastPlan plan =
      scheme.Plan(*sys, 0, {10, 20, 200, 250}, {}, sizing);
  for (int flits : plan.tree_region_header_flits)
    EXPECT_EQ(flits, HeaderSizing::unicast_flits + 1 + 4);  // offset + 32 bits
  // The paper's single worm at this size would carry 32 bit-string
  // flits.
  EXPECT_EQ(sizing.TreeWormFlits(256), HeaderSizing::unicast_flits + 32);
}

TEST(TreeWormChunked, ChunkedPlanDeliversExactlyOnce) {
  const auto sys = System::Build({}, 21);
  SimConfig cfg;
  TreeWormScheme scheme;
  scheme.max_region_span = 8;
  std::vector<NodeId> dests;
  for (NodeId n = 1; n < 32; n += 2) dests.push_back(n);
  const auto r = PlayOnce(
      *sys, cfg, scheme.Plan(*sys, 0, dests, cfg.message, cfg.headers));
  EXPECT_EQ(r.deliveries.size(), dests.size());
}

TEST(TreeWormChunked, MultiPacketChunkedStillDelivers) {
  const auto sys = System::Build({}, 21);
  SimConfig cfg;
  cfg.message.num_packets = 3;
  TreeWormScheme scheme;
  scheme.max_region_span = 16;
  const std::vector<NodeId> dests{2, 9, 18, 27};
  const auto r = PlayOnce(
      *sys, cfg, scheme.Plan(*sys, 0, dests, cfg.message, cfg.headers));
  EXPECT_EQ(r.deliveries.size(), dests.size());
}

}  // namespace
}  // namespace irmc
