#include "mcast/kbinomial.hpp"

#include <gtest/gtest.h>

#include <queue>
#include <set>

#include "core/single_runner.hpp"
#include "topology/system.hpp"

namespace irmc {
namespace {

TEST(EvalFpfsCompletion, SinglePacketPrefersWideTrees) {
  // One packet: more children per round reaches everyone sooner, so the
  // completion time is non-increasing in k up to the binomial optimum.
  MessageShape one_pkt{128, 1};
  HostParams host;
  const Cycles k1 = EvalFpfsCompletion(15, 1, one_pkt, host, 130, 209);
  const Cycles k4 = EvalFpfsCompletion(15, 4, one_pkt, host, 130, 209);
  EXPECT_LT(k4, k1);
}

TEST(EvalFpfsCompletion, ManyPacketsPreferNarrowTrees) {
  // 16 packets: a chain (k=1) pipelines packets and beats a wide tree
  // whose root serializes 16*k copies.
  MessageShape long_msg{128, 16};
  HostParams host;
  const Cycles k1 = EvalFpfsCompletion(15, 1, long_msg, host, 130, 209);
  const Cycles k8 = EvalFpfsCompletion(15, 8, long_msg, host, 130, 209);
  EXPECT_LT(k1, k8);
}

TEST(EvalFpfsCompletion, MonotoneInReceivers) {
  MessageShape shape{128, 2};
  HostParams host;
  Cycles prev = 0;
  for (int n = 1; n <= 31; n *= 2) {
    const Cycles t = EvalFpfsCompletion(n, 3, shape, host, 130, 209);
    EXPECT_GT(t, prev);
    prev = t;
  }
}

TEST(EvalFpfsCompletion, MonotoneInPackets) {
  HostParams host;
  Cycles prev = 0;
  for (int m = 1; m <= 8; ++m) {
    const Cycles t =
        EvalFpfsCompletion(15, 3, MessageShape{128, m}, host, 130, 209);
    EXPECT_GT(t, prev);
    prev = t;
  }
}

TEST(ChooseK, SinglePacketChoosesWiderThanLongMessage) {
  HostParams host;
  const int k_short = ChooseK(31, MessageShape{128, 1}, host, 130, 209);
  const int k_long = ChooseK(31, MessageShape{128, 16}, host, 130, 209);
  EXPECT_GE(k_short, k_long);
  EXPECT_GE(k_long, 1);
}

TEST(ChooseK, MatchesExhaustiveMinimum) {
  HostParams host;
  for (int m : {1, 2, 4, 8}) {
    const MessageShape shape{128, m};
    const int k = ChooseK(15, shape, host, 130, 209);
    const Cycles at_k = EvalFpfsCompletion(15, k, shape, host, 130, 209);
    for (int other = 1; other <= 8; ++other)
      EXPECT_LE(at_k, EvalFpfsCompletion(15, other, shape, host, 130, 209));
  }
}

TEST(ChooseKDeathTest, EmptyMessageIsAPreconditionFailure) {
  const HostParams host;
  EXPECT_DEATH(ChooseK(8, MessageShape{128, 0}, host, 130, 1009),
               "precondition violated.*message of 0 packets x 128 flits");
  EXPECT_DEATH(ChooseK(8, MessageShape{0, 1}, host, 2, 1009),
               "precondition violated.*message of 1 packets x 0 flits");
  EXPECT_DEATH(EvalFpfsCompletion(8, 2, MessageShape{128, 0}, host, 130, 1009),
               "precondition violated");
}

class KBinomialPlanSweep
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(KBinomialPlanSweep, PlanIsValidTree) {
  const auto [size, packets] = GetParam();
  const auto sys = System::Build({}, 17);
  KBinomialNiScheme scheme;
  MessageShape shape{128, packets};
  std::vector<NodeId> dests;
  for (NodeId n = 1; n <= size; ++n) dests.push_back(n);
  const McastPlan plan = scheme.Plan(*sys, 0, dests, shape, {});

  EXPECT_GE(plan.chosen_k, 1);
  std::set<NodeId> seen{0};
  std::queue<NodeId> frontier;
  frontier.push(0);
  while (!frontier.empty()) {
    const NodeId u = frontier.front();
    frontier.pop();
    const auto& kids = plan.children[static_cast<std::size_t>(u)];
    EXPECT_LE(static_cast<int>(kids.size()), plan.chosen_k);
    for (NodeId c : kids) {
      EXPECT_TRUE(seen.insert(c).second);
      frontier.push(c);
    }
  }
  EXPECT_EQ(seen.size(), dests.size() + 1);
}

INSTANTIATE_TEST_SUITE_P(
    SizesAndPackets, KBinomialPlanSweep,
    ::testing::Combine(::testing::Values(1, 4, 8, 15, 31),
                       ::testing::Values(1, 4, 16)));

TEST(KBinomialPlan, ForcedKOverridesModel) {
  const auto sys = System::Build({}, 17);
  KBinomialNiScheme scheme;
  scheme.forced_k = 2;
  std::vector<NodeId> dests;
  for (NodeId n = 1; n <= 15; ++n) dests.push_back(n);
  const McastPlan plan = scheme.Plan(*sys, 0, dests, {}, {});
  EXPECT_EQ(plan.chosen_k, 2);
  for (const auto& kids : plan.children)
    EXPECT_LE(static_cast<int>(kids.size()), 2);
}

TEST(KBinomialPlan, NonParticipantsHaveNoChildren) {
  const auto sys = System::Build({}, 17);
  KBinomialNiScheme scheme;
  const McastPlan plan = scheme.Plan(*sys, 0, {1, 2, 3}, {}, {});
  std::set<NodeId> participants{0, 1, 2, 3};
  for (NodeId n = 0; n < sys->num_nodes(); ++n) {
    if (!participants.count(n)) {
      EXPECT_TRUE(plan.children[static_cast<std::size_t>(n)].empty());
    }
  }
}


TEST(ChooseK, ModelPickNearSimulatedOptimumAcrossMessageLengths) {
  // The closed-form FPFS model need not be exact, but its chosen k must
  // stay within 15% of the best simulated k (the guarantee ablC relies
  // on).
  const auto sys = System::Build({}, 42);
  SimConfig cfg;
  for (int m : {1, 2, 4, 8}) {
    cfg.message.num_packets = m;
    std::vector<NodeId> dests;
    for (NodeId n = 1; n <= 15; ++n) dests.push_back(n);
    double best = 0.0;
    double chosen_latency = 0.0;
    const int chosen =
        ChooseK(15, cfg.message, cfg.host, 130, 9 + 2 * cfg.host.o_ni);
    for (int k = 1; k <= 8; ++k) {
      KBinomialNiScheme scheme;
      scheme.host = cfg.host;
      scheme.forced_k = k;
      const auto r = PlayOnce(
          *sys, cfg,
          scheme.Plan(*sys, 0, dests, cfg.message, cfg.headers));
      const auto latency = static_cast<double>(r.Latency());
      if (best == 0.0 || latency < best) best = latency;
      if (k == chosen) chosen_latency = latency;
    }
    EXPECT_LE(chosen_latency, best * 1.15) << "packets=" << m;
  }
}

}  // namespace
}  // namespace irmc
