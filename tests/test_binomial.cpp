#include "mcast/binomial.hpp"

#include <gtest/gtest.h>

#include <queue>
#include <set>

#include "mcast/kbinomial.hpp"
#include "topology/system.hpp"

namespace irmc {
namespace {

/// Collects every node reachable through the plan's children lists and
/// checks tree-ness (each node has at most one parent, no cycles).
std::set<NodeId> CollectTree(const McastPlan& plan) {
  std::set<NodeId> seen{plan.root};
  std::queue<NodeId> frontier;
  frontier.push(plan.root);
  while (!frontier.empty()) {
    const NodeId u = frontier.front();
    frontier.pop();
    for (NodeId c : plan.children.Row(static_cast<std::size_t>(u))) {
      EXPECT_TRUE(seen.insert(c).second) << "node adopted twice: " << c;
      frontier.push(c);
    }
  }
  return seen;
}

/// Rounds a binomial-style plan needs: each round, every holder sends to
/// one child (in list order).
int StepsToComplete(const McastPlan& plan) {
  std::map<NodeId, int> arrive;  // round at which node holds the message
  arrive[plan.root] = 0;
  // Simulate round-robin: child i of node u (0-based) arrives at
  // arrive[u] + i + 1 (one send per round per holder).
  std::queue<NodeId> order;
  order.push(plan.root);
  int last = 0;
  while (!order.empty()) {
    const NodeId u = order.front();
    order.pop();
    int i = 0;
    for (NodeId c : plan.children.Row(static_cast<std::size_t>(u))) {
      arrive[c] = arrive[u] + i + 1;
      last = std::max(last, arrive[c]);
      order.push(c);
      ++i;
    }
  }
  return last;
}

class BinomialSweep : public ::testing::TestWithParam<int> {};

TEST_P(BinomialSweep, CoversAllInLogSteps) {
  const auto sys = System::Build({}, 7);
  UnicastBinomialScheme scheme;
  std::vector<NodeId> dests;
  for (NodeId n = 1; n <= GetParam(); ++n) dests.push_back(n);
  const McastPlan plan = scheme.Plan(*sys, 0, dests, {}, {});

  const auto covered = CollectTree(plan);
  EXPECT_EQ(covered.size(), dests.size() + 1);
  for (NodeId d : dests) EXPECT_TRUE(covered.count(d));

  // ceil(log2(n+1)) steps — the best achievable with unicast (paper
  // Section 3.1).
  int expect_steps = 0;
  while ((1 << expect_steps) < GetParam() + 1) ++expect_steps;
  EXPECT_EQ(StepsToComplete(plan), expect_steps);
}

INSTANTIATE_TEST_SUITE_P(Sizes, BinomialSweep,
                         ::testing::Values(1, 2, 3, 4, 7, 8, 15, 16, 31));

TEST(Binomial, PaperFigure2SevenDestinations) {
  // Figure 2 of the paper: multicast to 7 destinations completes in 3
  // steps; the root sends 3 times.
  const auto sys = System::Build({}, 3);
  UnicastBinomialScheme scheme;
  std::vector<NodeId> dests{1, 2, 3, 4, 5, 6, 7};
  const McastPlan plan = scheme.Plan(*sys, 0, dests, {}, {});
  EXPECT_EQ(StepsToComplete(plan), 3);
  EXPECT_EQ(plan.children.Row(0).size(), 3u);
}

TEST(Binomial, RootIsNeverADestination) {
  const auto sys = System::Build({}, 11);
  UnicastBinomialScheme scheme;
  const McastPlan plan = scheme.Plan(*sys, 5, {1, 2, 3}, {}, {});
  EXPECT_EQ(plan.root, 5);
  const auto covered = CollectTree(plan);
  EXPECT_TRUE(covered.count(5));
  EXPECT_EQ(covered.size(), 4u);
}

/// The capped-binomial tree as children lists in adoption order, with
/// each node's `rank` and `children` checked against them.
std::vector<std::vector<int>> CappedBinomialChildren(int receivers, int k) {
  std::vector<BinomialNode> tree;
  BuildCappedBinomial(receivers, k, tree);
  EXPECT_EQ(tree.size(), static_cast<std::size_t>(receivers) + 1);
  EXPECT_EQ(tree[0].parent, -1);
  std::vector<std::vector<int>> children(tree.size());
  for (std::size_t c = 1; c < tree.size(); ++c) {
    EXPECT_LT(tree[c].parent, static_cast<int>(c)) << "parent after child";
    auto& kids = children[static_cast<std::size_t>(tree[c].parent)];
    EXPECT_EQ(tree[c].rank, static_cast<int>(kids.size()));
    kids.push_back(static_cast<int>(c));
  }
  for (std::size_t u = 0; u < tree.size(); ++u)
    EXPECT_EQ(tree[u].children, static_cast<int>(children[u].size()));
  return children;
}

/// The round-based growth in its plainest form: a holder list and
/// per-node children vectors, each round visiting every holder.
std::vector<std::vector<int>> ReferenceCappedBinomial(int receivers, int k) {
  std::vector<std::vector<int>> children(
      static_cast<std::size_t>(receivers) + 1);
  std::vector<int> have{0};
  int next = 1;
  while (next <= receivers) {
    const std::size_t round_holders = have.size();
    for (std::size_t i = 0; i < round_holders && next <= receivers; ++i) {
      auto& kids = children[static_cast<std::size_t>(have[i])];
      if (static_cast<int>(kids.size()) >= k) continue;
      kids.push_back(next);
      have.push_back(next);
      ++next;
    }
  }
  return children;
}

TEST(BuildCappedBinomial, UncappedDoubles) {
  const auto children = CappedBinomialChildren(7, 100);
  // After r rounds, 2^r nodes hold the message.
  // Root children: 3 (one per round).
  EXPECT_EQ(children[0].size(), 3u);
  EXPECT_EQ(children[1].size(), 2u);  // adopted in round 1, sends twice
}

TEST(BuildCappedBinomial, CapOneIsAChain) {
  const auto children = CappedBinomialChildren(5, 1);
  for (int u = 0; u <= 5; ++u) {
    const auto& kids = children[static_cast<std::size_t>(u)];
    if (u < 5) {
      EXPECT_EQ(kids, (std::vector<int>{u + 1}));
    } else {
      EXPECT_TRUE(kids.empty());
    }
  }
}

TEST(BuildCappedBinomial, CapRespected) {
  for (int k = 1; k <= 4; ++k) {
    const auto children = CappedBinomialChildren(20, k);
    int total = 0;
    for (const auto& kids : children) {
      EXPECT_LE(static_cast<int>(kids.size()), k);
      total += static_cast<int>(kids.size());
    }
    EXPECT_EQ(total, 20);  // everyone adopted exactly once
  }
}

TEST(BuildCappedBinomial, ZeroReceivers) {
  const auto children = CappedBinomialChildren(0, 3);
  ASSERT_EQ(children.size(), 1u);
  EXPECT_TRUE(children[0].empty());
}

TEST(BuildCappedBinomial, MatchesRoundBasedReference) {
  for (int receivers = 0; receivers <= 70; ++receivers)
    for (int k = 1; k <= 9; ++k)
      EXPECT_EQ(CappedBinomialChildren(receivers, k),
                ReferenceCappedBinomial(receivers, k))
          << receivers << " receivers, k " << k;
  EXPECT_EQ(CappedBinomialChildren(40, 41), ReferenceCappedBinomial(40, 41));
}

TEST(BuildCappedBinomial, ReusedBufferIsOverwritten) {
  std::vector<BinomialNode> tree;
  BuildCappedBinomial(30, 2, tree);
  BuildCappedBinomial(6, 3, tree);
  std::vector<BinomialNode> fresh;
  BuildCappedBinomial(6, 3, fresh);
  ASSERT_EQ(tree.size(), fresh.size());
  for (std::size_t u = 0; u < tree.size(); ++u) {
    EXPECT_EQ(tree[u].parent, fresh[u].parent);
    EXPECT_EQ(tree[u].rank, fresh[u].rank);
    EXPECT_EQ(tree[u].children, fresh[u].children);
  }
}

TEST(OrderDestsBySwitch, GroupsBySwitchAndDistance) {
  const auto sys = System::Build({}, 13);
  std::vector<NodeId> dests;
  for (NodeId n = 1; n < 20; ++n) dests.push_back(n);
  const auto ordered = OrderDestsBySwitch(*sys, 0, dests);
  ASSERT_EQ(ordered.size(), dests.size());
  // Same multiset.
  auto sorted = ordered;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, dests);
  // Nodes of one switch are contiguous.
  std::set<SwitchId> closed;
  SwitchId current = kInvalidSwitch;
  for (NodeId n : ordered) {
    const SwitchId s = sys->graph.SwitchOf(n);
    if (s != current) {
      EXPECT_TRUE(closed.insert(s).second) << "switch revisited: " << s;
      current = s;
    }
  }
  // Distances never decrease along the switch order.
  const SwitchId home = sys->graph.SwitchOf(0);
  int prev = -1;
  current = kInvalidSwitch;
  for (NodeId n : ordered) {
    const SwitchId s = sys->graph.SwitchOf(n);
    if (s == current) continue;
    current = s;
    const int d = sys->routing.Distance(home, s);
    EXPECT_GE(d, prev);
    prev = d;
  }
}

}  // namespace
}  // namespace irmc
