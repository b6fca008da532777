// Direct unit tests for the shared routing layer (route_logic.hpp).
//
// Both engines and the static deadlock analyzer route through this
// layer, but until now it was only covered transitively via the engine
// cross-check. These tests pin its contract directly: candidate
// selection (deterministic first-candidate vs least-loaded adaptive),
// tree-worm decisions (down-coverable replication, sufficient-up climb,
// all-ups fallback), multidestination header parsing/narrowing, branch
// fan-out order, and hop logging. A branch is a header edit: the
// packet a branch carries is the arriving one with the branch's edits
// written over it (Replica below, as the engines do).
#include "network/route_logic.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "topology/generator.hpp"
#include "topology/system.hpp"

namespace irmc {
namespace {

PortLoadFn ZeroLoad() {
  return [](SwitchId, PortId) { return 0; };
}

/// The packet branch `b` carries out of switch `s`: `pkt` with the
/// branch's header edits written over it.
Packet Replica(SwitchId s, const Packet& pkt, RouteBranch b) {
  Packet out = pkt;
  ApplyBranch(s, b, out);
  return out;
}

Packet UnicastPkt(NodeId src, NodeId dst) {
  Packet pkt;
  pkt.mcast_id = 1;
  pkt.src = src;
  pkt.kind = HeaderKind::kUnicast;
  pkt.uni_dest = dst;
  pkt.data_flits = 64;
  pkt.header_flits = 2;
  return pkt;
}

Packet TreePkt(NodeId src, int capacity, std::vector<NodeId> dests) {
  Packet pkt;
  pkt.mcast_id = 1;
  pkt.src = src;
  pkt.kind = HeaderKind::kTreeWorm;
  pkt.tree_dests = NodeSet::FromVector(capacity, dests);
  pkt.data_flits = 64;
  pkt.header_flits = HeaderSizing{}.TreeWormFlits(capacity);
  return pkt;
}

/// Two switches, two hosts on the root, one below: the smallest graph
/// with both a local drop and a down forward.
System TwoSwitchSystem() {
  Graph g(2, 4);
  g.AddLink(0, 0, 1, 0);
  g.AttachHost(0, 1);  // node 0
  g.AttachHost(0, 2);  // node 1
  g.AttachHost(1, 1);  // node 2
  return System{std::move(g)};
}

// --- unicast candidate selection -------------------------------------

TEST(RouteLogicUnicast, LocalDestinationDropsToItsHostPort) {
  const System sys = TwoSwitchSystem();
  std::vector<RouteBranch> out;
  const Packet pkt = UnicastPkt(0, 1);
  ComputeRouteBranches(sys, 0, pkt, false, ZeroLoad(), out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].port, sys.graph.host(1).port);
  EXPECT_EQ(Replica(0, pkt, out[0]).uni_dest, 1);
}

TEST(RouteLogicUnicast, DeterministicFollowsFirstCandidateIgnoringLoad) {
  // Find a (switch, dest) entry with at least two candidates in a
  // generated system, then load the first candidate heavily: the
  // deterministic pick must still be candidates.front().
  TopologySpec spec;
  spec.num_switches = 16;
  spec.num_hosts = 32;
  const System sys(GenerateTopology(spec, 7));
  SwitchId here = kInvalidSwitch, dest_sw = kInvalidSwitch;
  for (SwitchId s = 0; s < sys.num_switches() && here < 0; ++s)
    for (SwitchId d = 0; d < sys.num_switches(); ++d) {
      if (d == s || sys.graph.HostsAt(d).empty()) continue;
      if (sys.routing.Candidates(s, d, RoutePhase::kUpAllowed).size() >= 2) {
        here = s;
        dest_sw = d;
        break;
      }
    }
  ASSERT_NE(here, kInvalidSwitch) << "no multi-candidate entry in topology";
  const auto& cands =
      sys.routing.Candidates(here, dest_sw, RoutePhase::kUpAllowed);
  const NodeId dst = sys.graph.HostsAt(dest_sw).front();

  const PortLoadFn load = [&cands](SwitchId, PortId p) {
    return p == cands.front() ? 100 : 0;
  };
  std::vector<RouteBranch> det;
  ComputeRouteBranches(sys, here, UnicastPkt(0, dst), false, load, det);
  ASSERT_EQ(det.size(), 1u);
  EXPECT_EQ(det[0].port, cands.front());

  // Adaptive must dodge the loaded port for a less-loaded candidate.
  std::vector<RouteBranch> ad;
  ComputeRouteBranches(sys, here, UnicastPkt(0, dst), true, load, ad);
  ASSERT_EQ(ad.size(), 1u);
  EXPECT_NE(ad[0].port, cands.front());
  EXPECT_NE(std::find(cands.begin(), cands.end(), ad[0].port), cands.end());
}

TEST(RouteLogicUnicast, AdaptiveBreaksTiesTowardTheFirstCandidate) {
  const System sys = TwoSwitchSystem();
  // Only one candidate exists here, so the tie-break is trivially the
  // first — this pins that equal load never diverts the route.
  std::vector<RouteBranch> out;
  ComputeRouteBranches(sys, 0, UnicastPkt(0, 2), true, ZeroLoad(), out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].port, 0);
  EXPECT_EQ(out[0].phase, RoutePhase::kDownOnly);  // down move
}

// --- tree-worm decisions and header narrowing ------------------------

TEST(RouteLogicTree, LocalDropsComeFirstWithSingletonHeaders) {
  const System sys = TwoSwitchSystem();
  std::vector<RouteBranch> out;
  ComputeRouteBranches(sys, 0, TreePkt(0, 3, {1, 2}), false, ZeroLoad(), out);
  ASSERT_EQ(out.size(), 2u);
  // Host drop first (node 1), narrowed to a singleton bit-string.
  EXPECT_EQ(out[0].port, sys.graph.host(1).port);
  EXPECT_TRUE(out[0].tree_dests.Test(1));
  EXPECT_EQ(out[0].tree_dests.ToVector().size(), 1u);
  // Then the down forward toward node 2, header narrowed to {2}.
  EXPECT_EQ(out[1].port, 0);
  EXPECT_EQ(out[1].phase, RoutePhase::kDownOnly);
  EXPECT_TRUE(out[1].tree_dests.Test(2));
  EXPECT_FALSE(out[1].tree_dests.Test(1));
}

TEST(RouteLogicTree, DownReplicationPartitionsByPrimaryStrings) {
  // Worm replication at a generated root: every branch's narrowed
  // header must sit inside its port's primary string, and the branches
  // must partition the remaining set exactly (deliver exactly once).
  TopologySpec spec;
  spec.num_switches = 16;
  spec.num_hosts = 32;
  const System sys(GenerateTopology(spec, 7));
  // Send from host 0 to a spread of eight destinations.
  std::vector<NodeId> dests{3, 7, 11, 15, 19, 23, 27, 31};
  const SwitchId src_sw = sys.graph.SwitchOf(0);
  auto pkt = TreePkt(0, 32, dests);
  std::vector<RouteBranch> out;
  ComputeRouteBranches(sys, src_sw, pkt, false, ZeroLoad(), out);
  ASSERT_FALSE(out.empty());
  NodeSet covered(32);
  for (const RouteBranch& b : out) {
    const Port& port = sys.graph.port(src_sw, b.port);
    if (port.kind == PortKind::kHost) {
      EXPECT_FALSE(covered.Test(port.host));
      covered.Set(port.host);
      continue;
    }
    ASSERT_EQ(port.kind, PortKind::kSwitch);
    if (b.phase == RoutePhase::kDownOnly) {
      EXPECT_TRUE(b.tree_dests.IsSubsetOf(sys.reach.Primary(src_sw, b.port)));
    }
    for (NodeId n : b.tree_dests.ToVector()) {
      EXPECT_FALSE(covered.Test(n)) << "node " << n << " delivered twice";
      covered.Set(n);
    }
  }
  EXPECT_EQ(covered, pkt.tree_dests);
}

TEST(RouteLogicTree, DecisionReplicatesWhenDownCoverable) {
  const System sys = TwoSwitchSystem();
  NodeSet rem(3);
  rem.Set(2);  // host below switch 1
  const TreeRouteDecision d =
      TreeWormDecision(sys, 0, rem, RoutePhase::kUpAllowed);
  EXPECT_TRUE(d.down);
  ASSERT_EQ(d.ports.size(), 1u);
  EXPECT_TRUE(rem.IsSubsetOf(sys.reach.Primary(0, d.ports[0])));
}

TEST(RouteLogicTree, DecisionClimbsThroughASufficientUpPort) {
  const System sys = TwoSwitchSystem();
  NodeSet rem(3);
  rem.Set(0);  // host at the root: not below switch 1
  const TreeRouteDecision d =
      TreeWormDecision(sys, 1, rem, RoutePhase::kUpAllowed);
  EXPECT_FALSE(d.down);
  ASSERT_EQ(d.ports.size(), 1u);
  EXPECT_TRUE(sys.updown.IsUp(1, d.ports[0]));
}

TEST(RouteLogicTree, DecisionFallsBackToAllUpsWhenNoPeerSuffices) {
  // Diamond: 3 hangs under both 1 and 2; a worm at 3 for {host@1,
  // host@2} finds neither up peer sufficient alone and must keep both
  // climb options open.
  Graph g(4, 4);
  g.AddLink(0, 0, 1, 0);
  g.AddLink(0, 1, 2, 0);
  g.AddLink(1, 1, 3, 0);
  g.AddLink(2, 1, 3, 1);
  g.AttachHost(1, 2);  // node 0
  g.AttachHost(2, 2);  // node 1
  g.AttachHost(3, 2);  // node 2 (a source below)
  const System sys{std::move(g)};
  NodeSet rem(3);
  rem.Set(0);
  rem.Set(1);
  const TreeRouteDecision d =
      TreeWormDecision(sys, 3, rem, RoutePhase::kUpAllowed);
  EXPECT_FALSE(d.down);
  EXPECT_EQ(d.ports.size(), sys.updown.UpPorts(3).size());
  ASSERT_GE(d.ports.size(), 2u);

  // Adaptive climb picks the least-loaded of those ups.
  std::vector<RouteBranch> out;
  const PortLoadFn load = [&d](SwitchId, PortId p) {
    return p == d.ports[0] ? 5 : 0;
  };
  ComputeRouteBranches(sys, 3, TreePkt(2, 3, {0, 1}), true, load, out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].port, d.ports[1]);
  EXPECT_EQ(out[0].phase, RoutePhase::kUpAllowed);
}

// --- path-worm header consumption ------------------------------------

TEST(RouteLogicPath, StepsDeliverThenForwardAndStripHeaderFields) {
  Graph g(3, 4);
  g.AddLink(0, 0, 1, 0);
  g.AddLink(1, 1, 2, 0);
  g.AttachHost(0, 3);  // node 0
  g.AttachHost(1, 3);  // node 1
  g.AttachHost(2, 3);  // node 2
  const System sys{std::move(g)};

  PathRoutes route;
  route.drops = {1, 2};
  route.steps = {{0, 0, 4, 0, 0}, {1, 1, 2, 0, 1}, {2, kInvalidPort, 0, 1, 2}};

  Packet pkt;
  pkt.mcast_id = 1;
  pkt.src = 0;
  pkt.kind = HeaderKind::kPathWorm;
  pkt.data_flits = 64;
  pkt.header_flits = 6;
  pkt.path = &route;
  pkt.path_cursor = 1;

  std::vector<RouteBranch> out;
  ComputeRouteBranches(sys, 1, pkt, false, ZeroLoad(), out);
  ASSERT_EQ(out.size(), 2u);
  // Drop to host 1 first, then the forward with the consumed field
  // stripped from the wire header and the cursor advanced.
  EXPECT_EQ(out[0].port, sys.graph.host(1).port);
  EXPECT_EQ(out[1].port, 1);
  EXPECT_EQ(out[1].path_cursor, 2);
  EXPECT_EQ(out[1].header_flits, 2);
  EXPECT_EQ(out[1].phase, RoutePhase::kDownOnly);
  // The drop keeps the arriving header.
  EXPECT_EQ(out[0].path_cursor, 1);
  EXPECT_EQ(out[0].header_flits, 6);

  // Terminal step: only the drop, no forward branch.
  std::vector<RouteBranch> last;
  ComputeRouteBranches(sys, 2, Replica(1, pkt, out[1]), false, ZeroLoad(),
                       last);
  ASSERT_EQ(last.size(), 1u);
  EXPECT_EQ(last[0].port, sys.graph.host(2).port);
}

TEST(RouteLogicPathDeathTest, DownOnlyWormNamingAnUpPortAborts) {
  // A path worm already descending whose next step forwards on an up
  // port breaks the up*/down* phase rule: the network is lossless, so
  // the route logic aborts instead of dropping it.
  Graph g(3, 4);
  g.AddLink(0, 0, 1, 0);
  g.AddLink(1, 1, 2, 0);
  g.AttachHost(0, 3);  // node 0
  g.AttachHost(1, 3);  // node 1
  g.AttachHost(2, 3);  // node 2
  const System sys{std::move(g)};
  ASSERT_TRUE(sys.updown.IsUp(1, 0));  // toward the root, switch 0

  PathRoutes route;
  route.drops = {1, 0};
  route.steps = {{2, 0, 4, 0, 0}, {1, 0, 2, 0, 1}, {0, kInvalidPort, 0, 1, 2}};

  Packet pkt;
  pkt.mcast_id = 1;
  pkt.src = 2;
  pkt.kind = HeaderKind::kPathWorm;
  pkt.data_flits = 64;
  pkt.header_flits = 4;
  pkt.path = &route;
  pkt.path_cursor = 1;
  pkt.phase = RoutePhase::kDownOnly;

  std::vector<RouteBranch> out;
  EXPECT_DEATH(ComputeRouteBranches(sys, 1, pkt, false, ZeroLoad(), out),
               "unroutable packet: path worm climbs after its descent");

  // The same step is legal while the worm may still climb.
  pkt.phase = RoutePhase::kUpAllowed;
  ComputeRouteBranches(sys, 1, pkt, false, ZeroLoad(), out);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].port, sys.graph.host(1).port);
  EXPECT_EQ(out[1].port, 0);
}

// --- hop logging ------------------------------------------------------

TEST(RouteLogicHops, BranchesRecordTheirOwnHops) {
  const System sys = TwoSwitchSystem();
  auto pkt = TreePkt(0, 3, {1, 2});
  pkt.hop_log.Start();
  std::vector<RouteBranch> out;
  ComputeRouteBranches(sys, 0, pkt, false, ZeroLoad(), out);
  ASSERT_EQ(out.size(), 2u);
  std::vector<Packet> replicas;
  for (const RouteBranch& b : out) {
    replicas.push_back(Replica(0, pkt, b));
    const std::vector<HopRecord>* hops = replicas.back().hop_log.hops();
    ASSERT_NE(hops, nullptr);
    ASSERT_EQ(hops->size(), 1u);
    EXPECT_EQ(hops->back().sw, 0);
    EXPECT_EQ(hops->back().out_port, b.port);
  }
  // Forked per branch: the original log is untouched, and a hop one
  // branch records later shows in no other log.
  EXPECT_TRUE(pkt.hop_log.hops()->empty());
  replicas[0].hop_log.Record(HopRecord{1, 2});
  EXPECT_EQ(replicas[0].hop_log.hops()->size(), 2u);
  EXPECT_EQ(replicas[1].hop_log.hops()->size(), 1u);
  EXPECT_TRUE(pkt.hop_log.hops()->empty());
  // A packet that records no hops gains no log by replication.
  const Packet plain = TreePkt(0, 3, {1, 2});
  out.clear();
  ComputeRouteBranches(sys, 0, plain, false, ZeroLoad(), out);
  for (const RouteBranch& b : out)
    EXPECT_EQ(Replica(0, plain, b).hop_log.hops(), nullptr);
}

}  // namespace
}  // namespace irmc
