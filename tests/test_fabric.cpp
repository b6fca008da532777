#include "network/fabric.hpp"

#include <gtest/gtest.h>

#include <map>

#include "topology/system.hpp"

namespace irmc {
namespace {

struct Delivery {
  NodeId node;
  Cycles head;
  Cycles tail;
  Packet pkt;  ///< a copy: the engine's reference outlives no callback
};

struct Harness {
  std::unique_ptr<System> sys;
  Engine engine;
  std::vector<Delivery> deliveries;
  std::unique_ptr<Fabric> fabric;

  explicit Harness(Graph g, NetParams params = {}) {
    sys = std::make_unique<System>(std::move(g));
    fabric = std::make_unique<Fabric>(
        engine, *sys, params,
        [this](NodeId n, const Packet& p, Cycles h, Cycles t) {
          deliveries.push_back({n, h, t, p});
        });
  }
};

/// Line of three switches, one host each: node i on switch i, port 3.
Graph LineGraph() {
  Graph g(3, 4);
  g.AddLink(0, 0, 1, 0);
  g.AddLink(1, 1, 2, 0);
  g.AttachHost(0, 3);
  g.AttachHost(1, 3);
  g.AttachHost(2, 3);
  return g;
}

Packet Unicast(NodeId src, NodeId dst, int data_flits = 128,
               int header_flits = 2) {
  Packet pkt;
  pkt.mcast_id = 1;
  pkt.src = src;
  pkt.kind = HeaderKind::kUnicast;
  pkt.uni_dest = dst;
  pkt.data_flits = data_flits;
  pkt.header_flits = header_flits;
  return pkt;
}

TEST(Fabric, UnicastZeroLoadLatencyIsExact) {
  Harness h(LineGraph());
  h.fabric->InjectFromNi(0, Unicast(0, 2), /*ready=*/0);
  h.engine.RunToQuiescence();
  ASSERT_EQ(h.deliveries.size(), 1u);
  const Delivery& d = h.deliveries[0];
  EXPECT_EQ(d.node, 2);
  // Three switches, each costing link(1)+route(1)+xbar(1); ejection link
  // adds the wire time: head = 3*3 + 1, tail = head + len - 1.
  const int len = 130;
  EXPECT_EQ(d.head, 10);
  EXPECT_EQ(d.tail, 10 + len - 1);
}

TEST(Fabric, LatencyScalesWithPacketLengthOnlyInSerialization) {
  for (int flits : {16, 64, 256}) {
    Harness h(LineGraph());
    h.fabric->InjectFromNi(0, Unicast(0, 2, flits, 2), 0);
    h.engine.RunToQuiescence();
    ASSERT_EQ(h.deliveries.size(), 1u);
    EXPECT_EQ(h.deliveries[0].head, 10);  // cut-through: head unaffected
    EXPECT_EQ(h.deliveries[0].tail, 10 + flits + 2 - 1);
  }
}

TEST(Fabric, InjectionReadyDelaysStart) {
  Harness h(LineGraph());
  h.fabric->InjectFromNi(0, Unicast(0, 2), /*ready=*/1000);
  h.engine.RunToQuiescence();
  EXPECT_EQ(h.deliveries[0].head, 1010);
}

TEST(Fabric, InjectionChannelSerializesBackToBack) {
  Harness h(LineGraph());
  h.fabric->InjectFromNi(0, Unicast(0, 2), 0);
  h.fabric->InjectFromNi(0, Unicast(0, 2), 0);
  h.engine.RunToQuiescence();
  ASSERT_EQ(h.deliveries.size(), 2u);
  // The second packet needs the first's input-buffer slot at switch 0,
  // which frees only when the first has fully left the switch: 130 wire
  // flits plus the route+xbar pipeline offset of its forwarding branch.
  EXPECT_EQ(h.deliveries[1].head - h.deliveries[0].head, 133);
}

TEST(Fabric, LocalSwitchDelivery) {
  Harness h(LineGraph());
  h.fabric->InjectFromNi(0, Unicast(0, 0), 0);  // self via own switch
  h.engine.RunToQuiescence();
  ASSERT_EQ(h.deliveries.size(), 1u);
  EXPECT_EQ(h.deliveries[0].node, 0);
  EXPECT_EQ(h.deliveries[0].head, 4);  // one switch: 3 + 1
}

TEST(Fabric, VctBackpressureHoldsSecondPacket) {
  // Two hosts on switch 0 both sending to node 2: the middle link 1->2
  // serializes, and with 1-packet input buffers the second packet waits.
  Graph g(3, 4);
  g.AddLink(0, 0, 1, 0);
  g.AddLink(1, 1, 2, 0);
  g.AttachHost(0, 2);  // node 0
  g.AttachHost(0, 3);  // node 1
  g.AttachHost(2, 3);  // node 2
  Harness h(std::move(g));
  h.fabric->InjectFromNi(0, Unicast(0, 2), 0);
  h.fabric->InjectFromNi(1, Unicast(1, 2), 0);
  h.engine.RunToQuiescence();
  ASSERT_EQ(h.deliveries.size(), 2u);
  // The streams share the 0->1 and 1->2 links; deliveries must be at
  // least one serialization apart.
  const Cycles gap = h.deliveries[1].tail - h.deliveries[0].tail;
  EXPECT_GE(gap, 130);
}

TEST(Fabric, AdaptiveRoutingSpreadsOverParallelLinks) {
  // Two parallel links 0-1; two hosts on 0 send to two hosts on 1.
  Graph base(2, 6);
  base.AddLink(0, 0, 1, 0);
  base.AddLink(0, 1, 1, 1);
  base.AttachHost(0, 4);
  base.AttachHost(0, 5);
  base.AttachHost(1, 4);
  base.AttachHost(1, 5);

  auto run = [&](bool adaptive) {
    NetParams p;
    p.adaptive = adaptive;
    Graph g = base;  // copy
    Harness h(std::move(g), p);
    h.fabric->InjectFromNi(0, Unicast(0, 2), 0);
    h.fabric->InjectFromNi(1, Unicast(1, 3), 0);
    h.engine.RunToQuiescence();
    Cycles last = 0;
    for (const auto& d : h.deliveries) last = std::max(last, d.tail);
    return last;
  };
  const Cycles adaptive_time = run(true);
  const Cycles deterministic_time = run(false);
  // Deterministic routing funnels both onto port 0 and serializes.
  EXPECT_GE(deterministic_time - adaptive_time, 100);
}

TEST(Fabric, TreeWormDeliversLocallyDuringTransit) {
  // Destinations on the source's own switch and two switches down: one
  // worm covers all.
  Harness hline(LineGraph());
  Packet pkt;
  pkt.mcast_id = 9;
  pkt.src = 0;
  pkt.kind = HeaderKind::kTreeWorm;
  pkt.tree_dests = NodeSet::FromVector(3, {1, 2});
  pkt.data_flits = 128;
  pkt.header_flits = 3;
  hline.fabric->InjectFromNi(0, std::move(pkt), 0);
  hline.engine.RunToQuiescence();
  ASSERT_EQ(hline.deliveries.size(), 2u);
  std::map<NodeId, Cycles> heads;
  for (const auto& d : hline.deliveries) heads[d.node] = d.head;
  ASSERT_TRUE(heads.count(1));
  ASSERT_TRUE(heads.count(2));
  // Node 1 is one switch nearer: strictly earlier head.
  EXPECT_LT(heads[1], heads[2]);
}

class FabricWormSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FabricWormSweep, TreeWormExactlyOnceAndLegal) {
  TopologySpec spec;
  spec.num_switches = 8;
  spec.num_hosts = 32;
  NetParams np;
  np.record_routes = true;
  Harness h(GenerateTopology(spec, GetParam()), np);

  // Multicast from node 0 to every odd node.
  std::vector<NodeId> dests;
  for (NodeId n = 1; n < 32; n += 2) dests.push_back(n);
  Packet pkt;
  pkt.mcast_id = 1;
  pkt.src = 0;
  pkt.kind = HeaderKind::kTreeWorm;
  pkt.tree_dests = NodeSet::FromVector(32, dests);
  pkt.data_flits = 128;
  pkt.header_flits = 6;
  h.fabric->InjectFromNi(0, std::move(pkt), 0);
  h.engine.RunToQuiescence();

  // Exactly once per destination.
  std::map<NodeId, int> count;
  for (const auto& d : h.deliveries) count[d.node]++;
  EXPECT_EQ(h.deliveries.size(), dests.size());
  for (NodeId n : dests) EXPECT_EQ(count[n], 1) << "node " << n;

  // Every branch's recorded route is a legal up*/down* path.
  for (const auto& d : h.deliveries) {
    const auto* hops = Fabric::HopsOf(d.pkt);
    ASSERT_NE(hops, nullptr);
    ASSERT_FALSE(hops->empty());
    // Last hop is the host ejection; earlier hops are switch moves.
    std::vector<PortId> ports;
    for (std::size_t i = 0; i + 1 < hops->size(); ++i)
      ports.push_back((*hops)[i].out_port);
    EXPECT_TRUE(
        h.sys->routing.IsLegalRoute(h.sys->graph.SwitchOf(0), ports));
    EXPECT_EQ(hops->back().sw, h.sys->graph.SwitchOf(d.node));
  }
}

TEST_P(FabricWormSweep, TreeWormBroadcastCoversAll) {
  TopologySpec spec;
  spec.num_switches = 16;
  spec.num_hosts = 32;
  Harness h(GenerateTopology(spec, GetParam() + 100));
  std::vector<NodeId> dests;
  for (NodeId n = 1; n < 32; ++n) dests.push_back(n);
  Packet pkt;
  pkt.mcast_id = 1;
  pkt.src = 0;
  pkt.kind = HeaderKind::kTreeWorm;
  pkt.tree_dests = NodeSet::FromVector(32, dests);
  pkt.data_flits = 32;
  pkt.header_flits = 6;
  h.fabric->InjectFromNi(0, std::move(pkt), 0);
  h.engine.RunToQuiescence();
  EXPECT_EQ(h.deliveries.size(), 31u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FabricWormSweep,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u));

TEST(Fabric, BacklogAccounting) {
  Harness h(LineGraph());
  h.fabric->InjectFromNi(0, Unicast(0, 2), 0);
  h.fabric->InjectFromNi(0, Unicast(0, 2), 0);
  EXPECT_EQ(h.fabric->InjectionBacklog(0), 2);
  EXPECT_GE(h.fabric->TotalBacklog(), 2);
  h.engine.RunToQuiescence();
  EXPECT_EQ(h.fabric->InjectionBacklog(0), 0);
  EXPECT_EQ(h.fabric->TotalBacklog(), 0);
}

TEST(Fabric, FlitAccountingCountsEveryHop) {
  Harness h(LineGraph());
  h.fabric->InjectFromNi(0, Unicast(0, 2), 0);
  h.engine.RunToQuiescence();
  // injection + 2 switch links + ejection = 4 transmissions of 130.
  EXPECT_EQ(h.fabric->flits_sent(), 4 * 130);
  EXPECT_EQ(h.fabric->packets_switched(), 3);
}


TEST(Fabric, PathWormFollowsPlannedRouteExactly) {
  TopologySpec spec;
  NetParams np;
  np.record_routes = true;
  Harness h(GenerateTopology(spec, 11), np);

  // Plan a worm by hand along a known legal route: climb one up port,
  // then deliver to a host of that switch.
  const SwitchId start = h.sys->graph.SwitchOf(0);
  ASSERT_FALSE(h.sys->updown.UpPorts(start).empty());
  const PortId up = h.sys->updown.UpPorts(start).front();
  const SwitchId next = h.sys->graph.port(start, up).peer_switch;
  ASSERT_FALSE(h.sys->graph.HostsAt(next).empty());
  const NodeId target = h.sys->graph.HostsAt(next).front();

  // The packet points at the route, which outlives the run.
  PathRoutes route;
  route.drops = {target};
  route.steps = {{start, up, 2, 0, 0}, {next, kInvalidPort, 0, 0, 1}};

  Packet pkt;
  pkt.mcast_id = 1;
  pkt.src = 0;
  pkt.kind = HeaderKind::kPathWorm;
  pkt.path = &route;
  pkt.data_flits = 64;
  pkt.header_flits = 4;
  h.fabric->InjectFromNi(0, std::move(pkt), 0);
  h.engine.RunToQuiescence();

  ASSERT_EQ(h.deliveries.size(), 1u);
  EXPECT_EQ(h.deliveries[0].node, target);
  const auto* hops = Fabric::HopsOf(h.deliveries[0].pkt);
  ASSERT_NE(hops, nullptr);
  ASSERT_EQ(hops->size(), 2u);
  EXPECT_EQ((*hops)[0].sw, start);
  EXPECT_EQ((*hops)[0].out_port, up);
  EXPECT_EQ((*hops)[1].sw, next);
  // Header shrinks when the field is consumed at the forwarding switch.
  EXPECT_EQ(h.deliveries[0].pkt.header_flits, 2);
}

TEST(Fabric, AllLocalTreeWormNeverTouchesSwitchLinks) {
  // Source and all destinations on one switch: flits flow only through
  // the injection channel and the host ejection channels.
  TopologySpec spec;
  Graph g = GenerateTopology(spec, 19);
  const SwitchId home = g.SwitchOf(0);
  std::vector<NodeId> dests;
  for (NodeId n : g.HostsAt(home))
    if (n != 0) dests.push_back(n);
  ASSERT_GE(dests.size(), 2u);
  Harness h(std::move(g));
  Packet pkt;
  pkt.mcast_id = 1;
  pkt.src = 0;
  pkt.kind = HeaderKind::kTreeWorm;
  pkt.tree_dests = NodeSet::FromVector(32, dests);
  pkt.data_flits = 32;
  pkt.header_flits = 6;
  h.fabric->InjectFromNi(0, std::move(pkt), 0);
  h.engine.RunToQuiescence();
  EXPECT_EQ(h.deliveries.size(), dests.size());
  // Injection (1) + one ejection per destination; nothing else.
  EXPECT_EQ(h.fabric->flits_sent(),
            static_cast<std::int64_t>(38 * (1 + dests.size())));
  for (const auto& r : h.fabric->LinkReports(h.engine.Now())) {
    if (r.sw != kInvalidSwitch && !r.to_host) {
      EXPECT_EQ(r.flits, 0);
    }
  }
}

TEST(Fabric, ReadyTimeOrderingPreservedPerChannel) {
  // Packets queued on one injection channel leave in queue order even
  // when a later packet has an earlier ready time (FIFO, no reordering).
  Harness h(LineGraph());
  h.fabric->InjectFromNi(0, Unicast(0, 2, 32), /*ready=*/500);
  h.fabric->InjectFromNi(0, Unicast(0, 1, 32), /*ready=*/0);
  h.engine.RunToQuiescence();
  ASSERT_EQ(h.deliveries.size(), 2u);
  // The first-queued (dest 2) must be delivered from an earlier launch:
  // its head left at 500; the second could not start before ~534.
  Cycles head2 = 0, head1 = 0;
  for (const auto& d : h.deliveries)
    (d.node == 2 ? head2 : head1) = d.head;
  EXPECT_GT(head1, 500);
  EXPECT_GT(head1, head2 - 7);  // dest 1 is nearer; compare launches
}

}  // namespace
}  // namespace irmc
