// Golden equivalence for the flat CSR System: every derived table
// (tree structure, orientation, distances, candidate sets, reachability
// strings) is recomputed here with deliberately naive vector-of-vectors
// reference implementations — the pre-refactor algorithms in their
// simplest form — and compared cell by cell against the flat storage,
// over a sweep of random topologies and post-fault degraded rebuilds.
// Also pins the System movability and SystemBuilder caching contracts.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

#include "topology/fault.hpp"
#include "topology/system.hpp"
#include "topology/system_builder.hpp"

namespace irmc {
namespace {

constexpr int kInf = 1 << 28;

/// Naive reference: per-switch adjacency as vector-of-vectors.
struct RefTables {
  std::vector<int> level;                       // [s]
  std::vector<std::vector<PortId>> up_ports;    // [s] ascending
  std::vector<std::vector<PortId>> down_ports;  // [s] ascending
  std::vector<std::vector<int>> dist_down;      // [dest][here], kInf = none
  std::vector<std::vector<int>> dist_any;       // [dest][here]
};

/// BFS levels from `root` visiting neighbours in port order.
std::vector<int> RefLevels(const Graph& g, SwitchId root) {
  std::vector<int> level(static_cast<std::size_t>(g.num_switches()), -1);
  std::vector<SwitchId> frontier{root};
  level[static_cast<std::size_t>(root)] = 0;
  for (std::size_t head = 0; head < frontier.size(); ++head) {
    const SwitchId s = frontier[head];
    for (PortId p = 0; p < g.ports_per_switch(); ++p) {
      const Port& pt = g.port(s, p);
      if (pt.kind != PortKind::kSwitch) continue;
      if (level[static_cast<std::size_t>(pt.peer_switch)] == -1) {
        level[static_cast<std::size_t>(pt.peer_switch)] =
            level[static_cast<std::size_t>(s)] + 1;
        frontier.push_back(pt.peer_switch);
      }
    }
  }
  return level;
}

RefTables BuildReference(const Graph& g, SwitchId root) {
  const auto n = static_cast<std::size_t>(g.num_switches());
  RefTables ref;
  ref.level = RefLevels(g, root);

  // Orientation straight from the paper's rule: s -> t is "up" iff t is
  // closer to the root, or same level and lower ID.
  ref.up_ports.resize(n);
  ref.down_ports.resize(n);
  for (SwitchId s = 0; s < g.num_switches(); ++s) {
    for (PortId p = 0; p < g.ports_per_switch(); ++p) {
      const Port& pt = g.port(s, p);
      if (pt.kind != PortKind::kSwitch) continue;
      const SwitchId t = pt.peer_switch;
      const int ls = ref.level[static_cast<std::size_t>(s)];
      const int lt = ref.level[static_cast<std::size_t>(t)];
      const bool up = (lt < ls) || (lt == ls && t < s);
      (up ? ref.up_ports : ref.down_ports)[static_cast<std::size_t>(s)]
          .push_back(p);
    }
  }

  // dist_down by per-destination relaxation to fixpoint (naive but
  // unarguable); dist_any by the pre-refactor fixpoint sweep.
  ref.dist_down.assign(n, std::vector<int>(n, kInf));
  ref.dist_any.assign(n, std::vector<int>(n, kInf));
  for (SwitchId dest = 0; dest < g.num_switches(); ++dest) {
    auto& dd = ref.dist_down[static_cast<std::size_t>(dest)];
    dd[static_cast<std::size_t>(dest)] = 0;
    for (bool changed = true; changed;) {
      changed = false;
      for (SwitchId s = 0; s < g.num_switches(); ++s) {
        for (PortId p : ref.down_ports[static_cast<std::size_t>(s)]) {
          const auto t = static_cast<std::size_t>(g.port(s, p).peer_switch);
          if (dd[t] != kInf && dd[t] + 1 < dd[static_cast<std::size_t>(s)]) {
            dd[static_cast<std::size_t>(s)] = dd[t] + 1;
            changed = true;
          }
        }
      }
    }
    auto& da = ref.dist_any[static_cast<std::size_t>(dest)];
    da = dd;
    for (bool changed = true; changed;) {
      changed = false;
      for (SwitchId s = 0; s < g.num_switches(); ++s) {
        for (PortId p : ref.up_ports[static_cast<std::size_t>(s)]) {
          const auto t = static_cast<std::size_t>(g.port(s, p).peer_switch);
          if (da[t] != kInf && da[t] + 1 < da[static_cast<std::size_t>(s)]) {
            da[static_cast<std::size_t>(s)] = da[t] + 1;
            changed = true;
          }
        }
      }
    }
  }
  return ref;
}

/// Reference candidate set at `here` toward `dest` in `phase`, from the
/// reference distances only (ports in ascending order).
std::vector<PortId> RefCandidates(const Graph& g, const RefTables& ref,
                                  SwitchId here, SwitchId dest,
                                  RoutePhase phase) {
  std::vector<PortId> out;
  if (here == dest) return out;
  const auto hs = static_cast<std::size_t>(here);
  const auto ds = static_cast<std::size_t>(dest);
  if (phase == RoutePhase::kUpAllowed) {
    const int want = ref.dist_any[ds][hs];
    for (PortId p = 0; p < g.ports_per_switch(); ++p) {
      const Port& pt = g.port(here, p);
      if (pt.kind != PortKind::kSwitch) continue;
      const auto t = static_cast<std::size_t>(pt.peer_switch);
      const auto& ups = ref.up_ports[hs];
      const bool up = std::find(ups.begin(), ups.end(), p) != ups.end();
      const int via = up ? ref.dist_any[ds][t] : ref.dist_down[ds][t];
      if (via != kInf && via + 1 == want) out.push_back(p);
    }
  } else {
    const int want = ref.dist_down[ds][hs];
    if (want == kInf) return out;
    for (PortId p : ref.down_ports[hs]) {
      const auto t = static_cast<std::size_t>(g.port(here, p).peer_switch);
      if (ref.dist_down[ds][t] != kInf && ref.dist_down[ds][t] + 1 == want)
        out.push_back(p);
    }
  }
  return out;
}

/// Checks every derived table of `sys` against the naive reference.
void ExpectSystemMatchesReference(const System& sys) {
  const Graph& g = sys.graph;
  const RefTables ref = BuildReference(g, sys.tree.root());

  for (SwitchId s = 0; s < g.num_switches(); ++s) {
    const auto si = static_cast<std::size_t>(s);
    ASSERT_EQ(sys.tree.Level(s), ref.level[si]) << "level of " << s;
    const auto ups = sys.updown.UpPorts(s);
    const auto downs = sys.updown.DownPorts(s);
    ASSERT_EQ(std::vector<PortId>(ups.begin(), ups.end()), ref.up_ports[si]);
    ASSERT_EQ(std::vector<PortId>(downs.begin(), downs.end()),
              ref.down_ports[si]);
    for (PortId p : ups) ASSERT_TRUE(sys.updown.IsUp(s, p));
    for (PortId p : downs) ASSERT_TRUE(sys.updown.IsDown(s, p));
  }

  for (SwitchId dest = 0; dest < g.num_switches(); ++dest) {
    for (SwitchId here = 0; here < g.num_switches(); ++here) {
      const auto ds = static_cast<std::size_t>(dest);
      const auto hs = static_cast<std::size_t>(here);
      ASSERT_EQ(sys.routing.Distance(here, dest), ref.dist_any[ds][hs])
          << here << "->" << dest;
      const int dd = ref.dist_down[ds][hs];
      ASSERT_EQ(sys.routing.DownDistance(here, dest), dd == kInf ? -1 : dd)
          << here << "->" << dest << " (down)";
      for (RoutePhase phase :
           {RoutePhase::kUpAllowed, RoutePhase::kDownOnly}) {
        const auto cand = sys.routing.Candidates(here, dest, phase);
        ASSERT_EQ(std::vector<PortId>(cand.begin(), cand.end()),
                  RefCandidates(g, ref, here, dest, phase))
            << here << "->" << dest << " phase "
            << (phase == RoutePhase::kUpAllowed ? "up" : "down");
      }
    }
  }

  // Reachability: raw/primary/local/down-cover bit by bit from the
  // reference distances.
  for (SwitchId s = 0; s < g.num_switches(); ++s) {
    const auto hosts = g.HostsAt(s);
    ASSERT_EQ(sys.reach.Local(s).ToVector(),
              std::vector<NodeId>(hosts.begin(), hosts.end()));

    std::vector<NodeId> cover;
    for (NodeId n = 0; n < g.num_hosts(); ++n) {
      // Primary owner: down port minimizing peer-to-target down
      // distance, lowest port on ties.
      PortId best = kInvalidPort;
      int best_d = kInf;
      for (PortId p : ref.down_ports[static_cast<std::size_t>(s)]) {
        const auto t = static_cast<std::size_t>(g.port(s, p).peer_switch);
        const int d =
            ref.dist_down[static_cast<std::size_t>(g.SwitchOf(n))][t];
        if (d != kInf && d < best_d) {
          best = p;
          best_d = d;
        }
      }
      if (best != kInvalidPort) cover.push_back(n);
      for (PortId p : ref.down_ports[static_cast<std::size_t>(s)]) {
        const auto t = static_cast<std::size_t>(g.port(s, p).peer_switch);
        const bool raw_bit =
            ref.dist_down[static_cast<std::size_t>(g.SwitchOf(n))][t] != kInf;
        ASSERT_EQ(sys.reach.Raw(s, p).Test(n), raw_bit)
            << "raw " << s << ":" << p << " node " << n;
        ASSERT_EQ(sys.reach.Primary(s, p).Test(n), p == best)
            << "primary " << s << ":" << p << " node " << n;
      }
    }
    ASSERT_EQ(sys.reach.DownCover(s).ToVector(), cover);
    for (PortId p : ref.up_ports[static_cast<std::size_t>(s)]) {
      ASSERT_TRUE(sys.reach.Raw(s, p).Empty());
      ASSERT_TRUE(sys.reach.Primary(s, p).Empty());
    }
  }
}

TEST(SystemGolden, FlatTablesMatchNaiveReferenceAcrossTopologies) {
  // >= 50 topologies across sizes, port counts, and root policies.
  int checked = 0;
  for (std::uint64_t seed = 0; seed < 14; ++seed) {
    for (const int switches : {6, 8, 16}) {
      TopologySpec spec;
      spec.num_switches = switches;
      spec.ports_per_switch = switches == 16 ? 10 : 8;
      spec.num_hosts = 4 * switches;
      const RootPolicy policy =
          seed % 3 == 0 ? RootPolicy::kMaxDegree : RootPolicy::kLowestId;
      const auto sys = System::Build(spec, 100 + seed, policy);
      ExpectSystemMatchesReference(*sys);
      ++checked;
    }
  }
  EXPECT_GE(checked, 50 - 8);  // 42 here + post-fault systems below
}

TEST(SystemGolden, PostFaultRebuiltSystemsMatchReference) {
  // Degraded graphs after removing a non-critical link, as an Autonet
  // reconfiguration rebuilds them.
  int checked = 0;
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    TopologySpec spec;
    const auto base = System::Build(spec, 500 + seed);
    const auto critical = CriticalLinks(base->graph);
    for (const LinkRef& link : AllLinks(base->graph)) {
      const bool is_critical =
          std::any_of(critical.begin(), critical.end(), [&](const LinkRef& c) {
            return c.sw == link.sw && c.port == link.port;
          });
      if (is_critical) continue;
      const auto degraded = WithoutLink(base->graph, link.sw, link.port);
      ASSERT_TRUE(degraded.has_value());
      const System sys{Graph(*degraded)};
      ExpectSystemMatchesReference(sys);
      ++checked;
      break;  // one degraded rebuild per base topology
    }
  }
  EXPECT_EQ(checked, 8);
}

TEST(SystemGolden, SystemIsMovable) {
  static_assert(std::is_move_constructible_v<System>);
  static_assert(std::is_move_assignable_v<System>);
  auto built = System::Build({}, 7);
  const int dist = built->routing.Distance(0, built->num_switches() - 1);
  System moved = std::move(*built);  // tables must not dangle
  built.reset();
  ExpectSystemMatchesReference(moved);
  EXPECT_EQ(moved.routing.Distance(0, moved.num_switches() - 1), dist);
}

TEST(SystemGolden, SystemBuilderCachesByKeyExactly) {
  SystemBuilder builder(4);
  const TopologySpec spec;
  const auto a = builder.Build(spec, 1);
  const auto b = builder.Build(spec, 1);
  EXPECT_EQ(a.get(), b.get());  // same key -> same System
  const auto c = builder.Build(spec, 2);
  EXPECT_NE(a.get(), c.get());  // different seed -> different System
  TopologySpec other = spec;
  other.link_utilization = 0.5;
  EXPECT_NE(builder.Build(other, 1).get(), a.get());
  EXPECT_NE(builder.Build(spec, 1, RootPolicy::kMaxDegree).get(), a.get());
  const SystemBuilder::Stats stats = builder.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 4u);

  // LRU bound: capacity 4 evicts, but outstanding refs stay valid.
  for (std::uint64_t s = 10; s < 20; ++s) builder.Build(spec, s);
  EXPECT_LE(builder.size(), 4u);
  EXPECT_EQ(a->num_switches(), spec.num_switches);  // still alive via a
  builder.Clear();
  EXPECT_EQ(builder.size(), 0u);
  EXPECT_EQ(c->num_nodes(), spec.num_hosts);  // alive across Clear too
}

}  // namespace
}  // namespace irmc
