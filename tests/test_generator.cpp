#include "topology/generator.hpp"

#include <gtest/gtest.h>

#include <tuple>

namespace irmc {
namespace {

// Sweep the paper's topology sizes over many seeds.
class GeneratorSweep
    : public ::testing::TestWithParam<std::tuple<int, int, std::uint64_t>> {};

TEST_P(GeneratorSweep, ProducesValidTopology) {
  const auto [switches, hosts, seed] = GetParam();
  TopologySpec spec;
  spec.num_switches = switches;
  spec.num_hosts = hosts;
  spec.ports_per_switch = 8;
  const Graph g = GenerateTopology(spec, seed);

  EXPECT_EQ(g.num_switches(), switches);
  EXPECT_EQ(g.num_hosts(), hosts);
  EXPECT_TRUE(g.Connected());
  // Spanning tree alone needs switches-1 links.
  EXPECT_GE(g.NumLinks(), switches - 1);

  // Port bookkeeping is self-consistent.
  int host_ports = 0, switch_ports = 0;
  for (SwitchId s = 0; s < switches; ++s) {
    for (PortId p = 0; p < g.ports_per_switch(); ++p) {
      const Port& pt = g.port(s, p);
      if (pt.kind == PortKind::kHost) {
        ++host_ports;
        EXPECT_EQ(g.SwitchOf(pt.host), s);
      } else if (pt.kind == PortKind::kSwitch) {
        ++switch_ports;
        EXPECT_NE(pt.peer_switch, s);  // no self-links
        // Back-pointer consistency.
        const Port& back = g.port(pt.peer_switch, pt.peer_port);
        EXPECT_EQ(back.peer_switch, s);
        EXPECT_EQ(back.peer_port, p);
      }
    }
  }
  EXPECT_EQ(host_ports, hosts);
  EXPECT_EQ(switch_ports, 2 * g.NumLinks());
}

INSTANTIATE_TEST_SUITE_P(
    PaperSizes, GeneratorSweep,
    ::testing::Combine(::testing::Values(8, 16, 32),  // switches
                       ::testing::Values(32),         // hosts
                       ::testing::Values(1u, 2u, 3u, 4u, 5u, 99u)));

TEST(Generator, DeterministicInSeed) {
  TopologySpec spec;
  const Graph a = GenerateTopology(spec, 7);
  const Graph b = GenerateTopology(spec, 7);
  ASSERT_EQ(a.NumLinks(), b.NumLinks());
  for (SwitchId s = 0; s < a.num_switches(); ++s)
    for (PortId p = 0; p < a.ports_per_switch(); ++p) {
      EXPECT_EQ(a.port(s, p).kind, b.port(s, p).kind);
      EXPECT_EQ(a.port(s, p).peer_switch, b.port(s, p).peer_switch);
      EXPECT_EQ(a.port(s, p).host, b.port(s, p).host);
    }
}

TEST(Generator, SeedsProduceDifferentTopologies) {
  TopologySpec spec;
  const Graph a = GenerateTopology(spec, 1);
  const Graph b = GenerateTopology(spec, 2);
  bool differs = a.NumLinks() != b.NumLinks();
  for (SwitchId s = 0; !differs && s < a.num_switches(); ++s)
    for (PortId p = 0; !differs && p < a.ports_per_switch(); ++p)
      differs = a.port(s, p).kind != b.port(s, p).kind ||
                a.port(s, p).peer_switch != b.port(s, p).peer_switch;
  EXPECT_TRUE(differs);
}

TEST(Generator, HostsSpreadEvenly) {
  TopologySpec spec;  // 32 hosts / 8 switches = exactly 4 each
  const Graph g = GenerateTopology(spec, 3);
  for (SwitchId s = 0; s < g.num_switches(); ++s)
    EXPECT_EQ(static_cast<int>(g.HostsAt(s).size()), 4);
}

TEST(Generator, UnevenHostsDifferByAtMostOne) {
  TopologySpec spec;
  spec.num_hosts = 30;  // 30 over 8 switches
  const Graph g = GenerateTopology(spec, 3);
  int lo = 99, hi = 0;
  for (SwitchId s = 0; s < g.num_switches(); ++s) {
    const int c = static_cast<int>(g.HostsAt(s).size());
    lo = std::min(lo, c);
    hi = std::max(hi, c);
  }
  EXPECT_LE(hi - lo, 1);
}

TEST(Generator, NoParallelLinksWhenDisallowed) {
  TopologySpec spec;
  spec.allow_parallel_links = false;
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const Graph g = GenerateTopology(spec, seed);
    for (SwitchId s = 0; s < g.num_switches(); ++s) {
      std::vector<int> peer_count(static_cast<std::size_t>(g.num_switches()),
                                  0);
      for (PortId p = 0; p < g.ports_per_switch(); ++p)
        if (g.port(s, p).kind == PortKind::kSwitch)
          ++peer_count[static_cast<std::size_t>(g.port(s, p).peer_switch)];
      for (int c : peer_count) EXPECT_LE(c, 1);
    }
  }
}

TEST(Generator, LinkUtilizationZeroGivesSpanningTreeOnly) {
  TopologySpec spec;
  spec.link_utilization = 0.0;
  const Graph g = GenerateTopology(spec, 11);
  EXPECT_EQ(g.NumLinks(), spec.num_switches - 1);
}

// MinPorts is the fewest ports, and at least 2, whose MaxHosts reaches
// the host count; with 2 ports from 3 switches up, 2 hosts need 3.
TEST(Generator, MinPortsInvertsMaxHosts) {
  for (int switches = 1; switches <= 40; ++switches) {
    for (std::int64_t hosts = 0; hosts <= 300; ++hosts) {
      const std::int64_t ports = MinPorts(switches, hosts);
      ASSERT_GE(ports, 2);
      EXPECT_GE(MaxHosts(switches, static_cast<int>(ports)), hosts)
          << switches << " switches, " << hosts << " hosts";
      if (ports > 2) {
        EXPECT_LT(MaxHosts(switches, static_cast<int>(ports) - 1), hosts)
            << switches << " switches, " << hosts << " hosts";
      }
    }
  }
  EXPECT_EQ(MinPorts(8, 2), 3);
  EXPECT_EQ(MinPorts(2, 2), 2);
  EXPECT_EQ(MinPorts(1, 2), 3);
}

}  // namespace
}  // namespace irmc
