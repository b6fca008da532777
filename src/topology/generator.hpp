// Random irregular topology generation (paper Section 4.1: "Our method
// for generating different irregular topologies is described in [13]").
//
// The reconstruction: hosts are spread as evenly as possible over the
// switches (random assignment of the remainder), a random spanning tree
// guarantees connectivity, and additional random switch-switch links are
// added until a target fraction of the remaining ports is wired. Ports
// left over stay open "for further connections", as in the paper's
// example system.
#pragma once

#include <cstdint>

#include "common/rng.hpp"
#include "topology/graph.hpp"

namespace irmc {

struct TopologySpec {
  int num_switches = 8;
  int ports_per_switch = 8;
  int num_hosts = 32;
  /// Fraction of switch ports remaining after host attachment that the
  /// generator tries to wire into switch-switch links.
  double link_utilization = 0.8;
  /// Permit multiple parallel links between one switch pair (the paper
  /// explicitly allows them).
  bool allow_parallel_links = true;
};

/// Most hosts GenerateTopology can place on `num_switches` switches of
/// `ports_per_switch` ports and still connect for every seed. Hosts are
/// spread evenly, then each switch joins the spanning tree through a
/// free port of an already-joined switch. With up to two switches, one
/// free port each is enough. From three on, a switch left with one free
/// port can only be a leaf, and two such switches among the first to
/// join strand the rest; so every switch but one keeps two ports free.
constexpr std::int64_t MaxHosts(int num_switches, int ports_per_switch) {
  const std::int64_t switches = num_switches;
  return switches <= 2 ? switches * (ports_per_switch - 1)
                       : switches * (ports_per_switch - 2) + 1;
}

/// Fewest ports per switch, and at least 2, with which `num_switches`
/// (at least 1) switches connect `num_hosts` hosts for every seed:
/// MaxHosts inverted. A tool bounds its port count below by it, so the
/// host range that follows is never empty.
constexpr std::int64_t MinPorts(int num_switches, std::int64_t num_hosts) {
  const std::int64_t switches = num_switches;
  const auto ceil_per_switch = [switches](std::int64_t n) {
    return n <= 0 ? 0 : (n + switches - 1) / switches;
  };
  const std::int64_t ports = switches <= 2
                                 ? 1 + ceil_per_switch(num_hosts)
                                 : 2 + ceil_per_switch(num_hosts - 1);
  return ports < 2 ? 2 : ports;
}

/// Generates a connected irregular topology. Deterministic in `seed`.
/// Aborts (precondition) if the spec cannot host the requested nodes
/// (more than MaxHosts).
Graph GenerateTopology(const TopologySpec& spec, std::uint64_t seed);

}  // namespace irmc
