// Bundle of everything derived from one topology: graph, BFS tree,
// up/down orientation, routing tables, reachability strings, and the
// channel wiring every network engine built on it shares.
//
// Every member owns flat storage (CSR arrays / word arenas) and keeps no
// references into its siblings, so a System is freely movable. Build()
// always constructs a fresh instance; SystemBuilder (system_builder.hpp)
// adds a keyed cache for callers that rebuild the same topology.
#pragma once

#include <cstdint>
#include <memory>

#include "topology/bfs_tree.hpp"
#include "topology/channel_wiring.hpp"
#include "topology/generator.hpp"
#include "topology/graph.hpp"
#include "topology/reachability.hpp"
#include "topology/root_policy.hpp"
#include "topology/routing_table.hpp"
#include "topology/updown.hpp"

namespace irmc {

struct System {
  Graph graph;
  BfsTree tree;
  UpDownOrientation updown;
  RoutingTable routing;
  Reachability reach;
  ChannelWiring wiring;

  explicit System(Graph g, RootPolicy root_policy = RootPolicy::kLowestId)
      : graph(std::move(g)),
        tree(graph, SelectRoot(graph, root_policy)),
        updown(graph, tree),
        routing(graph, updown),
        reach(graph, updown, routing),
        wiring(graph) {}

  System(const System&) = delete;
  System& operator=(const System&) = delete;
  System(System&&) = default;
  System& operator=(System&&) = default;

  static std::unique_ptr<System> Build(
      const TopologySpec& spec, std::uint64_t seed,
      RootPolicy root_policy = RootPolicy::kLowestId) {
    return std::make_unique<System>(GenerateTopology(spec, seed),
                                    root_policy);
  }

  int num_nodes() const { return graph.num_hosts(); }
  int num_switches() const { return graph.num_switches(); }
};

}  // namespace irmc
