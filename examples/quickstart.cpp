// Quickstart: build an irregular network, multicast one message with
// each scheme, and print the latencies.
//
//   $ ./quickstart
//
// This is the paper's headline single-multicast experiment at default
// parameters (32 nodes, eight 8-port switches, one 128-flit packet,
// R = o_host/o_ni = 1) on one concrete topology.
#include <cstdio>
#include <vector>

#include "core/config.hpp"
#include "core/single_runner.hpp"
#include "mcast/scheme.hpp"
#include "topology/system.hpp"

int main() {
  using namespace irmc;

  SimConfig cfg;  // paper defaults
  const auto sys = System::Build(cfg.topology, /*seed=*/42);
  std::printf("topology: %d nodes, %d switches, %d switch-switch links\n",
              sys->num_nodes(), sys->num_switches(), sys->graph.NumLinks());

  const NodeId src = 0;
  std::vector<NodeId> dests;
  for (NodeId n = 1; n <= 15; ++n) dests.push_back(n * 2);  // 15-way

  std::printf("%d-way multicast from node %d, %d-flit message:\n",
              static_cast<int>(dests.size()), src,
              cfg.message.TotalFlits());
  for (SchemeKind kind :
       {SchemeKind::kUnicastBinomial, SchemeKind::kNiKBinomial,
        SchemeKind::kTreeWorm, SchemeKind::kPathWorm}) {
    const auto scheme = MakeScheme(kind, cfg.host);
    McastPlan plan = scheme->Plan(*sys, src, dests, cfg.message, cfg.headers);
    const int worms = static_cast<int>(plan.worms.size());
    const int chosen_k = plan.chosen_k;
    const MulticastResult r = PlayOnce(*sys, cfg, std::move(plan));
    std::printf("  %-14s latency %6lld cycles (%.2f us)",
                ToString(kind), static_cast<long long>(r.Latency()),
                static_cast<double>(r.Latency()) * SimConfig::cycle_ns /
                    1000.0);
    if (kind == SchemeKind::kNiKBinomial) std::printf("  [k=%d]", chosen_k);
    if (kind == SchemeKind::kPathWorm) std::printf("  [%d worms]", worms);
    std::printf("\n");
  }
  return 0;
}
