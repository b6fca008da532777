#include "topology/generator.hpp"

#include <algorithm>
#include <vector>

namespace irmc {
namespace {

/// Picks a uniformly random free port of switch s. Draws NextBelow(free
/// count) — the same stream as indexing a materialized free-port list,
/// so topologies are bit-identical to the list-based implementation.
PortId RandomFreePort(const Graph& g, SwitchId s, Rng& rng) {
  const int free = g.FreePortCount(s);
  IRMC_EXPECT(free > 0);
  auto k = rng.NextBelow(static_cast<std::uint64_t>(free));
  for (PortId p = 0; p < g.ports_per_switch(); ++p)
    if (g.port(s, p).kind == PortKind::kFree && k-- == 0) return p;
  IRMC_EXPECT(false);
  return kInvalidPort;
}

}  // namespace

Graph GenerateTopology(const TopologySpec& spec, std::uint64_t seed) {
  IRMC_EXPECT(spec.num_switches > 0);
  IRMC_EXPECT(spec.ports_per_switch > 1);
  IRMC_EXPECT(spec.num_hosts >= 0);
  Rng rng(seed);
  Graph g(spec.num_switches, spec.ports_per_switch);

  // --- Host placement: even split, remainder to random switches. ---
  const int base = spec.num_hosts / spec.num_switches;
  const int extra = spec.num_hosts % spec.num_switches;
  IRMC_EXPECT(spec.num_hosts <=
              MaxHosts(spec.num_switches, spec.ports_per_switch));
  std::vector<int> hosts_per_switch(static_cast<std::size_t>(spec.num_switches),
                                    base);
  {
    auto lucky = rng.SampleWithoutReplacement(spec.num_switches, extra);
    for (auto s : lucky) hosts_per_switch[static_cast<std::size_t>(s)] += 1;
  }
  // Node IDs must still be assigned per switch in a mixed order so that
  // "node i" carries no positional bias; shuffle the attach order.
  std::vector<SwitchId> attach_order;
  for (SwitchId s = 0; s < spec.num_switches; ++s)
    for (int i = 0; i < hosts_per_switch[static_cast<std::size_t>(s)]; ++i)
      attach_order.push_back(s);
  rng.Shuffle(attach_order);
  for (SwitchId s : attach_order) g.AttachHost(s, RandomFreePort(g, s, rng));
  IRMC_ENSURE(g.num_hosts() == spec.num_hosts);

  // --- Random spanning tree: attach switches in shuffled order. ---
  std::vector<SwitchId> order;
  for (SwitchId s = 0; s < spec.num_switches; ++s) order.push_back(s);
  rng.Shuffle(order);
  std::vector<SwitchId> candidates;
  candidates.reserve(order.size());
  for (std::size_t i = 1; i < order.size(); ++i) {
    // Connect order[i] to a random already-connected switch with a free
    // port. One always exists while the hosts are within MaxHosts.
    candidates.clear();
    for (std::size_t j = 0; j < i; ++j)
      if (g.FreePortCount(order[j]) > 0) candidates.push_back(order[j]);
    IRMC_EXPECT(!candidates.empty());
    const SwitchId peer =
        candidates[static_cast<std::size_t>(rng.NextBelow(candidates.size()))];
    g.AddLink(order[i], RandomFreePort(g, order[i], rng), peer,
              RandomFreePort(g, peer, rng));
  }
  IRMC_ENSURE(g.Connected());

  // --- Extra links up to the utilization target. ---
  int free_total = 0;
  for (SwitchId s = 0; s < spec.num_switches; ++s)
    free_total += g.FreePortCount(s);
  int budget =
      static_cast<int>(static_cast<double>(free_total) * spec.link_utilization) /
      2;
  int attempts_left = budget * 20 + 64;  // bail out of unsatisfiable picks
  std::vector<SwitchId> with_free;
  with_free.reserve(static_cast<std::size_t>(spec.num_switches));
  while (budget > 0 && attempts_left-- > 0) {
    with_free.clear();
    for (SwitchId s = 0; s < spec.num_switches; ++s)
      if (g.FreePortCount(s) > 0) with_free.push_back(s);
    if (with_free.size() < 2) break;
    const SwitchId a =
        with_free[static_cast<std::size_t>(rng.NextBelow(with_free.size()))];
    SwitchId b = a;
    while (b == a)
      b = with_free[static_cast<std::size_t>(rng.NextBelow(with_free.size()))];
    if (!spec.allow_parallel_links) {
      bool parallel = false;
      for (PortId p = 0; p < g.ports_per_switch(); ++p)
        if (g.port(a, p).kind == PortKind::kSwitch &&
            g.port(a, p).peer_switch == b)
          parallel = true;
      if (parallel) continue;
    }
    g.AddLink(a, RandomFreePort(g, a, rng), b, RandomFreePort(g, b, rng));
    --budget;
  }
  return g;
}

}  // namespace irmc
