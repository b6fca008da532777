#include "network/route_logic.hpp"

#include <span>

namespace irmc {
namespace {

/// Least-loaded port among candidates (first on ties); first candidate
/// when adaptivity is disabled.
PortId PickPort(SwitchId s, std::span<const PortId> candidates,
                bool adaptive, const PortLoadFn& load) {
  IRMC_EXPECT(!candidates.empty());
  if (!adaptive) return candidates.front();
  PortId best = candidates.front();
  int best_load = load(s, best);
  for (std::size_t i = 1; i < candidates.size(); ++i) {
    const int l = load(s, candidates[i]);
    if (l < best_load) {
      best = candidates[i];
      best_load = l;
    }
  }
  return best;
}

/// Appends a branch of `pkt` leaving through `port` with `pkt`'s
/// header; the caller narrows it.
RouteBranch& AddBranch(std::vector<RouteBranch>& out, const Packet& pkt,
                       PortId port) {
  RouteBranch& b = out.emplace_back();
  b.port = port;
  b.phase = pkt.phase;
  b.header_flits = pkt.header_flits;
  b.path_cursor = pkt.path_cursor;
  return b;
}

void AddHostBranch(const System& sys, SwitchId s, NodeId n, const Packet& pkt,
                   std::vector<RouteBranch>& out) {
  const HostAttachment& at = sys.graph.host(n);
  IRMC_EXPECT(at.sw == s);
  RouteBranch& b = AddBranch(out, pkt, at.port);
  if (pkt.kind == HeaderKind::kTreeWorm) {
    b.tree_dests = NodeSet(pkt.tree_dests.capacity());
    b.tree_dests.Set(n);
  }
}

void RouteUnicast(const System& sys, SwitchId s, const Packet& pkt,
                  bool adaptive, const PortLoadFn& load,
                  std::vector<RouteBranch>& out) {
  const SwitchId dest_sw = sys.graph.SwitchOf(pkt.uni_dest);
  if (dest_sw == s) {
    AddHostBranch(sys, s, pkt.uni_dest, pkt, out);
    return;
  }
  const auto& cand = sys.routing.Candidates(s, dest_sw, pkt.phase);
  IRMC_ENSURE(!cand.empty() && "unroutable packet: no candidate port");
  const PortId p = PickPort(s, cand, adaptive, load);
  AddBranch(out, pkt, p).phase = sys.routing.NextPhase(s, p, pkt.phase);
}

void RouteTreeWorm(const System& sys, SwitchId s, const Packet& pkt,
                   bool adaptive, const PortLoadFn& load,
                   std::vector<RouteBranch>& out) {
  const Reachability& reach = sys.reach;
  NodeSet locals = pkt.tree_dests & reach.Local(s);
  NodeSet rem = pkt.tree_dests;
  rem.Subtract(locals);

  locals.ForEach([&](NodeId n) { AddHostBranch(sys, s, n, pkt, out); });
  if (rem.Empty()) return;

  const TreeRouteDecision decision = TreeWormDecision(sys, s, rem, pkt.phase);
  if (decision.down) {
    // Replicate downward along the partitioned reachability strings.
    NodeSet covered(rem.capacity());
    for (PortId p : decision.ports) {
      RouteBranch& b = AddBranch(out, pkt, p);
      b.tree_dests = rem;
      b.tree_dests &= reach.Primary(s, p);
      b.phase = RoutePhase::kDownOnly;
      covered |= b.tree_dests;
    }
    IRMC_ENSURE(covered == rem);
    return;
  }

  const PortId p = PickPort(
      s, std::span<const PortId>(decision.ports.begin(), decision.ports.size()),
      adaptive, load);
  RouteBranch& b = AddBranch(out, pkt, p);
  b.tree_dests = std::move(rem);
  b.phase = RoutePhase::kUpAllowed;
}

void RoutePathWorm(const System& sys, SwitchId s, const Packet& pkt,
                   std::vector<RouteBranch>& out) {
  IRMC_EXPECT(pkt.path != nullptr);
  IRMC_EXPECT(pkt.path_cursor >= 0 &&
              static_cast<std::size_t>(pkt.path_cursor) <
                  pkt.path->steps.size());
  const PathRoutes::Step& step =
      pkt.path->steps[static_cast<std::size_t>(pkt.path_cursor)];
  IRMC_ENSURE(step.sw == s &&
              "unroutable packet: path worm step names another switch");
  const std::span<const NodeId> drops = pkt.path->Drops(step);
  for (NodeId n : drops) AddHostBranch(sys, s, n, pkt, out);
  if (step.forward_port == kInvalidPort) {
    IRMC_ENSURE(!drops.empty());  // a worm must end with a drop
    return;
  }
  IRMC_ENSURE(sys.graph.port(s, step.forward_port).kind == PortKind::kSwitch &&
              "unroutable packet: path worm forwards on a non-switch port");
  IRMC_ENSURE((pkt.phase == RoutePhase::kUpAllowed ||
               !sys.updown.IsUp(s, step.forward_port)) &&
              "unroutable packet: path worm climbs after its descent");
  RouteBranch& b = AddBranch(out, pkt, step.forward_port);
  b.path_cursor = pkt.path_cursor + 1;
  b.header_flits = step.header_flits_after;
  b.phase = sys.routing.NextPhase(s, step.forward_port, pkt.phase);
}

}  // namespace

TreeRouteDecision TreeWormDecision(const System& sys, SwitchId s,
                                   const NodeSet& rem, RoutePhase phase) {
  const Reachability& reach = sys.reach;
  IRMC_EXPECT(!rem.Empty());
  TreeRouteDecision decision;
  if (rem.IsSubsetOf(reach.DownCover(s))) {
    decision.down = true;
    for (PortId p : sys.updown.DownPorts(s))
      if (rem.Intersects(reach.Primary(s, p))) decision.ports.push_back(p);
    return decision;
  }

  // Not down-coverable from here: continue climbing toward a least
  // common ancestor. Legal only while the worm has not gone down.
  IRMC_ENSURE(phase == RoutePhase::kUpAllowed &&
              "unroutable packet: tree worm not down-coverable in its "
              "down-only phase");
  const auto& ups = sys.updown.UpPorts(s);
  IRMC_ENSURE(!ups.empty() &&
              "unroutable packet: tree worm climbing from the root");
  for (PortId p : ups) {
    const SwitchId t = sys.graph.port(s, p).peer_switch;
    if (rem.IsSubsetOfUnion(reach.DownCover(t), reach.Local(t)))
      decision.ports.push_back(p);
  }
  if (decision.ports.empty())
    for (PortId p : ups) decision.ports.push_back(p);
  return decision;
}

void ComputeRouteBranches(const System& sys, SwitchId s, const Packet& pkt,
                          bool adaptive, const PortLoadFn& load,
                          std::vector<RouteBranch>& out) {
  switch (pkt.kind) {
    case HeaderKind::kUnicast:
      RouteUnicast(sys, s, pkt, adaptive, load, out);
      break;
    case HeaderKind::kTreeWorm:
      RouteTreeWorm(sys, s, pkt, adaptive, load, out);
      break;
    case HeaderKind::kPathWorm:
      RoutePathWorm(sys, s, pkt, out);
      break;
  }
}

}  // namespace irmc
