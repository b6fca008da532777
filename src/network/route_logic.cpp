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

/// Appends a copy of `pkt` leaving through `port`; the caller narrows
/// the copy's header.
Packet& AddBranch(std::vector<RouteBranch>& out, const Packet& pkt,
                  PortId port) {
  return out.emplace_back(pkt, port).pkt;
}

void AddHostBranch(const System& sys, SwitchId s, NodeId n, const Packet& pkt,
                   std::vector<RouteBranch>& out) {
  const HostAttachment& at = sys.graph.host(n);
  IRMC_EXPECT(at.sw == s);
  Packet& copy = AddBranch(out, pkt, at.port);
  if (copy.kind == HeaderKind::kTreeWorm) {
    copy.tree_dests = NodeSet(copy.tree_dests.capacity());
    copy.tree_dests.Set(n);
  }
}

bool TryRouteUnicast(const System& sys, SwitchId s, const Packet& pkt,
                     bool adaptive, const PortLoadFn& load,
                     std::vector<RouteBranch>& out) {
  const SwitchId dest_sw = sys.graph.SwitchOf(pkt.uni_dest);
  if (dest_sw == s) {
    AddHostBranch(sys, s, pkt.uni_dest, pkt, out);
    return true;
  }
  const auto& cand = sys.routing.Candidates(s, dest_sw, pkt.phase);
  if (cand.empty()) return false;  // stale phase under swapped tables
  const PortId p = PickPort(s, cand, adaptive, load);
  AddBranch(out, pkt, p).phase = sys.routing.NextPhase(s, p, pkt.phase);
  return true;
}

/// TreeWormDecision without the phase-rule aborts: returns false where
/// the public wrapper would ENSURE (down-only worm below a subtree the
/// reconfigured tree moved away, or a climbing worm at a switch the new
/// orientation made a root with no up ports).
bool TryTreeDecision(const System& sys, SwitchId s, const NodeSet& rem,
                     RoutePhase phase, TreeRouteDecision* decision) {
  const Reachability& reach = sys.reach;
  IRMC_EXPECT(!rem.Empty());
  if (rem.IsSubsetOf(reach.DownCover(s))) {
    decision->down = true;
    for (PortId p : sys.updown.DownPorts(s))
      if (rem.Intersects(reach.Primary(s, p))) decision->ports.push_back(p);
    return true;
  }

  // Not down-coverable from here: continue climbing toward a least
  // common ancestor. Legal only while the worm has not gone down.
  if (phase != RoutePhase::kUpAllowed) return false;
  const auto& ups = sys.updown.UpPorts(s);
  if (ups.empty()) return false;
  for (PortId p : ups) {
    const SwitchId t = sys.graph.port(s, p).peer_switch;
    if (rem.IsSubsetOfUnion(reach.DownCover(t), reach.Local(t)))
      decision->ports.push_back(p);
  }
  if (decision->ports.empty())
    for (PortId p : ups) decision->ports.push_back(p);
  return true;
}

bool TryRouteTreeWorm(const System& sys, SwitchId s, const Packet& pkt,
                      bool adaptive, const PortLoadFn& load,
                      std::vector<RouteBranch>& out) {
  const Reachability& reach = sys.reach;
  NodeSet locals = pkt.tree_dests & reach.Local(s);
  NodeSet rem = pkt.tree_dests;
  rem.Subtract(locals);

  TreeRouteDecision decision;
  if (!rem.Empty() && !TryTreeDecision(sys, s, rem, pkt.phase, &decision))
    return false;

  locals.ForEach([&](NodeId n) { AddHostBranch(sys, s, n, pkt, out); });
  if (rem.Empty()) return true;

  if (decision.down) {
    // Replicate downward along the partitioned reachability strings.
    NodeSet covered(rem.capacity());
    for (PortId p : decision.ports) {
      Packet& copy = AddBranch(out, pkt, p);
      copy.tree_dests = rem;
      copy.tree_dests &= reach.Primary(s, p);
      copy.phase = RoutePhase::kDownOnly;
      covered |= copy.tree_dests;
    }
    IRMC_ENSURE(covered == rem);
    return true;
  }

  const PortId p = PickPort(
      s, std::span<const PortId>(decision.ports.begin(), decision.ports.size()),
      adaptive, load);
  Packet& copy = AddBranch(out, pkt, p);
  copy.tree_dests = std::move(rem);
  copy.phase = RoutePhase::kUpAllowed;
  return true;
}

bool TryRoutePathWorm(const System& sys, SwitchId s, const Packet& pkt,
                      std::vector<RouteBranch>& out) {
  IRMC_EXPECT(pkt.path != nullptr);
  IRMC_EXPECT(pkt.path_cursor < pkt.path->steps.size());
  const PathWormRoute::Step& step = pkt.path->steps[pkt.path_cursor];
  // A precomputed hop list goes stale wholesale after a reconfig swap:
  // the cursor can name a switch the worm is not at, a forward port the
  // dead link vacated, or a port the new orientation made an up move
  // for a worm that has already gone down.
  if (step.sw != s) return false;
  if (step.forward_port != kInvalidPort &&
      (sys.graph.port(s, step.forward_port).kind != PortKind::kSwitch ||
       (pkt.phase == RoutePhase::kDownOnly &&
        sys.updown.IsUp(s, step.forward_port))))
    return false;
  for (NodeId n : step.deliver) AddHostBranch(sys, s, n, pkt, out);
  if (step.forward_port == kInvalidPort) {
    IRMC_ENSURE(!step.deliver.empty());  // a worm must end with a drop
    return true;
  }
  Packet& copy = AddBranch(out, pkt, step.forward_port);
  copy.path_cursor = pkt.path_cursor + 1;
  copy.header_flits = step.header_flits_after;
  copy.phase = sys.routing.NextPhase(s, step.forward_port, pkt.phase);
  return true;
}

bool TryRoute(const System& sys, SwitchId s, const Packet& pkt,
              bool adaptive, const PortLoadFn& load,
              std::vector<RouteBranch>& out) {
  const std::size_t first = out.size();
  bool ok = false;
  switch (pkt.kind) {
    case HeaderKind::kUnicast:
      ok = TryRouteUnicast(sys, s, pkt, adaptive, load, out);
      break;
    case HeaderKind::kTreeWorm:
      ok = TryRouteTreeWorm(sys, s, pkt, adaptive, load, out);
      break;
    case HeaderKind::kPathWorm:
      ok = TryRoutePathWorm(sys, s, pkt, out);
      break;
  }
  if (!ok) {
    out.resize(first);
    return false;
  }
  if (pkt.hop_log.hops() != nullptr)
    for (std::size_t i = first; i < out.size(); ++i)
      out[i].pkt.hop_log.Record(HopRecord{s, out[i].port});
  return true;
}

}  // namespace

TreeRouteDecision TreeWormDecision(const System& sys, SwitchId s,
                                   const NodeSet& rem, RoutePhase phase) {
  TreeRouteDecision decision;
  if (TryTreeDecision(sys, s, rem, phase, &decision)) return decision;
  // Re-derive which contract the caller violated so the abort message
  // stays as specific as it was before the Try split.
  IRMC_ENSURE(phase == RoutePhase::kUpAllowed);
  IRMC_ENSURE(!sys.updown.UpPorts(s).empty());
  IRMC_ENSURE(false && "unroutable tree worm");
  return decision;
}

void ComputeRouteBranches(const System& sys, SwitchId s, const Packet& pkt,
                          bool adaptive, const PortLoadFn& load,
                          std::vector<RouteBranch>& out) {
  IRMC_ENSURE(TryRoute(sys, s, pkt, adaptive, load, out) &&
              "unroutable packet (stale header without a drop handler?)");
}

bool TryComputeRouteBranches(const System& sys, SwitchId s,
                             const Packet& pkt, bool adaptive,
                             const PortLoadFn& load,
                             std::vector<RouteBranch>& out) {
  return TryRoute(sys, s, pkt, adaptive, load, out);
}

}  // namespace irmc
