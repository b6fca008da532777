#include "verify/invariants.hpp"

#include <cstdarg>
#include <cstdio>
#include <queue>
#include <utility>

#include "verify/deadlock.hpp"

namespace irmc::verify {
namespace {

/// snprintf into a std::string for witness lines.
#if defined(__GNUC__) || defined(__clang__)
__attribute__((format(printf, 1, 2)))
#endif
std::string
Fmt(const char* fmt, ...) {
  char buf[256];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  return std::string(buf);
}

constexpr int kUnreachable = -1;

/// Distances re-derived from Graph + UpDownOrientation only, so the
/// checker does not trust the routing tables under test.
struct GroundTruth {
  int num_switches = 0;
  /// Pure-down hop count from -> to over down links (kUnreachable if
  /// there is no pure-down path).
  std::vector<int> down;
  /// Shortest legal up*/down* hop count from -> to (kUnreachable never
  /// happens on a connected graph, but recorded for robustness).
  std::vector<int> legal;

  int Down(SwitchId from, SwitchId to) const {
    return down[Idx(from, to)];
  }
  int Legal(SwitchId from, SwitchId to) const {
    return legal[Idx(from, to)];
  }
  std::size_t Idx(SwitchId from, SwitchId to) const {
    return static_cast<std::size_t>(from) *
               static_cast<std::size_t>(num_switches) +
           static_cast<std::size_t>(to);
  }
};

GroundTruth ComputeGroundTruth(const Graph& g, const UpDownOrientation& ud) {
  GroundTruth gt;
  gt.num_switches = g.num_switches();
  const auto s_count = static_cast<std::size_t>(gt.num_switches);
  gt.down.assign(s_count * s_count, kUnreachable);
  gt.legal.assign(s_count * s_count, kUnreachable);

  // Pure-down BFS from every source.
  for (SwitchId src = 0; src < gt.num_switches; ++src) {
    gt.down[gt.Idx(src, src)] = 0;
    std::queue<SwitchId> frontier;
    frontier.push(src);
    while (!frontier.empty()) {
      const SwitchId u = frontier.front();
      frontier.pop();
      for (PortId p : ud.DownPorts(u)) {
        const SwitchId v = g.port(u, p).peer_switch;
        if (gt.down[gt.Idx(src, v)] != kUnreachable) continue;
        gt.down[gt.Idx(src, v)] = gt.down[gt.Idx(src, u)] + 1;
        frontier.push(v);
      }
    }
  }

  // Legal-route BFS over (switch, has-gone-down) states from every
  // source: up moves are only available before the first down move.
  for (SwitchId src = 0; src < gt.num_switches; ++src) {
    std::vector<int> dist(s_count * 2, kUnreachable);
    auto state = [](SwitchId sw, bool gone_down) {
      return static_cast<std::size_t>(sw) * 2 + (gone_down ? 1 : 0);
    };
    std::queue<std::pair<SwitchId, bool>> frontier;
    dist[state(src, false)] = 0;
    frontier.emplace(src, false);
    while (!frontier.empty()) {
      const auto [u, gone_down] = frontier.front();
      frontier.pop();
      const int d = dist[state(u, gone_down)];
      auto visit = [&](SwitchId v, bool v_gone_down) {
        if (dist[state(v, v_gone_down)] != kUnreachable) return;
        dist[state(v, v_gone_down)] = d + 1;
        frontier.emplace(v, v_gone_down);
      };
      for (PortId p : ud.DownPorts(u)) visit(g.port(u, p).peer_switch, true);
      if (!gone_down)
        for (PortId p : ud.UpPorts(u)) visit(g.port(u, p).peer_switch, false);
    }
    for (SwitchId to = 0; to < gt.num_switches; ++to) {
      const int a = dist[state(to, false)];
      const int b = dist[state(to, true)];
      int best = a;
      if (b != kUnreachable && (best == kUnreachable || b < best)) best = b;
      gt.legal[gt.Idx(src, to)] = best;
    }
  }
  return gt;
}

/// True when (s, p) is a live switch-to-switch port of g.
bool IsSwitchPort(const Graph& g, SwitchId s, PortId p) {
  return p >= 0 && p < g.ports_per_switch() &&
         g.port(s, p).kind == PortKind::kSwitch;
}

}  // namespace

RoutingView ViewOf(const RoutingTable& rt) {
  // The view borrows rt; keep the System alive while checking.
  return RoutingView{[&rt](SwitchId here, SwitchId dest, RoutePhase phase) {
    const auto cand = rt.Candidates(here, dest, phase);
    return std::vector<PortId>(cand.begin(), cand.end());
  }};
}

ReachabilityView ViewOf(const Reachability& reach) {
  return ReachabilityView{
      [&reach](SwitchId sw, PortId port) { return reach.Raw(sw, port).ToSet(); },
      [&reach](SwitchId sw, PortId port) {
        return reach.Primary(sw, port).ToSet();
      }};
}

CheckResult CheckGraphConsistency(const Graph& g) {
  CheckResult r;
  r.name = "graph-consistency";
  for (SwitchId s = 0; s < g.num_switches(); ++s) {
    for (PortId p = 0; p < g.ports_per_switch(); ++p) {
      ++r.checked;
      const Port& pt = g.port(s, p);
      if (pt.kind == PortKind::kSwitch) {
        if (pt.peer_switch < 0 || pt.peer_switch >= g.num_switches() ||
            pt.peer_switch == s || pt.peer_port < 0 ||
            pt.peer_port >= g.ports_per_switch()) {
          r.AddViolation(Fmt("switch %d port %d has invalid peer (%d:%d)", s,
                             p, pt.peer_switch, pt.peer_port));
          continue;
        }
        const Port& back = g.port(pt.peer_switch, pt.peer_port);
        if (back.kind != PortKind::kSwitch || back.peer_switch != s ||
            back.peer_port != p)
          r.AddViolation(
              Fmt("link %d:%d -> %d:%d is not symmetric", s, p,
                  pt.peer_switch, pt.peer_port));
      } else if (pt.kind == PortKind::kHost) {
        if (pt.host < 0 || pt.host >= g.num_hosts()) {
          r.AddViolation(
              Fmt("switch %d port %d has invalid host id %d", s, p, pt.host));
          continue;
        }
        const HostAttachment& at = g.host(pt.host);
        if (at.sw != s || at.port != p)
          r.AddViolation(Fmt("host %d attachment (%d:%d) disagrees with port "
                             "%d:%d",
                             pt.host, at.sw, at.port, s, p));
      }
    }
  }
  return r;
}

CheckResult CheckPhaseRule(const Graph& g, const UpDownOrientation& ud,
                           const RoutingView& routing) {
  CheckResult r;
  r.name = "phase-rule";
  const GroundTruth gt = ComputeGroundTruth(g, ud);
  const int S = g.num_switches();
  for (SwitchId dest = 0; dest < S; ++dest) {
    for (SwitchId here = 0; here < S; ++here) {
      if (here == dest) continue;

      for (PortId p : routing.candidates(here, dest, RoutePhase::kDownOnly)) {
        ++r.checked;
        if (!IsSwitchPort(g, here, p)) {
          r.AddViolation(Fmt("down-phase entry %d->%d: port %d is not a "
                             "switch port",
                             here, dest, p));
          continue;
        }
        if (!ud.IsDown(here, p)) {
          r.AddViolation(Fmt("illegal down->up entry: switch %d, dest %d, "
                             "up port %d offered in down-only phase",
                             here, dest, p));
          continue;
        }
        const SwitchId peer = g.port(here, p).peer_switch;
        if (gt.Down(peer, dest) == kUnreachable) {
          r.AddViolation(Fmt("down-phase entry %d->%d via port %d dead-ends "
                             "at switch %d (no pure-down path onward)",
                             here, dest, p, peer));
        } else if (gt.Down(peer, dest) + 1 != gt.Down(here, dest)) {
          r.AddViolation(Fmt("down-phase entry %d->%d via port %d is not on "
                             "a shortest down path (%d+1 != %d)",
                             here, dest, p, gt.Down(peer, dest),
                             gt.Down(here, dest)));
        }
      }

      for (PortId p : routing.candidates(here, dest, RoutePhase::kUpAllowed)) {
        ++r.checked;
        if (!IsSwitchPort(g, here, p)) {
          r.AddViolation(Fmt("up-phase entry %d->%d: port %d is not a "
                             "switch port",
                             here, dest, p));
          continue;
        }
        const SwitchId peer = g.port(here, p).peer_switch;
        if (ud.IsUp(here, p)) {
          if (gt.Legal(peer, dest) == kUnreachable ||
              gt.Legal(peer, dest) + 1 != gt.Legal(here, dest))
            r.AddViolation(Fmt("up-phase entry %d->%d via up port %d is not "
                               "on a shortest legal route",
                               here, dest, p));
        } else {
          // The first down move latches the down-only phase: the rest of
          // the route must be pure-down.
          if (gt.Down(peer, dest) == kUnreachable) {
            r.AddViolation(Fmt("up-phase entry %d->%d via down port %d "
                               "latches down-only but switch %d cannot "
                               "down-reach %d",
                               here, dest, p, peer, dest));
          } else if (gt.Down(peer, dest) + 1 != gt.Legal(here, dest)) {
            r.AddViolation(Fmt("up-phase entry %d->%d via down port %d is "
                               "not on a shortest legal route",
                               here, dest, p));
          }
        }
      }
    }
  }
  return r;
}

CheckResult CheckPairwiseReachability(const Graph& g,
                                      const UpDownOrientation& ud,
                                      const RoutingView& routing) {
  CheckResult r;
  r.name = "pairwise-reachability";
  const int S = g.num_switches();
  const int hop_limit = 2 * S + 2;
  long long host_pairs = 0;

  for (SwitchId t = 0; t < S; ++t) {
    if (g.HostsAt(t).empty()) continue;
    // Adaptive dead ends are per destination, not per source; report
    // each (state, dest) once.
    std::vector<char> dead_end_seen(static_cast<std::size_t>(S) * 2, 0);
    for (SwitchId s = 0; s < S; ++s) {
      if (s == t || g.HostsAt(s).empty()) continue;
      ++r.checked;
      host_pairs += static_cast<long long>(g.HostsAt(s).size()) *
                    static_cast<long long>(g.HostsAt(t).size());

      // Deterministic route: always take the first candidate.
      {
        SwitchId here = s;
        RoutePhase phase = RoutePhase::kUpAllowed;
        int hops = 0;
        bool delivered = false;
        while (hops++ < hop_limit) {
          if (here == t) {
            delivered = true;
            break;
          }
          const auto cands = routing.candidates(here, t, phase);
          if (cands.empty() || !IsSwitchPort(g, here, cands.front())) {
            r.AddViolation(Fmt("no deterministic route %d->%d: stuck at "
                               "switch %d after %d hops",
                               s, t, here, hops - 1));
            break;
          }
          const PortId p = cands.front();
          if (phase == RoutePhase::kUpAllowed && ud.IsDown(here, p))
            phase = RoutePhase::kDownOnly;
          here = g.port(here, p).peer_switch;
        }
        if (!delivered && hops > hop_limit)
          r.AddViolation(Fmt("deterministic route %d->%d exceeded %d hops",
                             s, t, hop_limit));
      }

      // Adaptive routes: explore every candidate from (s, up-allowed);
      // the destination must be reached and no reachable en-route state
      // may have an empty candidate set (the switch would strand the
      // packet there).
      {
        auto state = [](SwitchId sw, RoutePhase phase) {
          return static_cast<std::size_t>(sw) * 2 +
                 (phase == RoutePhase::kDownOnly ? 1 : 0);
        };
        std::vector<char> seen(static_cast<std::size_t>(S) * 2, 0);
        std::queue<std::pair<SwitchId, RoutePhase>> frontier;
        seen[state(s, RoutePhase::kUpAllowed)] = 1;
        frontier.emplace(s, RoutePhase::kUpAllowed);
        bool reached = false;
        while (!frontier.empty()) {
          const auto [here, phase] = frontier.front();
          frontier.pop();
          if (here == t) {
            reached = true;
            continue;
          }
          const auto cands = routing.candidates(here, t, phase);
          if (cands.empty()) {
            if (!dead_end_seen[state(here, phase)]) {
              dead_end_seen[state(here, phase)] = 1;
              r.AddViolation(Fmt("adaptive dead end en route to %d: switch "
                                 "%d has no candidates in %s phase",
                                 t, here,
                                 phase == RoutePhase::kDownOnly ? "down-only"
                                                                : "up-allowed"));
            }
            continue;
          }
          for (PortId p : cands) {
            if (!IsSwitchPort(g, here, p)) continue;  // flagged by phase-rule
            RoutePhase next = phase;
            if (phase == RoutePhase::kUpAllowed && ud.IsDown(here, p))
              next = RoutePhase::kDownOnly;
            const SwitchId v = g.port(here, p).peer_switch;
            if (!seen[state(v, next)]) {
              seen[state(v, next)] = 1;
              frontier.emplace(v, next);
            }
          }
        }
        if (!reached)
          r.AddViolation(
              Fmt("no adaptive route %d->%d: destination unreachable "
                  "through the table",
                  s, t));
      }
    }
  }
  r.note = Fmt("%lld host pairs over %lld switch pairs", host_pairs,
               r.checked);
  return r;
}

CheckResult CheckDeadlockFreedom(const System& sys,
                                 const RoutingView& routing) {
  CheckResult r;
  r.name = "deadlock-freedom";
  // The VCT engine always absorbs a blocked worm, so this graph holds
  // only route edges: the adaptive unicast dependency relation.
  DeadlockSpec spec;
  spec.engine = EngineKind::kVct;
  const ExtCdg cdg =
      BuildExtendedCdg(sys, SchemeKind::kUnicastBinomial,
                       RoutingMode::kAdaptive, spec, routing,
                       ViewOfTreeRoutes(sys));
  r.checked = static_cast<long long>(cdg.channels.size());
  r.note = Fmt("%lld channels, %lld dependencies", r.checked,
               cdg.route_edges);
  if (const auto cycle = FindDependencyCycle(cdg))
    r.AddViolation(RenderWitness(sys, cdg, *cycle));
  return r;
}

CheckResult CheckReachabilityStrings(const Graph& g,
                                     const UpDownOrientation& ud,
                                     const ReachabilityView& reach) {
  CheckResult r;
  r.name = "reachability-strings";
  const GroundTruth gt = ComputeGroundTruth(g, ud);
  const int S = g.num_switches();
  const int N = g.num_hosts();

  // Nodes attached to each switch, as sets.
  std::vector<NodeSet> local(static_cast<std::size_t>(S), NodeSet(N));
  for (SwitchId s = 0; s < S; ++s)
    for (NodeId n : g.HostsAt(s)) local[static_cast<std::size_t>(s)].Set(n);

  auto first_node = [](const NodeSet& set) {
    return set.ToVector().front();
  };

  for (SwitchId s = 0; s < S; ++s) {
    NodeSet expected_cover(N);  // everything down-reachable from s
    NodeSet owned(N);           // union of primary strings seen so far
    for (PortId p = 0; p < g.ports_per_switch(); ++p) {
      ++r.checked;
      const bool down_port = IsSwitchPort(g, s, p) && ud.IsDown(s, p);
      const NodeSet raw = reach.raw(s, p);
      const NodeSet primary = reach.primary(s, p);
      if (!down_port) {
        if (!raw.Empty() || !primary.Empty())
          r.AddViolation(Fmt("switch %d port %d is not a down port but has "
                             "a non-empty reachability string",
                             s, p));
        continue;
      }

      // Ground truth: nodes at switches down-reachable from the peer.
      const SwitchId peer = g.port(s, p).peer_switch;
      NodeSet expected(N);
      for (SwitchId u = 0; u < S; ++u)
        if (gt.Down(peer, u) != kUnreachable)
          expected |= local[static_cast<std::size_t>(u)];
      expected_cover |= expected;

      NodeSet over = raw;
      over.Subtract(expected);
      if (!over.Empty())
        r.AddViolation(Fmt("raw string over-coverage at %d:%d — claims %d "
                           "node(s) not down-reachable (first: node %d)",
                           s, p, over.Count(), first_node(over)));
      NodeSet under = expected;
      under.Subtract(raw);
      if (!under.Empty())
        r.AddViolation(Fmt("raw string under-coverage at %d:%d — misses %d "
                           "down-reachable node(s) (first: node %d)",
                           s, p, under.Count(), first_node(under)));

      if (!primary.IsSubsetOf(raw)) {
        NodeSet extra = primary;
        extra.Subtract(raw);
        r.AddViolation(Fmt("primary string at %d:%d is not a subset of the "
                           "raw string (first extra: node %d)",
                           s, p, first_node(extra)));
      }
      if (owned.Intersects(primary)) {
        NodeSet overlap = owned;
        overlap &= primary;
        r.AddViolation(Fmt("partition overlap at switch %d: node %d owned "
                           "by port %d and an earlier port",
                           s, first_node(overlap), p));
      }
      owned |= primary;
    }
    NodeSet gap = expected_cover;
    gap.Subtract(owned);
    if (!gap.Empty())
      r.AddViolation(Fmt("partition gap at switch %d: %d down-reachable "
                         "node(s) owned by no port (first: node %d)",
                         s, gap.Count(), first_node(gap)));
  }
  return r;
}

VerifyReport VerifySystem(const System& sys, std::string label) {
  VerifyReport report;
  report.label = std::move(label);
  report.checks.push_back(CheckGraphConsistency(sys.graph));
  report.checks.push_back(
      CheckPhaseRule(sys.graph, sys.updown, ViewOf(sys.routing)));
  report.checks.push_back(
      CheckPairwiseReachability(sys.graph, sys.updown, ViewOf(sys.routing)));
  report.checks.push_back(CheckDeadlockFreedom(sys, ViewOf(sys.routing)));
  report.checks.push_back(
      CheckReachabilityStrings(sys.graph, sys.updown, ViewOf(sys.reach)));
  return report;
}

}  // namespace irmc::verify
