// Static invariant checker for routing state (docs/verification.md).
//
// Verifies, without running the simulator, that a System's routing
// tables and reachability strings uphold the properties every multicast
// scheme in the paper silently relies on:
//
//  * phase rule      — every routing-table entry is a legal up*/down*
//                      move for its phase and lies on a shortest legal
//                      route (an illegal down->up entry is exactly the
//                      kind of bug that deadlocks a simulation);
//  * reachability    — every host pair has a deterministic route (follow
//                      the first candidate) and an adaptive route with
//                      no dead-end states (every reachable (switch,
//                      phase) state keeps a non-empty candidate set);
//  * deadlock freedom — the channel dependency graph of the routing
//                      function is acyclic (Dally & Seitz): the route
//                      subgraph of verify/deadlock's extended CDG, with
//                      any witness cycle rendered into the report;
//  * string soundness + exactly-once coverage — raw reachability strings
//                      contain exactly the down-reachable nodes, and the
//                      partitioned ("primary") strings are disjoint
//                      across a switch's down ports and jointly cover
//                      everything down-reachable (DESIGN §4.2: a
//                      multidestination worm delivers exactly once).
//
// Ground truth (down-distance / legal-route distance) is re-derived here
// from Graph + UpDownOrientation alone, so the checker does not trust
// the very tables it verifies.
//
// The checks consume function-valued views of the routing state rather
// than the concrete classes; tests/test_verify.cpp wraps a real System's
// tables and corrupts individual entries (mutation testing) to prove
// each corruption class is flagged. Production callers use VerifySystem.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "common/nodeset.hpp"
#include "topology/routing_table.hpp"
#include "topology/system.hpp"
#include "verify/report.hpp"

namespace irmc::verify {

/// Routing-table view: candidate output ports at `here` for a packet
/// headed to switch `dest` in `phase` (by value, so wrappers can edit).
struct RoutingView {
  std::function<std::vector<PortId>(SwitchId here, SwitchId dest,
                                    RoutePhase phase)>
      candidates;
};

/// Reachability-string view: raw and partitioned (primary) strings of
/// port `port` at switch `sw`.
struct ReachabilityView {
  std::function<NodeSet(SwitchId sw, PortId port)> raw;
  std::function<NodeSet(SwitchId sw, PortId port)> primary;
};

RoutingView ViewOf(const RoutingTable& rt);
ReachabilityView ViewOf(const Reachability& reach);

/// Graph self-consistency: link symmetry (the peer of a switch port
/// points back), valid peer/host indices, host attachments matching
/// HostsAt. Mostly of value for topologies loaded from files.
CheckResult CheckGraphConsistency(const Graph& g);

/// Invariant (1): every table entry obeys the up*/down* phase rule and
/// advances along a shortest legal route.
CheckResult CheckPhaseRule(const Graph& g, const UpDownOrientation& ud,
                           const RoutingView& routing);

/// Invariant (2): full pairwise host reachability, deterministic and
/// adaptive.
CheckResult CheckPairwiseReachability(const Graph& g,
                                      const UpDownOrientation& ud,
                                      const RoutingView& routing);

/// Invariant (3): acyclicity of the adaptive unicast channel dependency
/// graph `routing` induces over every switch-to-switch and ejection
/// channel (BuildExtendedCdg under an always-absorbing VCT spec, so only
/// route edges), witness cycle rendered by RenderWitness.
CheckResult CheckDeadlockFreedom(const System& sys,
                                 const RoutingView& routing);

/// Invariant (4): reachability-string soundness and exactly-once
/// partition coverage.
CheckResult CheckReachabilityStrings(const Graph& g,
                                     const UpDownOrientation& ud,
                                     const ReachabilityView& reach);

/// Runs every check against the System's real tables. `label` names the
/// system in the rendered report. Also the re-verification entry point
/// for post-fault rebuilt Systems (build a fresh System on the degraded
/// graph, then VerifySystem it).
VerifyReport VerifySystem(const System& sys, std::string label = "");

}  // namespace irmc::verify
