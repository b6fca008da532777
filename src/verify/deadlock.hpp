// Static deadlock-freedom analyzer for multidestination wormhole
// routing (docs/verification.md § "Static deadlock analysis").
//
// The base deadlock-freedom invariant (CheckDeadlockFreedom in
// invariants.hpp, the route subgraph of this analyzer for unicast
// worms) proves the *unicast* channel-dependency graph acyclic — which
// is necessary but nowhere near sufficient for the paper's
// multidestination schemes. A tree worm couples every channel it
// holds: a flit is freed from the shared input buffer only when *every*
// branch has consumed it, so when the worm is too long to be absorbed (`buffer_flits` smaller
// than the worm's wire length, header flits included) a blocked branch
// starves its siblings and the cross-branch dependencies are not ordered
// by up*/down*. PR 5 hit exactly this dynamically: `buffer_flits = 128`
// could not absorb 134-flit degree-8 tree worms and sustained load
// wedged the flit engine. This analyzer makes that class of bug a
// static finding.
//
// Per (scheme × routing mode) it builds the **extended channel
// dependency graph** over every directed channel (switch-to-switch and
// host-ejection):
//
//  * kRoute edges      — base header-acquisition order, enumerated from
//                        the same `route_logic` candidate sets the
//                        engines execute (deterministic mode follows
//                        only the first candidate, adaptive any);
//  * kAbsorption edges — when a blocked worm cannot be fully absorbed
//                        its body keeps holding upstream channels, so
//                        every channel up to `span` route hops behind
//                        the head inherits the head's dependencies;
//  * kCoupling edges   — mutual progress dependencies between the
//                        channels one unabsorbed multidestination worm
//                        can hold at a replication switch (tree worms:
//                        sibling down branches and host drops, plus
//                        host drops against the climb port; path worms:
//                        host drops against the forward port).
//
// Acyclicity of the extended graph proves the scheme deadlock-free
// under the modelled engine/buffer configuration; otherwise a minimal
// witness cycle is emitted with switch/port/channel detail and — for
// absorption violations — the offending worm length vs. buffer budget.
//
// The construction consumes the same function-valued views as the PR 2
// checks (RoutingView + a TreeDecisionView over route_logic's
// TreeWormDecision), so tests/test_deadlock.cpp can corrupt individual
// entries and prove every corruption class is flagged. Soundness
// against the dynamic `DeadlockTrip` is enforced by the directed stress
// harness in the same test (ctest `deadlock_soundness_smoke`).
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "network/network_model.hpp"
#include "network/packet.hpp"
#include "network/route_logic.hpp"
#include "topology/system.hpp"
#include "verify/invariants.hpp"
#include "verify/report.hpp"

namespace irmc::verify {

/// Routing-mode axis of the analysis: deterministic routing follows
/// only the first candidate port, adaptive may follow any of them.
enum class RoutingMode : std::uint8_t { kDeterministic, kAdaptive };

constexpr const char* ToString(RoutingMode mode) {
  return mode == RoutingMode::kDeterministic ? "deterministic" : "adaptive";
}

/// The engine/buffer/worm model one analysis runs against. The flit
/// engine absorbs a blocked worm only when `net.buffer_flits` covers
/// its full wire length (payload + header); the VCT engine stores whole
/// packets by construction and is always absorbing.
struct DeadlockSpec {
  EngineKind engine = EngineKind::kFlit;
  NetParams net;
  /// Data payload per packet (MessageShape::packet_flits).
  int payload_flits = 128;
  HeaderSizing headers;
};

/// One directed channel: the link leaving switch `sw` through `port`
/// (a switch-to-switch link or a host-ejection port).
struct ChannelRef {
  SwitchId sw = kInvalidSwitch;
  PortId port = kInvalidPort;
  bool to_host = false;
};

enum class DepKind : std::uint8_t { kRoute, kAbsorption, kCoupling };

constexpr const char* ToString(DepKind kind) {
  switch (kind) {
    case DepKind::kRoute: return "route";
    case DepKind::kAbsorption: return "absorption";
    case DepKind::kCoupling: return "coupling";
  }
  return "?";
}

struct DepEdge {
  int from = -1;  ///< dense channel id
  int to = -1;
  DepKind kind = DepKind::kRoute;
};

/// The extended channel-dependency graph plus the absorption arithmetic
/// it was built under.
struct ExtCdg {
  std::vector<ChannelRef> channels;  ///< dense id -> channel
  std::vector<DepEdge> edges;
  long long route_edges = 0;
  long long absorption_edges = 0;
  long long coupling_edges = 0;
  /// Worst-case worm wire length for the analyzed scheme (payload +
  /// header flits) vs. the per-port buffer budget that must absorb it.
  int worm_flits = 0;
  int payload_flits = 0;
  int buffer_flits = 0;
  bool absorbable = true;
  /// Input buffers a single blocked unabsorbed worm spans (1 when
  /// absorbable).
  int span = 1;
};

/// Tree-worm decision view (mutation-test seam; production wraps
/// route_logic's TreeWormDecision via ViewOfTreeRoutes).
struct TreeDecisionView {
  std::function<TreeRouteDecision(SwitchId s, const NodeSet& rem,
                                  RoutePhase phase)>
      decide;
};

/// Borrows `sys`; keep it alive while the view is in use.
TreeDecisionView ViewOfTreeRoutes(const System& sys);

/// Worst-case wire length (payload + header flits) of the worms
/// `scheme` puts on `sys`'s network. Path worms are bounded by one
/// header field per visited switch.
int MaxWormWireFlits(const System& sys, SchemeKind scheme,
                     const DeadlockSpec& spec);

/// Builds the extended CDG for one scheme × routing mode from the given
/// views. Production callers use AnalyzeSchemeDeadlock.
ExtCdg BuildExtendedCdg(const System& sys, SchemeKind scheme,
                        RoutingMode mode, const DeadlockSpec& spec,
                        const RoutingView& routing,
                        const TreeDecisionView& tree);

/// A dependency cycle: channel ids c0 -> c1 -> ... -> c0; kinds[i] is
/// the kind of the edge channels[i] -> channels[(i+1) % n].
struct DepCycle {
  std::vector<int> channels;
  std::vector<DepKind> kinds;
};

/// Cycle detection over the extended graph. Prefers the minimal witness
/// (a mutual coupling pair) when one exists; otherwise returns the
/// first DFS-discovered cycle. nullopt when the graph is acyclic.
std::optional<DepCycle> FindDependencyCycle(const ExtCdg& cdg);

/// Multi-line human-readable witness for a cycle: the channel sequence
/// with edge kinds, plus the worm-length vs. buffer-budget arithmetic
/// when the cycle involves absorption failure.
std::string RenderWitness(const System& sys, const ExtCdg& cdg,
                          const DepCycle& cycle);

/// One scheme × routing mode analyzed end to end.
struct SchemeDeadlockResult {
  SchemeKind scheme = SchemeKind::kUnicastBinomial;
  RoutingMode mode = RoutingMode::kDeterministic;
  ExtCdg cdg;
  std::optional<DepCycle> cycle;
  std::string witness;  ///< empty when deadlock-free

  bool deadlock_free() const { return !cycle.has_value(); }
};

SchemeDeadlockResult AnalyzeSchemeDeadlock(const System& sys,
                                           SchemeKind scheme,
                                           RoutingMode mode,
                                           const DeadlockSpec& spec);

/// The report-level check ("multicast-deadlock"): all four schemes ×
/// both routing modes against one spec; one witness per failing combo.
CheckResult CheckMulticastDeadlock(const System& sys,
                                   const DeadlockSpec& spec);

/// VerifySystem with the multicast deadlock analysis appended as a
/// sixth check (the base five keep their contract; see invariants.hpp).
VerifyReport VerifySystem(const System& sys, std::string label,
                          const DeadlockSpec& deadlock);

}  // namespace irmc::verify
