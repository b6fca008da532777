// Mutation + soundness harness for the static multicast deadlock
// analyzer (verify/deadlock.hpp).
//
// Mirrors the test_verify.cpp discipline: an analyzer is only
// trustworthy if it fails on broken state, so beyond "clean systems
// prove deadlock-free", each mutation test seeds one targeted
// corruption class and asserts it is caught:
//
//   missing coupling edges       -> the unabsorbable tree-worm cycle
//                                   disappears (couplings load-bearing)
//   wrong absorption arithmetic  -> the exact buffer == worm boundary
//   suppressed witness           -> every flagged combo carries a
//                                   concrete, edge-consistent cycle
//   cycle-detection bug          -> planted cycles / DAGs / a corrupted
//                                   routing view forming a route cycle
//
// DeadlockClean.* also runs the base deadlock-freedom check
// (verify/invariants.hpp), which is this analyzer's unicast route
// subgraph, over the whole clean set.
//
// DeadlockSoundness.* is the dynamic cross-check: a directed stress
// harness drives the flit engine into the historical buffer_flits=128
// wedge (PR 5) through the deadlock-handler hook and asserts that every
// configuration the dynamic DeadlockTrip catches is also statically
// flagged — and that the statically-clean control configuration runs to
// completion.
#include "verify/deadlock.hpp"

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <utility>
#include <vector>

#include "network/flit_engine.hpp"
#include "sim/engine.hpp"
#include "topology/generator.hpp"
#include "topology/root_policy.hpp"

namespace irmc::verify {
namespace {

System MakeSystem(int switches, std::uint64_t seed) {
  TopologySpec spec;
  spec.num_switches = switches;
  spec.num_hosts = 32;
  return System(GenerateTopology(spec, seed));
}

/// True when (from, to) is an edge of `cdg` with kind `kind`.
bool HasEdge(const ExtCdg& cdg, int from, int to, DepKind kind) {
  for (const DepEdge& e : cdg.edges)
    if (e.from == from && e.to == to && e.kind == kind) return true;
  return false;
}

// --- clean systems prove deadlock-free -------------------------------

/// Labelled clean systems: 8/16/32 switches x seeds 1-7 and 11/22/33,
/// a 16-switch topology under each root policy, and a 4-switch ring.
std::vector<std::pair<std::string, System>> CleanSystems() {
  std::vector<std::pair<std::string, System>> out;
  for (int switches : {8, 16, 32})
    for (std::uint64_t seed : {1u, 2u, 3u, 4u, 5u, 6u, 7u, 11u, 22u, 33u})
      out.emplace_back("S=" + std::to_string(switches) +
                           " seed=" + std::to_string(seed),
                       MakeSystem(switches, seed));
  TopologySpec spec;
  spec.num_switches = 16;
  for (RootPolicy policy : {RootPolicy::kLowestId, RootPolicy::kMaxDegree,
                            RootPolicy::kMinEccentricity})
    out.emplace_back(ToString(policy),
                     System(GenerateTopology(spec, 11), policy));
  // Unrestricted minimal routing on a ring has a cyclic dependency;
  // up*/down* breaks it at the root.
  Graph ring(4, 4);
  ring.AddLink(0, 0, 1, 0);
  ring.AddLink(1, 1, 2, 0);
  ring.AddLink(2, 1, 3, 0);
  ring.AddLink(3, 1, 0, 1);
  ring.AttachHost(0, 3);
  ring.AttachHost(2, 3);
  out.emplace_back("4-switch ring", System(std::move(ring)));
  return out;
}

TEST(DeadlockClean, DefaultConfigProvesAllSchemesAcrossSizesAndSeeds) {
  DeadlockSpec spec;  // flit engine, buffer_flits 256, payload 128
  for (const auto& [label, sys] : CleanSystems()) {
    const CheckResult r = CheckMulticastDeadlock(sys, spec);
    EXPECT_TRUE(r.pass) << label << ": "
                        << (r.witnesses.empty() ? "" : r.witnesses[0]);
    EXPECT_EQ(r.checked, 8);  // 4 schemes x 2 routing modes

    // The base check: the unicast route subgraph over every
    // switch-to-switch and ejection channel.
    const CheckResult base = CheckDeadlockFreedom(sys, ViewOf(sys.routing));
    EXPECT_TRUE(base.pass) << label << ": "
                           << (base.witnesses.empty() ? "" : base.witnesses[0]);
    EXPECT_EQ(base.checked, 2 * sys.graph.NumLinks() + sys.num_nodes())
        << label;
  }
}

TEST(DeadlockClean, VctEngineAbsorbsAnyWormLength) {
  // The VCT engine stores whole packets: no buffer is ever too small to
  // absorb, so even absurd worm lengths stay provably deadlock-free.
  DeadlockSpec spec;
  spec.engine = EngineKind::kVct;
  spec.net.buffer_flits = 1;
  spec.payload_flits = 4096;
  const System sys = MakeSystem(16, 7);
  const CheckResult r = CheckMulticastDeadlock(sys, spec);
  EXPECT_TRUE(r.pass) << (r.witnesses.empty() ? "" : r.witnesses[0]);
}

TEST(DeadlockClean, UnicastWormholeIsDeadlockFreeAtAnyBufferSize) {
  // Single-branch worms never couple channels: up*/down* alone orders
  // their dependencies, so tiny buffers stretch worms across links but
  // cannot deadlock them (the dynamic engine agrees — see
  // test_flit_engine's SmallBuffersStretchWormAcrossLinks).
  DeadlockSpec spec;
  spec.net.buffer_flits = 2;
  const System sys = MakeSystem(16, 7);
  for (RoutingMode mode : {RoutingMode::kDeterministic, RoutingMode::kAdaptive})
    for (SchemeKind scheme :
         {SchemeKind::kUnicastBinomial, SchemeKind::kNiKBinomial}) {
      const SchemeDeadlockResult res =
          AnalyzeSchemeDeadlock(sys, scheme, mode, spec);
      EXPECT_TRUE(res.deadlock_free())
          << ToString(scheme) << "/" << ToString(mode) << ": " << res.witness;
    }
}

TEST(DeadlockClean, ReportGainsExactlyOneExtraCheck) {
  const System sys = MakeSystem(8, 3);
  DeadlockSpec spec;
  const VerifyReport report = VerifySystem(sys, "with-deadlock", spec);
  EXPECT_EQ(report.checks.size(), 6u);
  const CheckResult* check = report.Find("multicast-deadlock");
  ASSERT_NE(check, nullptr);
  EXPECT_TRUE(check->pass);
  EXPECT_TRUE(report.pass()) << Render(report);
}

// --- the historical regression ---------------------------------------

TEST(DeadlockRegression, HistoricalBufferFlits128IsFlaggedWithArithmetic) {
  // PR 5's dynamically-found wedge: 128-flit buffers cannot absorb
  // 134-flit degree-8 tree worms (128 payload + 6 header over 32
  // nodes). The static pass must flag it and show the arithmetic.
  DeadlockSpec spec;
  spec.net.buffer_flits = 128;
  const System sys = MakeSystem(16, 7);
  EXPECT_EQ(MaxWormWireFlits(sys, SchemeKind::kTreeWorm, spec), 134);

  const SchemeDeadlockResult res = AnalyzeSchemeDeadlock(
      sys, SchemeKind::kTreeWorm, RoutingMode::kDeterministic, spec);
  EXPECT_FALSE(res.deadlock_free());
  EXPECT_NE(res.witness.find("absorption violation"), std::string::npos)
      << res.witness;
  EXPECT_NE(res.witness.find("134"), std::string::npos) << res.witness;
  EXPECT_NE(res.witness.find("128"), std::string::npos) << res.witness;
  EXPECT_NE(res.witness.find("sw "), std::string::npos) << res.witness;

  const CheckResult r = CheckMulticastDeadlock(sys, spec);
  EXPECT_FALSE(r.pass);
  EXPECT_GT(r.violations, 0);
}

// --- mutation class: missing coupling edges --------------------------

TEST(DeadlockMutation, DroppedCouplingEdgesSuppressTheCycle) {
  // The unabsorbable tree-worm cycle must flow through coupling edges:
  // strip them and the remaining route/absorption graph is acyclic
  // (up*/down* orders it), so an analyzer that forgot branch coupling
  // would wrongly certify the historical config.
  DeadlockSpec spec;
  spec.net.buffer_flits = 128;
  const System sys = MakeSystem(16, 7);
  const ExtCdg full =
      BuildExtendedCdg(sys, SchemeKind::kTreeWorm, RoutingMode::kDeterministic,
                       spec, ViewOf(sys.routing), ViewOfTreeRoutes(sys));
  ASSERT_GT(full.coupling_edges, 0);
  ASSERT_TRUE(FindDependencyCycle(full).has_value());

  ExtCdg mutated = full;
  mutated.edges.clear();
  for (const DepEdge& e : full.edges)
    if (e.kind != DepKind::kCoupling) mutated.edges.push_back(e);
  mutated.coupling_edges = 0;
  EXPECT_FALSE(FindDependencyCycle(mutated).has_value())
      << "route/absorption edges alone must be acyclic under up*/down*";
}

// --- mutation class: absorption arithmetic ---------------------------

TEST(DeadlockMutation, AbsorptionBoundaryIsExact) {
  // buffer == worm length absorbs (clean); one flit less does not
  // (flagged). An off-by-one in the absorption comparison flips one of
  // these two verdicts.
  const System sys = MakeSystem(16, 7);
  DeadlockSpec spec;
  const int worm = MaxWormWireFlits(sys, SchemeKind::kTreeWorm, spec);
  ASSERT_EQ(worm, 134);

  spec.net.buffer_flits = worm;
  const SchemeDeadlockResult at = AnalyzeSchemeDeadlock(
      sys, SchemeKind::kTreeWorm, RoutingMode::kDeterministic, spec);
  EXPECT_TRUE(at.deadlock_free()) << at.witness;
  EXPECT_TRUE(at.cdg.absorbable);
  EXPECT_EQ(at.cdg.span, 1);

  spec.net.buffer_flits = worm - 1;
  const SchemeDeadlockResult under = AnalyzeSchemeDeadlock(
      sys, SchemeKind::kTreeWorm, RoutingMode::kDeterministic, spec);
  EXPECT_FALSE(under.deadlock_free());
  EXPECT_FALSE(under.cdg.absorbable);
  EXPECT_EQ(under.cdg.span, 2);
  EXPECT_NE(under.witness.find("absorption violation"), std::string::npos);
}

TEST(DeadlockMutation, SpanCountsBuffersTheBlockedWormOccupies) {
  const System sys = MakeSystem(16, 7);
  DeadlockSpec spec;
  spec.net.buffer_flits = 32;  // 134-flit worm -> ceil(134/32) = 5 buffers
  const ExtCdg cdg =
      BuildExtendedCdg(sys, SchemeKind::kTreeWorm, RoutingMode::kDeterministic,
                       spec, ViewOf(sys.routing), ViewOfTreeRoutes(sys));
  EXPECT_EQ(cdg.span, 5);
  EXPECT_GT(cdg.absorption_edges, 0);
}

// --- mutation class: suppressed witness ------------------------------

TEST(DeadlockMutation, EveryFlaggedComboCarriesAConsistentWitness) {
  // A finding without a usable witness is as bad as a miss: every
  // flagged combo must name a cycle whose consecutive pairs are real
  // edges of the graph it was found in, and render the buffer budget.
  DeadlockSpec spec;
  spec.net.buffer_flits = 128;
  const System sys = MakeSystem(16, 7);
  int flagged = 0;
  for (SchemeKind scheme : {SchemeKind::kTreeWorm, SchemeKind::kPathWorm}) {
    for (RoutingMode mode :
         {RoutingMode::kDeterministic, RoutingMode::kAdaptive}) {
      const SchemeDeadlockResult res =
          AnalyzeSchemeDeadlock(sys, scheme, mode, spec);
      if (res.deadlock_free()) continue;
      ++flagged;
      ASSERT_TRUE(res.cycle.has_value());
      const DepCycle& cycle = *res.cycle;
      ASSERT_FALSE(cycle.channels.empty());
      ASSERT_EQ(cycle.channels.size(), cycle.kinds.size());
      for (std::size_t i = 0; i < cycle.channels.size(); ++i) {
        const int from = cycle.channels[i];
        const int to = cycle.channels[(i + 1) % cycle.channels.size()];
        EXPECT_TRUE(HasEdge(res.cdg, from, to, cycle.kinds[i]))
            << "witness edge " << from << " -> " << to
            << " is not in the graph (" << ToString(scheme) << ")";
      }
      EXPECT_FALSE(res.witness.empty());
      EXPECT_NE(res.witness.find("buffer_flits 128"), std::string::npos)
          << res.witness;
      EXPECT_NE(res.witness.find(ToString(scheme)), std::string::npos)
          << res.witness;
    }
  }
  EXPECT_GE(flagged, 2) << "tree worms must be flagged in both modes";
}

// --- mutation class: cycle-detection bugs ----------------------------

ExtCdg Synthetic(int channels, std::vector<DepEdge> edges) {
  ExtCdg cdg;
  for (int i = 0; i < channels; ++i)
    cdg.channels.push_back(ChannelRef{0, static_cast<PortId>(i), false});
  cdg.edges = std::move(edges);
  return cdg;
}

TEST(DeadlockMutation, DetectorFindsPlantedCycles) {
  // 0 -> 1 -> 2 -> 0 planted in an otherwise innocent graph.
  const ExtCdg planted = Synthetic(
      4, {{0, 1, DepKind::kRoute},
          {1, 2, DepKind::kRoute},
          {2, 0, DepKind::kAbsorption},
          {3, 0, DepKind::kRoute}});
  const auto cycle = FindDependencyCycle(planted);
  ASSERT_TRUE(cycle.has_value());
  EXPECT_EQ(cycle->channels.size(), 3u);
  for (std::size_t i = 0; i < cycle->channels.size(); ++i) {
    const int from = cycle->channels[i];
    const int to = cycle->channels[(i + 1) % cycle->channels.size()];
    EXPECT_TRUE(HasEdge(planted, from, to, cycle->kinds[i]));
  }

  const ExtCdg self = Synthetic(2, {{1, 1, DepKind::kRoute}});
  ASSERT_TRUE(FindDependencyCycle(self).has_value());
  EXPECT_EQ(FindDependencyCycle(self)->channels.size(), 1u);
}

TEST(DeadlockMutation, DetectorStaysSilentOnDags) {
  const ExtCdg diamond = Synthetic(
      4, {{0, 1, DepKind::kRoute},
          {0, 2, DepKind::kRoute},
          {1, 3, DepKind::kCoupling},
          {2, 3, DepKind::kAbsorption}});
  EXPECT_FALSE(FindDependencyCycle(diamond).has_value());
  EXPECT_FALSE(FindDependencyCycle(Synthetic(3, {})).has_value());
}

TEST(DeadlockMutation, CorruptedRoutingRingIsFlaggedAsRouteCycle) {
  // Triangle of switches with a corrupted routing view that always
  // forwards clockwise: the base route edges alone now form a cycle,
  // which must be found even with absorbing buffers (no coupling or
  // absorption edges in the graph at all).
  Graph g(3, 4);
  g.AddLink(0, 0, 1, 1);
  g.AddLink(1, 0, 2, 1);
  g.AddLink(2, 0, 0, 1);
  g.AttachHost(0, 2);
  g.AttachHost(1, 2);
  g.AttachHost(2, 2);
  const System sys{std::move(g)};

  RoutingView ring;
  ring.candidates = [](SwitchId here, SwitchId dest, RoutePhase) {
    if (here == dest) return std::vector<PortId>{};
    return std::vector<PortId>{0};  // clockwise, phase ignored: illegal
  };
  DeadlockSpec spec;  // defaults: absorbing buffers
  const ExtCdg cdg =
      BuildExtendedCdg(sys, SchemeKind::kUnicastBinomial,
                       RoutingMode::kDeterministic, spec, ring,
                       ViewOfTreeRoutes(sys));
  EXPECT_EQ(cdg.coupling_edges, 0);
  EXPECT_EQ(cdg.absorption_edges, 0);
  const auto cycle = FindDependencyCycle(cdg);
  ASSERT_TRUE(cycle.has_value());
  for (DepKind k : cycle->kinds) EXPECT_EQ(k, DepKind::kRoute);
  const std::string witness = RenderWitness(sys, cdg, *cycle);
  EXPECT_NE(witness.find("-[route]->"), std::string::npos) << witness;
  // The legal tables, by contrast, are clean.
  const ExtCdg legal =
      BuildExtendedCdg(sys, SchemeKind::kUnicastBinomial,
                       RoutingMode::kDeterministic, spec, ViewOf(sys.routing),
                       ViewOfTreeRoutes(sys));
  EXPECT_FALSE(FindDependencyCycle(legal).has_value());
}

// --- dynamic soundness cross-check -----------------------------------

struct StressOutcome {
  bool tripped = false;
  FlitDeadlockInfo info;
  int deliveries = 0;
  int expected = 0;
};

/// Every host fires one degree-8 tree worm (128 data flits) at cycle 0
/// through the flit engine with the given buffer size; the deadlock
/// handler captures the trip instead of aborting.
StressOutcome RunTreeWormStress(const System& sys, int buffer_flits) {
  StressOutcome out;
  Engine engine;
  NetParams params;
  params.adaptive = false;
  params.buffer_flits = buffer_flits;
  params.deadlock_horizon = 20'000;
  FlitEngine flit(engine, sys, params,
                  [&](NodeId, const Packet&, Cycles, Cycles) {
                    ++out.deliveries;
                  });
  flit.SetDeadlockHandler([&](const FlitDeadlockInfo& info) {
    out.tripped = true;
    out.info = info;
  });
  const int hosts = sys.num_nodes();
  for (NodeId src = 0; src < hosts; ++src) {
    std::vector<NodeId> dests;
    for (int k = 1; k <= 8; ++k) dests.push_back((src + k) % hosts);
    Packet pkt;
    pkt.mcast_id = src;
    pkt.src = src;
    pkt.kind = HeaderKind::kTreeWorm;
    pkt.tree_dests = NodeSet::FromVector(hosts, dests);
    pkt.data_flits = 128;
    pkt.header_flits = HeaderSizing{}.TreeWormFlits(hosts);
    flit.InjectFromNi(src, std::move(pkt), 0);
    out.expected += 8;
  }
  engine.RunToQuiescence();
  return out;
}

TEST(DeadlockSoundness, EveryDynamicTripHasAStaticFinding) {
  // Sweep buffer budgets across the absorption boundary on several
  // topologies. Soundness: any configuration the dynamic trip catches
  // must already be statically flagged. Non-vacuity: the historical
  // 128-flit configuration actually trips somewhere in the sweep.
  int dynamic_trips = 0;
  for (std::uint64_t seed : {7u, 19u}) {
    const System sys = MakeSystem(16, seed);
    for (int buffer : {128, 256}) {
      const StressOutcome out = RunTreeWormStress(sys, buffer);
      DeadlockSpec spec;
      spec.net.buffer_flits = buffer;
      const CheckResult statically = CheckMulticastDeadlock(sys, spec);
      if (out.tripped) {
        ++dynamic_trips;
        EXPECT_FALSE(statically.pass)
            << "dynamic trip at buffer_flits=" << buffer << " seed=" << seed
            << " has no static finding";
        EXPECT_FALSE(out.info.pending.empty());
        EXPECT_EQ(out.info.horizon, 20'000);
        // The trip names at least one switch channel a worm blocks on.
        bool named = false;
        for (const auto& p : out.info.pending)
          if (p.sw != kInvalidSwitch) named = true;
        EXPECT_TRUE(named);
      } else {
        EXPECT_EQ(out.deliveries, out.expected)
            << "no trip must mean full delivery (buffer_flits=" << buffer
            << " seed=" << seed << ")";
      }
      if (buffer == 256) {
        // The statically-certified control config must complete.
        EXPECT_TRUE(statically.pass);
        EXPECT_FALSE(out.tripped);
      }
    }
  }
  EXPECT_GT(dynamic_trips, 0)
      << "stress harness never wedged: the soundness check is vacuous";
}

TEST(DeadlockSoundness, HandlerFreezesTheEngineInsteadOfAborting) {
  // With a handler installed the wedge is observable state, not an
  // abort: the engine reports deadlock_tripped() and the run returns.
  const System sys = MakeSystem(16, 7);
  Engine engine;
  NetParams params;
  params.adaptive = false;
  params.buffer_flits = 128;
  params.deadlock_horizon = 20'000;
  FlitEngine flit(engine, sys, params,
                  [](NodeId, const Packet&, Cycles, Cycles) {});
  int fires = 0;
  flit.SetDeadlockHandler([&](const FlitDeadlockInfo&) { ++fires; });
  const int hosts = sys.num_nodes();
  for (NodeId src = 0; src < hosts; ++src) {
    std::vector<NodeId> dests;
    for (int k = 1; k <= 8; ++k) dests.push_back((src + k) % hosts);
    Packet pkt;
    pkt.mcast_id = src;
    pkt.src = src;
    pkt.kind = HeaderKind::kTreeWorm;
    pkt.tree_dests = NodeSet::FromVector(hosts, dests);
    pkt.data_flits = 128;
    pkt.header_flits = HeaderSizing{}.TreeWormFlits(hosts);
    flit.InjectFromNi(src, std::move(pkt), 0);
  }
  engine.RunToQuiescence();
  if (fires > 0) {
    EXPECT_EQ(fires, 1) << "the handler must fire exactly once";
    EXPECT_TRUE(flit.deadlock_tripped());
  }
}

}  // namespace
}  // namespace irmc::verify
