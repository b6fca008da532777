// Mutation-testing harness for the static invariant checker.
//
// A verifier is only trustworthy if it actually fails on broken state,
// so beyond "clean systems pass", each test here wraps a real System's
// tables in a view, seeds one targeted corruption class, and asserts the
// matching check flags it:
//
//   illegal down->up entry         -> phase-rule
//   unreachable pair               -> pairwise-reachability
//   cyclic routing ring            -> deadlock-freedom
//   raw string over/under-coverage -> reachability-strings
//   partition overlap / gap        -> reachability-strings
#include "verify/invariants.hpp"

#include <gtest/gtest.h>

#include <string>

#include "topology/fault.hpp"
#include "topology/generator.hpp"

namespace irmc::verify {
namespace {

bool AnyWitnessContains(const CheckResult& r, const std::string& needle) {
  for (const std::string& w : r.witnesses)
    if (w.find(needle) != std::string::npos) return true;
  return false;
}

class VerifyMutation : public ::testing::Test {
 protected:
  VerifyMutation() : sys_(MakeGraph()) {}

  static Graph MakeGraph() {
    TopologySpec spec;
    spec.num_switches = 16;
    spec.num_hosts = 32;
    return GenerateTopology(spec, 7);
  }

  System sys_;
};

// --- clean systems ---------------------------------------------------

TEST_F(VerifyMutation, CleanSystemPassesEveryCheck) {
  const VerifyReport report = VerifySystem(sys_, "clean");
  EXPECT_TRUE(report.pass()) << Render(report);
  EXPECT_EQ(report.checks.size(), 5u);
  EXPECT_EQ(report.violations(), 0);
  for (const char* name :
       {"graph-consistency", "phase-rule", "pairwise-reachability",
        "deadlock-freedom", "reachability-strings"}) {
    const CheckResult* check = report.Find(name);
    ASSERT_NE(check, nullptr) << name;
    EXPECT_TRUE(check->pass) << name;
    EXPECT_GT(check->checked, 0) << name;
  }
}

TEST(VerifySweep, SizesSeedsAndRootPoliciesStayClean) {
  for (int switches : {8, 16, 32}) {
    for (std::uint64_t seed : {11u, 22u, 33u}) {
      TopologySpec spec;
      spec.num_switches = switches;
      spec.num_hosts = 32;
      const System sys(GenerateTopology(spec, seed));
      const VerifyReport report = VerifySystem(sys);
      EXPECT_TRUE(report.pass()) << "S=" << switches << " seed=" << seed
                                 << "\n" << Render(report);
    }
  }
}

TEST(VerifyFault, EverySurvivableSingleFaultRebuildStaysLegal) {
  // Post-fault re-verification: for every non-bridge link, the System
  // rebuilt on the degraded graph must still satisfy every invariant.
  TopologySpec spec;
  spec.num_switches = 8;
  spec.num_hosts = 32;
  const Graph g = GenerateTopology(spec, 5);
  int rebuilt = 0;
  for (const LinkRef& link : AllLinks(g)) {
    auto degraded = WithoutLink(g, link.sw, link.port);
    if (!degraded) continue;  // bridge: unsurvivable, nothing to verify
    const System sys(std::move(*degraded));
    const VerifyReport report = VerifySystem(sys);
    EXPECT_TRUE(report.pass())
        << "fault at " << link.sw << ":" << link.port << "\n"
        << Render(report);
    ++rebuilt;
  }
  EXPECT_GT(rebuilt, 0);
}

// --- mutation class: illegal down->up routing entry ------------------

TEST_F(VerifyMutation, IllegalDownToUpEntryIsFlagged) {
  // Find a switch with an up port that also offers down-phase candidates
  // toward some destination, then smuggle the up port into that
  // down-only entry.
  SwitchId mut_here = kInvalidSwitch;
  SwitchId mut_dest = kInvalidSwitch;
  PortId up_port = kInvalidPort;
  for (SwitchId s = 0; s < sys_.graph.num_switches() && up_port < 0; ++s) {
    if (sys_.updown.UpPorts(s).empty()) continue;
    for (SwitchId d = 0; d < sys_.graph.num_switches(); ++d) {
      if (d == s) continue;
      if (!sys_.routing.Candidates(s, d, RoutePhase::kDownOnly).empty()) {
        mut_here = s;
        mut_dest = d;
        up_port = sys_.updown.UpPorts(s).front();
        break;
      }
    }
  }
  ASSERT_NE(up_port, kInvalidPort) << "topology lacks a mutation site";

  const RoutingView base = ViewOf(sys_.routing);
  RoutingView mutated;
  mutated.candidates = [&base, mut_here, mut_dest, up_port](
                           SwitchId here, SwitchId dest, RoutePhase phase) {
    std::vector<PortId> cands = base.candidates(here, dest, phase);
    if (here == mut_here && dest == mut_dest &&
        phase == RoutePhase::kDownOnly)
      cands.push_back(up_port);
    return cands;
  };

  const CheckResult clean =
      CheckPhaseRule(sys_.graph, sys_.updown, base);
  EXPECT_TRUE(clean.pass);
  const CheckResult r = CheckPhaseRule(sys_.graph, sys_.updown, mutated);
  EXPECT_FALSE(r.pass);
  EXPECT_EQ(r.violations, 1);
  EXPECT_TRUE(AnyWitnessContains(r, "illegal down->up entry")) << Render(
      VerifyReport{"mutated", {r}});
}

// --- mutation class: unreachable pair --------------------------------

TEST_F(VerifyMutation, UnreachablePairIsFlagged) {
  // Erase every candidate of one (source switch, dest switch) entry: the
  // deterministic walk from that switch strands immediately and no
  // adaptive route can leave it either.
  SwitchId mut_src = kInvalidSwitch;
  SwitchId mut_dest = kInvalidSwitch;
  for (SwitchId s = 0; s < sys_.graph.num_switches(); ++s) {
    if (sys_.graph.HostsAt(s).empty()) continue;
    for (SwitchId d = 0; d < sys_.graph.num_switches(); ++d) {
      if (d == s || sys_.graph.HostsAt(d).empty()) continue;
      mut_src = s;
      mut_dest = d;
      break;
    }
    if (mut_src != kInvalidSwitch) break;
  }
  ASSERT_NE(mut_src, kInvalidSwitch);

  const RoutingView base = ViewOf(sys_.routing);
  RoutingView mutated;
  mutated.candidates = [&base, mut_src, mut_dest](
                           SwitchId here, SwitchId dest, RoutePhase phase) {
    if (here == mut_src && dest == mut_dest) return std::vector<PortId>{};
    return base.candidates(here, dest, phase);
  };

  const CheckResult r =
      CheckPairwiseReachability(sys_.graph, sys_.updown, mutated);
  EXPECT_FALSE(r.pass);
  EXPECT_TRUE(AnyWitnessContains(r, "no deterministic route"));
  EXPECT_TRUE(AnyWitnessContains(r, "dead end") ||
              AnyWitnessContains(r, "no adaptive route"));
}

// --- mutation class: cyclic channel dependency -----------------------

TEST(VerifyDeadlockMutation, ClockwiseRoutingRingIsFlaggedAsRouteCycle) {
  // Triangle of switches whose mutated routing view always forwards
  // clockwise, ignoring the phase: the unicast dependencies close a
  // cycle that the legal up*/down* tables break at the root.
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
    return std::vector<PortId>{0};
  };

  const CheckResult clean = CheckDeadlockFreedom(sys, ViewOf(sys.routing));
  EXPECT_TRUE(clean.pass) << Render(VerifyReport{"clean", {clean}});
  const CheckResult r = CheckDeadlockFreedom(sys, ring);
  EXPECT_FALSE(r.pass);
  EXPECT_EQ(r.violations, 1);
  EXPECT_TRUE(AnyWitnessContains(r, "-[route]->"))
      << Render(VerifyReport{"mutated", {r}});
}

// --- mutation classes: reachability strings --------------------------

TEST_F(VerifyMutation, RawStringOverCoverageIsFlagged) {
  // Claim a node that is NOT down-reachable through the port.
  SwitchId mut_sw = kInvalidSwitch;
  PortId mut_port = kInvalidPort;
  NodeId phantom = kInvalidNode;
  for (SwitchId s = 0; s < sys_.graph.num_switches() && phantom < 0; ++s) {
    for (PortId p : sys_.updown.DownPorts(s)) {
      const NodeSetView raw = sys_.reach.Raw(s, p);
      for (NodeId n = 0; n < sys_.graph.num_hosts(); ++n) {
        if (!raw.Test(n)) {
          mut_sw = s;
          mut_port = p;
          phantom = n;
          break;
        }
      }
      if (phantom >= 0) break;
    }
  }
  ASSERT_NE(phantom, kInvalidNode) << "every raw string is full";

  const ReachabilityView base = ViewOf(sys_.reach);
  ReachabilityView mutated = base;
  mutated.raw = [&base, mut_sw, mut_port, phantom](SwitchId s, PortId p) {
    NodeSet set = base.raw(s, p);
    if (s == mut_sw && p == mut_port) set.Set(phantom);
    return set;
  };

  const CheckResult r =
      CheckReachabilityStrings(sys_.graph, sys_.updown, mutated);
  EXPECT_FALSE(r.pass);
  EXPECT_TRUE(AnyWitnessContains(r, "over-coverage"));
}

TEST_F(VerifyMutation, RawStringUnderCoverageIsFlagged) {
  // Drop a genuinely down-reachable node from a raw string.
  SwitchId mut_sw = kInvalidSwitch;
  PortId mut_port = kInvalidPort;
  NodeId dropped = kInvalidNode;
  for (SwitchId s = 0; s < sys_.graph.num_switches() && dropped < 0; ++s) {
    for (PortId p : sys_.updown.DownPorts(s)) {
      const NodeSetView raw = sys_.reach.Raw(s, p);
      if (raw.Empty()) continue;
      mut_sw = s;
      mut_port = p;
      dropped = raw.ToVector().front();
      break;
    }
  }
  ASSERT_NE(dropped, kInvalidNode);

  const ReachabilityView base = ViewOf(sys_.reach);
  ReachabilityView mutated = base;
  mutated.raw = [&base, mut_sw, mut_port, dropped](SwitchId s, PortId p) {
    NodeSet set = base.raw(s, p);
    if (s == mut_sw && p == mut_port) set.Clear(dropped);
    return set;
  };

  const CheckResult r =
      CheckReachabilityStrings(sys_.graph, sys_.updown, mutated);
  EXPECT_FALSE(r.pass);
  EXPECT_TRUE(AnyWitnessContains(r, "under-coverage"));
}

TEST_F(VerifyMutation, PartitionOverlapIsFlagged) {
  // Give a node a second owner: copy it from one primary string into a
  // later down port's primary string at the same switch.
  SwitchId mut_sw = kInvalidSwitch;
  PortId second_owner = kInvalidPort;
  NodeId node = kInvalidNode;
  for (SwitchId s = 0; s < sys_.graph.num_switches() && node < 0; ++s) {
    const auto& downs = sys_.updown.DownPorts(s);
    for (std::size_t i = 0; i + 1 < downs.size(); ++i) {
      const NodeSetView primary = sys_.reach.Primary(s, downs[i]);
      if (primary.Empty()) continue;
      mut_sw = s;
      second_owner = downs[i + 1];
      node = primary.ToVector().front();
      break;
    }
  }
  ASSERT_NE(node, kInvalidNode)
      << "no switch with two down ports and a non-empty primary string";

  const ReachabilityView base = ViewOf(sys_.reach);
  ReachabilityView mutated = base;
  mutated.primary = [&base, mut_sw, second_owner, node](SwitchId s,
                                                        PortId p) {
    NodeSet set = base.primary(s, p);
    if (s == mut_sw && p == second_owner) set.Set(node);
    return set;
  };

  const CheckResult r =
      CheckReachabilityStrings(sys_.graph, sys_.updown, mutated);
  EXPECT_FALSE(r.pass);
  EXPECT_TRUE(AnyWitnessContains(r, "partition overlap"));
}

TEST_F(VerifyMutation, PartitionGapIsFlagged) {
  // Orphan a node: remove it from the primary string that owns it.
  SwitchId mut_sw = kInvalidSwitch;
  PortId owner = kInvalidPort;
  NodeId node = kInvalidNode;
  for (SwitchId s = 0; s < sys_.graph.num_switches() && node < 0; ++s) {
    for (PortId p : sys_.updown.DownPorts(s)) {
      const NodeSetView primary = sys_.reach.Primary(s, p);
      if (primary.Empty()) continue;
      mut_sw = s;
      owner = p;
      node = primary.ToVector().front();
      break;
    }
  }
  ASSERT_NE(node, kInvalidNode);

  const ReachabilityView base = ViewOf(sys_.reach);
  ReachabilityView mutated = base;
  mutated.primary = [&base, mut_sw, owner, node](SwitchId s, PortId p) {
    NodeSet set = base.primary(s, p);
    if (s == mut_sw && p == owner) set.Clear(node);
    return set;
  };

  const CheckResult r =
      CheckReachabilityStrings(sys_.graph, sys_.updown, mutated);
  EXPECT_FALSE(r.pass);
  EXPECT_TRUE(AnyWitnessContains(r, "partition gap"));
}

// --- report plumbing -------------------------------------------------

TEST(VerifyReportTest, WitnessListIsCappedButViolationsKeepCounting) {
  CheckResult r;
  r.name = "synthetic";
  for (int i = 0; i < 20; ++i)
    r.AddViolation("violation " + std::to_string(i));
  EXPECT_FALSE(r.pass);
  EXPECT_EQ(r.violations, 20);
  EXPECT_EQ(r.witnesses.size(),
            static_cast<std::size_t>(CheckResult::kMaxWitnesses));

  VerifyReport report;
  report.label = "synthetic";
  report.checks.push_back(r);
  EXPECT_FALSE(report.pass());
  EXPECT_EQ(report.violations(), 20);
  const std::string rendered = Render(report);
  EXPECT_NE(rendered.find("FAIL"), std::string::npos);
  EXPECT_NE(rendered.find("violation 0"), std::string::npos);
  EXPECT_NE(rendered.find("and 12 more"), std::string::npos);
}

TEST(VerifyReportTest, RenderOfPassingReportIsOneLinePerCheck) {
  TopologySpec spec;
  spec.num_switches = 8;
  const System sys(GenerateTopology(spec, 3));
  const VerifyReport report = VerifySystem(sys, "render-test");
  const std::string rendered = Render(report);
  EXPECT_NE(rendered.find("verify render-test: PASS"), std::string::npos);
  EXPECT_EQ(rendered.find("FAIL"), std::string::npos);
}

}  // namespace
}  // namespace irmc::verify
