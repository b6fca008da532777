// Runtime resilience subsystem (docs/resilience.md): schedule
// generation/validation, chaos sweeps with mid-run faults across all
// four schemes and both engines (exactly-once eventual delivery), the
// zero-fault pristine contract, and the thread-count determinism
// contract for resilience metrics and traces. The ResilienceChaos and
// ResilienceDeterminism suites back the chaos_smoke ctest.
#include "resilience/fault_schedule.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/parallel.hpp"
#include "core/single_runner.hpp"
#include "mcast/scheme.hpp"
#include "metrics/export.hpp"
#include "topology/system.hpp"
#include "trace/export.hpp"

namespace irmc {
namespace {

/// Restores the environment/default thread resolution on scope exit.
struct ThreadsGuard {
  ~ThreadsGuard() { SetParallelThreads(0); }
};

// --- schedule generation and validation ---

TEST(FaultSchedule, ParseFormatRoundTrip) {
  std::vector<TimedFault> s;
  ASSERT_TRUE(ParseFaultSchedule("100:2:3", &s));
  ASSERT_EQ(s.size(), 1u);
  EXPECT_EQ(s[0].at, 100);
  EXPECT_EQ(s[0].sw, 2);
  EXPECT_EQ(s[0].port, 3);
  // Multi-fault input comes back time-sorted.
  ASSERT_TRUE(ParseFaultSchedule("50:1:0,30:0:1", &s));
  ASSERT_EQ(s.size(), 2u);
  EXPECT_EQ(s[0].at, 30);
  EXPECT_EQ(s[1].at, 50);
  EXPECT_EQ(FormatFaultSchedule(s), "30:0:1,50:1:0");
  std::vector<TimedFault> again;
  ASSERT_TRUE(ParseFaultSchedule(FormatFaultSchedule(s), &again));
  EXPECT_EQ(again.size(), s.size());
}

TEST(FaultSchedule, ParseRejectsMalformedInput) {
  std::vector<TimedFault> out{{7, 7, 7}};  // must stay untouched
  for (const char* bad :
       {"", "abc", "1:2", "1:2:3:4", "-1:0:0", "1:-2:0", "1:0:-3", "1:2:3,",
        ",1:2:3", "1:2:x",
        // Fields that do not fit their type must not wrap (the switch
        // here would read as 1, the port as 2).
        "100:4294967297:2", "100:1:4294967298", "100:2147483648:0",
        "99999999999999999999:0:0"}) {
    EXPECT_FALSE(ParseFaultSchedule(bad, &out)) << "input: " << bad;
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].at, 7);
  }
}

TEST(FaultSchedule, SurvivabilityOracle) {
  Graph ring(4, 4);
  ring.AddLink(0, 0, 1, 0);
  ring.AddLink(1, 1, 2, 0);
  ring.AddLink(2, 1, 3, 0);
  ring.AddLink(3, 1, 0, 1);
  // Any one ring link is survivable; any two are not (the remainder is
  // a line, so the second fault removes a bridge).
  EXPECT_TRUE(ScheduleIsSurvivable(ring, {{10, 0, 0}}));
  EXPECT_FALSE(ScheduleIsSurvivable(ring, {{10, 0, 0}, {20, 2, 1}}));
  // Dead/host/free ports are never valid faults.
  EXPECT_FALSE(ScheduleIsSurvivable(ring, {{10, 0, 3}}));
  EXPECT_FALSE(ScheduleIsSurvivable(ring, {{10, 9, 0}}));
  // Faulting the same link twice: the second hit finds a dead port.
  EXPECT_FALSE(ScheduleIsSurvivable(ring, {{10, 0, 0}, {20, 0, 0}}));

  const auto graphs = SurvivingGraphs(ring, {{10, 0, 0}});
  ASSERT_EQ(graphs.size(), 1u);
  EXPECT_EQ(graphs[0].NumLinks(), ring.NumLinks() - 1);
}

TEST(FaultSchedule, GeneratedSchedulesAreSurvivableAndDeterministic) {
  TopologySpec spec;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const Graph g = GenerateTopology(spec, seed);
    const auto s = MakeSurvivableSchedule(g, seed, 3, 100, 5'000);
    EXPECT_TRUE(ScheduleIsSurvivable(g, s)) << "seed " << seed;
    for (std::size_t i = 0; i < s.size(); ++i) {
      EXPECT_GE(s[i].at, 100);
      EXPECT_LE(s[i].at, 5'000);
      if (i > 0) {
        EXPECT_GE(s[i].at, s[i - 1].at);
      }
    }
    // Deterministic in (g, seed); a different seed draws differently.
    const auto s2 = MakeSurvivableSchedule(g, seed, 3, 100, 5'000);
    EXPECT_EQ(FormatFaultSchedule(s), FormatFaultSchedule(s2));

    const auto m = ScheduleFromMtbf(g, 2'000.0, 4, seed);
    EXPECT_LE(m.size(), 4u);
    EXPECT_TRUE(ScheduleIsSurvivable(g, m)) << "mtbf seed " << seed;
    const auto m2 = ScheduleFromMtbf(g, 2'000.0, 4, seed);
    EXPECT_EQ(FormatFaultSchedule(m), FormatFaultSchedule(m2));
  }
}

TEST(FaultSchedule, RunsOutOfRedundancyGracefully) {
  // A ring has exactly one spare link; asking for five faults must stop
  // after the survivable prefix instead of producing a bridge removal.
  Graph ring(4, 4);
  ring.AddLink(0, 0, 1, 0);
  ring.AddLink(1, 1, 2, 0);
  ring.AddLink(2, 1, 3, 0);
  ring.AddLink(3, 1, 0, 1);
  const auto s = MakeSurvivableSchedule(ring, 42, 5, 0, 1'000);
  EXPECT_EQ(s.size(), 1u);
  EXPECT_TRUE(ScheduleIsSurvivable(ring, s));
}

// --- chaos sweep: mid-run faults, all schemes, both engines ---

std::vector<NodeId> EveryThirdHost(const System& sys) {
  std::vector<NodeId> dests;
  for (NodeId n = 1; n < sys.num_nodes(); n += 3) dests.push_back(n);
  return dests;
}

void ExpectExactlyOnce(const MulticastResult& r,
                       const std::vector<NodeId>& dests,
                       const std::string& label) {
  ASSERT_EQ(r.deliveries.size(), dests.size()) << label;
  for (NodeId d : dests) {
    int hits = 0;
    for (const auto& [n, when] : r.deliveries)
      if (n == d) ++hits;
    EXPECT_EQ(hits, 1) << label << " dest " << d;
  }
}

TEST(ResilienceChaos, ExactlyOnceUnderRandomFaultsAllSchemesBothEngines) {
  const SchemeKind schemes[] = {SchemeKind::kUnicastBinomial,
                                SchemeKind::kNiKBinomial,
                                SchemeKind::kTreeWorm, SchemeKind::kPathWorm};
  std::int64_t total_faults = 0, total_drops = 0, total_retransmits = 0;
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    TopologySpec spec;
    const auto sys = System::Build(spec, seed);
    const auto dests = EveryThirdHost(*sys);
    for (EngineKind engine : {EngineKind::kVct, EngineKind::kFlit}) {
      for (SchemeKind kind : schemes) {
        SimConfig cfg;
        cfg.engine = engine;
        cfg.seed = seed;
        cfg.message.num_packets = 2;
        cfg.message.packet_flits = 32;
        cfg.resilience.enabled = true;
        cfg.resilience.schedule =
            MakeSurvivableSchedule(sys->graph,
                                   seed * 31 + static_cast<std::uint64_t>(kind),
                                   2, 1'100, 3'500);
        const std::string label =
            "seed " + std::to_string(seed) + " " +
            std::string(ToIdent(kind)) +
            (engine == EngineKind::kVct ? " vct" : " flit");
        MetricsRegistry reg;
        const auto scheme = MakeScheme(kind, cfg.host);
        const auto r = PlayOnce(
            *sys, cfg,
            scheme->Plan(*sys, 0, dests, cfg.message, cfg.headers),
            nullptr, &reg);
        ExpectExactlyOnce(r, dests, label);
        total_faults += reg.GetCounter("resilience.faults").value;
        total_drops += reg.GetCounter("resilience.drops").value;
        total_retransmits += reg.GetCounter("resilience.retransmits").value;
      }
    }
  }
  // Individual runs may complete before (or route around) their faults,
  // but across 400 runs the sweep must actually have exercised the
  // drop -> retransmit -> redeliver path.
  EXPECT_GT(total_faults, 0);
  EXPECT_GT(total_drops, 0);
  EXPECT_GT(total_retransmits, 0);
}

TEST(ResilienceChaos, ReconfiguredSystemsPassVerification) {
  // verify_reconfig re-runs the full six-check VerifySystem on every
  // swapped-in System; a failure aborts inside the manager, so reaching
  // the delivery assertions proves the rebuilt state verified clean.
  for (std::uint64_t seed = 3; seed <= 23; seed += 5) {
    TopologySpec spec;
    const auto sys = System::Build(spec, seed);
    const auto dests = EveryThirdHost(*sys);
    SimConfig cfg;
    cfg.seed = seed;
    cfg.resilience.enabled = true;
    cfg.resilience.verify_reconfig = true;
    cfg.resilience.schedule =
        MakeSurvivableSchedule(sys->graph, seed, 2, 1'100, 3'000);
    ASSERT_FALSE(cfg.resilience.schedule.empty()) << "seed " << seed;
    MetricsRegistry reg;
    const auto scheme = MakeScheme(SchemeKind::kTreeWorm, cfg.host);
    const auto r = PlayOnce(
        *sys, cfg, scheme->Plan(*sys, 0, dests, cfg.message, cfg.headers),
        nullptr, &reg);
    ExpectExactlyOnce(r, dests, "seed " + std::to_string(seed));
    EXPECT_EQ(reg.GetCounter("resilience.faults").value,
              static_cast<std::int64_t>(cfg.resilience.schedule.size()));
    EXPECT_GE(reg.GetCounter("resilience.reconfigs").value, 1);
    EXPECT_GT(reg.GetCounter("resilience.reconfig_cycles").value, 0);
  }
}

TEST(ResilienceChaos, FaultAndDropEventsAreTraced) {
  TopologySpec spec;
  const auto sys = System::Build(spec, 7);
  const auto dests = EveryThirdHost(*sys);
  SimConfig cfg;
  cfg.resilience.enabled = true;
  cfg.resilience.schedule =
      MakeSurvivableSchedule(sys->graph, 7, 2, 1'100, 3'000);
  ASSERT_FALSE(cfg.resilience.schedule.empty());
  Tracer tracer;
  const auto scheme = MakeScheme(SchemeKind::kTreeWorm, cfg.host);
  PlayOnce(*sys, cfg, scheme->Plan(*sys, 0, dests, cfg.message, cfg.headers),
           &tracer);
  int faults = 0;
  for (const TraceEvent& e : tracer.Events()) {
    if (e.kind == TraceKind::kFault) {
      ++faults;
      // actor = switch, detail = port of the failed link.
      EXPECT_EQ(e.actor, cfg.resilience.schedule[faults - 1].sw);
      EXPECT_EQ(e.detail, cfg.resilience.schedule[faults - 1].port);
    }
  }
  EXPECT_EQ(faults, static_cast<int>(cfg.resilience.schedule.size()));
}

TEST(ResilienceChaos, StalePathWormAfterSwapIsDroppedNotFatal) {
  // The trial body of `irmcsim_cli single --scheme path-worm
  // --topologies 1 --samples 4 --mtbf 500 --seed 3`: a reconfiguration
  // turns a descending path worm's next precomputed hop into an up move.
  // The engine must drop the stale worm and the retransmit layer repair
  // it, on either engine.
  for (EngineKind engine : {EngineKind::kVct, EngineKind::kFlit}) {
    SimConfig cfg;
    cfg.engine = engine;
    cfg.seed = 3;
    cfg.resilience.enabled = true;
    cfg.resilience.mtbf = 500.0;
    const auto sys = System::Build(cfg.topology, cfg.seed);
    const auto scheme = MakeScheme(SchemeKind::kPathWorm, cfg.host);
    Rng rng(cfg.seed * 7919);
    std::int64_t drops = 0;
    for (int sample = 0; sample < 4; ++sample) {
      const auto draw = rng.SampleWithoutReplacement(sys->num_nodes(), 16);
      const NodeId src = static_cast<NodeId>(draw.front());
      std::vector<NodeId> dests;
      for (std::size_t i = 1; i < draw.size(); ++i)
        dests.push_back(static_cast<NodeId>(draw[i]));
      MetricsRegistry reg;
      const auto r = PlayOnce(
          *sys, cfg, scheme->Plan(*sys, src, dests, cfg.message, cfg.headers),
          nullptr, &reg);
      ExpectExactlyOnce(r, dests,
                        std::string(ToString(engine)) + " sample " +
                            std::to_string(sample));
      drops += reg.GetCounter("resilience.drops").value;
    }
    EXPECT_GT(drops, 0) << ToString(engine);
  }
}

// --- the pristine contract: zero faults change nothing ---

TEST(ResilienceChaos, ZeroFaultScheduleReproducesPristineResults) {
  for (EngineKind engine : {EngineKind::kVct, EngineKind::kFlit}) {
    TopologySpec spec;
    const auto sys = System::Build(spec, 11);
    const auto dests = EveryThirdHost(*sys);
    for (SchemeKind kind :
         {SchemeKind::kUnicastBinomial, SchemeKind::kNiKBinomial,
          SchemeKind::kTreeWorm, SchemeKind::kPathWorm}) {
      SimConfig cfg;
      cfg.engine = engine;
      const auto scheme = MakeScheme(kind, cfg.host);
      const auto pristine = PlayOnce(
          *sys, cfg, scheme->Plan(*sys, 0, dests, cfg.message, cfg.headers));
      SimConfig with = cfg;
      with.resilience.enabled = true;  // empty schedule, mtbf 0
      const auto guarded = PlayOnce(
          *sys, with, scheme->Plan(*sys, 0, dests, cfg.message, cfg.headers));
      // The reliable-delivery layer only adds out-of-band acks after
      // delivery; every delivery time — and hence the latency — must be
      // bit-identical to the unguarded run.
      EXPECT_EQ(guarded.Latency(), pristine.Latency())
          << ToIdent(kind) << (engine == EngineKind::kVct ? " vct" : " flit");
      ASSERT_EQ(guarded.deliveries.size(), pristine.deliveries.size());
      for (std::size_t i = 0; i < pristine.deliveries.size(); ++i) {
        EXPECT_EQ(guarded.deliveries[i].first, pristine.deliveries[i].first);
        EXPECT_EQ(guarded.deliveries[i].second, pristine.deliveries[i].second);
      }
    }
  }
}

// --- determinism contract: byte-identical exports for any IRMC_THREADS ---

TEST(ResilienceDeterminism, ExportsAreThreadCountInvariant) {
  ThreadsGuard guard;
  const auto run = [](std::string* metrics_json, std::string* trace_jsonl) {
    Tracer tracer;
    SingleRunSpec spec;
    spec.scheme = SchemeKind::kTreeWorm;
    spec.multicast_size = 6;
    spec.topologies = 6;
    spec.samples_per_topology = 2;
    spec.tracer = &tracer;
    spec.cfg.resilience.enabled = true;
    spec.cfg.resilience.mtbf = 1'500.0;
    const SingleRunResult r = RunSingleMulticast(spec);
    *metrics_json = ToJson(r.metrics);
    *trace_jsonl = ToJsonLines(tracer);
    return r;
  };
  std::string m1, t1, m2, t2, m8, t8;
  SetParallelThreads(1);
  auto r1 = run(&m1, &t1);
  SetParallelThreads(2);
  run(&m2, &t2);
  SetParallelThreads(8);
  run(&m8, &t8);
  EXPECT_EQ(m2, m1);
  EXPECT_EQ(m8, m1);
  EXPECT_EQ(t2, t1);
  EXPECT_EQ(t8, t1);
  // The sweep must actually contain resilience activity, or the
  // invariance above is vacuous.
  EXPECT_GT(r1.metrics.GetCounter("resilience.faults").value, 0);
  EXPECT_NE(t1.find("\"kind\":\"fault\""), std::string::npos);
}

// --- unsurvivable schedules abort before the run starts ---

TEST(ResilienceDeathTest, BridgeFaultScheduleAborts) {
  Graph line(2, 4);
  line.AddLink(0, 0, 1, 0);
  line.AttachHost(0, 1);
  line.AttachHost(1, 1);
  const System sys{std::move(line)};
  SimConfig cfg;
  cfg.resilience.enabled = true;
  cfg.resilience.schedule = {{10, 0, 0}};  // the only link: a bridge
  const auto scheme = MakeScheme(SchemeKind::kUnicastBinomial, cfg.host);
  EXPECT_DEATH(
      PlayOnce(sys, cfg,
               scheme->Plan(sys, 0, {1}, cfg.message, cfg.headers)),
      "unsurvivable");
}

}  // namespace
}  // namespace irmc
