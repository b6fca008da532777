// Cross-engine agreement and flit-engine determinism (the
// engine_xcheck_smoke ctest).
//
// The VCT and flit-level engines are the same physics at two
// granularities, so with deterministic routing and buffers of at least
// one packet a lone multicast must finish at the *same cycle* on both —
// per destination, for every scheme, over many random topologies. This
// is the strongest cheap statement that the NetworkModel refactor
// didn't fork the timing model (see docs/engines.md).
//
// Both engines also hold one network contract: the network is lossless,
// so a packet that cannot be routed aborts the run on either engine.
//
// The second half holds the flit engine to the same determinism
// contract as the VCT engine: traced and metered sweeps serialise to
// byte-identical exports for any IRMC_THREADS.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "core/load_runner.hpp"
#include "core/parallel.hpp"
#include "core/single_runner.hpp"
#include "mcast/scheme.hpp"
#include "metrics/export.hpp"
#include "network/network_model.hpp"
#include "sim/engine.hpp"
#include "topology/system.hpp"
#include "trace/export.hpp"

namespace irmc {
namespace {

/// Restores the environment/default thread resolution on scope exit.
struct ThreadsGuard {
  ~ThreadsGuard() { SetParallelThreads(0); }
};

/// (link_delay, route_delay, xbar_delay): unit delays, and distinct
/// non-unit ones, which the flit engine's streaming closed forms and
/// its arbitration timing both depend on.
struct Delays {
  Cycles link, route, xbar;
};
constexpr Delays kUnitDelays{1, 1, 1};
constexpr Delays kSlowDelays{2, 3, 4};

std::string DelaysName(const Delays& d) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "L%lldR%lldX%lld",
                static_cast<long long>(d.link), static_cast<long long>(d.route),
                static_cast<long long>(d.xbar));
  return buf;
}

SimConfig XCheckConfig(EngineKind engine, const Delays& delays) {
  SimConfig cfg;
  cfg.engine = engine;
  cfg.net.link_delay = delays.link;
  cfg.net.route_delay = delays.route;
  cfg.net.xbar_delay = delays.xbar;
  // Deterministic routing: under adaptivity the engines consult
  // different congestion proxies (queued packets vs. buffered flits),
  // so port choices — and thus latencies — may legitimately diverge.
  cfg.net.adaptive = false;
  // At least one whole packet per input buffer: the worm is always
  // absorbed, so wormhole stretching (which VCT cannot express) never
  // occurs and the engines are cycle-equivalent.
  cfg.net.buffer_flits = 256;
  return cfg;
}

class EngineXCheck
    : public ::testing::TestWithParam<std::tuple<SchemeKind, Delays>> {};

TEST_P(EngineXCheck, ZeroLoadLatencyAgreesOverManyTopologies) {
  const SchemeKind kind = std::get<0>(GetParam());
  const Delays delays = std::get<1>(GetParam());
  const SimConfig vct_cfg = XCheckConfig(EngineKind::kVct, delays);
  const SimConfig flit_cfg = XCheckConfig(EngineKind::kFlit, delays);
  const auto scheme = MakeScheme(kind, vct_cfg.host);
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    const auto sys = System::Build({}, seed);
    Rng rng(seed * 31 + static_cast<std::uint64_t>(kind));
    auto draw = rng.SampleWithoutReplacement(sys->num_nodes(), 9);
    const NodeId src = static_cast<NodeId>(draw.front());
    std::vector<NodeId> dests;
    for (std::size_t i = 1; i < draw.size(); ++i)
      dests.push_back(static_cast<NodeId>(draw[i]));

    const MulticastResult vct =
        PlayOnce(*sys, vct_cfg,
                 scheme->Plan(*sys, src, dests, vct_cfg.message,
                              vct_cfg.headers));
    const MulticastResult flit =
        PlayOnce(*sys, flit_cfg,
                 scheme->Plan(*sys, src, dests, flit_cfg.message,
                              flit_cfg.headers));

    ASSERT_EQ(vct.completion, flit.completion) << "seed " << seed;
    ASSERT_EQ(vct.num_dests, flit.num_dests) << "seed " << seed;
    // Same per-destination delivery times, not just the same makespan.
    // Deliveries landing on the same cycle may be reported in either
    // order, so compare as sorted sets.
    auto sorted = [](std::vector<std::pair<NodeId, Cycles>> v) {
      std::sort(v.begin(), v.end());
      return v;
    };
    ASSERT_EQ(sorted(vct.deliveries), sorted(flit.deliveries))
        << "seed " << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Schemes, EngineXCheck,
    ::testing::Combine(
        ::testing::Values(SchemeKind::kUnicastBinomial,
                          SchemeKind::kNiKBinomial, SchemeKind::kTreeWorm,
                          SchemeKind::kPathWorm),
        ::testing::Values(kUnitDelays, kSlowDelays)),
    [](const auto& info) {
      return std::string(ToIdent(std::get<0>(info.param))) + "_" +
             DelaysName(std::get<1>(info.param));
    });

// Loaded-run agreement at default buffers. Regression for a real
// deadlock: buffer_flits used to default to the 128-flit data payload,
// one worm *including header flits* (134 for a degree-8 tree worm) did
// not fit, absorption failed, and sustained multidestination load
// wedged the flit engine (every multicast unfinished, link utilization
// near zero). The default must absorb whole worms, and then the two
// engines agree on full load statistics, not just lone multicasts.
class EngineXCheckLoaded : public ::testing::TestWithParam<Delays> {};

TEST_P(EngineXCheckLoaded, OpenLoopSweepPointAgreesAtDefaultBuffers) {
  const Delays delays = GetParam();
  auto run = [&delays](EngineKind engine) {
    LoadRunSpec spec;
    spec.cfg.engine = engine;
    spec.cfg.net.link_delay = delays.link;
    spec.cfg.net.route_delay = delays.route;
    spec.cfg.net.xbar_delay = delays.xbar;
    spec.scheme = SchemeKind::kTreeWorm;
    spec.degree = 8;
    spec.effective_load = 0.3;
    spec.warmup = 2000;
    spec.horizon = 15000;
    spec.topologies = 1;
    return RunLoadSweepPoint(spec);
  };
  const LoadRunResult vct = run(EngineKind::kVct);
  const LoadRunResult flit = run(EngineKind::kFlit);
  ASSERT_GT(vct.completed, 0);
  EXPECT_FALSE(flit.saturated);
  EXPECT_EQ(flit.completed, vct.completed);
  EXPECT_EQ(flit.unfinished, vct.unfinished);
  EXPECT_DOUBLE_EQ(flit.mean_latency, vct.mean_latency);
}

INSTANTIATE_TEST_SUITE_P(Delays, EngineXCheckLoaded,
                         ::testing::Values(kUnitDelays, kSlowDelays),
                         [](const auto& info) {
                           return DelaysName(info.param);
                         });

// --- flit-engine determinism: same contract as the VCT engine ---

class NetworkContractDeathTest : public ::testing::TestWithParam<EngineKind> {
};

TEST_P(NetworkContractDeathTest, PathWormNamingAnotherSwitchAborts) {
  // Node 0's path worm starts with a step at another switch: the worm
  // reaches its own switch with a route that does not fit it. Neither
  // engine may skip it.
  const auto sys = System::Build({}, 42);
  const SwitchId here = sys->graph.host(0).sw;
  NodeId far = 1;
  while (sys->graph.host(far).sw == here) ++far;
  PathRoutes route;
  route.drops = {far};
  route.steps = {{sys->graph.host(far).sw, kInvalidPort, 0, 0, 1}};
  Packet pkt;
  pkt.mcast_id = 0;
  pkt.src = 0;
  pkt.kind = HeaderKind::kPathWorm;
  pkt.data_flits = 128;
  pkt.header_flits = 2;
  pkt.path = &route;
  Engine engine;
  const auto net =
      MakeNetworkModel(GetParam(), engine, *sys, NetParams{},
                       [](NodeId, const Packet&, Cycles, Cycles) {});
  net->InjectFromNi(0, std::move(pkt), 0);
  EXPECT_DEATH(engine.RunToQuiescence(),
               "unroutable packet: path worm step names another switch");
}

INSTANTIATE_TEST_SUITE_P(
    Engines, NetworkContractDeathTest,
    ::testing::Values(EngineKind::kVct, EngineKind::kFlit),
    [](const auto& info) { return std::string(ToString(info.param)); });

TEST(FlitEngineDeterminism, TraceExportsAreThreadCountInvariant) {
  ThreadsGuard guard;
  auto run = [] {
    Tracer tracer;
    SingleRunSpec spec;
    spec.cfg.engine = EngineKind::kFlit;
    spec.scheme = SchemeKind::kTreeWorm;
    spec.multicast_size = 6;
    spec.topologies = 4;
    spec.samples_per_topology = 2;
    spec.tracer = &tracer;
    RunSingleMulticast(spec);
    return tracer;
  };
  SetParallelThreads(1);
  const Tracer t1 = run();
  SetParallelThreads(2);
  const Tracer t2 = run();
  SetParallelThreads(8);
  const Tracer t8 = run();
  ASSERT_GT(t1.size(), 0u);
  const std::string jsonl = ToJsonLines(t1);
  EXPECT_EQ(ToJsonLines(t2), jsonl);
  EXPECT_EQ(ToJsonLines(t8), jsonl);
  const std::string chrome = ToChromeTrace(t1);
  EXPECT_EQ(ToChromeTrace(t2), chrome);
  EXPECT_EQ(ToChromeTrace(t8), chrome);
}

TEST(FlitEngineDeterminism, MetricsExportIsThreadCountInvariant) {
  ThreadsGuard guard;
  auto run = [](int threads) {
    SetParallelThreads(threads);
    SingleRunSpec spec;
    spec.cfg.engine = EngineKind::kFlit;
    spec.scheme = SchemeKind::kPathWorm;
    spec.multicast_size = 6;
    spec.topologies = 6;
    spec.samples_per_topology = 2;
    return ToJson(RunSingleMulticast(spec).metrics);
  };
  const std::string serial = run(1);
  EXPECT_NE(serial.find("flit.flits_moved"), std::string::npos);
  EXPECT_EQ(serial, run(2));
  EXPECT_EQ(serial, run(8));
}

}  // namespace
}  // namespace irmc
