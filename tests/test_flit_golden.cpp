// Golden digests of flit-engine runs.
//
// Each digest is FNV-1a 64 over everything a run makes observable:
//
//  * engine-level runs (a FlitEngine driven directly by open-loop
//    packet traffic): every delivery as (mcast, packet, node, head,
//    tail), every drop, flits_sent() sampled mid-run, the per-channel
//    link reports, the metrics registry and the trace event stream;
//  * driver-level runs (the load and single-multicast runners the CLI
//    and the figures use, all four schemes, faults included): the run's
//    results, the metrics registry and the trace event stream, which
//    holds every NI delivery, host delivery and drop.
//
// The values were recorded before the flit engine learned to advance
// streaming worms in closed form; any change to what the engine
// delivers, when, or what it counts on the way changes a digest.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/load_runner.hpp"
#include "core/single_runner.hpp"
#include "metrics/export.hpp"
#include "network/flit_engine.hpp"
#include "topology/system.hpp"
#include "trace/export.hpp"
#include "trace/tracer.hpp"

namespace irmc {
namespace {

struct Digest {
  std::uint64_t h = 14695981039346656037ull;
  void Bytes(const std::string& s) {
    for (unsigned char c : s) {
      h ^= c;
      h *= 1099511628211ull;
    }
  }
  void Num(double v) {
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g;", v);
    Bytes(buf);
  }
};

// --- engine level -----------------------------------------------------------

enum class Traffic { kUnicast, kTreeWorm };

/// Open-loop traffic straight into a FlitEngine on the paper's default
/// system: every node injects a packet at exponential gaps until cycle
/// 20'000 (unicast to a random node, or a tree worm to 8 random nodes).
/// `cut` > 0 fails the first switch-to-switch link of switch 0 then;
/// `slow` sets (link, route, xbar) delays to (2, 3, 4).
std::uint64_t EngineRun(Traffic traffic, int buffer_flits, double gap,
                        Cycles cut = 0, bool slow = false) {
  const auto sys = System::Build({}, 3);
  Engine engine;
  NetParams params;
  params.buffer_flits = buffer_flits;
  if (slow) {
    params.link_delay = 2;
    params.route_delay = 3;
    params.xbar_delay = 4;
  }
  MetricsRegistry reg;
  Tracer tracer;
  Digest d;
  FlitEngine flit(
      engine, *sys, params,
      [&](NodeId n, const PacketPtr& p, Cycles head, Cycles tail) {
        d.Num(static_cast<double>(p->mcast_id));
        d.Num(p->pkt_index);
        d.Num(n);
        d.Num(static_cast<double>(head));
        d.Num(static_cast<double>(tail));
      },
      &tracer, &reg);
  if (cut > 0) {
    flit.SetDropHandler([&](const PacketPtr& p, Cycles when, SwitchId sw) {
      d.Bytes("drop");
      d.Num(static_cast<double>(p->mcast_id));
      d.Num(static_cast<double>(when));
      d.Num(sw);
    });
    PortId port = 0;
    while (sys->graph.port(0, port).kind != PortKind::kSwitch) ++port;
    engine.ScheduleAt(cut, [&flit, port]() { flit.FailLink(0, port); });
  }
  const int nodes = sys->num_nodes();
  Rng rng(11);
  std::int64_t next_id = 0;
  for (NodeId src = 0; src < nodes; ++src) {
    Cycles t = 0;
    while (true) {
      t += 1 + static_cast<Cycles>(rng.NextExponential(gap));
      if (t >= 20'000) break;
      auto pkt = std::make_shared<Packet>();
      pkt->mcast_id = next_id++;
      pkt->src = src;
      pkt->data_flits = 128;
      const auto draw = rng.SampleWithoutReplacement(nodes - 1, 8);
      auto other = [src](std::uint64_t v) {
        return static_cast<NodeId>(v >= static_cast<std::uint64_t>(src)
                                       ? v + 1
                                       : v);
      };
      if (traffic == Traffic::kUnicast) {
        pkt->kind = HeaderKind::kUnicast;
        pkt->uni_dest = other(draw[0]);
        pkt->header_flits = 2;
      } else {
        std::vector<NodeId> dests;
        for (std::uint64_t v : draw) dests.push_back(other(v));
        pkt->kind = HeaderKind::kTreeWorm;
        pkt->tree_dests = NodeSet::FromVector(nodes, dests);
        pkt->header_flits = HeaderSizing{}.TreeWormFlits(nodes);
      }
      engine.ScheduleAt(t, [&flit, src, pkt, t]() {
        flit.InjectFromNi(src, pkt, t + 7);
      });
    }
  }
  // Reads mid-stream must see every flit sent so far.
  for (Cycles at : {5'003, 12'007, 19'011})
    engine.ScheduleAt(at, [&d, &flit]() {
      d.Num(static_cast<double>(flit.flits_sent()));
    });
  engine.RunToQuiescence();
  flit.CollectMetrics(engine.Now());
  for (const LinkLoadReport& r : flit.LinkReports(engine.Now())) {
    d.Num(static_cast<double>(r.flits));
    d.Num(r.utilization);
  }
  d.Num(static_cast<double>(flit.cycles_stepped()));
  d.Bytes(ToJson(reg));
  d.Bytes(ToJsonLines(tracer));
  return d.h;
}

// --- driver level -----------------------------------------------------------

std::uint64_t LoadRun(SchemeKind scheme, int buffer_flits, double load,
                      double mtbf = 0.0) {
  LoadRunSpec spec;
  spec.cfg.engine = EngineKind::kFlit;
  spec.cfg.net.buffer_flits = buffer_flits;
  if (mtbf > 0.0) {
    spec.cfg.resilience.enabled = true;
    spec.cfg.resilience.mtbf = mtbf;
  }
  spec.scheme = scheme;
  spec.degree = 8;
  spec.effective_load = load;
  spec.warmup = 2'000;
  spec.horizon = 30'000;
  spec.topologies = 2;
  Tracer tracer;
  spec.tracer = &tracer;
  const LoadRunResult r = RunLoadSweepPoint(spec);
  Digest d;
  for (double v : {r.mean_latency, r.p50_latency, r.p95_latency,
                   static_cast<double>(r.completed),
                   static_cast<double>(r.unfinished),
                   r.achieved_throughput, r.max_link_utilization,
                   static_cast<double>(r.events_executed)})
    d.Num(v);
  d.Bytes(ToJson(r.metrics));
  d.Bytes(ToJsonLines(tracer));
  return d.h;
}

std::uint64_t SingleRun(SchemeKind scheme) {
  SingleRunSpec spec;
  spec.cfg.engine = EngineKind::kFlit;
  spec.scheme = scheme;
  spec.multicast_size = 15;
  spec.topologies = 4;
  spec.samples_per_topology = 3;
  Tracer tracer;
  spec.tracer = &tracer;
  const SingleRunResult r = RunSingleMulticast(spec);
  Digest d;
  for (double v : {r.mean_latency, r.min_latency, r.max_latency,
                   static_cast<double>(r.samples)})
    d.Num(v);
  d.Bytes(ToJson(r.metrics));
  d.Bytes(ToJsonLines(tracer));
  return d.h;
}

#define EXPECT_DIGEST(expr, want)                                        \
  do {                                                                   \
    const std::uint64_t got_ = (expr);                                   \
    EXPECT_EQ(got_, want##ull) << "digest 0x" << std::hex << got_;       \
  } while (0)

TEST(FlitGolden, EngineUnicastSmallBuffers) {
  EXPECT_DIGEST(EngineRun(Traffic::kUnicast, 4, 900.0), 0xf8867dbdb94264a2);
  EXPECT_DIGEST(EngineRun(Traffic::kUnicast, 16, 900.0), 0x242bc376b19a4d0e);
  EXPECT_DIGEST(EngineRun(Traffic::kUnicast, 64, 900.0), 0xd391ff739ab4a2f2);
}

TEST(FlitGolden, EngineTreeWormsAndCut) {
  EXPECT_DIGEST(EngineRun(Traffic::kTreeWorm, 256, 2'500.0),
                0x204a6ba1e2704d50);
  EXPECT_DIGEST(EngineRun(Traffic::kTreeWorm, 256, 2'500.0, 6'000),
                0x9a349e6006e71664);
}

TEST(FlitGolden, EngineAtNonUnitDelays) {
  EXPECT_DIGEST(EngineRun(Traffic::kUnicast, 16, 900.0, 0, true),
                0x5a3de2a8318b014a);
  EXPECT_DIGEST(EngineRun(Traffic::kTreeWorm, 256, 2'500.0, 0, true),
                0xcd6c157eba8d2099);
}

TEST(FlitGolden, UniBinomialLoadAtSmallBuffers) {
  EXPECT_DIGEST(LoadRun(SchemeKind::kUnicastBinomial, 4, 0.05),
                0x24c981d32ffd8f8a);
  EXPECT_DIGEST(LoadRun(SchemeKind::kUnicastBinomial, 16, 0.05),
                0xd99a1c78d1f10e39);
  EXPECT_DIGEST(LoadRun(SchemeKind::kUnicastBinomial, 64, 0.05),
                0xa7c1114d5b89834e);
}

TEST(FlitGolden, NiKBinomialLoadAtSmallBuffers) {
  EXPECT_DIGEST(LoadRun(SchemeKind::kNiKBinomial, 4, 0.05), 0xf570667a6ed6bc61);
  EXPECT_DIGEST(LoadRun(SchemeKind::kNiKBinomial, 16, 0.05),
                0x25f6c949e53fe765);
  EXPECT_DIGEST(LoadRun(SchemeKind::kNiKBinomial, 64, 0.05),
                0x18c3e93c6f04e64e);
}

TEST(FlitGolden, WormSchemesAtDefaultBuffers) {
  EXPECT_DIGEST(SingleRun(SchemeKind::kTreeWorm), 0x461abb4d9c5b60e7);
  EXPECT_DIGEST(SingleRun(SchemeKind::kPathWorm), 0x6d651a126f6b6f97);
  EXPECT_DIGEST(LoadRun(SchemeKind::kTreeWorm, 256, 0.2), 0xca059410b409e2e7);
  EXPECT_DIGEST(LoadRun(SchemeKind::kPathWorm, 256, 0.1), 0xf327879b9e63f482);
}

TEST(FlitGolden, TreeWormLoadWithFaults) {
  EXPECT_DIGEST(LoadRun(SchemeKind::kTreeWorm, 256, 0.2, 6'000.0),
                0xedac921fc2387c64);
}

}  // namespace
}  // namespace irmc
