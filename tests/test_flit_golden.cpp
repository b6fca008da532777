// Golden digests of network-engine runs, on both engines.
//
// Each digest is FNV-1a 64 over everything a run makes observable:
//
//  * engine-level runs (an engine built by MakeNetworkModel and driven
//    directly by open-loop packet traffic): every delivery as (mcast,
//    packet, node, head, tail) plus its hop log when routes are
//    recorded, flits_sent() sampled mid-run, the per-channel link
//    reports, the metrics registry and the trace event stream;
//  * driver-level runs (the load, single-multicast and DSM runners the
//    CLI and the figures use, and single chunked tree worms; all four
//    schemes, one- and four-packet messages, both NI disciplines): the
//    run's results, the metrics registry and the trace event stream,
//    which holds every NI delivery and host delivery.
//
// The flit values were recorded before the flit engine learned to
// advance streaming worms in closed form, the VCT values before packets
// became engine-owned values (the VCT cases cover the Fabric's hop
// logs). The DriverGolden values were recorded
// before McastDriver's sends were written once: they cover the driver
// paths the older cases leave out. Any change to what an engine or the
// driver delivers, when, or what it counts on the way changes a digest.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/load_runner.hpp"
#include "core/single_runner.hpp"
#include "mcast/tree_worm.hpp"
#include "metrics/export.hpp"
#include "network/fabric.hpp"
#include "network/flit_engine.hpp"
#include "topology/system.hpp"
#include "trace/export.hpp"
#include "trace/tracer.hpp"
#include "workloads/dsm.hpp"

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

/// Open-loop traffic straight into the `kind` engine on the paper's
/// default system: every node injects a packet at exponential gaps until
/// cycle 20'000 (unicast to a random node, or a tree worm to 8 random
/// nodes). `slow` sets (link, route, xbar) delays to (2, 3, 4); `record`
/// turns on per-packet hop logs and hashes every delivered packet's.
std::uint64_t EngineRun(EngineKind kind, Traffic traffic, int buffer_flits,
                        double gap, bool slow = false, bool record = false) {
  const auto sys = System::Build({}, 3);
  Engine engine;
  NetParams params;
  params.buffer_flits = buffer_flits;
  params.record_routes = record;
  if (slow) {
    params.link_delay = 2;
    params.route_delay = 3;
    params.xbar_delay = 4;
  }
  MetricsRegistry reg;
  Tracer tracer;
  Digest d;
  const auto net = MakeNetworkModel(
      kind, engine, *sys, params,
      [&](NodeId n, const Packet& p, Cycles head, Cycles tail) {
        d.Num(static_cast<double>(p.mcast_id));
        d.Num(p.pkt_index);
        d.Num(n);
        d.Num(static_cast<double>(head));
        d.Num(static_cast<double>(tail));
        if (const auto* hops = NetworkModel::HopsOf(p)) {
          d.Bytes("hops");
          for (const HopRecord& h : *hops) {
            d.Num(h.sw);
            d.Num(h.out_port);
          }
        }
      },
      &tracer, &reg);
  const int nodes = sys->num_nodes();
  Rng rng(11);
  std::int64_t next_id = 0;
  std::vector<Packet> sends;
  for (NodeId src = 0; src < nodes; ++src) {
    Cycles t = 0;
    while (true) {
      t += 1 + static_cast<Cycles>(rng.NextExponential(gap));
      if (t >= 20'000) break;
      Packet pkt;
      pkt.mcast_id = next_id++;
      pkt.src = src;
      pkt.data_flits = 128;
      const auto draw = rng.SampleWithoutReplacement(nodes - 1, 8);
      auto other = [src](std::uint64_t v) {
        return static_cast<NodeId>(v >= static_cast<std::uint64_t>(src)
                                       ? v + 1
                                       : v);
      };
      if (traffic == Traffic::kUnicast) {
        pkt.kind = HeaderKind::kUnicast;
        pkt.uni_dest = other(draw[0]);
        pkt.header_flits = 2;
      } else {
        std::vector<NodeId> dests;
        for (std::uint64_t v : draw) dests.push_back(other(v));
        pkt.kind = HeaderKind::kTreeWorm;
        pkt.tree_dests = NodeSet::FromVector(nodes, dests);
        pkt.header_flits = HeaderSizing{}.TreeWormFlits(nodes);
      }
      // An event capture holds at most 48 bytes: the packet waits in
      // `sends` and the event carries its index.
      sends.push_back(std::move(pkt));
      engine.ScheduleAt(t, [&net, &sends, i = sends.size() - 1, src, t]() {
        net->InjectFromNi(src, std::move(sends[i]), t + 7);
      });
    }
  }
  // Reads mid-stream must see every flit sent so far.
  for (Cycles at : {5'003, 12'007, 19'011})
    engine.ScheduleAt(at, [&d, &net]() {
      d.Num(static_cast<double>(net->flits_sent()));
    });
  engine.RunToQuiescence();
  net->CollectMetrics(engine.Now());
  for (const LinkLoadReport& r : net->LinkReports(engine.Now())) {
    d.Num(static_cast<double>(r.flits));
    d.Num(r.utilization);
  }
  if (const auto* flit = dynamic_cast<const FlitEngine*>(net.get()))
    d.Num(static_cast<double>(flit->cycles_stepped()));
  if (const auto* fabric = dynamic_cast<const Fabric*>(net.get()))
    d.Num(static_cast<double>(fabric->packets_switched()));
  d.Bytes(ToJson(reg));
  d.Bytes(ToJsonLines(tracer));
  return d.h;
}

// --- driver level -----------------------------------------------------------

/// `shape` and `ni` (here and in SingleRun) default to the paper's
/// one-packet message and FPFS.
std::uint64_t LoadRun(EngineKind kind, SchemeKind scheme, int buffer_flits,
                      double load, MessageShape shape = {},
                      NiDiscipline ni = NiDiscipline::kFpfs) {
  LoadRunSpec spec;
  spec.cfg.engine = kind;
  spec.cfg.net.buffer_flits = buffer_flits;
  spec.cfg.message = shape;
  spec.cfg.host.ni_discipline = ni;
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

std::uint64_t SingleRun(EngineKind kind, SchemeKind scheme,
                        MessageShape shape = {},
                        NiDiscipline ni = NiDiscipline::kFpfs) {
  SingleRunSpec spec;
  spec.cfg.engine = kind;
  spec.cfg.message = shape;
  spec.cfg.host.ni_discipline = ni;
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

/// Chunked tree worms (one worm per 8-node region, 3-packet messages;
/// ablI's path), each played once on a fresh driver: host 0 to every odd
/// host, then host 5 to a set spread over every region.
std::uint64_t ChunkedTreeWormRun(EngineKind kind) {
  const auto sys = System::Build({}, 21);
  SimConfig cfg;
  cfg.engine = kind;
  cfg.message.num_packets = 3;
  TreeWormScheme scheme;
  scheme.max_region_span = 8;
  std::vector<NodeId> odd;
  for (NodeId n = 1; n < 32; n += 2) odd.push_back(n);
  const std::vector<NodeId> spread{0, 2, 9, 12, 18, 23, 27, 31};
  Digest d;
  for (const auto& [src, dests] :
       {std::pair{NodeId{0}, odd}, std::pair{NodeId{5}, spread}}) {
    MetricsRegistry reg;
    Tracer tracer;
    const MulticastResult r =
        PlayOnce(*sys, cfg, scheme.Plan(*sys, src, dests, cfg.message,
                                        cfg.headers),
                 &tracer, &reg);
    for (const auto& [n, when] : r.deliveries) {
      d.Num(n);
      d.Num(static_cast<double>(when));
    }
    d.Bytes(ToJson(reg));
    d.Bytes(ToJsonLines(tracer));
  }
  return d.h;
}

/// The DSM invalidation workload: per-plan message shapes (16-flit
/// invalidations, 8-flit acks) and the per-destination callback.
std::uint64_t DsmRun(EngineKind kind, SchemeKind scheme) {
  SimConfig cfg;
  cfg.engine = kind;
  DsmParams params;
  params.num_lines = 16;
  params.sharers_per_line = 6;
  params.write_interarrival = 15'000.0;
  params.warmup = 5'000;
  params.horizon = 60'000;
  params.topologies = 2;
  Tracer tracer;
  params.tracer = &tracer;
  const DsmResult r = RunDsmInvalidation(cfg, scheme, params);
  Digest d;
  for (double v : {r.mean_write_latency, r.p95_write_latency,
                   static_cast<double>(r.writes_completed),
                   static_cast<double>(r.writes_started)})
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

constexpr EngineKind kFlit = EngineKind::kFlit;
constexpr EngineKind kVct = EngineKind::kVct;

TEST(FlitGolden, EngineUnicastSmallBuffers) {
  EXPECT_DIGEST(EngineRun(kFlit, Traffic::kUnicast, 4, 900.0),
                0xf8867dbdb94264a2);
  EXPECT_DIGEST(EngineRun(kFlit, Traffic::kUnicast, 16, 900.0),
                0x242bc376b19a4d0e);
  EXPECT_DIGEST(EngineRun(kFlit, Traffic::kUnicast, 64, 900.0),
                0xd391ff739ab4a2f2);
}

TEST(FlitGolden, EngineTreeWorms) {
  EXPECT_DIGEST(EngineRun(kFlit, Traffic::kTreeWorm, 256, 2'500.0),
                0x204a6ba1e2704d50);
}

TEST(FlitGolden, EngineAtNonUnitDelays) {
  EXPECT_DIGEST(EngineRun(kFlit, Traffic::kUnicast, 16, 900.0, true),
                0x5a3de2a8318b014a);
  EXPECT_DIGEST(EngineRun(kFlit, Traffic::kTreeWorm, 256, 2'500.0, true),
                0xcd6c157eba8d2099);
}

TEST(FlitGolden, UniBinomialLoadAtSmallBuffers) {
  EXPECT_DIGEST(LoadRun(kFlit, SchemeKind::kUnicastBinomial, 4, 0.05),
                0x24c981d32ffd8f8a);
  EXPECT_DIGEST(LoadRun(kFlit, SchemeKind::kUnicastBinomial, 16, 0.05),
                0xd99a1c78d1f10e39);
  EXPECT_DIGEST(LoadRun(kFlit, SchemeKind::kUnicastBinomial, 64, 0.05),
                0xa7c1114d5b89834e);
}

TEST(FlitGolden, NiKBinomialLoadAtSmallBuffers) {
  EXPECT_DIGEST(LoadRun(kFlit, SchemeKind::kNiKBinomial, 4, 0.05),
                0xf570667a6ed6bc61);
  EXPECT_DIGEST(LoadRun(kFlit, SchemeKind::kNiKBinomial, 16, 0.05),
                0x25f6c949e53fe765);
  EXPECT_DIGEST(LoadRun(kFlit, SchemeKind::kNiKBinomial, 64, 0.05),
                0x18c3e93c6f04e64e);
}

TEST(FlitGolden, WormSchemesAtDefaultBuffers) {
  EXPECT_DIGEST(SingleRun(kFlit, SchemeKind::kTreeWorm), 0x461abb4d9c5b60e7);
  EXPECT_DIGEST(SingleRun(kFlit, SchemeKind::kPathWorm), 0x6d651a126f6b6f97);
  EXPECT_DIGEST(LoadRun(kFlit, SchemeKind::kTreeWorm, 256, 0.2),
                0xca059410b409e2e7);
  EXPECT_DIGEST(LoadRun(kFlit, SchemeKind::kPathWorm, 256, 0.1),
                0xf327879b9e63f482);
}

// The VCT Fabric ignores buffer_flits (it holds whole packets in
// input_slots), so its runs pass the default.

TEST(VctGolden, EngineUnicastAndTreeWorms) {
  EXPECT_DIGEST(EngineRun(kVct, Traffic::kUnicast, 256, 900.0),
                0x8264f33a0e0fc9b4);
  EXPECT_DIGEST(EngineRun(kVct, Traffic::kUnicast, 256, 300.0),
                0xb5c37d4977dbc868);
  EXPECT_DIGEST(EngineRun(kVct, Traffic::kTreeWorm, 256, 2'500.0),
                0xae759a3c888b7b48);
}

TEST(VctGolden, EngineAtNonUnitDelays) {
  EXPECT_DIGEST(EngineRun(kVct, Traffic::kUnicast, 256, 900.0, true),
                0xf527b658839d44a5);
  EXPECT_DIGEST(EngineRun(kVct, Traffic::kTreeWorm, 256, 2'500.0, true),
                0xaf4994a8e25ef644);
}

TEST(VctGolden, EngineHopLogs) {
  EXPECT_DIGEST(EngineRun(kVct, Traffic::kUnicast, 256, 900.0, false, true),
                0x76c17b9c560f569b);
  EXPECT_DIGEST(
      EngineRun(kVct, Traffic::kTreeWorm, 256, 2'500.0, false, true),
      0xea2ea9d93cacde99);
}

TEST(VctGolden, AllSchemesSingleAndLoad) {
  EXPECT_DIGEST(SingleRun(kVct, SchemeKind::kUnicastBinomial),
                0x995f54d3f354c3b4);
  EXPECT_DIGEST(SingleRun(kVct, SchemeKind::kNiKBinomial), 0x54ef9ef1a215b1ed);
  EXPECT_DIGEST(SingleRun(kVct, SchemeKind::kTreeWorm), 0x98f1a64c69b81a87);
  EXPECT_DIGEST(SingleRun(kVct, SchemeKind::kPathWorm), 0x6fa3212b38baeada);
  EXPECT_DIGEST(LoadRun(kVct, SchemeKind::kUnicastBinomial, 256, 0.05),
                0xeb088128255ac041);
  EXPECT_DIGEST(LoadRun(kVct, SchemeKind::kNiKBinomial, 256, 0.05),
                0x2685379ef48f5220);
  EXPECT_DIGEST(LoadRun(kVct, SchemeKind::kTreeWorm, 256, 0.2),
                0x8ad4e54b6f19343);
  EXPECT_DIGEST(LoadRun(kVct, SchemeKind::kPathWorm, 256, 0.1),
                0x72e46ccd2195f25f);
}

// --- driver paths on both engines --------------------------------------------
//
// What the cases above leave out: multi-packet messages on every scheme
// (FPFS's tail bound, chunked DMA), the store-and-forward NI, chunked
// tree worms and their region headers, and DSM's per-plan shapes.

constexpr MessageShape kFourPackets{128, 4};

TEST(DriverGolden, FourPacketSingleMulticasts) {
  EXPECT_DIGEST(SingleRun(kVct, SchemeKind::kUnicastBinomial, kFourPackets),
                0x5efb0f8bd2676f94);
  EXPECT_DIGEST(SingleRun(kVct, SchemeKind::kNiKBinomial, kFourPackets),
                0x45c794b91d25c9d6);
  EXPECT_DIGEST(SingleRun(kVct, SchemeKind::kTreeWorm, kFourPackets),
                0x3f0179801aa4093c);
  EXPECT_DIGEST(SingleRun(kVct, SchemeKind::kPathWorm, kFourPackets),
                0xaf0046d4d1614361);
  EXPECT_DIGEST(SingleRun(kFlit, SchemeKind::kUnicastBinomial, kFourPackets),
                0x26301c6119894684);
  EXPECT_DIGEST(SingleRun(kFlit, SchemeKind::kNiKBinomial, kFourPackets),
                0x7a735fc6c1d66289);
  EXPECT_DIGEST(SingleRun(kFlit, SchemeKind::kTreeWorm, kFourPackets),
                0x5ae7c68625d1840a);
  EXPECT_DIGEST(SingleRun(kFlit, SchemeKind::kPathWorm, kFourPackets),
                0xfac9b26bc3c7f004);
}

TEST(DriverGolden, FourPacketLoad) {
  EXPECT_DIGEST(LoadRun(kVct, SchemeKind::kUnicastBinomial, 256, 0.05,
                        kFourPackets),
                0x9e30d7c1cb0e1593);
  EXPECT_DIGEST(LoadRun(kVct, SchemeKind::kNiKBinomial, 256, 0.05,
                        kFourPackets),
                0xacae8b6c56909c3a);
  EXPECT_DIGEST(LoadRun(kVct, SchemeKind::kTreeWorm, 256, 0.2,
                        kFourPackets),
                0xf4ffdc28045019fc);
  EXPECT_DIGEST(LoadRun(kVct, SchemeKind::kPathWorm, 256, 0.1,
                        kFourPackets),
                0xfa01df28dd119414);
  EXPECT_DIGEST(LoadRun(kFlit, SchemeKind::kUnicastBinomial, 256, 0.05,
                        kFourPackets),
                0xa1905b43ce715030);
  EXPECT_DIGEST(LoadRun(kFlit, SchemeKind::kNiKBinomial, 256, 0.05,
                        kFourPackets),
                0xed511c8af8fee233);
  EXPECT_DIGEST(LoadRun(kFlit, SchemeKind::kTreeWorm, 256, 0.2,
                        kFourPackets),
                0xe575210168d4ae4f);
  EXPECT_DIGEST(LoadRun(kFlit, SchemeKind::kPathWorm, 256, 0.1,
                        kFourPackets),
                0x68bb46e728b42e3);
}

TEST(DriverGolden, MessageStoreAndForwardNi) {
  constexpr NiDiscipline kSaf = NiDiscipline::kMessageStoreAndForward;
  EXPECT_DIGEST(SingleRun(kVct, SchemeKind::kNiKBinomial, kFourPackets, kSaf),
                0x6c4f34793463bdd0);
  EXPECT_DIGEST(LoadRun(kVct, SchemeKind::kNiKBinomial, 256, 0.05,
                        kFourPackets, kSaf),
                0x8f116dca9027b64e);
  EXPECT_DIGEST(SingleRun(kFlit, SchemeKind::kNiKBinomial, kFourPackets, kSaf),
                0x9234b9d13094c29d);
  EXPECT_DIGEST(LoadRun(kFlit, SchemeKind::kNiKBinomial, 256, 0.05,
                        kFourPackets, kSaf),
                0x85e9c226fabe901c);
}

TEST(DriverGolden, ChunkedTreeWorms) {
  EXPECT_DIGEST(ChunkedTreeWormRun(kVct), 0xfb6a5e6e0b1db3e7);
  EXPECT_DIGEST(ChunkedTreeWormRun(kFlit), 0x303bb9c33df0763d);
}

TEST(DriverGolden, DsmInvalidation) {
  EXPECT_DIGEST(DsmRun(kVct, SchemeKind::kUnicastBinomial), 0x16ccdfcb0e6cee7f);
  EXPECT_DIGEST(DsmRun(kVct, SchemeKind::kNiKBinomial), 0xec9b84d5d3c7892c);
  EXPECT_DIGEST(DsmRun(kVct, SchemeKind::kTreeWorm), 0x5af9e7f15836f9b8);
  EXPECT_DIGEST(DsmRun(kVct, SchemeKind::kPathWorm), 0x8fb6865d601af265);
  EXPECT_DIGEST(DsmRun(kFlit, SchemeKind::kUnicastBinomial),
                0xfb20e346eda4e198);
  EXPECT_DIGEST(DsmRun(kFlit, SchemeKind::kNiKBinomial), 0x9a0ca9b78739b261);
  EXPECT_DIGEST(DsmRun(kFlit, SchemeKind::kTreeWorm), 0x371549c9bb061407);
  EXPECT_DIGEST(DsmRun(kFlit, SchemeKind::kPathWorm), 0x204a6666b4eb4f34);
}

}  // namespace
}  // namespace irmc
