// Ablation B: packet-granular VCT engine vs flit-level wormhole engine.
//
// Zero-load latencies must agree exactly (they are the same physics at
// two granularities); with input buffers smaller than a packet the flit
// engine additionally exhibits true wormhole blocking, which the VCT
// abstraction cannot express. This bench quantifies both. The exact
// zero-load agreement here is also enforced as a ctest
// (engine_xcheck_smoke, tests/test_engine_xcheck.cpp).
#include <cstdio>
#include <map>

#include "bench_common.hpp"
#include "network/fabric.hpp"
#include "network/flit_engine.hpp"
#include "topology/system.hpp"

namespace {

using namespace irmc;

Packet MakeTreeWorm(const System& sys, const std::vector<NodeId>& dests) {
  Packet pkt;
  pkt.mcast_id = 1;
  pkt.src = 0;
  pkt.kind = HeaderKind::kTreeWorm;
  pkt.tree_dests = NodeSet::FromVector(sys.num_nodes(), dests);
  pkt.data_flits = 128;
  pkt.header_flits = 6;
  return pkt;
}

std::map<NodeId, Cycles> RunVct(const System& sys, const Packet& pkt) {
  Engine engine;
  NetParams params;
  params.adaptive = false;
  std::map<NodeId, Cycles> tails;
  Fabric fabric(engine, sys, params,
                [&](NodeId n, const Packet&, Cycles, Cycles t) {
                  tails[n] = t;
                });
  fabric.InjectFromNi(0, pkt, 0);
  engine.RunToQuiescence();
  return tails;
}

std::map<NodeId, Cycles> RunFlitLevel(const System& sys, const Packet& pkt,
                                      int buffer_flits) {
  Engine engine;
  NetParams params;
  params.adaptive = false;
  params.buffer_flits = buffer_flits;
  std::map<NodeId, Cycles> tails;
  FlitEngine flit(engine, sys, params,
                  [&](NodeId n, const Packet&, Cycles, Cycles t) {
                    tails[n] = t;
                  });
  flit.InjectFromNi(0, pkt, 0);
  engine.RunToQuiescence();
  return tails;
}

}  // namespace

int main() {
  using namespace irmc;
  std::printf("ablB: VCT engine vs flit-level engine\n");

  SeriesTable agree("ablB-1 zero-load tree-worm tails, per seed (cycles)",
                    {"seed", "vct_max_tail", "flit_max_tail", "max_abs_diff"});
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const auto sys = System::Build({}, seed);
    std::vector<NodeId> dests;
    for (NodeId n = 1; n < 32; n += 2) dests.push_back(n);
    const auto pkt = MakeTreeWorm(*sys, dests);
    const auto vct = RunVct(*sys, pkt);
    const auto flit = RunFlitLevel(*sys, pkt, 128);
    Cycles vmax = 0, fmax = 0, diff = 0;
    for (const auto& [n, t] : vct) {
      vmax = std::max(vmax, t);
      fmax = std::max(fmax, flit.at(n));
      diff = std::max(diff, std::abs(t - flit.at(n)));
    }
    agree.AddRow({static_cast<double>(seed), static_cast<double>(vmax),
                  static_cast<double>(fmax), static_cast<double>(diff)});
  }
  agree.Print();

  // Wormhole blocking. Topology: A-B-C line plus a spur A-D. A blocker
  // worm (B -> C) holds the B->C link; a victim worm (node on A -> node
  // on C) blocks at B. With buffers of at least one packet the victim is
  // absorbed at B and clears A's switch quickly; with tiny buffers it
  // stays stretched back through A, holding its input port there. A
  // probe from the same source host, bound for the unrelated spur D,
  // queues behind it — its completion time shows the wormhole link/port
  // holding that the packet-granular VCT abstraction (which always
  // absorbs) does not distinguish.
  SeriesTable blocking(
      "ablB-2 wormhole vs VCT blocking (probe completion, cycles)",
      {"buffer_flits", "probe_tail"});
  Graph net(4, 6);
  net.AddLink(0, 0, 1, 0);  // A - B
  net.AddLink(1, 1, 2, 0);  // B - C
  net.AddLink(0, 1, 3, 0);  // A - D spur
  net.AttachHost(0, 4);     // node 0: victim + probe source (on A)
  net.AttachHost(1, 4);     // node 1: blocker source (on B)
  net.AttachHost(2, 4);     // node 2: far destination (on C)
  net.AttachHost(3, 4);     // node 3: probe destination (on D)
  const System spur_sys{std::move(net)};
  auto mk = [](NodeId src, NodeId dst, int flits) {
    Packet pkt;
    pkt.mcast_id = src;
    pkt.src = src;
    pkt.kind = HeaderKind::kUnicast;
    pkt.uni_dest = dst;
    pkt.data_flits = flits;
    pkt.header_flits = 2;
    return pkt;
  };
  for (int buffer : {256, 128, 32, 8, 4}) {
    Engine engine;
    NetParams params;
    params.adaptive = false;
    params.buffer_flits = buffer;
    Cycles probe_tail = 0;
    FlitEngine flit(engine, spur_sys, params,
                    [&](NodeId n, const Packet&, Cycles, Cycles t) {
                      if (n == 3) probe_tail = t;
                    });
    flit.InjectFromNi(1, mk(1, 2, 128), 0);  // blocker: holds B->C first
    flit.InjectFromNi(0, mk(0, 2, 128), 4);  // victim: blocks behind it at B
    flit.InjectFromNi(0, mk(0, 3, 16), 8);   // probe: same source, spur dest
    engine.RunToQuiescence();
    blocking.AddRow(
        {static_cast<double>(buffer), static_cast<double>(probe_tail)});
  }
  blocking.Print();
  return 0;
}
