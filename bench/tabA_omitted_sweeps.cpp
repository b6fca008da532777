// Section 4.2.3 of the paper mentions three sweeps omitted for space
// ("startup overhead at the host, system size, and packet length",
// deferred to the technical report). This bench regenerates them.
//
// Expected shapes:
//  * host startup overhead: the multi-phase schemes (uni-binomial and,
//    for each of its phases, path-based) scale with o_host steeply; the
//    tree worm pays it exactly twice.
//  * system size: all schemes grow; tree stays single-phase and wins.
//  * packet length: with the 512-flit message fixed, small packets mean
//    more per-packet work for FPFS/NI but finer pipelining; large
//    packets approach single-packet behaviour.
#include "bench_common.hpp"

int main() {
  using namespace irmc;

  std::printf("tabA: the paper's omitted-for-space sweeps\n");

  // (1) Host startup overhead, R fixed at 1.
  {
    SeriesTable table("tabA-1 host startup overhead (15-way, cycles)",
                      report::SchemeColumns("o_host"));
    for (Cycles o_host : {100, 250, 500, 1000, 2000}) {
      SimConfig cfg;
      cfg.host.o_host = o_host;
      cfg.host.o_ni = o_host;  // keep R = 1
      std::vector<double> row{static_cast<double>(o_host)};
      for (SchemeKind scheme : report::PanelSchemes()) {
        SingleRunSpec spec;
        spec.cfg = cfg;
        spec.scheme = scheme;
        spec.multicast_size = 15;
        spec.topologies = EnvInt("IRMC_TOPOLOGIES", 10);
        spec.samples_per_topology = EnvInt("IRMC_SAMPLES", 4);
        row.push_back(RunSingleMulticast(spec).mean_latency);
      }
      table.AddRow(row);
    }
    table.Print();
  }

  // (2) System size: nodes and switches scaled together (4 hosts and
  // 8 ports per switch, half-set multicast).
  {
    SeriesTable table("tabA-2 system size (half-set multicast, cycles)",
                      report::SchemeColumns("nodes"));
    for (int nodes : {16, 32, 64}) {
      SimConfig cfg;
      cfg.topology.num_hosts = nodes;
      cfg.topology.num_switches = nodes / 4;
      std::vector<double> row{static_cast<double>(nodes)};
      for (SchemeKind scheme : report::PanelSchemes()) {
        SingleRunSpec spec;
        spec.cfg = cfg;
        spec.scheme = scheme;
        spec.multicast_size = nodes / 2;
        spec.topologies = EnvInt("IRMC_TOPOLOGIES", 10);
        spec.samples_per_topology = EnvInt("IRMC_SAMPLES", 4);
        row.push_back(RunSingleMulticast(spec).mean_latency);
      }
      table.AddRow(row);
    }
    table.Print();
  }

  // (3) Packet length with a fixed 512-flit message.
  {
    SeriesTable table("tabA-3 packet length (512-flit message, 15-way)",
                      report::SchemeColumns("pkt_flits"));
    for (int pkt : {32, 64, 128, 256, 512}) {
      SimConfig cfg;
      cfg.message = MessageShape::FromMessageFlits(512, pkt);
      cfg.net.input_slots = 1;  // buffers sized to the packet
      std::vector<double> row{static_cast<double>(pkt)};
      for (SchemeKind scheme : report::PanelSchemes()) {
        SingleRunSpec spec;
        spec.cfg = cfg;
        spec.scheme = scheme;
        spec.multicast_size = 15;
        spec.topologies = EnvInt("IRMC_TOPOLOGIES", 10);
        spec.samples_per_topology = EnvInt("IRMC_SAMPLES", 4);
        row.push_back(RunSingleMulticast(spec).mean_latency);
      }
      table.AddRow(row);
    }
    table.Print();
  }
  return 0;
}
