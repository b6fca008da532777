// Application study F: DSM write-invalidation stall time (the paper's
// motivating system-level use of multicast; its reference [2] applies
// multidestination worms to cache invalidation in wormhole DSMs).
//
// Each shared write multicasts invalidations to the line's sharers and
// stalls until every ack returns. Expected shape: the multicast scheme's
// single-multicast ordering carries over to write stalls, with the tree
// worm cutting the invalidation fan-out to one phase; the ack gather
// (unicasts into the writer) sets the floor.
#include "bench_common.hpp"
#include "workloads/dsm.hpp"

int main() {
  using namespace irmc;
  std::printf("appF: DSM write-invalidation stall time vs sharer count\n");
  SeriesTable table("appF mean write latency (cycles)",
                    report::SchemeColumns("sharers"));
  SeriesTable p95("appF p95 write latency (cycles)",
                  report::SchemeColumns("sharers"));
  for (int sharers : {4, 8, 16, 24}) {
    std::vector<double> row{static_cast<double>(sharers)};
    std::vector<double> row95{static_cast<double>(sharers)};
    for (SchemeKind scheme : report::PanelSchemes()) {
      SimConfig cfg;
      DsmParams params;
      params.sharers_per_line = sharers;
      params.topologies = EnvInt("IRMC_LOAD_TOPOS", 2) + 1;
      const DsmResult r = RunDsmInvalidation(cfg, scheme, params);
      row.push_back(r.mean_write_latency);
      row95.push_back(r.p95_write_latency);
    }
    table.AddRow(row);
    p95.AddRow(row95);
  }
  table.Print();
  p95.Print();
  return 0;
}
