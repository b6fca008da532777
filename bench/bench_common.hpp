// Shared sweep helpers for the figure-reproduction benches.
//
// The panel loops themselves live in src/report/collect.hpp (RunPanel),
// shared with the `irmc_report record` CLI; this header wires them to
// the bench environment knobs, the per-point metric sidecars, and the
// run ledger.
//
// Scaling knobs (environment variables):
//   IRMC_TOPOLOGIES  topologies per single-multicast data point (default 10)
//   IRMC_SAMPLES     (source, destination-set) draws per topology (default 4)
//   IRMC_LOAD_TOPOS  topologies per load data point (default 2)
//   IRMC_HORIZON     load-run generation horizon in cycles (default 150000)
//   IRMC_THREADS     trial-executor threads (default: all cores; 1 =
//                    serial). Every data point fans its topology trials
//                    out on the parallel executor (core/parallel.hpp)
//                    and merges outcomes in trial-index order, so bench
//                    output is bit-identical for any thread count.
//   IRMC_METRICS_DIR directory for per-point metric sidecars
//                    (<slug>.metrics.jsonl, one JSON line per data
//                    point; default "bench-out/", created on demand;
//                    set empty to disable).
//   IRMC_LEDGER      run-ledger path (default
//                    "<IRMC_METRICS_DIR>/ledger.jsonl"; set empty to
//                    disable). Every panel appends one RunRecord —
//                    config fingerprint, build info, series rows,
//                    merged metrics, per-scheme latency histograms —
//                    consumed by tools/irmc_report (diff/regress/html).
//   IRMC_LEDGER_DETERMINISTIC  record wall_seconds as 0 so ledger files
//                    byte-compare across runs and thread counts.
//   IRMC_ENGINE      network engine for every panel: "vct" (default) or
//                    "flit". IRMC_ENGINE=flit replays the same figures
//                    on the flit-level wormhole engine (see
//                    docs/engines.md); anything else aborts.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "core/config.hpp"
#include "core/load_runner.hpp"
#include "core/series.hpp"
#include "core/single_runner.hpp"
#include "report/collect.hpp"

namespace irmc::bench {

/// Where sidecars go: $IRMC_METRICS_DIR, defaulting to a `bench-out/`
/// subdirectory of the working directory (created on demand) so runs
/// don't strew sidecars over the repo root. An explicitly empty value
/// disables sidecar output.
inline std::string MetricsDir() {
  const char* dir = std::getenv("IRMC_METRICS_DIR");
  return dir != nullptr ? std::string(dir) : std::string("bench-out");
}

/// Applies the IRMC_ENGINE override (if set) to a panel's config.
/// Aborts on an unknown engine name — a typo'd env var silently
/// benchmarking the wrong engine would poison every figure.
inline SimConfig WithEnvEngine(SimConfig cfg) {
  const char* name = std::getenv("IRMC_ENGINE");
  if (name == nullptr || *name == '\0') return cfg;
  if (!EngineKindFromString(name, &cfg.engine)) {
    std::fprintf(stderr, "IRMC_ENGINE='%s' is not an engine (vct, flit)\n",
                 name);
    std::abort();
  }
  return cfg;
}

/// Runs a panel spec with its sidecar in MetricsDir() and appends its
/// RunRecord to the ledger.
inline SeriesTable RunRecordedPanel(report::PanelSpec spec) {
  spec.sidecar_dir = MetricsDir();
  const report::PanelOutcome outcome = report::RunPanel(spec);
  if (!report::AppendPanelRecord(report::DefaultLedgerPath(), spec, outcome))
    std::fprintf(stderr, "cannot append run ledger %s\n",
                 report::DefaultLedgerPath().c_str());
  return outcome.table;
}

/// One single-multicast panel: latency per scheme over multicast sizes.
inline SeriesTable SingleMulticastPanel(const std::string& title,
                                        const SimConfig& cfg_in,
                                        const std::vector<int>& sizes) {
  report::PanelSpec spec;
  spec.title = title;
  spec.cfg = WithEnvEngine(cfg_in);
  spec.mode = report::PanelMode::kSingle;
  spec.sizes = sizes;
  spec.topologies = EnvInt("IRMC_TOPOLOGIES", 10);
  spec.samples = EnvInt("IRMC_SAMPLES", 4);
  return RunRecordedPanel(std::move(spec));
}

/// One load panel: mean latency per scheme over effective applied loads;
/// saturated points are tagged "sat".
inline SeriesTable LoadPanel(const std::string& title, const SimConfig& cfg_in,
                             int degree, const std::vector<double>& loads) {
  report::PanelSpec spec;
  spec.title = title;
  spec.cfg = WithEnvEngine(cfg_in);
  spec.mode = report::PanelMode::kLoad;
  spec.loads = loads;
  spec.degree = degree;
  spec.topologies = EnvInt("IRMC_LOAD_TOPOS", 2);
  spec.horizon = static_cast<Cycles>(EnvInt("IRMC_HORIZON", 150'000));
  return RunRecordedPanel(std::move(spec));
}

inline const std::vector<int>& DefaultSizes() {
  static const std::vector<int> kSizes{2, 4, 8, 15, 23, 31};
  return kSizes;
}

inline const std::vector<double>& DefaultLoads() {
  static const std::vector<double> kLoads{0.05, 0.15, 0.3, 0.45,
                                          0.6,  0.75, 0.9};
  return kLoads;
}

}  // namespace irmc::bench
