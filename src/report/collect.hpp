// Panel collection: the single place that runs a figure panel's sweep
// loop and gathers everything the run ledger records.
//
// bench_common.hpp's SingleMulticastPanel/LoadPanel and the irmc_report
// CLI's `record` command both drive RunPanel, so the sweep order, the
// merged metrics snapshot, and the per-scheme latency histograms are
// identical no matter which entry point produced a ledger record.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/config.hpp"
#include "core/series.hpp"
#include "mcast/scheme.hpp"
#include "metrics/metrics.hpp"
#include "report/ledger.hpp"

namespace irmc::report {

enum class PanelMode : std::uint8_t { kSingle, kLoad };

/// One figure panel to run and record. The caller applies any
/// IRMC_ENGINE override to `cfg` first (bench::WithEnvEngine).
struct PanelSpec {
  std::string title;
  SimConfig cfg;
  PanelMode mode = PanelMode::kSingle;
  std::vector<int> sizes;     ///< single mode: multicast sizes (x axis)
  std::vector<double> loads;  ///< load mode: effective applied loads
  int degree = 8;             ///< load mode: destinations per multicast
  int topologies = 10;        ///< trials per data point
  int samples = 4;            ///< single mode: draws per topology
  Cycles horizon = 150'000;   ///< load mode: generation horizon
  /// Test hook (`irmc_report record --scale-latency`): multiplies every
  /// latency series cell after measurement, so the regress command can
  /// be exercised against a planted slowdown without a slower build.
  /// Histograms are NOT scaled — the hook plants a series regression.
  double scale_latency = 1.0;
  /// Directory (created on demand) that receives the panel's per-point
  /// metric sidecar, SidecarPath(sidecar_dir, title); empty = none. One
  /// JSON line per (x, scheme) data point, after a build-stamp line, so
  /// the series tables can be cross-checked against the fabric/driver
  /// counters that produced them; `irmc_report html` reads it back. The
  /// file is recreated per run and is byte-stable for any IRMC_THREADS.
  std::string sidecar_dir;
};

/// Everything a panel run produced.
struct PanelOutcome {
  explicit PanelOutcome(SeriesTable t) : table(std::move(t)) {}

  SeriesTable table;   ///< printable form (tags included)
  SeriesData series;   ///< the same rows, ledger form
  /// Union of every data point's registry (counters add, gauges combine
  /// per mode, histogram bins add), merged in sweep order.
  MetricsRegistry metrics;
  /// Per-scheme mcast.latency histograms merged across all data points —
  /// the source for the report's latency CDF per scheme.
  std::map<std::string, Histogram> scheme_latency;
  double wall_seconds = 0.0;  ///< 0 under IRMC_LEDGER_DETERMINISTIC
};

/// Runs the panel's sweep loop (same order as the bench panels have
/// always used: x outer, scheme inner).
PanelOutcome RunPanel(const PanelSpec& spec);

/// Canonical name-sorted "key=value key=value ..." config string whose
/// FNV-1a fingerprint pairs comparable runs across ledgers.
std::string CanonicalConfig(const PanelSpec& spec);

/// "single-panel" | "load-panel" for the spec's mode.
std::string PanelKind(const PanelSpec& spec);

/// Serialises the outcome as a RunRecord and appends it to the ledger at
/// `ledger_path` (empty path = disabled, returns true).
bool AppendPanelRecord(const std::string& ledger_path, const PanelSpec& spec,
                       const PanelOutcome& outcome);

/// Ledger path next to the metric sidecars: $IRMC_LEDGER, defaulting to
/// "<IRMC_METRICS_DIR or bench-out>/ledger.jsonl"; explicitly empty
/// IRMC_LEDGER disables ledger writes.
std::string DefaultLedgerPath();

/// Filesystem-safe slug for a panel title ("Fig. 6: latency vs R" ->
/// "fig_6_latency_vs_r") — names the metric sidecar files the benches
/// write and irmc_report html reads back.
std::string SlugifyTitle(const std::string& title);

/// The four schemes in panel column order.
const std::vector<SchemeKind>& PanelSchemes();

/// A panel's column headers: `x_label`, then one column per scheme.
std::vector<std::string> SchemeColumns(const std::string& x_label);

/// "<dir>/<slug(title)>.metrics.jsonl": where a panel's sidecar lives.
std::string SidecarPath(const std::string& dir, const std::string& title);

}  // namespace irmc::report
