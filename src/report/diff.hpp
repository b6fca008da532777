// Differential performance analysis over ledger runs.
//
// `irmc_report regress --baseline A --candidate B` must answer one
// question mechanically: did anything get significantly worse? Runs are
// paired by (name, engine); within a pair every metric is compared with
// a direction inferred from its name (latency/cycles/blocked grow worse
// upward, throughput grows worse downward, wall_seconds is
// informational) and a noise-aware verdict:
//   - scalar metrics (counters, gauges, series cells) gate on a relative
//     threshold;
//   - histogram metrics additionally gate on a deterministic bootstrap
//     confidence interval over samples reconstructed from the log2 bins,
//     so a mean shift inside resampling noise is reported as kSame.
// The bootstrap RNG is seeded from spec.seed XOR a hash of the metric
// name — per-metric deterministic, independent of comparison order.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "report/ledger.hpp"

namespace irmc::report {

/// Which way "bigger" points for a metric.
enum class Direction : std::uint8_t {
  kLowerIsBetter,   ///< latencies, cycles, blocking, stalls
  kHigherIsBetter,  ///< throughputs, rates
  kInfo,            ///< context only (wall_seconds, counts) — never gates
};

/// Name-pattern inference; see MetricDirection in diff.cpp for the
/// pattern table.
Direction MetricDirection(const std::string& name);

enum class Verdict : std::uint8_t {
  kSame,         ///< within threshold / inside the bootstrap CI
  kImproved,     ///< significantly better in the metric's direction
  kRegressed,    ///< significantly worse in the metric's direction
  kOnlyBaseline,  ///< metric present only in the baseline run
  kOnlyCandidate, ///< metric present only in the candidate run
};

const char* ToString(Verdict v);
const char* ToString(Direction d);

struct DiffSpec {
  /// Relative change below this is noise regardless of direction.
  double rel_threshold = 0.05;
  /// Bootstrap resamples per histogram metric (0 disables the CI gate —
  /// histograms then gate on the threshold alone, like scalars).
  int bootstrap_iters = 300;
  /// Two-sided confidence for the bootstrap interval.
  double confidence = 0.95;
  std::uint64_t seed = 42;
  /// Pair runs whose config fingerprints differ (off by default: a
  /// config change makes "regression" meaningless; regress exits 2).
  bool allow_config_mismatch = false;
};

/// One metric's comparison.
struct MetricDelta {
  std::string metric;   ///< e.g. "hist.mcast.latency.mean",
                        ///<      "series.tree-worm[mcast_size=8]"
  Direction direction = Direction::kInfo;
  Verdict verdict = Verdict::kSame;
  double baseline = 0.0;
  double candidate = 0.0;
  double rel_change = 0.0;  ///< (candidate - baseline) / |baseline|
  /// Bootstrap CI of the candidate-minus-baseline mean difference
  /// (histogram metrics only; 0,0 otherwise).
  double ci_lo = 0.0;
  double ci_hi = 0.0;
};

/// One paired run's comparison.
struct RunDiff {
  std::string name;
  std::string engine;
  bool fingerprint_mismatch = false;
  std::string baseline_config;
  std::string candidate_config;
  std::vector<MetricDelta> deltas;  ///< metric-name order
};

/// Pairs runs by (name, engine) — last record wins within each ledger,
/// so re-recording a panel supersedes earlier lines — and diffs every
/// pair. Unpaired runs produce a RunDiff whose deltas are all
/// kOnlyBaseline / kOnlyCandidate.
std::vector<RunDiff> DiffLedgers(const std::vector<LedgerRun>& baseline,
                                 const std::vector<LedgerRun>& candidate,
                                 const DiffSpec& spec);

struct DiffSummary {
  int regressed = 0;
  int improved = 0;
  int same = 0;
  int unpaired = 0;
  int mismatched_pairs = 0;  ///< fingerprint mismatches (gate unless allowed)
  /// "name/engine: metric" lines for every regression, worst first.
  std::vector<std::string> regressions;
};

DiffSummary Summarize(const std::vector<RunDiff>& diffs);

}  // namespace irmc::report
