// Multicast latency under increasing applied load (paper Section 4.3).
//
// Open-loop traffic: every host generates multicasts of fixed degree d
// to uniform-random destination sets, with exponential interarrivals
// calibrated so that the *effective applied load* — the paper's stimulus
// measure, d copies x message flits per generated multicast, normalised
// to the 1 flit/cycle host link bandwidth — equals the requested value.
// Mean multicast latency (generation to last-destination delivery) is
// measured over multicasts generated after a cold-start interval.
//
// Each topology replica is one Trial (core/trial.hpp): replicas execute
// on the parallel executor (IRMC_THREADS) and merge in trial-index
// order, so results are bit-identical for any thread count. Tracing
// follows the same pattern — each replica records into its own Tracer,
// appended in trial-index order — so traced runs stay parallel too.
#pragma once

#include <cstddef>
#include <cstdint>

#include "common/stats.hpp"
#include "core/config.hpp"
#include "metrics/metrics.hpp"

#include "common/types.hpp"

namespace irmc {

class Tracer;

/// How destination sets are drawn (the paper uses uniform; the other
/// patterns probe locality sensitivity).
enum class DestPattern : std::uint8_t {
  kUniform,    ///< degree distinct nodes, uniform over the system
  kClustered,  ///< nodes of the switches nearest a random anchor switch
  kHotspot,    ///< a fixed popular subset receives most multicasts
};

constexpr const char* ToString(DestPattern p) {
  switch (p) {
    case DestPattern::kUniform: return "uniform";
    case DestPattern::kClustered: return "clustered";
    case DestPattern::kHotspot: return "hotspot";
  }
  return "?";
}

struct LoadRunSpec {
  SimConfig cfg;
  SchemeKind scheme = SchemeKind::kTreeWorm;
  int degree = 8;                 ///< destinations per multicast
  double effective_load = 0.2;    ///< d * flits / interarrival (per host)
  DestPattern pattern = DestPattern::kUniform;
  /// kHotspot: fraction of multicasts addressed to the popular subset.
  static constexpr double hotspot_fraction = 0.8;
  Cycles warmup = 20'000;         ///< cold-start, not measured
  Cycles horizon = 300'000;       ///< generation stops here
  int topologies = 5;
  /// Optional trace sink: per-trial tracers (stamped with the trial
  /// index) are appended here in trial-index order after the merge.
  /// Tracing never forces serial execution.
  Tracer* tracer = nullptr;
  /// Ring-buffer cap per trial tracer; 0 = unbounded. Open-loop runs
  /// emit a lot of events — cap generously or filter afterwards.
  std::size_t trace_cap = 0;
};

struct LoadRunResult {
  double mean_latency = 0.0;  ///< cycles, completed multicasts only
  double p50_latency = 0.0;
  double p95_latency = 0.0;
  long completed = 0;
  long unfinished = 0;
  /// More than half the launched multicasts unfinished, mean latency
  /// above 100k cycles, or no completions at all.
  bool saturated = false;
  /// Delivered payload flits per host per cycle over the generation
  /// horizon (completed multicasts x degree x message flits, normalised
  /// like the effective applied load; equals the offered load until
  /// saturation).
  double achieved_throughput = 0.0;
  /// Hottest switch-to-switch link (busy fraction), averaged over
  /// topologies.
  double max_link_utilization = 0.0;
  /// Simulation events executed across all topology replicas.
  std::uint64_t events_executed = 0;
  /// Always-on metrics: each topology replica records into its own
  /// MetricsRegistry, merged here in trial-index order. Never forces
  /// serial execution.
  MetricsRegistry metrics;
};

LoadRunResult RunLoadSweepPoint(const LoadRunSpec& spec);

}  // namespace irmc
