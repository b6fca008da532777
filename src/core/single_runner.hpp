// Single-multicast latency experiments (paper Section 4.2).
//
// "We assume that exactly one multicast occurs in the system at any
// given time and that there is no other network traffic" — each sample
// runs on a fresh fabric: draw a source and a destination set, plan,
// play, record the completion latency. Results are averaged over
// multiple random topologies and draws, as in the paper.
//
// Each topology is one Trial (core/trial.hpp): trials execute on the
// parallel executor (IRMC_THREADS) and their outcomes merge in
// trial-index order, so the result is bit-identical for any thread
// count. Tracing follows the same pattern — each trial records into its
// own Tracer, appended in trial-index order — so traced runs stay
// parallel and export byte-identical streams for any thread count.
#pragma once

#include <cstddef>
#include <vector>

#include "common/stats.hpp"
#include "core/config.hpp"
#include "core/executor.hpp"
#include "mcast/scheme.hpp"

namespace irmc {

struct SingleRunSpec {
  SimConfig cfg;
  SchemeKind scheme = SchemeKind::kTreeWorm;
  int multicast_size = 8;        ///< number of destinations
  int topologies = 10;           ///< averaged over this many topologies
  int samples_per_topology = 4;  ///< random (source, dest-set) draws each
  RootPolicy root_policy = RootPolicy::kLowestId;
  /// Optional trace sink. Non-null makes each trial record into its own
  /// per-trial Tracer (stamped with the trial index); the per-trial
  /// streams are appended here in trial-index order after the merge.
  /// Tracing never forces serial execution.
  Tracer* tracer = nullptr;
  /// Ring-buffer cap applied to each per-trial tracer (most recent
  /// events kept, `dropped()` reports loss); 0 = unbounded.
  std::size_t trace_cap = 0;
};

struct SingleRunResult {
  double mean_latency = 0.0;  ///< cycles
  double min_latency = 0.0;
  double max_latency = 0.0;
  int samples = 0;
  /// Always-on metrics: each trial records into its own MetricsRegistry,
  /// merged here in trial-index order. Never forces serial execution.
  MetricsRegistry metrics;
};

/// Runs one scheme at one parameter point.
SingleRunResult RunSingleMulticast(const SingleRunSpec& spec);

/// Runs one planned multicast on a fresh driver over an existing system;
/// returns the full result (building block for tests and examples).
/// `metrics` (optional) receives driver/fabric/engine metrics for the
/// playout.
MulticastResult PlayOnce(const System& sys, const SimConfig& cfg,
                         McastPlan plan, Tracer* tracer = nullptr,
                         MetricsRegistry* metrics = nullptr);

}  // namespace irmc
