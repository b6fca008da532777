// The Trial abstraction: one self-contained unit of experiment work.
//
// Every figure in the paper is an average over independent trials — a
// trial builds its own System for `cfg.seed + trial_index`, owns its own
// Engine, McastDriver, and Rng streams, and returns a TrialOutcome.
// Nothing mutable is shared between trials (audited: the simulation core
// has no globals; RNGs, tracers, and per-node resources are all owned by
// the trial's objects), so RunTrials may execute them on the parallel
// executor. Outcomes are always merged in trial-index order, making the
// reduced result bit-identical for any IRMC_THREADS value.
//
// Used by RunSingleMulticast (trial = one topology's sample draws),
// RunLoadSweepPoint (trial = one open-loop topology replica), and
// RunDsmInvalidation (trial = one DSM topology replica).
#pragma once

#include <cstdint>
#include <functional>

#include "common/stats.hpp"
#include "core/config.hpp"
#include "metrics/metrics.hpp"
#include "trace/tracer.hpp"

namespace irmc {

/// Everything a trial body receives: the shared (read-only) config, its
/// index in the sweep point, and the topology seed derived from it.
struct TrialContext {
  const SimConfig* cfg = nullptr;
  int trial_index = 0;
  /// cfg->seed + trial_index — the per-trial System::Build seed every
  /// runner uses. Bodies derive further streams (traffic RNGs) from
  /// cfg->seed and trial_index exactly as the serial runners always did.
  std::uint64_t derived_seed = 0;
};

/// What one trial produces. Runners use the subset they need; Merge
/// combines outcomes pairwise and is only ever applied in trial-index
/// order.
struct TrialOutcome {
  StreamingStats latency;   ///< per-sample latencies (single runner)
  SampleSet samples;        ///< stored latencies (load/DSM runners)
  long launched = 0;        ///< measured multicasts / writes started
  long completed = 0;       ///< measured multicasts / writes finished
  double util_sum = 0.0;    ///< per-trial max link utilization (summed)
  std::uint64_t events = 0; ///< engine events executed
  /// Per-trial metric registry (counters/gauges/histograms). Merged in
  /// trial-index order like everything else, so the aggregate registry
  /// — and its serialised JSON — is bit-identical for any IRMC_THREADS.
  MetricsRegistry metrics;
  /// Per-trial trace (empty unless the runner attached one). Appended in
  /// trial-index order by Merge, so a traced sweep's merged event stream
  /// — and its serialised export — is byte-identical for any
  /// IRMC_THREADS. This is what lets traced sweeps stay parallel.
  Tracer trace;

  void Merge(const TrialOutcome& other);
};

using TrialFn = std::function<TrialOutcome(const TrialContext&)>;

/// Runs `count` trials of `fn` on the parallel executor and returns the
/// outcomes merged in trial-index order. The crew is ParallelThreads()
/// wide: SetParallelThreads(1), IRMC_THREADS=1 or the tools' `--threads
/// 1` run one trial at a time (tracing needs none of them: each trial
/// owns its own Tracer).
TrialOutcome RunTrials(const SimConfig& cfg, int count, const TrialFn& fn);

}  // namespace irmc
