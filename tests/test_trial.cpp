// Trial abstraction + parallel executor: coverage, ordered merge, and
// the cross-thread-count determinism regression the refactor promises —
// sweep results must be bit-identical for IRMC_THREADS=1 and >=4.
//
// This suite is also the TSan smoke target: build with
// -DIRMC_SANITIZE=thread and run `ctest -R trial_determinism_smoke` to
// catch cross-trial data races.
#include "core/trial.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/load_runner.hpp"
#include "core/parallel.hpp"
#include "core/single_runner.hpp"
#include "trace/tracer.hpp"
#include "workloads/dsm.hpp"

namespace irmc {
namespace {

/// Restores the environment/default thread resolution on scope exit.
struct ThreadsGuard {
  ~ThreadsGuard() { SetParallelThreads(0); }
};

TEST(ParallelExecutor, CoversEveryIndexExactlyOnce) {
  ParallelExecutor exec(8);
  std::vector<std::atomic<int>> hits(257);
  exec.ForIndex(257, [&](int i) {
    hits[static_cast<std::size_t>(i)].fetch_add(1);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelExecutor, MoreThreadsThanWork) {
  ParallelExecutor exec(16);
  std::atomic<int> sum{0};
  exec.ForIndex(3, [&](int i) { sum.fetch_add(i + 1); });
  EXPECT_EQ(sum.load(), 6);
}

TEST(ParallelExecutor, OneThreadRunsInlineInOrder) {
  ParallelExecutor exec(1);
  std::vector<int> order;
  const auto caller = std::this_thread::get_id();
  exec.ForIndex(5, [&](int i) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    order.push_back(i);  // safe: serial by construction
  });
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(ParallelExecutor, ZeroOrNegativeCountIsANoOp) {
  ParallelExecutor exec(4);
  std::atomic<int> calls{0};
  exec.ForIndex(0, [&](int) { calls.fetch_add(1); });
  exec.ForIndex(-3, [&](int) { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), 0);
}

TEST(ParallelExecutor, ClampsThreadCountToAtLeastOne) {
  ParallelExecutor exec(-2);
  EXPECT_EQ(exec.threads(), 1);
}

TEST(ParallelExecutor, PropagatesFirstException) {
  ParallelExecutor exec(4);
  EXPECT_THROW(exec.ForIndex(64,
                             [&](int i) {
                               if (i == 7)
                                 throw std::runtime_error("trial failed");
                             }),
               std::runtime_error);
}

TEST(ParallelThreadsResolution, OverrideWinsAndZeroRestores) {
  ThreadsGuard guard;
  SetParallelThreads(3);
  EXPECT_EQ(ParallelThreads(), 3);
  SetParallelThreads(0);
  EXPECT_GE(ParallelThreads(), 1);  // env/default resolution
}

TEST(Trial, DerivedSeedIsConfigSeedPlusIndex) {
  ThreadsGuard guard;
  SetParallelThreads(4);
  SimConfig cfg;
  cfg.seed = 1000;
  const TrialOutcome merged =
      RunTrials(cfg, 16, [&](const TrialContext& ctx) {
        EXPECT_EQ(ctx.cfg, &cfg);
        EXPECT_EQ(ctx.derived_seed,
                  1000u + static_cast<std::uint64_t>(ctx.trial_index));
        TrialOutcome out;
        out.completed = 1;
        return out;
      });
  EXPECT_EQ(merged.completed, 16);
}

TEST(Trial, MergesOutcomesInTrialIndexOrder) {
  ThreadsGuard guard;
  SetParallelThreads(8);
  SimConfig cfg;
  const TrialOutcome merged =
      RunTrials(cfg, 64, [](const TrialContext& ctx) {
        TrialOutcome out;
        out.samples.Add(static_cast<double>(ctx.trial_index));
        out.latency.Add(static_cast<double>(ctx.trial_index));
        out.util_sum = static_cast<double>(ctx.trial_index);
        return out;
      });
  ASSERT_EQ(merged.samples.count(), 64u);
  for (int i = 0; i < 64; ++i)
    EXPECT_DOUBLE_EQ(merged.samples.values()[static_cast<std::size_t>(i)],
                     static_cast<double>(i));
  EXPECT_EQ(merged.latency.count(), 64u);
  EXPECT_DOUBLE_EQ(merged.latency.min(), 0.0);
  EXPECT_DOUBLE_EQ(merged.latency.max(), 63.0);
  EXPECT_DOUBLE_EQ(merged.util_sum, 63.0 * 64.0 / 2.0);
}

TEST(Trial, OneThreadRunsOneTrialAtATime) {
  ThreadsGuard guard;
  SetParallelThreads(1);
  SimConfig cfg;
  std::atomic<int> active{0};
  RunTrials(cfg, 8, [&](const TrialContext&) {
    EXPECT_EQ(active.fetch_add(1), 0);
    active.fetch_sub(1);
    return TrialOutcome{};
  });
}

TEST(Trial, TracedRunStaysParallelAndRecordsEveryTrial) {
  // Tracing must not serialise the sweep: each trial records into its
  // own Tracer (stamped with its index), appended in trial-index order
  // into the caller's sink — so a wide executor still sees events from
  // every trial, ordered by trial.
  ThreadsGuard guard;
  SetParallelThreads(8);
  Tracer tracer;
  SingleRunSpec spec;
  spec.multicast_size = 4;
  spec.topologies = 3;
  spec.samples_per_topology = 1;
  spec.tracer = &tracer;
  const SingleRunResult with_tracer = RunSingleMulticast(spec);
  EXPECT_EQ(with_tracer.samples, 3);
  EXPECT_GT(tracer.size(), 0u);

  std::set<std::int32_t> trials_seen;
  std::int32_t prev_trial = 0;
  tracer.ForEach([&](const TraceEvent& e) {
    trials_seen.insert(e.trial);
    EXPECT_GE(e.trial, prev_trial);  // merged in trial-index order
    prev_trial = e.trial;
  });
  EXPECT_EQ(trials_seen.size(), 3u);

  // The traced run reports the same statistics as an untraced one.
  spec.tracer = nullptr;
  const SingleRunResult without = RunSingleMulticast(spec);
  EXPECT_EQ(with_tracer.mean_latency, without.mean_latency);
  EXPECT_EQ(with_tracer.min_latency, without.min_latency);
  EXPECT_EQ(with_tracer.max_latency, without.max_latency);
}

// --- the determinism regression: bit-identical across thread counts ---

TEST(TrialDeterminism, SingleRunnerIdenticalAcrossThreadCounts) {
  ThreadsGuard guard;
  SingleRunSpec spec;
  spec.scheme = SchemeKind::kPathWorm;
  spec.multicast_size = 7;
  spec.topologies = 4;
  spec.samples_per_topology = 2;
  SetParallelThreads(1);
  const SingleRunResult serial = RunSingleMulticast(spec);
  SetParallelThreads(4);
  const SingleRunResult parallel = RunSingleMulticast(spec);
  EXPECT_EQ(serial.samples, parallel.samples);
  EXPECT_EQ(serial.mean_latency, parallel.mean_latency);
  EXPECT_EQ(serial.min_latency, parallel.min_latency);
  EXPECT_EQ(serial.max_latency, parallel.max_latency);
}

TEST(TrialDeterminism, LoadRunnerIdenticalAcrossThreadCounts) {
  ThreadsGuard guard;
  LoadRunSpec spec;
  spec.scheme = SchemeKind::kNiKBinomial;
  spec.degree = 8;
  spec.effective_load = 0.1;
  spec.warmup = 5'000;
  spec.horizon = 40'000;
  spec.topologies = 4;
  SetParallelThreads(1);
  const LoadRunResult serial = RunLoadSweepPoint(spec);
  SetParallelThreads(4);
  const LoadRunResult parallel = RunLoadSweepPoint(spec);
  EXPECT_EQ(serial.completed, parallel.completed);
  EXPECT_EQ(serial.unfinished, parallel.unfinished);
  EXPECT_EQ(serial.saturated, parallel.saturated);
  EXPECT_EQ(serial.mean_latency, parallel.mean_latency);
  EXPECT_EQ(serial.p50_latency, parallel.p50_latency);
  EXPECT_EQ(serial.p95_latency, parallel.p95_latency);
  EXPECT_EQ(serial.achieved_throughput, parallel.achieved_throughput);
  EXPECT_EQ(serial.max_link_utilization, parallel.max_link_utilization);
  EXPECT_EQ(serial.events_executed, parallel.events_executed);
}

TEST(TrialDeterminism, DsmRunnerIdenticalAcrossThreadCounts) {
  ThreadsGuard guard;
  SimConfig cfg;
  DsmParams params;
  params.sharers_per_line = 6;
  params.topologies = 3;
  SetParallelThreads(1);
  const DsmResult serial =
      RunDsmInvalidation(cfg, SchemeKind::kTreeWorm, params);
  SetParallelThreads(4);
  const DsmResult parallel =
      RunDsmInvalidation(cfg, SchemeKind::kTreeWorm, params);
  EXPECT_EQ(serial.writes_started, parallel.writes_started);
  EXPECT_EQ(serial.writes_completed, parallel.writes_completed);
  EXPECT_EQ(serial.mean_write_latency, parallel.mean_write_latency);
  EXPECT_EQ(serial.p95_write_latency, parallel.p95_write_latency);
}

}  // namespace
}  // namespace irmc
