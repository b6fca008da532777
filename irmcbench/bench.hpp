// The irmcsim benchmark: workload interface, per-batch results, and the
// host-time spans of the traced run.
//
// A workload owns a fixed set of inputs generated from the seed in
// Setup(). RunBatch() plays all of them once through the public API of
// libirmcsim (SystemBuilder, MakeScheme, RunTrials/PrepareTrial, Engine,
// McastDriver) and returns what the batch simulated and how long it took.
// The measured phase repeats batches; every batch must reproduce the
// first batch's deterministic results exactly.
#pragma once

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "core/executor.hpp"
#include "metrics/metrics.hpp"

namespace irmcbench {

inline constexpr std::array<irmc::SchemeKind, 4> kSchemes = {
    irmc::SchemeKind::kUnicastBinomial, irmc::SchemeKind::kNiKBinomial,
    irmc::SchemeKind::kTreeWorm, irmc::SchemeKind::kPathWorm};
inline constexpr int kNumSchemes = static_cast<int>(kSchemes.size());

inline std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// --- spans -----------------------------------------------------------------

/// The layer boundary a span times. Each is a call from the benchmark's
/// own code into one module of the library.
enum class Layer : std::uint8_t {
  kTrial,        ///< one RunTrials body (core)
  kTopology,     ///< SystemBuilder::Build (topology)
  kDriverSetup,  ///< Engine + McastDriver + network construction (core)
  kRunSlice,     ///< Engine::RunUntil over one slice (sim, network, core)
  kPlan,         ///< MulticastScheme::Plan (mcast)
  kLaunch,       ///< McastDriver::Launch (core)
};
inline constexpr int kNumLayers = 6;

inline const char* LayerName(Layer layer) {
  switch (layer) {
    case Layer::kTrial: return "core.trial";
    case Layer::kTopology: return "topology.build";
    case Layer::kDriverSetup: return "core.driver_setup";
    case Layer::kRunSlice: return "sim.run_slice";
    case Layer::kPlan: return "mcast.plan";
    case Layer::kLaunch: return "core.launch";
  }
  return "?";
}

struct Span {
  Layer layer;
  std::int32_t parent;  ///< index in the same log; -1 for a root
  std::int64_t start_ns;
  std::int64_t end_ns;
};

/// The spans of one trial (or of one setup), in start order. Written by
/// one thread only; kept in memory until the run ends.
class SpanLog {
 public:
  std::int32_t Begin(Layer layer, std::int32_t parent) {
    spans_.push_back(Span{layer, parent, NowNs(), 0});
    return static_cast<std::int32_t>(spans_.size() - 1);
  }
  void End(std::int32_t id) {
    spans_[static_cast<std::size_t>(id)].end_ns = NowNs();
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
};

/// Times one scope into `log`; a null log (the untraced run) records
/// nothing.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, Layer layer, std::int32_t parent)
      : log_(log), id_(log != nullptr ? log->Begin(layer, parent) : -1) {}
  ~ScopedSpan() {
    if (log_ != nullptr) log_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  std::int32_t id() const { return id_; }

 private:
  SpanLog* log_;
  std::int32_t id_;
};

// --- results ---------------------------------------------------------------

/// FNV-1a over 64-bit words: the digest of a batch's simulated results.
class Digest {
 public:
  void Mix(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xffU;
      h_ *= 1099511628211ULL;
    }
  }
  void Mix(const irmc::MulticastResult& r) {
    Mix(static_cast<std::uint64_t>(r.id));
    Mix(static_cast<std::uint64_t>(r.start));
    Mix(static_cast<std::uint64_t>(r.completion));
    for (const auto& [node, when] : r.deliveries) {
      Mix(static_cast<std::uint64_t>(node));
      Mix(static_cast<std::uint64_t>(when));
    }
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 1469598103934665603ULL;
};

/// True when `r` delivered to exactly the `count` nodes at `want`, each
/// once.
inline bool DeliveredExactlyOnce(const irmc::MulticastResult& r,
                                 const irmc::NodeId* want, int count) {
  if (static_cast<int>(r.deliveries.size()) != count) return false;
  std::vector<irmc::NodeId> got;
  got.reserve(r.deliveries.size());
  for (const auto& d : r.deliveries) got.push_back(d.first);
  std::vector<irmc::NodeId> expected(want, want + count);
  std::sort(got.begin(), got.end());
  std::sort(expected.begin(), expected.end());
  return got == expected;
}

struct BatchOptions {
  bool metrics = true;  ///< hand each trial a MetricsRegistry (the default)
  bool traced = false;  ///< record spans
};

/// Everything one batch produces. Fields marked (det.) depend only on the
/// seed; they must repeat exactly across batches and thread counts.
struct BatchResult {
  std::uint64_t digest = 0;  ///< (det.) every multicast's deliveries
  long launched = 0;         ///< (det.)
  long completed = 0;        ///< (det.)
  long failed = 0;           ///< (det.) unfinished or wrongly delivered
  double wall_s = 0.0;
  std::vector<double> trial_s;  ///< host time per trial, in trial order
  /// Host time per operation: one sample (single_sweep) or one run slice
  /// (load workloads).
  std::vector<double> op_us;
  std::array<double, kNumSchemes> latency_mean{};  ///< (det.) cycles
  double throughput = 0.0;    ///< (det.) delivered flits / host / cycle
  std::uint64_t events = 0;   ///< (det.)
  double max_link_util = 0.0;     ///< (det.)
  std::int64_t backlog_max = 0;   ///< (det.) sampled between run slices
  int live_max = 0;               ///< (det.) sampled between run slices
  /// (det.) per-scheme merged registries; empty when metrics are off.
  std::array<irmc::MetricsRegistry, kNumSchemes> metrics;
  /// (det.) values the fidelity check compares with the library runner.
  std::vector<double> fidelity;
  std::vector<SpanLog> spans;  ///< one log per trial; empty when untraced
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Clears the System cache, then builds every System and generates
  /// every input of a batch.
  virtual void Setup(SpanLog* log) = 0;

  virtual BatchResult RunBatch(const BatchOptions& opt) = 0;

  /// What the library's own runner (RunLoadSweepPoint or
  /// RunSingleMulticast) reports for the same configuration, in the
  /// order of BatchResult::fidelity.
  virtual std::vector<double> ReferenceFidelity() const = 0;

  /// Short display names of the BatchResult::fidelity entries.
  virtual std::vector<std::string> FidelityNames() const = 0;
};

/// `gate` selects the workload's small reference configuration, which the
/// correctness gate runs at a fixed seed.
std::unique_ptr<Workload> MakeLoadWorkload(bool flit, std::uint64_t seed,
                                           bool gate);
std::unique_ptr<Workload> MakeSingleSweepWorkload(std::uint64_t seed,
                                                  bool gate);

}  // namespace irmcbench
