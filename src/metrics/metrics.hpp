// Always-on metrics: counters, gauges, and log-binned histograms.
//
// Every Trial owns one MetricsRegistry. The sim engine, fabric, flit
// engine, and McastDriver name their metrics in static tables of
// MetricSpecs and bind each table (MetricsRegistry::Bind). A registry
// stores a bound table as one block of rows, in table order, keyed by
// the table's address: binding a table on a fresh registry makes one
// allocation and builds no name, binding it again finds the block, and
// a hot-path record is a guarded integer add through a raw pointer
// into it — cheap enough to leave always on (irmcbench's
// metrics.overhead_pct measures the cost against a null registry).
// Names are attached only when a registry is read by name, merged by
// name or exported.
//
// Determinism contract: every metric value is either an integer
// (counters, histogram bins/sum/min/max) or a double combined by an
// order-independent operation (gauge max/min) or summed in trial-index
// order by TrialOutcome::Merge. Exports sort by name. A parallel sweep
// therefore serialises to byte-identical JSON for any IRMC_THREADS
// value — the same per-trial-ownership + ordered-merge pattern the
// Tracer uses (trace/tracer.hpp), so neither forces serial execution.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace irmc {

/// Monotonic event/quantity count. Merge = sum (exact, associative).
struct Counter {
  std::int64_t value = 0;

  void Add(std::int64_t delta = 1) { value += delta; }
};

/// How two gauges combine when registries merge.
enum class GaugeMode : std::uint8_t {
  kSum,  ///< totals (merged in trial-index order -> deterministic)
  kMax,  ///< high-water marks (order-independent)
  kMin,  ///< low-water marks (order-independent)
};

const char* ToString(GaugeMode mode);

/// Point-in-time measurement. `set` distinguishes "never recorded" from
/// a recorded zero so kMax/kMin merges ignore untouched gauges.
struct Gauge {
  double value = 0.0;
  bool set = false;
  GaugeMode mode = GaugeMode::kSum;

  void Set(double v);           ///< combine `v` into the gauge per mode
  void Merge(const Gauge& other);
};

/// Log2-binned histogram of non-negative integer samples (cycles,
/// fan-outs, flit counts). Bin 0 holds values <= 0; bin b >= 1 holds
/// [2^(b-1), 2^b). All state is integral, so Merge is exact and
/// associative.
class Histogram {
 public:
  static constexpr int kBins = 64;

  void Add(std::int64_t v);
  /// Adds `count` (>= 0) samples of value `v`: the same state, bit for
  /// bit, as `count` calls of Add(v).
  void Add(std::int64_t v, std::int64_t count);
  void Merge(const Histogram& other);

  std::int64_t count() const { return count_; }
  std::int64_t sum() const { return sum_; }
  std::int64_t min() const { return min_; }  ///< requires count() > 0
  std::int64_t max() const { return max_; }  ///< requires count() > 0
  double Mean() const;
  std::int64_t bin(int b) const { return bins_.at(static_cast<std::size_t>(b)); }

  /// Quantile estimate from the log2 bins (see BinnedQuantile); exact at
  /// q=0 and q=1 (returns min/max), interpolated in between. Requires
  /// count() > 0 and q in [0,1].
  double Quantile(double q) const;

  /// Bin index a value lands in.
  static int BinOf(std::int64_t v);
  /// Inclusive lower edge of a bin (0 for bin 0).
  static std::int64_t BinLower(int b);
  /// Exclusive upper edge of a bin.
  static std::int64_t BinUpper(int b);

 private:
  std::int64_t count_ = 0;
  std::int64_t sum_ = 0;
  std::int64_t min_ = 0;
  std::int64_t max_ = 0;
  std::array<std::int64_t, kBins> bins_{};
};

/// One occupied bin of a serialised histogram: [lower, upper) with
/// `count` samples. The report layer parses ledger/sidecar JSON into
/// this shape and derives the same quantiles the live Histogram does.
struct BinSlice {
  std::int64_t lower = 0;
  std::int64_t upper = 0;  ///< exclusive
  std::int64_t count = 0;
};

/// Quantile estimate over binned samples — the single definition used by
/// the live Histogram, the metrics CSV export, and the run ledger/diff
/// layer (tests/test_metrics.cpp pins it against exact sample sets).
///
/// Convention (matches SampleSet::Quantile's fractional rank):
///   r = q * (total - 1); the value at integer rank k is read from the
///   bin holding k, with the bin's samples spread linearly over its
///   effective inclusive range [max(lower, min_v), min(upper-1, max_v)]
///   (a single-sample bin reads its range midpoint); fractional ranks
///   interpolate linearly between adjacent integer ranks.
/// `bins` must be ascending and non-overlapping with positive counts;
/// requires a positive total count and q in [0,1].
double BinnedQuantile(const std::vector<BinSlice>& bins, std::int64_t min_v,
                      std::int64_t max_v, double q);

/// What a MetricSpec names.
enum class MetricKind : std::uint8_t { kCounter, kGauge, kHistogram };

/// One metric a component records, named in full. Components list
/// theirs in static tables (one per point where the names enter a
/// registry) and bind each table once per registry.
struct MetricSpec {
  MetricKind kind = MetricKind::kCounter;
  const char* name = nullptr;
  GaugeMode mode = GaugeMode::kSum;  ///< gauges only
};

/// The rows a bound table resolved to, in table order: a view into the
/// registry's block for that table, valid while the registry holds it
/// (until the registry is destroyed or assigned to).
class MetricSlots {
 public:
  /// The entry of table row `i`; the row must name a metric of that
  /// kind.
  Counter& counter(std::size_t i) const;
  Gauge& gauge(std::size_t i) const;
  Histogram& histogram(std::size_t i) const;

 private:
  friend class MetricsRegistry;
  MetricSlots(std::span<const MetricSpec> table, std::byte* rows)
      : table_(table), rows_(rows) {}
  std::byte* Slot(std::size_t i, MetricKind kind) const;

  std::span<const MetricSpec> table_;
  std::byte* rows_;
};

/// Metric store. Bound tables keep their rows in one block each; names
/// no table declares live in name-keyed maps. Get* returns the row of
/// the first bound table that declares the name, or else interns the
/// name; either reference stays valid for the registry's lifetime, so
/// callers resolve once and record through the pointer.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  /// A copy owns copies of every block; a move takes the blocks (rows
  /// keep their addresses) and leaves the source empty.
  MetricsRegistry(const MetricsRegistry& other);
  MetricsRegistry(MetricsRegistry&& other) noexcept = default;
  MetricsRegistry& operator=(const MetricsRegistry& other);
  MetricsRegistry& operator=(MetricsRegistry&& other) noexcept = default;

  Counter& GetCounter(std::string_view name);
  Gauge& GetGauge(std::string_view name, GaugeMode mode = GaugeMode::kSum);
  Histogram& GetHistogram(std::string_view name);

  /// The rows of `table` (a table with static storage: its address
  /// identifies it). The first Bind of a table on this registry
  /// allocates its block, with every row zero; later Binds find it.
  /// Neither builds a name.
  MetricSlots Bind(std::span<const MetricSpec> table);

  /// Union-merge: counters add, gauges combine per their mode (modes
  /// must agree), histogram bins add. A table both registries bound
  /// merges row by row; the rest merges by name. Applied in trial-index
  /// order by TrialOutcome::Merge, which makes the result
  /// thread-count-invariant.
  void Merge(const MetricsRegistry& other);

  using CounterMap = std::map<std::string, Counter, std::less<>>;
  using GaugeMap = std::map<std::string, Gauge, std::less<>>;
  using HistogramMap = std::map<std::string, Histogram, std::less<>>;

  /// Every metric of a kind by name, sorted, as one entry per name
  /// (rows and interned entries of the same name fold together, as a
  /// merge would). Builds the names on first use and refreshes the
  /// values in place on every call, so references and iterators from
  /// an earlier call stay valid. Not safe to call on one registry from
  /// two threads at once.
  const CounterMap& counters() const;
  const GaugeMap& gauges() const;
  const HistogramMap& histograms() const;

  bool Empty() const {
    return tables_ == nullptr && counters_.empty() && gauges_.empty() &&
           histograms_.empty();
  }

 private:
  /// One bound table: a header, then its rows in table order, in one
  /// allocation. Blocks chain in bind order.
  struct Table;
  struct TableDeleter {
    void operator()(Table* table) const noexcept;
  };
  using TablePtr = std::unique_ptr<Table, TableDeleter>;

  static TablePtr NewTable(std::span<const MetricSpec> spec);
  static TablePtr CloneTable(const Table& table);
  /// The block bound for the table at `spec`, or null.
  Table* Find(const MetricSpec* spec) const;
  /// Chains `table` after the last block.
  Table* Append(TablePtr table);
  /// The row of the first bound table declaring (kind, name), or null.
  std::byte* FindRow(MetricKind kind, std::string_view name) const;
  /// Get*: the row declaring `name`, else the by-name entry in `named`
  /// (inserted as `fresh` when absent).
  template <class Map>
  typename Map::mapped_type& Entry(Map& named, std::string_view name,
                                   const typename Map::mapped_type& fresh);
  /// Refreshes `view` in place: every row of its kind and every entry
  /// of `named`, folded by name.
  template <class Map>
  const Map& View(const Map& named, Map& view) const;

  TablePtr tables_;
  // Names no bound table declared when they were first asked for.
  CounterMap counters_;
  GaugeMap gauges_;
  HistogramMap histograms_;
  // The by-name views counters()/gauges()/histograms() hand out.
  mutable CounterMap counter_view_;
  mutable GaugeMap gauge_view_;
  mutable HistogramMap histogram_view_;
};

}  // namespace irmc
