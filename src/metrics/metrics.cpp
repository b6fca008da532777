#include "metrics/metrics.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

#include "common/expect.hpp"

namespace irmc {

const char* ToString(GaugeMode mode) {
  switch (mode) {
    case GaugeMode::kSum: return "sum";
    case GaugeMode::kMax: return "max";
    case GaugeMode::kMin: return "min";
  }
  return "?";
}

void Gauge::Set(double v) {
  if (!set) {
    value = v;
    set = true;
    return;
  }
  switch (mode) {
    case GaugeMode::kSum: value += v; break;
    case GaugeMode::kMax: value = std::max(value, v); break;
    case GaugeMode::kMin: value = std::min(value, v); break;
  }
}

void Gauge::Merge(const Gauge& other) {
  IRMC_EXPECT(mode == other.mode);
  if (other.set) Set(other.value);
}

int Histogram::BinOf(std::int64_t v) {
  if (v <= 0) return 0;
  // bit_width(v) = floor(log2 v) + 1, so v in [2^(b-1), 2^b) -> bin b.
  return std::bit_width(static_cast<std::uint64_t>(v));
}

std::int64_t Histogram::BinLower(int b) {
  IRMC_EXPECT(b >= 0 && b < kBins);
  return b == 0 ? 0 : std::int64_t{1} << (b - 1);
}

std::int64_t Histogram::BinUpper(int b) {
  IRMC_EXPECT(b >= 0 && b < kBins);
  return std::int64_t{1} << b;
}

void Histogram::Add(std::int64_t v) {
  bins_[static_cast<std::size_t>(BinOf(v))] += 1;
  if (count_ == 0) {
    min_ = v;
    max_ = v;
  } else {
    min_ = std::min(min_, v);
    max_ = std::max(max_, v);
  }
  ++count_;
  sum_ += v;
}

void Histogram::Add(std::int64_t v, std::int64_t count) {
  IRMC_EXPECT(count >= 0);
  if (count == 0) return;
  bins_[static_cast<std::size_t>(BinOf(v))] += count;
  if (count_ == 0) {
    min_ = v;
    max_ = v;
  } else {
    min_ = std::min(min_, v);
    max_ = std::max(max_, v);
  }
  count_ += count;
  sum_ += v * count;
}

void Histogram::Merge(const Histogram& other) {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    min_ = other.min_;
    max_ = other.max_;
  } else {
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
  }
  count_ += other.count_;
  sum_ += other.sum_;
  for (std::size_t b = 0; b < bins_.size(); ++b) bins_[b] += other.bins_[b];
}

double Histogram::Mean() const {
  return count_ == 0 ? 0.0
                     : static_cast<double>(sum_) / static_cast<double>(count_);
}

double Histogram::Quantile(double q) const {
  IRMC_EXPECT(count_ > 0);
  std::vector<BinSlice> slices;
  for (int b = 0; b < kBins; ++b)
    if (bins_[static_cast<std::size_t>(b)] > 0)
      slices.push_back({BinLower(b), BinUpper(b),
                        bins_[static_cast<std::size_t>(b)]});
  return BinnedQuantile(slices, min_, max_, q);
}

namespace {

/// Value estimate at integer rank `k` (0-based, ascending): the bin
/// holding rank k spreads its samples linearly over its effective
/// inclusive range; a single-sample bin reads the range midpoint.
double ValueAtRank(const std::vector<BinSlice>& bins, std::int64_t min_v,
                   std::int64_t max_v, std::int64_t k) {
  std::int64_t cum = 0;
  for (const BinSlice& s : bins) {
    if (k < cum + s.count) {
      const double lo = static_cast<double>(std::max(s.lower, min_v));
      const double hi = static_cast<double>(std::min(s.upper - 1, max_v));
      if (s.count == 1) return (lo + hi) / 2.0;
      return lo + (hi - lo) * static_cast<double>(k - cum) /
                      static_cast<double>(s.count - 1);
    }
    cum += s.count;
  }
  IRMC_EXPECT(false && "rank beyond total bin count");
  return 0.0;
}

}  // namespace

double BinnedQuantile(const std::vector<BinSlice>& bins, std::int64_t min_v,
                      std::int64_t max_v, double q) {
  IRMC_EXPECT(q >= 0.0 && q <= 1.0);
  std::int64_t total = 0;
  for (const BinSlice& s : bins) total += s.count;
  IRMC_EXPECT(total > 0);
  if (q <= 0.0) return static_cast<double>(min_v);
  if (q >= 1.0) return static_cast<double>(max_v);
  const double r = q * static_cast<double>(total - 1);
  const auto k0 = static_cast<std::int64_t>(r);
  const std::int64_t k1 = std::min(k0 + 1, total - 1);
  const double v0 = ValueAtRank(bins, min_v, max_v, k0);
  const double v1 = ValueAtRank(bins, min_v, max_v, k1);
  return v0 + (v1 - v0) * (r - static_cast<double>(k0));
}

namespace {

/// Bytes of one row of `kind` in a table block. Every entry is
/// trivially copyable and destructible with an alignment of at most 8,
/// so a block is plain bytes: rows are laid out back to back, copied
/// with memcpy and freed without destructors.
constexpr std::size_t RowBytes(MetricKind kind) {
  switch (kind) {
    case MetricKind::kCounter: return sizeof(Counter);
    case MetricKind::kGauge: return sizeof(Gauge);
    case MetricKind::kHistogram: return sizeof(Histogram);
  }
  return 0;
}

template <class T>
constexpr bool kPlainRow = std::is_trivially_copyable_v<T> &&
                           std::is_trivially_destructible_v<T> &&
                           alignof(T) <= 8 && sizeof(T) % 8 == 0;
static_assert(kPlainRow<Counter> && kPlainRow<Gauge> &&
              kPlainRow<Histogram>);

template <class T>
constexpr MetricKind kKindOf = MetricKind::kCounter;  // Counter
template <>
constexpr MetricKind kKindOf<Gauge> = MetricKind::kGauge;
template <>
constexpr MetricKind kKindOf<Histogram> = MetricKind::kHistogram;

/// The entry a row at `at` holds.
template <class T>
T& RowAt(std::byte* at) {
  return *std::launder(reinterpret_cast<T*>(at));
}

std::size_t RowOffset(std::span<const MetricSpec> table, std::size_t row) {
  std::size_t offset = 0;
  for (std::size_t i = 0; i < row; ++i) offset += RowBytes(table[i].kind);
  return offset;
}

/// Calls visit(spec, row) for every row of a block, in table order.
template <class Visit>
void ForEachRow(std::span<const MetricSpec> table, std::byte* rows,
                Visit visit) {
  for (const MetricSpec& spec : table) {
    visit(spec, rows);
    rows += RowBytes(spec.kind);
  }
}

/// Calls f with the entry of a `kind` row at `at`.
template <class F>
void WithRow(MetricKind kind, std::byte* at, F f) {
  switch (kind) {
    case MetricKind::kCounter: f(RowAt<Counter>(at)); break;
    case MetricKind::kGauge: f(RowAt<Gauge>(at)); break;
    case MetricKind::kHistogram: f(RowAt<Histogram>(at)); break;
  }
}

/// An entry that has recorded nothing (a gauge keeps its mode).
Counter Cleared(const Counter&) { return {}; }
Gauge Cleared(const Gauge& g) { return {0.0, false, g.mode}; }
Histogram Cleared(const Histogram&) { return {}; }

/// Folds `from` into `into` as a merge does.
void Fold(Counter& into, const Counter& from) { into.Add(from.value); }
void Fold(Gauge& into, const Gauge& from) { into.Merge(from); }
void Fold(Histogram& into, const Histogram& from) { into.Merge(from); }

/// Folds `entry` into the by-name view `view` under `name`.
template <class Map, class T>
void FoldInto(Map& view, std::string_view name, const T& entry) {
  auto it = view.find(name);
  if (it == view.end()) it = view.emplace(name, Cleared(entry)).first;
  Fold(it->second, entry);
}

}  // namespace

std::byte* MetricSlots::Slot(std::size_t i, MetricKind kind) const {
  IRMC_EXPECT(i < table_.size() && table_[i].kind == kind);
  return rows_ + RowOffset(table_, i);
}

Counter& MetricSlots::counter(std::size_t i) const {
  return RowAt<Counter>(Slot(i, MetricKind::kCounter));
}

Gauge& MetricSlots::gauge(std::size_t i) const {
  return RowAt<Gauge>(Slot(i, MetricKind::kGauge));
}

Histogram& MetricSlots::histogram(std::size_t i) const {
  return RowAt<Histogram>(Slot(i, MetricKind::kHistogram));
}

struct MetricsRegistry::Table {
  std::span<const MetricSpec> spec;
  std::size_t bytes;  ///< of the rows
  TablePtr next;

  /// The rows follow the header (a multiple of 8 bytes).
  std::byte* rows() const {
    static_assert(sizeof(Table) % 8 == 0);
    return reinterpret_cast<std::byte*>(const_cast<Table*>(this) + 1);
  }
};

void MetricsRegistry::TableDeleter::operator()(Table* table) const noexcept {
  table->~Table();
  ::operator delete(table);
}

MetricsRegistry::TablePtr MetricsRegistry::NewTable(
    std::span<const MetricSpec> spec) {
  const std::size_t bytes = RowOffset(spec, spec.size());
  void* raw = ::operator new(sizeof(Table) + bytes);
  TablePtr table(::new (raw) Table{spec, bytes, nullptr});
  ForEachRow(spec, table->rows(), [](const MetricSpec& row, std::byte* at) {
    switch (row.kind) {
      case MetricKind::kCounter: ::new (at) Counter{}; break;
      case MetricKind::kGauge: ::new (at) Gauge{0.0, false, row.mode}; break;
      case MetricKind::kHistogram: ::new (at) Histogram{}; break;
    }
  });
  return table;
}

MetricsRegistry::TablePtr MetricsRegistry::CloneTable(const Table& table) {
  void* raw = ::operator new(sizeof(Table) + table.bytes);
  TablePtr copy(::new (raw) Table{table.spec, table.bytes, nullptr});
  std::memcpy(copy->rows(), table.rows(), table.bytes);
  return copy;
}

MetricsRegistry::MetricsRegistry(const MetricsRegistry& other)
    : counters_(other.counters_),
      gauges_(other.gauges_),
      histograms_(other.histograms_) {
  for (const Table* t = other.tables_.get(); t; t = t->next.get())
    Append(CloneTable(*t));
}

MetricsRegistry& MetricsRegistry::operator=(const MetricsRegistry& other) {
  if (this != &other) *this = MetricsRegistry(other);
  return *this;
}

MetricsRegistry::Table* MetricsRegistry::Find(const MetricSpec* spec) const {
  for (Table* t = tables_.get(); t; t = t->next.get())
    if (t->spec.data() == spec) return t;
  return nullptr;
}

MetricsRegistry::Table* MetricsRegistry::Append(TablePtr table) {
  TablePtr* end = &tables_;
  while (*end) end = &(*end)->next;
  *end = std::move(table);
  return end->get();
}

std::byte* MetricsRegistry::FindRow(MetricKind kind,
                                    std::string_view name) const {
  for (const Table* t = tables_.get(); t; t = t->next.get()) {
    std::byte* found = nullptr;
    ForEachRow(t->spec, t->rows(), [&](const MetricSpec& row, std::byte* at) {
      if (found == nullptr && row.kind == kind && name == row.name)
        found = at;
    });
    if (found) return found;
  }
  return nullptr;
}

template <class Map>
typename Map::mapped_type& MetricsRegistry::Entry(
    Map& named, std::string_view name,
    const typename Map::mapped_type& fresh) {
  using T = typename Map::mapped_type;
  if (std::byte* row = FindRow(kKindOf<T>, name)) return RowAt<T>(row);
  auto it = named.find(name);
  if (it == named.end()) it = named.emplace(name, fresh).first;
  return it->second;
}

Counter& MetricsRegistry::GetCounter(std::string_view name) {
  return Entry(counters_, name, Counter{});
}

Gauge& MetricsRegistry::GetGauge(std::string_view name, GaugeMode mode) {
  Gauge& g = Entry(gauges_, name, Gauge{0.0, false, mode});
  IRMC_EXPECT(g.mode == mode);
  return g;
}

Histogram& MetricsRegistry::GetHistogram(std::string_view name) {
  return Entry(histograms_, name, Histogram{});
}

MetricSlots MetricsRegistry::Bind(std::span<const MetricSpec> table) {
  Table* t = Find(table.data());
  if (t != nullptr)
    IRMC_EXPECT(t->spec.size() == table.size());
  else
    t = Append(NewTable(table));
  return MetricSlots(table, t->rows());
}

void MetricsRegistry::Merge(const MetricsRegistry& other) {
  for (const Table* from = other.tables_.get(); from; from = from->next.get()) {
    const Table* into = Find(from->spec.data());
    if (into == nullptr) {
      Append(CloneTable(*from));
      continue;
    }
    std::byte* to = into->rows();
    ForEachRow(from->spec, from->rows(),
               [&to](const MetricSpec& row, std::byte* at) {
                 WithRow(row.kind, at, [to](const auto& entry) {
                   using T = std::decay_t<decltype(entry)>;
                   Fold(RowAt<T>(to), entry);
                 });
                 to += RowBytes(row.kind);
               });
  }
  for (const auto& [name, c] : other.counters_) Fold(GetCounter(name), c);
  for (const auto& [name, g] : other.gauges_) Fold(GetGauge(name, g.mode), g);
  for (const auto& [name, h] : other.histograms_) Fold(GetHistogram(name), h);
}

template <class Map>
const Map& MetricsRegistry::View(const Map& named, Map& view) const {
  using T = typename Map::mapped_type;
  for (auto& entry : view) entry.second = Cleared(entry.second);
  for (const Table* t = tables_.get(); t; t = t->next.get())
    ForEachRow(t->spec, t->rows(),
               [&view](const MetricSpec& row, std::byte* at) {
                 if (row.kind == kKindOf<T>)
                   FoldInto(view, row.name, RowAt<T>(at));
               });
  for (const auto& [name, entry] : named) FoldInto(view, name, entry);
  return view;
}

const MetricsRegistry::CounterMap& MetricsRegistry::counters() const {
  return View(counters_, counter_view_);
}

const MetricsRegistry::GaugeMap& MetricsRegistry::gauges() const {
  return View(gauges_, gauge_view_);
}

const MetricsRegistry::HistogramMap& MetricsRegistry::histograms() const {
  return View(histograms_, histogram_view_);
}

}  // namespace irmc
