#include "metrics/metrics.hpp"

#include <algorithm>
#include <bit>
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

void* MetricSlots::Slot(std::size_t i, MetricKind kind) const {
  IRMC_EXPECT(i < table_.size() && table_[i].kind == kind);
  return slots_[i];
}

Counter& MetricSlots::counter(std::size_t i) const {
  return *static_cast<Counter*>(Slot(i, MetricKind::kCounter));
}

Gauge& MetricSlots::gauge(std::size_t i) const {
  return *static_cast<Gauge*>(Slot(i, MetricKind::kGauge));
}

Histogram& MetricSlots::histogram(std::size_t i) const {
  return *static_cast<Histogram*>(Slot(i, MetricKind::kHistogram));
}

MetricsRegistry::MetricsRegistry(const MetricsRegistry& other)
    : counters_(other.counters_),
      gauges_(other.gauges_),
      histograms_(other.histograms_) {}

MetricsRegistry::MetricsRegistry(MetricsRegistry&& other) noexcept
    : counters_(std::move(other.counters_)),
      gauges_(std::move(other.gauges_)),
      histograms_(std::move(other.histograms_)) {
  other.ForgetBindings();  // its slots point into this registry now
}

MetricsRegistry& MetricsRegistry::operator=(const MetricsRegistry& other) {
  if (this == &other) return *this;
  counters_ = other.counters_;
  gauges_ = other.gauges_;
  histograms_ = other.histograms_;
  ForgetBindings();
  return *this;
}

MetricsRegistry& MetricsRegistry::operator=(MetricsRegistry&& other) noexcept {
  if (this == &other) return *this;
  counters_ = std::move(other.counters_);
  gauges_ = std::move(other.gauges_);
  histograms_ = std::move(other.histograms_);
  ForgetBindings();
  other.ForgetBindings();
  return *this;
}

void MetricsRegistry::ForgetBindings() {
  bound_ = {};
  slots_ = {};
}

Counter& MetricsRegistry::GetCounter(std::string_view name) {
  const auto it = counters_.find(name);
  if (it != counters_.end()) return it->second;
  return counters_.emplace(name, Counter{}).first->second;
}

Gauge& MetricsRegistry::GetGauge(std::string_view name, GaugeMode mode) {
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(name, Gauge{}).first;
    it->second.mode = mode;
  }
  IRMC_EXPECT(it->second.mode == mode);
  return it->second;
}

Histogram& MetricsRegistry::GetHistogram(std::string_view name) {
  const auto it = histograms_.find(name);
  if (it != histograms_.end()) return it->second;
  return histograms_.emplace(name, Histogram{}).first->second;
}

MetricSlots MetricsRegistry::Bind(std::span<const MetricSpec> table) {
  for (const BoundTable& b : bound_) {
    if (b.table != table.data()) continue;
    IRMC_EXPECT(b.size == table.size());
    return MetricSlots(table, slots_.data() + b.first);
  }
  const std::size_t first = slots_.size();
  for (const MetricSpec& spec : table) {
    switch (spec.kind) {
      case MetricKind::kCounter:
        slots_.push_back(&GetCounter(spec.name));
        break;
      case MetricKind::kGauge:
        slots_.push_back(&GetGauge(spec.name, spec.mode));
        break;
      case MetricKind::kHistogram:
        slots_.push_back(&GetHistogram(spec.name));
        break;
    }
  }
  bound_.push_back(BoundTable{table.data(), table.size(), first});
  return MetricSlots(table, slots_.data() + first);
}

void MetricsRegistry::Merge(const MetricsRegistry& other) {
  for (const auto& [name, c] : other.counters_)
    counters_[name].value += c.value;
  for (const auto& [name, g] : other.gauges_)
    GetGauge(name, g.mode).Merge(g);
  for (const auto& [name, h] : other.histograms_)
    histograms_[name].Merge(h);
}

}  // namespace irmc
