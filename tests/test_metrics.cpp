// Metrics subsystem: histogram bin edges, merge associativity, export
// formats, and the determinism contract — a metrics-enabled parallel
// sweep must serialise to byte-identical JSON for any IRMC_THREADS.
#include "metrics/metrics.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/build_info.hpp"
#include "core/load_runner.hpp"
#include "core/parallel.hpp"
#include "core/single_runner.hpp"
#include "mcast/scheme.hpp"
#include "metrics/export.hpp"
#include "topology/system.hpp"
#include "workloads/dsm.hpp"

namespace irmc {
namespace {

/// Restores the environment/default thread resolution on scope exit.
struct ThreadsGuard {
  ~ThreadsGuard() { SetParallelThreads(0); }
};

TEST(Counter, AddsAndDefaults) {
  Counter c;
  EXPECT_EQ(c.value, 0);
  c.Add();
  c.Add(41);
  EXPECT_EQ(c.value, 42);
}

TEST(Histogram, BinEdges) {
  // Bin 0: v <= 0. Bin b >= 1: [2^(b-1), 2^b).
  EXPECT_EQ(Histogram::BinOf(-5), 0);
  EXPECT_EQ(Histogram::BinOf(0), 0);
  EXPECT_EQ(Histogram::BinOf(1), 1);
  EXPECT_EQ(Histogram::BinOf(2), 2);
  EXPECT_EQ(Histogram::BinOf(3), 2);
  EXPECT_EQ(Histogram::BinOf(4), 3);
  EXPECT_EQ(Histogram::BinOf(7), 3);
  EXPECT_EQ(Histogram::BinOf(8), 4);
  EXPECT_EQ(Histogram::BinOf(1023), 10);
  EXPECT_EQ(Histogram::BinOf(1024), 11);

  for (int b = 1; b < Histogram::kBins - 1; ++b) {
    // Every bin's edges are self-consistent: the lower edge lands in the
    // bin, the value just below the upper edge lands in the bin, and the
    // upper edge itself lands in the next.
    EXPECT_EQ(Histogram::BinOf(Histogram::BinLower(b)), b) << b;
    EXPECT_EQ(Histogram::BinOf(Histogram::BinUpper(b) - 1), b) << b;
    EXPECT_EQ(Histogram::BinOf(Histogram::BinUpper(b)), b + 1) << b;
  }
  EXPECT_EQ(Histogram::BinLower(0), 0);
  EXPECT_EQ(Histogram::BinLower(1), 1);
  EXPECT_EQ(Histogram::BinLower(2), 2);
  EXPECT_EQ(Histogram::BinLower(3), 4);
  EXPECT_EQ(Histogram::BinUpper(3), 8);
}

TEST(Histogram, TracksCountSumMinMax) {
  Histogram h;
  for (std::int64_t v : {5, 1, 9, 9, 0}) h.Add(v);
  EXPECT_EQ(h.count(), 5);
  EXPECT_EQ(h.sum(), 24);
  EXPECT_EQ(h.min(), 0);
  EXPECT_EQ(h.max(), 9);
  EXPECT_DOUBLE_EQ(h.Mean(), 24.0 / 5.0);
  EXPECT_EQ(h.bin(0), 1);  // the 0
  EXPECT_EQ(h.bin(1), 1);  // the 1
  EXPECT_EQ(h.bin(3), 1);  // the 5
  EXPECT_EQ(h.bin(4), 2);  // the two 9s
}

TEST(Histogram, BulkAddMatchesSingleAdds) {
  // Add(v, count) leaves the state of `count` single adds, bit for bit,
  // into an empty histogram or one with samples on either side of v.
  for (std::int64_t v : {0, 1, 7, 100}) {
    for (std::int64_t count : {0, 1, 5}) {
      for (bool prefilled : {false, true}) {
        Histogram bulk;
        Histogram single;
        if (prefilled) {
          for (std::int64_t w : {3, 50}) {
            bulk.Add(w);
            single.Add(w);
          }
        }
        bulk.Add(v, count);
        for (std::int64_t i = 0; i < count; ++i) single.Add(v);
        EXPECT_EQ(bulk.count(), single.count());
        EXPECT_EQ(bulk.sum(), single.sum());
        if (single.count() > 0) {
          EXPECT_EQ(bulk.min(), single.min());
          EXPECT_EQ(bulk.max(), single.max());
        }
        for (int b = 0; b < Histogram::kBins; ++b)
          EXPECT_EQ(bulk.bin(b), single.bin(b)) << "bin " << b;
        MetricsRegistry a;
        MetricsRegistry b;
        a.GetHistogram("h").Merge(bulk);
        b.GetHistogram("h").Merge(single);
        EXPECT_EQ(ToJson(a), ToJson(b))
            << "v " << v << " count " << count << " prefilled " << prefilled;
      }
    }
  }
}

TEST(Gauge, ModesCombine) {
  Gauge mx{0.0, false, GaugeMode::kMax};
  mx.Set(2.0);
  mx.Set(1.0);
  EXPECT_DOUBLE_EQ(mx.value, 2.0);
  Gauge mn{0.0, false, GaugeMode::kMin};
  mn.Set(2.0);
  mn.Set(1.0);
  EXPECT_DOUBLE_EQ(mn.value, 1.0);
  Gauge sm{0.0, false, GaugeMode::kSum};
  sm.Set(2.0);
  sm.Set(1.0);
  EXPECT_DOUBLE_EQ(sm.value, 3.0);
}

TEST(Gauge, MergeIgnoresUnsetSides) {
  Gauge a{0.0, false, GaugeMode::kMax};
  Gauge b{7.0, true, GaugeMode::kMax};
  a.Merge(b);
  EXPECT_TRUE(a.set);
  EXPECT_DOUBLE_EQ(a.value, 7.0);
  Gauge untouched{0.0, false, GaugeMode::kMax};
  a.Merge(untouched);
  EXPECT_DOUBLE_EQ(a.value, 7.0);
}

/// Builds a registry with all three metric kinds from a small seed.
MetricsRegistry MakeRegistry(std::int64_t seed) {
  MetricsRegistry reg;
  reg.GetCounter("c.alpha").Add(seed);
  reg.GetCounter("c.beta").Add(seed * 3 + 1);
  reg.GetGauge("g.max", GaugeMode::kMax).Set(static_cast<double>(seed % 7));
  reg.GetGauge("g.sum", GaugeMode::kSum).Set(static_cast<double>(seed));
  Histogram& h = reg.GetHistogram("h.lat");
  for (std::int64_t v = 0; v < seed % 50 + 3; ++v) h.Add(v * seed % 1000);
  return reg;
}

TEST(MetricsRegistry, MergeIsAssociative) {
  // (a + b) + c == a + (b + c), byte-for-byte in every export format.
  const MetricsRegistry a = MakeRegistry(11);
  const MetricsRegistry b = MakeRegistry(29);
  const MetricsRegistry c = MakeRegistry(97);

  MetricsRegistry left = a;   // (a+b)+c
  left.Merge(b);
  left.Merge(c);
  MetricsRegistry bc = b;     // a+(b+c)
  bc.Merge(c);
  MetricsRegistry right = a;
  right.Merge(bc);

  EXPECT_EQ(ToJson(left), ToJson(right));
  EXPECT_EQ(ToJsonLines(left), ToJsonLines(right));
  EXPECT_EQ(ToCsv(left), ToCsv(right));
}

TEST(MetricsRegistry, MergeAddsCountersAndBins) {
  MetricsRegistry a = MakeRegistry(5);
  const MetricsRegistry b = MakeRegistry(5);
  a.Merge(b);
  EXPECT_EQ(a.counters().at("c.alpha").value, 10);
  EXPECT_EQ(a.histograms().at("h.lat").count(),
            2 * b.histograms().at("h.lat").count());
  // Disjoint names union in.
  MetricsRegistry other;
  other.GetCounter("c.gamma").Add(2);
  a.Merge(other);
  EXPECT_EQ(a.counters().at("c.gamma").value, 2);
  EXPECT_EQ(a.counters().at("c.alpha").value, 10);
}

TEST(MetricsRegistry, StableReferencesAcrossInterning) {
  MetricsRegistry reg;
  Counter* first = &reg.GetCounter("a");
  for (int i = 0; i < 100; ++i) {
    std::string key = "k";  // built in two steps: GCC 12 -Wrestrict FP
    key += std::to_string(i);
    reg.GetCounter(key).Add();
  }
  EXPECT_EQ(first, &reg.GetCounter("a"));  // node-based map: no rehash moves
  first->Add(3);
  EXPECT_EQ(reg.counters().at("a").value, 3);
}

constexpr MetricSpec kBindTable[] = {
    {MetricKind::kCounter, "b.count"},
    {MetricKind::kGauge, "b.peak", GaugeMode::kMax},
    {MetricKind::kHistogram, "b.hist"},
};

TEST(MetricsRegistry, BindResolvesTheSameEntriesAsGet) {
  MetricsRegistry reg;
  reg.GetCounter("b.count").Add(2);  // an entry that already exists
  const MetricSlots slots = reg.Bind(kBindTable);
  EXPECT_EQ(&slots.counter(0), &reg.GetCounter("b.count"));
  EXPECT_EQ(&slots.gauge(1), &reg.GetGauge("b.peak", GaugeMode::kMax));
  EXPECT_EQ(&slots.histogram(2), &reg.GetHistogram("b.hist"));
  EXPECT_EQ(reg.counters().at("b.count").value, 2);
  // A second Bind of the table hands back the same entries.
  Counter* first = &slots.counter(0);
  reg.GetCounter("b.other");
  EXPECT_EQ(&reg.Bind(kBindTable).counter(0), first);
}

/// Records one sample through each slot `reg` binds for kBindTable.
void RecordThroughBinding(MetricsRegistry& reg, std::int64_t v) {
  const MetricSlots slots = reg.Bind(kBindTable);
  slots.counter(0).Add(v);
  slots.gauge(1).Set(static_cast<double>(v));
  slots.histogram(2).Add(v);
}

TEST(MetricsRegistry, CopiesAndMovesBindIndependently) {
  // A bound registry's copies and moves never carry slots that point
  // into another registry: each records only into itself.
  MetricsRegistry source;
  RecordThroughBinding(source, 1);
  MetricsRegistry copy = source;
  RecordThroughBinding(copy, 10);
  MetricsRegistry assigned;
  RecordThroughBinding(assigned, 1000);  // a memo the assignment drops
  assigned = source;
  RecordThroughBinding(assigned, 100);
  RecordThroughBinding(source, 2);
  EXPECT_EQ(source.counters().at("b.count").value, 3);
  EXPECT_EQ(copy.counters().at("b.count").value, 11);
  EXPECT_EQ(assigned.counters().at("b.count").value, 101);

  MetricsRegistry moved = std::move(source);
  RecordThroughBinding(moved, 4);
  EXPECT_EQ(moved.counters().at("b.count").value, 7);
  EXPECT_EQ(moved.histograms().at("b.hist").count(), 3);
  MetricsRegistry move_assigned;
  RecordThroughBinding(move_assigned, 1000);
  move_assigned = std::move(copy);
  RecordThroughBinding(move_assigned, 20);
  EXPECT_EQ(move_assigned.counters().at("b.count").value, 31);
  EXPECT_DOUBLE_EQ(move_assigned.gauges().at("b.peak").value, 20.0);

  // A moved-from registry binds into itself, never into its successor.
  // NOLINTBEGIN(bugprone-use-after-move)
  RecordThroughBinding(source, 5);
  RecordThroughBinding(copy, 6);
  // NOLINTEND(bugprone-use-after-move)
  EXPECT_EQ(moved.counters().at("b.count").value, 7);
  EXPECT_EQ(move_assigned.counters().at("b.count").value, 31);
}

TEST(MetricsRegistry, ByNameViewsRefreshInPlace) {
  // A by-name read finds an entry, then compares with end() from a
  // second call: both calls must hand out the same map, and a later
  // call refreshes the values an earlier iterator sees.
  MetricsRegistry reg;
  reg.GetCounter("b.count").Add(2);  // by name, before the table binds
  const MetricSlots slots = reg.Bind(kBindTable);
  slots.counter(0).Add(3);
  const auto it = reg.counters().find(std::string("b.count"));
  ASSERT_NE(it, reg.counters().end());
  EXPECT_EQ(it->second.value, 5);  // the row and the by-name entry fold
  slots.counter(0).Add(10);
  reg.GetCounter("b.other").Add(1);
  EXPECT_EQ(reg.counters().size(), 2u);
  EXPECT_EQ(it->second.value, 15);
  EXPECT_EQ(reg.histograms().at("b.hist").count(), 0);
  EXPECT_FALSE(reg.gauges().at("b.peak").set);
}

TEST(MetricsRegistry, MergeAddsBoundRowsAndCopiesTheRest) {
  MetricsRegistry a;
  RecordThroughBinding(a, 4);
  MetricsRegistry b;
  b.GetCounter("b.count").Add(100);  // by name, before the table binds
  b.GetCounter("z.extra").Add(1);
  RecordThroughBinding(b, 9);
  MetricsRegistry total;
  total.Merge(a);  // copies a's block
  total.Merge(b);  // adds b's rows, then its by-name entries by name
  EXPECT_EQ(total.counters().at("b.count").value, 113);
  EXPECT_EQ(total.counters().at("z.extra").value, 1);
  EXPECT_DOUBLE_EQ(total.gauges().at("b.peak").value, 9.0);
  EXPECT_EQ(total.histograms().at("b.hist").count(), 2);
  // The merged rows stay bound: a later Bind records into them.
  RecordThroughBinding(total, 1);
  EXPECT_EQ(total.counters().at("b.count").value, 114);
  EXPECT_EQ(a.counters().at("b.count").value, 4);
}

TEST(Export, FormatsCoverAllKinds) {
  const MetricsRegistry reg = MakeRegistry(13);
  const std::string json = ToJson(reg);
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"c.alpha\":13"), std::string::npos);
  EXPECT_NE(json.find("\"gauges\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  const std::string jsonl = ToJsonLines(reg);
  EXPECT_NE(jsonl.find("\"kind\":\"counter\""), std::string::npos);
  EXPECT_NE(jsonl.find("\"kind\":\"gauge\""), std::string::npos);
  EXPECT_NE(jsonl.find("\"kind\":\"histogram\""), std::string::npos);
  const std::string csv = ToCsv(reg);
  EXPECT_EQ(csv.rfind("kind,name,field,value\n", 0), 0u);

  // File-level serialisation prepends the build stamp, then carries the
  // raw export byte-for-byte.
  const std::string build_json = ToJson(GetBuildInfo());
  EXPECT_EQ(SerializeForPath(reg, "x.csv"),
            "kind,name,field,value\n"
            "build,git_sha,value," + GetBuildInfo().git_sha + "\n"
            "build,compiler,value," + GetBuildInfo().compiler + "\n"
            "build,build_type,value," + GetBuildInfo().build_type + "\n"
            "build,sanitizer,value," + GetBuildInfo().sanitizer + "\n" +
            csv.substr(std::string("kind,name,field,value\n").size()));
  EXPECT_EQ(SerializeForPath(reg, "x.jsonl"),
            "{\"kind\":\"build\",\"value\":" + build_json + "}\n" + jsonl);
  EXPECT_EQ(SerializeForPath(reg, "x.json"),
            "{\"build\":" + build_json + ',' + json.substr(1));
  EXPECT_EQ(SerializeForPath(reg, "x"), SerializeForPath(reg, "x.json"));
}

TEST(Export, EmptyRegistryIsStable) {
  const MetricsRegistry reg;
  EXPECT_EQ(ToJson(reg), ToJson(MetricsRegistry{}));
  EXPECT_NE(ToJson(reg).find("\"counters\":{}"), std::string::npos);
}


// ---------------------------------------------------------------------
// Determinism: metrics-enabled sweeps serialise to identical bytes for
// any thread count, across all three runners.

std::string SingleSweepJson(int threads) {
  SetParallelThreads(threads);
  SingleRunSpec spec;
  spec.scheme = SchemeKind::kTreeWorm;
  spec.multicast_size = 6;
  spec.topologies = 8;
  spec.samples_per_topology = 2;
  return ToJson(RunSingleMulticast(spec).metrics);
}

TEST(MetricsDeterminism, SingleRunnerThreadCountInvariant) {
  ThreadsGuard guard;
  const std::string serial = SingleSweepJson(1);
  EXPECT_FALSE(serial.empty());
  EXPECT_NE(serial.find("mcast.completed"), std::string::npos);
  EXPECT_EQ(serial, SingleSweepJson(2));
  EXPECT_EQ(serial, SingleSweepJson(8));
}

std::string LoadSweepJson(int threads) {
  SetParallelThreads(threads);
  LoadRunSpec spec;
  spec.scheme = SchemeKind::kNiKBinomial;
  spec.degree = 4;
  spec.effective_load = 0.15;
  spec.topologies = 5;
  spec.warmup = 2'000;
  spec.horizon = 20'000;
  return ToJson(RunLoadSweepPoint(spec).metrics);
}

TEST(MetricsDeterminism, LoadRunnerThreadCountInvariant) {
  ThreadsGuard guard;
  const std::string serial = LoadSweepJson(1);
  EXPECT_NE(serial.find("fabric.flits_sent"), std::string::npos);
  EXPECT_EQ(serial, LoadSweepJson(2));
  EXPECT_EQ(serial, LoadSweepJson(8));
}

std::string DsmSweepJson(int threads) {
  SetParallelThreads(threads);
  SimConfig cfg;
  DsmParams params;
  params.topologies = 3;
  params.horizon = 40'000;
  return ToJson(RunDsmInvalidation(cfg, SchemeKind::kPathWorm, params).metrics);
}

TEST(MetricsDeterminism, DsmRunnerThreadCountInvariant) {
  ThreadsGuard guard;
  const std::string serial = DsmSweepJson(1);
  EXPECT_NE(serial.find("host.cycles"), std::string::npos);
  EXPECT_EQ(serial, DsmSweepJson(8));
}

TEST(MetricsDeterminism, RegistryNeverPerturbsResults) {
  // Metrics observe, never steer: the same playout with a registry and
  // with nullptr yields the same MulticastResult, for every scheme.
  const auto sys = System::Build({}, 42);
  SimConfig cfg;
  const std::vector<NodeId> dests{1, 5, 9, 14, 20, 27};
  for (SchemeKind kind :
       {SchemeKind::kUnicastBinomial, SchemeKind::kNiKBinomial,
        SchemeKind::kTreeWorm, SchemeKind::kPathWorm}) {
    const auto scheme = MakeScheme(kind, cfg.host);
    auto plan = [&] {
      return scheme->Plan(*sys, 0, dests, cfg.message, cfg.headers);
    };
    MetricsRegistry reg;
    const MulticastResult on = PlayOnce(*sys, cfg, plan(), nullptr, &reg);
    const MulticastResult off = PlayOnce(*sys, cfg, plan());
    EXPECT_FALSE(reg.Empty()) << ToString(kind);
    EXPECT_EQ(on.id, off.id) << ToString(kind);
    EXPECT_EQ(on.start, off.start) << ToString(kind);
    EXPECT_EQ(on.completion, off.completion) << ToString(kind);
    EXPECT_EQ(on.num_dests, off.num_dests) << ToString(kind);
    EXPECT_EQ(on.deliveries, off.deliveries) << ToString(kind);
  }
}

// Pins the derived-quantile estimator (Histogram::Quantile and the
// reader-side BinnedQuantile share it) against exact sample sets, so
// the p50/p95/p99 columns in the metrics CSV and the ledger cannot
// drift silently.
TEST(Histogram, QuantilePinsExactSampleSets) {
  // All samples equal: the [min,max] clamp pins every quantile.
  Histogram same;
  for (int i = 0; i < 4; ++i) same.Add(5);
  for (double q : {0.0, 0.5, 0.95, 0.99, 1.0}) EXPECT_EQ(same.Quantile(q), 5.0);

  // {1, 2, 3}: bin [1,2) holds one sample, bin [2,4) two; rank
  // interpolation spreads the two-sample bin over [2, 3].
  Histogram h;
  h.Add(1);
  h.Add(2);
  h.Add(3);
  EXPECT_EQ(h.Quantile(0.0), 1.0);
  EXPECT_EQ(h.Quantile(0.5), 2.0);
  EXPECT_NEAR(h.Quantile(0.95), 2.9, 1e-12);
  EXPECT_EQ(h.Quantile(1.0), 3.0);

  // A single sample reads its bin midpoint, clamped to [min, max].
  Histogram one;
  one.Add(10);
  EXPECT_EQ(one.Quantile(0.5), 10.0);

  // The reader-side estimator agrees bin-for-bin with the live one.
  std::vector<BinSlice> slices;
  for (int b = 0; b < Histogram::kBins; ++b)
    if (h.bin(b) > 0)
      slices.push_back(
          {Histogram::BinLower(b), Histogram::BinUpper(b), h.bin(b)});
  for (double q : {0.25, 0.5, 0.75, 0.95})
    EXPECT_EQ(BinnedQuantile(slices, h.min(), h.max(), q), h.Quantile(q));
}

}  // namespace
}  // namespace irmc
