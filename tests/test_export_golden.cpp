// Golden digests of the metrics exports.
//
// ToJson, ToJsonLines and ToCsv are what every sidecar, ledger record
// and `--metrics` file is made of, so their bytes are pinned here for
// registries filled every way a registry is filled:
//
//  * by the runners the CLI and the figures use — RunSingleMulticast
//    and RunLoadSweepPoint on both engines (bound metric tables, merged
//    per trial in trial-index order);
//  * by name only (Get* on names no table was bound for);
//  * by merging registries that bound different tables: VCT with flit,
//    and a by-name registry into a bound one.
//
// The values were recorded before the registry's storage changed from
// name-keyed maps to per-table rows. Any change to a name, a value, a
// kind or the order of the export changes a digest; the last case
// checks that the digest sees a changed value and a renamed metric.
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <string>

#include "core/load_runner.hpp"
#include "core/single_runner.hpp"
#include "metrics/export.hpp"
#include "metrics/metrics.hpp"

namespace irmc {
namespace {

std::uint64_t Fnv(const std::string& s) {
  std::uint64_t h = 14695981039346656037ull;
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

struct Digests {
  std::uint64_t json;
  std::uint64_t jsonl;
  std::uint64_t csv;
};

Digests Of(const MetricsRegistry& reg) {
  return {Fnv(ToJson(reg)), Fnv(ToJsonLines(reg)), Fnv(ToCsv(reg))};
}

void ExpectDigests(const MetricsRegistry& reg, const Digests& want) {
  const Digests got = Of(reg);
  char line[160];
  std::snprintf(line, sizeof line,
                "recorded {0x%016" PRIx64 "ull, 0x%016" PRIx64
                "ull, 0x%016" PRIx64 "ull}",
                got.json, got.jsonl, got.csv);
  EXPECT_EQ(got.json, want.json) << line;
  EXPECT_EQ(got.jsonl, want.jsonl) << line;
  EXPECT_EQ(got.csv, want.csv) << line;
}

MetricsRegistry Single(EngineKind engine) {
  SingleRunSpec spec;
  spec.cfg.engine = engine;
  spec.cfg.seed = 5;
  spec.scheme = SchemeKind::kNiKBinomial;
  spec.multicast_size = 15;
  spec.topologies = 2;
  spec.samples_per_topology = 3;
  return RunSingleMulticast(spec).metrics;
}

MetricsRegistry Load(EngineKind engine) {
  LoadRunSpec spec;
  spec.cfg.engine = engine;
  spec.cfg.seed = 7;
  spec.scheme = SchemeKind::kTreeWorm;
  spec.degree = 8;
  spec.effective_load = 0.2;
  spec.warmup = 2'000;
  spec.horizon = 20'000;
  spec.topologies = 2;
  return RunLoadSweepPoint(spec).metrics;
}

/// Every kind and gauge mode by name only, some names a table also
/// declares (`mcast.launched`, `sim.end_time`), in no sorted order.
/// `rename` and `bump` vary one name and one value.
MetricsRegistry ByName(const char* rename = "z.counter", int bump = 0) {
  MetricsRegistry reg;
  reg.GetCounter(rename).Add(3 + bump);
  reg.GetCounter("mcast.launched").Add(41);
  reg.GetCounter("a.zero");
  reg.GetGauge("g.sum").Set(0.1);
  reg.GetGauge("g.sum").Set(0.2);
  reg.GetGauge("g.max", GaugeMode::kMax).Set(-2.5);
  reg.GetGauge("g.max", GaugeMode::kMax).Set(-7.0);
  reg.GetGauge("g.min", GaugeMode::kMin).Set(1e300);
  reg.GetGauge("g.min", GaugeMode::kMin).Set(3.25);
  reg.GetGauge("sim.end_time", GaugeMode::kMax).Set(12345.0);
  reg.GetGauge("g.unset", GaugeMode::kMax);
  Histogram& h = reg.GetHistogram("h.lat");
  for (std::int64_t v : {0, 1, 2, 3, 900, 1'000'000, -4}) h.Add(v);
  h.Add(77, 5);
  reg.GetHistogram("h.empty");
  return reg;
}

MetricsRegistry Merged(const MetricsRegistry& a, const MetricsRegistry& b) {
  MetricsRegistry out = a;
  out.Merge(b);
  return out;
}

TEST(ExportGolden, SingleRunVct) {
  ExpectDigests(Single(EngineKind::kVct),
                {0xbe37b78e5ad740dcull, 0x5b8549e24d1e364eull,
                 0x1eee487d6aef8cc1ull});
}

TEST(ExportGolden, SingleRunFlit) {
  ExpectDigests(Single(EngineKind::kFlit),
                {0xc8a764be8fafbf44ull, 0x410fd86e390e32deull,
                 0x47cf18cafd3e88f9ull});
}

TEST(ExportGolden, LoadPointVct) {
  ExpectDigests(Load(EngineKind::kVct),
                {0xf491c6e99e3c5558ull, 0x5f5c25bd1397e2ceull,
                 0xceb0bfdea30a3508ull});
}

TEST(ExportGolden, LoadPointFlit) {
  ExpectDigests(Load(EngineKind::kFlit),
                {0xb906e109dee52fb8ull, 0x2d60fcd06d630bd6ull,
                 0x9a08cf6e35d261c5ull});
}

TEST(ExportGolden, ByNameOnly) {
  ExpectDigests(ByName(), {0xac3efeb97dba3200ull, 0xb145357735b56a42ull,
                           0x8f920e0cf9e582c7ull});
}

TEST(ExportGolden, VctMergedWithFlit) {
  ExpectDigests(Merged(Single(EngineKind::kVct),
                       Single(EngineKind::kFlit)),
                {0x46916620c0e848ebull, 0xd47c31990d7dcb85ull,
                 0xad50b9a347c93e8eull});
}

TEST(ExportGolden, ByNameMergedIntoBound) {
  ExpectDigests(Merged(Single(EngineKind::kVct), ByName()),
                {0x83ff0a26fb2bded2ull, 0x95d13380b125fd12ull,
                 0x0c6d512e8bb59594ull});
  ExpectDigests(Merged(ByName(), Load(EngineKind::kVct)),
                {0x8116b7bf89192372ull, 0xd0c165baeb62b98cull,
                 0x81187e43dc146ffdull});
}

TEST(ExportGolden, DigestSeesAValueOrANameChange) {
  const Digests pinned = Of(ByName());
  for (const Digests& changed :
       {Of(ByName("z.counter", 1)), Of(ByName("z.counters"))}) {
    EXPECT_NE(changed.json, pinned.json);
    EXPECT_NE(changed.jsonl, pinned.jsonl);
    EXPECT_NE(changed.csv, pinned.csv);
  }
}

}  // namespace
}  // namespace irmc
