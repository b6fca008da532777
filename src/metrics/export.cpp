#include "metrics/export.hpp"

#include <cstdio>
#include <fstream>

#include "common/build_info.hpp"
#include "common/json.hpp"

namespace irmc {
namespace {

/// %.17g like json::Num, but a CSV cell keeps inf and nan as text.
std::string CsvNum(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string GaugeJson(const Gauge& g) {
  return std::string("{\"mode\":\"") + ToString(g.mode) +
         "\",\"value\":" + json::Num(g.value) + '}';
}

}  // namespace

std::string HistogramToJson(const Histogram& h) {
  std::string out = "{\"count\":" + json::Num(h.count()) +
                    ",\"sum\":" + json::Num(h.sum());
  if (h.count() > 0) {
    out += ",\"min\":" + json::Num(h.min()) + ",\"max\":" + json::Num(h.max());
    out += ",\"p50\":" + json::Num(h.Quantile(0.50)) +
           ",\"p95\":" + json::Num(h.Quantile(0.95)) +
           ",\"p99\":" + json::Num(h.Quantile(0.99));
  }
  out += ",\"bins\":[";
  bool first = true;
  for (int b = 0; b < Histogram::kBins; ++b) {
    if (h.bin(b) == 0) continue;
    if (!first) out += ',';
    first = false;
    out += '[' + json::Num(Histogram::BinLower(b)) + ',' +
           json::Num(Histogram::BinUpper(b)) + ',' + json::Num(h.bin(b)) + ']';
  }
  out += "]}";
  return out;
}

std::string ToJson(const MetricsRegistry& reg) {
  std::string out = "{\"counters\":{";
  bool first = true;
  for (const auto& [name, c] : reg.counters()) {
    if (!first) out += ',';
    first = false;
    out += json::Str(name) + ':' + json::Num(c.value);
  }
  out += "},\"gauges\":{";
  first = true;
  for (const auto& [name, g] : reg.gauges()) {
    if (!first) out += ',';
    first = false;
    out += json::Str(name) + ':' + GaugeJson(g);
  }
  out += "},\"histograms\":{";
  first = true;
  for (const auto& [name, h] : reg.histograms()) {
    if (!first) out += ',';
    first = false;
    out += json::Str(name) + ':' + HistogramToJson(h);
  }
  out += "}}";
  return out;
}

std::string ToJsonLines(const MetricsRegistry& reg) {
  std::string out;
  for (const auto& [name, c] : reg.counters())
    out += "{\"kind\":\"counter\",\"name\":" + json::Str(name) +
           ",\"value\":" + json::Num(c.value) + "}\n";
  for (const auto& [name, g] : reg.gauges())
    out += "{\"kind\":\"gauge\",\"name\":" + json::Str(name) +
           ",\"mode\":\"" + ToString(g.mode) +
           "\",\"value\":" + json::Num(g.value) + "}\n";
  for (const auto& [name, h] : reg.histograms())
    out += "{\"kind\":\"histogram\",\"name\":" + json::Str(name) +
           ",\"value\":" + HistogramToJson(h) + "}\n";
  return out;
}

std::string ToCsv(const MetricsRegistry& reg) {
  std::string out = "kind,name,field,value\n";
  for (const auto& [name, c] : reg.counters())
    out += "counter," + name + ",value," + json::Num(c.value) + '\n';
  for (const auto& [name, g] : reg.gauges())
    out += "gauge," + name + ',' + ToString(g.mode) + ',' +
           CsvNum(g.value) + '\n';
  for (const auto& [name, h] : reg.histograms()) {
    out += "histogram," + name + ",count," + json::Num(h.count()) + '\n';
    out += "histogram," + name + ",sum," + json::Num(h.sum()) + '\n';
    if (h.count() > 0) {
      out += "histogram," + name + ",min," + json::Num(h.min()) + '\n';
      out += "histogram," + name + ",max," + json::Num(h.max()) + '\n';
      // Derived latency-style quantiles from the log2 bins (see
      // BinnedQuantile for the pinned interpolation) so downstream
      // spreadsheets get p50/p95/p99 without re-deriving bins.
      out += "histogram," + name + ",p50," + CsvNum(h.Quantile(0.50)) + '\n';
      out += "histogram," + name + ",p95," + CsvNum(h.Quantile(0.95)) + '\n';
      out += "histogram," + name + ",p99," + CsvNum(h.Quantile(0.99)) + '\n';
    }
    for (int b = 0; b < Histogram::kBins; ++b) {
      if (h.bin(b) == 0) continue;
      out += "histogram," + name + ",bin_" +
             json::Num(Histogram::BinLower(b)) + '_' +
             json::Num(Histogram::BinUpper(b)) + ',' + json::Num(h.bin(b)) +
             '\n';
    }
  }
  return out;
}

std::string SerializeForPath(const MetricsRegistry& reg,
                             const std::string& path) {
  const auto ends_with = [&path](const char* suffix) {
    const std::string s(suffix);
    return path.size() >= s.size() &&
           path.compare(path.size() - s.size(), s.size(), s) == 0;
  };
  // File-level exports carry the producing binary's build info so a
  // metrics file found later can always be traced to a git SHA +
  // compiler + build type (docs/observability.md).
  if (ends_with(".csv")) {
    const BuildInfo& b = GetBuildInfo();
    std::string out = "kind,name,field,value\n";
    out += "build,git_sha,value," + b.git_sha + '\n';
    out += "build,compiler,value," + b.compiler + '\n';
    out += "build,build_type,value," + b.build_type + '\n';
    out += "build,sanitizer,value," + b.sanitizer + '\n';
    const std::string csv = ToCsv(reg);
    return out + csv.substr(std::string("kind,name,field,value\n").size());
  }
  if (ends_with(".jsonl"))
    return "{\"kind\":\"build\",\"value\":" + ToJson(GetBuildInfo()) + "}\n" +
           ToJsonLines(reg);
  // "build" sorts before "counters"/"gauges"/"histograms", keeping the
  // stamped object name-sorted like every other export.
  return "{\"build\":" + ToJson(GetBuildInfo()) + ',' + ToJson(reg).substr(1);
}

bool WriteFile(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return false;
  out << content;
  return static_cast<bool>(out);
}

}  // namespace irmc
