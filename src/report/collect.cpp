#include "report/collect.hpp"

#include <cctype>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <utility>

#include "common/build_info.hpp"
#include "common/json.hpp"
#include "core/load_runner.hpp"
#include "core/single_runner.hpp"
#include "metrics/export.hpp"

namespace irmc::report {

const std::vector<SchemeKind>& PanelSchemes() {
  static const std::vector<SchemeKind> kSchemes{
      SchemeKind::kUnicastBinomial, SchemeKind::kNiKBinomial,
      SchemeKind::kTreeWorm, SchemeKind::kPathWorm};
  return kSchemes;
}

std::vector<std::string> SchemeColumns(const std::string& x_label) {
  std::vector<std::string> cols{x_label};
  for (SchemeKind k : PanelSchemes()) cols.emplace_back(ToString(k));
  return cols;
}

namespace {

/// Writes one panel's metric sidecar (PanelSpec::sidecar_dir): a
/// build-stamp line, then one line per data point.
class MetricsSidecar {
 public:
  /// Creates `dir`, truncates the panel's file there and writes the
  /// build stamp. An empty `dir` disables the writer, and so does a
  /// file that cannot be opened.
  MetricsSidecar(const std::string& dir, const std::string& title) {
    if (dir.empty()) return;
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    path_ = SidecarPath(dir, title);
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    if (!out) {
      std::fprintf(stderr, "cannot write sidecar %s\n", path_.c_str());
      path_.clear();
      return;
    }
    out << "{\"kind\":\"build\",\"value\":" << ToJson(GetBuildInfo())
        << "}\n";
  }

  /// Appends {"<x_label>":x,"scheme":"<scheme>","metrics":{...}}.
  void Record(const std::string& x_label, double x, SchemeKind scheme,
              const MetricsRegistry& reg) {
    if (path_.empty()) return;
    std::ofstream out(path_, std::ios::app);
    if (!out) {
      std::fprintf(stderr, "cannot append sidecar %s\n", path_.c_str());
      path_.clear();
      return;
    }
    out << '{' << json::Str(x_label) << ':' << json::Num(x)
        << ",\"scheme\":" << json::Str(ToString(scheme))
        << ",\"metrics\":" << ToJson(reg) << "}\n";
  }

 private:
  std::string path_;  ///< empty = disabled
};

/// Folds one data point into the panel-wide aggregates.
void Absorb(const MetricsRegistry& point, SchemeKind scheme,
            PanelOutcome* out) {
  out->metrics.Merge(point);
  const auto it = point.histograms().find("mcast.latency");
  if (it != point.histograms().end())
    out->scheme_latency[ToString(scheme)].Merge(it->second);
}

PanelOutcome RunSinglePanel(const PanelSpec& spec, MetricsSidecar& sidecar) {
  PanelOutcome out(SeriesTable(spec.title, SchemeColumns("mcast_size")));
  for (int size : spec.sizes) {
    std::vector<double> row{static_cast<double>(size)};
    for (SchemeKind scheme : PanelSchemes()) {
      SingleRunSpec rs;
      rs.cfg = spec.cfg;
      rs.scheme = scheme;
      rs.multicast_size = size;
      rs.topologies = spec.topologies;
      rs.samples_per_topology = spec.samples;
      const SingleRunResult r = RunSingleMulticast(rs);
      sidecar.Record("mcast_size", size, scheme, r.metrics);
      Absorb(r.metrics, scheme, &out);
      row.push_back(r.mean_latency * spec.scale_latency);
    }
    out.table.AddRow(row);
  }
  return out;
}

PanelOutcome RunLoadPanel(const PanelSpec& spec, MetricsSidecar& sidecar) {
  PanelOutcome out(SeriesTable(spec.title, SchemeColumns("eff_load")));
  for (double load : spec.loads) {
    std::vector<double> row{load};
    std::vector<bool> saturated;
    for (SchemeKind scheme : PanelSchemes()) {
      LoadRunSpec rs;
      rs.cfg = spec.cfg;
      rs.scheme = scheme;
      rs.degree = spec.degree;
      rs.effective_load = load;
      rs.topologies = spec.topologies;
      rs.horizon = spec.horizon;
      rs.warmup = spec.horizon / 10;
      const LoadRunResult r = RunLoadSweepPoint(rs);
      sidecar.Record("eff_load", load, scheme, r.metrics);
      Absorb(r.metrics, scheme, &out);
      row.push_back(r.mean_latency * spec.scale_latency);
      saturated.push_back(r.saturated);
    }
    out.table.AddRow(row);
    for (std::size_t i = 0; i < saturated.size(); ++i)
      if (saturated[i]) out.table.TagLastCell(i + 1, "sat");
  }
  return out;
}

}  // namespace

PanelOutcome RunPanel(const PanelSpec& spec) {
  MetricsSidecar sidecar(spec.sidecar_dir, spec.title);
  const auto start = std::chrono::steady_clock::now();
  PanelOutcome out = spec.mode == PanelMode::kSingle
                         ? RunSinglePanel(spec, sidecar)
                         : RunLoadPanel(spec, sidecar);
  out.series.columns = out.table.columns();
  out.series.rows = out.table.rows();
  if (!DeterministicLedger())
    out.wall_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
  return out;
}

std::string CanonicalConfig(const PanelSpec& spec) {
  // Name-sorted key=value pairs; every knob that changes what the panel
  // measures is in here, so equal fingerprints mean comparable runs.
  std::string s;
  const auto add = [&s](const std::string& k, const std::string& v) {
    if (!s.empty()) s += ' ';
    s += k + '=' + v;
  };
  char buf[64];
  const auto dbl = [&buf](double v) {
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return std::string(buf);
  };
  add("R", dbl(spec.cfg.host.R()));
  add("degree", std::to_string(spec.degree));
  add("engine", ToString(spec.cfg.engine));
  add("horizon", std::to_string(static_cast<long long>(spec.horizon)));
  add("hosts", std::to_string(spec.cfg.topology.num_hosts));
  std::string loads;
  for (double l : spec.loads) {
    if (!loads.empty()) loads += ',';  // two steps: GCC 12 -Wrestrict FP
    loads += dbl(l);
  }
  add("loads", loads);
  add("mode", spec.mode == PanelMode::kSingle ? "single" : "load");
  add("packet_flits", std::to_string(spec.cfg.message.packet_flits));
  add("packets", std::to_string(spec.cfg.message.num_packets));
  add("ports", std::to_string(spec.cfg.topology.ports_per_switch));
  add("samples", std::to_string(spec.samples));
  add("seed", std::to_string(static_cast<unsigned long long>(spec.cfg.seed)));
  std::string sizes;
  for (int v : spec.sizes) {
    if (!sizes.empty()) sizes += ',';
    sizes += std::to_string(v);
  }
  add("sizes", sizes);
  add("switches", std::to_string(spec.cfg.topology.num_switches));
  add("title", spec.title);
  add("topologies", std::to_string(spec.topologies));
  return s;
}

std::string PanelKind(const PanelSpec& spec) {
  return spec.mode == PanelMode::kSingle ? "single-panel" : "load-panel";
}

bool AppendPanelRecord(const std::string& ledger_path, const PanelSpec& spec,
                       const PanelOutcome& outcome) {
  if (ledger_path.empty()) return true;
  RunInfo info;
  info.name = spec.title;
  info.kind = PanelKind(spec);
  info.engine = ToString(spec.cfg.engine);
  info.config = CanonicalConfig(spec);
  info.wall_seconds = outcome.wall_seconds;
  return AppendRecord(
      ledger_path, RunRecordJson(info, outcome.series, outcome.metrics,
                                 outcome.scheme_latency));
}

std::string DefaultLedgerPath() {
  if (const char* p = std::getenv("IRMC_LEDGER"); p != nullptr)
    return std::string(p).empty() ? std::string() : std::string(p);
  const char* dir = std::getenv("IRMC_METRICS_DIR");
  const std::string d = dir != nullptr ? std::string(dir) : "bench-out";
  return d.empty() ? std::string() : d + "/ledger.jsonl";
}

std::string SlugifyTitle(const std::string& title) {
  std::string s;
  for (char c : title) {
    if (std::isalnum(static_cast<unsigned char>(c)))
      s.push_back(
          static_cast<char>(std::tolower(static_cast<unsigned char>(c))));
    else if (!s.empty() && s.back() != '_')
      s.push_back('_');
  }
  while (!s.empty() && s.back() == '_') s.pop_back();
  return s.empty() ? std::string("panel") : s;
}

std::string SidecarPath(const std::string& dir, const std::string& title) {
  return dir + "/" + SlugifyTitle(title) + ".metrics.jsonl";
}

}  // namespace irmc::report
