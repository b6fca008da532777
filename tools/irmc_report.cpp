// Run ledger, differential perf analysis, and HTML reports.
//
//   irmc_report record  [--ledger F] [--name S] [--mode single|load] ...
//       run one figure panel and append a RunRecord to the ledger
//   irmc_report diff    --baseline A.jsonl --candidate B.jsonl [options]
//       print per-metric deltas with noise-aware verdicts
//   irmc_report regress --baseline A.jsonl --candidate B.jsonl [options]
//       exit 1 when anything significantly regressed (CI gate)
//   irmc_report html    --ledger F --out report.html [options]
//       render a self-contained single-file HTML dashboard
//
// See docs/observability.md for the workflow, EXPERIMENTS.md for a
// regression-hunt walkthrough.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "common/args.hpp"
#include "common/build_info.hpp"
#include "metrics/export.hpp"
#include "report/collect.hpp"
#include "report/diff.hpp"
#include "report/html.hpp"
#include "report/ledger.hpp"
#include "topology/generator.hpp"
#include "trace/analysis.hpp"
#include "trace/export.hpp"
#include "trace/tracer.hpp"

namespace {

using namespace irmc;
using namespace irmc::report;

int Usage() {
  std::fprintf(
      stderr,
      "usage: irmc_report <record|diff|regress|html> [options]\n"
      "  record   --ledger F --name S [--mode single|load] [--engine vct|flit]\n"
      "           [--switches N] [--hosts N] [--ports N] [--seed N]\n"
      "           [--sizes a,b,..] [--loads a,b,..] [--degree N]\n"
      "           [--topologies N] [--samples N] [--horizon N]\n"
      "           [--scale-latency X]   run a panel, append a RunRecord\n"
      "           (--hosts: default 4 x switches, at most\n"
      "           switches x (ports - 2) + 1 from 3 switches on)\n"
      "  diff     --baseline A --candidate B [--threshold X] [--bootstrap N]\n"
      "           [--confidence X] [--seed N] [--all]   print deltas\n"
      "  regress  (same options) [--allow-config-mismatch]\n"
      "           exit 0 clean, 1 on regression, 2 on misuse/mismatch\n"
      "  html     --ledger F --out FILE [--baseline B] [--sidecar-dir D]\n"
      "           [--trace T.jsonl] [--title S]   render the dashboard\n"
      "an unknown option exits 2 before anything is read or run\n");
  return 2;
}

/// Largest value an `int` count option takes.
constexpr std::int64_t kMaxCount = std::numeric_limits<int>::max();

/// --seed: any 64-bit integer.
std::int64_t GetSeed(const Args& args, std::int64_t fallback) {
  return args.GetIntIn("seed", fallback,
                       std::numeric_limits<std::int64_t>::min(),
                       std::numeric_limits<std::int64_t>::max());
}

/// The directory holding `path` ("." for a bare file name): where a
/// ledger's panel sidecars live.
std::string DirOf(const std::string& path) {
  const std::filesystem::path p(path);
  return p.has_parent_path() ? p.parent_path().string() : ".";
}

// ------------------------------------------------------------- record

int CmdRecord(const Args& args) {
  PanelSpec spec;
  spec.title = args.GetString("name", "report panel");
  const std::string mode =
      args.GetChoice("mode", "single", {"single", "load"});
  spec.mode = mode == "single" ? PanelMode::kSingle : PanelMode::kLoad;
  const std::string engine = args.GetChoice("engine", "vct", {"vct", "flit"});
  EngineKindFromString(engine, &spec.cfg.engine);
  // Integer options are checked: a malformed or out-of-range value exits
  // with status 2 and the accepted range.
  spec.cfg.topology.num_switches =
      static_cast<int>(args.GetIntIn("switches", 8, 1, kMaxCount));
  // Ports enough for two hosts, so the --hosts range is never empty.
  spec.cfg.topology.ports_per_switch = static_cast<int>(args.GetIntIn(
      "ports", 8, MinPorts(spec.cfg.topology.num_switches, 2), kMaxCount));
  spec.cfg.topology.num_hosts = static_cast<int>(args.GetIntIn(
      "hosts", std::int64_t{4} * spec.cfg.topology.num_switches, 2,
      std::min(kMaxCount, MaxHosts(spec.cfg.topology.num_switches,
                                   spec.cfg.topology.ports_per_switch))));
  spec.cfg.seed = static_cast<std::uint64_t>(GetSeed(args, 1));
  for (std::int64_t size : args.GetIntListIn(
           "sizes", "2,4,8,15", 1, spec.cfg.topology.num_hosts - 1))
    spec.sizes.push_back(static_cast<int>(size));
  spec.loads =
      args.GetDoubleListIn("loads", "0.05,0.15,0.3", RealRange::Above(0.0));
  spec.degree = static_cast<int>(args.GetIntIn(
      "degree", 8, 1, spec.cfg.topology.num_hosts - 1));
  spec.topologies = static_cast<int>(args.GetIntIn(
      "topologies", spec.mode == PanelMode::kSingle ? 10 : 2, 1, kMaxCount));
  spec.samples = static_cast<int>(args.GetIntIn("samples", 4, 1, kMaxCount));
  // A load run drains for another horizon after generation stops.
  spec.horizon = args.GetIntIn("horizon", 150'000, 1,
                               std::numeric_limits<Cycles>::max() / 2);
  spec.scale_latency =
      args.GetDoubleIn("scale-latency", 1.0, RealRange::AtLeast(0.0));
  const std::string ledger = args.GetString("ledger", DefaultLedgerPath());

  args.RejectUnknown();

  // Per-point metric sidecar next to the ledger (the bench panels'
  // format), so `irmc_report html` can render the link-utilization
  // heatmap for CLI-recorded runs too.
  if (!ledger.empty()) spec.sidecar_dir = DirOf(ledger);

  const PanelOutcome outcome = RunPanel(spec);
  outcome.table.Print();
  if (ledger.empty()) {
    std::fprintf(stderr, "irmc_report: ledger disabled (empty path)\n");
    return 0;
  }
  if (!AppendPanelRecord(ledger, spec, outcome)) {
    std::fprintf(stderr, "irmc_report: cannot append to %s\n", ledger.c_str());
    return 1;
  }
  std::printf("recorded '%s' (%s, %s) -> %s\n", spec.title.c_str(),
              PanelKind(spec).c_str(), engine.c_str(), ledger.c_str());
  return 0;
}

// --------------------------------------------------------- diff/regress

bool LoadOrDie(const std::string& path, std::vector<LedgerRun>* runs) {
  std::string error;
  if (!LoadLedger(path, runs, &error)) {
    std::fprintf(stderr, "irmc_report: %s: %s\n", path.c_str(), error.c_str());
    return false;
  }
  return true;
}

DiffSpec SpecFromArgs(const Args& args) {
  DiffSpec spec;
  spec.rel_threshold =
      args.GetDoubleIn("threshold", 0.05, RealRange::AtLeast(0.0));
  spec.bootstrap_iters =
      static_cast<int>(args.GetIntIn("bootstrap", 300, 0, kMaxCount));
  spec.confidence =
      args.GetDoubleIn("confidence", 0.95, RealRange::Inside(0.0, 1.0));
  spec.seed = static_cast<std::uint64_t>(GetSeed(args, 42));
  spec.allow_config_mismatch = args.GetFlag("allow-config-mismatch");
  return spec;
}

int RunDiffOrRegress(const Args& args, bool gate) {
  const std::string base_path = args.GetString("baseline", "");
  const std::string cand_path = args.GetString("candidate", "");
  if (base_path.empty() || cand_path.empty()) {
    std::fprintf(stderr,
                 "irmc_report: %s needs --baseline and --candidate\n",
                 gate ? "regress" : "diff");
    return 2;
  }
  const DiffSpec spec = SpecFromArgs(args);
  const bool show_all = args.GetFlag("all");
  args.RejectUnknown();
  std::vector<LedgerRun> base, cand;
  if (!LoadOrDie(base_path, &base) || !LoadOrDie(cand_path, &cand)) return 2;

  const std::vector<RunDiff> diffs = DiffLedgers(base, cand, spec);
  const DiffSummary sum = Summarize(diffs);

  for (const RunDiff& rd : diffs) {
    bool header = false;
    for (const MetricDelta& d : rd.deltas) {
      if (!show_all && d.verdict == Verdict::kSame) continue;
      if (!header) {
        std::printf("%s/%s%s\n", rd.name.c_str(), rd.engine.c_str(),
                    rd.fingerprint_mismatch ? "  [CONFIG MISMATCH]" : "");
        header = true;
      }
      if (d.verdict == Verdict::kOnlyBaseline ||
          d.verdict == Verdict::kOnlyCandidate) {
        std::printf("  %-48s %s\n", d.metric.c_str(), ToString(d.verdict));
        continue;
      }
      char ci[64] = "";
      if (d.ci_lo != 0.0 || d.ci_hi != 0.0)
        std::snprintf(ci, sizeof(ci), "  ci=[%.4g,%.4g]", d.ci_lo, d.ci_hi);
      std::printf("  %-48s %-9s %.6g -> %.6g (%+.2f%%)%s\n", d.metric.c_str(),
                  ToString(d.verdict), d.baseline, d.candidate,
                  d.rel_change * 100.0, ci);
    }
  }
  std::printf("summary: %d regressed, %d improved, %d same, %d unpaired\n",
              sum.regressed, sum.improved, sum.same, sum.unpaired);

  if (!gate) return 0;
  if (sum.mismatched_pairs > 0 && !spec.allow_config_mismatch) {
    std::fprintf(stderr,
                 "irmc_report: %d run pair(s) have different config "
                 "fingerprints; a regression verdict would compare different "
                 "experiments (override with --allow-config-mismatch)\n",
                 sum.mismatched_pairs);
    return 2;
  }
  if (sum.regressed > 0) {
    std::fprintf(stderr, "REGRESSION: %d metric(s) significantly worse\n",
                 sum.regressed);
    for (const std::string& line : sum.regressions)
      std::fprintf(stderr, "  %s\n", line.c_str());
    return 1;
  }
  std::printf("no significant regressions\n");
  return 0;
}

// ----------------------------------------------------------------- html

/// Reads one panel's metric sidecar into a link-utilization heatmap
/// (rows = schemes, cols = x values, cells = mean per-link utilization).
bool SidecarHeatmap(const std::string& path, const std::string& title,
                    HeatmapData* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  out->title = title;
  std::map<std::string, std::size_t> row_of, col_of;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line.rfind("{\"kind\":\"build\"", 0) == 0) continue;
    json::Value v;
    std::string err;
    if (!json::Parse(line, &v, &err) || !v.IsObject()) continue;
    std::string scheme, x_label;
    double x = 0.0;
    for (const auto& [key, val] : v.object) {
      if (key == "scheme")
        scheme = val.StringOr("");
      else if (key != "metrics" && val.IsNumber()) {
        x_label = key;
        x = val.number;
      }
    }
    const json::Value* m = v.Find("metrics");
    if (scheme.empty() || m == nullptr) continue;
    ParsedMetrics pm;
    if (!ParseMetricsValue(*m, &pm, &err)) continue;
    double util = 0.0;
    bool have = false;
    for (const char* name :
         {"fabric.link_utilization_pct", "flit.link_utilization_pct"}) {
      const auto it = pm.histograms.find(name);
      if (it != pm.histograms.end() && it->second.count > 0) {
        util = it->second.Mean();
        have = true;
        break;
      }
    }
    if (!have) continue;
    char col[64];
    std::snprintf(col, sizeof(col), "%s=%.17g", x_label.c_str(), x);
    if (col_of.find(col) == col_of.end()) {
      col_of[col] = out->cols.size();
      out->cols.emplace_back(col);
    }
    if (row_of.find(scheme) == row_of.end()) {
      row_of[scheme] = out->rows.size();
      out->rows.push_back(scheme);
    }
    const std::size_t r = row_of[scheme], c = col_of[col];
    if (out->cells.size() <= r) out->cells.resize(out->rows.size());
    for (auto& row : out->cells) row.resize(out->cols.size(), 0.0);
    out->cells[r][c] = util;
  }
  return !out->cells.empty();
}

int CmdHtml(const Args& args) {
  const std::string ledger_path = args.GetString("ledger", DefaultLedgerPath());
  const std::string out_path = args.GetString("out", "");
  const std::string base_path = args.GetString("baseline", "");
  const std::string trace_path = args.GetString("trace", "");
  if (out_path.empty() || ledger_path.empty()) {
    std::fprintf(stderr, "irmc_report: html needs --ledger and --out\n");
    return 2;
  }
  // Sidecars default to living next to the ledger.
  std::string sidecar_dir = args.GetString("sidecar-dir", "");
  if (sidecar_dir.empty()) sidecar_dir = DirOf(ledger_path);
  HtmlInput input;
  input.title = args.GetString("title", "irmc performance report");
  const DiffSpec spec = SpecFromArgs(args);
  args.RejectUnknown();

  if (!LoadOrDie(ledger_path, &input.runs)) return 2;
  // Last record wins per (name, engine) — same pairing rule as diff —
  // so re-recorded panels render once, in first-recorded order.
  {
    std::map<std::string, std::size_t> keep;
    std::vector<LedgerRun> unique;
    for (const LedgerRun& r : input.runs) {
      const std::string key = r.info.name + '\n' + r.info.engine;
      const auto it = keep.find(key);
      if (it == keep.end()) {
        keep[key] = unique.size();
        unique.push_back(r);
      } else {
        unique[it->second] = r;
      }
    }
    input.runs = std::move(unique);
  }
  input.subtitle = "ledger: " + ledger_path + " · build " +
                   GetBuildInfo().git_sha + " (" + GetBuildInfo().compiler +
                   ')';
  if (!base_path.empty()) {
    std::vector<LedgerRun> base;
    if (!LoadOrDie(base_path, &base)) return 2;
    input.diffs = DiffLedgers(base, input.runs, spec);
    input.subtitle += " · baseline: " + base_path;
  }
  for (const LedgerRun& r : input.runs) {
    HeatmapData hm;
    if (SidecarHeatmap(SidecarPath(sidecar_dir, r.info.name), r.info.name,
                       &hm))
      input.heatmaps.push_back(std::move(hm));
  }
  if (!trace_path.empty()) {
    std::ifstream in(trace_path, std::ios::binary);
    if (!in) {
      std::fprintf(stderr, "irmc_report: cannot read %s\n",
                   trace_path.c_str());
      return 2;
    }
    std::ostringstream text;
    text << in.rdbuf();
    Tracer tracer;
    std::string error;
    if (!ParseTraceJsonLines(text.str(), &tracer, &error)) {
      std::fprintf(stderr, "irmc_report: %s: %s\n", trace_path.c_str(),
                   error.c_str());
      return 2;
    }
    for (const BlockerStat& s : AttributeBlocking(tracer)) {
      BlockerRow row;
      char label[64];
      if (s.source.IsInjection())
        std::snprintf(label, sizeof(label), "node %d (inject)",
                      s.source.actor);
      else
        std::snprintf(label, sizeof(label), "switch %d port %d",
                      s.source.actor, s.source.port);
      row.channel = label;
      row.blocked_cycles = static_cast<double>(s.blocked_cycles);
      row.intervals = s.intervals;
      input.blockers.push_back(std::move(row));
    }
    input.total_blocked_cycles =
        static_cast<double>(TotalBlockedCycles(tracer));
  }

  const std::string html = RenderHtmlReport(input);
  if (!WriteFile(out_path, html)) {
    std::fprintf(stderr, "irmc_report: cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::printf("wrote %s (%zu runs, %zu heatmaps, %zu bytes)\n",
              out_path.c_str(), input.runs.size(), input.heatmaps.size(),
              html.size());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = Args::Parse(argc, argv);
  if (args.VersionRequested()) {
    std::printf("%s\n%s\n", VersionLine("irmc_report").c_str(),
                ToJson(GetBuildInfo()).c_str());
    return 0;
  }
  const std::string& cmd = args.command();
  if (cmd == "record") return CmdRecord(args);
  if (cmd == "diff") return RunDiffOrRegress(args, /*gate=*/false);
  if (cmd == "regress") return RunDiffOrRegress(args, /*gate=*/true);
  if (cmd == "html") return CmdHtml(args);
  return Usage();
}
