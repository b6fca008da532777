// The report layer: RunRecord serialisation and parse round-trip,
// config fingerprinting, the noise-aware diff verdicts irmc_report
// regress gates on, and well-formedness of the self-contained HTML
// dashboard.
#include "report/diff.hpp"
#include "report/html.hpp"
#include "report/ledger.hpp"

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

namespace irmc::report {
namespace {

/// A small but fully-populated record: series, counters, gauges, a
/// histogram, and one per-scheme latency histogram.
std::string SampleRecord(const std::string& name, double gauge_value,
                         std::int64_t latency_scale) {
  RunInfo info;
  info.name = name;
  info.kind = "single-panel";
  info.engine = "vct";
  info.config = "engine=vct mode=single sizes=2,4 title=" + name;
  info.wall_seconds = 1.25;
  SeriesData series;
  series.columns = {"mcast_size", "tree-worm", "path-worm"};
  series.rows = {{2.0, 10.0 * static_cast<double>(latency_scale), 12.0},
                 {4.0, 20.0 * static_cast<double>(latency_scale), 25.0}};
  MetricsRegistry m;
  m.GetCounter("mcast.delivered").value = 64;
  m.GetGauge("host.mean_latency").Set(gauge_value);
  Histogram& h = m.GetHistogram("mcast.latency");
  for (std::int64_t v : {100, 200, 300, 400})
    h.Add(v * latency_scale);
  std::map<std::string, Histogram> schemes;
  schemes["tree-worm"] = h;
  return RunRecordJson(info, series, m, schemes);
}

TEST(Fingerprint, IsStableFnv1a64) {
  // FNV-1a 64 pinned constants: a change here breaks every committed
  // baseline's run pairing.
  EXPECT_EQ(Fingerprint(""), 0xcbf29ce484222325ULL);
  EXPECT_EQ(Fingerprint("a"), 0xaf63dc4c8601ec8cULL);
  EXPECT_NE(Fingerprint("engine=vct"), Fingerprint("engine=flit"));
  EXPECT_EQ(Fingerprint("engine=vct"), Fingerprint("engine=vct"));
}

TEST(RunRecord, SerializesNameSortedAndRoundTrips) {
  const std::string line = SampleRecord("fig6", 42.5, 1);
  EXPECT_EQ(line.back(), '\n');
  // Top-level keys appear in sorted order.
  std::size_t prev = 0;
  for (const char* key :
       {"\"build\":", "\"config\":", "\"engine\":", "\"fingerprint\":",
        "\"kind\":", "\"metrics\":", "\"name\":", "\"schemes\":",
        "\"series\":", "\"wall_seconds\":"}) {
    const std::size_t at = line.find(key);
    ASSERT_NE(at, std::string::npos) << key;
    EXPECT_GT(at, prev) << key << " out of order in " << line;
    prev = at;
  }

  std::vector<LedgerRun> runs;
  std::string error;
  ASSERT_TRUE(ParseLedger(line, &runs, &error)) << error;
  ASSERT_EQ(runs.size(), 1u);
  const LedgerRun& r = runs[0];
  EXPECT_EQ(r.info.name, "fig6");
  EXPECT_EQ(r.info.kind, "single-panel");
  EXPECT_EQ(r.info.engine, "vct");
  EXPECT_EQ(r.fingerprint, Fingerprint(r.info.config));
  EXPECT_EQ(r.info.wall_seconds, 1.25);
  ASSERT_EQ(r.series.columns.size(), 3u);
  EXPECT_EQ(r.series.columns[0], "mcast_size");
  ASSERT_EQ(r.series.rows.size(), 2u);
  EXPECT_EQ(r.series.rows[1][1], 20.0);
  EXPECT_EQ(r.metrics.counters.at("mcast.delivered"), 64.0);
  EXPECT_EQ(r.metrics.gauges.at("host.mean_latency"), 42.5);
  const ParsedHistogram& h = r.metrics.histograms.at("mcast.latency");
  EXPECT_EQ(h.count, 4);
  EXPECT_EQ(h.min, 100);
  EXPECT_EQ(h.max, 400);
  // The parsed form re-derives the same quantiles the writer embedded.
  EXPECT_EQ(h.Quantile(0.5), h.p50);
  EXPECT_EQ(h.Quantile(0.95), h.p95);
  ASSERT_EQ(r.scheme_hists.count("tree-worm"), 1u);
  EXPECT_EQ(r.scheme_hists.at("tree-worm").count, 4);
}

TEST(RunRecord, ParseRejectsMalformedLinesWithLineNumber) {
  std::vector<LedgerRun> runs;
  std::string error;
  const std::string good = SampleRecord("ok", 1.0, 1);
  EXPECT_FALSE(ParseLedger(good + "not json\n", &runs, &error));
  EXPECT_NE(error.find("line 2"), std::string::npos) << error;
  // Blank lines are tolerated (append-only files end with newline).
  runs.clear();
  ASSERT_TRUE(ParseLedger(good + "\n" + good, &runs, &error)) << error;
  EXPECT_EQ(runs.size(), 2u);
}

DiffSpec FastSpec() {
  DiffSpec spec;
  spec.bootstrap_iters = 200;
  return spec;
}

std::vector<LedgerRun> Parse1(const std::string& text) {
  std::vector<LedgerRun> runs;
  std::string error;
  EXPECT_TRUE(ParseLedger(text, &runs, &error)) << error;
  return runs;
}

const MetricDelta* FindDelta(const std::vector<RunDiff>& diffs,
                             const std::string& metric) {
  for (const RunDiff& rd : diffs)
    for (const MetricDelta& d : rd.deltas)
      if (d.metric == metric) return &d;
  return nullptr;
}

TEST(Diff, SelfDiffHasNoSignificantDeltas) {
  const auto runs = Parse1(SampleRecord("fig6", 42.5, 1));
  const auto diffs = DiffLedgers(runs, runs, FastSpec());
  const DiffSummary s = Summarize(diffs);
  EXPECT_EQ(s.regressed, 0);
  EXPECT_EQ(s.improved, 0);
  EXPECT_EQ(s.unpaired, 0);
  EXPECT_EQ(s.mismatched_pairs, 0);
  EXPECT_GT(s.same, 0);
}

TEST(Diff, PlantedRegressionAndImprovementGetVerdicts) {
  const auto base = Parse1(SampleRecord("fig6", 100.0, 1));
  const auto worse = Parse1(SampleRecord("fig6", 100.0, 2));
  auto diffs = DiffLedgers(base, worse, FastSpec());
  // The 2x scaled series cells and histogram mean read as regressions.
  const MetricDelta* cell =
      FindDelta(diffs, "series.tree-worm[mcast_size=2]");
  ASSERT_NE(cell, nullptr);
  EXPECT_EQ(cell->verdict, Verdict::kRegressed);
  EXPECT_NEAR(cell->rel_change, 1.0, 1e-12);
  const MetricDelta* mean = FindDelta(diffs, "hist.mcast.latency.mean");
  ASSERT_NE(mean, nullptr);
  EXPECT_EQ(mean->verdict, Verdict::kRegressed);
  // ...and the CI excludes zero (a genuine shift, not noise).
  EXPECT_GT(mean->ci_lo, 0.0);
  const DiffSummary s = Summarize(diffs);
  EXPECT_GT(s.regressed, 0);
  ASSERT_FALSE(s.regressions.empty());
  EXPECT_NE(s.regressions[0].find("fig6/vct"), std::string::npos);

  // Swapped direction: the same pair diffed the other way improves.
  const auto improved = DiffLedgers(worse, base, FastSpec());
  const MetricDelta* back =
      FindDelta(improved, "series.tree-worm[mcast_size=2]");
  ASSERT_NE(back, nullptr);
  EXPECT_EQ(back->verdict, Verdict::kImproved);
}

TEST(Diff, CollapseToNoCompletionsRegresses) {
  // A load point with no completions records mean latency 0.0. Planted
  // collapse: the candidate loses every completion at load 0.5, which
  // must fail `regress`, not read as the fastest point ever.
  const auto load_record = [](double at_half) {
    RunInfo info;
    info.name = "fig9";
    info.kind = "load-panel";
    info.engine = "vct";
    info.config = "engine=vct mode=load loads=0.25,0.5";
    SeriesData series;
    series.columns = {"load", "tree-worm", "uni-binomial"};
    series.rows = {{0.25, 2100.0, 0.0}, {0.5, at_half, 0.0}};
    return Parse1(RunRecordJson(info, series, MetricsRegistry{}, {}));
  };
  const auto base = load_record(5400.0);
  const auto collapsed = load_record(0.0);
  const auto diffs = DiffLedgers(base, collapsed, FastSpec());
  const MetricDelta* cell = FindDelta(diffs, "series.tree-worm[load=0.5]");
  ASSERT_NE(cell, nullptr);
  EXPECT_EQ(cell->verdict, Verdict::kRegressed);
  const DiffSummary s = Summarize(diffs);
  EXPECT_EQ(s.regressed, 1);
  EXPECT_EQ(s.improved, 0);
  // No completions on both sides is unchanged.
  const MetricDelta* none =
      FindDelta(diffs, "series.uni-binomial[load=0.25]");
  ASSERT_NE(none, nullptr);
  EXPECT_EQ(none->verdict, Verdict::kSame);
  // Recovering completions improves, however high their latency.
  const auto recovered = DiffLedgers(collapsed, base, FastSpec());
  const MetricDelta* back =
      FindDelta(recovered, "series.tree-worm[load=0.5]");
  ASSERT_NE(back, nullptr);
  EXPECT_EQ(back->verdict, Verdict::kImproved);
}

TEST(Diff, SubThresholdChangeIsNoise) {
  const auto base = Parse1(SampleRecord("fig6", 100.0, 1));
  const auto near = Parse1(SampleRecord("fig6", 102.0, 1));  // +2% < 5%
  const auto diffs = DiffLedgers(base, near, FastSpec());
  const MetricDelta* g = FindDelta(diffs, "gauge.host.mean_latency");
  ASSERT_NE(g, nullptr);
  EXPECT_EQ(g->verdict, Verdict::kSame);
  EXPECT_EQ(Summarize(diffs).regressed, 0);
}

TEST(Diff, HigherIsBetterMetricsGateInTheirDirection) {
  auto base = Parse1(SampleRecord("fig6", 1.0, 1));
  auto cand = Parse1(SampleRecord("fig6", 1.0, 1));
  cand[0].metrics.counters["mcast.delivered"] = 32.0;  // halved throughput
  const auto diffs = DiffLedgers(base, cand, FastSpec());
  const MetricDelta* d = FindDelta(diffs, "counter.mcast.delivered");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->direction, Direction::kHigherIsBetter);
  EXPECT_EQ(d->verdict, Verdict::kRegressed);
}

TEST(Diff, UnpairedRunsAndFingerprintMismatchSurface) {
  const auto base = Parse1(SampleRecord("fig6", 1.0, 1));
  const auto other = Parse1(SampleRecord("fig7", 1.0, 1));
  const auto diffs = DiffLedgers(base, other, FastSpec());
  const DiffSummary s = Summarize(diffs);
  EXPECT_EQ(s.unpaired, 2);  // fig6 only-baseline, fig7 only-candidate

  auto cand = Parse1(SampleRecord("fig6", 1.0, 1));
  cand[0].fingerprint ^= 1;  // different config hash
  const auto mismatched = DiffLedgers(base, cand, FastSpec());
  EXPECT_EQ(Summarize(mismatched).mismatched_pairs, 1);
}

TEST(Diff, LastRecordWinsOnAppendOnlyLedgers) {
  // Re-recording a run supersedes the earlier line: pairing the
  // superseded baseline value (100) would read the candidate as +10%.
  const auto base =
      Parse1(SampleRecord("fig6", 100.0, 1) + SampleRecord("fig6", 110.0, 1));
  const auto cand = Parse1(SampleRecord("fig6", 110.0, 1));
  const auto diffs = DiffLedgers(base, cand, FastSpec());
  const MetricDelta* g = FindDelta(diffs, "gauge.host.mean_latency");
  ASSERT_NE(g, nullptr);
  EXPECT_EQ(g->baseline, 110.0);
  EXPECT_EQ(g->verdict, Verdict::kSame);
}

TEST(Diff, BootstrapVerdictsAreDeterministic) {
  const auto base = Parse1(SampleRecord("fig6", 1.0, 1));
  const auto cand = Parse1(SampleRecord("fig6", 1.0, 2));
  const auto a = DiffLedgers(base, cand, FastSpec());
  const auto b = DiffLedgers(base, cand, FastSpec());
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].deltas.size(), b[i].deltas.size());
    for (std::size_t j = 0; j < a[i].deltas.size(); ++j) {
      EXPECT_EQ(a[i].deltas[j].verdict, b[i].deltas[j].verdict);
      EXPECT_EQ(a[i].deltas[j].ci_lo, b[i].deltas[j].ci_lo);
      EXPECT_EQ(a[i].deltas[j].ci_hi, b[i].deltas[j].ci_hi);
    }
  }
}

TEST(Diff, DirectionInference) {
  EXPECT_EQ(MetricDirection("wall_seconds"), Direction::kInfo);
  EXPECT_EQ(MetricDirection("gauge.perf.vct.events_per_sec"),
            Direction::kHigherIsBetter);
  EXPECT_EQ(MetricDirection("counter.mcast.delivered"),
            Direction::kHigherIsBetter);
  EXPECT_EQ(MetricDirection("series.tree-worm[mcast_size=4]"),
            Direction::kLowerIsBetter);
  EXPECT_EQ(MetricDirection("hist.mcast.latency"),
            Direction::kLowerIsBetter);
  // Workload-shape metrics never gate.
  EXPECT_EQ(MetricDirection("counter.fabric.hops"), Direction::kInfo);
}

// ------------------------------------------------------------- html

/// Minimal HTML well-formedness scan: every opened tag is closed in
/// LIFO order (void and self-closed elements excepted).
void ExpectBalancedTags(const std::string& html) {
  static const std::vector<std::string> kVoid{"meta", "br",   "hr",
                                              "img",  "input", "link"};
  std::vector<std::string> stack;
  std::size_t i = 0;
  while ((i = html.find('<', i)) != std::string::npos) {
    const std::size_t end = html.find('>', i);
    ASSERT_NE(end, std::string::npos) << "unterminated tag at " << i;
    std::string tag = html.substr(i + 1, end - i - 1);
    i = end + 1;
    if (tag.empty() || tag[0] == '!') continue;  // doctype/comment
    const bool closing = tag[0] == '/';
    const bool self_closed = tag.back() == '/';
    if (closing) tag = tag.substr(1);
    std::string name;
    for (char c : tag) {
      if (c == ' ' || c == '\n' || c == '/') break;
      name.push_back(c);
    }
    if (self_closed) continue;
    bool is_void = false;
    for (const std::string& v : kVoid) is_void |= (v == name);
    if (is_void) continue;
    if (!closing) {
      stack.push_back(name);
    } else {
      ASSERT_FALSE(stack.empty()) << "closing </" << name << "> with no open";
      EXPECT_EQ(stack.back(), name) << "mis-nested close at offset " << i;
      stack.pop_back();
    }
  }
  EXPECT_TRUE(stack.empty()) << "unclosed <" << stack.back() << ">";
}

TEST(Html, RendersWellFormedSelfContainedDocument) {
  HtmlInput in;
  in.title = "irmc perf report";
  in.subtitle = "ledger: bench-out/ledger.jsonl";
  in.runs = Parse1(SampleRecord("fig6 latency vs size", 42.5, 1));
  in.diffs = DiffLedgers(in.runs, Parse1(SampleRecord(
                                       "fig6 latency vs size", 42.5, 2)),
                         FastSpec());
  HeatmapData hm;
  hm.title = "link utilization";
  hm.rows = {"tree-worm", "path-worm"};
  hm.cols = {"2", "4"};
  hm.cells = {{10.0, 55.0}, {0.0, 100.0}};
  in.heatmaps.push_back(hm);
  in.blockers.push_back({"switch 3 port 1", 1234.0, 7});
  in.total_blocked_cycles = 2000.0;

  const std::string html = RenderHtmlReport(in);
  EXPECT_EQ(html.rfind("<!doctype html>", 0), 0u);
  EXPECT_NE(html.find("</html>"), std::string::npos);
  ExpectBalancedTags(html);

  // Self-contained: no external fetches of any kind.
  EXPECT_EQ(html.find("http://"), std::string::npos);
  EXPECT_EQ(html.find("https://"), std::string::npos);
  EXPECT_EQ(html.find("src="), std::string::npos);
  EXPECT_EQ(html.find("href="), std::string::npos);

  // Everything the input referenced is visible in the document.
  for (const char* needle :
       {"irmc perf report", "fig6 latency vs size", "tree-worm", "path-worm",
        "link utilization", "switch 3 port 1", "mcast_size", "<svg"})
    EXPECT_NE(html.find(needle), std::string::npos) << needle;

  // Identical inputs render identical bytes (the determinism contract
  // extends to the dashboard).
  EXPECT_EQ(RenderHtmlReport(in), html);
}

TEST(Html, EmptySeriesRunRendersWithoutCharts) {
  // perf-kind records carry no series/schemes; the dashboard must not
  // emit degenerate SVG for them.
  RunInfo info;
  info.name = "perfG_system_build";
  info.kind = "perf";
  info.engine = "vct+flit";
  info.config = "ports=8";
  MetricsRegistry m;
  m.GetGauge("perfG.lookups_per_sec").Set(1e9);
  HtmlInput in;
  in.title = "perf";
  in.runs = Parse1(RunRecordJson(info, SeriesData{}, m, {}));
  const std::string html = RenderHtmlReport(in);
  ExpectBalancedTags(html);
  EXPECT_NE(html.find("perfG_system_build"), std::string::npos);
}

}  // namespace
}  // namespace irmc::report
