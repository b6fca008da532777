#include "report/diff.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <utility>

namespace irmc::report {
namespace {

bool Contains(const std::string& name, const char* needle) {
  return name.find(needle) != std::string::npos;
}

/// SplitMix64 — tiny deterministic generator for the bootstrap. Seeded
/// per metric (spec.seed XOR FNV of the metric name) so verdicts do not
/// depend on the order metrics are compared in.
std::uint64_t NextRand(std::uint64_t* state) {
  std::uint64_t z = (*state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Expands a parsed histogram into at most `cap` representative samples:
/// each occupied bin contributes its proportional share, spread linearly
/// over the bin's effective inclusive range (clamped to [min, max], the
/// same convention BinnedQuantile reads ranks with).
std::vector<double> RepresentativeSamples(const ParsedHistogram& h, int cap) {
  std::vector<double> out;
  if (h.count <= 0) return out;
  for (const BinSlice& s : h.bins) {
    const auto lo = static_cast<double>(std::max(s.lower, h.min));
    const auto hi = static_cast<double>(std::min(s.upper - 1, h.max));
    std::int64_t m = s.count;
    if (h.count > cap)
      m = std::max<std::int64_t>(
          1, (s.count * static_cast<std::int64_t>(cap)) / h.count);
    if (m == 1) {
      out.push_back((lo + hi) / 2.0);
      continue;
    }
    for (std::int64_t j = 0; j < m; ++j)
      out.push_back(lo + (hi - lo) * static_cast<double>(j) /
                             static_cast<double>(m - 1));
  }
  return out;
}

/// Percentile bootstrap CI of (mean(candidate) - mean(baseline)).
std::pair<double, double> BootstrapMeanDiffCi(
    const std::vector<double>& base, const std::vector<double>& cand,
    int iters, double confidence, std::uint64_t seed) {
  std::vector<double> diffs;
  diffs.reserve(static_cast<std::size_t>(iters));
  std::uint64_t state = seed;
  for (int i = 0; i < iters; ++i) {
    double bs = 0.0, cs = 0.0;
    for (std::size_t j = 0; j < base.size(); ++j)
      bs += base[NextRand(&state) % base.size()];
    for (std::size_t j = 0; j < cand.size(); ++j)
      cs += cand[NextRand(&state) % cand.size()];
    diffs.push_back(cs / static_cast<double>(cand.size()) -
                    bs / static_cast<double>(base.size()));
  }
  std::sort(diffs.begin(), diffs.end());
  const double alpha = (1.0 - confidence) / 2.0;
  const auto at = [&diffs](double q) {
    const double r = q * static_cast<double>(diffs.size() - 1);
    const auto k = static_cast<std::size_t>(r);
    const std::size_t k1 = std::min(k + 1, diffs.size() - 1);
    const double frac = r - static_cast<double>(k);
    return diffs[k] + (diffs[k1] - diffs[k]) * frac;
  };
  return {at(alpha), at(1.0 - alpha)};
}

double RelChange(double baseline, double candidate) {
  if (baseline == 0.0) return candidate == 0.0 ? 0.0 : HUGE_VAL;
  return (candidate - baseline) / std::fabs(baseline);
}

/// Threshold-only verdict (scalars and histogram quantiles). An
/// infinite rel (baseline 0, candidate nonzero) on a gated metric is a
/// real change and never reads as noise.
Verdict ScalarVerdict(Direction dir, double rel, double threshold) {
  if (dir == Direction::kInfo) return Verdict::kSame;
  if (std::isfinite(rel) && std::fabs(rel) < threshold) return Verdict::kSame;
  const bool worse = dir == Direction::kLowerIsBetter ? rel > 0 : rel < 0;
  return worse ? Verdict::kRegressed : Verdict::kImproved;
}

void PushDelta(std::vector<MetricDelta>* out, const std::string& metric,
               double baseline, double candidate, const DiffSpec& spec) {
  MetricDelta d;
  d.metric = metric;
  d.direction = MetricDirection(metric);
  d.baseline = baseline;
  d.candidate = candidate;
  d.rel_change = RelChange(baseline, candidate);
  d.verdict = ScalarVerdict(d.direction, d.rel_change, spec.rel_threshold);
  out->push_back(std::move(d));
}

void PushMissing(std::vector<MetricDelta>* out, const std::string& metric,
                 double value, bool only_baseline) {
  MetricDelta d;
  d.metric = metric;
  d.direction = MetricDirection(metric);
  d.verdict = only_baseline ? Verdict::kOnlyBaseline : Verdict::kOnlyCandidate;
  (only_baseline ? d.baseline : d.candidate) = value;
  out->push_back(std::move(d));
}

void DiffScalarMap(const std::map<std::string, double>& base,
                   const std::map<std::string, double>& cand,
                   const std::string& prefix, const DiffSpec& spec,
                   std::vector<MetricDelta>* out) {
  for (const auto& [name, bv] : base) {
    const auto it = cand.find(name);
    if (it == cand.end())
      PushMissing(out, prefix + name, bv, /*only_baseline=*/true);
    else
      PushDelta(out, prefix + name, bv, it->second, spec);
  }
  for (const auto& [name, cv] : cand)
    if (base.find(name) == base.end())
      PushMissing(out, prefix + name, cv, /*only_baseline=*/false);
}

void DiffHistogram(const std::string& metric, const ParsedHistogram& base,
                   const ParsedHistogram& cand, const DiffSpec& spec,
                   std::vector<MetricDelta>* out) {
  MetricDelta d;
  d.metric = metric + ".mean";
  d.direction = MetricDirection(metric);
  d.baseline = base.Mean();
  d.candidate = cand.Mean();
  d.rel_change = RelChange(d.baseline, d.candidate);
  d.verdict = ScalarVerdict(d.direction, d.rel_change, spec.rel_threshold);
  // The threshold said "changed"; let resampling noise veto it. Seeded
  // per metric so the verdict is independent of comparison order.
  if (d.verdict != Verdict::kSame && spec.bootstrap_iters > 0 &&
      base.count > 0 && cand.count > 0) {
    const std::vector<double> bs = RepresentativeSamples(base, 2048);
    const std::vector<double> cs = RepresentativeSamples(cand, 2048);
    if (!bs.empty() && !cs.empty()) {
      const std::uint64_t seed = spec.seed ^ Fingerprint(metric);
      const auto [lo, hi] = BootstrapMeanDiffCi(
          bs, cs, spec.bootstrap_iters, spec.confidence, seed);
      d.ci_lo = lo;
      d.ci_hi = hi;
      if (lo <= 0.0 && 0.0 <= hi) d.verdict = Verdict::kSame;
    }
  }
  out->push_back(d);
  // Tail quantiles gate on the threshold alone (they are already
  // derived, and their sampling noise is folded into the mean's CI).
  if (base.count > 0 && cand.count > 0) {
    PushDelta(out, metric + ".p50", base.p50, cand.p50, spec);
    PushDelta(out, metric + ".p95", base.p95, cand.p95, spec);
    PushDelta(out, metric + ".p99", base.p99, cand.p99, spec);
  }
}

/// One series cell. A cell of 0.0 is a point with no completions (the
/// runners leave a point's mean latency at 0.0 then), not the fastest
/// possible point: losing every completion regresses, gaining some
/// improves, whatever the latency.
void PushSeriesCell(std::vector<MetricDelta>* out, const std::string& metric,
                    double baseline, double candidate, const DiffSpec& spec) {
  if (baseline != 0.0 && candidate != 0.0) {
    PushDelta(out, metric, baseline, candidate, spec);
    return;
  }
  MetricDelta d;
  d.metric = metric;
  d.direction = MetricDirection(metric);
  d.baseline = baseline;
  d.candidate = candidate;
  d.rel_change = RelChange(baseline, candidate);
  d.verdict = baseline == candidate ? Verdict::kSame
              : candidate == 0.0    ? Verdict::kRegressed
                                    : Verdict::kImproved;
  out->push_back(std::move(d));
}

/// "series.<scheme>[<xlabel>=<x>]" cells from the recorded rows.
void DiffSeries(const SeriesData& base, const SeriesData& cand,
                const DiffSpec& spec, std::vector<MetricDelta>* out) {
  if (base.columns.empty() || base.columns != cand.columns) return;
  const std::string& x_label = base.columns[0];
  // Index candidate rows by x value (%.17g keyed).
  const auto key = [](double x) {
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", x);
    return std::string(buf);
  };
  std::map<std::string, const std::vector<double>*> cand_rows;
  for (const auto& row : cand.rows)
    if (!row.empty()) cand_rows[key(row[0])] = &row;
  for (const auto& row : base.rows) {
    if (row.empty()) continue;
    const auto it = cand_rows.find(key(row[0]));
    if (it == cand_rows.end()) continue;
    const std::vector<double>& crow = *it->second;
    for (std::size_t c = 1; c < row.size() && c < crow.size(); ++c) {
      if (c >= base.columns.size()) break;
      const std::string metric = "series." + base.columns[c] + '[' + x_label +
                                 '=' + key(row[0]) + ']';
      PushSeriesCell(out, metric, row[c], crow[c], spec);
    }
  }
}

}  // namespace

const char* ToString(Verdict v) {
  switch (v) {
    case Verdict::kSame: return "same";
    case Verdict::kImproved: return "improved";
    case Verdict::kRegressed: return "regressed";
    case Verdict::kOnlyBaseline: return "only-baseline";
    case Verdict::kOnlyCandidate: return "only-candidate";
  }
  return "?";
}

const char* ToString(Direction d) {
  switch (d) {
    case Direction::kLowerIsBetter: return "lower-is-better";
    case Direction::kHigherIsBetter: return "higher-is-better";
    case Direction::kInfo: return "info";
  }
  return "?";
}

Direction MetricDirection(const std::string& name) {
  // wall_seconds is machine-dependent context, never a gate.
  if (Contains(name, "wall_seconds")) return Direction::kInfo;
  if (Contains(name, "per_sec") || Contains(name, "throughput") ||
      Contains(name, "completed") || Contains(name, "delivered"))
    return Direction::kHigherIsBetter;
  // series.* cells are the figures' latency curves.
  if (name.rfind("series.", 0) == 0) return Direction::kLowerIsBetter;
  if (Contains(name, "latency") || Contains(name, "cycles") ||
      Contains(name, "blocked") || Contains(name, "stall") ||
      Contains(name, "unfinished") || Contains(name, "abort"))
    return Direction::kLowerIsBetter;
  // Everything else (event counts, fan-outs, utilization shapes, bin
  // counts) describes the workload rather than its performance.
  return Direction::kInfo;
}

std::vector<RunDiff> DiffLedgers(const std::vector<LedgerRun>& baseline,
                                 const std::vector<LedgerRun>& candidate,
                                 const DiffSpec& spec) {
  // Last record wins: re-recording a panel into an append-only ledger
  // supersedes the earlier line.
  const auto index = [](const std::vector<LedgerRun>& runs) {
    std::map<std::string, const LedgerRun*> by_key;
    for (const LedgerRun& r : runs)
      by_key[r.info.name + '\n' + r.info.engine] = &r;
    return by_key;
  };
  const auto base_by = index(baseline);
  const auto cand_by = index(candidate);

  std::vector<RunDiff> out;
  for (const auto& [key, b] : base_by) {
    RunDiff rd;
    rd.name = b->info.name;
    rd.engine = b->info.engine;
    rd.baseline_config = b->info.config;
    const auto it = cand_by.find(key);
    if (it == cand_by.end()) {
      MetricDelta d;
      d.metric = "run";
      d.verdict = Verdict::kOnlyBaseline;
      rd.deltas.push_back(d);
      out.push_back(std::move(rd));
      continue;
    }
    const LedgerRun* c = it->second;
    rd.candidate_config = c->info.config;
    rd.fingerprint_mismatch = b->fingerprint != c->fingerprint;
    DiffScalarMap(b->metrics.counters, c->metrics.counters, "counter.", spec,
                  &rd.deltas);
    DiffScalarMap(b->metrics.gauges, c->metrics.gauges, "gauge.", spec,
                  &rd.deltas);
    for (const auto& [name, bh] : b->metrics.histograms) {
      const auto hit = c->metrics.histograms.find(name);
      if (hit == c->metrics.histograms.end())
        PushMissing(&rd.deltas, "hist." + name, bh.Mean(), true);
      else
        DiffHistogram("hist." + name, bh, hit->second, spec, &rd.deltas);
    }
    for (const auto& [name, ch] : c->metrics.histograms)
      if (b->metrics.histograms.find(name) == b->metrics.histograms.end())
        PushMissing(&rd.deltas, "hist." + name, ch.Mean(), false);
    for (const auto& [name, bh] : b->scheme_hists) {
      const auto hit = c->scheme_hists.find(name);
      if (hit != c->scheme_hists.end())
        DiffHistogram("scheme." + name + ".latency", bh, hit->second, spec,
                      &rd.deltas);
    }
    DiffSeries(b->series, c->series, spec, &rd.deltas);
    PushDelta(&rd.deltas, "wall_seconds", b->info.wall_seconds,
              c->info.wall_seconds, spec);
    out.push_back(std::move(rd));
  }
  for (const auto& [key, c] : cand_by) {
    if (base_by.find(key) != base_by.end()) continue;
    RunDiff rd;
    rd.name = c->info.name;
    rd.engine = c->info.engine;
    rd.candidate_config = c->info.config;
    MetricDelta d;
    d.metric = "run";
    d.verdict = Verdict::kOnlyCandidate;
    rd.deltas.push_back(d);
    out.push_back(std::move(rd));
  }
  return out;
}

DiffSummary Summarize(const std::vector<RunDiff>& diffs) {
  DiffSummary s;
  std::vector<std::pair<double, std::string>> worst;
  for (const RunDiff& rd : diffs) {
    if (rd.fingerprint_mismatch) ++s.mismatched_pairs;
    for (const MetricDelta& d : rd.deltas) {
      switch (d.verdict) {
        case Verdict::kSame: ++s.same; break;
        case Verdict::kImproved: ++s.improved; break;
        case Verdict::kRegressed: {
          ++s.regressed;
          char buf[64];
          std::snprintf(buf, sizeof(buf), "%+.1f%%", d.rel_change * 100.0);
          worst.emplace_back(
              -std::fabs(d.rel_change),
              rd.name + '/' + rd.engine + ": " + d.metric + " (" + buf + ')');
          break;
        }
        case Verdict::kOnlyBaseline:
        case Verdict::kOnlyCandidate: ++s.unpaired; break;
      }
    }
  }
  std::sort(worst.begin(), worst.end());
  for (auto& [mag, line] : worst) s.regressions.push_back(std::move(line));
  return s;
}

}  // namespace irmc::report
