// irmcbench: runs one workload of the irmcsim benchmark and prints its
// metrics as one JSON line.
//
//   irmcbench --workload load_vct|load_flit|single_sweep --seed N
//             --seconds S --trace 0|1 --threads T
//             [--expect-digest HEX] [--spans FILE]
//
// A run has two phases:
//  1. Gate. The workload's small reference configuration runs at a fixed
//     seed at 1 trial thread and at 4. Both must deliver every multicast
//     exactly once, agree exactly, match the pinned digest
//     (--expect-digest), and reproduce the library runner's own results.
//  2. Measured phase, on T trial threads: setup + batch, repeated until
//     --seconds have passed. Setup clears the System cache, builds every
//     System, and generates every input from --seed; setup_s is the
//     median setup time. A batch plays all inputs once; every batch must
//     reproduce the first one's results exactly. With --trace 0 the
//     batches run as the figures do (metrics registry on, no spans) and
//     give the end-to-end metrics. With --trace 1 they rotate between
//     that, a traced batch, and a batch without a registry; the
//     per-layer metrics come from these.
// The exit code is 0 only when every check passed.
#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <optional>
#include <string>

#include "bench.hpp"
#include "common/json.hpp"
#include "common/stats.hpp"
#include "core/parallel.hpp"
#include "metrics/export.hpp"
#include "topology/system_builder.hpp"

namespace irmcbench {
namespace {

using irmc::SampleSet;

/// The gate's inputs come from this seed whatever --seed is, so that its
/// digest can be pinned.
constexpr std::uint64_t kGateSeed = 1;
/// The gate checks that results at this many trial threads equal the
/// serial ones.
constexpr int kGateThreads = 4;
/// Trace mode rotates among three batch kinds; run at least two of each.
constexpr int kMinTraceBatches = 6;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  int threads = 1;
  std::string expect_digest;
  std::string spans_path;
};

bool ParseOptions(int argc, char** argv, Options* o) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      o->workload = val;
    } else if (key == "--seed") {
      o->seed = std::strtoull(val.c_str(), &end, 10);
    } else if (key == "--seconds") {
      o->seconds = std::strtod(val.c_str(), &end);
    } else if (key == "--trace") {
      o->trace = val == "1";
    } else if (key == "--threads") {
      o->threads = static_cast<int>(std::strtol(val.c_str(), &end, 10));
    } else if (key == "--expect-digest") {
      o->expect_digest = val;
    } else if (key == "--spans") {
      o->spans_path = val;
    } else {
      return false;
    }
    if (end != nullptr && *end != '\0') return false;
  }
  return argc % 2 == 1 && !o->workload.empty() && o->seconds > 0.0 &&
         o->threads >= 1;
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       std::uint64_t seed, bool gate) {
  if (name == "load_vct") return MakeLoadWorkload(false, seed, gate);
  if (name == "load_flit") return MakeLoadWorkload(true, seed, gate);
  if (name == "single_sweep") return MakeSingleSweepWorkload(seed, gate);
  return nullptr;
}

std::string Hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  SampleSet s;
  for (double x : v) s.Add(x);
  return s.Median();
}

double Quantile(const SampleSet& s, double q) {
  return s.count() > 0 ? s.Quantile(q) : 0.0;
}

double Ratio(double num, double den) { return den != 0.0 ? num / den : 0.0; }

/// Counts and problems accumulated over the whole run.
struct Ledger {
  long attempted = 0;
  long failed = 0;
  std::vector<std::string> problems;

  void Problem(const std::string& what) {
    problems.push_back(what);
    std::fprintf(stderr, "irmcbench: FAIL: %s\n", what.c_str());
  }
};

/// Everything deterministic a batch reports besides its digest, as text,
/// so two batches compare exactly.
std::string DeterministicText(const BatchResult& r) {
  std::string out = Hex(r.digest);
  const auto add = [&out](const std::string& v) {
    out += ' ';
    out += v;
  };
  for (double v : r.latency_mean) add(irmc::json::Num(v));
  for (double v : r.fidelity) add(irmc::json::Num(v));
  add(irmc::json::Num(r.throughput));
  add(irmc::json::Num(r.max_link_util));
  add(std::to_string(r.backlog_max));
  add(std::to_string(r.live_max));
  add(std::to_string(r.failed));
  for (const auto& reg : r.metrics) add(irmc::ToJson(reg));
  return out;
}

std::string Gate(const Options& o, Ledger& ledger) {
  auto gate = MakeWorkload(o.workload, kGateSeed, true);
  gate->Setup(nullptr);
  irmc::SetParallelThreads(1);
  const BatchResult serial = gate->RunBatch({});
  irmc::SetParallelThreads(kGateThreads);
  const BatchResult parallel = gate->RunBatch({});
  irmc::SetParallelThreads(o.threads);
  const std::size_t before = ledger.problems.size();
  if (serial.failed + parallel.failed > 0)
    ledger.Problem("gate: " + std::to_string(serial.failed + parallel.failed) +
                   " multicasts unfinished or wrongly delivered");
  if (DeterministicText(serial) != DeterministicText(parallel))
    ledger.Problem("gate: results at 1 and " + std::to_string(kGateThreads) +
                   " threads differ");
  if (!o.expect_digest.empty() && Hex(serial.digest) != o.expect_digest)
    ledger.Problem("gate: digest " + Hex(serial.digest) +
                   " differs from the pinned " + o.expect_digest);
  const std::vector<double> ref = gate->ReferenceFidelity();
  const std::vector<std::string> names = gate->FidelityNames();
  for (std::size_t i = 0; i < ref.size(); ++i) {
    if (serial.fidelity.at(i) != ref[i])
      ledger.Problem("fidelity: " + names.at(i) + " is " +
                     irmc::json::Num(serial.fidelity[i]) +
                     ", library runner says " + irmc::json::Num(ref[i]));
  }
  const long launched = serial.launched + parallel.launched;
  ledger.attempted += launched;
  ledger.failed += ledger.problems.size() > before
                       ? launched
                       : serial.failed + parallel.failed;
  return Hex(serial.digest);
}

/// Per-layer host time of one traced batch, from its spans.
struct LayerTimes {
  std::array<double, kNumLayers> total_s{};
  std::array<double, kNumLayers> self_s{};
  std::array<std::vector<double>, kNumLayers> dur_us;
  double trial_max_s = 0.0;
};

LayerTimes Summarize(const std::vector<SpanLog>& logs) {
  LayerTimes t;
  for (const SpanLog& log : logs) {
    const std::vector<Span>& spans = log.spans();
    std::vector<std::int64_t> child_ns(spans.size(), 0);
    for (const Span& s : spans) {
      if (s.parent >= 0)
        child_ns[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
    }
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const auto l = static_cast<std::size_t>(spans[i].layer);
      const std::int64_t dur = spans[i].end_ns - spans[i].start_ns;
      t.total_s[l] += static_cast<double>(dur) * 1e-9;
      t.self_s[l] += static_cast<double>(dur - child_ns[i]) * 1e-9;
      t.dur_us[l].push_back(static_cast<double>(dur) * 1e-3);
      if (spans[i].layer == Layer::kTrial)
        t.trial_max_s =
            std::max(t.trial_max_s, static_cast<double>(dur) * 1e-9);
    }
  }
  return t;
}

void WriteSpans(const std::string& path, const SpanLog& setup,
                const std::vector<SpanLog>& trials) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    std::fprintf(stderr, "irmcbench: cannot write %s\n", path.c_str());
    return;
  }
  out << "log,span,parent,layer,start_ns,end_ns\n";
  const auto write = [&out](const std::string& name, const SpanLog& log) {
    for (std::size_t i = 0; i < log.spans().size(); ++i) {
      const Span& s = log.spans()[i];
      out << name << ',' << i << ',' << s.parent << ',' << LayerName(s.layer)
          << ',' << s.start_ns << ',' << s.end_ns << '\n';
    }
  };
  write("setup", setup);
  for (std::size_t i = 0; i < trials.size(); ++i)
    write("trial" + std::to_string(i), trials[i]);
}

class MetricSink {
 public:
  void Add(const std::string& name, double value, const std::string& unit) {
    values_[name] = {value, unit};
  }
  std::string Json() const {
    std::string out = "{";
    for (const auto& [name, vu] : values_) {
      if (out.size() > 1) out += ",";
      out += irmc::json::Str(name) + ":{\"value\":" +
             irmc::json::Num(vu.first) +
             ",\"unit\":" + irmc::json::Str(vu.second) + "}";
    }
    return out + "}";
  }

 private:
  std::map<std::string, std::pair<double, std::string>> values_;
};

double CounterValue(const irmc::MetricsRegistry& reg,
                    const std::string& name) {
  const auto it = reg.counters().find(name);
  return it != reg.counters().end() ? static_cast<double>(it->second.value)
                                    : 0.0;
}

std::size_t Idx(Layer layer) { return static_cast<std::size_t>(layer); }

/// The simulated host / NI / I-O split: metric part -> driver counter.
constexpr std::pair<const char*, const char*> kModelCounters[] = {
    {"host", "host.cycles"}, {"ni", "ni.cycles"}, {"io_dma", "io.dma_cycles"}};

int Run(const Options& o) {
  Ledger ledger;
  const std::string gate_digest = Gate(o, ledger);

  auto wl = MakeWorkload(o.workload, o.seed, false);
  std::vector<double> setup_s;
  SpanLog setup_log;
  irmc::SystemBuilder::Stats cache_before;

  // Measured phase.
  const std::int64_t deadline =
      NowNs() + static_cast<std::int64_t>(o.seconds * 1e9);
  std::optional<BatchResult> first;
  std::string first_text;  // DeterministicText of the first batch
  irmc::SystemBuilder::Stats cache_after;
  std::vector<double> plain_wall, traced_wall, bare_wall;
  std::vector<std::vector<double>> trial_s;  // [trial][plain batch]
  std::vector<double> op_p50, op_p99;
  std::size_t ops = 0;
  std::vector<LayerTimes> layers;
  std::vector<double> efficiency;
  std::vector<SpanLog> last_spans;
  for (int b = 0; NowNs() < deadline || (o.trace && b < kMinTraceBatches);
       ++b) {
    const int kind = o.trace ? b % 3 : 0;  // 0 plain, 1 traced, 2 bare
    BatchOptions opt;
    opt.traced = kind == 1;
    opt.metrics = kind != 2;
    // Every batch gets a fresh setup, so that setup_s is a median over
    // the whole run, as the batch times are.
    if (!first) cache_before = irmc::SystemBuilder::Global().stats();
    const std::int64_t t0 = NowNs();
    wl->Setup(o.trace && !first ? &setup_log : nullptr);
    setup_s.push_back(static_cast<double>(NowNs() - t0) * 1e-9);
    BatchResult r = wl->RunBatch(opt);
    ledger.attempted += r.launched;
    if (!first) {
      cache_after = irmc::SystemBuilder::Global().stats();
      first_text = DeterministicText(r);
      first = r;
      first->spans.clear();
    }
    // A batch without a registry has no metrics to compare.
    const bool same = kind == 2 ? r.digest == first->digest
                                : DeterministicText(r) == first_text;
    if (!same) {
      ledger.Problem("batch " + std::to_string(b) +
                     " did not repeat the first batch's results");
      ledger.failed += r.launched;
    } else {
      ledger.failed += r.failed;
    }
    if (kind == 0) {
      plain_wall.push_back(r.wall_s);
      trial_s.resize(r.trial_s.size());
      for (std::size_t i = 0; i < r.trial_s.size(); ++i)
        trial_s[i].push_back(r.trial_s[i]);
      SampleSet op_us;
      for (double v : r.op_us) op_us.Add(v);
      op_p50.push_back(Quantile(op_us, 0.50));
      op_p99.push_back(Quantile(op_us, 0.99));
      ops = op_us.count();
    } else if (kind == 1) {
      traced_wall.push_back(r.wall_s);
      layers.push_back(Summarize(r.spans));
      efficiency.push_back(
          Ratio(layers.back().total_s[Idx(Layer::kTrial)],
                r.wall_s * static_cast<double>(o.threads)));
      last_spans = std::move(r.spans);
    } else {
      bare_wall.push_back(r.wall_s);
    }
  }
  if (ledger.failed > 0 && ledger.problems.empty())
    ledger.Problem(std::to_string(ledger.failed) +
                   " multicasts unfinished or wrongly delivered");
  const BatchResult& det = *first;

  MetricSink m;
  if (!o.trace) {
    struct rusage ru {};
    getrusage(RUSAGE_SELF, &ru);
    m.Add("setup_s", Median(setup_s), "s");
    // Host time of a batch, robust to bursts of machine noise: the sum
    // over trials of each trial's median time across batches.
    double batch_s = 0.0;
    for (const auto& times : trial_s) batch_s += Median(times);
    m.Add("mcasts_per_s", Ratio(static_cast<double>(det.completed), batch_s),
          "1/s");
    m.Add("op_us.p50", Median(op_p50), "us");
    m.Add("op_us.p99", Median(op_p99), "us");
    m.Add("peak_rss_mb", static_cast<double>(ru.ru_maxrss) / 1024.0, "MB");
    for (int s = 0; s < kNumSchemes; ++s)
      m.Add(std::string("sim_latency_cycles.") + irmc::ToString(kSchemes[s]),
            det.latency_mean[static_cast<std::size_t>(s)], "cycles");
    m.Add("sim_throughput", det.throughput, "flits/host/cycle");
    m.Add("ok_frac",
          1.0 - Ratio(static_cast<double>(ledger.failed),
                      static_cast<double>(ledger.attempted)),
          "fraction");
    std::fprintf(stderr,
                 "irmcbench: %s seed %llu: %zu batches; op_us is the median "
                 "over batches of each batch's quantile over %zu "
                 "operations\n",
                 o.workload.c_str(), static_cast<unsigned long long>(o.seed),
                 plain_wall.size(), ops);
  } else {
    const auto completed = static_cast<double>(det.completed);
    double flits = 0.0;
    double blocked = 0.0;
    for (int s = 0; s < kNumSchemes; ++s) {
      const auto& reg = det.metrics[static_cast<std::size_t>(s)];
      flits += CounterValue(reg, "fabric.flits_sent") +
               CounterValue(reg, "flit.flits_moved");
      blocked += CounterValue(reg, "fabric.blocked_cycles") +
                 CounterValue(reg, "flit.blocked_cycles");
      const double done = CounterValue(reg, "mcast.completed");
      const std::string scheme = irmc::ToString(kSchemes[s]);
      for (const auto& [part, counter] : kModelCounters) {
        m.Add(std::string("model.") + part + "_cycles_per_mcast." + scheme,
              Ratio(CounterValue(reg, counter), done), "cycles");
      }
    }
    const auto events = static_cast<double>(det.events);
    m.Add("sim.events", events, "count");
    m.Add("sim.events_per_mcast", Ratio(events, completed), "count");
    m.Add("network.flits_per_mcast", Ratio(flits, completed), "flits");
    m.Add("network.blocked_cycles_per_mcast", Ratio(blocked, completed),
          "cycles");
    m.Add("network.backlog.max", static_cast<double>(det.backlog_max),
          "packets");
    m.Add("core.live_mcasts.max", det.live_max, "count");
    m.Add("network.max_link_util", det.max_link_util, "fraction");
    m.Add("mcast.plans", static_cast<double>(det.launched), "count");

    std::vector<double> sim_self, plan_s, trial_max, coverage;
    SampleSet plan_us, launch_us, setup_us, trial_s;
    for (const LayerTimes& t : layers) {
      const double self = t.self_s[Idx(Layer::kRunSlice)];
      const double plan = t.total_s[Idx(Layer::kPlan)];
      sim_self.push_back(self);
      plan_s.push_back(plan);
      trial_max.push_back(t.trial_max_s);
      coverage.push_back(100.0 *
                         Ratio(self + plan + t.total_s[Idx(Layer::kLaunch)],
                               t.total_s[Idx(Layer::kTrial)]));
      for (double v : t.dur_us[Idx(Layer::kPlan)]) plan_us.Add(v);
      for (double v : t.dur_us[Idx(Layer::kLaunch)]) launch_us.Add(v);
      for (double v : t.dur_us[Idx(Layer::kDriverSetup)]) setup_us.Add(v);
      for (double v : t.dur_us[Idx(Layer::kTrial)]) trial_s.Add(v * 1e-6);
    }
    const double self = Median(sim_self);
    m.Add("sim.self_s", self, "s");
    m.Add("sim.ns_per_event", Ratio(self * 1e9, events), "ns");
    m.Add("mcast.plan_s", Median(plan_s), "s");
    m.Add("mcast.plan_us.p50", Quantile(plan_us, 0.50), "us");
    m.Add("mcast.plan_us.p99", Quantile(plan_us, 0.99), "us");
    m.Add("core.driver_setup_us.p50", Quantile(setup_us, 0.50), "us");
    m.Add("core.launch_us.p50", Quantile(launch_us, 0.50), "us");
    m.Add("core.trial_s.p50", Quantile(trial_s, 0.50), "s");
    m.Add("core.trial_s.max", Median(trial_max), "s");
    m.Add("core.parallel_efficiency", Median(efficiency), "fraction");
    m.Add("bench.span_coverage_pct", Median(coverage), "%");

    const LayerTimes setup_layers = Summarize({setup_log});
    m.Add("topology.build_s", setup_layers.total_s[Idx(Layer::kTopology)],
          "s");
    m.Add("topology.builds",
          static_cast<double>(cache_after.misses - cache_before.misses),
          "count");
    m.Add("topology.cache_hits",
          static_cast<double>(cache_after.hits - cache_before.hits), "count");
    const double plain = Median(plain_wall);
    const double bare = Median(bare_wall);
    m.Add("metrics.overhead_pct", 100.0 * Ratio(plain - bare, bare), "%");
    m.Add("bench.trace_overhead_pct",
          100.0 * Ratio(Median(traced_wall) - plain, plain), "%");
    if (!o.spans_path.empty()) WriteSpans(o.spans_path, setup_log, last_spans);
  }

  const bool correct = ledger.problems.empty();
  std::printf("{\"correct\":%s,\"attempted\":%ld,\"failed\":%ld,"
              "\"metrics\":%s,\"gate_digest\":%s}\n",
              correct ? "true" : "false", ledger.attempted, ledger.failed,
              m.Json().c_str(), irmc::json::Str(gate_digest).c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace irmcbench

int main(int argc, char** argv) {
  irmcbench::Options o;
  if (!irmcbench::ParseOptions(argc, argv, &o) ||
      !irmcbench::MakeWorkload(o.workload, 1, true)) {
    std::fprintf(stderr,
                 "usage: irmcbench --workload load_vct|load_flit|single_sweep "
                 "--seed N --seconds S --trace 0|1 --threads T "
                 "[--expect-digest HEX] [--spans FILE]\n");
    return 2;
  }
  irmc::SetParallelThreads(o.threads);
  return irmcbench::Run(o);
}
