// irmcsim command-line driver.
//
//   irmcsim_cli single  --scheme tree-worm --size 15 [--ratio 1.0]
//                       [--switches 8] [--nodes 32] [--packets 1]
//                       [--topologies 10] [--samples 4] [--seed 1]
//   irmcsim_cli load    --scheme ni-kbinomial --degree 8 --load 0.3
//                       [--horizon 150000] [--topologies 2] ...
//   irmcsim_cli dsm     --scheme path-worm [--sharers 8] ...
//   irmcsim_cli topology [--seed 7] [--dot] [--save FILE] ...
//   irmcsim_cli trace   --scheme tree-worm [--size 8] [--seed 42]
//                       [--out FILE]
//
// single/load/dsm accept `--trace FILE[:CAP]`: each trial records into
// its own (optionally ring-capped) tracer and the merged stream — byte
// identical for any --threads value — is written as JSONL (.jsonl) or
// Chrome trace-event JSON (anything else). `tools/irmc_trace` analyses
// the JSONL form.
//
// Every command prints human-readable results; `topology --dot` emits
// Graphviz on stdout for piping into `dot -Tsvg`.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <optional>
#include <string>

#include "common/args.hpp"
#include "common/build_info.hpp"
#include "common/expect.hpp"
#include "mcast/binomial.hpp"
#include "core/executor.hpp"
#include "core/load_runner.hpp"
#include "core/parallel.hpp"
#include "core/single_runner.hpp"
#include "mcast/scheme.hpp"
#include "metrics/export.hpp"
#include "topology/serialize.hpp"
#include "topology/system.hpp"
#include "trace/analysis.hpp"
#include "trace/export.hpp"
#include "trace/tracer.hpp"
#include "workloads/dsm.hpp"

namespace {

using namespace irmc;

std::optional<SchemeKind> ParseScheme(const std::string& name) {
  for (SchemeKind k :
       {SchemeKind::kUnicastBinomial, SchemeKind::kNiKBinomial,
        SchemeKind::kTreeWorm, SchemeKind::kPathWorm})
    if (name == ToString(k) || name == ToIdent(k)) return k;
  return std::nullopt;
}

/// "flat" selects the naive separate-addressing baseline (a planner,
/// not a SchemeKind of its own).
std::unique_ptr<MulticastScheme> MakeCliScheme(const std::string& name,
                                               const HostParams& host) {
  if (name == "flat") return std::make_unique<SeparateAddressingScheme>();
  const auto kind = ParseScheme(name);
  if (!kind) return nullptr;
  return MakeScheme(*kind, host);
}

/// Where single/load/dsm write their results. `--trace FILE[:CAP]`
/// attaches a trace sink: CAP (a trailing all-digit suffix after the
/// last ':') bounds each per-trial tracer to a ring of that many events,
/// and the merged stream is written as JSONL (.jsonl) or Chrome trace
/// JSON (anything else). `--metrics FILE` writes the run's merged
/// MetricsRegistry (JSON by default; .jsonl / .csv select those formats).
struct Sinks {
  std::string trace;
  std::size_t trace_cap = 0;
  std::string metrics;
};

Sinks GetSinks(const Args& args) {
  Sinks sinks;
  sinks.metrics = args.GetString("metrics", "");
  std::string v = args.GetString("trace", "");
  if (v.empty()) return sinks;
  const auto colon = v.rfind(':');
  if (colon != std::string::npos && colon + 1 < v.size()) {
    const std::string suffix = v.substr(colon + 1);
    bool digits = true;
    for (char c : suffix) digits = digits && c >= '0' && c <= '9';
    if (digits) {
      sinks.trace_cap = static_cast<std::size_t>(
          std::strtoull(suffix.c_str(), nullptr, 10));
      v = v.substr(0, colon);
    }
  }
  sinks.trace = v;
  return sinks;
}

/// Writes the trace, then the metrics, each only when asked for.
/// Returns 0, or 1 on I/O error.
int WriteSinks(const Sinks& sinks, const Tracer& tracer,
               const MetricsRegistry& reg) {
  if (!sinks.trace.empty()) {
    if (!WriteFile(sinks.trace, SerializeTraceForPath(tracer, sinks.trace))) {
      std::fprintf(stderr, "cannot write %s\n", sinks.trace.c_str());
      return 1;
    }
    std::printf("wrote trace to %s (%zu events, %llu dropped)\n",
                sinks.trace.c_str(), tracer.size(),
                static_cast<unsigned long long>(tracer.dropped()));
  }
  if (sinks.metrics.empty()) return 0;
  if (!WriteFile(sinks.metrics, SerializeForPath(reg, sinks.metrics))) {
    std::fprintf(stderr, "cannot write %s\n", sinks.metrics.c_str());
    return 1;
  }
  std::printf("wrote metrics to %s\n", sinks.metrics.c_str());
  return 0;
}

// Every option is checked: a value that is not a number, does not fit
// the option's type, or lies outside the range the library accepts exits
// with status 2 and the accepted range, like a bad choice value — never
// a silent fallback to the default, a wrapped value, or an abort deep in
// the library. Some ranges depend on other options (the multicast size
// on --nodes); those bind the default too.

constexpr std::int64_t kIntMax = std::numeric_limits<int>::max();

/// An `int` option in [lo, hi] (hi at most INT_MAX).
int GetInt32(const Args& args, const std::string& key, int fallback,
             std::int64_t lo = std::numeric_limits<int>::min(),
             std::int64_t hi = kIntMax) {
  return static_cast<int>(args.GetIntIn(key, fallback, lo, hi));
}

using Limits64 = std::numeric_limits<std::int64_t>;

/// A 64-bit option (cycle counts, seeds) in [lo, hi].
std::int64_t GetInt64(const Args& args, const std::string& key,
                      std::int64_t fallback, std::int64_t lo = Limits64::min(),
                      std::int64_t hi = Limits64::max()) {
  return args.GetIntIn(key, fallback, lo, hi);
}

/// A multicast size or sharer count on a system of `nodes` hosts: at
/// least one destination besides the source.
int GetDestCount(const Args& args, const std::string& key, int fallback,
                 int nodes) {
  return GetInt32(args, key, fallback, 1, nodes - 1);
}

/// Common --switches/--nodes/--ports/--packets/--ratio/--seed handling.
/// `min_nodes` is the fewest hosts the command can run on.
SimConfig ConfigFrom(const Args& args, int min_nodes = 2) {
  SimConfig cfg;
  cfg.topology.num_switches =
      GetInt32(args, "switches", cfg.topology.num_switches, 1);
  // Ports enough for `min_nodes` hosts, so the --nodes range is never
  // empty.
  cfg.topology.ports_per_switch =
      GetInt32(args, "ports", cfg.topology.ports_per_switch,
               MinPorts(cfg.topology.num_switches, min_nodes));
  cfg.topology.num_hosts = GetInt32(
      args, "nodes", cfg.topology.num_hosts, min_nodes,
      std::min(kIntMax, MaxHosts(cfg.topology.num_switches,
                                 cfg.topology.ports_per_switch)));
  // A message is at least one packet of at least one flit.
  cfg.message.num_packets =
      GetInt32(args, "packets", cfg.message.num_packets, 1);
  cfg.message.packet_flits =
      GetInt32(args, "packet-flits", cfg.message.packet_flits, 1);
  cfg.host.SetRatio(
      args.GetDoubleIn("ratio", cfg.host.R(), RealRange::Above(0.0)));
  // --engine vct|flit selects the network engine; --buffer-flits sizes
  // the flit engine's per-port input buffers (see docs/engines.md).
  const std::string engine_name =
      args.GetChoice("engine", ToString(cfg.engine), {"vct", "flit"});
  IRMC_ENSURE(EngineKindFromString(engine_name, &cfg.engine));
  cfg.net.buffer_flits =
      GetInt32(args, "buffer-flits", cfg.net.buffer_flits, 1);
  cfg.seed = static_cast<std::uint64_t>(GetInt64(args, "seed", 1));
  // --threads N overrides IRMC_THREADS for the trial executor (0 = the
  // default, 1 = serial).
  const int threads = GetInt32(args, "threads", 0, 0);
  if (threads > 0) SetParallelThreads(threads);
  return cfg;
}

int Usage() {
  std::fprintf(stderr,
               "usage: irmcsim_cli <single|load|dsm|topology|trace> "
               "[options]\n"
               "schemes: uni-binomial ni-kbinomial tree-worm path-worm flat\n"
               "common:  --switches N --nodes N --ports N --packets N\n"
               "         --packet-flits N --ratio R --seed S\n"
               "         (--nodes at most switches x (ports - 2) + 1 from 3 "
               "switches on)\n"
               "         --engine vct|flit  (network engine; flit = true "
               "wormhole, finite buffers)\n"
               "         --buffer-flits N  (flit engine per-port input "
               "buffer)\n"
               "         --threads N  (parallel trials; default "
               "IRMC_THREADS or all cores)\n"
               "         --metrics FILE  (single/load/dsm: write merged "
               "metrics; .json/.jsonl/.csv)\n"
               "         --trace FILE[:CAP]  (single/load/dsm: write merged "
               "event trace;\n"
               "                      .jsonl, else Chrome trace JSON; CAP "
               "caps each trial's ring)\n"
               "load:    --pattern uniform|clustered|hotspot\n"
               "an unknown option exits 2 before anything runs\n");
  return 2;
}

int CmdSingle(const Args& args) {
  const auto scheme = ParseScheme(args.GetString("scheme", "tree-worm"));
  if (!scheme) return Usage();
  SingleRunSpec spec;
  spec.cfg = ConfigFrom(args);
  spec.scheme = *scheme;
  spec.multicast_size =
      GetDestCount(args, "size", 15, spec.cfg.topology.num_hosts);
  spec.topologies = GetInt32(args, "topologies", 10, 1);
  spec.samples_per_topology = GetInt32(args, "samples", 4, 1);
  const Sinks sinks = GetSinks(args);
  args.RejectUnknown();
  Tracer tracer;
  if (!sinks.trace.empty()) {
    spec.tracer = &tracer;
    spec.trace_cap = sinks.trace_cap;
  }
  const SingleRunResult r = RunSingleMulticast(spec);
  std::printf("%s %d-way: mean %.1f cycles (%.2f us), min %.0f, max %.0f "
              "over %d samples\n",
              ToString(*scheme), spec.multicast_size, r.mean_latency,
              r.mean_latency * SimConfig::cycle_ns / 1000.0, r.min_latency,
              r.max_latency, r.samples);
  return WriteSinks(sinks, tracer, r.metrics);
}

int CmdLoad(const Args& args) {
  const auto scheme = ParseScheme(args.GetString("scheme", "tree-worm"));
  if (!scheme) return Usage();
  LoadRunSpec spec;
  spec.cfg = ConfigFrom(args);
  spec.scheme = *scheme;
  spec.degree = GetDestCount(args, "degree", 8, spec.cfg.topology.num_hosts);
  spec.effective_load = args.GetDoubleIn("load", 0.2, RealRange::Above(0.0));
  // The run drains for another horizon after generation stops.
  spec.horizon =
      GetInt64(args, "horizon", 150'000, 1, Limits64::max() / 2);
  spec.warmup = spec.horizon / 10;
  spec.topologies = GetInt32(args, "topologies", 2, 1);
  const std::string pattern = args.GetChoice(
      "pattern", "uniform", {"uniform", "clustered", "hotspot"});
  if (pattern == "clustered")
    spec.pattern = DestPattern::kClustered;
  else if (pattern == "hotspot")
    spec.pattern = DestPattern::kHotspot;
  const Sinks sinks = GetSinks(args);
  args.RejectUnknown();
  Tracer tracer;
  if (!sinks.trace.empty()) {
    spec.tracer = &tracer;
    spec.trace_cap = sinks.trace_cap;
  }
  const LoadRunResult r = RunLoadSweepPoint(spec);
  std::printf("%s %d-way at load %.2f: mean %.1f / p50 %.1f / p95 %.1f "
              "cycles, %ld completed, %ld unfinished%s\n",
              ToString(*scheme), spec.degree, spec.effective_load,
              r.mean_latency, r.p50_latency, r.p95_latency, r.completed,
              r.unfinished, r.saturated ? "  [SATURATED]" : "");
  std::printf("  achieved throughput %.3f flits/cycle/host, hottest link "
              "%.0f%% busy\n",
              r.achieved_throughput, 100.0 * r.max_link_utilization);
  return WriteSinks(sinks, tracer, r.metrics);
}

int CmdDsm(const Args& args) {
  const auto scheme = ParseScheme(args.GetString("scheme", "tree-worm"));
  if (!scheme) return Usage();
  SimConfig cfg = ConfigFrom(args);
  DsmParams params;
  params.sharers_per_line =
      GetDestCount(args, "sharers", 8, cfg.topology.num_hosts);
  params.write_interarrival =
      args.GetDoubleIn("interarrival", 50'000.0, RealRange::Above(0.0));
  params.topologies = GetInt32(args, "topologies", 3, 1);
  const Sinks sinks = GetSinks(args);
  args.RejectUnknown();
  Tracer tracer;
  if (!sinks.trace.empty()) {
    params.tracer = &tracer;
    params.trace_cap = sinks.trace_cap;
  }
  const DsmResult r = RunDsmInvalidation(cfg, *scheme, params);
  std::printf("%s invalidations, %d sharers/line: mean write stall %.1f "
              "cycles, p95 %.1f, %ld/%ld writes completed\n",
              ToString(*scheme), params.sharers_per_line,
              r.mean_write_latency, r.p95_write_latency, r.writes_completed,
              r.writes_started);
  return WriteSinks(sinks, tracer, r.metrics);
}

int CmdTopology(const Args& args) {
  const SimConfig cfg = ConfigFrom(args, 0);
  const bool dot = args.GetFlag("dot");
  const std::string save = args.GetString("save", "");
  args.RejectUnknown();
  const auto sys = System::Build(cfg.topology, cfg.seed);
  if (dot) {
    std::fputs(ToDot(*sys).c_str(), stdout);
  } else {
    std::printf("%d switches / %d nodes / %d links, BFS depth %d, root %d\n",
                sys->num_switches(), sys->num_nodes(), sys->graph.NumLinks(),
                sys->tree.depth(), sys->tree.root());
  }
  if (!save.empty()) {
    std::ofstream out(save);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", save.c_str());
      return 1;
    }
    out << ToText(sys->graph);
    std::printf("saved topology to %s\n", save.c_str());
  }
  return 0;
}

int CmdTrace(const Args& args) {
  SimConfig cfg = ConfigFrom(args);
  const auto scheme =
      MakeCliScheme(args.GetString("scheme", "tree-worm"), cfg.host);
  if (!scheme) return Usage();
  const int size = GetDestCount(args, "size", 8, cfg.topology.num_hosts);
  const std::string out_path = args.GetString("out", "");
  args.RejectUnknown();
  const auto sys = System::Build(cfg.topology, cfg.seed);

  Tracer tracer;
  Engine engine;
  McastDriver driver(engine, *sys, cfg, &tracer);
  Rng rng(cfg.seed);
  auto draw = rng.SampleWithoutReplacement(sys->num_nodes(), size + 1);
  std::vector<NodeId> dests;
  for (std::size_t i = 1; i < draw.size(); ++i)
    dests.push_back(static_cast<NodeId>(draw[i]));
  const auto id = driver.Launch(
      scheme->Plan(*sys, static_cast<NodeId>(draw[0]), dests, cfg.message,
                   cfg.headers),
      0, [](const MulticastResult& r) {
        std::printf("# completed at %lld cycles\n",
                    static_cast<long long>(r.completion));
      });
  engine.RunToQuiescence();
  const LatencyBreakdown b = AnalyzeMulticast(tracer, id);
  std::printf("# breakdown: source software %lld + network %lld + "
              "destination software %lld = %lld cycles\n",
              static_cast<long long>(b.SourceSoftware()),
              static_cast<long long>(b.Network()),
              static_cast<long long>(b.DestinationSoftware()),
              static_cast<long long>(b.Total()));
  if (out_path.empty()) {
    tracer.Dump(stdout);
    return 0;
  }
  if (!WriteFile(out_path, SerializeTraceForPath(tracer, out_path))) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::printf("wrote trace to %s\n", out_path.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = Args::Parse(argc, argv);
  if (args.VersionRequested()) {
    std::printf("%s\n%s\n", VersionLine("irmcsim_cli").c_str(),
                ToJson(GetBuildInfo()).c_str());
    return 0;
  }
  if (args.command() == "single") return CmdSingle(args);
  if (args.command() == "load") return CmdLoad(args);
  if (args.command() == "dsm") return CmdDsm(args);
  if (args.command() == "topology") return CmdTopology(args);
  if (args.command() == "trace") return CmdTrace(args);
  return Usage();
}
