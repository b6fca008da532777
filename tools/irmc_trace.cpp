// Offline trace analysis over a JSONL export (see docs/tracing.md).
//
//   irmc_trace summarize     TRACE.jsonl   per-multicast latency splits
//   irmc_trace blockers      TRACE.jsonl   ranked blocking channels
//   irmc_trace critical-path TRACE.jsonl   [--mcast N] [--trial N]
//   irmc_trace export        TRACE.jsonl --out FILE   (re-export; .jsonl
//                            -> JSONL, anything else -> Chrome JSON)
//
// Input is the JSONL form written by `irmcsim_cli ... --trace F.jsonl`
// (the Chrome JSON form is for viewers, not for this tool). The file
// may also be passed as `--in FILE`.
#include <cstdio>
#include <fstream>
#include <limits>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/args.hpp"
#include "common/build_info.hpp"
#include "trace/analysis.hpp"
#include "trace/export.hpp"
#include "trace/tracer.hpp"

namespace {

using namespace irmc;

int Usage() {
  std::fprintf(stderr,
               "usage: irmc_trace <summarize|blockers|critical-path|export> "
               "TRACE.jsonl [options]\n"
               "  summarize      latency breakdown per traced multicast\n"
               "  blockers       channels ranked by attributed stall cycles\n"
               "  critical-path  [--mcast N] [--trial N]  milestone + stall "
               "account of one multicast\n"
               "  export         --out FILE  re-export (.jsonl -> JSONL, "
               "else Chrome trace JSON)\n"
               "  common         [--in FILE] instead of the positional "
               "operand\n"
               "an unknown option exits 2 before the trace is read\n");
  return 2;
}

/// The input file: `--in FILE`, else the one positional operand.
std::string InputPath(const Args& args) {
  const std::string path = args.GetString("in", "");
  if (!path.empty()) return path;
  const auto positionals = args.Positionals();
  return positionals.size() == 1 ? positionals.front() : std::string();
}

bool LoadTrace(const std::string& path, Tracer* tracer) {
  if (path.empty()) {
    std::fprintf(stderr, "irmc_trace: no input file\n");
    return false;
  }
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "irmc_trace: cannot read %s\n", path.c_str());
    return false;
  }
  std::ostringstream text;
  text << in.rdbuf();
  std::string error;
  if (!ParseTraceJsonLines(text.str(), tracer, &error)) {
    std::fprintf(stderr, "irmc_trace: %s: %s\n", path.c_str(), error.c_str());
    return false;
  }
  return true;
}

/// The (trial, mcast_id) pairs present in the stream, in first-seen
/// order restricted by sorted keys for determinism.
std::vector<std::pair<std::int32_t, std::int64_t>> Multicasts(
    const Tracer& tracer) {
  std::set<std::pair<std::int32_t, std::int64_t>> seen;
  tracer.ForEach([&seen](const TraceEvent& e) {
    if (e.mcast_id >= 0) seen.insert({e.trial, e.mcast_id});
  });
  return {seen.begin(), seen.end()};
}

int CmdSummarize(const Tracer& tracer) {
  std::printf("%5s %7s %10s %9s %10s %9s\n", "trial", "mcast", "src-sw",
              "network", "dst-sw", "total");
  int incomplete = 0;
  for (const auto& [trial, mcast] : Multicasts(tracer)) {
    std::string missing;
    const auto b = TryAnalyzeMulticast(tracer, mcast, &missing, trial);
    if (!b) {
      ++incomplete;
      continue;
    }
    std::printf("%5d %7lld %10lld %9lld %10lld %9lld\n", trial,
                static_cast<long long>(mcast),
                static_cast<long long>(b->SourceSoftware()),
                static_cast<long long>(b->Network()),
                static_cast<long long>(b->DestinationSoftware()),
                static_cast<long long>(b->Total()));
  }
  if (incomplete > 0)
    std::printf("# %d multicast(s) skipped: incomplete trace (ring cap?)\n",
                incomplete);
  if (tracer.dropped() > 0)
    std::printf("# %llu event(s) were dropped by the ring buffer\n",
                static_cast<unsigned long long>(tracer.dropped()));
  return 0;
}

int CmdBlockers(const Tracer& tracer) {
  const auto stats = AttributeBlocking(tracer);
  if (stats.empty()) {
    std::printf("no blocking recorded\n");
    return 0;
  }
  std::printf("%-18s %14s %10s\n", "channel", "blocked-cycles", "intervals");
  for (const BlockerStat& s : stats) {
    char label[64];
    if (s.source.IsInjection())
      std::snprintf(label, sizeof(label), "node %d (inject)", s.source.actor);
    else
      std::snprintf(label, sizeof(label), "switch %d port %d", s.source.actor,
                    s.source.port);
    std::printf("%-18s %14lld %10lld\n", label,
                static_cast<long long>(s.blocked_cycles),
                static_cast<long long>(s.intervals));
  }
  std::printf("total blocked cycles: %lld\n",
              static_cast<long long>(TotalBlockedCycles(tracer)));
  return 0;
}

/// `pick_mcast`/`pick_trial` (--mcast/--trial) default to the trace's
/// first multicast.
int CmdCriticalPath(std::optional<std::int64_t> pick_mcast,
                    std::optional<std::int32_t> pick_trial,
                    const Tracer& tracer) {
  const auto all = Multicasts(tracer);
  if (all.empty()) {
    std::fprintf(stderr, "irmc_trace: trace holds no multicasts\n");
    return 1;
  }
  const std::int64_t mcast = pick_mcast.value_or(all.front().second);
  const std::int32_t trial = pick_trial.value_or(all.front().first);
  const auto report = AnalyzeCriticalPath(tracer, mcast, trial);
  if (!report) {
    std::fprintf(stderr,
                 "irmc_trace: multicast %lld (trial %d) is incomplete in "
                 "this trace\n",
                 static_cast<long long>(mcast), trial);
    return 1;
  }
  const LatencyBreakdown& b = report->breakdown;
  std::printf("multicast %lld (trial %d): last destination node %d\n",
              static_cast<long long>(mcast), trial, report->last_dest);
  std::printf("  source software      %8lld cycles\n",
              static_cast<long long>(b.SourceSoftware()));
  std::printf("  network transit      %8lld cycles (%lld stalled)\n",
              static_cast<long long>(b.Network()),
              static_cast<long long>(report->stalled_cycles));
  std::printf("  destination software %8lld cycles\n",
              static_cast<long long>(b.DestinationSoftware()));
  std::printf("  total                %8lld cycles\n",
              static_cast<long long>(b.Total()));
  for (const BlockInterval& iv : report->stalls) {
    if (iv.source.IsInjection())
      std::printf("  stall [%lld,%lld) %lld cycles at node %d (inject)\n",
                  static_cast<long long>(iv.begin),
                  static_cast<long long>(iv.end),
                  static_cast<long long>(iv.Duration()), iv.source.actor);
    else
      std::printf("  stall [%lld,%lld) %lld cycles at switch %d port %d\n",
                  static_cast<long long>(iv.begin),
                  static_cast<long long>(iv.end),
                  static_cast<long long>(iv.Duration()), iv.source.actor,
                  iv.source.port);
  }
  return 0;
}

int CmdExport(const std::string& out_path, const Tracer& tracer) {
  std::ofstream out(out_path);
  if (!out) {
    std::fprintf(stderr, "irmc_trace: cannot write %s\n", out_path.c_str());
    return 1;
  }
  out << SerializeTraceForPath(tracer, out_path);
  std::printf("wrote %s (%zu events)\n", out_path.c_str(), tracer.size());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = Args::Parse(argc, argv);
  if (args.VersionRequested()) {
    std::printf("%s\n%s\n", VersionLine("irmc_trace").c_str(),
                ToJson(GetBuildInfo()).c_str());
    return 0;
  }
  const std::string& cmd = args.command();
  if (cmd != "summarize" && cmd != "blockers" && cmd != "critical-path" &&
      cmd != "export")
    return Usage();
  const std::string path = InputPath(args);
  std::optional<std::int64_t> mcast;
  std::optional<std::int32_t> trial;
  std::string out_path;
  if (cmd == "critical-path") {
    if (args.Has("mcast"))
      mcast = args.GetIntIn("mcast", 0, 0,
                            std::numeric_limits<std::int64_t>::max());
    if (args.Has("trial"))
      trial = static_cast<std::int32_t>(args.GetIntIn(
          "trial", 0, -1, std::numeric_limits<std::int32_t>::max()));
  } else if (cmd == "export") {
    out_path = args.GetString("out", "");
    if (out_path.empty()) {
      std::fprintf(stderr, "irmc_trace: export needs --out FILE\n");
      return 2;
    }
  }
  args.RejectUnknown();

  Tracer tracer;
  if (!LoadTrace(path, &tracer)) return 1;
  if (cmd == "summarize") return CmdSummarize(tracer);
  if (cmd == "blockers") return CmdBlockers(tracer);
  if (cmd == "critical-path") return CmdCriticalPath(mcast, trial, tracer);
  return CmdExport(out_path, tracer);
}
