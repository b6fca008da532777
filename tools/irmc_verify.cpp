// Static verification driver: proves a System's routing state legal
// without running the simulator (see docs/verification.md).
//
//   irmc_verify --trials 50 --switches 8,16,32 --faults 1 --seed 7
//       generates 50 random topologies (cycling through the switch
//       counts), verifies each, then injects one survivable link fault,
//       rebuilds the System Autonet-style and re-verifies the repaired
//       tables.
//
//   irmc_verify --deadlock [--engine vct|flit] [--buffer-flits B]
//       additionally runs the static multicast deadlock analyzer on
//       every verified System: all four schemes x both routing modes
//       against the given engine/buffer model (verify/deadlock.hpp).
//
//   irmc_verify --load FILE [--faults F]
//       verifies a topology serialized by `irmcsim_cli topology --save`.
//
// Prints failing reports (all reports with --verbose) and exits 0 only
// when every verified System passes every invariant.
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/args.hpp"
#include "common/build_info.hpp"
#include "common/rng.hpp"
#include "topology/fault.hpp"
#include "topology/generator.hpp"
#include "topology/serialize.hpp"
#include "topology/system.hpp"
#include "verify/deadlock.hpp"
#include "verify/invariants.hpp"

namespace {

using namespace irmc;

int Usage() {
  std::fprintf(
      stderr,
      "usage: irmc_verify [--trials N] [--seed S]\n"
      "                   [--switches LIST] [--nodes N] [--ports P]\n"
      "                   [--faults F] [--load FILE] [--verbose]\n"
      "                   [--deadlock] [--engine vct|flit]\n"
      "                   [--buffer-flits B] [--payload-flits D]\n"
      "  --trials N       generated topologies to verify (default 20)\n"
      "  --switches L     comma-separated switch counts the trials\n"
      "                   cycle through (default 8,16,32)\n"
      "  --nodes N        hosts per topology (default 32; at most\n"
      "                   switches x (ports - 2) + 1 for every\n"
      "                   --switches entry from 3 on)\n"
      "  --ports P        ports per switch (default 8)\n"
      "  --faults F       per topology, inject F survivable link\n"
      "                   faults, rebuild, and re-verify (default 0)\n"
      "  --load FILE      verify a serialized topology instead of\n"
      "                   generating\n"
      "  --deadlock       also run the static multicast deadlock\n"
      "                   analyzer (4 schemes x 2 routing modes)\n"
      "  --engine E       engine model for --deadlock: vct or flit\n"
      "                   (default flit; vct always absorbs worms)\n"
      "  --buffer-flits B per-port input buffer for --deadlock\n"
      "                   (default 256 flits)\n"
      "  --payload-flits D worm payload for --deadlock (default 128)\n"
      "  --verbose        print every report, not only failures\n"
      "an unknown option exits 2 before anything is verified\n");
  return 2;
}

struct Tally {
  int verified = 0;
  int faulted = 0;
  int failed = 0;
};

/// What to verify and how to print it.
struct VerifyOpts {
  bool verbose = false;
  bool deadlock = false;
  verify::DeadlockSpec spec;
};

/// Verifies one System, printing its report when it fails (or always,
/// verbose). Returns true when every check passed.
bool VerifyOne(const System& sys, const std::string& label,
               const VerifyOpts& opts) {
  const verify::VerifyReport report =
      opts.deadlock ? verify::VerifySystem(sys, label, opts.spec)
                    : verify::VerifySystem(sys, label);
  if (!report.pass() || opts.verbose)
    std::fputs(verify::Render(report).c_str(), stdout);
  return report.pass();
}

/// Removes up to `faults` random survivable links from `g` (a bridge is
/// never removed; an unsurvivable fault has no legal repaired tables to
/// verify). Returns the number actually injected.
int InjectFaults(Graph& g, int faults, Rng& rng) {
  int injected = 0;
  for (int f = 0; f < faults; ++f) {
    std::vector<LinkRef> links = AllLinks(g);
    rng.Shuffle(links);
    bool removed = false;
    for (const LinkRef& link : links) {
      if (auto degraded = WithoutLink(g, link.sw, link.port)) {
        g = std::move(*degraded);
        removed = true;
        ++injected;
        break;
      }
    }
    if (!removed) break;  // only bridges left
  }
  return injected;
}

/// Post-fault re-verification: degrade the graph, rebuild the System on
/// the surviving topology (Autonet reconfiguration), verify the repaired
/// tables.
void VerifyFaulted(const Graph& pristine, int faults, std::uint64_t seed,
                   const std::string& label, const VerifyOpts& opts,
                   Tally& tally) {
  Graph degraded = pristine;
  Rng rng(seed * 0x9e3779b97f4a7c15ULL + 1);
  const int injected = InjectFaults(degraded, faults, rng);
  if (injected == 0) return;  // nothing survivable to remove
  const System sys(std::move(degraded));
  ++tally.faulted;
  if (!VerifyOne(sys, label + " (+" + std::to_string(injected) + " faults)",
                 opts))
    ++tally.failed;
}

int RunLoaded(const std::string& path, int faults, const VerifyOpts& opts) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "irmc_verify: cannot read %s\n", path.c_str());
    return 2;
  }
  std::ostringstream text;
  text << in.rdbuf();
  std::optional<Graph> g = GraphFromText(text.str());
  if (!g) {
    std::fprintf(stderr, "irmc_verify: %s is not a valid irmc-topology file\n",
                 path.c_str());
    return 2;
  }
  if (!g->Connected()) {
    std::fprintf(stderr,
                 "irmc_verify: %s: switch graph is disconnected — no "
                 "routing tables exist for it\n",
                 path.c_str());
    return 1;
  }
  Tally tally;
  const Graph pristine = *g;
  const System sys(std::move(*g));
  const verify::VerifyReport report =
      opts.deadlock ? verify::VerifySystem(sys, path, opts.spec)
                    : verify::VerifySystem(sys, path);
  ++tally.verified;
  if (!report.pass()) ++tally.failed;
  std::fputs(verify::Render(report).c_str(), stdout);
  if (faults > 0) VerifyFaulted(pristine, faults, 1, path, opts, tally);
  return tally.failed == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = Args::Parse(argc, argv);
  if (args.VersionRequested()) {
    std::printf("%s\n%s\n", VersionLine("irmc_verify").c_str(),
                ToJson(GetBuildInfo()).c_str());
    return 0;
  }
  if (!args.command().empty()) return Usage();

  // Integer options are checked: a malformed or out-of-range value exits
  // with status 2 and the accepted range.
  constexpr std::int64_t kIntMax = std::numeric_limits<int>::max();
  const auto trials = static_cast<int>(args.GetIntIn("trials", 20, 1, kIntMax));
  const auto seed = static_cast<std::uint64_t>(
      args.GetIntIn("seed", 1, std::numeric_limits<std::int64_t>::min(),
                    std::numeric_limits<std::int64_t>::max()));
  std::vector<int> sizes;
  for (std::int64_t v : args.GetIntListIn("switches", "8,16,32", 1, kIntMax))
    sizes.push_back(static_cast<int>(v));
  const auto ports = static_cast<int>(args.GetIntIn("ports", 8, 2, kIntMax));
  // Every trial must place and connect the hosts, on every switch count
  // (at two ports, two switches take more hosts than three).
  std::int64_t max_nodes = kIntMax;
  for (int size : sizes) max_nodes = std::min(max_nodes, MaxHosts(size, ports));
  const auto nodes =
      static_cast<int>(args.GetIntIn("nodes", 32, 1, max_nodes));
  const auto faults = static_cast<int>(args.GetIntIn("faults", 0, 0, kIntMax));
  const std::string load = args.GetString("load", "");

  VerifyOpts opts;
  opts.verbose = args.GetFlag("verbose");
  opts.deadlock = args.GetFlag("deadlock");
  const std::string engine = args.GetChoice("engine", "flit", {"vct", "flit"});
  opts.spec.engine = engine == "vct" ? EngineKind::kVct : EngineKind::kFlit;
  opts.spec.net.buffer_flits = static_cast<int>(
      args.GetIntIn("buffer-flits", opts.spec.net.buffer_flits, 1, kIntMax));
  opts.spec.payload_flits = static_cast<int>(
      args.GetIntIn("payload-flits", opts.spec.payload_flits, 1, kIntMax));

  args.RejectUnknown();

  if (!load.empty()) return RunLoaded(load, faults, opts);

  Tally tally;
  for (int i = 0; i < trials; ++i) {
    TopologySpec spec;
    spec.num_switches = sizes[static_cast<std::size_t>(i) % sizes.size()];
    spec.ports_per_switch = ports;
    spec.num_hosts = nodes;
    const std::uint64_t trial_seed = seed + static_cast<std::uint64_t>(i);
    const std::string label = "trial " + std::to_string(i) + " (S=" +
                              std::to_string(spec.num_switches) +
                              ", seed=" + std::to_string(trial_seed) + ")";
    const auto sys = System::Build(spec, trial_seed);
    ++tally.verified;
    if (!VerifyOne(*sys, label, opts)) ++tally.failed;
    if (faults > 0)
      VerifyFaulted(sys->graph, faults, trial_seed, label, opts, tally);
  }

  if (tally.failed == 0)
    std::printf("irmc_verify: %d topologies verified (%d re-verified after "
                "fault injection): all clean\n",
                tally.verified, tally.faulted);
  else
    std::printf("irmc_verify: %d topologies verified (%d re-verified after "
                "fault injection): %d FAILED\n",
                tally.verified, tally.faulted, tally.failed);
  return tally.failed == 0 ? 0 : 1;
}
