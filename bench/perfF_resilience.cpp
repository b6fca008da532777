// Resilience subsystem performance (docs/resilience.md). Not a paper
// figure — this guards the cost of the runtime fault layer:
//
//   pristine  resilience disabled (the baseline every other PR gates on)
//   guarded   resilience enabled with a zero-fault schedule — the price
//             of the reliable-delivery layer (acks, dedup bitmaps) when
//             nothing goes wrong; must stay within the informational 5%
//             gate
//   faulted   two mid-run faults per trial (mtbf-drawn): measures the
//             full drop -> retransmit -> Autonet-reconfigure path,
//             reported with the resilience.* counters
//
// Also times raw Autonet reconfiguration throughput (full System
// rebuilds on degraded graphs), which bounds how fast faults can arrive
// before reconfiguration becomes the simulation bottleneck. Prints a
// summary and appends a "perf"-kind RunRecord to the run ledger
// (report::DefaultLedgerPath). The guard-overhead gate prints FAIL
// above 5% but always exits 0 — timing noise on shared CI runners must
// not turn it into a flake.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>

#include "core/parallel.hpp"
#include "core/single_runner.hpp"
#include "report/collect.hpp"
#include "report/ledger.hpp"
#include "resilience/fault_schedule.hpp"
#include "topology/fault.hpp"
#include "topology/system.hpp"

namespace {

using namespace irmc;

struct TimedRun {
  int samples = 0;
  double seconds = 0.0;
  double mean_latency = 0.0;
  std::int64_t faults = 0;
  std::int64_t drops = 0;
  std::int64_t retransmits = 0;
  std::int64_t reconfigs = 0;
  double SamplesPerSec() const {
    return seconds > 0.0 ? static_cast<double>(samples) / seconds : 0.0;
  }
};

enum class Mode : std::uint8_t { kPristine, kGuarded, kFaulted };

TimedRun TimeMode(Mode mode) {
  SingleRunSpec spec;
  spec.scheme = SchemeKind::kTreeWorm;
  spec.multicast_size = 8;
  spec.topologies = 40;
  spec.samples_per_topology = 10;
  spec.cfg.message.num_packets = 2;
  spec.cfg.message.packet_flits = 64;
  if (mode != Mode::kPristine) spec.cfg.resilience.enabled = true;
  if (mode == Mode::kFaulted) spec.cfg.resilience.mtbf = 1'500.0;
  const auto t0 = std::chrono::steady_clock::now();
  SingleRunResult r = RunSingleMulticast(spec);
  const auto t1 = std::chrono::steady_clock::now();
  TimedRun out;
  out.samples = r.samples;
  out.seconds = std::chrono::duration<double>(t1 - t0).count();
  out.mean_latency = r.mean_latency;
  out.faults = r.metrics.GetCounter("resilience.faults").value;
  out.drops = r.metrics.GetCounter("resilience.drops").value;
  out.retransmits = r.metrics.GetCounter("resilience.retransmits").value;
  out.reconfigs = r.metrics.GetCounter("resilience.reconfigs").value;
  return out;
}

/// Full Autonet reconfigurations (System rebuild on a degraded graph)
/// per second, over a rotation of topologies and failed links.
struct TimedReconfig {
  int rebuilds = 0;
  double seconds = 0.0;
  double PerSec() const {
    return seconds > 0.0 ? static_cast<double>(rebuilds) / seconds : 0.0;
  }
};

TimedReconfig TimeReconfiguration() {
  constexpr int kRebuilds = 200;
  TimedReconfig out;
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < kRebuilds; ++i) {
    TopologySpec spec;
    const Graph g =
        GenerateTopology(spec, 500 + static_cast<std::uint64_t>(i % 10));
    const auto schedule =
        MakeSurvivableSchedule(g, static_cast<std::uint64_t>(i), 1, 0, 1);
    if (schedule.empty()) continue;
    auto degraded = WithoutLink(g, schedule[0].sw, schedule[0].port);
    const System sys{std::move(*degraded)};
    ++out.rebuilds;
  }
  out.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  return out;
}

/// Appends a "perf"-kind RunRecord so the diff layer can track the cost
/// of the resilience layer across builds. Throughput gauges carry the
/// per_sec suffix (higher-is-better in irmc_report regress); the
/// resilience.* counters and mean latencies are seeded simulation
/// results, so they gate deterministically even though the samples/sec
/// figures are machine-dependent.
void AppendPerfLedgerRecord(const TimedRun& pristine, const TimedRun& guarded,
                            const TimedRun& faulted,
                            const TimedReconfig& reconfig, double guard_pct) {
  const std::string path = report::DefaultLedgerPath();
  if (path.empty()) return;
  report::RunInfo info;
  info.name = "perfF_resilience";
  info.kind = "perf";
  info.engine = ToString(SimConfig{}.engine);
  // Name-sorted knobs of the timed run (TimeMode above).
  info.config =
      "max_faults=2 mtbf=1500 packet_flits=64 packets=2 reps=3 samples=10 "
      "scheme=tree-worm size=8 topologies=40";
  info.wall_seconds = pristine.seconds + guarded.seconds + faulted.seconds +
                      reconfig.seconds;
  MetricsRegistry m;
  m.GetGauge("perf.pristine.samples_per_sec").Set(pristine.SamplesPerSec());
  m.GetGauge("perf.guarded.samples_per_sec").Set(guarded.SamplesPerSec());
  m.GetGauge("perf.faulted.samples_per_sec").Set(faulted.SamplesPerSec());
  m.GetGauge("perf.guard_overhead_pct").Set(guard_pct);
  m.GetGauge("perf.reconfig.rebuilds_per_sec").Set(reconfig.PerSec());
  m.GetGauge("perf.pristine.mean_latency").Set(pristine.mean_latency);
  m.GetGauge("perf.guarded.mean_latency").Set(guarded.mean_latency);
  m.GetGauge("perf.faulted.mean_latency").Set(faulted.mean_latency);
  m.GetCounter("resilience.faults").value = faulted.faults;
  m.GetCounter("resilience.drops").value = faulted.drops;
  m.GetCounter("resilience.retransmits").value = faulted.retransmits;
  m.GetCounter("resilience.reconfigs").value = faulted.reconfigs;
  if (!report::AppendRecord(path,
                            report::RunRecordJson(info, report::SeriesData{},
                                                  m, {})))
    std::fprintf(stderr, "cannot append run record to %s\n", path.c_str());
}

}  // namespace

int main() {
  constexpr int kReps = 3;
  constexpr double kGatePct = 5.0;
  SetParallelThreads(1);  // serial: wall time == work, no scheduler noise
  TimeMode(Mode::kPristine);  // warm caches/allocator before measuring
  TimeMode(Mode::kFaulted);
  TimedRun pristine, guarded, faulted;
  for (int rep = 0; rep < kReps; ++rep) {
    // Alternate modes so thermal/frequency drift hits all three.
    const TimedRun p = TimeMode(Mode::kPristine);
    const TimedRun g = TimeMode(Mode::kGuarded);
    const TimedRun f = TimeMode(Mode::kFaulted);
    if (rep == 0 || p.seconds < pristine.seconds) pristine = p;
    if (rep == 0 || g.seconds < guarded.seconds) guarded = g;
    if (rep == 0 || f.seconds < faulted.seconds) faulted = f;
  }
  SetParallelThreads(0);  // restore IRMC_THREADS / hardware default

  const double guard_pct =
      pristine.seconds > 0.0
          ? 100.0 * (guarded.seconds - pristine.seconds) / pristine.seconds
          : 0.0;
  const bool pass = guard_pct <= kGatePct;
  std::printf("zero-fault guard overhead: pristine %.3g samples/s, guarded "
              "%.3g samples/s, %+.2f%% (gate %.0f%%) -- %s\n",
              pristine.SamplesPerSec(), guarded.SamplesPerSec(), guard_pct,
              kGatePct, pass ? "PASS" : "FAIL (informational)");
  std::printf("guarded mean latency %.6g cycles (pristine %.6g — must "
              "match: zero-fault runs only add out-of-band acks)\n",
              guarded.mean_latency, pristine.mean_latency);
  std::printf("faulted (mtbf 1500, <=2 faults/trial): %.3g samples/s, mean "
              "latency %.6g cycles, %lld faults %lld drops %lld retransmits "
              "%lld reconfigs\n",
              faulted.SamplesPerSec(), faulted.mean_latency,
              static_cast<long long>(faulted.faults),
              static_cast<long long>(faulted.drops),
              static_cast<long long>(faulted.retransmits),
              static_cast<long long>(faulted.reconfigs));

  const TimedReconfig reconfig = TimeReconfiguration();
  std::printf("autonet reconfiguration: %d System rebuilds in %.3gs "
              "(%.3g rebuilds/s)\n",
              reconfig.rebuilds, reconfig.seconds, reconfig.PerSec());

  AppendPerfLedgerRecord(pristine, guarded, faulted, reconfig, guard_pct);
  return 0;
}
