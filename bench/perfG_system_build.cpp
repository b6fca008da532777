// System-construction performance (custom main): throughput of the flat
// CSR topology/routing core. Not a paper figure — this guards the cost
// every trial pays before its first simulated cycle.
//
// Four timed series:
//   cold      — full System::Build (topology generation + BFS tree +
//               orientation + routing tables + reachability), S=8 and
//               S=24;
//   tables    — System construction from a pre-generated Graph, i.e.
//               the derived-table cost alone;
//   cached    — SystemBuilder::Build hitting its keyed cache (the
//               per-trial cost when engine cross-checks or sweep reruns
//               revisit a (spec, seed, policy) cell);
//   lookups   — RoutingTable::Candidates throughput over every
//               (here, dest, phase) cell of one default system.
//
// Each series carries a deterministic checksum counter (distance sums,
// candidate-count sums, cache hit counts) so the run ledger records
// machine-independent evidence that the measured code did the same work
// — the committed CI baseline gates on those counters, while the
// wall-clock rates (machine-dependent by nature) are recorded only when
// IRMC_LEDGER_DETERMINISTIC is off. Prints a summary and appends a
// "perf"-kind RunRecord to the run ledger (report::DefaultLedgerPath).
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "report/collect.hpp"
#include "report/ledger.hpp"
#include "topology/system.hpp"
#include "topology/system_builder.hpp"

namespace {

using namespace irmc;
using Clock = std::chrono::steady_clock;

double Secs(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// One timed series: work count, wall seconds, deterministic checksum.
struct Timed {
  std::uint64_t count = 0;
  double seconds = 0.0;
  std::uint64_t checksum = 0;
  double PerSec() const {
    return seconds > 0.0 ? static_cast<double>(count) / seconds : 0.0;
  }
};

TopologySpec SpecFor(int switches) {
  TopologySpec spec;
  spec.num_switches = switches;
  spec.ports_per_switch = 8;
  spec.num_hosts = 4 * switches;
  return spec;
}

/// Full System::Build throughput; checksum sums corner distances so the
/// builds cannot be optimized away and table changes are visible.
Timed TimeColdBuilds(const TopologySpec& spec, int builds) {
  Timed out;
  const auto t0 = Clock::now();
  for (int i = 0; i < builds; ++i) {
    const auto sys = System::Build(spec, 1000 + static_cast<std::uint64_t>(i));
    out.checksum += static_cast<std::uint64_t>(
        sys->routing.Distance(0, sys->num_switches() - 1));
    ++out.count;
  }
  out.seconds = Secs(t0, Clock::now());
  return out;
}

/// Derived-table cost alone: graphs are pre-generated, the loop times
/// System construction (tree + orientation + routing + reachability).
Timed TimeTableBuilds(const TopologySpec& spec, int builds) {
  std::vector<Graph> graphs;
  graphs.reserve(static_cast<std::size_t>(builds));
  for (int i = 0; i < builds; ++i)
    graphs.push_back(
        GenerateTopology(spec, 1000 + static_cast<std::uint64_t>(i)));
  Timed out;
  const auto t0 = Clock::now();
  for (const Graph& g : graphs) {
    const System sys{Graph(g)};
    out.checksum += static_cast<std::uint64_t>(
        sys.routing.Distance(0, sys.num_switches() - 1));
    ++out.count;
  }
  out.seconds = Secs(t0, Clock::now());
  return out;
}

/// SystemBuilder cache-hit throughput: a fresh builder, a handful of
/// distinct keys, then rounds of re-requests that must all hit.
Timed TimeCachedBuilds(const TopologySpec& spec, int keys, int rounds,
                       std::uint64_t* hits, std::uint64_t* misses) {
  SystemBuilder builder;
  for (int k = 0; k < keys; ++k)
    builder.Build(spec, 1000 + static_cast<std::uint64_t>(k));  // warm
  Timed out;
  const auto t0 = Clock::now();
  for (int r = 0; r < rounds; ++r) {
    for (int k = 0; k < keys; ++k) {
      const auto sys =
          builder.Build(spec, 1000 + static_cast<std::uint64_t>(k));
      out.checksum += static_cast<std::uint64_t>(sys->tree.root()) + 1;
      ++out.count;
    }
  }
  out.seconds = Secs(t0, Clock::now());
  const SystemBuilder::Stats stats = builder.stats();
  *hits = stats.hits;
  *misses = stats.misses;
  return out;
}

/// Candidates() lookup throughput: every (here, dest) pair in both
/// phases, checksum = total candidate-port count (topology-determined).
Timed TimeLookups(int reps) {
  const auto sys = System::Build(SpecFor(8), 42);
  const int s_count = sys->num_switches();
  Timed out;
  const auto t0 = Clock::now();
  for (int rep = 0; rep < reps; ++rep) {
    for (SwitchId here = 0; here < s_count; ++here) {
      for (SwitchId dest = 0; dest < s_count; ++dest) {
        if (here == dest) continue;
        out.checksum +=
            sys->routing.Candidates(here, dest, RoutePhase::kUpAllowed)
                .size();
        out.checksum +=
            sys->routing.Candidates(here, dest, RoutePhase::kDownOnly).size();
        out.count += 2;
      }
    }
  }
  out.seconds = Secs(t0, Clock::now());
  return out;
}

/// Appends the perfG RunRecord. Checksums/counts are machine-independent
/// (the committed baseline carries them); rate gauges are appended only
/// on non-deterministic ledgers, since wall-clock throughput on one
/// machine is noise on another.
void AppendLedgerRecord(const Timed& cold8, const Timed& cold24,
                        const Timed& tables8, const Timed& cached,
                        std::uint64_t hits, std::uint64_t misses,
                        const Timed& lookups) {
  const std::string path = report::DefaultLedgerPath();
  if (path.empty()) return;
  report::RunInfo info;
  info.name = "perfG_system_build";
  info.kind = "perf";
  info.engine = "vct+flit";  // engine-independent: construction only
  // Name-sorted knobs of the series above.
  info.config =
      "builds_s24=60 builds_s8=400 cache_keys=8 cache_rounds=2000 "
      "lookup_reps=100000 ports=8 seed_base=1000";
  info.wall_seconds = cold8.seconds + cold24.seconds + tables8.seconds +
                      cached.seconds + lookups.seconds;
  MetricsRegistry m;
  m.GetCounter("perfG.cold_s8.builds").value =
      static_cast<std::int64_t>(cold8.count);
  m.GetCounter("perfG.cold_s8.dist_checksum").value =
      static_cast<std::int64_t>(cold8.checksum);
  m.GetCounter("perfG.cold_s24.builds").value =
      static_cast<std::int64_t>(cold24.count);
  m.GetCounter("perfG.cold_s24.dist_checksum").value =
      static_cast<std::int64_t>(cold24.checksum);
  m.GetCounter("perfG.tables_s8.dist_checksum").value =
      static_cast<std::int64_t>(tables8.checksum);
  m.GetCounter("perfG.cached.hits").value = static_cast<std::int64_t>(hits);
  m.GetCounter("perfG.cached.misses").value =
      static_cast<std::int64_t>(misses);
  m.GetCounter("perfG.lookups").value =
      static_cast<std::int64_t>(lookups.count);
  m.GetCounter("perfG.lookup_checksum").value =
      static_cast<std::int64_t>(lookups.checksum);
  if (!report::DeterministicLedger()) {
    m.GetGauge("perfG.cold_s8.builds_per_sec").Set(cold8.PerSec());
    m.GetGauge("perfG.cold_s24.builds_per_sec").Set(cold24.PerSec());
    m.GetGauge("perfG.tables_s8.builds_per_sec").Set(tables8.PerSec());
    m.GetGauge("perfG.cached.builds_per_sec").Set(cached.PerSec());
    m.GetGauge("perfG.lookups_per_sec").Set(lookups.PerSec());
  }
  if (!report::AppendRecord(path,
                            report::RunRecordJson(info, report::SeriesData{},
                                                  m, {})))
    std::fprintf(stderr, "cannot append run record to %s\n", path.c_str());
}

}  // namespace

int main() {
  const Timed cold8 = TimeColdBuilds(SpecFor(8), 400);
  const Timed cold24 = TimeColdBuilds(SpecFor(24), 60);
  const Timed tables8 = TimeTableBuilds(SpecFor(8), 400);
  std::uint64_t hits = 0, misses = 0;
  const Timed cached = TimeCachedBuilds(SpecFor(8), 8, 2000, &hits, &misses);
  const Timed lookups = TimeLookups(100000);

  std::printf("cold build   S=8 : %6llu builds, %8.1f /sec (checksum %llu)\n",
              (unsigned long long)cold8.count, cold8.PerSec(),
              (unsigned long long)cold8.checksum);
  std::printf("cold build   S=24: %6llu builds, %8.1f /sec (checksum %llu)\n",
              (unsigned long long)cold24.count, cold24.PerSec(),
              (unsigned long long)cold24.checksum);
  std::printf("tables only  S=8 : %6llu builds, %8.1f /sec (checksum %llu)\n",
              (unsigned long long)tables8.count, tables8.PerSec(),
              (unsigned long long)tables8.checksum);
  std::printf("cached build S=8 : %6llu builds, %8.3g /sec "
              "(%llu hits, %llu misses)\n",
              (unsigned long long)cached.count, cached.PerSec(),
              (unsigned long long)hits, (unsigned long long)misses);
  std::printf("candidates lookup: %6llu Mlookups, %8.1f M/sec (sum %llu)\n",
              (unsigned long long)(lookups.count / 1000000),
              lookups.PerSec() / 1e6, (unsigned long long)lookups.checksum);

  AppendLedgerRecord(cold8, cold24, tables8, cached, hits, misses, lookups);
  return 0;
}
