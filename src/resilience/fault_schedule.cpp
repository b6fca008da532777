#include "resilience/fault_schedule.hpp"

#include <algorithm>
#include <cstdint>
#include <limits>

#include "common/args.hpp"
#include "common/expect.hpp"
#include "common/rng.hpp"

namespace irmc {
namespace {

/// Links of `g` that are safe to lose right now (all links minus the
/// bridges), in (switch, port) order.
std::vector<LinkRef> SurvivableLinks(const Graph& g) {
  const auto all = AllLinks(g);
  const auto critical = CriticalLinks(g);
  std::vector<LinkRef> out;
  out.reserve(all.size());
  for (const LinkRef& l : all) {
    bool is_bridge = false;
    for (const LinkRef& c : critical)
      if (c.sw == l.sw && c.port == l.port) is_bridge = true;
    if (!is_bridge) out.push_back(l);
  }
  return out;
}

/// Shared body of the random generators: `next_time(i)` supplies the
/// i-th fault time; links are drawn uniformly from the survivable set
/// of the current degraded graph.
template <typename NextTime>
std::vector<TimedFault> DrawFaults(const Graph& g, std::uint64_t seed,
                                   int count, NextTime next_time) {
  std::vector<TimedFault> schedule;
  Rng rng(seed * 0x9e3779b97f4a7c15ULL + 0x5851f42d4c957f2dULL);
  Graph cur(g);
  for (int i = 0; i < count; ++i) {
    const auto candidates = SurvivableLinks(cur);
    if (candidates.empty()) break;  // no redundancy left to spend
    const LinkRef pick = candidates[static_cast<std::size_t>(
        rng.NextBelow(candidates.size()))];
    schedule.push_back(TimedFault{next_time(rng, i), pick.sw, pick.port});
    auto degraded = WithoutLink(cur, pick.sw, pick.port);
    IRMC_ENSURE(degraded.has_value());  // pick was non-bridge by draw
    cur = std::move(*degraded);
  }
  SortSchedule(schedule);
  return schedule;
}

}  // namespace

void SortSchedule(std::vector<TimedFault>& schedule) {
  std::stable_sort(schedule.begin(), schedule.end(),
                   [](const TimedFault& a, const TimedFault& b) {
                     return a.at < b.at;
                   });
}

bool ScheduleIsSurvivable(const Graph& g,
                          const std::vector<TimedFault>& schedule) {
  Graph cur(g);
  for (const TimedFault& f : schedule) {
    auto degraded = WithoutLink(cur, f.sw, f.port);
    if (!degraded.has_value()) return false;
    cur = std::move(*degraded);
  }
  return true;
}

std::vector<Graph> SurvivingGraphs(const Graph& g,
                                   const std::vector<TimedFault>& schedule) {
  std::vector<Graph> out;
  out.reserve(schedule.size());
  const Graph* cur = &g;
  for (const TimedFault& f : schedule) {
    auto degraded = WithoutLink(*cur, f.sw, f.port);
    IRMC_ENSURE(degraded.has_value() &&
                "unsurvivable fault schedule: a fault removes a bridge (or "
                "names a dead/non-switch port)");
    out.push_back(std::move(*degraded));
    cur = &out.back();
  }
  return out;
}

std::vector<TimedFault> MakeSurvivableSchedule(const Graph& g,
                                               std::uint64_t seed, int count,
                                               Cycles window_lo,
                                               Cycles window_hi) {
  IRMC_EXPECT(window_lo <= window_hi);
  return DrawFaults(g, seed, count, [&](Rng& rng, int) {
    return static_cast<Cycles>(
        rng.NextInRange(window_lo, window_hi));
  });
}

std::vector<TimedFault> ScheduleFromMtbf(const Graph& g, double mtbf,
                                         int max_faults, std::uint64_t seed) {
  IRMC_EXPECT(mtbf > 0.0);
  Cycles t = 0;
  return DrawFaults(g, seed, max_faults, [&t, mtbf](Rng& rng, int) {
    const double gap = rng.NextExponential(mtbf);
    t += std::max<Cycles>(1, static_cast<Cycles>(gap));
    return t;
  });
}

bool ParseFaultSchedule(const std::string& text,
                        std::vector<TimedFault>* out) {
  std::vector<TimedFault> parsed;
  if (!text.empty() && text.back() == ',') return false;  // empty last item
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t end = text.find(',', pos);
    if (end == std::string::npos) end = text.size();
    const std::string item = text.substr(pos, end - pos);
    const std::size_t c1 = item.find(':');
    const std::size_t c2 =
        c1 == std::string::npos ? std::string::npos : item.find(':', c1 + 1);
    if (c1 == std::string::npos || c2 == std::string::npos) return false;
    // Each field must fit its type: a value that would wrap is malformed.
    std::int64_t at = 0;
    std::int64_t sw = 0;
    std::int64_t port = 0;
    if (!ParseIntIn(item.substr(0, c1), 0, std::numeric_limits<Cycles>::max(),
                    &at) ||
        !ParseIntIn(item.substr(c1 + 1, c2 - c1 - 1), 0,
                    std::numeric_limits<SwitchId>::max(), &sw) ||
        !ParseIntIn(item.substr(c2 + 1), 0,
                    std::numeric_limits<PortId>::max(), &port))
      return false;
    parsed.push_back(TimedFault{at, static_cast<SwitchId>(sw),
                                static_cast<PortId>(port)});
    pos = end + 1;
  }
  if (parsed.empty()) return false;
  SortSchedule(parsed);
  *out = std::move(parsed);
  return true;
}

std::string FormatFaultSchedule(const std::vector<TimedFault>& schedule) {
  std::string out;
  for (const TimedFault& f : schedule) {
    if (!out.empty()) out += ',';
    out += std::to_string(f.at) + ':' + std::to_string(f.sw) + ':' +
           std::to_string(f.port);
  }
  return out;
}

}  // namespace irmc
