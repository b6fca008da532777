#include "mcast/path_worm.hpp"

#include <algorithm>
#include <span>
#include <utility>

#include "common/expect.hpp"

namespace irmc {
namespace {

/// One (switch, phase) state of a coverage DP table.
struct DpCell {
  int value = -1;                ///< -1 until computed
  PortId choice = kInvalidPort;  ///< next hop toward the target
};

/// Maximum-coverage route search on reused scratch: every DP of a plan,
/// for every target, worm and phase, runs on the same two tables — the
/// current target's and the best target's so far.
///
/// Each DP runs over the shortest-legal-route DAG toward one target. A
/// multi-drop worm "uses almost exactly the same path followed by a
/// unicast worm from a source to one of its destinations" (paper
/// Section 3.2.4), so candidate paths are exactly the shortest
/// up*/down* routes to some remaining destination switch, and we count
/// the remaining switches each such route passes through.
///
/// State (switch, phase); edges are the routing table's minimal-route
/// candidates, so the graph is acyclic (remaining distance strictly
/// decreases). Value = weight of switches on the route from the state's
/// switch to the target, inclusive of both.
class CoverageSearch {
 public:
  /// `remaining` is read at every Run, so the caller may clear switches
  /// between searches.
  CoverageSearch(const System& sys, const std::vector<char>& remaining)
      : sys_(sys),
        remaining_(remaining),
        cells_(4 * static_cast<std::size_t>(sys.num_switches())),
        current_(cells_.data()),
        best_(cells_.data() + cells_.size() / 2) {
    IRMC_EXPECT(static_cast<int>(remaining.size()) == sys.num_switches());
  }
  // current_ and best_ point into cells_.
  CoverageSearch(const CoverageSearch&) = delete;
  CoverageSearch& operator=(const CoverageSearch&) = delete;

  /// Appends to `route` the maximum-coverage unicast route from `start`
  /// to some remaining switch, one step per switch with its forward port
  /// (kInvalidPort on the last), cut right after the switch where the
  /// coverage cap is reached; the steps' drops are left to the caller.
  /// Appends to `covered`, when given, the remaining switches the route
  /// covers. The route adds at most one step per switch to `route`.
  void Run(SwitchId start, int coverage_cap,
           std::vector<PathRoutes::Step>& route,
           std::vector<SwitchId>* covered) {
    IRMC_EXPECT(coverage_cap >= 1);
    // Pick the anchor destination switch whose best unicast route covers
    // the most remaining switches; ties to the shorter route, then the
    // lower switch ID.
    SwitchId best_target = kInvalidSwitch;
    int best_cover = -1;
    int best_dist = 0;
    for (SwitchId t = 0; t < sys_.num_switches(); ++t) {
      if (!remaining_[static_cast<std::size_t>(t)]) continue;
      // A route of `dist` hops covers at most dist + 1 switches: skip the
      // targets that could not win even then.
      const int dist = sys_.routing.Distance(start, t);
      if (dist + 1 < best_cover ||
          (dist + 1 == best_cover && dist >= best_dist))
        continue;
      target_ = t;
      std::fill(current_, current_ + cells_.size() / 2, DpCell{});
      const int cover = Value(start, RoutePhase::kUpAllowed);
      if (cover > best_cover || (cover == best_cover && dist < best_dist)) {
        best_cover = cover;
        best_dist = dist;
        best_target = t;
        std::swap(current_, best_);
      }
    }
    IRMC_ENSURE(best_target != kInvalidSwitch);
    IRMC_ENSURE(best_cover >= 1);

    SwitchId here = start;
    RoutePhase phase = RoutePhase::kUpAllowed;
    std::size_t cut = route.size();  // one past the last step kept
    int covers = 0;
    for (;;) {
      route.push_back(PathRoutes::Step{here});
      if (remaining_[static_cast<std::size_t>(here)] &&
          CanDrop(here, phase, best_target)) {
        if (covered != nullptr) covered->push_back(here);
        cut = route.size();
        if (++covers >= coverage_cap) break;
      }
      if (here == best_target) break;
      const PortId p = best_[Index(here, phase)].choice;
      IRMC_ENSURE(p != kInvalidPort);
      route.back().forward_port = p;
      phase = sys_.routing.NextPhase(here, p, phase);
      here = sys_.graph.port(here, p).peer_switch;
    }
    IRMC_ENSURE(covers >= 1);
    route.resize(cut);
    route.back().forward_port = kInvalidPort;
  }

 private:
  /// True when a worm at `s` in `phase` may drop copies: only once the
  /// worm is in its down segment (or at its terminal switch). Replicating
  /// while the worm is still eligible to climb would create upward
  /// dependencies that the deadlock-free replication support at the
  /// switches cannot allow.
  static bool CanDrop(SwitchId s, RoutePhase phase, SwitchId target) {
    return phase == RoutePhase::kDownOnly || s == target;
  }

  static std::size_t Index(SwitchId s, RoutePhase phase) {
    return static_cast<std::size_t>(s) * 2 +
           (phase == RoutePhase::kDownOnly ? 1 : 0);
  }

  /// The DP toward `target_`, memoised in the current table.
  int Value(SwitchId s, RoutePhase phase) {
    // `cell` stays valid through the recursion: the table never grows.
    DpCell& cell = current_[Index(s, phase)];
    if (cell.value >= 0) return cell.value;
    const int w = CanDrop(s, phase, target_) ? Weight(s) : 0;
    int v;
    if (s == target_) {
      v = w;
    } else {
      int best = -1;
      PortId best_port = kInvalidPort;
      for (PortId p : sys_.routing.Candidates(s, target_, phase)) {
        const SwitchId t = sys_.graph.port(s, p).peer_switch;
        const RoutePhase next = sys_.routing.NextPhase(s, p, phase);
        const int via = Value(t, next);
        if (via > best) {
          best = via;
          best_port = p;
        }
      }
      IRMC_ENSURE(best >= 0);
      v = w + best;
      cell.choice = best_port;
    }
    cell.value = v;
    return v;
  }

  int Weight(SwitchId s) const {
    return remaining_[static_cast<std::size_t>(s)] ? 1 : 0;
  }

  const System& sys_;
  const std::vector<char>& remaining_;
  std::vector<DpCell> cells_;  ///< two tables of 2 cells per switch
  DpCell* current_;            ///< the table of the target being scored
  DpCell* best_;               ///< the table of the best target so far
  SwitchId target_ = kInvalidSwitch;
};

}  // namespace

BestPathResult FindBestCoveragePath(const System& sys, SwitchId start,
                                    const std::vector<char>& remaining,
                                    int coverage_cap) {
  CoverageSearch search(sys, remaining);
  std::vector<PathRoutes::Step> route;
  BestPathResult result;
  search.Run(start, coverage_cap, route, &result.covered);
  for (const PathRoutes::Step& step : route) {
    result.switches.push_back(step.sw);
    if (step.forward_port != kInvalidPort)
      result.ports.push_back(step.forward_port);
  }
  return result;
}

McastPlan PathWormMdpLgScheme::Plan(const System& sys, NodeId src,
                                    const std::vector<NodeId>& dests,
                                    const MessageShape& shape,
                                    const HeaderSizing& headers) const {
  (void)shape;
  McastPlan plan;
  plan.scheme = SchemeKind::kPathWorm;
  plan.root = src;
  plan.dests = dests;

  // Destinations bucketed by switch once, in input order within a
  // switch: switch s holds by_switch[bucket[s] .. bucket[s + 1]).
  // bucket[s] first counts, then (summed) ends, switch s's run; filling
  // from the last destination steps it down to the run's start.
  const auto num_switches = static_cast<std::size_t>(sys.num_switches());
  std::vector<int> bucket(num_switches + 1, 0);
  for (NodeId d : dests) ++bucket[static_cast<std::size_t>(sys.graph.SwitchOf(d))];
  for (std::size_t s = 1; s <= num_switches; ++s) bucket[s] += bucket[s - 1];
  std::vector<NodeId> by_switch(dests.size());
  for (auto d = dests.rbegin(); d != dests.rend(); ++d)
    by_switch[static_cast<std::size_t>(
        --bucket[static_cast<std::size_t>(sys.graph.SwitchOf(*d))])] = *d;

  std::vector<char> remaining(num_switches, 0);
  int remaining_count = 0;
  for (std::size_t s = 0; s < num_switches; ++s)
    if (bucket[s + 1] > bucket[s]) {
      remaining[s] = 1;
      ++remaining_count;
    }

  const int field_flits = headers.PathFieldFlits(sys.graph.ports_per_switch());
  // Every worm covers at least one remaining switch, and its route visits
  // no switch twice: the worms and their steps have these bounds, so no
  // buffer below regrows.
  const auto max_worms = static_cast<std::size_t>(remaining_count);
  // Senders in the order they got the message: the source, then the
  // first destination of every covered switch. A phase's senders are
  // everyone available when it starts.
  std::vector<NodeId> senders;
  senders.reserve(max_worms + 1);
  senders.push_back(src);
  // Every worm's steps, in worm order, until the plan takes an exact copy.
  std::vector<PathRoutes::Step> route;
  route.reserve(max_worms * num_switches);
  std::vector<PortId> hops;  // one worm's forward ports, for the check
  hops.reserve(num_switches);
  plan.worms.reserve(max_worms);
  std::vector<NodeId>& drops = plan.paths.drops;
  drops.reserve(dests.size());
  CoverageSearch search(sys, remaining);
  int phase = 1;
  while (remaining_count > 0) {
    const std::size_t phase_senders = senders.size();
    for (std::size_t next = 0; next < phase_senders && remaining_count > 0;
         ++next) {
      const NodeId sender = senders[next];
      const int cap = less_greedy
                          ? std::max(1, (remaining_count + 1) / 2)
                          : remaining_count;
      McastPlan::PlannedWorm worm;
      worm.sender = sender;
      worm.phase = phase;
      worm.step_begin = static_cast<int>(route.size());
      search.Run(sys.graph.SwitchOf(sender), cap, route, nullptr);
      worm.step_end = static_cast<int>(route.size());

      // Drops at every remaining switch of the route; one header field
      // pair per replication switch plus the terminal switch, stripped as
      // consumed.
      const auto steps = std::span(route).subspan(
          static_cast<std::size_t>(worm.step_begin));
      int fields = 0;
      hops.clear();
      for (PathRoutes::Step& step : steps) {
        const auto si = static_cast<std::size_t>(step.sw);
        step.drop_begin = static_cast<int>(drops.size());
        if (remaining[si]) {
          const auto here = by_switch.begin() + bucket[si];
          drops.insert(drops.end(), here, by_switch.begin() + bucket[si + 1]);
          senders.push_back(*here);
          remaining[si] = 0;
          --remaining_count;
        }
        step.drop_end = static_cast<int>(drops.size());
        if (step.drop_end > step.drop_begin ||
            step.forward_port == kInvalidPort)
          ++fields;
        if (step.forward_port != kInvalidPort)
          hops.push_back(step.forward_port);
      }
      worm.header_flits = fields * field_flits;
      for (PathRoutes::Step& step : steps) {
        if (step.drop_end > step.drop_begin ||
            step.forward_port == kInvalidPort)
          --fields;
        step.header_flits_after = fields * field_flits;
      }
      IRMC_ENSURE(fields == 0);
      IRMC_ENSURE(sys.routing.IsLegalRoute(steps.front().sw, hops));
      plan.worms.push_back(worm);
    }
    IRMC_ENSURE(senders.size() > phase_senders);
    ++phase;
  }
  plan.paths.steps.assign(route.begin(), route.end());
  return plan;
}

}  // namespace irmc
