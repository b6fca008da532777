// Multicast scheme interface and plan representation.
//
// A scheme turns (system, source, destination set, message shape) into a
// McastPlan — the static decisions: forwarding tree, worm headers, worm
// routes, phase assignments. The executor (core/executor) then plays a
// plan on the fabric with the host/NI timing model.
//
// A plan is a flat value: every list it holds lives in one of a few
// plan-owned arrays (CSR rows for the forwarding tree and the tree-worm
// regions, plan-wide step and drop arrays for the path worms), so
// building one costs a fixed number of allocations whatever its size,
// and retiring one frees only those arrays.
#pragma once

#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "common/csr.hpp"
#include "common/types.hpp"
#include "core/config.hpp"
#include "network/packet.hpp"
#include "topology/system.hpp"

namespace irmc {

struct McastPlan {
  SchemeKind scheme = SchemeKind::kUnicastBinomial;
  NodeId root = kInvalidNode;
  std::vector<NodeId> dests;  ///< all destinations, no duplicates, no root

  /// Message shape for this multicast only; the driver's configured
  /// shape applies when unset. Lets mixed traffic (e.g. short DSM
  /// invalidations and acks) share one fabric.
  std::optional<MessageShape> shape;

  /// Forwarding children per node (uni-binomial and NI-k-binomial): row
  /// u lists u's children in send order, one row per NodeId, empty for
  /// non-participants. No rows for the worm schemes.
  CsrArray<NodeId> children;
  /// The k the k-binomial planner chose (reporting/ablation).
  int chosen_k = 0;

  /// Tree-worm chunking (scaling extension, see TreeWormScheme): when it
  /// has rows, the source sends one worm per row (region) instead of one
  /// all-destinations worm, each with a header of
  /// tree_region_header_flits.
  CsrArray<NodeId> tree_regions;
  int tree_region_header_flits = 0;

  /// A planned multi-drop path worm: its route is steps [step_begin,
  /// step_end) of the plan's `paths`.
  struct PlannedWorm {
    NodeId sender = kInvalidNode;
    int header_flits = 0;  ///< initial header length on the wire
    int phase = 0;         ///< planner phase (reporting)
    int step_begin = 0;
    int step_end = 0;
  };
  /// Planned path worms (path-worm scheme), in global send order. Worms
  /// of one sender are sent in their relative order.
  std::vector<PlannedWorm> worms;
  /// Every worm's route steps and host drops, in worm order.
  PathRoutes paths;

  /// The route steps of `worm`.
  std::span<const PathRoutes::Step> Route(const PlannedWorm& worm) const {
    return {paths.steps.data() + worm.step_begin,
            static_cast<std::size_t>(worm.step_end - worm.step_begin)};
  }
  /// The destinations `worm` delivers to: its steps' drops, in step
  /// order.
  std::span<const NodeId> Covered(const PlannedWorm& worm) const {
    const int begin = paths.steps[static_cast<std::size_t>(worm.step_begin)]
                          .drop_begin;
    const int end =
        paths.steps[static_cast<std::size_t>(worm.step_end - 1)].drop_end;
    return {paths.drops.data() + begin, static_cast<std::size_t>(end - begin)};
  }
};

class MulticastScheme {
 public:
  virtual ~MulticastScheme() = default;
  virtual SchemeKind kind() const = 0;
  /// Build the static plan. `dests` must not contain `src` or dupes.
  virtual McastPlan Plan(const System& sys, NodeId src,
                         const std::vector<NodeId>& dests,
                         const MessageShape& shape,
                         const HeaderSizing& headers) const = 0;
};

/// Factory over the four schemes. `host` feeds the k-binomial planner's
/// k-choice cost model (ignored by the other schemes).
std::unique_ptr<MulticastScheme> MakeScheme(SchemeKind kind,
                                            const HostParams& host = {});

}  // namespace irmc
