#include "mcast/tree_worm.hpp"

#include <algorithm>
#include <cstdint>
#include <utility>

namespace irmc {

McastPlan TreeWormScheme::Plan(const System& sys, NodeId src,
                               const std::vector<NodeId>& dests,
                               const MessageShape& shape,
                               const HeaderSizing& headers) const {
  (void)sys;
  (void)shape;
  McastPlan plan;
  plan.scheme = SchemeKind::kTreeWorm;
  plan.root = src;
  plan.dests = dests;
  // The paper's single worm.
  if (max_region_span <= 0 || dests.empty()) return plan;

  // Chunked headers: split destinations into node-ID windows of at most
  // max_region_span bits. One worm per non-empty window; header = the
  // unicast tag, one window-offset flit, and a span-wide bit string. The
  // windows partition the sorted destinations, so they are the CSR
  // payload as it is.
  std::vector<NodeId> sorted = dests;
  std::sort(sorted.begin(), sorted.end());
  plan.tree_region_header_flits =
      headers.account
          ? HeaderSizing::unicast_flits + 1 + (max_region_span + 7) / 8
          : 0;
  std::vector<std::uint32_t> offsets{0};
  for (std::size_t i = 1, base = 0; i < sorted.size(); ++i)
    if (sorted[i] >= sorted[base] + max_region_span) {
      offsets.push_back(static_cast<std::uint32_t>(i));  // a new window
      base = i;
    }
  offsets.push_back(static_cast<std::uint32_t>(sorted.size()));
  plan.tree_regions = CsrArray<NodeId>(std::move(offsets), std::move(sorted));
  return plan;
}

}  // namespace irmc
