#include "mcast/tree_worm.hpp"

#include <algorithm>

#include "common/expect.hpp"

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
  if (max_region_span <= 0) return plan;  // the paper's single worm

  // Chunked headers: split destinations into node-ID windows of at most
  // max_region_span bits. One worm per non-empty window; header = the
  // unicast tag, one window-offset flit, and a span-wide bit string.
  std::vector<NodeId> sorted = dests;
  std::sort(sorted.begin(), sorted.end());
  const int per_region_header =
      headers.account
          ? HeaderSizing::unicast_flits + 1 + (max_region_span + 7) / 8
          : 0;
  std::vector<NodeId> region;
  NodeId window_base = -1;
  auto flush = [&]() {
    if (region.empty()) return;
    plan.tree_regions.push_back(region);
    plan.tree_region_header_flits.push_back(per_region_header);
    region.clear();
  };
  for (NodeId d : sorted) {
    if (window_base < 0 || d >= window_base + max_region_span) {
      flush();
      window_base = d;
    }
    region.push_back(d);
  }
  flush();
  IRMC_ENSURE(plan.tree_regions.size() == plan.tree_region_header_flits.size());
  return plan;
}

}  // namespace irmc
