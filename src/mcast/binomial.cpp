#include "mcast/binomial.hpp"

#include <cstdint>
#include <utility>

#include "common/expect.hpp"
#include "mcast/kbinomial.hpp"

namespace irmc {

McastPlan UnicastBinomialScheme::Plan(const System& sys, NodeId src,
                                      const std::vector<NodeId>& dests,
                                      const MessageShape& shape,
                                      const HeaderSizing& headers) const {
  (void)shape;
  (void)headers;
  McastPlan plan;
  plan.scheme = SchemeKind::kUnicastBinomial;
  plan.root = src;
  plan.dests = dests;
  // An uncapped binomial tree is the k -> infinity case of the capped
  // builder (no node ever hits the cap within ceil(log2 n) rounds).
  AssignBinomialChildren(sys, src, dests, static_cast<int>(dests.size()) + 1,
                         plan);
  return plan;
}

McastPlan StarPlan(const System& sys, NodeId root, std::vector<NodeId> dests,
                   std::span<const NodeId> send_order) {
  if (send_order.empty()) send_order = dests;
  IRMC_EXPECT(send_order.size() == dests.size());
  // Every row is empty but the root's, which holds all the payload.
  const auto nodes = static_cast<std::size_t>(sys.num_nodes());
  std::vector<std::uint32_t> offsets(nodes + 1, 0);
  for (std::size_t u = static_cast<std::size_t>(root) + 1; u <= nodes; ++u)
    offsets[u] = static_cast<std::uint32_t>(send_order.size());
  McastPlan plan;
  plan.scheme = SchemeKind::kUnicastBinomial;  // conventional execution
  plan.root = root;
  plan.children = CsrArray<NodeId>(
      std::move(offsets),
      std::vector<NodeId>(send_order.begin(), send_order.end()));
  plan.dests = std::move(dests);
  return plan;
}

McastPlan SeparateAddressingScheme::Plan(const System& sys, NodeId src,
                                         const std::vector<NodeId>& dests,
                                         const MessageShape& shape,
                                         const HeaderSizing& headers) const {
  (void)shape;
  (void)headers;
  // Flat: all destinations are direct children of the source, ordered
  // by switch locality so near receivers are served first.
  return StarPlan(sys, src, dests, OrderDestsBySwitch(sys, src, dests));
}

}  // namespace irmc
