#include "mcast/binomial.hpp"

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

McastPlan SeparateAddressingScheme::Plan(const System& sys, NodeId src,
                                         const std::vector<NodeId>& dests,
                                         const MessageShape& shape,
                                         const HeaderSizing& headers) const {
  (void)shape;
  (void)headers;
  McastPlan plan;
  plan.scheme = SchemeKind::kUnicastBinomial;  // conventional execution
  plan.root = src;
  plan.dests = dests;
  plan.children.assign(static_cast<std::size_t>(sys.num_nodes()), {});
  // Flat: all destinations are direct children of the source, ordered
  // by switch locality so near receivers are served first.
  plan.children[static_cast<std::size_t>(src)] =
      OrderDestsBySwitch(sys, src, dests);
  return plan;
}

}  // namespace irmc
