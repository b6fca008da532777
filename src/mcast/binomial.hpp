// Traditional multi-phase software multicast (paper Section 3.1).
//
// The classic hierarchical binomial tree: in each communication step
// every node holding the message sends it to one new destination, so a
// multicast to n-1 destinations takes ceil(log2 n) steps, each paying
// the full host + NI software overhead. This is the best achievable with
// unicast primitives and serves as the baseline the enhanced schemes are
// measured against.
#pragma once

#include <span>
#include <vector>

#include "mcast/scheme.hpp"

namespace irmc {

class UnicastBinomialScheme final : public MulticastScheme {
 public:
  SchemeKind kind() const override { return SchemeKind::kUnicastBinomial; }
  McastPlan Plan(const System& sys, NodeId src,
                 const std::vector<NodeId>& dests, const MessageShape& shape,
                 const HeaderSizing& headers) const override;
};

/// A conventional (uni-binomial) plan in which `root` alone sends: one
/// unicast message to every destination, in `send_order` (a permutation
/// of `dests`; empty means the order of `dests`). The executor plays it
/// as a flat tree: no destination forwards.
McastPlan StarPlan(const System& sys, NodeId root, std::vector<NodeId> dests,
                   std::span<const NodeId> send_order = {});

/// The naive pre-binomial baseline: the source sends a separate unicast
/// message to every destination, one after another ("separate
/// addressing"). Executes as a flat conventional tree — exactly what the
/// binomial scheme improves on by letting receivers retransmit.
class SeparateAddressingScheme final : public MulticastScheme {
 public:
  SchemeKind kind() const override { return SchemeKind::kUnicastBinomial; }
  McastPlan Plan(const System& sys, NodeId src,
                 const std::vector<NodeId>& dests, const MessageShape& shape,
                 const HeaderSizing& headers) const override;
};

}  // namespace irmc
