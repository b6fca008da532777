// k-binomial trees for NI-supported multicast (paper Section 3.2.1).
//
// Construction follows the paper's definition: a recursively doubling
// tree in which each vertex has at most k children. Growth is round
// based — in every round each message holder with fewer than k children
// adopts the next destination — which doubles coverage per round until
// the cap bites.
//
// The value of k "is a function of the size of the multicast set and the
// number of packets in the multicast message": we choose it by exact
// evaluation of the FPFS completion-time recurrence over candidate k
// (an NI forwards packet j to all k children before packet j+1, each
// copy serialising on the injection channel), reconstructing the method
// of [Kesavan & Panda, ICPP'98].
#pragma once

#include <vector>

#include "core/config.hpp"
#include "mcast/scheme.hpp"

namespace irmc {

/// One abstract id of a capped-binomial tree.
struct BinomialNode {
  int parent = -1;   ///< adopting id; -1 for the root (id 0)
  int rank = 0;      ///< position among the parent's children
  int children = 0;  ///< how many ids this one adopts
};

/// Round-based capped-binomial tree over abstract ids 0..receivers (0 is
/// the root). Ids are adopted in increasing order, so parents precede
/// children and a node's children are the ids naming it as parent, in
/// id order (which is adoption and rank order). `tree` is resized to
/// receivers + 1 and overwritten, so a caller building many trees
/// reuses one buffer.
void BuildCappedBinomial(int receivers, int k, std::vector<BinomialNode>& tree);

/// FPFS completion-time model for a k-capped tree: time until the last
/// receiver has the whole message at its host. `wire_flits` is the
/// per-packet on-wire length; `net_pipe` the source-to-destination
/// network pipeline latency excluding serialisation. The message must
/// have at least one packet of at least one flit.
Cycles EvalFpfsCompletion(int receivers, int k, const MessageShape& shape,
                          const HostParams& host, int wire_flits,
                          Cycles net_pipe);

/// argmin over k in [1, kmax] of EvalFpfsCompletion (first minimum).
int ChooseK(int receivers, const MessageShape& shape, const HostParams& host,
            int wire_flits, Cycles net_pipe, int kmax = 8);

/// Orders destinations so that nodes sharing a switch are contiguous and
/// switches appear by (distance from the source's switch, id) — the
/// contention-reducing mapping for irregular networks.
std::vector<NodeId> OrderDestsBySwitch(const System& sys, NodeId src,
                                       const std::vector<NodeId>& dests);

/// Fills `plan.children` with the k-capped binomial tree over `src` and
/// `dests`: abstract id 0 is `src`, id i > 0 is the i-th destination in
/// OrderDestsBySwitch order.
void AssignBinomialChildren(const System& sys, NodeId src,
                            const std::vector<NodeId>& dests, int k,
                            McastPlan& plan);

class KBinomialNiScheme final : public MulticastScheme {
 public:
  SchemeKind kind() const override { return SchemeKind::kNiKBinomial; }
  McastPlan Plan(const System& sys, NodeId src,
                 const std::vector<NodeId>& dests, const MessageShape& shape,
                 const HeaderSizing& headers) const override;

  /// Fix k instead of model-choosing it (ablation benches); 0 = auto.
  int forced_k = 0;
  /// Host parameters used by the k-choice model.
  HostParams host;
};

}  // namespace irmc
