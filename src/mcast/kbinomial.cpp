#include "mcast/kbinomial.hpp"

#include <algorithm>
#include <cstdint>
#include <utility>

#include "common/expect.hpp"

namespace irmc {

void BuildCappedBinomial(int receivers, int k,
                         std::vector<BinomialNode>& tree) {
  IRMC_EXPECT(receivers >= 0);
  IRMC_EXPECT(k >= 1);
  tree.assign(static_cast<std::size_t>(receivers) + 1, BinomialNode{});
  // Every round, each holder with fewer than k children adopts the next
  // id. The holders of a round are ids 0..next-1, and no holder has more
  // children than an older one, so the full ones are a prefix 0..lo-1
  // and the round's adopters are lo..next-1, in id order.
  int lo = 0;
  int next = 1;
  while (next <= receivers) {
    const int holders = next;
    for (int u = lo; u < holders && next <= receivers; ++u, ++next) {
      BinomialNode& child = tree[static_cast<std::size_t>(next)];
      child.parent = u;
      child.rank = tree[static_cast<std::size_t>(u)].children++;
    }
    while (tree[static_cast<std::size_t>(lo)].children == k) ++lo;
  }
}

namespace {

/// EvalFpfsCompletion over a built tree. `ready` is scratch of one row
/// of per-packet times per node: first when packet j reaches the node's
/// NI, then (once the node is evaluated) when it starts forwarding j.
Cycles FpfsCompletion(const std::vector<BinomialNode>& tree,
                      const MessageShape& shape, const HostParams& host,
                      int wire_flits, Cycles net_pipe,
                      std::vector<Cycles>& ready) {
  const auto m = static_cast<std::size_t>(shape.num_packets);
  const Cycles dma = host.DmaCycles(shape.packet_flits);
  const Cycles per_copy = HostParams::ni_forward_overhead + wire_flits;
  ready.resize(tree.size() * m);

  // Parents precede children, so one pass in id order evaluates every
  // node after its parent.
  Cycles completion = 0;
  for (std::size_t u = 0; u < tree.size(); ++u) {
    const BinomialNode& node = tree[u];
    Cycles* row = ready.data() + u * m;
    if (u == 0) {
      for (std::size_t j = 0; j < m; ++j)
        row[j] = host.o_host + host.o_ni + static_cast<Cycles>(j + 1) * dma;
    } else {
      // Packet j arrives as the parent's (rank+1)-th copy of j.
      const Cycles* from =
          ready.data() + static_cast<std::size_t>(node.parent) * m;
      const Cycles lag = (node.rank + 1) * per_copy + net_pipe;
      for (std::size_t j = 0; j < m; ++j) row[j] = from[j] + lag;
      completion = std::max(completion, row[m - 1] + dma + host.o_host);
    }
    if (node.children == 0) continue;
    // FPFS: packet j goes to every child back to back, as soon as it has
    // arrived and the copies of packet j-1 are out.
    const Cycles burst = node.children * per_copy;
    for (std::size_t j = 1; j < m; ++j)
      row[j] = std::max(row[j], row[j - 1] + burst);
  }
  return completion;
}

}  // namespace

Cycles EvalFpfsCompletion(int receivers, int k, const MessageShape& shape,
                          const HostParams& host, int wire_flits,
                          Cycles net_pipe) {
  IRMC_EXPECT_MSG(shape.Valid(), "message of %d packets x %d flits",
                  shape.num_packets, shape.packet_flits);
  std::vector<BinomialNode> tree;
  BuildCappedBinomial(receivers, k, tree);
  std::vector<Cycles> ready;
  return FpfsCompletion(tree, shape, host, wire_flits, net_pipe, ready);
}

int ChooseK(int receivers, const MessageShape& shape, const HostParams& host,
            int wire_flits, Cycles net_pipe, int kmax) {
  IRMC_EXPECT(receivers >= 1);
  IRMC_EXPECT(kmax >= 1);
  IRMC_EXPECT_MSG(shape.Valid(), "message of %d packets x %d flits",
                  shape.num_packets, shape.packet_flits);
  // Every candidate tree is built and scored on the same two buffers.
  std::vector<BinomialNode> tree;
  std::vector<Cycles> ready;
  int best_k = 1;
  Cycles best = 0;
  for (int k = 1; k <= kmax; ++k) {
    BuildCappedBinomial(receivers, k, tree);
    const Cycles t =
        FpfsCompletion(tree, shape, host, wire_flits, net_pipe, ready);
    if (k == 1 || t < best) {
      best = t;
      best_k = k;
    }
    // The root adopts the most; if even it stayed under the cap, every
    // larger k grows this same tree and cannot score better.
    if (tree[0].children < k) break;
  }
  return best_k;
}

std::vector<NodeId> OrderDestsBySwitch(const System& sys, NodeId src,
                                       const std::vector<NodeId>& dests) {
  // One (distance, switch, node) key per destination, looked up once and
  // packed into an integer whose order is the key's, then sorted as
  // plain integers: a comparator that looked the switches and distances
  // up again on every comparison cost twice as much.
  const SwitchId home = sys.graph.SwitchOf(src);
  const std::int64_t switches = sys.num_switches();
  const std::int64_t nodes = sys.num_nodes();
  std::vector<std::int64_t> keys(dests.size());
  for (std::size_t i = 0; i < dests.size(); ++i) {
    const SwitchId s = sys.graph.SwitchOf(dests[i]);
    keys[i] =
        (sys.routing.Distance(home, s) * switches + s) * nodes + dests[i];
  }
  std::sort(keys.begin(), keys.end());
  std::vector<NodeId> ordered(dests.size());
  for (std::size_t i = 0; i < keys.size(); ++i)
    ordered[i] = static_cast<NodeId>(keys[i] % nodes);
  return ordered;
}

void AssignBinomialChildren(const System& sys, NodeId src,
                            const std::vector<NodeId>& dests, int k,
                            McastPlan& plan) {
  std::vector<BinomialNode> tree;
  BuildCappedBinomial(static_cast<int>(dests.size()), k, tree);
  const auto ordered = OrderDestsBySwitch(sys, src, dests);
  auto real = [&](std::size_t abstract) {
    return static_cast<std::size_t>(abstract == 0 ? src
                                                  : ordered[abstract - 1]);
  };
  // CSR by node: offsets[u] first counts u's children, then (summed)
  // marks the end of its row. Filling ids from last to first steps each
  // row's cursor down to its start and lists a row's children in id
  // order, which is adoption order.
  std::vector<std::uint32_t> offsets(
      static_cast<std::size_t>(sys.num_nodes()) + 1, 0);
  for (std::size_t u = 0; u < tree.size(); ++u)
    offsets[real(u)] = static_cast<std::uint32_t>(tree[u].children);
  for (std::size_t u = 1; u < offsets.size(); ++u) offsets[u] += offsets[u - 1];
  std::vector<NodeId> kids(dests.size());
  for (std::size_t c = tree.size() - 1; c >= 1; --c)
    kids[--offsets[real(static_cast<std::size_t>(tree[c].parent))]] =
        static_cast<NodeId>(real(c));
  plan.children = CsrArray<NodeId>(std::move(offsets), std::move(kids));
}

McastPlan KBinomialNiScheme::Plan(const System& sys, NodeId src,
                                  const std::vector<NodeId>& dests,
                                  const MessageShape& shape,
                                  const HeaderSizing& headers) const {
  McastPlan plan;
  plan.scheme = SchemeKind::kNiKBinomial;
  plan.root = src;
  plan.dests = dests;

  const int wire = shape.packet_flits + headers.UnicastFlits();
  // Representative network pipeline latency for the k model: mean route
  // of ~3 switch hops plus the forwarding NI's receive and send
  // overheads (both o_ni, per Section 4.2.1 of the paper).
  const Cycles net_pipe = 3 * 3 + 2 * host.o_ni;
  const int k = forced_k > 0
                    ? forced_k
                    : ChooseK(static_cast<int>(dests.size()), shape, host,
                              wire, net_pipe);
  plan.chosen_k = k;

  AssignBinomialChildren(sys, src, dests, k, plan);
  return plan;
}

}  // namespace irmc
