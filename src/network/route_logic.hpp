// Routing machinery shared by both network engines.
//
// Everything a switch decides when a worm's header reaches it lives
// here: up*/down* candidate-port selection (deterministic or
// least-loaded adaptive), multidestination header parsing and stripping
// (tree-worm bit-strings narrowed per branch, path-worm fields consumed
// per step), and replication branch fan-out. The VCT Fabric and the
// flit-level FlitEngine both call ComputeRouteBranches, so a routing
// decision is — by construction — identical at both granularities; only
// the transport timing underneath differs. See docs/engines.md.
//
// A routing step allocates nothing: each branch is a Packet copy written
// into the caller's reused branch vector (headers inline, see
// packet.hpp), and a tree-worm decision lists its ports inline.
#pragma once

#include <array>
#include <cstddef>
#include <functional>
#include <vector>

#include "common/expect.hpp"
#include "network/packet.hpp"
#include "topology/system.hpp"

namespace irmc {

/// One replica leaving a switch: the (possibly narrowed) header and the
/// output port it takes. Host deliveries use the host's attachment port.
struct RouteBranch {
  Packet pkt;
  PortId port = kInvalidPort;
};

/// Ports of one switch, in the order added. Up to kInlinePorts live
/// inline, so a list at a switch of that many ports or fewer (every
/// configuration in the repository) allocates nothing; a longer list
/// moves to the heap.
class PortList {
 public:
  static constexpr std::size_t kInlinePorts = 32;

  void push_back(PortId p) {
    if (size_ < kInlinePorts) {
      inline_[size_++] = p;
      return;
    }
    if (heap_.empty()) heap_.assign(inline_.begin(), inline_.end());
    heap_.push_back(p);
    ++size_;
  }
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  const PortId* begin() const {
    return heap_.empty() ? inline_.data() : heap_.data();
  }
  const PortId* end() const { return begin() + size_; }
  PortId operator[](std::size_t i) const {
    IRMC_EXPECT(i < size_);
    return begin()[i];
  }

 private:
  std::array<PortId, kInlinePorts> inline_{};
  std::vector<PortId> heap_;  ///< all the ports once past kInlinePorts
  std::size_t size_ = 0;
};

/// Current queue depth of the output channel (s, p); adaptivity picks
/// the least-loaded candidate (first on ties).
using PortLoadFn = std::function<int(SwitchId, PortId)>;

/// What a tree worm does at switch `s` with its remaining *non-local*
/// destination set `rem` in `phase`:
///
///  * down = true  — replicate downward: every listed port is taken,
///    one branch per port, the header partitioned by the primary
///    reachability strings;
///  * down = false — climb: exactly one of the listed candidate up
///    ports is taken (deterministic routing: the first; adaptive: the
///    least loaded). Candidates are the up ports whose peer can finish
///    covering `rem`, falling back to every up port when none can yet.
///
/// This is the single enumeration point for tree-worm moves: both
/// engines route through it (via ComputeRouteBranches) and the static
/// deadlock analyzer (verify/deadlock.hpp) builds its dependency edges
/// from it, so the analyzed move relation is the executed one. Aborts
/// if `rem` is empty, a non-coverable set is presented in down-only
/// phase (the phase rule), or a climb starts at a switch with no up
/// port.
struct TreeRouteDecision {
  bool down = false;
  PortList ports;  ///< ascending
};
TreeRouteDecision TreeWormDecision(const System& sys, SwitchId s,
                                   const NodeSet& rem, RoutePhase phase);

/// Computes every branch of `pkt` at switch `s` and appends them to
/// `out` in deterministic order (host drops first, then network
/// forwards). Each branch is a copy of `pkt` with its header narrowed
/// and its route phase updated via the up*/down* tables; a copy of a
/// packet that records hops logs the hop taken. The network is
/// lossless, so a packet that cannot be routed aborts with an
/// "unroutable packet" message: a unicast with no candidate in its
/// phase, a tree worm that breaks the phase rule, or a path worm whose
/// step names another switch, a non-switch port or an up move after its
/// descent. Other contract violations (an uncoverable destination set,
/// a worm that ends without a drop) abort too.
void ComputeRouteBranches(const System& sys, SwitchId s, const Packet& pkt,
                          bool adaptive, const PortLoadFn& load,
                          std::vector<RouteBranch>& out);

}  // namespace irmc
