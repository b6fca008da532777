// Packets and worm headers (paper Sections 3.2.3 / 3.2.4).
//
// One Packet object is one worm on the wire. Replication at a switch
// creates new Packet copies with narrowed headers. The header kind
// selects the routing behaviour in the fabric:
//
//  * kUnicast — routed by destination node through the up*/down* tables.
//  * kTreeWorm — N-bit destination string; travels up until the
//    remaining set is down-coverable, then replicates downward along
//    partitioned reachability strings.
//  * kPathWorm — multi-drop path worm; follows a planner-supplied hop
//    list, dropping copies to host ports at designated switches and
//    forwarding through at most one switch port per switch.
//
// A Packet is a plain value with one owner at a time: the NI that builds
// it hands it to InjectFromNi, and from then on the network engine that
// carries it keeps it in its own slots (docs/engines.md). A replica is a
// copy: the headers live inline (a tree worm's destination string up to
// 256 nodes, see common/nodeset.hpp), so copying allocates nothing
// unless the run records hop logs. A path worm's route is shared, not
// copied: every copy of the packet points at its plan's one hop list,
// so a replica costs a reference count, not a list.
//
// Wire length = data flits + remaining header flits, so header encoding
// costs are physically accounted (§3.3 of the paper discusses them only
// qualitatively; bench/ablD quantifies them).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/nodeset.hpp"
#include "common/types.hpp"
#include "topology/routing_table.hpp"

namespace irmc {

enum class HeaderKind : std::uint8_t { kUnicast, kTreeWorm, kPathWorm };

/// Planner-produced route for one multi-drop path worm. steps[i]
/// describes what the worm does at the i-th switch of its path.
struct PathWormRoute {
  struct Step {
    SwitchId sw = kInvalidSwitch;
    /// Hosts to drop copies to at this switch.
    std::vector<NodeId> deliver;
    /// Port to forward through toward the next step; kInvalidPort ends
    /// the worm here.
    PortId forward_port = kInvalidPort;
    /// Header flits still ahead of the data when the worm leaves this
    /// switch (fields are stripped as they are consumed).
    int header_flits_after = 0;
  };
  std::vector<Step> steps;

  /// Number of replication switches (steps that deliver or replicate),
  /// i.e. the number of (node-ID, port-string) field pairs in the
  /// encoded header.
  int NumFields() const {
    int fields = 0;
    for (const Step& st : steps) {
      // A field pair exists for every switch at which the worm
      // replicates (drops copies) and for the final switch.
      if (!st.deliver.empty() || st.forward_port == kInvalidPort) ++fields;
    }
    return fields;
  }
};

/// A recorded hop for route-legality checks (populated only when the
/// fabric is configured with record_routes).
struct HopRecord {
  SwitchId sw;
  PortId out_port;  ///< kInvalidPort for a host delivery
};

/// A packet's route so far, for route-legality checks. Off (no storage)
/// unless the engine records routes. Copying a packet forks its log, so
/// each replica records its own branch of the route.
class HopLog {
 public:
  HopLog() = default;
  HopLog(const HopLog& other)
      : hops_(other.hops_
                  ? std::make_unique<std::vector<HopRecord>>(*other.hops_)
                  : nullptr) {}
  HopLog(HopLog&&) noexcept = default;
  HopLog& operator=(const HopLog& other) {
    if (this != &other) *this = HopLog(other);
    return *this;
  }
  HopLog& operator=(HopLog&&) noexcept = default;

  /// Turns recording on (an empty log) if it is off.
  void Start() {
    if (!hops_) hops_ = std::make_unique<std::vector<HopRecord>>();
  }
  /// Appends a hop when recording; a no-op otherwise.
  void Record(HopRecord hop) {
    if (hops_) hops_->push_back(hop);
  }
  /// The hops so far, or null when recording is off.
  const std::vector<HopRecord>* hops() const { return hops_.get(); }

 private:
  std::unique_ptr<std::vector<HopRecord>> hops_;
};

struct Packet {
  // --- identity / measurement ---
  std::int64_t mcast_id = -1;  ///< which logical multicast this belongs to
  int pkt_index = 0;           ///< index within a multi-packet message
  int num_pkts = 1;
  NodeId src = kInvalidNode;
  Cycles mcast_start = 0;  ///< generation time of the whole multicast

  // --- wire size ---
  int data_flits = 0;
  int header_flits = 0;
  int WireFlits() const { return data_flits + header_flits; }

  // --- routing state ---
  HeaderKind kind = HeaderKind::kUnicast;
  RoutePhase phase = RoutePhase::kUpAllowed;
  NodeId uni_dest = kInvalidNode;            // kUnicast
  NodeSet tree_dests;                        // kTreeWorm: remaining bits
  std::shared_ptr<const PathWormRoute> path; // kPathWorm
  std::size_t path_cursor = 0;               // index into path->steps

  /// Per-branch hop log (route-legality tests only; off in normal runs).
  HopLog hop_log;
};

/// Header sizing used by all planners; kept in one place so benches can
/// reason about encoding cost uniformly. Setting `account = false`
/// zeroes every header (bench/ablD measures the encoding cost this way).
struct HeaderSizing {
  /// Unicast routing tag flits.
  static constexpr int unicast_flits = 2;
  bool account = true;

  int UnicastFlits() const { return account ? unicast_flits : 0; }
  /// Tree worm: ceil(N/8) bit-string flits (plus the unicast-sized tag).
  int TreeWormFlits(int num_nodes) const {
    return account ? unicast_flits + (num_nodes + 7) / 8 : 0;
  }
  /// Path worm: per replication switch, a node-ID field (1 flit for up
  /// to 256 nodes) plus a port bit-string field (ceil(ports/8) flits).
  int PathFieldFlits(int ports_per_switch) const {
    return account ? 1 + (ports_per_switch + 7) / 8 : 0;
  }
};

}  // namespace irmc
