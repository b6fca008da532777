// Packets and worm headers (paper Sections 3.2.3 / 3.2.4).
//
// One Packet object is one worm on the wire. A routing step names, per
// branch, the output port and the header fields that replica carries
// (route_logic.hpp), and the engine writes them over a packet: the VCT
// engine over the arriving packet for the first branch and over one
// copy for each further one, the flit engine over each branch's copy.
// The header kind selects the routing behaviour in the fabric:
//
//  * kUnicast — routed by destination node through the up*/down* tables.
//  * kTreeWorm — N-bit destination string; travels up until the
//    remaining set is down-coverable, then replicates downward along
//    partitioned reachability strings.
//  * kPathWorm — multi-drop path worm; follows a planner-supplied range
//    of route steps, dropping copies to host ports at designated
//    switches and forwarding through at most one switch port per switch.
//
// A Packet is a plain value with one owner at a time: the NI that builds
// it hands it to InjectFromNi, and from then on the network engine that
// carries it keeps it in its own slots (docs/engines.md). A replica is a
// copy: the headers live inline (a tree worm's destination string up to
// 256 nodes, see common/nodeset.hpp), so copying allocates nothing
// unless the run records hops. A path worm's route is not copied either:
// every copy holds a plain pointer to the routes of its plan, which the
// multicast's driver keeps in place from launch until the multicast
// retires, after its last delivery (the network is lossless, so no
// packet outlives its multicast), plus a cursor into them.
//
// Wire length = data flits + remaining header flits, so header encoding
// costs are physically accounted (§3.3 of the paper discusses them only
// qualitatively; bench/ablD quantifies them).
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/nodeset.hpp"
#include "common/types.hpp"
#include "topology/routing_table.hpp"

namespace irmc {

enum class HeaderKind : std::uint8_t { kUnicast, kTreeWorm, kPathWorm };

/// Planner-produced routes of a plan's multi-drop path worms, flat:
/// every worm's switches in one array of steps and every step's host
/// drops in another. A worm is a range of steps, ended by the step that
/// forwards nowhere; a step's drops are a range of `drops`, and the
/// steps of a plan list their drops in order.
struct PathRoutes {
  struct Step {
    SwitchId sw = kInvalidSwitch;
    /// Port to forward through toward the next step; kInvalidPort ends
    /// the worm here.
    PortId forward_port = kInvalidPort;
    /// Header flits still ahead of the data when the worm leaves this
    /// switch (fields are stripped as they are consumed).
    int header_flits_after = 0;
    /// The hosts to drop copies to at this switch: drops[drop_begin,
    /// drop_end).
    int drop_begin = 0;
    int drop_end = 0;
  };
  std::vector<Step> steps;
  std::vector<NodeId> drops;

  std::span<const NodeId> Drops(const Step& st) const {
    return {drops.data() + st.drop_begin,
            static_cast<std::size_t>(st.drop_end - st.drop_begin)};
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
  const PathRoutes* path = nullptr;          // kPathWorm: its plan's routes
  int path_cursor = 0;                       // kPathWorm: index into path->steps

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
