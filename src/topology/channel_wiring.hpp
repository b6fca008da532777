// The network's unidirectional channels and where each one leads,
// derived once from a Graph.
//
// Channel ids: switch out-channels in (switch, port) order — id
// s * ports + p is switch s's port p, and the same index names that
// port's input buffer — then one injection channel per host (its NI
// into the host port of its switch). Every System builds its wiring
// once, and every engine run on that System reads it, so building a
// network costs no per-port loop.
#pragma once

#include <cstddef>
#include <vector>

#include "common/types.hpp"
#include "topology/graph.hpp"

namespace irmc {

/// Where one channel leads.
struct ChannelEnd {
  /// Downstream input port (switch * ports + port); -1 for a host sink
  /// or a free port.
  int dst_port = -1;
  NodeId dst_host = kInvalidNode;  ///< host sink of a switch host port
  /// A wired switch-to-switch out-channel: the links the utilization
  /// metrics cover (hosts, injections and free ports excluded).
  bool switch_link = false;
};

class ChannelWiring {
 public:
  explicit ChannelWiring(const Graph& graph);

  const ChannelEnd& operator[](int channel) const {
    return ends_[static_cast<std::size_t>(channel)];
  }
  /// Out-channels plus injection channels.
  std::size_t num_channels() const { return ends_.size(); }
  /// Switch out-channels (switches x ports); host n's injection
  /// channel is num_out() + n.
  int num_out() const { return num_out_; }
  /// Channels with switch_link set.
  int switch_links() const { return switch_links_; }

 private:
  std::vector<ChannelEnd> ends_;
  int num_out_ = 0;
  int switch_links_ = 0;
};

}  // namespace irmc
