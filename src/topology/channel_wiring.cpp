#include "topology/channel_wiring.hpp"

namespace irmc {

ChannelWiring::ChannelWiring(const Graph& graph)
    : num_out_(graph.num_switches() * graph.ports_per_switch()) {
  const int ports = graph.ports_per_switch();
  ends_.resize(static_cast<std::size_t>(num_out_ + graph.num_hosts()));
  // Switch output channels lead to a peer switch's input port or to a
  // host; free ports stay unwired and are never used.
  for (SwitchId s = 0; s < graph.num_switches(); ++s) {
    for (PortId p = 0; p < ports; ++p) {
      ChannelEnd& end = ends_[static_cast<std::size_t>(s * ports + p)];
      const Port& pt = graph.port(s, p);
      if (pt.kind == PortKind::kSwitch) {
        end.dst_port = pt.peer_switch * ports + pt.peer_port;
        end.switch_link = true;
        ++switch_links_;
      } else if (pt.kind == PortKind::kHost) {
        end.dst_host = pt.host;
      }
    }
  }
  // Injection channels: NI -> the host port's input buffer at the switch.
  for (NodeId n = 0; n < graph.num_hosts(); ++n) {
    const HostAttachment& at = graph.host(n);
    ends_[static_cast<std::size_t>(num_out_ + n)].dst_port =
        at.sw * ports + at.port;
  }
}

}  // namespace irmc
