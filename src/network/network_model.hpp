// NetworkModel: the channel layer every network engine shares.
//
// The repository carries two engines for the same switch fabric physics:
//
//  * Fabric (fabric.hpp) — packet-granular virtual cut-through. O(hops)
//    events per packet; exact when input buffers hold at least one
//    packet. The default, and the engine behind every paper figure.
//  * FlitEngine (flit_engine.hpp) — flit-by-flit wormhole simulation
//    with finite per-port buffers and credit backpressure; the only
//    engine that can express true wormhole blocking when buffers are
//    smaller than a packet. A branch that can neither stall nor starve
//    streams in closed form (O(worm events)), and one stalled on a held
//    output port parks until the port frees; the rest — grants, credit
//    stalls, small-buffer wormhole runs — are stepped per cycle
//    (O(flits) for those branches only).
//
// Everything the two do identically is implemented once, here: the
// channel table (switch out-channels in (switch, port) order, then one
// injection channel per NI), per-channel flit counts, link reports and
// the link-metric fold, the hot-path metric slots bound from the
// engine's static name tables, and the injection preamble. Where each
// channel leads is the System's ChannelWiring, built once per System and
// shared by every run on it; a run's own channel state is one plain
// array. An engine supplies only its transport physics: how an
// injection queues, what its backlog is (a running count), and its own
// end-of-run metrics.
//
// The network is lossless: every injected packet is delivered, and a
// packet that cannot be routed aborts the run.
//
// A run pays for the channels it uses, not for the network's size:
// CountFlits lists a channel the first time it carries flits, and the
// link fold and MaxLinkUtilization walk only that list (every other
// switch link carried nothing, so it adds a zero to the utilization
// histogram in one bulk add).
//
// Both co-simulate with the shared `sim` event kernel: injections carry
// a `ready` cycle (data present at the NI), deliveries fire the caller's
// callback with exact head/tail arrival cycles, and the host/NI
// `TimelineResource` timing of core/executor interleaves correctly with
// either engine. See docs/engines.md for the full contract and when
// each engine is valid.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "metrics/metrics.hpp"
#include "network/packet.hpp"
#include "sim/engine.hpp"
#include "topology/system.hpp"
#include "trace/tracer.hpp"

namespace irmc {

/// Per-channel load summary (switch output channels and injections).
struct LinkLoadReport {
  SwitchId sw = kInvalidSwitch;  ///< owning switch; kInvalidSwitch for an
                                 ///< injection channel
  PortId port = kInvalidPort;
  NodeId node = kInvalidNode;  ///< set for injections and host ejections
  bool to_host = false;
  std::int64_t flits = 0;
  double utilization = 0.0;  ///< busy cycles / elapsed cycles
};

struct NetParams {
  Cycles link_delay = 1;   ///< per-flit wire propagation
  Cycles route_delay = 1;  ///< header decode + route decision
  Cycles xbar_delay = 1;   ///< input buffer -> output port
  int input_slots = 1;     ///< input buffer capacity in packets (VCT)
  /// Flit engine per-port input buffer capacity, in flits. For
  /// VCT-equivalence (and, for multidestination worms, deadlock
  /// freedom — an unabsorbed worm couples its tree branches through the
  /// shared buffer, a dependency up*/down* does not order) this must be
  /// at least one full worm *including header flits*, i.e. strictly
  /// more than the 128-flit data payload. The default leaves headroom
  /// above the default packet plus the largest default-config header.
  int buffer_flits = 256;
  bool adaptive = true;    ///< pick least-loaded candidate port
  bool record_routes = false;  ///< per-packet hop logs (tests/examples)
  /// Flit engine only: a worm continuously blocked on one channel for
  /// more than this many cycles trips the deadlock check (the failure
  /// names the stuck worms and the ports they block on).
  Cycles deadlock_horizon = 1'000'000;
};

/// Which engine a SimConfig selects (CLI `--engine vct|flit`).
enum class EngineKind : std::uint8_t { kVct, kFlit };

const char* ToString(EngineKind kind);
/// Parses "vct"/"flit"; leaves `out` untouched and returns false
/// otherwise.
bool EngineKindFromString(const std::string& name, EngineKind* out);

/// Abstract network engine over the shared channel layer.
/// Implementations are injected with a deliver callback at construction
/// and schedule all activity on the shared event kernel, so host/NI
/// resources and the network advance on one timeline.
class NetworkModel {
 public:
  /// deliver(node, packet, head_arrive, tail_arrive) fires when a packet
  /// finishes arriving at a node's network interface. The packet belongs
  /// to the engine: the reference is valid for the duration of the call
  /// only (copy what must outlive it). The callback may inject.
  using DeliverFn =
      std::function<void(NodeId, const Packet&, Cycles, Cycles)>;

  virtual ~NetworkModel() = default;

  NetworkModel(const NetworkModel&) = delete;
  NetworkModel& operator=(const NetworkModel&) = delete;

  /// Queue a packet for injection from node n's NI into its switch. The
  /// transmission begins once the injection channel is free, downstream
  /// buffer space permits, and `ready` has passed (data present at the
  /// NI). The engine owns the packet from here on.
  void InjectFromNi(NodeId n, Packet pkt, Cycles ready);

  /// Packets queued or in flight on node n's injection channel.
  virtual int InjectionBacklog(NodeId n) const = 0;

  /// Packets queued or in flight on the out-channel of switch `sw`'s
  /// port `port`.
  virtual int ChannelBacklog(SwitchId sw, PortId port) const = 0;

  /// Total packets currently queued on all channels (saturation metric):
  /// the sum of every ChannelBacklog and InjectionBacklog, kept as a
  /// running count, so reading it is O(1).
  virtual std::int64_t TotalBacklog() const = 0;

  /// Total flits that entered any channel (per-hop accounting).
  std::int64_t flits_sent() const;

  /// Load report for every wired channel, as of time `now`. Switch
  /// output channels first (in (switch, port) order), then injections.
  /// A channel is busy one cycle per flit it carries, on either engine.
  std::vector<LinkLoadReport> LinkReports(Cycles now) const;

  /// Highest switch-to-switch link utilization (hot-spot metric). Walks
  /// only the channels that carried flits.
  double MaxLinkUtilization(Cycles now) const;

  /// Folds end-of-run channel state into the metrics registry (no-op
  /// without one): `<prefix>.link_busy_cycles`, the
  /// `<prefix>.link_utilization_pct` histogram over switch-to-switch
  /// links, the `<prefix>.max_link_utilization` gauge, then the
  /// engine's own series. Call once when the run ends. Walks only the
  /// channels that carried flits, and allocates nothing once the
  /// registry has bound these names.
  void CollectMetrics(Cycles now);

  /// Hop log of a packet (only populated when params.record_routes).
  static const std::vector<HopRecord>* HopsOf(const Packet& pkt) {
    return pkt.hop_log.hops();
  }

  /// An engine's metric family, named in full in static tables, so
  /// binding them builds no string.
  struct MetricFamily {
    /// Bound at construction, in this order: the per-flit counter, then
    /// packets_switched, packets_injected, replications,
    /// host_deliveries, blocked_cycles (counters) and route_fanout,
    /// header_flits (histograms).
    std::array<MetricSpec, 8> hot;
    /// Bound by CollectMetrics, in this order: link_busy_cycles
    /// (counter), link_utilization_pct (histogram),
    /// max_link_utilization (max gauge).
    std::array<MetricSpec, 3> fold;
  };

 protected:
  /// A run's state of one unidirectional channel (a switch output
  /// port's link, or an NI's injection link into its switch); where it
  /// leads is wire(channel_id). Engines keep their own per-channel
  /// transport state in a parallel array indexed the same way.
  struct Channel {
    std::int64_t flits = 0;  ///< one busy cycle per flit carried
    /// Next channel in the list of channels that carried flits (-1
    /// ends it); meaningful once `flits` is non-zero.
    int next_touched = -1;
  };

  /// `family` (static storage) names the engine's metrics. `metrics`
  /// and `tracer` are optional per-trial sinks; neither forces serial
  /// trial execution.
  NetworkModel(Engine& engine, const System& sys, const NetParams& params,
               DeliverFn deliver, Tracer* tracer, MetricsRegistry* metrics,
               const MetricFamily& family);

  /// Queues a packet the preamble of InjectFromNi has already traced
  /// and counted.
  virtual void QueueInjection(NodeId n, Packet&& pkt, Cycles ready) = 0;
  /// Folds the engine's own end-of-run series (metrics_ is non-null).
  virtual void CollectEngineMetrics() = 0;
  /// Flits that entered `channel_id` but are not in its count yet (an
  /// engine that settles flit counts lazily); the readers add them.
  virtual std::int64_t UnsettledFlits(int /*channel_id*/) const { return 0; }

  // --- channel layout ---
  /// Input-port index of (s, p); also the id of the out-channel (s, p).
  int PortIdx(SwitchId s, PortId p) const { return s * ports_ + p; }
  int InjChannel(NodeId n) const { return num_out_ + n; }
  bool IsInjection(int channel_id) const { return channel_id >= num_out_; }
  SwitchId SwitchOfPort(int port_index) const {
    return static_cast<SwitchId>(port_index / ports_);
  }
  Channel& channel(int channel_id) {
    return channels_[static_cast<std::size_t>(channel_id)];
  }
  const Channel& channel(int channel_id) const {
    return channels_[static_cast<std::size_t>(channel_id)];
  }
  /// Where a channel leads, as the System the engine was built on
  /// wired it.
  const ChannelEnd& wire(int channel_id) const {
    return sys_.wiring[channel_id];
  }
  std::size_t num_channels() const { return channels_.size(); }
  /// Switch ports: each is one input port and one out-channel.
  std::size_t num_ports() const { return static_cast<std::size_t>(num_out_); }

  /// Accounts `n` (> 0) flits entering `channel_id`, listing the
  /// channel for the link fold the first time. This is the only way a
  /// channel gains flits.
  void CountFlits(int channel_id, int n) {
    Channel& c = channel(channel_id);
    if (c.flits == 0) {
      c.next_touched = touched_;
      touched_ = channel_id;
    }
    c.flits += n;
    if (m_flits_) m_flits_->Add(n);
  }

  void Trace(TraceKind kind, const Packet& pkt, std::int32_t actor,
             std::int32_t detail) {
    TraceAt(engine_.Now(), kind, pkt, actor, detail);
  }
  /// Emit at an explicit time (block intervals start before the
  /// emitting event — stream order stays deterministic but is not
  /// time-sorted across kinds).
  void TraceAt(Cycles time, TraceKind kind, const Packet& pkt,
               std::int32_t actor, std::int32_t detail) {
    if (tracer_)
      tracer_->Record(
          TraceEvent{time, kind, pkt.mcast_id, pkt.pkt_index, actor, detail});
  }
  /// Channel id -> the BlockSource convention of trace/analysis: switch
  /// output channels report (switch, port); injection channels report
  /// (node, -1).
  void ChannelActor(int channel_id, std::int32_t* actor,
                    std::int32_t* detail) const;

  Engine& engine_;
  const System& sys_;
  NetParams params_;
  DeliverFn deliver_;
  Tracer* tracer_;
  MetricsRegistry* metrics_;
  int ports_;

  // Hot-path metric slots, bound at construction (null = off).
  Counter* m_flits_ = nullptr;          ///< <prefix>.flits_sent / _moved
  Counter* m_switched_ = nullptr;       ///< <prefix>.packets_switched
  Counter* m_injected_ = nullptr;       ///< <prefix>.packets_injected
  Counter* m_replications_ = nullptr;   ///< <prefix>.replications
  Counter* m_host_deliveries_ = nullptr;///< <prefix>.host_deliveries
  Counter* m_blocked_ = nullptr;        ///< <prefix>.blocked_cycles
  Histogram* m_fanout_ = nullptr;       ///< <prefix>.route_fanout
  Histogram* m_header_flits_ = nullptr; ///< <prefix>.header_flits

 private:
  /// Flits that entered the channel so far, settled or not.
  std::int64_t ChannelFlits(int channel_id) const {
    return channel(channel_id).flits + UnsettledFlits(channel_id);
  }
  /// A channel's busy cycles (one per flit) over the `now` elapsed
  /// cycles (over 1 at time 0).
  static double Utilization(std::int64_t flits, Cycles now);

  const MetricFamily* family_;
  int num_out_;  ///< switch out-channels (switches*ports)
  /// Head of the list of channels that carried flits, chained through
  /// Channel::next_touched in first-use order (-1: none yet).
  int touched_ = -1;
  std::vector<Channel> channels_;  ///< out-channels, then injections
};

/// Constructs the engine selected by `kind` on the shared event kernel.
/// This is the only place outside src/network that needs to know the
/// concrete engine types.
std::unique_ptr<NetworkModel> MakeNetworkModel(
    EngineKind kind, Engine& engine, const System& sys,
    const NetParams& params, NetworkModel::DeliverFn deliver,
    Tracer* tracer = nullptr, MetricsRegistry* metrics = nullptr);

}  // namespace irmc
