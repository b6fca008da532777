// Cut-through switch fabric (paper Sections 2 and 4.1).
//
// Virtual cut-through at packet-event granularity: a packet holds an
// input-buffer slot at a switch from head arrival until every replica
// branch has fully drained through its output channel; output channels
// serve transmissions in FIFO order and stall (head-of-line) while the
// downstream input buffer is full. With input buffers of at least one
// packet this reproduces cut-through timing exactly, using O(hops)
// events per packet instead of O(flits).
//
// Model constants per the paper: 1 cycle link propagation per flit,
// 1 cycle crossbar traversal, 1 cycle uniform routing/decoding delay for
// all schemes.
#pragma once

#include <cstdint>
#include <deque>
#include <vector>

#include "metrics/metrics.hpp"
#include "network/network_model.hpp"
#include "network/packet.hpp"
#include "sim/engine.hpp"
#include "sim/resource.hpp"
#include "topology/system.hpp"
#include "trace/tracer.hpp"

namespace irmc {

class Fabric final : public NetworkModel {
 public:
  /// `metrics` (optional) receives fabric counters/histograms — see
  /// docs/metrics.md for the catalogue. Registry and tracer are both
  /// per-trial state; neither forces serial trial execution.
  Fabric(Engine& engine, const System& sys, const NetParams& params,
         DeliverFn deliver, Tracer* tracer = nullptr,
         MetricsRegistry* metrics = nullptr);

  void InjectFromNi(NodeId n, PacketPtr pkt, Cycles ready) override;

  int InjectionBacklog(NodeId n) const override;

  std::int64_t TotalBacklog() const override;

  std::int64_t flits_sent() const override { return flits_sent_; }
  std::int64_t packets_switched() const { return packets_switched_; }

  std::vector<LinkLoadReport> LinkReports(Cycles now) const override;

  /// Hop log of a packet (only populated when params.record_routes).
  static const std::vector<HopRecord>* HopsOf(const Packet& pkt);

  /// Folds end-of-run channel state into the registry: per-link busy
  /// cycles, a link-utilization histogram (percent, switch-to-switch
  /// links), the hottest-link gauge, and input-buffer wait high-water.
  /// No-op without a registry. Call once when the trial's run ends.
  void CollectMetrics(Cycles now) override;

  /// Kills both directions of the switch-to-switch link at (sw, port):
  /// queued transmissions drop immediately; the active transmission is
  /// truncated unless its head already cleared the link (VCT packet
  /// atomicity — a packet whose head arrived is committed downstream).
  /// Requires a drop handler when anything can still reach the link.
  void FailLink(SwitchId sw, PortId port) override;

  /// Swaps the routing tables to `sys` (same switches x ports shape).
  /// Channel wiring is structural and unchanged — the dead link's
  /// channels stay dead; packets routed from now on use `sys`'s tables.
  void SwapSystem(const System& sys) override;

 private:
  /// A packet holding an input-buffer slot at a switch until all of its
  /// replica branches have drained. Lives in buffered_, recycled through
  /// free_buffered_ once the last branch releases it.
  struct Buffered {
    int slot_pool = -1;  ///< index into input_slots_
    int pending_branches = 0;
  };

  struct Tx {
    PacketPtr pkt;
    Cycles ready = 0;
    /// Index into buffered_ of the slot to release when this branch
    /// drains; -1 for injections.
    int src_buffer = -1;
    /// Arbitration tie-break: the input port the packet occupies at this
    /// switch (-1 for injections, which never contend). Same-cycle
    /// contenders for one output channel are granted lowest-port-first —
    /// an engine-independent rule the flit engine applies identically,
    /// so cross-engine runs stay cycle-equivalent (docs/engines.md).
    int arb_port = -1;
  };

  struct Channel {
    TimelineResource line;
    std::deque<Tx> queue;
    bool pumping = false;
    int downstream_slot_pool = -1;  ///< index into input_slots_, -1 = none
    bool to_host = false;
    NodeId host = kInvalidNode;
    SwitchId dst_switch = kInvalidSwitch;
    PortId dst_port = kInvalidPort;
    Cycles dead_since = kNever;  ///< FailLink time; kNever = alive
    std::int64_t flits = 0;
    int Load() const {
      return static_cast<int>(queue.size()) + (pumping ? 1 : 0);
    }
  };

  // --- indexing helpers ---
  std::size_t PortIdx(SwitchId s, PortId p) const {
    return static_cast<std::size_t>(s) * static_cast<std::size_t>(ports_) +
           static_cast<std::size_t>(p);
  }
  int OutChannelId(SwitchId s, PortId p) const {
    return static_cast<int>(PortIdx(s, p));
  }
  int InjChannelId(NodeId n) const {
    return static_cast<int>(static_cast<std::size_t>(sys_->num_switches()) *
                                static_cast<std::size_t>(ports_) +
                            static_cast<std::size_t>(n));
  }

  // --- event handlers ---
  void Pump(int channel_id);
  void Pick(int channel_id);
  void StartTx(int channel_id, Tx tx);
  void HeadArrive(SwitchId s, PortId in_port, PacketPtr pkt, Cycles head_time);
  void Route(SwitchId s, PacketPtr pkt, Cycles decision_time, int buf);

  /// Queue a branch/injection on a channel, or drop it on the spot when
  /// the channel is dead.
  void EnqueueTx(int channel_id, Tx tx);
  /// A fresh buffered_ entry holding input slot `slot_pool`.
  int NewBuffered(int slot_pool);
  /// Drains a drained/dropped branch's claim on its source buffer; the
  /// last claim frees the input slot and recycles the entry.
  void ReleaseSrcBuffer(int buf);
  /// Hands a truncated or unroutable (stale-header) packet to the drop
  /// handler, which must exist — without a retransmit layer the payload
  /// would be silently lost.
  void ReportDrop(const PacketPtr& pkt, SwitchId where);

  void Trace(TraceKind kind, const Packet& pkt, std::int32_t actor,
             std::int32_t detail) {
    TraceAt(engine_.Now(), kind, pkt, actor, detail);
  }

  /// Emit at an explicit time (block intervals start at tx.ready, which
  /// predates the emitting event — stream order stays deterministic but
  /// is not time-sorted across kinds).
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
                    std::int32_t* detail) const {
    const int n_out = sys_->num_switches() * ports_;
    if (channel_id < n_out) {
      *actor = channel_id / ports_;
      *detail = channel_id % ports_;
    } else {
      *actor = channel_id - n_out;
      *detail = -1;
    }
  }

  Engine& engine_;
  const System* sys_;  ///< swapped by SwapSystem (Autonet reconfig)
  NetParams params_;
  DeliverFn deliver_;
  Tracer* tracer_;
  MetricsRegistry* metrics_;
  // Hot-path metric slots, resolved once at construction (null = off).
  Counter* m_flits_ = nullptr;          ///< fabric.flits_sent
  Counter* m_switched_ = nullptr;       ///< fabric.packets_switched
  Counter* m_injected_ = nullptr;       ///< fabric.packets_injected
  Counter* m_replications_ = nullptr;   ///< fabric.replications
  Counter* m_host_deliveries_ = nullptr;///< fabric.host_deliveries
  Counter* m_blocked_ = nullptr;        ///< fabric.blocked_cycles
  Histogram* m_fanout_ = nullptr;       ///< fabric.route_fanout
  Histogram* m_header_flits_ = nullptr; ///< fabric.header_flits
  int ports_;

  std::vector<Channel> channels_;           // switch out-channels, then injections
  std::vector<CountingResource> input_slots_;  // [switch*ports + port]
  std::vector<Buffered> buffered_;   // packets holding input slots
  std::vector<int> free_buffered_;   // recycled buffered_ indices
  std::int64_t flits_sent_ = 0;
  std::int64_t packets_switched_ = 0;
};

}  // namespace irmc
