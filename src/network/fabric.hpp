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
//
// Channel wiring, link accounting and metric slots come from the shared
// NetworkModel layer; this engine keeps only its per-channel
// transmission queues, the channel pick, the input-slot credits and the
// packets themselves.
//
// A run's per-channel state is one plain array (lanes_, filled in one
// pass): each channel's transmission queue and, for a channel into a
// switch input, its credits. Every input buffer has exactly one feeder
// (a peer switch's out-channel or an NI's injection channel), and a
// channel grants one transmission at a time, so the buffer's free
// slots are its feeder's credits and at most one granted transmission
// waits for a slot: it is parked on the feeder's lane. Queues and
// parked slots are FIFO lists threaded through one shared node arena
// (txs_, with a free list), so a fresh Fabric allocates nothing per
// channel it touches: the arena holds the transmissions queued at once,
// not the channels used. The running backlog_ counts queued and on-wire
// transmissions over all channels.
//
// Packets live in a slot arena (packets_, recycled through
// free_packets_): a transmission and every event about it carry a
// 32-bit slot id, so a hop copies no packet and touches no reference
// count. A routed packet's first branch reuses its slot. Before a
// packet goes to the deliver callback it is moved out of its slot,
// because the callback may inject and so grow the arena.
//
// Each arena is allocated on its first use at a size taken from the
// System — a packet and a transmission per host, a buffered entry per
// input slot, a branch per switch port — and doubles only beyond that,
// so a single multicast allocates each arena once whatever the
// network's size.
#pragma once

#include <cstdint>
#include <vector>

#include "network/network_model.hpp"
#include "network/route_logic.hpp"

namespace irmc {

class Fabric final : public NetworkModel {
 public:
  /// `metrics` (optional) receives `fabric.*` counters/histograms — see
  /// docs/metrics.md for the catalogue. Registry and tracer are both
  /// per-trial state; neither forces serial trial execution.
  Fabric(Engine& engine, const System& sys, const NetParams& params,
         DeliverFn deliver, Tracer* tracer = nullptr,
         MetricsRegistry* metrics = nullptr);

  int InjectionBacklog(NodeId n) const override;

  int ChannelBacklog(SwitchId sw, PortId port) const override;

  std::int64_t TotalBacklog() const override { return backlog_; }

  std::int64_t packets_switched() const { return packets_switched_; }

 private:
  /// A packet holding an input-buffer slot at a switch until all of its
  /// replica branches have drained. Lives in buffered_, recycled through
  /// free_buffered_ once the last branch releases it.
  struct Buffered {
    int feeder = -1;  ///< the channel whose credit the slot is
    int pending_branches = 0;
  };

  struct Tx {
    std::uint32_t pkt = 0;  ///< slot in packets_
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

  static constexpr std::uint32_t kNoTx = ~std::uint32_t{0};

  /// A transmission in the shared arena, linked into its channel's queue
  /// or parked slot, or the free list, through `next`.
  struct TxNode {
    Tx tx;
    std::uint32_t next = kNoTx;
  };

  /// A FIFO list of txs_ nodes.
  struct TxList {
    std::uint32_t head = kNoTx;
    std::uint32_t tail = kNoTx;
    int size = 0;
  };

  /// A run's state of one channel id (see NetworkModel's channel
  /// layout).
  struct Lane {
    /// The channel's transmissions; one is on the wire while `pumping`.
    TxList queue;
    bool pumping = false;
    /// Channels into a switch input: the free slots of the buffer it
    /// feeds, and the granted transmission waiting for one (a list of at
    /// most one in the shared arena: every driver builds a lane per
    /// channel, so the lane stays small).
    int credits = 0;
    TxList parked;
    int Load() const { return queue.size + (pumping ? 1 : 0); }
  };

  void QueueInjection(NodeId n, Packet&& pkt, Cycles ready) override;
  /// Whether any transmission waited for an input slot
  /// (`fabric.input_buffer_wait_max`).
  void CollectEngineMetrics() override;

  // --- event handlers ---
  void Pump(int channel_id);
  void Pick(int channel_id);
  void StartTx(int channel_id, Tx tx);
  /// The head of `pkt` reaches the switch input `feeder` leads to.
  void HeadArrive(int feeder, std::uint32_t pkt, Cycles head_time);
  void Route(SwitchId s, std::uint32_t pkt, Cycles tail_time, int buf);

  /// A slot holding `pkt`, recycled first.
  std::uint32_t NewPacket(Packet&& pkt);
  /// Moves the packet out of slot `id` and recycles the slot.
  Packet TakePacket(std::uint32_t id);

  /// Queue a branch/injection on a channel.
  void EnqueueTx(int channel_id, Tx tx);
  /// A node holding `tx`, recycled first, appended to `list`.
  void PushTx(TxList& list, const Tx& tx);
  /// Unlinks node `id` (whose predecessor in `list` is `prev`, kNoTx for
  /// the head) and recycles it; returns its transmission.
  Tx UnlinkTx(TxList& list, std::uint32_t prev, std::uint32_t id);
  /// A fresh buffered_ entry holding a slot fed by `feeder`.
  int NewBuffered(int feeder);
  /// Drains a drained branch's claim on its source buffer; the last
  /// claim frees the input slot and recycles the entry.
  void ReleaseSrcBuffer(int buf);
  /// Gives `channel_id` a credit back; its parked transmission, if any,
  /// takes it and starts in an event at this cycle.
  void ReturnCredit(int channel_id);

  Lane& lane(int id) { return lanes_[static_cast<std::size_t>(id)]; }
  const Lane& lane(int id) const {
    return lanes_[static_cast<std::size_t>(id)];
  }

  std::vector<Packet> packets_;              // packets in the fabric
  std::vector<std::uint32_t> free_packets_;  // recycled packets_ slots
  std::vector<Lane> lanes_;  // per channel id (see Lane)
  std::vector<TxNode> txs_;  // every queue's nodes
  std::uint32_t free_txs_ = kNoTx;  // head of the recycled-node list
  std::int64_t backlog_ = 0;        // sum of every queue's Load()
  bool input_waited_ = false;  // a transmission was ever parked
  std::vector<Buffered> buffered_;   // packets holding input slots
  std::vector<int> free_buffered_;   // recycled buffered_ indices
  std::vector<RouteBranch> route_branches_;  // reused by every Route
  std::int64_t packets_switched_ = 0;
};

}  // namespace irmc
