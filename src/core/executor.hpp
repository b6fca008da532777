// Multicast execution: plays McastPlans on the fabric with the host/NI
// software-overhead model (paper Sections 3.1-3.2, 4.1).
//
// Per-node serially-reusable resources:
//   host CPU — o_host per message sent or received at the host level
//   NI CPU   — o_ni per message at the NI, plus the per-copy forwarding
//              cost at a smart NI
//   I/O bus  — DMA between host memory and NI, shared by sends and
//              receives (the paper's I/O-bus contention)
//
// Scheme behaviours:
//   uni-binomial — every hop is a full conventional send/receive.
//   ni-kbinomial — smart NI: on each packet arrival the NI immediately
//     enqueues replicas for the node's children (FPFS: packet j to every
//     child before packet j+1) while DMA-ing to the host in parallel.
//   tree-worm    — source performs one conventional send per packet; the
//     switches replicate; every destination does a conventional receive.
//   path-worm    — the source (and later, covered destinations) perform
//     one conventional send per planned worm; multi-phase behaviour
//     emerges from receivers forwarding after full message receipt.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "core/config.hpp"
#include "mcast/scheme.hpp"
#include "metrics/metrics.hpp"
#include "network/network_model.hpp"
#include "sim/engine.hpp"
#include "sim/resource.hpp"
#include "topology/system.hpp"
#include "trace/tracer.hpp"

namespace irmc {

struct MulticastResult {
  std::int64_t id = -1;
  Cycles start = 0;
  Cycles completion = 0;  ///< last destination's host-level delivery
  int num_dests = 0;
  /// (destination, host-level delivery time) pairs, completion order.
  std::vector<std::pair<NodeId, Cycles>> deliveries;

  Cycles Latency() const { return completion - start; }
};

/// Owns the network engine (whichever SimConfig::engine selects), the
/// per-node resources, and all in-flight multicasts.
class McastDriver {
 public:
  using DoneFn = std::function<void(const MulticastResult&)>;
  /// Per-destination notification: (destination, host delivery time).
  using DeliveredFn = std::function<void(NodeId, Cycles)>;

  /// `metrics` (optional, also handed to the owned engine) receives the
  /// host/NI/I-O overhead accounting and per-multicast metrics — see
  /// docs/metrics.md. Both the registry and the tracer are per-trial
  /// state (each Trial owns its own), so neither forces serial trial
  /// execution.
  McastDriver(Engine& engine, const System& sys, const SimConfig& cfg,
              Tracer* tracer = nullptr, MetricsRegistry* metrics = nullptr);

  McastDriver(const McastDriver&) = delete;
  McastDriver& operator=(const McastDriver&) = delete;

  /// Start a multicast at absolute time `when`; `done` fires at the last
  /// destination's delivery, `delivered` (optional) at every
  /// destination's delivery. Returns the multicast id.
  std::int64_t Launch(McastPlan plan, Cycles when, DoneFn done,
                      DeliveredFn delivered = nullptr);

  NetworkModel& network() { return *network_; }
  int live_multicasts() const { return live_; }

 private:
  /// A node's serially reused host CPU, NI CPU and I/O bus.
  struct NodeRuntime {
    TimelineResource host_cpu;
    TimelineResource ni_cpu;
    TimelineResource io_bus;
  };
  /// A node's receive progress within one multicast.
  struct NodeState {
    int pkts = 0;
    bool delivered = false;
    Cycles last_dma = 0;
  };
  /// One live multicast, in the pool. Retiring drops its plan and
  /// callbacks; reuse sets every other field again, and its vectors keep
  /// their capacity.
  struct Exec {
    std::int64_t id = -1;  ///< -1 while retired
    McastPlan plan;
    MessageShape shape;  ///< plan override or the driver's default
    Cycles start = 0;
    DoneFn done;
    DeliveredFn delivered;
    int remaining = 0;
    /// Indexed by NodeId; sized at launch.
    std::vector<NodeState> nstate;
    MulticastResult result;
    Exec* next_free = nullptr;  ///< its free list, while retired
  };

  NodeRuntime& node(NodeId n) {
    return nodes_[static_cast<std::size_t>(n)];
  }

  /// A live multicast starting at `start`, a retired Exec reused first.
  Exec& NewExec(McastPlan&& plan, MessageShape shape, Cycles start);
  /// A retired Exec whose delivery list has room for `dests` (the
  /// smallest such), else the roomiest retired one, else a new one.
  Exec& TakeExec(std::size_t dests);
  /// The live Exec with id `id`, or nullptr once it has retired.
  /// Requires a prior Launch (which sizes the index).
  Exec* Find(std::int64_t id) {
    Exec* exec = index_[static_cast<std::size_t>(id) & (index_.size() - 1)];
    return exec != nullptr && exec->id == id ? exec : nullptr;
  }
  /// Files a new live Exec in the index, doubling the index while its
  /// cell holds another live id.
  void Index(Exec& exec);
  /// Returns a live Exec to the pool, releasing its plan and callbacks.
  void Retire(Exec& exec);
  void StartSource(const Exec& exec);
  void OnDeliver(NodeId n, const Packet& pkt, Cycles head, Cycles tail);
  void HandlePacketAt(Exec& exec, NodeId n, const Packet& pkt, Cycles head,
                      Cycles tail);
  void HandleDelivered(std::int64_t id, NodeId n, Cycles when);

  /// One message-level send at u, no earlier than `earliest`
  /// (docs/MODEL.md §2): o_host on u's host CPU, then o_ni on its NI,
  /// then one I/O-bus DMA per packet. `emit(j, ready)` hands packet j to
  /// the NI at max(NI done, DMA done). `detail` tags the send-start
  /// trace event.
  template <class Emit>
  void SendMessage(const Exec& exec, NodeId u, Cycles earliest,
                   std::int32_t detail, Emit emit);
  /// The smart NI at u enqueues one copy of packet j per planned child,
  /// one ni_forward_overhead each, from `ready` on.
  void ForwardAtNi(const Exec& exec, NodeId u, int j, Cycles ready);
  /// A unicast message to every planned child of u, sequential at the
  /// host CPU; returns the number sent.
  int SendToChildren(const Exec& exec, NodeId u, Cycles earliest);
  /// Every path worm `sender` sends in exec's plan, in plan order, one
  /// message each; returns the number sent.
  int SendWormsOf(const Exec& exec, NodeId sender, Cycles earliest);

  Packet MakePacket(const Exec& exec, int j, HeaderKind kind,
                    int header_flits) const;

  void TraceHost(TraceKind kind, std::int64_t mcast_id, NodeId actor,
                 std::int32_t detail) {
    if (tracer_)
      tracer_->Record(
          TraceEvent{engine_.Now(), kind, mcast_id, 0, actor, detail});
  }

  /// Hot-path metric slots bound at construction from static name
  /// tables (executor.cpp); `has` false (no registry) skips all
  /// recording.
  struct DriverMetrics {
    bool has = false;
    Counter* launched = nullptr;         ///< mcast.launched
    Counter* completed = nullptr;        ///< mcast.completed
    Histogram* latency = nullptr;        ///< mcast.latency
    Histogram* dests = nullptr;          ///< mcast.dests
    Counter* worms = nullptr;            ///< mcast.worms
    Counter* forward_phases = nullptr;   ///< mcast.forward_phases
    Counter* host_cycles = nullptr;      ///< host.cycles
    Counter* host_sends = nullptr;       ///< host.sends
    Counter* ni_cycles = nullptr;        ///< ni.cycles
    Counter* ni_forward_copies = nullptr;///< ni.forward_copies
    Counter* io_dma_cycles = nullptr;    ///< io.dma_cycles
    Counter* io_dma_transfers = nullptr; ///< io.dma_transfers
  };

  Engine& engine_;
  const System& sys_;
  SimConfig cfg_;
  Tracer* tracer_;
  DriverMetrics m_;
  std::vector<NodeRuntime> nodes_;
  std::unique_ptr<NetworkModel> network_;
  /// Every Exec made so far (as many as were ever live at once), each in
  /// its own allocation, so an Exec keeps its address while the pool
  /// grows: a done callback may Launch.
  std::vector<std::unique_ptr<Exec>> pool_;
  /// Retired Execs, in lists linked through next_free: list k > 0 holds
  /// those whose delivery list has room for 2^k to 2^(k+1) - 1, list 0
  /// the rest (an original reserves its destination count rounded up to
  /// a power of two). Taking from the smallest list that fits lets a
  /// warm driver launch without growing a delivery list, and without
  /// reserving a delivery per node for every multicast.
  std::array<Exec*, 32> free_{};
  /// Live Execs at [id % size]; the size, a power of two, doubles when
  /// two live ids share a cell, so it follows the span of live ids.
  /// Empty until the first Launch.
  std::vector<Exec*> index_;
  int live_ = 0;
  std::int64_t next_id_ = 0;
};

}  // namespace irmc
