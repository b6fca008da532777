#include "network/fabric.hpp"

#include <algorithm>
#include <utility>

namespace irmc {
namespace {

constexpr NetworkModel::MetricFamily kFabricMetrics{
    {{{MetricKind::kCounter, "fabric.flits_sent"},
      {MetricKind::kCounter, "fabric.packets_switched"},
      {MetricKind::kCounter, "fabric.packets_injected"},
      {MetricKind::kCounter, "fabric.replications"},
      {MetricKind::kCounter, "fabric.host_deliveries"},
      {MetricKind::kCounter, "fabric.blocked_cycles"},
      {MetricKind::kHistogram, "fabric.route_fanout"},
      {MetricKind::kHistogram, "fabric.header_flits"}}},
    {{{MetricKind::kCounter, "fabric.link_busy_cycles"},
      {MetricKind::kHistogram, "fabric.link_utilization_pct"},
      {MetricKind::kGauge, "fabric.max_link_utilization", GaugeMode::kMax}}},
};

/// The Fabric's own end-of-run series.
constexpr MetricSpec kFabricSeries[] = {
    {MetricKind::kGauge, "fabric.input_buffer_wait_max", GaugeMode::kMax},
};

/// Gives an arena that has no storage yet its first allocation, of `n`
/// elements.
template <class T>
void ReserveFirst(std::vector<T>& arena, std::size_t n) {
  if (arena.capacity() == 0) arena.reserve(n);
}

}  // namespace

Fabric::Fabric(Engine& engine, const System& sys, const NetParams& params,
               DeliverFn deliver, Tracer* tracer, MetricsRegistry* metrics)
    : NetworkModel(engine, sys, params, std::move(deliver), tracer, metrics,
                   kFabricMetrics),
      lanes_(num_channels(), Lane{{}, false, params.input_slots, {}}),
      load_([this](SwitchId sw, PortId p) {
        return lane(PortIdx(sw, p)).Load();
      }) {
  IRMC_EXPECT(params_.input_slots >= 1);
}

void Fabric::QueueInjection(NodeId n, Packet&& pkt, Cycles ready) {
  EnqueueTx(InjChannel(n), Tx{NewPacket(std::move(pkt)), ready});
}

std::uint32_t Fabric::NewPacket(Packet&& pkt) {
  if (free_packets_.empty()) {
    IRMC_EXPECT(packets_.size() < ~std::uint32_t{0});
    // A packet per host in flight at once.
    const auto hosts = static_cast<std::size_t>(sys_.num_nodes());
    ReserveFirst(packets_, hosts);
    ReserveFirst(free_packets_, hosts);
    packets_.push_back(std::move(pkt));
    return static_cast<std::uint32_t>(packets_.size() - 1);
  }
  const std::uint32_t id = free_packets_.back();
  free_packets_.pop_back();
  packets_[id] = std::move(pkt);
  return id;
}

std::uint32_t Fabric::CopyPacket(std::uint32_t from) {
  if (free_packets_.empty()) {
    IRMC_EXPECT(packets_.size() < ~std::uint32_t{0});
    packets_.push_back(packets_[from]);  // safe if the arena regrows
    return static_cast<std::uint32_t>(packets_.size() - 1);
  }
  const std::uint32_t id = free_packets_.back();
  free_packets_.pop_back();
  packets_[id] = packets_[from];
  return id;
}

Packet Fabric::TakePacket(std::uint32_t id) {
  free_packets_.push_back(id);
  return std::move(packets_[id]);
}

int Fabric::InjectionBacklog(NodeId n) const {
  return lane(InjChannel(n)).Load();
}

int Fabric::ChannelBacklog(SwitchId sw, PortId port) const {
  return lane(PortIdx(sw, port)).Load();
}

void Fabric::CollectEngineMetrics() {
  metrics_->Bind(kFabricSeries).gauge(0).Set(input_waited_ ? 1.0 : 0.0);
}

void Fabric::EnqueueTx(int channel_id, Tx tx) {
  PushTx(lane(channel_id).queue, tx);
  ++backlog_;
  Pump(channel_id);
}

void Fabric::PushTx(TxList& list, const Tx& tx) {
  std::uint32_t id = free_txs_;
  if (id != kNoTx) {
    // Field by field: assigning a TxNode temporary makes the copy reload
    // `tx`'s tail and `next` as one word just stored as two.
    TxNode& node = txs_[id];
    free_txs_ = node.next;
    node.tx = tx;
    node.next = kNoTx;
  } else {
    IRMC_EXPECT(txs_.size() < kNoTx);
    // A transmission per host queued at once.
    ReserveFirst(txs_, static_cast<std::size_t>(sys_.num_nodes()));
    id = static_cast<std::uint32_t>(txs_.size());
    txs_.push_back(TxNode{tx});
  }
  if (list.tail != kNoTx)
    txs_[list.tail].next = id;
  else
    list.head = id;
  list.tail = id;
  ++list.size;
}

Fabric::Tx Fabric::UnlinkTx(TxList& list, std::uint32_t prev,
                            std::uint32_t id) {
  TxNode& node = txs_[id];
  const Tx out = node.tx;
  if (prev != kNoTx)
    txs_[prev].next = node.next;
  else
    list.head = node.next;
  if (list.tail == id) list.tail = prev;
  --list.size;
  node.next = free_txs_;
  free_txs_ = id;
  return out;
}

int Fabric::NewBuffered(int feeder) {
  int buf;
  if (free_buffered_.empty()) {
    // An entry holds an input slot, so the slots bound the entries.
    const std::size_t slots =
        num_ports() * static_cast<std::size_t>(params_.input_slots);
    ReserveFirst(buffered_, slots);
    ReserveFirst(free_buffered_, slots);
    buf = static_cast<int>(buffered_.size());
    buffered_.emplace_back();
  } else {
    buf = free_buffered_.back();
    free_buffered_.pop_back();
  }
  buffered_[static_cast<std::size_t>(buf)] = Buffered{feeder, 0};
  return buf;
}

void Fabric::ReleaseSrcBuffer(int buf) {
  if (buf < 0) return;
  Buffered& b = buffered_[static_cast<std::size_t>(buf)];
  if (--b.pending_branches > 0) return;
  free_buffered_.push_back(buf);
  ReturnCredit(b.feeder);
}

void Fabric::ReturnCredit(int channel_id) {
  Lane& c = lane(channel_id);
  if (c.parked.head == kNoTx) {
    ++c.credits;
    return;
  }
  const Tx tx = UnlinkTx(c.parked, kNoTx, c.parked.head);
  engine_.ScheduleAfter(
      0, [this, channel_id, tx]() { StartTx(channel_id, tx); });
}

void Fabric::Pump(int channel_id) {
  // Defer the grant decision to the earliest cycle a queued transmission
  // becomes ready. Same-cycle contenders are all queued by then (their
  // routes ran in the previous cycle), so Pick sees the full field and
  // arbitration does not depend on event-scheduling order. For a lone
  // transmission the timing is unchanged: StartTx starts the wire at
  // max(now, ready) either way.
  const Lane& c = lane(channel_id);
  if (c.pumping || c.queue.head == kNoTx) return;
  // Injection channels are strict FIFO (the NI hands packets over in
  // send order; a future-ready head blocks the queue), so the pick waits
  // for the front. On switch channels ready order equals queue order
  // except for same-cycle ties, so aiming at the minimum is the same
  // thing minus the head-of-line wait.
  Cycles target = txs_[c.queue.head].tx.ready;
  if (!IsInjection(channel_id))
    for (std::uint32_t i = txs_[c.queue.head].next; i != kNoTx;
         i = txs_[i].next)
      target = std::min(target, txs_[i].tx.ready);
  target = std::max(engine_.Now(), target);
  engine_.ScheduleAt(target, [this, channel_id]() { Pick(channel_id); });
}

void Fabric::Pick(int channel_id) {
  Lane& c = lane(channel_id);
  if (c.pumping || c.queue.head == kNoTx) return;  // a rival pick won
  const Cycles now = engine_.Now();
  std::uint32_t best = kNoTx;
  std::uint32_t best_prev = kNoTx;
  if (IsInjection(channel_id)) {
    if (txs_[c.queue.head].tx.ready <= now)
      best = c.queue.head;  // injection: FIFO
  } else {
    // Grant the transmission that has been ready longest; break
    // same-cycle ties by input port — an engine-independent rule the
    // flit engine applies identically (strictly-less keeps queue order
    // for full ties).
    for (std::uint32_t i = c.queue.head, prev = kNoTx; i != kNoTx;
         prev = i, i = txs_[i].next) {
      const Tx& t = txs_[i].tx;
      if (t.ready > now) continue;
      if (best == kNoTx || t.ready < txs_[best].tx.ready ||
          (t.ready == txs_[best].tx.ready &&
           t.arb_port < txs_[best].tx.arb_port)) {
        best = i;
        best_prev = prev;
      }
    }
  }
  if (best == kNoTx) {
    Pump(channel_id);  // everything ready in the future; re-aim the pick
    return;
  }
  // The grant moves the transmission from the queue to the wire: Load()
  // and the backlog are unchanged.
  c.pumping = true;
  const Tx tx = UnlinkTx(c.queue, best_prev, best);
  if (wire(channel_id).dst_port < 0) {
    StartTx(channel_id, tx);  // a host takes every packet
  } else if (c.credits > 0) {
    --c.credits;
    engine_.ScheduleAfter(
        0, [this, channel_id, tx]() { StartTx(channel_id, tx); });
  } else {
    PushTx(c.parked, tx);  // until the buffer it feeds frees a slot
    input_waited_ = true;
  }
}

void Fabric::StartTx(int channel_id, Tx tx) {
  // The pump serialises the channel, so the wire is free by the time a
  // transmission is granted: it starts as soon as it is ready.
  const Packet& pkt = packets_[tx.pkt];
  const int len = pkt.WireFlits();
  const Cycles start = std::max(engine_.Now(), tx.ready);
  CountFlits(channel_id, len);
  // Cycles from packet-ready to wire start: channel queueing plus
  // downstream input-slot waits.
  if (m_blocked_) m_blocked_->Add(start - tx.ready);
  if (tracer_ && start > tx.ready) {
    // The same ready-to-start wait as fabric.blocked_cycles, charged to
    // the channel that held the worm; the matched pair durations sum
    // exactly to that counter on the same run.
    std::int32_t actor = -1;
    std::int32_t port = -1;
    ChannelActor(channel_id, &actor, &port);
    TraceAt(tx.ready, TraceKind::kBlockBegin, pkt, actor, port);
    TraceAt(start, TraceKind::kBlockEnd, pkt, actor, port);
  }
  const Cycles head_arrive = start + params_.link_delay;
  const Cycles tail_arrive = start + len - 1 + params_.link_delay;
  const Cycles tail_leave = start + len;

  // Tail leaves: channel free, branch drained from the source buffer.
  engine_.ScheduleAt(tail_leave, [this, channel_id, buf = tx.src_buffer]() {
    lane(channel_id).pumping = false;
    --backlog_;
    ReleaseSrcBuffer(buf);
    Pump(channel_id);
  });

  const ChannelEnd& end = wire(channel_id);
  if (end.dst_host != kInvalidNode) {
    if (m_host_deliveries_) m_host_deliveries_->Add();
    engine_.ScheduleAt(
        tail_arrive,
        [this, host = end.dst_host, id = tx.pkt, head_arrive, tail_arrive]() {
          const Packet delivered = TakePacket(id);
          Trace(TraceKind::kNiDeliver, delivered, host, -1);
          deliver_(host, delivered, head_arrive, tail_arrive);
        });
  } else {
    engine_.ScheduleAt(head_arrive, [this, channel_id, id = tx.pkt,
                                     head_arrive]() {
      HeadArrive(channel_id, id, head_arrive);
    });
  }
}

void Fabric::HeadArrive(int feeder, std::uint32_t pkt, Cycles head_time) {
  const int in = wire(feeder).dst_port;
  const SwitchId s = SwitchOfPort(in);
  ++packets_switched_;
  if (m_switched_) m_switched_->Add();
  Trace(TraceKind::kHeadArrive, packets_[pkt], s, in % ports_);
  const int buf = NewBuffered(feeder);
  const Cycles tail_time = head_time + packets_[pkt].WireFlits() - 1;
  engine_.ScheduleAt(head_time + params_.route_delay,
                     [this, s, pkt, buf, tail_time]() {
                       Route(s, pkt, tail_time, buf);
                     });
}

void Fabric::Route(SwitchId s, std::uint32_t pkt, Cycles tail_time, int buf) {
  std::vector<RouteBranch>& branches = route_branches_;
  branches.clear();
  // A decision lists at most one branch per port.
  ReserveFirst(branches, static_cast<std::size_t>(ports_));
  Buffered& held = buffered_[static_cast<std::size_t>(buf)];
  const int feeder = held.feeder;
  ComputeRouteBranches(sys_, s, packets_[pkt], params_.adaptive, load_,
                       branches);
  if (branches.empty()) {
    // Fully consumed here (possible only for degenerate plans): no branch
    // claims the entry, so recycle it now and return the credit once the
    // tail has arrived.
    TakePacket(pkt);
    free_buffered_.push_back(buf);
    const Cycles when = std::max(engine_.Now(), tail_time);
    engine_.ScheduleAt(when, [this, feeder]() { ReturnCredit(feeder); });
    return;
  }
  held.pending_branches = static_cast<int>(branches.size());
  if (m_fanout_) {
    m_fanout_->Add(static_cast<std::int64_t>(branches.size()));
    m_replications_->Add(static_cast<std::int64_t>(branches.size()) - 1);
  }
  Trace(TraceKind::kRoute, packets_[pkt], s,
        static_cast<std::int32_t>(branches.size()));
  const Cycles ready = engine_.Now() + params_.xbar_delay;
  const int in_port = wire(feeder).dst_port % ports_;
  for (std::size_t i = 0; i < branches.size(); ++i) {
    RouteBranch& b = branches[i];
    Trace(TraceKind::kBranch, packets_[pkt], s,
          static_cast<std::int32_t>(b.port));
    // The first branch keeps the arriving packet's slot; each further one
    // is a copy of it, still unedited, in a fresh slot.
    std::uint32_t id = pkt;
    if (i > 0) {
      id = CopyPacket(pkt);
      ApplyBranch(s, b, packets_[id]);
    }
    EnqueueTx(PortIdx(s, b.port), Tx{id, ready, buf, in_port});
  }
  // The first branch's edits go over the arriving packet last, once the
  // copies are made. Queueing reads no packet (a grant is a later event),
  // so its transmission is already queued.
  ApplyBranch(s, branches.front(), packets_[pkt]);
}

}  // namespace irmc
