#include "network/fabric.hpp"

#include <algorithm>

#include "network/route_logic.hpp"

namespace irmc {

Fabric::Fabric(Engine& engine, const System& sys, const NetParams& params,
               DeliverFn deliver, Tracer* tracer, MetricsRegistry* metrics)
    : engine_(engine),
      sys_(&sys),
      params_(params),
      deliver_(std::move(deliver)),
      tracer_(tracer),
      metrics_(metrics),
      ports_(sys.graph.ports_per_switch()) {
  IRMC_EXPECT(deliver_ != nullptr);
  IRMC_EXPECT(params_.input_slots >= 1);
  if (metrics_) {
    m_flits_ = &metrics_->GetCounter("fabric.flits_sent");
    m_switched_ = &metrics_->GetCounter("fabric.packets_switched");
    m_injected_ = &metrics_->GetCounter("fabric.packets_injected");
    m_replications_ = &metrics_->GetCounter("fabric.replications");
    m_host_deliveries_ = &metrics_->GetCounter("fabric.host_deliveries");
    m_blocked_ = &metrics_->GetCounter("fabric.blocked_cycles");
    m_fanout_ = &metrics_->GetHistogram("fabric.route_fanout");
    m_header_flits_ = &metrics_->GetHistogram("fabric.header_flits");
  }
  const auto num_port_slots = static_cast<std::size_t>(sys.num_switches()) *
                              static_cast<std::size_t>(ports_);
  channels_.resize(num_port_slots +
                   static_cast<std::size_t>(sys.num_nodes()));
  input_slots_.reserve(num_port_slots);
  for (std::size_t i = 0; i < num_port_slots; ++i)
    input_slots_.emplace_back(params_.input_slots);

  // Wire the switch output channels.
  for (SwitchId s = 0; s < sys.num_switches(); ++s) {
    for (PortId p = 0; p < ports_; ++p) {
      Channel& c = channels_[static_cast<std::size_t>(OutChannelId(s, p))];
      const Port& pt = sys.graph.port(s, p);
      switch (pt.kind) {
        case PortKind::kSwitch:
          c.dst_switch = pt.peer_switch;
          c.dst_port = pt.peer_port;
          c.downstream_slot_pool =
              static_cast<int>(PortIdx(pt.peer_switch, pt.peer_port));
          break;
        case PortKind::kHost:
          c.to_host = true;
          c.host = pt.host;
          break;
        case PortKind::kFree:
          break;  // never used
      }
    }
  }

  // Injection channels: NI -> the host port's input buffer at the switch.
  for (NodeId n = 0; n < sys.num_nodes(); ++n) {
    Channel& c = channels_[static_cast<std::size_t>(InjChannelId(n))];
    const HostAttachment& at = sys.graph.host(n);
    c.dst_switch = at.sw;
    c.dst_port = at.port;
    c.downstream_slot_pool = static_cast<int>(PortIdx(at.sw, at.port));
  }
}

void Fabric::InjectFromNi(NodeId n, PacketPtr pkt, Cycles ready) {
  IRMC_EXPECT(pkt != nullptr);
  IRMC_EXPECT(pkt->WireFlits() > 0);
  if (params_.record_routes && !pkt->hop_log)
    pkt->hop_log = std::make_shared<std::vector<HopRecord>>();
  Trace(TraceKind::kInject, *pkt, n, -1);
  if (m_injected_) {
    m_injected_->Add();
    m_header_flits_->Add(pkt->header_flits);
  }
  const int cid = InjChannelId(n);
  EnqueueTx(cid, Tx{std::move(pkt), ready});
}

int Fabric::InjectionBacklog(NodeId n) const {
  return channels_[static_cast<std::size_t>(InjChannelId(n))].Load();
}

std::int64_t Fabric::TotalBacklog() const {
  std::int64_t total = 0;
  for (const Channel& c : channels_) total += c.Load();
  return total;
}

const std::vector<HopRecord>* Fabric::HopsOf(const Packet& pkt) {
  return pkt.hop_log.get();
}

std::vector<LinkLoadReport> Fabric::LinkReports(Cycles now) const {
  std::vector<LinkLoadReport> out;
  const double elapsed = now > 0 ? static_cast<double>(now) : 1.0;
  for (SwitchId s = 0; s < sys_->num_switches(); ++s) {
    for (PortId p = 0; p < ports_; ++p) {
      const Port& pt = sys_->graph.port(s, p);
      if (pt.kind == PortKind::kFree) continue;
      const Channel& c =
          channels_[static_cast<std::size_t>(OutChannelId(s, p))];
      LinkLoadReport r;
      r.sw = s;
      r.port = p;
      r.to_host = c.to_host;
      r.node = c.host;
      r.flits = c.flits;
      r.utilization =
          static_cast<double>(c.line.busy_total()) / elapsed;
      out.push_back(r);
    }
  }
  for (NodeId n = 0; n < sys_->num_nodes(); ++n) {
    const Channel& c = channels_[static_cast<std::size_t>(InjChannelId(n))];
    LinkLoadReport r;
    r.node = n;
    r.flits = c.flits;
    r.utilization = static_cast<double>(c.line.busy_total()) / elapsed;
    out.push_back(r);
  }
  return out;
}

void Fabric::CollectMetrics(Cycles now) {
  if (!metrics_) return;
  Counter& busy = metrics_->GetCounter("fabric.link_busy_cycles");
  Histogram& util = metrics_->GetHistogram("fabric.link_utilization_pct");
  Gauge& hottest =
      metrics_->GetGauge("fabric.max_link_utilization", GaugeMode::kMax);
  double best = 0.0;
  for (const Channel& c : channels_) busy.Add(c.line.busy_total());
  for (const LinkLoadReport& r : LinkReports(now)) {
    if (r.sw == kInvalidSwitch || r.to_host) continue;  // switch-switch only
    util.Add(static_cast<std::int64_t>(100.0 * r.utilization));
    best = std::max(best, r.utilization);
  }
  hottest.Set(best);
  std::int64_t max_wait = 0;
  for (const CountingResource& pool : input_slots_)
    max_wait = std::max(max_wait, pool.max_queue());
  metrics_->GetGauge("fabric.input_buffer_wait_max", GaugeMode::kMax)
      .Set(static_cast<double>(max_wait));
}

void Fabric::EnqueueTx(int channel_id, Tx tx) {
  Channel& c = channels_[static_cast<std::size_t>(channel_id)];
  if (c.dead_since != kNever) {
    // The link died before this branch could even queue (a pre-swap
    // route still naming the dead port).
    ReportDrop(tx.pkt, static_cast<SwitchId>(channel_id / ports_));
    ReleaseSrcBuffer(tx.src_buffer);
    return;
  }
  c.queue.push_back(std::move(tx));
  Pump(channel_id);
}

int Fabric::NewBuffered(int slot_pool) {
  int buf;
  if (free_buffered_.empty()) {
    buf = static_cast<int>(buffered_.size());
    buffered_.emplace_back();
  } else {
    buf = free_buffered_.back();
    free_buffered_.pop_back();
  }
  buffered_[static_cast<std::size_t>(buf)] = Buffered{slot_pool, 0};
  return buf;
}

void Fabric::ReleaseSrcBuffer(int buf) {
  if (buf < 0) return;
  Buffered& b = buffered_[static_cast<std::size_t>(buf)];
  if (--b.pending_branches > 0) return;
  const int pool = b.slot_pool;
  free_buffered_.push_back(buf);
  input_slots_[static_cast<std::size_t>(pool)].Release(engine_);
}

void Fabric::ReportDrop(const PacketPtr& pkt, SwitchId where) {
  IRMC_ENSURE(drop_ != nullptr &&
              "packet truncated or unroutable but no drop handler is "
              "installed");
  drop_(pkt, engine_.Now(), where);
}

void Fabric::FailLink(SwitchId sw, PortId port) {
  const Port& pt = sys_->graph.port(sw, port);
  IRMC_EXPECT(pt.kind == PortKind::kSwitch);
  const Cycles now = engine_.Now();
  const int fwd = OutChannelId(sw, port);
  const int rev = OutChannelId(pt.peer_switch, pt.peer_port);
  for (int cid : {fwd, rev}) {
    Channel& c = channels_[static_cast<std::size_t>(cid)];
    if (c.dead_since != kNever) continue;
    c.dead_since = now;
    std::deque<Tx> doomed;
    doomed.swap(c.queue);
    for (Tx& t : doomed) {
      ReportDrop(t.pkt, static_cast<SwitchId>(cid / ports_));
      ReleaseSrcBuffer(t.src_buffer);
    }
  }
}

void Fabric::SwapSystem(const System& sys) {
  IRMC_EXPECT(sys.num_switches() == sys_->num_switches());
  IRMC_EXPECT(sys.graph.ports_per_switch() == ports_);
  IRMC_EXPECT(sys.num_nodes() == sys_->num_nodes());
  sys_ = &sys;
}

void Fabric::Pump(int channel_id) {
  // Defer the grant decision to the earliest cycle a queued transmission
  // becomes ready. Same-cycle contenders are all queued by then (their
  // routes ran in the previous cycle), so Pick sees the full field and
  // arbitration does not depend on event-scheduling order. For a lone
  // transmission the timing is unchanged: StartTx reserves the line at
  // max(now, ready) either way.
  Channel& c = channels_[static_cast<std::size_t>(channel_id)];
  if (c.pumping || c.queue.empty()) return;
  // Injection channels are strict FIFO (the NI hands packets over in
  // send order; a future-ready head blocks the queue), so the pick waits
  // for the front. On switch channels ready order equals queue order
  // except for same-cycle ties, so aiming at the minimum is the same
  // thing minus the head-of-line wait.
  Cycles target = c.queue.front().ready;
  if (channel_id < sys_->num_switches() * ports_)
    for (const Tx& t : c.queue) target = std::min(target, t.ready);
  target = std::max(engine_.Now(), target);
  engine_.ScheduleAt(target, [this, channel_id]() { Pick(channel_id); });
}

void Fabric::Pick(int channel_id) {
  Channel& c = channels_[static_cast<std::size_t>(channel_id)];
  if (c.dead_since != kNever) return;  // FailLink drained the queue
  if (c.pumping || c.queue.empty()) return;  // a rival pick already won
  const Cycles now = engine_.Now();
  std::size_t best = c.queue.size();
  if (channel_id >= sys_->num_switches() * ports_) {
    if (c.queue.front().ready <= now) best = 0;  // injection: FIFO
  } else {
    // Grant the transmission that has been ready longest; break
    // same-cycle ties by input port — an engine-independent rule the
    // flit engine applies identically (strictly-less keeps queue order
    // for full ties).
    for (std::size_t i = 0; i < c.queue.size(); ++i) {
      const Tx& t = c.queue[i];
      if (t.ready > now) continue;
      if (best == c.queue.size() || t.ready < c.queue[best].ready ||
          (t.ready == c.queue[best].ready &&
           t.arb_port < c.queue[best].arb_port))
        best = i;
    }
  }
  if (best == c.queue.size()) {
    Pump(channel_id);  // everything ready in the future; re-aim the pick
    return;
  }
  c.pumping = true;
  Tx tx = std::move(c.queue[best]);
  c.queue.erase(c.queue.begin() + static_cast<std::ptrdiff_t>(best));
  if (c.downstream_slot_pool >= 0) {
    auto& pool = input_slots_[static_cast<std::size_t>(c.downstream_slot_pool)];
    pool.Acquire(engine_, [this, channel_id, tx = std::move(tx)]() mutable {
      StartTx(channel_id, std::move(tx));
    });
  } else {
    StartTx(channel_id, std::move(tx));
  }
}

void Fabric::StartTx(int channel_id, Tx tx) {
  Channel& c = channels_[static_cast<std::size_t>(channel_id)];
  if (c.dead_since != kNever) {
    // The link died while this transmission waited for a downstream
    // slot (Pick's Acquire); give the just-granted slot back.
    c.pumping = false;
    if (c.downstream_slot_pool >= 0)
      input_slots_[static_cast<std::size_t>(c.downstream_slot_pool)].Release(
          engine_);
    ReportDrop(tx.pkt, static_cast<SwitchId>(channel_id / ports_));
    ReleaseSrcBuffer(tx.src_buffer);
    return;
  }
  const int len = tx.pkt->WireFlits();
  const Cycles earliest = std::max(engine_.Now(), tx.ready);
  const Cycles start = c.line.Reserve(earliest, len);
  if (m_flits_) {
    m_flits_->Add(len);
    // Cycles from packet-ready to wire start: channel queueing plus
    // downstream input-slot waits (the line itself is reserved only
    // after the pump serialises access, so start == earliest here).
    m_blocked_->Add(start - tx.ready);
  }
  if (tracer_ && start > tx.ready) {
    // The same ready-to-start wait as fabric.blocked_cycles, charged to
    // the channel that held the worm; the matched pair durations sum
    // exactly to that counter on the same run.
    std::int32_t actor = -1;
    std::int32_t port = -1;
    ChannelActor(channel_id, &actor, &port);
    TraceAt(tx.ready, TraceKind::kBlockBegin, *tx.pkt, actor, port);
    TraceAt(start, TraceKind::kBlockEnd, *tx.pkt, actor, port);
  }
  const Cycles head_arrive = start + params_.link_delay;
  const Cycles tail_arrive = start + len - 1 + params_.link_delay;
  const Cycles tail_leave = start + len;
  flits_sent_ += len;
  c.flits += len;

  // Tail leaves: channel free, branch drained from the source buffer.
  engine_.ScheduleAt(tail_leave, [this, channel_id, buf = tx.src_buffer]() {
    Channel& ch = channels_[static_cast<std::size_t>(channel_id)];
    ch.pumping = false;
    ReleaseSrcBuffer(buf);
    Pump(channel_id);
  });

  if (c.to_host) {
    if (m_host_deliveries_) m_host_deliveries_->Add();
    engine_.ScheduleAt(
        tail_arrive,
        [this, host = c.host, pkt = tx.pkt, head_arrive, tail_arrive]() {
          Trace(TraceKind::kNiDeliver, *pkt, host, -1);
          deliver_(host, pkt, head_arrive, tail_arrive);
        });
  } else {
    engine_.ScheduleAt(head_arrive, [this, channel_id, sw = c.dst_switch,
                                     in_port = c.dst_port, pkt = tx.pkt,
                                     head_arrive]() {
      Channel& ch = channels_[static_cast<std::size_t>(channel_id)];
      if (ch.dead_since != kNever && ch.dead_since <= head_arrive) {
        // The link died under the worm before its head crossed:
        // truncated. The downstream input slot acquired at Pick goes
        // back; the source side frees at tail_leave as usual.
        if (ch.downstream_slot_pool >= 0)
          input_slots_[static_cast<std::size_t>(ch.downstream_slot_pool)]
              .Release(engine_);
        ReportDrop(pkt, static_cast<SwitchId>(channel_id / ports_));
        return;
      }
      HeadArrive(sw, in_port, pkt, head_arrive);
    });
  }
}

void Fabric::HeadArrive(SwitchId s, PortId in_port, PacketPtr pkt,
                        Cycles head_time) {
  ++packets_switched_;
  if (m_switched_) m_switched_->Add();
  Trace(TraceKind::kHeadArrive, *pkt, s, in_port);
  const int buf = NewBuffered(static_cast<int>(PortIdx(s, in_port)));
  const Cycles tail_time = head_time + pkt->WireFlits() - 1;
  engine_.ScheduleAt(head_time + params_.route_delay,
                     [this, s, pkt = std::move(pkt), buf, tail_time]() {
                       Route(s, pkt, tail_time, buf);
                     });
}

void Fabric::Route(SwitchId s, PacketPtr pkt, Cycles tail_time, int buf) {
  std::vector<RouteBranch> branches;
  const PortLoadFn load = [this](SwitchId sw, PortId p) {
    return channels_[static_cast<std::size_t>(OutChannelId(sw, p))].Load();
  };
  Buffered& held = buffered_[static_cast<std::size_t>(buf)];
  const int pool = held.slot_pool;
  const auto free_buffer_at_tail = [this, tail_time, buf, pool]() {
    // No branch claims the entry: recycle it now, the slot at the tail.
    free_buffered_.push_back(buf);
    const Cycles when = std::max(engine_.Now(), tail_time);
    engine_.ScheduleAt(when, [this, pool]() {
      input_slots_[static_cast<std::size_t>(pool)].Release(engine_);
    });
  };
  if (!TryComputeRouteBranches(*sys_, s, pkt, params_.adaptive, load,
                               branches)) {
    // Stale header under swapped tables: consume the worm here and let
    // the retransmit layer repair the loss (ReportDrop aborts when no
    // drop handler is installed).
    ReportDrop(pkt, s);
    free_buffer_at_tail();
    return;
  }
  if (branches.empty()) {
    // Fully consumed here (possible only for degenerate plans); free the
    // buffer once the tail has arrived.
    free_buffer_at_tail();
    return;
  }
  held.pending_branches = static_cast<int>(branches.size());
  if (m_fanout_) {
    m_fanout_->Add(static_cast<std::int64_t>(branches.size()));
    m_replications_->Add(static_cast<std::int64_t>(branches.size()) - 1);
  }
  Trace(TraceKind::kRoute, *pkt, s, static_cast<std::int32_t>(branches.size()));
  const Cycles ready = engine_.Now() + params_.xbar_delay;
  const int in_port = pool % ports_;
  for (RouteBranch& b : branches) {
    Trace(TraceKind::kBranch, *b.pkt, s, static_cast<std::int32_t>(b.port));
    const int cid = OutChannelId(s, b.port);
    EnqueueTx(cid, Tx{std::move(b.pkt), ready, buf, in_port});
  }
}

}  // namespace irmc
