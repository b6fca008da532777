#include "network/flit_engine.hpp"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <string>
#include <utility>

#include "common/expect.hpp"

namespace irmc {
namespace {

void SetBit(std::vector<std::uint64_t>& set, std::size_t i) {
  set[i / 64] |= std::uint64_t{1} << (i % 64);
}

void ClearBit(std::vector<std::uint64_t>& set, std::size_t i) {
  set[i / 64] &= ~(std::uint64_t{1} << (i % 64));
}

/// Calls visit(i) for every set bit in ascending i. Each word is read
/// once, so a visit may clear its own bit; bits set by a visit in the
/// current word are not seen until the next walk.
template <typename Visit>
void ForEachBit(const std::vector<std::uint64_t>& set, Visit visit) {
  for (std::size_t w = 0; w < set.size(); ++w)
    for (std::uint64_t bits = set[w]; bits != 0; bits &= bits - 1)
      visit(w * 64 + static_cast<std::size_t>(std::countr_zero(bits)));
}

constexpr NetworkModel::MetricFamily kFlitMetrics{
    {{{MetricKind::kCounter, "flit.flits_moved"},
      {MetricKind::kCounter, "flit.packets_switched"},
      {MetricKind::kCounter, "flit.packets_injected"},
      {MetricKind::kCounter, "flit.replications"},
      {MetricKind::kCounter, "flit.host_deliveries"},
      {MetricKind::kCounter, "flit.blocked_cycles"},
      {MetricKind::kHistogram, "flit.route_fanout"},
      {MetricKind::kHistogram, "flit.header_flits"}}},
    {{{MetricKind::kCounter, "flit.link_busy_cycles"},
      {MetricKind::kHistogram, "flit.link_utilization_pct"},
      {MetricKind::kGauge, "flit.max_link_utilization", GaugeMode::kMax}}},
};

/// The flit engine's own end-of-run series.
constexpr MetricSpec kFlitSeries[] = {
    {MetricKind::kCounter, "flit.cycles_run"},
    {MetricKind::kCounter, "flit.deliveries"},
    {MetricKind::kGauge, "flit.max_buffer_occupancy", GaugeMode::kMax},
};

}  // namespace

FlitEngine::FlitEngine(Engine& engine, const System& sys,
                       const NetParams& params, DeliverFn deliver,
                       Tracer* tracer, MetricsRegistry* metrics)
    : NetworkModel(engine, sys, params, std::move(deliver), tracer, metrics,
                   kFlitMetrics),
      arbs_(num_channels()),
      ni_queues_(static_cast<std::size_t>(sys.num_nodes())),
      resident_(num_ports(), -1) {
  IRMC_EXPECT(params_.buffer_flits >= 1);
  IRMC_EXPECT(params_.deadlock_horizon >= 1);
  step_channels_.assign((arbs_.size() + 63) / 64, 0);
  ready_nis_.assign((ni_queues_.size() + 63) / 64, 0);
}

void FlitEngine::QueueInjection(NodeId n, Packet&& pkt, Cycles ready) {
  int id = free_queued_;
  if (id != -1) {
    free_queued_ = queued_[static_cast<std::size_t>(id)].next;
    queued_[static_cast<std::size_t>(id)] = Queued{std::move(pkt), ready};
  } else {
    // First use: a queued packet per NI.
    if (queued_.capacity() == 0) queued_.reserve(ni_queues_.size());
    id = static_cast<int>(queued_.size());
    queued_.push_back(Queued{std::move(pkt), ready});
  }
  NiQueue& q = ni_queues_[static_cast<std::size_t>(n)];
  if (q.tail != -1)
    queued_[static_cast<std::size_t>(q.tail)].next = id;
  else
    q.head = id;
  q.tail = id;
  ++q.size;
  ++backlog_;
  // A new head packet behind an idle injection channel: the NI becomes
  // ready at `ready` (PumpInjections moves it to ready_nis_ then).
  if (q.size == 1 &&
      arbs_[static_cast<std::size_t>(InjChannel(n))].Load() == 0) {
    ready_heap_.emplace(ready, n);
    next_due_ = std::min(next_due_, ready);
  }
  ScheduleTick(ready);
}

std::int64_t FlitEngine::UnsettledFlits(int channel_id) const {
  const int active = arbs_[static_cast<std::size_t>(channel_id)].active_branch;
  if (active == -1) return 0;
  const BranchState& b = branches_[static_cast<std::size_t>(active)];
  return b.streaming ? Sent(b, moved_through_) - b.consumed : 0;
}

int FlitEngine::InjectionBacklog(NodeId n) const {
  return ni_queues_[static_cast<std::size_t>(n)].size +
         arbs_[static_cast<std::size_t>(InjChannel(n))].Load();
}

int FlitEngine::ChannelBacklog(SwitchId sw, PortId port) const {
  return arbs_[static_cast<std::size_t>(PortIdx(sw, port))].Load();
}

void FlitEngine::CollectEngineMetrics() {
  SettleAll();
  const MetricSlots slots = metrics_->Bind(kFlitSeries);
  slots.counter(0).Add(ticks_);
  slots.counter(1).Add(deliveries_);
  slots.gauge(2).Set(static_cast<double>(max_occupancy_));
}

// ---------------------------------------------------------------------------
// Event-driven stepping. Each active cycle is one kernel event; the
// engine reschedules itself while any worm, flit, or ready injection
// remains, and goes quiet otherwise (a later injection re-arms it).
// ---------------------------------------------------------------------------

void FlitEngine::ScheduleTick(Cycles when) {
  const Cycles t =
      std::max(std::max(engine_.Now(), when), last_processed_ + 1);
  engine_.ScheduleAt(t, [this]() { Tick(); });
}

void FlitEngine::Tick() {
  if (frozen_) return;  // deadlock handler fired: stay wedged, stay quiet
  const Cycles now = engine_.Now();
  if (now <= last_processed_) return;  // duplicate wake-up for a done cycle
  last_processed_ = now;
  ++ticks_;
  if (now >= next_due_) {
    ReleasePorts();
    LandFlits(now);
    PumpInjections(now);
    RouteWorms(now);
    MoveFlits(now);
    next_due_ = NextDue(now);
  }
  if (!frozen_) moved_through_ = now;
  if (Busy()) ScheduleTick(now + 1);
}

bool FlitEngine::Busy() const {
  // A streaming branch keeps its channel busy, and once its tail is sent
  // the tail is on the wire: flits in flight without an entry in
  // in_flight_ never outlive both. NIs in ready_nis_ are ready now;
  // future-ready ones do not count, since their InjectFromNi scheduled
  // a wake-up at `ready` already.
  return !in_flight_.empty() || !pending_port_release_.empty() ||
         !route_queue_.empty() || busy_channels_ > 0 || ready_count_ > 0;
}

Cycles FlitEngine::NextDue(Cycles now) const {
  // Each phase's work, as the phase itself tests for it.
  if (!pending_port_release_.empty() || ready_count_ > 0 ||
      std::any_of(step_channels_.begin(), step_channels_.end(),
                  [](std::uint64_t word) { return word != 0; }))
    return now + 1;
  Cycles due = trip_due_;
  if (!in_flight_.empty()) due = std::min(due, in_flight_.front().lands);
  if (!ready_heap_.empty()) due = std::min(due, ready_heap_.top().first);
  if (!route_queue_.empty()) due = std::min(due, route_queue_.front().second);
  if (!tails_due_.empty()) due = std::min(due, tails_due_.top().first);
  return due;
}

// --- activity bookkeeping ---

void FlitEngine::Enqueue(std::size_t ci, int bid) {
  Arbiter& c = arbs_[ci];
  if (c.Load() == 0) ++busy_channels_;
  branches_[static_cast<std::size_t>(bid)].next_waiting = -1;
  if (c.last_waiting != -1)
    branches_[static_cast<std::size_t>(c.last_waiting)].next_waiting = bid;
  else
    c.first_waiting = bid;
  c.last_waiting = bid;
  ++c.waiting;
  ++backlog_;
  // Behind a streaming or parked branch the grant waits for its tail
  // visit.
  if (c.active_branch == -1 ||
      branches_[static_cast<std::size_t>(c.active_branch)].stepped())
    SetBit(step_channels_, ci);
}

void FlitEngine::Unwait(Arbiter& c, int prev, int bid) {
  const int next = branches_[static_cast<std::size_t>(bid)].next_waiting;
  if (prev != -1)
    branches_[static_cast<std::size_t>(prev)].next_waiting = next;
  else
    c.first_waiting = next;
  if (c.last_waiting == bid) c.last_waiting = prev;
  --c.waiting;
}

void FlitEngine::SetReady(std::size_t n) {
  SetBit(ready_nis_, n);
  ++ready_count_;
}

// --- streaming ---

void FlitEngine::TryStream(int bid, Cycles now) {
  BranchState& b = branches_[static_cast<std::size_t>(bid)];
  if (b.consumed >= b.len - 1) return;  // only the tail is left
  // Credit: a buffer that holds the whole branch can never fill.
  if (wire(b.channel).dst_port >= 0 && params_.buffer_flits < b.len) return;
  // Flit availability: flit k is sent at phase + k - 1 and needs flit k
  // landed in the source buffer, which a streaming feeder with phase
  // f lands by f + k - 1 + link_delay.
  const Cycles phase = now - b.consumed + 1;
  const Worm& src = worms_[static_cast<std::size_t>(b.src_worm)];
  if (src.received < src.len &&
      (src.feed == -1 ||
       phase - branches_[static_cast<std::size_t>(src.feed)].phase <
           params_.link_delay))
    return;
  // A visit counted the head on this channel before the branch could
  // stream, so its unsettled flits sit on a channel the link fold walks.
  IRMC_ENSURE(channel(b.channel).flits > 0);
  b.streaming = true;
  b.phase = phase;
  b.land_first = now + 1 + params_.link_delay;
  if (b.dst_worm != -1) {
    Worm& dst = worms_[static_cast<std::size_t>(b.dst_worm)];
    Sync(dst, now + 1, now);
    dst.feed = bid;
  }
  tails_due_.emplace(phase + b.len - 1, b.channel);
}

void FlitEngine::Materialize(BranchState& b, Cycles t) {
  const int sent = Sent(b, t);
  if (sent <= b.consumed) return;
  CountFlits(b.channel, sent - b.consumed);
  b.consumed = sent;
}

int FlitEngine::FreedAfter(const Worm& w, Cycles v) const {
  // The freed-flit rule of MoveChannel (min consumed over live
  // branches) as of the end of cycle v. Stepped branches hold their
  // counts between their visits; a cycle with no streaming mover leaves
  // `freed` alone.
  int min_consumed = w.len;
  bool moved = false;
  for (int bid : w.branch_ids) {
    const BranchState& b = branches_[static_cast<std::size_t>(bid)];
    if (b.done) continue;
    if (b.streaming) {
      moved = true;
      min_consumed = std::min(min_consumed, Sent(b, v));
    } else {
      min_consumed = std::min(min_consumed, b.consumed);
    }
  }
  return moved ? std::max(w.freed, min_consumed) : w.freed;
}

void FlitEngine::Sync(Worm& w, Cycles land_to, Cycles move_to) {
  if (w.feed != -1) {
    // One streamed flit lands per cycle from first to last. received
    // gains one a cycle and freed at most one, so the occupancy seen at
    // each landing never falls: its high-water is the last landing's.
    const BranchState& f = branches_[static_cast<std::size_t>(w.feed)];
    const Cycles first = std::max(w.land_sync, f.land_first);
    const Cycles last =
        std::min(land_to - 1, f.phase + f.len - 2 + params_.link_delay);
    if (first <= last) {
      const int freed =
          last - 1 >= w.move_sync ? FreedAfter(w, last - 1) : w.freed;
      w.received += static_cast<int>(last - first + 1);
      max_occupancy_ = std::max(
          max_occupancy_, static_cast<std::int64_t>(w.received - freed));
    }
  }
  w.land_sync = std::max(w.land_sync, land_to);
  if (move_to > w.move_sync) {
    w.freed = FreedAfter(w, move_to - 1);
    w.move_sync = move_to;
  }
}

void FlitEngine::SettleAll() {
  if (frozen_) return;  // DeadlockTrip settled everything already
  const Cycles next = moved_through_ + 1;
  for (Worm& w : worms_)
    if (w.pins > 0) Sync(w, next, next);
  for (BranchState& b : branches_) {
    if (b.streaming)
      Materialize(b, moved_through_);
    else if (b.parked)
      SettleStall(b, moved_through_);
  }
}

void FlitEngine::SettleStall(BranchState& b, Cycles t) {
  const Cycles owed = t - (b.stall_begin + b.stall_len - 1);
  if (owed <= 0) return;
  b.stall_len += owed;
  if (m_blocked_) m_blocked_->Add(owed);
}

void FlitEngine::WakeTrips(Cycles now) {
  trip_due_ = kNever;
  for (const BranchState& b : branches_) {
    if (!b.parked) continue;
    const Cycles trip = b.stall_begin + params_.deadlock_horizon;
    if (trip <= now)
      SetBit(step_channels_, static_cast<std::size_t>(b.channel));
    else
      trip_due_ = std::min(trip_due_, trip);
  }
}

// --- slot recycling ---

void FlitEngine::ReserveSlots() {
  const std::size_t slots = num_channels();
  worms_.reserve(slots);
  worm_pkts_.reserve(slots);
  free_worms_.reserve(slots);
  branches_.reserve(slots);
  branch_pkts_.reserve(slots);
  free_branches_.reserve(slots);
}

int FlitEngine::NewWorm() {
  if (free_worms_.empty()) {
    if (worms_.capacity() == 0) ReserveSlots();
    // A worm has at most one branch per output port; the slot keeps this
    // capacity for every later worm, so routing never regrows it.
    worms_.emplace_back().branch_ids.reserve(static_cast<std::size_t>(ports_));
    worm_pkts_.emplace_back();
    return static_cast<int>(worms_.size()) - 1;
  }
  const int wi = free_worms_.back();
  free_worms_.pop_back();
  return wi;
}

int FlitEngine::NewBranch(int wi, BranchState b) {
  int bid = static_cast<int>(branches_.size());
  if (free_branches_.empty()) {
    branches_.push_back(std::move(b));
    branch_pkts_.emplace_back();
  } else {
    bid = free_branches_.back();
    free_branches_.pop_back();
    branches_[static_cast<std::size_t>(bid)] = std::move(b);
  }
  Worm& w = worms_[static_cast<std::size_t>(wi)];
  w.branch_ids.push_back(bid);
  ++w.pins;
  return bid;
}

void FlitEngine::Unpin(int wi) {
  Worm& w = worms_[static_cast<std::size_t>(wi)];
  IRMC_ENSURE(w.pins > 0);
  if (--w.pins > 0) return;
  // Nothing refers to the worm or its branches any more: every branch is
  // off its channel with no flit on the wire, and the worm is neither
  // queued for routing nor resident in a port. Free slots read as done,
  // which is all a later walk over branches_ checks. Their packets stay
  // until the slot's next use overwrites them: nothing reads a free
  // slot's packet.
  for (int bid : w.branch_ids) {
    BranchState& b = branches_[static_cast<std::size_t>(bid)];
    b = BranchState{};
    b.done = true;
    free_branches_.push_back(bid);
  }
  std::vector<int> ids = std::move(w.branch_ids);
  ids.clear();  // keep the capacity for the slot's next worm
  w = Worm{};
  w.branch_ids = std::move(ids);
  free_worms_.push_back(wi);
}

// --- cycle phases ---

void FlitEngine::ReleasePorts() {
  for (int port : pending_port_release_) {
    const int wi = std::exchange(resident_[static_cast<std::size_t>(port)], -1);
    const auto feeder =
        static_cast<std::size_t>(worms_[static_cast<std::size_t>(wi)].feeder);
    Unpin(wi);
    // A branch parked on the port moves this cycle, as one that checked
    // the port every cycle would.
    const int active = arbs_[feeder].active_branch;
    if (active != -1 && branches_[static_cast<std::size_t>(active)].parked)
      SetBit(step_channels_, feeder);
  }
  pending_port_release_.clear();
}

void FlitEngine::LandFlits(Cycles now) {
  // Entries land in the order they were sent (one wire delay for all).
  while (!in_flight_.empty() && in_flight_.front().lands <= now) {
    const InFlight entry = in_flight_.front();
    in_flight_.pop_front();
    BranchState& b = branches_[static_cast<std::size_t>(entry.branch)];
    const ChannelEnd& c = wire(b.channel);
    if (c.dst_host != kInvalidNode) {
      // Host ejection sink: the packet is delivered when its tail, the
      // last of its flits, lands.
      if (entry.is_head) b.sink_head = entry.lands;
      if (entry.is_tail) {
        ++deliveries_;
        if (m_host_deliveries_) m_host_deliveries_->Add();
        const Packet& pkt = branch_pkt(entry.branch);
        TraceAt(entry.lands, TraceKind::kNiDeliver, pkt, c.dst_host, -1);
        deliver_(c.dst_host, pkt, b.sink_head, entry.lands);
      }
    } else {
      if (entry.is_head) {
        // Create the downstream resident worm, pinned by route_queue_
        // and by its input port.
        int& resident = resident_[static_cast<std::size_t>(c.dst_port)];
        IRMC_ENSURE(resident == -1);
        const int wi = NewWorm();
        Worm& w = worms_[static_cast<std::size_t>(wi)];
        worm_pkt(wi) = branch_pkt(entry.branch);
        w.len = b.len;
        w.head_arrive = entry.lands;
        w.port_index = c.dst_port;
        w.feeder = b.channel;
        w.pins = 2;
        w.land_sync = w.move_sync = entry.lands;
        if (b.phase != kNever) w.feed = entry.branch;
        resident = wi;
        b.dst_worm = wi;
        if (m_switched_) m_switched_->Add();
        TraceAt(entry.lands, TraceKind::kHeadArrive, worm_pkt(wi),
                SwitchOfPort(c.dst_port), c.dst_port % ports_);
        route_queue_.emplace_back(b.dst_worm,
                                  entry.lands + params_.route_delay);
      }
      Worm& w = worms_[static_cast<std::size_t>(b.dst_worm)];
      Sync(w, entry.lands, entry.lands);
      ++w.received;
      max_occupancy_ = std::max(
          max_occupancy_, static_cast<std::int64_t>(w.received - w.freed));
      if (entry.is_tail) w.feed = -1;
    }
    if (entry.is_tail) Unpin(b.src_worm);  // may recycle b: use it last
  }
}

void FlitEngine::PumpInjections(Cycles now) {
  while (!ready_heap_.empty() && ready_heap_.top().first <= now) {
    SetReady(static_cast<std::size_t>(ready_heap_.top().second));
    ready_heap_.pop();
  }
  if (ready_count_ == 0) return;
  ForEachBit(ready_nis_, [&](std::size_t n) {
    NiQueue& q = ni_queues_[n];
    const int head = q.head;
    Queued& front = queued_[static_cast<std::size_t>(head)];
    // Source-side pseudo-worm: all flits available at `ready`, pinned
    // only by its one branch.
    const int wi = NewWorm();
    Worm& w = worms_[static_cast<std::size_t>(wi)];
    w.len = front.pkt.WireFlits();
    w.received = w.len;
    w.routed = true;
    w.live_branches = 1;

    BranchState b;
    b.src_worm = wi;
    b.channel = InjChannel(static_cast<NodeId>(n));
    b.len = w.len;
    b.start_ok = front.ready;
    const std::size_t ci = static_cast<std::size_t>(b.channel);
    const int bid = NewBranch(wi, std::move(b));
    branch_pkt(bid) = std::move(front.pkt);
    Enqueue(ci, bid);
    ClearBit(ready_nis_, n);
    --ready_count_;
    q.head = front.next;
    if (q.head == -1) q.tail = -1;
    --q.size;
    front.next = free_queued_;
    free_queued_ = head;
    --backlog_;  // the packet moved to its injection channel's arbiter
  });
}

void FlitEngine::RouteWorms(Cycles now) {
  // Heads land in FIFO order and route_delay is uniform, so the queue is
  // monotone in decision time: pop from the front only.
  while (!route_queue_.empty() && route_queue_.front().second <= now) {
    const int wi = route_queue_.front().first;
    route_queue_.pop_front();
    RouteWorm(wi, now);
    Unpin(wi);  // off route_queue_
  }
}

void FlitEngine::RouteWorm(int wi, Cycles now) {
  Worm& w = worms_[static_cast<std::size_t>(wi)];
  IRMC_ENSURE(!w.routed && w.received >= 1);
  Sync(w, now + 1, now);
  w.routed = true;
  const SwitchId sw = SwitchOfPort(w.port_index);
  const PortLoadFn load = [this](SwitchId s, PortId p) {
    return arbs_[static_cast<std::size_t>(PortIdx(s, p))].Load();
  };
  std::vector<RouteBranch>& decisions = route_branches_;
  decisions.clear();
  ComputeRouteBranches(sys_, sw, worm_pkt(wi), params_.adaptive, load,
                       decisions);
  IRMC_ENSURE(!decisions.empty());
  if (m_fanout_) {
    m_fanout_->Add(static_cast<std::int64_t>(decisions.size()));
    m_replications_->Add(static_cast<std::int64_t>(decisions.size()) - 1);
  }
  TraceAt(now, TraceKind::kRoute, worm_pkt(wi), sw,
          static_cast<std::int32_t>(decisions.size()));
  w.live_branches = static_cast<int>(decisions.size());
  const Cycles start_ok =
      w.head_arrive + params_.route_delay + params_.xbar_delay;
  for (RouteBranch& d : decisions) {
    TraceAt(now, TraceKind::kBranch, d.pkt, sw,
            static_cast<std::int32_t>(d.port));
    BranchState b;
    b.src_worm = wi;
    b.channel = PortIdx(sw, d.port);
    b.len = w.len;
    b.start_ok = start_ok;
    const std::size_t ci = static_cast<std::size_t>(b.channel);
    const int bid = NewBranch(wi, std::move(b));
    branch_pkt(bid) = std::move(d.pkt);
    Enqueue(ci, bid);
  }
}

void FlitEngine::MoveFlits(Cycles now) {
  while (!tails_due_.empty() && tails_due_.top().first <= now) {
    SetBit(step_channels_, static_cast<std::size_t>(tails_due_.top().second));
    tails_due_.pop();
  }
  if (trip_due_ <= now) WakeTrips(now);
  // Ascending channel order is load-bearing: a downstream channel that
  // drains earlier in the cycle raises its worm's `freed` before an
  // upstream feeder with a higher index checks credit against it, exactly
  // as a walk over every channel would.
  ForEachBit(step_channels_, [&](std::size_t ci) {
    if (frozen_) return;  // the deadlock handler consumed a trip
    ++visits_;
    MoveChannel(ci, now);
    const Arbiter& c = arbs_[ci];
    const bool step =
        c.active_branch == -1
            ? c.waiting > 0
            : branches_[static_cast<std::size_t>(c.active_branch)].stepped();
    if (!step) ClearBit(step_channels_, ci);
  });
}

void FlitEngine::MoveChannel(std::size_t ci, Cycles now) {
  const int dst_port = wire(static_cast<int>(ci)).dst_port;
  Arbiter& c = arbs_[ci];
  if (c.active_branch != -1) {
    BranchState& a = branches_[static_cast<std::size_t>(c.active_branch)];
    if (a.streaming) {
      // Only its due tail wakes a streaming branch's channel: settle the
      // stream and send the tail stepped.
      IRMC_ENSURE(now == a.phase + a.len - 1);
      Sync(worms_[static_cast<std::size_t>(a.src_worm)], now + 1, now);
      Materialize(a, now - 1);
      a.streaming = false;
    } else if (a.parked) {
      // Woken by its port's release or its due trip: count the cycles it
      // stalled unvisited, then check the port as every cycle would.
      SettleStall(a, now - 1);
      a.parked = false;
    }
  }
  if (c.active_branch == -1 && c.waiting > 0) {
    // Grant the branch that has been ready longest; break same-cycle
    // ties by input port — the same engine-independent rule as the VCT
    // engine's channel pick, so arbitration (and thus every latency)
    // agrees across engines (docs/engines.md). Strictly-better keeps
    // arrival order for full ties.
    int best = -1;
    int best_prev = -1;
    for (int prev = -1, w = c.first_waiting; w != -1;
         prev = w, w = branches_[static_cast<std::size_t>(w)].next_waiting) {
      const BranchState& cand = branches_[static_cast<std::size_t>(w)];
      if (cand.start_ok > now) continue;
      if (best != -1) {
        const BranchState& cur = branches_[static_cast<std::size_t>(best)];
        if (!(cand.start_ok < cur.start_ok ||
              (cand.start_ok == cur.start_ok &&
               ArbPort(cand) < ArbPort(cur))))
          continue;
      }
      best = w;
      best_prev = prev;
    }
    if (best != -1) {
      c.active_branch = best;
      Unwait(c, best_prev, best);
    }
  }
  if (c.active_branch == -1) return;
  const int bid = c.active_branch;
  BranchState& b = branches_[static_cast<std::size_t>(bid)];
  Worm& src = worms_[static_cast<std::size_t>(b.src_worm)];
  Sync(src, now + 1, now);
  // Flit availability at the source buffer (not a credit stall).
  if (b.consumed >= src.received) return;
  // Downstream space (credit).
  if (dst_port >= 0) {
    bool stalled = false;
    if (b.dst_worm == -1) {
      if (resident_[static_cast<std::size_t>(dst_port)] != -1) {
        stalled = true;
        b.stall_why = "output port held by another worm";
      }
    } else {
      const Worm& dw = worms_[static_cast<std::size_t>(b.dst_worm)];
      if (dw.received - dw.freed >= params_.buffer_flits) {
        stalled = true;
        b.stall_why = "downstream input buffer full";
      }
    }
    if (stalled) {
      if (m_blocked_) m_blocked_->Add();
      if (b.stall_len == 0) b.stall_begin = now;
      ++b.stall_len;
      if (b.stall_len > params_.deadlock_horizon) {
        DeadlockTrip(now, c.active_branch);
      } else if (b.dst_worm == -1) {
        // One channel feeds the port and the head is unsent, so only the
        // resident worm's release (ReleasePorts) ends this stall: park.
        b.parked = true;
        trip_due_ =
            std::min(trip_due_, b.stall_begin + params_.deadlock_horizon);
      }
      return;
    }
  }
  CloseStreak(bid);
  const bool is_head = (b.consumed == 0);
  ++b.consumed;
  CountFlits(static_cast<int>(ci), 1);
  const bool is_tail = (b.consumed == b.len);
  in_flight_.push_back(
      InFlight{bid, is_head, is_tail, now + params_.link_delay});
  if (is_tail) {
    b.done = true;
    c.active_branch = -1;
    --backlog_;
    if (c.waiting == 0) --busy_channels_;
    if (--src.live_branches == 0 && src.port_index >= 0) {
      // All branches drained: free the input port at the *start of the
      // next cycle* (the tail flit leaves the buffer this cycle),
      // matching the VCT engine's slot-release timing.
      pending_port_release_.push_back(src.port_index);
    }
    if (src.port_index < 0) {
      // An injection channel carries one branch at a time, so it is idle
      // now and its NI may start the next queued packet.
      const std::size_t n = ci - static_cast<std::size_t>(InjChannel(0));
      const NiQueue& q = ni_queues_[n];
      if (q.head != -1) {
        const Cycles ready = queued_[static_cast<std::size_t>(q.head)].ready;
        if (ready <= now)
          SetReady(n);
        else
          ready_heap_.emplace(ready, static_cast<int>(n));
      }
    }
  }
  // Freed-flit accounting (buffer occupancy): freed = min consumed
  // over the worm's branches. A streaming sibling's settled count may
  // lag; the next Sync of this worm settles `freed` for this cycle, and
  // no credit check reads it before then (that would take a stepped
  // feeder, whose worm has no streaming branches).
  int min_consumed = b.len;
  for (int obid : src.branch_ids) {
    const BranchState& other = branches_[static_cast<std::size_t>(obid)];
    if (!other.done) min_consumed = std::min(min_consumed, other.consumed);
  }
  src.freed = std::max(src.freed, std::min(min_consumed, src.received));
  if (!is_tail) TryStream(bid, now);
}

void FlitEngine::CloseStreak(int bid) {
  BranchState& b = branches_[static_cast<std::size_t>(bid)];
  if (b.stall_len == 0) return;
  if (tracer_) {
    std::int32_t actor = -1;
    std::int32_t detail = -1;
    ChannelActor(b.channel, &actor, &detail);
    const Packet& pkt = branch_pkt(bid);
    TraceAt(b.stall_begin, TraceKind::kBlockBegin, pkt, actor, detail);
    TraceAt(b.stall_begin + b.stall_len, TraceKind::kBlockEnd, pkt, actor,
            detail);
  }
  b.stall_len = 0;
  b.stall_why = nullptr;
}

void FlitEngine::DeadlockTrip(Cycles now, int trip_branch) {
  // Settle every stream to this point of the cycle — branches on lower
  // channels have sent this cycle's flit, the rest have not — and step
  // them from here on: the engine stops (or freezes) anyway. A worm with
  // a stream gets the `freed` a walk over every channel would show here.
  // Parked stalls likewise count this cycle on lower channels only.
  const int trip_channel =
      branches_[static_cast<std::size_t>(trip_branch)].channel;
  for (BranchState& b : branches_)
    if (b.parked) SettleStall(b, b.channel < trip_channel ? now : now - 1);
  for (Worm& w : worms_)
    if (w.pins > 0) Sync(w, now + 1, now);
  for (Worm& w : worms_) {
    if (w.pins == 0) continue;
    bool streamed = false;
    for (int bid : w.branch_ids) {
      BranchState& b = branches_[static_cast<std::size_t>(bid)];
      if (!b.streaming) continue;
      streamed = true;
      Materialize(b, b.channel < trip_channel ? now : now - 1);
      b.streaming = false;
    }
    if (!streamed) continue;
    int min_consumed = w.len;
    for (int bid : w.branch_ids) {
      const BranchState& b = branches_[static_cast<std::size_t>(bid)];
      if (!b.done) min_consumed = std::min(min_consumed, b.consumed);
    }
    w.freed = std::max(w.freed, std::min(min_consumed, w.received));
  }
  FlitDeadlockInfo info;
  info.now = now;
  info.horizon = params_.deadlock_horizon;
  std::string msg;
  char buf[256];
  const BranchState& trip = branches_[static_cast<std::size_t>(trip_branch)];
  const Packet& trip_pkt = branch_pkt(trip_branch);
  std::snprintf(buf, sizeof buf,
                "worm (mcast %lld pkt %d) blocked for %lld cycles > "
                "deadlock horizon %lld at cycle %lld; blocked worms:",
                static_cast<long long>(trip_pkt.mcast_id),
                trip_pkt.pkt_index,
                static_cast<long long>(trip.stall_len),
                static_cast<long long>(params_.deadlock_horizon),
                static_cast<long long>(now));
  msg += buf;
  for (std::size_t bid = 0; bid < branches_.size(); ++bid) {
    const BranchState& b = branches_[bid];
    if (b.done) continue;
    const Packet& pkt = branch_pkts_[bid];
    // A branch can be pending without an open stall streak when it is
    // starved of flits (upstream not sending yet) — include those too:
    // they are often the hidden links of the wait chain.
    const Worm& src = worms_[static_cast<std::size_t>(b.src_worm)];
    const bool starved = b.stall_len == 0;
    if (starved && b.consumed < src.received) continue;  // genuinely moving
    FlitDeadlockInfo::Pending pending;
    pending.mcast_id = pkt.mcast_id;
    pending.pkt_index = pkt.pkt_index;
    std::int32_t actor = -1;
    std::int32_t port = -1;
    ChannelActor(b.channel, &actor, &port);
    const bool injection = port < 0;
    if (injection) {
      pending.inj_node = actor;
    } else {
      pending.sw = actor;
      pending.port = port;
    }
    pending.stalled = !starved;
    pending.reason = starved ? "starved of flits"
                             : (b.stall_why ? b.stall_why : "stalled");
    info.pending.push_back(pending);
    if (injection)
      std::snprintf(buf, sizeof buf,
                    "\n  worm (mcast %lld pkt %d) at injection of node %d",
                    static_cast<long long>(pkt.mcast_id), pkt.pkt_index,
                    actor);
    else
      std::snprintf(buf, sizeof buf,
                    "\n  worm (mcast %lld pkt %d) at switch %d port %d",
                    static_cast<long long>(pkt.mcast_id), pkt.pkt_index,
                    actor, port);
    msg += buf;
    if (starved)
      std::snprintf(buf, sizeof buf,
                    ": starved of flits (%d of %d consumed, %d received, "
                    "%d freed)",
                    b.consumed, b.len, src.received, src.freed);
    else
      std::snprintf(buf, sizeof buf, ": %s for %lld cycles",
                    b.stall_why ? b.stall_why : "stalled",
                    static_cast<long long>(b.stall_len));
    msg += buf;
    const int dst_port = wire(b.channel).dst_port;
    if (dst_port >= 0) {
      const int rw = resident_[static_cast<std::size_t>(dst_port)];
      if (rw >= 0) {
        const Packet& held = worm_pkt(rw);
        std::snprintf(buf, sizeof buf,
                      " (port held by worm mcast %lld pkt %d)",
                      static_cast<long long>(held.mcast_id), held.pkt_index);
        msg += buf;
      }
    }
  }
  if (on_deadlock_) {
    frozen_ = true;  // set first so a re-entrant tick cannot re-trip
    on_deadlock_(info);
    return;
  }
  detail::ContractFailure("invariant", "flit worm blocked past deadlock horizon",
                          __FILE__, __LINE__, "%s", msg.c_str());
}

}  // namespace irmc
