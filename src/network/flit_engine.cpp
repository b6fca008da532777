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

}  // namespace

FlitEngine::FlitEngine(Engine& engine, const System& sys,
                       const NetParams& params, DeliverFn deliver,
                       Tracer* tracer, MetricsRegistry* metrics)
    : NetworkModel(engine, sys, params, std::move(deliver), tracer, metrics,
                   "flit", "flits_moved"),
      arbs_(num_channels()),
      inject_queues_(static_cast<std::size_t>(sys.num_nodes())) {
  IRMC_EXPECT(params_.buffer_flits >= 1);
  IRMC_EXPECT(params_.deadlock_horizon >= 1);
  inputs_.assign(num_ports(), InputPort{params_.buffer_flits, -1});
  busy_channels_.assign((arbs_.size() + 63) / 64, 0);
  ready_nis_.assign((inject_queues_.size() + 63) / 64, 0);
}

void FlitEngine::QueueInjection(NodeId n, PacketPtr pkt, Cycles ready) {
  inject_queues_[static_cast<std::size_t>(n)].emplace_back(std::move(pkt),
                                                           ready);
  if (arbs_[static_cast<std::size_t>(InjChannel(n))].Load() == 0)
    SetBit(ready_nis_, static_cast<std::size_t>(n));
  ScheduleTick(ready);
}

int FlitEngine::InjectionBacklog(NodeId n) const {
  return static_cast<int>(inject_queues_[static_cast<std::size_t>(n)].size()) +
         arbs_[static_cast<std::size_t>(InjChannel(n))].Load();
}

std::int64_t FlitEngine::TotalBacklog() const {
  std::int64_t total = 0;
  for (const Arbiter& a : arbs_) total += a.Load();
  for (const auto& q : inject_queues_)
    total += static_cast<std::int64_t>(q.size());
  return total;
}

void FlitEngine::CollectEngineMetrics() {
  metrics_->GetCounter("flit.cycles_run").Add(ticks_);
  metrics_->GetCounter("flit.deliveries").Add(deliveries_);
  metrics_->GetGauge("flit.max_buffer_occupancy", GaugeMode::kMax)
      .Set(static_cast<double>(max_occupancy_));
}

// ---------------------------------------------------------------------------
// Fault handling: a dead channel never grants, never moves flits, and
// anything committed to it when it died is truncated. Truncation
// cascades downstream — a worm whose feeder branch was cut will never
// finish arriving, so its own branches (and their downstream worms) are
// killed too. Upstream the fabric keeps streaming: a worm that lost
// every branch enters discard mode so its feeder can drain and its
// input port frees at the tail, exactly as if it had been consumed.
// ---------------------------------------------------------------------------

void FlitEngine::ReleaseWormPort(Worm& w) {
  if (w.port_index < 0 || w.port_released) return;
  w.port_released = true;
  pending_port_release_.push_back(w.port_index);
}

void FlitEngine::KillBranch(int bid) {
  BranchState& b = branches_[static_cast<std::size_t>(bid)];
  if (b.done) return;
  CloseStreak(b);  // emits the open stall interval; keeps the
                   // trace-vs-counter accounting identity
  b.done = true;
  Arbiter& c = arbs_[static_cast<std::size_t>(b.channel)];
  if (c.active_branch == bid) {
    c.active_branch = -1;
  } else {
    for (auto it = c.waiting.begin(); it != c.waiting.end(); ++it) {
      if (*it == bid) {
        c.waiting.erase(it);
        break;
      }
    }
  }
  // Flits on the wire evaporate.
  std::size_t kept = 0;
  for (InFlight& entry : in_flight_)
    if (entry.branch != bid) in_flight_[kept++] = entry;
  in_flight_.resize(kept);
  // The downstream copy will never finish arriving.
  if (b.dst_worm != -1) KillWorm(b.dst_worm);
  const int wi = b.src_worm;
  Worm& src = worms_[static_cast<std::size_t>(wi)];
  if (--src.live_branches == 0 && src.port_index >= 0) {
    if (src.dead || src.received >= src.len) {
      ReleaseWormPort(src);
    } else {
      // The upstream feeder is alive and still streaming into this
      // buffer: swallow what arrives so it can drain.
      src.discarding = true;
      src.freed = src.received;
    }
  }
  // The branch's tail will never land. Only switch worms lose branches,
  // and they keep their port pin until the next ReleasePorts, so this
  // never recycles the worm under a caller that is walking it.
  Unpin(wi);
}

void FlitEngine::KillWorm(int wi) {
  Worm& w = worms_[static_cast<std::size_t>(wi)];
  if (w.dead) return;
  w.dead = true;
  if (w.routed) {
    // Copy: KillBranch recursion must not iterate a moving vector.
    const std::vector<int> branch_ids = w.branch_ids;
    for (int bid : branch_ids) KillBranch(bid);
  }
  // Either unrouted (still in route_queue_, skipped when popped) or all
  // branches now dead: no one will ever consume from this buffer again,
  // and its feeder was cut, so nothing more arrives either.
  ReleaseWormPort(worms_[static_cast<std::size_t>(wi)]);
}

void FlitEngine::CutChannels(std::span<const int> dead) {
  for (int ci : dead) {
    // Every branch committed to the link is cut; each reports its own
    // packet (whose destination set covers its whole subtree — cascade
    // kills underneath it are not re-reported).
    const Arbiter& c = arbs_[static_cast<std::size_t>(ci)];
    std::vector<int> doomed(c.waiting.begin(), c.waiting.end());
    if (c.active_branch != -1) doomed.push_back(c.active_branch);
    for (int bid : doomed) {
      ReportDrop(branches_[static_cast<std::size_t>(bid)].out_pkt,
                 SwitchOfPort(ci));
      KillBranch(bid);
    }
  }
  // Settle pending port releases / discard state on the next cycle.
  ScheduleTick(engine_.Now() + 1);
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
  ReleasePorts();
  LandFlits(now);
  PumpInjections(now);
  RouteWorms(now);
  MoveFlits(now);
  if (Busy(now)) ScheduleTick(now + 1);
}

bool FlitEngine::Busy(Cycles now) const {
  if (!in_flight_.empty() || !pending_port_release_.empty() ||
      !route_queue_.empty())
    return true;
  // Called after MoveFlits has visited every set bit, which clears the
  // bits of channels that went idle (FailLink leaves them behind).
  for (std::uint64_t word : busy_channels_)
    if (word != 0) return true;
  // An NI with a busy channel keeps the engine ticking through that
  // channel. Future-ready injections do not: their InjectFromNi
  // scheduled a wake-up at `ready` already.
  bool ready = false;
  ForEachBit(ready_nis_, [&](std::size_t n) {
    ready = ready || inject_queues_[n].front().second <= now;
  });
  return ready;
}

// --- slot recycling ---

int FlitEngine::NewWorm() {
  if (free_worms_.empty()) {
    worms_.emplace_back();
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
  // which is all a later walk over branches_ checks.
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
  for (int port : pending_port_release_)
    Unpin(std::exchange(inputs_[static_cast<std::size_t>(port)].resident_worm,
                        -1));
  pending_port_release_.clear();
}

void FlitEngine::LandFlits(Cycles now) {
  std::size_t kept = 0;
  for (InFlight& entry : in_flight_) {
    if (entry.lands > now) {
      in_flight_[kept++] = entry;
      continue;
    }
    BranchState& b = branches_[static_cast<std::size_t>(entry.branch)];
    const Channel& c = channel(b.channel);
    if (c.dst_host != kInvalidNode) {
      // Host ejection sink: the packet is delivered when its tail lands.
      if (entry.is_head) b.sink_head = entry.lands;
      if (++b.sink_landed == b.len) {
        ++deliveries_;
        if (m_host_deliveries_) m_host_deliveries_->Add();
        TraceAt(entry.lands, TraceKind::kNiDeliver, *b.out_pkt, c.dst_host,
                -1);
        deliver_(c.dst_host, b.out_pkt, b.sink_head, entry.lands);
      }
    } else {
      if (entry.is_head) {
        // Create the downstream resident worm, pinned by route_queue_
        // and by its input port.
        InputPort& ip = inputs_[static_cast<std::size_t>(c.dst_port)];
        IRMC_ENSURE(ip.resident_worm == -1);
        const int wi = NewWorm();
        Worm& w = worms_[static_cast<std::size_t>(wi)];
        w.pkt = b.out_pkt;
        w.len = b.len;
        w.head_arrive = entry.lands;
        w.port_index = c.dst_port;
        w.pins = 2;
        ip.resident_worm = wi;
        b.dst_worm = wi;
        if (m_switched_) m_switched_->Add();
        TraceAt(entry.lands, TraceKind::kHeadArrive, *b.out_pkt,
                SwitchOfPort(c.dst_port), c.dst_port % ports_);
        route_queue_.emplace_back(b.dst_worm,
                                  entry.lands + params_.route_delay);
      }
      Worm& w = worms_[static_cast<std::size_t>(b.dst_worm)];
      ++w.received;
      if (w.discarding) {
        // Every branch of this worm was fault-killed; swallow the flit
        // so the feeder drains, and free the port once the tail lands.
        w.freed = w.received;
        if (w.received >= w.len) ReleaseWormPort(w);
      }
      max_occupancy_ = std::max(
          max_occupancy_, static_cast<std::int64_t>(w.received - w.freed));
    }
    if (entry.is_tail) Unpin(b.src_worm);  // may recycle b: use it last
  }
  in_flight_.resize(kept);
}

void FlitEngine::PumpInjections(Cycles now) {
  ForEachBit(ready_nis_, [&](std::size_t n) {
    auto& q = inject_queues_[n];
    if (q.front().second > now) return;  // its wake-up is scheduled
    // Source-side pseudo-worm: all flits available at `ready`, pinned
    // only by its one branch.
    const int wi = NewWorm();
    Worm& w = worms_[static_cast<std::size_t>(wi)];
    w.pkt = q.front().first;
    w.len = q.front().first->WireFlits();
    w.received = w.len;
    w.routed = true;
    w.live_branches = 1;

    BranchState b;
    b.src_worm = wi;
    b.channel = InjChannel(static_cast<NodeId>(n));
    b.out_pkt = std::move(q.front().first);
    b.len = w.len;
    b.start_ok = q.front().second;
    const std::size_t ci = static_cast<std::size_t>(b.channel);
    arbs_[ci].waiting.push_back(NewBranch(wi, std::move(b)));
    SetBit(busy_channels_, ci);
    ClearBit(ready_nis_, n);
    q.pop_front();
  });
}

void FlitEngine::RouteWorms(Cycles now) {
  // Heads land in FIFO order and route_delay is uniform, so the queue is
  // monotone in decision time: pop from the front only.
  while (!route_queue_.empty() && route_queue_.front().second <= now) {
    const int wi = route_queue_.front().first;
    route_queue_.pop_front();
    // A cascade-killed worm was only waiting for its turn.
    if (!worms_[static_cast<std::size_t>(wi)].dead) RouteWorm(wi, now);
    Unpin(wi);  // off route_queue_
  }
}

void FlitEngine::RouteWorm(int wi, Cycles now) {
  Worm& w = worms_[static_cast<std::size_t>(wi)];
  IRMC_ENSURE(!w.routed && w.received >= 1);
  w.routed = true;
  const SwitchId sw = SwitchOfPort(w.port_index);
  const PortLoadFn load = [this](SwitchId s, PortId p) {
    return arbs_[static_cast<std::size_t>(PortIdx(s, p))].Load();
  };
  std::vector<RouteBranch>& decisions = route_branches_;
  decisions.clear();
  if (!TryComputeRouteBranches(*sys_, sw, w.pkt, params_.adaptive, load,
                               decisions)) {
    // Stale header under swapped tables: consume the worm here and let
    // the retransmit layer repair the loss (ReportDrop aborts when no
    // drop handler is installed).
    ReportDrop(w.pkt, sw);
    w.discarding = true;
    w.freed = w.received;
    if (w.received >= w.len) ReleaseWormPort(w);
    return;
  }
  IRMC_ENSURE(!decisions.empty());
  // Branches aimed at a link that died after the header committed to
  // it are dropped on the spot.
  std::size_t live = 0;
  for (RouteBranch& d : decisions) {
    if (channel(PortIdx(sw, d.port)).dead_since != kNever) {
      ReportDrop(d.pkt, sw);
      continue;
    }
    decisions[live++] = std::move(d);
  }
  decisions.resize(live);
  if (decisions.empty()) {
    w.discarding = true;
    w.freed = w.received;
    if (w.received >= w.len) ReleaseWormPort(w);
    return;
  }
  if (m_fanout_) {
    m_fanout_->Add(static_cast<std::int64_t>(decisions.size()));
    m_replications_->Add(static_cast<std::int64_t>(decisions.size()) - 1);
  }
  TraceAt(now, TraceKind::kRoute, *w.pkt, sw,
          static_cast<std::int32_t>(decisions.size()));
  w.live_branches = static_cast<int>(decisions.size());
  const Cycles start_ok =
      w.head_arrive + params_.route_delay + params_.xbar_delay;
  for (RouteBranch& d : decisions) {
    TraceAt(now, TraceKind::kBranch, *d.pkt, sw,
            static_cast<std::int32_t>(d.port));
    BranchState b;
    b.src_worm = wi;
    b.channel = PortIdx(sw, d.port);
    b.out_pkt = std::move(d.pkt);
    b.len = w.len;
    b.start_ok = start_ok;
    const std::size_t ci = static_cast<std::size_t>(b.channel);
    arbs_[ci].waiting.push_back(NewBranch(wi, std::move(b)));
    SetBit(busy_channels_, ci);
  }
}

void FlitEngine::MoveFlits(Cycles now) {
  // Ascending channel order is load-bearing: a downstream channel that
  // drains earlier in the cycle raises its worm's `freed` before an
  // upstream feeder with a higher index checks credit against it, exactly
  // as a walk over every channel would.
  ForEachBit(busy_channels_, [&](std::size_t ci) {
    if (frozen_) return;  // the deadlock handler consumed a trip
    MoveChannel(ci, now);
    const Arbiter& c = arbs_[ci];
    if (c.active_branch == -1 && c.waiting.empty())
      ClearBit(busy_channels_, ci);
  });
}

void FlitEngine::MoveChannel(std::size_t ci, Cycles now) {
  const Channel& link = channel(static_cast<int>(ci));
  if (link.dead_since != kNever) return;  // FailLink emptied it
  Arbiter& c = arbs_[ci];
  if (c.active_branch == -1 && !c.waiting.empty()) {
    // Grant the branch that has been ready longest; break same-cycle
    // ties by input port — the same engine-independent rule as the VCT
    // engine's channel pick, so arbitration (and thus every latency)
    // agrees across engines (docs/engines.md).
    std::size_t best = c.waiting.size();
    for (std::size_t i = 0; i < c.waiting.size(); ++i) {
      const BranchState& cand =
          branches_[static_cast<std::size_t>(c.waiting[i])];
      if (cand.start_ok > now) continue;
      if (best == c.waiting.size()) {
        best = i;
        continue;
      }
      const BranchState& cur =
          branches_[static_cast<std::size_t>(c.waiting[best])];
      if (cand.start_ok < cur.start_ok ||
          (cand.start_ok == cur.start_ok && ArbPort(cand) < ArbPort(cur)))
        best = i;
    }
    if (best != c.waiting.size()) {
      c.active_branch = c.waiting[best];
      c.waiting.erase(c.waiting.begin() + static_cast<std::ptrdiff_t>(best));
    }
  }
  if (c.active_branch == -1) return;
  BranchState& b = branches_[static_cast<std::size_t>(c.active_branch)];
  Worm& src = worms_[static_cast<std::size_t>(b.src_worm)];
  // Flit availability at the source buffer (not a credit stall).
  if (b.consumed >= src.received) return;
  // Downstream space (credit).
  if (link.dst_port >= 0) {
    InputPort& ip = inputs_[static_cast<std::size_t>(link.dst_port)];
    bool stalled = false;
    if (b.dst_worm == -1) {
      if (ip.resident_worm != -1) {
        stalled = true;
        b.stall_why = "output port held by another worm";
      }
    } else {
      const Worm& dw = worms_[static_cast<std::size_t>(b.dst_worm)];
      if (dw.received - dw.freed >= ip.capacity) {
        stalled = true;
        b.stall_why = "downstream input buffer full";
      }
    }
    if (stalled) {
      if (m_blocked_) m_blocked_->Add();
      if (b.stall_len == 0) b.stall_begin = now;
      ++b.stall_len;
      if (b.stall_len > params_.deadlock_horizon)
        DeadlockTrip(now, c.active_branch);
      return;
    }
  }
  CloseStreak(b);
  const bool is_head = (b.consumed == 0);
  ++b.consumed;
  CountFlits(static_cast<int>(ci), 1);
  const bool is_tail = (b.consumed == b.len);
  in_flight_.push_back(InFlight{c.active_branch, is_head, is_tail,
                                now + params_.link_delay});
  if (is_tail) {
    b.done = true;
    c.active_branch = -1;
    if (--src.live_branches == 0 && src.port_index >= 0) {
      // All branches drained: free the input port at the *start of the
      // next cycle* (the tail flit leaves the buffer this cycle),
      // matching the VCT engine's slot-release timing.
      ReleaseWormPort(src);
    }
    if (src.port_index < 0) {
      // An injection channel carries one branch at a time, so it is idle
      // now and its NI may start the next queued packet.
      const std::size_t n = ci - static_cast<std::size_t>(InjChannel(0));
      if (!inject_queues_[n].empty()) SetBit(ready_nis_, n);
    }
  }
  // Freed-flit accounting (buffer occupancy): freed = min consumed
  // over the worm's branches.
  int min_consumed = b.len;
  for (int obid : src.branch_ids) {
    const BranchState& other = branches_[static_cast<std::size_t>(obid)];
    if (!other.done) min_consumed = std::min(min_consumed, other.consumed);
  }
  src.freed = std::max(src.freed, std::min(min_consumed, src.received));
}

void FlitEngine::CloseStreak(BranchState& b) {
  if (b.stall_len == 0) return;
  if (tracer_) {
    std::int32_t actor = -1;
    std::int32_t detail = -1;
    ChannelActor(b.channel, &actor, &detail);
    TraceAt(b.stall_begin, TraceKind::kBlockBegin, *b.out_pkt, actor, detail);
    TraceAt(b.stall_begin + b.stall_len, TraceKind::kBlockEnd, *b.out_pkt,
            actor, detail);
  }
  b.stall_len = 0;
  b.stall_why = nullptr;
}

void FlitEngine::DeadlockTrip(Cycles now, int trip_branch) {
  FlitDeadlockInfo info;
  info.now = now;
  info.horizon = params_.deadlock_horizon;
  std::string msg;
  char buf[256];
  const BranchState& trip = branches_[static_cast<std::size_t>(trip_branch)];
  std::snprintf(buf, sizeof buf,
                "worm (mcast %lld pkt %d) blocked for %lld cycles > "
                "deadlock horizon %lld at cycle %lld; blocked worms:",
                static_cast<long long>(trip.out_pkt->mcast_id),
                trip.out_pkt->pkt_index,
                static_cast<long long>(trip.stall_len),
                static_cast<long long>(params_.deadlock_horizon),
                static_cast<long long>(now));
  msg += buf;
  for (const BranchState& b : branches_) {
    if (b.done) continue;
    // A branch can be pending without an open stall streak when it is
    // starved of flits (upstream not sending yet) — include those too:
    // they are often the hidden links of the wait chain.
    const Worm& src = worms_[static_cast<std::size_t>(b.src_worm)];
    const bool starved = b.stall_len == 0;
    if (starved && b.consumed < src.received) continue;  // genuinely moving
    FlitDeadlockInfo::Pending pending;
    pending.mcast_id = b.out_pkt->mcast_id;
    pending.pkt_index = b.out_pkt->pkt_index;
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
                    static_cast<long long>(b.out_pkt->mcast_id),
                    b.out_pkt->pkt_index, actor);
    else
      std::snprintf(buf, sizeof buf,
                    "\n  worm (mcast %lld pkt %d) at switch %d port %d",
                    static_cast<long long>(b.out_pkt->mcast_id),
                    b.out_pkt->pkt_index, actor, port);
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
    const int dst_port = channel(b.channel).dst_port;
    if (dst_port >= 0) {
      const int rw = inputs_[static_cast<std::size_t>(dst_port)].resident_worm;
      if (rw >= 0) {
        const Worm& w = worms_[static_cast<std::size_t>(rw)];
        std::snprintf(buf, sizeof buf,
                      " (port held by worm mcast %lld pkt %d)",
                      static_cast<long long>(w.pkt->mcast_id),
                      w.pkt->pkt_index);
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
