#include "core/executor.hpp"

#include <algorithm>
#include <bit>

namespace irmc {
namespace {

/// The driver's metrics, in DriverMetrics order.
constexpr MetricSpec kDriverMetrics[] = {
    {MetricKind::kCounter, "mcast.launched"},
    {MetricKind::kCounter, "mcast.completed"},
    {MetricKind::kHistogram, "mcast.latency"},
    {MetricKind::kHistogram, "mcast.dests"},
    {MetricKind::kCounter, "mcast.worms"},
    {MetricKind::kCounter, "mcast.forward_phases"},
    {MetricKind::kCounter, "host.cycles"},
    {MetricKind::kCounter, "host.sends"},
    {MetricKind::kCounter, "ni.cycles"},
    {MetricKind::kCounter, "ni.forward_copies"},
    {MetricKind::kCounter, "io.dma_cycles"},
    {MetricKind::kCounter, "io.dma_transfers"},
};

/// The resilience family, bound only with resilience on.
constexpr MetricSpec kDriverResilienceMetrics[] = {
    {MetricKind::kCounter, "resilience.drops"},
    {MetricKind::kCounter, "resilience.retransmits"},
    {MetricKind::kCounter, "resilience.duplicates"},
    {MetricKind::kCounter, "resilience.acks"},
    {MetricKind::kCounter, "resilience.degraded_deliveries"},
};

/// The free list of an Exec whose delivery list has room for `room`:
/// floor(log2(room)), 0 for none, capped at the last of `lists`.
int FreeList(std::size_t room, int lists) {
  return std::min(room > 1 ? static_cast<int>(std::bit_width(room)) - 1 : 0,
                  lists - 1);
}

}  // namespace

McastDriver::McastDriver(Engine& engine, const System& sys,
                         const SimConfig& cfg, Tracer* tracer,
                         MetricsRegistry* metrics)
    : engine_(engine), sys_(&sys), cfg_(cfg), tracer_(tracer) {
  if (metrics) {
    const MetricSlots slots = metrics->Bind(kDriverMetrics);
    m_.has = true;
    m_.launched = &slots.counter(0);
    m_.completed = &slots.counter(1);
    m_.latency = &slots.histogram(2);
    m_.dests = &slots.histogram(3);
    m_.worms = &slots.counter(4);
    m_.forward_phases = &slots.counter(5);
    m_.host_cycles = &slots.counter(6);
    m_.host_sends = &slots.counter(7);
    m_.ni_cycles = &slots.counter(8);
    m_.ni_forward_copies = &slots.counter(9);
    m_.io_dma_cycles = &slots.counter(10);
    m_.io_dma_transfers = &slots.counter(11);
  }
  nodes_.resize(static_cast<std::size_t>(sys.num_nodes()));
  network_ = MakeNetworkModel(
      cfg.engine, engine, sys, cfg.net,
      [this](NodeId n, const Packet& pkt, Cycles head, Cycles tail) {
        OnDeliver(n, pkt, head, tail);
      },
      tracer, metrics);
  if (cfg_.resilience.enabled) {
    if (metrics) {
      const MetricSlots slots = metrics->Bind(kDriverResilienceMetrics);
      m_.r_drops = &slots.counter(0);
      m_.r_retransmits = &slots.counter(1);
      m_.r_duplicates = &slots.counter(2);
      m_.r_acks = &slots.counter(3);
      m_.r_degraded = &slots.counter(4);
    }
    network_->SetDropHandler(
        [this](const Packet& pkt, Cycles now, SwitchId where) {
          OnDrop(pkt, now, where);
        });
    resilience_ = std::make_unique<ResilienceManager>(
        engine, *network_, sys, cfg_, tracer, metrics,
        [this](const System& s) { sys_ = &s; });
  }
}

std::int64_t McastDriver::Launch(McastPlan plan, Cycles when, DoneFn done,
                                 DeliveredFn delivered) {
  IRMC_EXPECT(!plan.dests.empty());
  const MessageShape shape = plan.shape.value_or(cfg_.message);
  IRMC_EXPECT_MSG(shape.Valid(), "message of %d packets x %d flits",
                  shape.num_packets, shape.packet_flits);
  Exec& exec = NewExec(std::move(plan), shape, when, -1);
  exec.done = std::move(done);
  exec.delivered = std::move(delivered);
  if (m_.has) {
    m_.launched->Add();
    m_.dests->Add(exec.remaining);
  }
  engine_.ScheduleAt(when, [this, raw = &exec]() { StartSource(*raw); });
  return exec.id;
}

McastDriver::Exec& McastDriver::NewExec(McastPlan&& plan, MessageShape shape,
                                        Cycles start, std::int64_t parent) {
  // The first index holds as many live multicasts as there are nodes.
  if (index_.empty())
    index_.assign(std::bit_ceil(static_cast<std::size_t>(sys_->num_nodes())),
                  nullptr);
  Exec& exec = TakeExec(parent >= 0 ? 0 : plan.dests.size());
  exec.id = next_id_++;
  Index(exec);
  ++live_;
  exec.parent = parent;
  exec.plan = std::move(plan);
  exec.shape = shape;
  exec.start = start;
  exec.remaining = static_cast<int>(exec.plan.dests.size());
  exec.result.id = exec.id;
  exec.result.start = start;
  exec.result.completion = 0;
  exec.result.num_dests = exec.remaining;
  exec.result.deliveries.clear();
  exec.repairs.clear();
  exec.acked_count = 0;
  exec.attempts = 0;
  exec.repair_pending = false;
  exec.next_free = nullptr;
  if (parent >= 0) {  // a repair wave credits its parent
    exec.nstate.clear();
    exec.acked.clear();
    exec.got.clear();
    return exec;
  }
  exec.result.deliveries.reserve(std::bit_ceil(exec.plan.dests.size()));
  const auto nodes = static_cast<std::size_t>(sys_->num_nodes());
  exec.nstate.assign(nodes, NodeState{});
  if (cfg_.resilience.enabled) {
    exec.acked.assign(nodes, false);
    exec.got.assign(nodes * static_cast<std::size_t>(shape.num_packets),
                    false);
  }
  return exec;
}

McastDriver::Exec& McastDriver::TakeExec(std::size_t dests) {
  const int lists = static_cast<int>(free_.size());
  const int fits = FreeList(std::bit_ceil(dests), lists);
  int k = fits;
  while (k < lists && free_[k] == nullptr) ++k;
  if (k == lists) {
    k = fits - 1;
    while (k >= 0 && free_[k] == nullptr) --k;
  }
  if (k < 0) return *pool_.emplace_back(std::make_unique<Exec>());
  Exec& exec = *free_[k];
  free_[k] = exec.next_free;
  return exec;
}

void McastDriver::Index(Exec& exec) {
  const auto id = static_cast<std::size_t>(exec.id);
  while (index_[id & (index_.size() - 1)] != nullptr) {
    std::vector<Exec*> grown(2 * index_.size(), nullptr);
    for (Exec* live : index_)
      if (live != nullptr)
        grown[static_cast<std::size_t>(live->id) & (grown.size() - 1)] = live;
    index_.swap(grown);
  }
  index_[id & (index_.size() - 1)] = &exec;
}

void McastDriver::Retire(Exec& exec) {
  index_[static_cast<std::size_t>(exec.id) & (index_.size() - 1)] = nullptr;
  exec.id = -1;
  exec.plan = McastPlan{};
  exec.done = nullptr;
  exec.delivered = nullptr;
  const int k = FreeList(exec.result.deliveries.capacity(),
                         static_cast<int>(free_.size()));
  exec.next_free = free_[k];
  free_[k] = &exec;
  --live_;
}

Packet McastDriver::MakePacket(const Exec& exec, int j, HeaderKind kind,
                               int header_flits) const {
  Packet pkt;
  pkt.mcast_id = exec.id;
  pkt.pkt_index = j;
  pkt.num_pkts = exec.shape.num_packets;
  pkt.src = exec.plan.root;
  pkt.mcast_start = exec.start;
  pkt.data_flits = exec.shape.packet_flits;
  pkt.kind = kind;
  pkt.header_flits = header_flits;
  return pkt;
}

template <class Emit>
void McastDriver::SendMessage(const Exec& exec, NodeId u, Cycles earliest,
                              std::int32_t detail, Emit emit) {
  TraceHost(TraceKind::kSendStart, exec.id, u, detail);
  NodeRuntime& nr = node(u);
  const HostParams& hp = cfg_.host;
  const Cycles h = nr.host_cpu.Reserve(earliest, hp.o_host) + hp.o_host;
  const Cycles ni = nr.ni_cpu.Reserve(h, hp.o_ni) + hp.o_ni;
  const Cycles dma_dur = hp.DmaCycles(exec.shape.packet_flits);
  if (m_.has) {
    m_.host_sends->Add();
    m_.host_cycles->Add(hp.o_host);
    m_.ni_cycles->Add(hp.o_ni);
  }
  for (int j = 0; j < exec.shape.num_packets; ++j) {
    const Cycles dma_done = nr.io_bus.Reserve(h, dma_dur) + dma_dur;
    if (m_.has) {
      m_.io_dma_cycles->Add(dma_dur);
      m_.io_dma_transfers->Add();
    }
    emit(j, std::max(ni, dma_done));
  }
}

void McastDriver::StartSource(const Exec& exec) {
  const NodeId root = exec.plan.root;
  const Cycles now = engine_.Now();
  switch (exec.plan.scheme) {
    case SchemeKind::kUnicastBinomial:
      SendToChildren(exec, root, now);
      break;
    case SchemeKind::kNiKBinomial:
      // One host send; the smart NI replicates each packet (FPFS).
      SendMessage(exec, root, now, -1, [&](int j, Cycles ready) {
        ForwardAtNi(exec, root, j, ready);
      });
      break;
    case SchemeKind::kTreeWorm: {
      // Default: one worm addressing the full set; chunked plans carry
      // one region (and header size) per worm. All worms leave back to
      // back — still a single phase, one host send overhead.
      const auto& regions = exec.plan.tree_regions;
      const std::size_t worms = regions.empty() ? 1 : regions.size();
      const int nodes = sys_->num_nodes();
      if (m_.has) m_.worms->Add(static_cast<std::int64_t>(worms));
      SendMessage(exec, root, now, -1, [&](int j, Cycles ready) {
        for (std::size_t r = 0; r < worms; ++r) {
          Packet pkt = MakePacket(exec, j, HeaderKind::kTreeWorm,
                                  regions.empty()
                                      ? cfg_.headers.TreeWormFlits(nodes)
                                      : exec.plan.tree_region_header_flits[r]);
          pkt.tree_dests = NodeSet::FromVector(
              nodes, regions.empty() ? exec.plan.dests : regions[r]);
          network_->InjectFromNi(root, std::move(pkt), ready);
        }
      });
      break;
    }
    case SchemeKind::kPathWorm:
      SendWormsOf(exec, root, now);
      break;
  }
}

void McastDriver::ForwardAtNi(const Exec& exec, NodeId u, int j,
                              Cycles ready) {
  NodeRuntime& nr = node(u);
  const Cycles per_copy = HostParams::ni_forward_overhead;
  for (NodeId c : exec.plan.children[static_cast<std::size_t>(u)]) {
    // A copy leaves once the NI processor has enqueued it.
    const Cycles sent = nr.ni_cpu.Reserve(ready, per_copy) + per_copy;
    if (m_.has) {
      m_.ni_cycles->Add(per_copy);
      m_.ni_forward_copies->Add();
    }
    Packet pkt = MakePacket(exec, j, HeaderKind::kUnicast,
                            cfg_.headers.UnicastFlits());
    pkt.uni_dest = c;
    network_->InjectFromNi(u, std::move(pkt), sent);
  }
}

int McastDriver::SendToChildren(const Exec& exec, NodeId u,
                                Cycles earliest) {
  const auto& kids = exec.plan.children[static_cast<std::size_t>(u)];
  for (NodeId c : kids)
    SendMessage(exec, u, earliest, c, [&](int j, Cycles ready) {
      Packet pkt = MakePacket(exec, j, HeaderKind::kUnicast,
                              cfg_.headers.UnicastFlits());
      pkt.uni_dest = c;
      network_->InjectFromNi(u, std::move(pkt), ready);
    });
  return static_cast<int>(kids.size());
}

int McastDriver::SendWormsOf(const Exec& exec, NodeId sender,
                             Cycles earliest) {
  int sent = 0;
  const auto& worms = exec.plan.worms;
  for (std::size_t w = 0; w < worms.size(); ++w) {
    if (worms[w].sender != sender) continue;
    ++sent;
    SendMessage(exec, sender, earliest, static_cast<std::int32_t>(w),
                [&](int j, Cycles ready) {
                  Packet pkt = MakePacket(exec, j, HeaderKind::kPathWorm,
                                          worms[w].header_flits);
                  pkt.path = worms[w].route;
                  network_->InjectFromNi(sender, std::move(pkt), ready);
                });
  }
  if (m_.has) m_.worms->Add(sent);
  return sent;
}

void McastDriver::OnDeliver(NodeId n, const Packet& pkt, Cycles head,
                            Cycles tail) {
  Exec* exec = Find(pkt.mcast_id);
  if (exec == nullptr) {
    // Only a retired resilience family leaves stragglers (a redundant
    // repair still in flight when the last ack landed); the pristine
    // contract — every delivery belongs to a live multicast — stands.
    IRMC_ENSURE(cfg_.resilience.enabled);
    return;
  }
  HandlePacketAt(*exec, n, pkt, head, tail);
}

McastDriver::Exec& McastDriver::AcctOf(Exec& exec) {
  if (exec.parent < 0) return exec;
  Exec* parent = Find(exec.parent);
  IRMC_ENSURE(parent != nullptr);  // repairs retire with their parent
  return *parent;
}

void McastDriver::HandlePacketAt(Exec& exec, NodeId n, const Packet& pkt,
                                 Cycles head, Cycles tail) {
  // Delivery accounting rolls up to the original multicast; `exec` (a
  // repair wave or the original itself) keeps the forwarding duties.
  Exec& acct = AcctOf(exec);
  NodeState& st = acct.nstate[static_cast<std::size_t>(n)];
  if (cfg_.resilience.enabled) {
    // Receiver dedup: repair waves over-cover (a drop report's
    // destination set is an over-estimate, and repairs re-send whole
    // messages), so the NI swallows already-accepted packets.
    const auto bit =
        static_cast<std::size_t>(n) *
            static_cast<std::size_t>(acct.shape.num_packets) +
        static_cast<std::size_t>(pkt.pkt_index);
    if (st.delivered || acct.got[bit]) {
      if (m_.has) m_.r_duplicates->Add();
      return;
    }
    acct.got[bit] = true;
  }
  const bool first = (st.pkts == 0);
  ++st.pkts;
  IRMC_ENSURE(st.pkts <= acct.shape.num_packets);
  NodeRuntime& nr = node(n);
  const HostParams& hp = cfg_.host;

  // Per-message NI receive overhead on the first packet.
  const Cycles ni_done =
      first ? nr.ni_cpu.Reserve(head, hp.o_ni) + hp.o_ni : head;
  if (m_.has && first) m_.ni_cycles->Add(hp.o_ni);

  // Smart-NI forwarding happens at the NI, before/parallel to host DMA,
  // and a copy leaves no earlier than the packet's tail. A forwarding
  // node's phase costs both the receive and the send o_ni (paper Section
  // 4.2.1: "every communication phase incurs a receive overhead of o_n
  // and a send overhead of o_n"); the send-side setup is per message, on
  // the first packet.
  if (exec.plan.scheme == SchemeKind::kNiKBinomial &&
      !exec.plan.children[static_cast<std::size_t>(n)].empty()) {
    if (hp.ni_discipline == NiDiscipline::kFpfs) {
      const Cycles fwd_ready =
          first ? nr.ni_cpu.Reserve(ni_done, hp.o_ni) + hp.o_ni : ni_done;
      if (m_.has && first) m_.ni_cycles->Add(hp.o_ni);
      ForwardAtNi(exec, n, pkt.pkt_index, std::max(fwd_ready, tail));
    } else if (st.pkts == exec.shape.num_packets) {
      // Store-and-forward at message granularity: every packet's copies
      // are enqueued only once the whole message is at the NI (the
      // baseline FPFS was shown to beat).
      const Cycles fwd_ready = nr.ni_cpu.Reserve(ni_done, hp.o_ni) + hp.o_ni;
      if (m_.has) m_.ni_cycles->Add(hp.o_ni);
      for (int j = 0; j < exec.shape.num_packets; ++j)
        ForwardAtNi(exec, n, j, std::max(fwd_ready, tail));
    }
  }

  // DMA the packet up to host memory (packet fully at the NI first).
  const Cycles dma_dur = hp.DmaCycles(exec.shape.packet_flits);
  const Cycles dma_done =
      nr.io_bus.Reserve(std::max(tail, ni_done), dma_dur) + dma_dur;
  st.last_dma = std::max(st.last_dma, dma_done);
  if (m_.has) {
    m_.io_dma_cycles->Add(dma_dur);
    m_.io_dma_transfers->Add();
  }

  if (st.pkts == acct.shape.num_packets) {
    // Whole message in host memory: per-message host receive overhead.
    const Cycles delivered =
        nr.host_cpu.Reserve(st.last_dma, hp.o_host) + hp.o_host;
    if (m_.has) m_.host_cycles->Add(hp.o_host);
    const std::int64_t acct_id = acct.id;
    const std::int64_t wave_id = exec.id;
    engine_.ScheduleAt(delivered, [this, acct_id, wave_id, n, delivered]() {
      HandleDelivered(acct_id, wave_id, n, delivered);
    });
  }
}

void McastDriver::HandleDelivered(std::int64_t acct_id, std::int64_t wave_id,
                                  NodeId n, Cycles when) {
  Exec* found = Find(acct_id);
  IRMC_ENSURE(found != nullptr);
  Exec& exec = *found;
  NodeState& st = exec.nstate[static_cast<std::size_t>(n)];
  IRMC_ENSURE(!st.delivered);
  st.delivered = true;
  TraceHost(TraceKind::kHostDeliver, acct_id, n, -1);
  exec.result.deliveries.emplace_back(n, when);
  exec.result.completion = std::max(exec.result.completion, when);
  --exec.remaining;
  if (exec.delivered) exec.delivered(n, when);
  if (cfg_.resilience.enabled) {
    if (m_.has && resilience_ && resilience_->degraded())
      m_.r_degraded->Add();
    // Out-of-band delivery ack back to the root (modelled reliable).
    engine_.ScheduleAt(when + ResilienceParams::ack_delay,
                       [this, acct_id, n]() { OnAck(acct_id, n); });
  }

  // Forwarding duties after full receipt, per the plan of the wave whose
  // packet completed the message (for a repair, its re-planned subtree).
  // Each host-level forwarding step after a delivery is one
  // communication phase of the scheme.
  const Exec* wave = wave_id == acct_id ? &exec : Find(wave_id);
  int sent = 0;
  if (wave != nullptr && wave->plan.scheme == SchemeKind::kUnicastBinomial)
    sent = SendToChildren(*wave, n, when);
  if (wave != nullptr && wave->plan.scheme == SchemeKind::kPathWorm)
    sent = SendWormsOf(*wave, n, when);
  if (m_.has && sent > 0) m_.forward_phases->Add();

  if (exec.remaining == 0) {
    if (m_.has) {
      m_.completed->Add();
      m_.latency->Add(exec.result.completion - exec.result.start);
    }
    if (exec.done) exec.done(exec.result);
    // Defer destruction: we may still be inside this exec's call chain.
    // In resilience mode the family instead retires when the last ack
    // returns to the root (CleanupFamily).
    if (!cfg_.resilience.enabled) {
      engine_.ScheduleAfter(0, [this, acct_id]() {
        if (Exec* finished = Find(acct_id)) Retire(*finished);
      });
    }
  }
}

void McastDriver::OnDrop(const Packet& pkt, Cycles now, SwitchId where) {
  if (tracer_)
    tracer_->Record(TraceEvent{now, TraceKind::kDrop, pkt.mcast_id,
                               pkt.pkt_index, pkt.src, where});
  if (m_.has) m_.r_drops->Add();
  Exec* exec = Find(pkt.mcast_id);
  if (exec == nullptr) return;  // family already retired
  Exec& acct = AcctOf(*exec);
  if (acct.repair_pending) return;  // a repair chain is already running
  acct.repair_pending = true;
  // Expedite the first repair: wait out fault detection and any pending
  // reconfiguration (a repair planned on the broken tables would mostly
  // drop again), then re-send. Later rounds come from the backoff timer.
  Cycles at = now + ResilienceParams::detection_delay;
  if (resilience_) at = std::max(at, resilience_->SafeRepairTime(now));
  const std::int64_t id = acct.id;
  engine_.ScheduleAt(at, [this, id]() { RepairRound(id); });
}

void McastDriver::OnAck(std::int64_t id, NodeId n) {
  Exec* found = Find(id);
  if (found == nullptr) return;
  Exec& exec = *found;
  if (exec.acked[static_cast<std::size_t>(n)]) return;
  exec.acked[static_cast<std::size_t>(n)] = true;
  ++exec.acked_count;
  if (m_.has) m_.r_acks->Add();
  if (exec.acked_count == exec.result.num_dests) CleanupFamily(id);
}

void McastDriver::RepairRound(std::int64_t id) {
  Exec* found = Find(id);
  if (found == nullptr) return;
  Exec& acct = *found;
  // Unacked = possibly-lost. A destination that delivered but whose ack
  // is still in flight gets harmlessly re-covered (its NI dedups).
  std::vector<NodeId> missing;
  for (NodeId n : acct.plan.dests)
    if (!acct.acked[static_cast<std::size_t>(n)]) missing.push_back(n);
  if (missing.empty()) return;  // chain ends; family retires on last ack
  ++acct.attempts;
  IRMC_ENSURE(acct.attempts <= ResilienceParams::max_retransmits &&
              "resilience: retransmit cap exceeded — faults outran recovery");
  if (m_.has) m_.r_retransmits->Add();
  LaunchRepairWave(acct, missing);
  // Next round after an exponentially backed-off timeout (no-op once
  // everything acks).
  const Cycles wait = ResilienceParams::retransmit_timeout
                      << std::min(acct.attempts - 1, 20);
  engine_.ScheduleAfter(wait, [this, id]() { RepairRound(id); });
}

void McastDriver::LaunchRepairWave(Exec& acct,
                                   const std::vector<NodeId>& missing) {
  // Scheme-aware repair: re-plan on the *current* System (post-swap
  // tables), so a k-binomial repair is a fresh subtree over the missing
  // set and a worm repair is a re-planned, re-injected worm.
  const auto scheme = MakeScheme(acct.plan.scheme, cfg_.host);
  Exec& wave = NewExec(
      scheme->Plan(*sys_, acct.plan.root, missing, acct.shape, cfg_.headers),
      acct.shape, engine_.Now(), acct.id);
  acct.repairs.push_back(wave.id);
  StartSource(wave);
}

void McastDriver::CleanupFamily(std::int64_t id) {
  // Defer: the last ack may still be inside this family's call chain.
  engine_.ScheduleAfter(0, [this, id]() {
    Exec* exec = Find(id);
    if (exec == nullptr) return;
    for (std::int64_t r : exec->repairs)
      if (Exec* wave = Find(r)) Retire(*wave);
    Retire(*exec);
  });
}

}  // namespace irmc
