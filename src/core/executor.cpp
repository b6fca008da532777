#include "core/executor.hpp"

#include <algorithm>
#include <bit>
#include <span>

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
    : engine_(engine), sys_(sys), cfg_(cfg), tracer_(tracer) {
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
}

std::int64_t McastDriver::Launch(McastPlan plan, Cycles when, DoneFn done,
                                 DeliveredFn delivered) {
  IRMC_EXPECT(!plan.dests.empty());
  const MessageShape shape = plan.shape.value_or(cfg_.message);
  IRMC_EXPECT_MSG(shape.Valid(), "message of %d packets x %d flits",
                  shape.num_packets, shape.packet_flits);
  Exec& exec = NewExec(std::move(plan), shape, when);
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
                                        Cycles start) {
  // The first index holds as many live multicasts as there are nodes.
  if (index_.empty())
    index_.assign(std::bit_ceil(static_cast<std::size_t>(sys_.num_nodes())),
                  nullptr);
  Exec& exec = TakeExec(plan.dests.size());
  exec.id = next_id_++;
  Index(exec);
  ++live_;
  exec.plan = std::move(plan);
  exec.shape = shape;
  exec.dma = cfg_.host.DmaCycles(shape.packet_flits);
  exec.start = start;
  exec.remaining = static_cast<int>(exec.plan.dests.size());
  exec.result.id = exec.id;
  exec.result.start = start;
  exec.result.completion = 0;
  exec.result.num_dests = exec.remaining;
  exec.result.deliveries.clear();
  exec.next_free = nullptr;
  exec.result.deliveries.reserve(std::bit_ceil(exec.plan.dests.size()));
  exec.nstate.assign(static_cast<std::size_t>(sys_.num_nodes()), NodeState{});
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
  const Cycles dma_dur = exec.dma;
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
      const CsrArray<NodeId>& regions = exec.plan.tree_regions;
      const bool chunked = regions.rows() > 0;
      const std::size_t worms = chunked ? regions.rows() : 1;
      const int nodes = sys_.num_nodes();
      if (m_.has) m_.worms->Add(static_cast<std::int64_t>(worms));
      SendMessage(exec, root, now, -1, [&](int j, Cycles ready) {
        for (std::size_t r = 0; r < worms; ++r) {
          Packet pkt = MakePacket(exec, j, HeaderKind::kTreeWorm,
                                  chunked ? exec.plan.tree_region_header_flits
                                          : cfg_.headers.TreeWormFlits(nodes));
          pkt.tree_dests = NodeSet(nodes);
          for (NodeId d : chunked ? regions.Row(r)
                                  : std::span<const NodeId>(exec.plan.dests))
            pkt.tree_dests.Set(d);
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
  for (NodeId c : exec.plan.children.Row(static_cast<std::size_t>(u))) {
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
  const std::span<const NodeId> kids =
      exec.plan.children.Row(static_cast<std::size_t>(u));
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
                  // The Exec keeps the plan in place until it retires.
                  pkt.path = &exec.plan.paths;
                  pkt.path_cursor = worms[w].step_begin;
                  network_->InjectFromNi(sender, std::move(pkt), ready);
                });
  }
  if (m_.has) m_.worms->Add(sent);
  return sent;
}

void McastDriver::OnDeliver(NodeId n, const Packet& pkt, Cycles head,
                            Cycles tail) {
  // The network is lossless: every delivery belongs to a live multicast.
  Exec* exec = Find(pkt.mcast_id);
  IRMC_ENSURE_MSG(exec != nullptr,
                  "delivery for multicast %lld, which the driver does not hold",
                  static_cast<long long>(pkt.mcast_id));
  HandlePacketAt(*exec, n, pkt, head, tail);
}

void McastDriver::HandlePacketAt(Exec& exec, NodeId n, const Packet& pkt,
                                 Cycles head, Cycles tail) {
  NodeState& st = exec.nstate[static_cast<std::size_t>(n)];
  const bool first = (st.pkts == 0);
  ++st.pkts;
  IRMC_ENSURE(st.pkts <= exec.shape.num_packets);
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
      !exec.plan.children.Row(static_cast<std::size_t>(n)).empty()) {
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
  const Cycles dma_dur = exec.dma;
  const Cycles dma_done =
      nr.io_bus.Reserve(std::max(tail, ni_done), dma_dur) + dma_dur;
  st.last_dma = std::max(st.last_dma, dma_done);
  if (m_.has) {
    m_.io_dma_cycles->Add(dma_dur);
    m_.io_dma_transfers->Add();
  }

  if (st.pkts == exec.shape.num_packets) {
    // Whole message in host memory: per-message host receive overhead.
    const Cycles delivered =
        nr.host_cpu.Reserve(st.last_dma, hp.o_host) + hp.o_host;
    if (m_.has) m_.host_cycles->Add(hp.o_host);
    engine_.ScheduleAt(delivered, [this, id = exec.id, n, delivered]() {
      HandleDelivered(id, n, delivered);
    });
  }
}

void McastDriver::HandleDelivered(std::int64_t id, NodeId n, Cycles when) {
  Exec* found = Find(id);
  IRMC_ENSURE(found != nullptr);
  Exec& exec = *found;
  NodeState& st = exec.nstate[static_cast<std::size_t>(n)];
  IRMC_ENSURE(!st.delivered);
  st.delivered = true;
  TraceHost(TraceKind::kHostDeliver, id, n, -1);
  exec.result.deliveries.emplace_back(n, when);
  exec.result.completion = std::max(exec.result.completion, when);
  --exec.remaining;
  if (exec.delivered) exec.delivered(n, when);

  // Forwarding duties after full receipt. Each host-level forwarding
  // step after a delivery is one communication phase of the scheme.
  int sent = 0;
  if (exec.plan.scheme == SchemeKind::kUnicastBinomial)
    sent = SendToChildren(exec, n, when);
  if (exec.plan.scheme == SchemeKind::kPathWorm)
    sent = SendWormsOf(exec, n, when);
  if (m_.has && sent > 0) m_.forward_phases->Add();

  if (exec.remaining == 0) {
    if (m_.has) {
      m_.completed->Add();
      m_.latency->Add(exec.result.completion - exec.result.start);
    }
    if (exec.done) exec.done(exec.result);
    // Defer destruction: we may still be inside this exec's call chain.
    engine_.ScheduleAfter(0, [this, id]() {
      if (Exec* finished = Find(id)) Retire(*finished);
    });
  }
}

}  // namespace irmc
