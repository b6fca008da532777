#include "network/network_model.hpp"

#include <algorithm>

#include "common/expect.hpp"
#include "network/fabric.hpp"
#include "network/flit_engine.hpp"

namespace irmc {

const char* ToString(EngineKind kind) {
  switch (kind) {
    case EngineKind::kVct: return "vct";
    case EngineKind::kFlit: return "flit";
  }
  return "?";
}

bool EngineKindFromString(const std::string& name, EngineKind* out) {
  for (EngineKind k : {EngineKind::kVct, EngineKind::kFlit}) {
    if (name == ToString(k)) {
      *out = k;
      return true;
    }
  }
  return false;
}

NetworkModel::NetworkModel(Engine& engine, const System& sys,
                           const NetParams& params, DeliverFn deliver,
                           Tracer* tracer, MetricsRegistry* metrics,
                           const MetricFamily& family)
    : engine_(engine),
      sys_(sys),
      params_(params),
      deliver_(std::move(deliver)),
      tracer_(tracer),
      metrics_(metrics),
      ports_(sys.graph.ports_per_switch()),
      family_(&family),
      num_out_(sys.wiring.num_out()),
      channels_(sys.wiring.num_channels()) {
  IRMC_EXPECT(deliver_ != nullptr);
  if (metrics_) {
    const MetricSlots slots = metrics_->Bind(family_->hot);
    m_flits_ = &slots.counter(0);
    m_switched_ = &slots.counter(1);
    m_injected_ = &slots.counter(2);
    m_replications_ = &slots.counter(3);
    m_host_deliveries_ = &slots.counter(4);
    m_blocked_ = &slots.counter(5);
    m_fanout_ = &slots.histogram(6);
    m_header_flits_ = &slots.histogram(7);
  }
  // Size the kernel's event arena from the network: an event per
  // channel (a single multicast keeps fewer than that pending).
  engine_.ReserveEvents(channels_.size());
}

void NetworkModel::InjectFromNi(NodeId n, Packet pkt, Cycles ready) {
  IRMC_EXPECT(pkt.WireFlits() > 0);
  if (params_.record_routes) pkt.hop_log.Start();
  Trace(TraceKind::kInject, pkt, n, -1);
  if (m_injected_) {
    m_injected_->Add();
    m_header_flits_->Add(pkt.header_flits);
  }
  QueueInjection(n, std::move(pkt), ready);
}

std::int64_t NetworkModel::flits_sent() const {
  std::int64_t total = 0;
  for (std::size_t cid = 0; cid < channels_.size(); ++cid)
    total += ChannelFlits(static_cast<int>(cid));
  return total;
}

std::vector<LinkLoadReport> NetworkModel::LinkReports(Cycles now) const {
  std::vector<LinkLoadReport> out;
  out.reserve(channels_.size());
  for (SwitchId s = 0; s < sys_.num_switches(); ++s) {
    for (PortId p = 0; p < ports_; ++p) {
      if (sys_.graph.port(s, p).kind == PortKind::kFree) continue;
      const ChannelEnd& end = wire(PortIdx(s, p));
      LinkLoadReport r;
      r.sw = s;
      r.port = p;
      r.to_host = end.dst_host != kInvalidNode;
      r.node = end.dst_host;
      r.flits = ChannelFlits(PortIdx(s, p));
      r.utilization = Utilization(r.flits, now);
      out.push_back(r);
    }
  }
  for (NodeId n = 0; n < sys_.num_nodes(); ++n) {
    LinkLoadReport r;
    r.node = n;
    r.flits = ChannelFlits(InjChannel(n));
    r.utilization = Utilization(r.flits, now);
    out.push_back(r);
  }
  return out;
}

double NetworkModel::Utilization(std::int64_t flits, Cycles now) {
  const double elapsed = now > 0 ? static_cast<double>(now) : 1.0;
  return static_cast<double>(flits) / elapsed;
}

double NetworkModel::MaxLinkUtilization(Cycles now) const {
  // A link that carried nothing has utilization 0, the starting best.
  double best = 0.0;
  const ChannelWiring& links = sys_.wiring;
  for (int cid = touched_; cid != -1; cid = channel(cid).next_touched)
    if (links[cid].switch_link)
      best = std::max(best, Utilization(ChannelFlits(cid), now));
  return best;
}

void NetworkModel::CollectMetrics(Cycles now) {
  if (!metrics_) return;
  const MetricSlots slots = metrics_->Bind(family_->fold);
  Counter& busy = slots.counter(0);
  Histogram& util = slots.histogram(1);
  Gauge& max_util = slots.gauge(2);
  // Only listed channels carried flits. The fold sums, bins and takes a
  // max, so the list's order does not matter.
  const ChannelWiring& links = sys_.wiring;
  std::int64_t busy_cycles = 0;
  int touched_links = 0;
  double best = 0.0;
  for (int cid = touched_; cid != -1; cid = channel(cid).next_touched) {
    const std::int64_t flits = ChannelFlits(cid);
    busy_cycles += flits;
    if (!links[cid].switch_link) continue;
    ++touched_links;
    const double u = Utilization(flits, now);
    util.Add(static_cast<std::int64_t>(100.0 * u));
    best = std::max(best, u);
  }
  busy.Add(busy_cycles);
  util.Add(0, links.switch_links() - touched_links);  // the links left idle
  max_util.Set(best);
  CollectEngineMetrics();
}

void NetworkModel::ChannelActor(int channel_id, std::int32_t* actor,
                                std::int32_t* detail) const {
  if (!IsInjection(channel_id)) {
    *actor = channel_id / ports_;
    *detail = channel_id % ports_;
  } else {
    *actor = channel_id - num_out_;
    *detail = -1;
  }
}

std::unique_ptr<NetworkModel> MakeNetworkModel(
    EngineKind kind, Engine& engine, const System& sys,
    const NetParams& params, NetworkModel::DeliverFn deliver, Tracer* tracer,
    MetricsRegistry* metrics) {
  switch (kind) {
    case EngineKind::kVct:
      return std::make_unique<Fabric>(engine, sys, params, std::move(deliver),
                                      tracer, metrics);
    case EngineKind::kFlit:
      return std::make_unique<FlitEngine>(engine, sys, params,
                                          std::move(deliver), tracer, metrics);
  }
  IRMC_ENSURE(false && "unknown engine kind");
  return nullptr;
}

}  // namespace irmc
