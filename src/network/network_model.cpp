#include "network/network_model.hpp"

#include <algorithm>
#include <array>

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
                           const std::string& prefix,
                           const char* flits_counter)
    : engine_(engine),
      sys_(&sys),
      params_(params),
      deliver_(std::move(deliver)),
      tracer_(tracer),
      metrics_(metrics),
      ports_(sys.graph.ports_per_switch()),
      prefix_(prefix + "."),
      num_out_(sys.num_switches() * ports_) {
  IRMC_EXPECT(deliver_ != nullptr);
  if (metrics_) {
    m_flits_ = &metrics_->GetCounter(prefix_ + flits_counter);
    m_switched_ = &metrics_->GetCounter(prefix_ + "packets_switched");
    m_injected_ = &metrics_->GetCounter(prefix_ + "packets_injected");
    m_replications_ = &metrics_->GetCounter(prefix_ + "replications");
    m_host_deliveries_ = &metrics_->GetCounter(prefix_ + "host_deliveries");
    m_blocked_ = &metrics_->GetCounter(prefix_ + "blocked_cycles");
    m_fanout_ = &metrics_->GetHistogram(prefix_ + "route_fanout");
    m_header_flits_ = &metrics_->GetHistogram(prefix_ + "header_flits");
  }
  channels_.resize(static_cast<std::size_t>(num_out_ + sys.num_nodes()));
  // Switch output channels lead to a peer switch's input port or to a
  // host; free ports stay unwired and are never used.
  for (SwitchId s = 0; s < sys.num_switches(); ++s) {
    for (PortId p = 0; p < ports_; ++p) {
      Channel& c = channel(PortIdx(s, p));
      const Port& pt = sys.graph.port(s, p);
      if (pt.kind == PortKind::kSwitch)
        c.dst_port = PortIdx(pt.peer_switch, pt.peer_port);
      else if (pt.kind == PortKind::kHost)
        c.dst_host = pt.host;
    }
  }
  // Injection channels: NI -> the host port's input buffer at the switch.
  for (NodeId n = 0; n < sys.num_nodes(); ++n) {
    const HostAttachment& at = sys.graph.host(n);
    channel(InjChannel(n)).dst_port = PortIdx(at.sw, at.port);
  }
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
  for (SwitchId s = 0; s < sys_->num_switches(); ++s) {
    for (PortId p = 0; p < ports_; ++p) {
      if (sys_->graph.port(s, p).kind == PortKind::kFree) continue;
      const Channel& c = channel(PortIdx(s, p));
      LinkLoadReport r;
      r.sw = s;
      r.port = p;
      r.to_host = c.dst_host != kInvalidNode;
      r.node = c.dst_host;
      r.flits = ChannelFlits(PortIdx(s, p));
      r.utilization = Utilization(PortIdx(s, p), now);
      out.push_back(r);
    }
  }
  for (NodeId n = 0; n < sys_->num_nodes(); ++n) {
    LinkLoadReport r;
    r.node = n;
    r.flits = ChannelFlits(InjChannel(n));
    r.utilization = Utilization(InjChannel(n), now);
    out.push_back(r);
  }
  return out;
}

bool NetworkModel::IsSwitchLink(int channel_id) const {
  // Judged on the current System, as LinkReports does: a link an Autonet
  // swap removed no longer counts.
  if (IsInjection(channel_id) || channel(channel_id).dst_host != kInvalidNode)
    return false;
  const Port& pt =
      sys_->graph.port(SwitchOfPort(channel_id), channel_id % ports_);
  return pt.kind != PortKind::kFree;
}

double NetworkModel::Utilization(int channel_id, Cycles now) const {
  const double elapsed = now > 0 ? static_cast<double>(now) : 1.0;
  return static_cast<double>(ChannelFlits(channel_id)) / elapsed;
}

double NetworkModel::MaxLinkUtilization(Cycles now) const {
  double best = 0.0;
  for (int cid = 0; cid < num_out_; ++cid)
    if (IsSwitchLink(cid)) best = std::max(best, Utilization(cid, now));
  return best;
}

void NetworkModel::CollectMetrics(Cycles now) {
  if (!metrics_) return;
  Counter& busy = metrics_->GetCounter(prefix_ + "link_busy_cycles");
  Histogram& util = metrics_->GetHistogram(prefix_ + "link_utilization_pct");
  double best = 0.0;
  for (std::size_t cid = 0; cid < channels_.size(); ++cid)
    busy.Add(ChannelFlits(static_cast<int>(cid)));
  for (int cid = 0; cid < num_out_; ++cid) {
    if (!IsSwitchLink(cid)) continue;
    const double u = Utilization(cid, now);
    util.Add(static_cast<std::int64_t>(100.0 * u));
    best = std::max(best, u);
  }
  metrics_->GetGauge(prefix_ + "max_link_utilization", GaugeMode::kMax)
      .Set(best);
  CollectEngineMetrics();
}

void NetworkModel::FailLink(SwitchId sw, PortId port) {
  const Port& pt = sys_->graph.port(sw, port);
  IRMC_EXPECT(pt.kind == PortKind::kSwitch);
  std::array<int, 2> dead{};
  std::size_t n_dead = 0;
  for (int cid : {PortIdx(sw, port), PortIdx(pt.peer_switch, pt.peer_port)}) {
    Channel& c = channel(cid);
    if (c.dead_since != kNever) continue;
    c.dead_since = engine_.Now();
    dead[n_dead++] = cid;
  }
  CutChannels(std::span<const int>(dead.data(), n_dead));
}

void NetworkModel::SwapSystem(const System& sys) {
  IRMC_EXPECT(sys.num_switches() == sys_->num_switches());
  IRMC_EXPECT(sys.graph.ports_per_switch() == ports_);
  IRMC_EXPECT(sys.num_nodes() == sys_->num_nodes());
  sys_ = &sys;
}

void NetworkModel::ReportDrop(const Packet& pkt, SwitchId where) {
  IRMC_ENSURE(drop_ != nullptr &&
              "packet truncated or unroutable but no drop handler is "
              "installed");
  drop_(pkt, engine_.Now(), where);
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
