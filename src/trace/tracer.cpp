#include "trace/tracer.hpp"

#include <cstring>

namespace irmc {

const char* ToString(TraceKind kind) {
  switch (kind) {
    case TraceKind::kSendStart: return "send-start";
    case TraceKind::kInject: return "inject";
    case TraceKind::kHeadArrive: return "head-arrive";
    case TraceKind::kRoute: return "route";
    case TraceKind::kBranch: return "branch";
    case TraceKind::kNiDeliver: return "ni-deliver";
    case TraceKind::kHostDeliver: return "host-deliver";
    case TraceKind::kBlockBegin: return "block-begin";
    case TraceKind::kBlockEnd: return "block-end";
  }
  return "?";
}

bool TraceKindFromString(const char* name, TraceKind* out) {
  for (TraceKind k :
       {TraceKind::kSendStart, TraceKind::kInject, TraceKind::kHeadArrive,
        TraceKind::kRoute, TraceKind::kBranch, TraceKind::kNiDeliver,
        TraceKind::kHostDeliver, TraceKind::kBlockBegin,
        TraceKind::kBlockEnd}) {
    if (std::strcmp(name, ToString(k)) == 0) {
      *out = k;
      return true;
    }
  }
  return false;
}

void Tracer::Append(const Tracer& other) {
  other.ForEach([this](const TraceEvent& e) { Push(e); });
  // Losses in the source (per-trial ring caps) carry over, so the
  // merged tracer's dropped()/total_recorded() reflect the whole run.
  dropped_ += other.dropped_;
  recorded_ += other.dropped_;
}

void Tracer::Clear() {
  events_.clear();
  head_ = 0;
  recorded_ = 0;
  dropped_ = 0;
}

std::vector<TraceEvent> Tracer::Events() const {
  std::vector<TraceEvent> out;
  out.reserve(events_.size());
  ForEach([&out](const TraceEvent& e) { out.push_back(e); });
  return out;
}

std::vector<TraceEvent> Tracer::Filter(
    const std::function<bool(const TraceEvent&)>& pred) const {
  std::vector<TraceEvent> out;
  ForEach([&](const TraceEvent& e) {
    if (pred(e)) out.push_back(e);
  });
  return out;
}

std::vector<TraceEvent> Tracer::OfMulticast(std::int64_t mcast_id,
                                            std::int32_t trial) const {
  return Filter([mcast_id, trial](const TraceEvent& e) {
    return e.mcast_id == mcast_id && (trial < 0 || e.trial == trial);
  });
}

void Tracer::Dump(std::FILE* out) const {
  ForEach([out](const TraceEvent& e) {
    std::fprintf(out,
                 "%8lld  %-12s trial=%d mcast=%lld pkt=%d actor=%d detail=%d\n",
                 static_cast<long long>(e.time), ToString(e.kind), e.trial,
                 static_cast<long long>(e.mcast_id), e.pkt_index, e.actor,
                 e.detail);
  });
}

}  // namespace irmc
