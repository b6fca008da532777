#include "trace/export.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <map>
#include <tuple>
#include <vector>

#include "common/build_info.hpp"
#include "common/json.hpp"

namespace irmc {
namespace {

/// Every formatted record fits comfortably in this.
constexpr std::size_t kLineMax = 256;

std::string EventJsonLine(const TraceEvent& e) {
  char buf[kLineMax];
  std::snprintf(buf, sizeof(buf),
                "{\"trial\":%d,\"time\":%lld,\"kind\":\"%s\",\"mcast\":%lld,"
                "\"pkt\":%d,\"actor\":%d,\"detail\":%d}\n",
                e.trial, static_cast<long long>(e.time), ToString(e.kind),
                static_cast<long long>(e.mcast_id), e.pkt_index, e.actor,
                e.detail);
  return buf;
}

/// Reads member `key` of `record` into `out` when it is an integer that
/// fits `T` and that a double holds exactly (json::Value keeps numbers
/// as doubles, so a 64-bit field stops at 2^53).
template <class T>
bool IntField(const json::Value& record, const char* key, T* out) {
  constexpr double kExact = 9007199254740992.0;  // 2^53
  const double lo = std::max<double>(std::numeric_limits<T>::min(), -kExact);
  const double hi = std::min<double>(std::numeric_limits<T>::max(), kExact);
  const json::Value* v = record.Find(key);
  if (v == nullptr || !v->IsNumber() || v->number != std::floor(v->number) ||
      v->number < lo || v->number > hi)
    return false;
  *out = static_cast<T>(v->number);
  return true;
}

bool IsNodeActor(const TraceEvent& e) {
  switch (e.kind) {
    case TraceKind::kSendStart:
    case TraceKind::kInject:
    case TraceKind::kNiDeliver:
    case TraceKind::kHostDeliver:
      return true;
    case TraceKind::kHeadArrive:
    case TraceKind::kRoute:
    case TraceKind::kBranch:
      return false;
    case TraceKind::kBlockBegin:
    case TraceKind::kBlockEnd:
      // Block events follow the channel: switch output ports carry the
      // port in `detail`, injection channels carry -1.
      return e.detail < 0;
  }
  return true;
}

/// Chrome "thread" id for an actor: switches on even tids, nodes on
/// odd, so a switch and a node with the same index get distinct tracks.
std::int64_t ChromeTid(const TraceEvent& e) {
  return IsNodeActor(e) ? e.actor * 2LL + 1 : e.actor * 2LL;
}

}  // namespace

std::string ToJsonLines(const Tracer& tracer) {
  std::string out;
  tracer.ForEach([&out](const TraceEvent& e) { out += EventJsonLine(e); });
  return out;
}

std::string ToChromeTrace(const Tracer& tracer) {
  std::string out = "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n";
  bool first = true;
  auto emit = [&out, &first](const char* record) {
    if (!first) out += ",\n";
    first = false;
    out += record;
  };
  char buf[kLineMax];

  // Build provenance as a metadata record, so a Perfetto-loaded trace
  // still names the producing git SHA / compiler / build type.
  {
    const std::string build =
        "{\"ph\":\"M\",\"pid\":0,\"name\":\"irmc_build\",\"args\":" +
        ToJson(GetBuildInfo()) + '}';
    emit(build.c_str());
  }

  // Metadata first: name every process (trial) and track (switch/node),
  // collected into maps so the order is deterministic.
  std::map<std::int32_t, bool> trials;
  std::map<std::pair<std::int32_t, std::int64_t>, std::string> tracks;
  tracer.ForEach([&](const TraceEvent& e) {
    trials[e.trial] = true;
    char name[kLineMax];
    std::snprintf(name, sizeof(name), "%s %d",
                  IsNodeActor(e) ? "node" : "switch", e.actor);
    tracks[{e.trial, ChromeTid(e)}] = name;
  });
  for (const auto& [trial, unused] : trials) {
    (void)unused;
    std::snprintf(buf, sizeof(buf),
                  "{\"ph\":\"M\",\"pid\":%d,\"name\":\"process_name\","
                  "\"args\":{\"name\":\"trial %d\"}}",
                  trial, trial);
    emit(buf);
  }
  for (const auto& [key, name] : tracks) {
    std::snprintf(buf, sizeof(buf),
                  "{\"ph\":\"M\",\"pid\":%d,\"tid\":%lld,"
                  "\"name\":\"thread_name\",\"args\":{\"name\":\"%s\"}}",
                  key.first, static_cast<long long>(key.second), name.c_str());
    emit(buf);
  }

  // Events in stream order. Block pairs become complete "X" slices
  // (emitted when the end closes the pair); everything else an instant.
  using Key =
      std::tuple<std::int32_t, std::int32_t, std::int32_t, std::int64_t, int>;
  std::map<Key, std::vector<Cycles>> open;
  tracer.ForEach([&](const TraceEvent& e) {
    const Key key{e.trial, e.actor, e.detail, e.mcast_id, e.pkt_index};
    if (e.kind == TraceKind::kBlockBegin) {
      open[key].push_back(e.time);
      return;
    }
    if (e.kind == TraceKind::kBlockEnd) {
      auto it = open.find(key);
      if (it == open.end() || it->second.empty()) return;  // orphan (ring cap)
      const Cycles begin = it->second.back();
      it->second.pop_back();
      std::snprintf(buf, sizeof(buf),
                    "{\"ph\":\"X\",\"pid\":%d,\"tid\":%lld,\"ts\":%lld,"
                    "\"dur\":%lld,\"name\":\"blocked\",\"cat\":\"block\","
                    "\"args\":{\"mcast\":%lld,\"pkt\":%d,\"port\":%d}}",
                    e.trial, static_cast<long long>(ChromeTid(e)),
                    static_cast<long long>(begin),
                    static_cast<long long>(e.time - begin),
                    static_cast<long long>(e.mcast_id), e.pkt_index, e.detail);
      emit(buf);
      return;
    }
    std::snprintf(buf, sizeof(buf),
                  "{\"ph\":\"i\",\"s\":\"t\",\"pid\":%d,\"tid\":%lld,"
                  "\"ts\":%lld,\"name\":\"%s\",\"cat\":\"event\","
                  "\"args\":{\"mcast\":%lld,\"pkt\":%d,\"detail\":%d}}",
                  e.trial, static_cast<long long>(ChromeTid(e)),
                  static_cast<long long>(e.time), ToString(e.kind),
                  static_cast<long long>(e.mcast_id), e.pkt_index, e.detail);
    emit(buf);
  });

  out += "\n]}\n";
  return out;
}

std::string SerializeTraceForPath(const Tracer& tracer,
                                  const std::string& path) {
  const auto dot = path.rfind('.');
  const std::string ext = dot == std::string::npos ? "" : path.substr(dot);
  // The JSONL file form opens with a build-stamp line (the Chrome form
  // embeds the same struct as a metadata record); ParseTraceJsonLines
  // skips it, so round-trips are unaffected.
  if (ext == ".jsonl")
    return "{\"kind\":\"build\",\"value\":" + ToJson(GetBuildInfo()) + "}\n" +
           ToJsonLines(tracer);
  return ToChromeTrace(tracer);
}

bool ParseTraceJsonLines(const std::string& text, Tracer* out,
                         std::string* error) {
  std::size_t pos = 0;
  int lineno = 0;
  while (pos < text.size()) {
    std::size_t nl = text.find('\n', pos);
    if (nl == std::string::npos) nl = text.size();
    const std::string line = text.substr(pos, nl - pos);
    pos = nl + 1;
    ++lineno;
    if (line.empty()) continue;
    // Build-stamp header line (SerializeTraceForPath) — provenance, not
    // an event.
    if (line.rfind("{\"kind\":\"build\"", 0) == 0) continue;

    json::Value record;
    TraceEvent e;
    // Exactly the seven fields EventJsonLine writes, each an integer
    // that fits its field or a known kind name.
    const bool ok =
        json::Parse(line, &record, nullptr) && record.object.size() == 7 &&
        IntField(record, "trial", &e.trial) &&
        IntField(record, "time", &e.time) &&
        IntField(record, "mcast", &e.mcast_id) &&
        IntField(record, "pkt", &e.pkt_index) &&
        IntField(record, "actor", &e.actor) &&
        IntField(record, "detail", &e.detail) &&
        TraceKindFromString(record.StrAt("kind", "").c_str(), &e.kind);
    if (!ok) {
      if (error != nullptr) {
        char buf[kLineMax];
        std::snprintf(buf, sizeof(buf), "line %d: malformed trace record",
                      lineno);
        *error = buf;
      }
      return false;
    }
    out->RecordKeepingTrial(e);
  }
  return true;
}

}  // namespace irmc
