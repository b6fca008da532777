// Structured event tracing.
//
// The fabric, flit engine, and executor emit TraceEvents through an
// optional Tracer; a null tracer costs one branch at every emit site.
// Traces serve debugging ("why did this worm take that port?"), the
// latency-breakdown and blocking-attribution analyses (trace/analysis),
// the Chrome-trace / JSONL exporters (trace/export), and tests that
// assert causality (a packet's head arrives before it is routed, every
// branch follows a route decision, ...).
//
// Parallel-safety contract: a Tracer is single-threaded state. Each
// Trial (core/trial.hpp) owns its own Tracer, stamped with the trial
// index; TrialOutcome::Merge appends tracers in trial-index order, so a
// traced parallel sweep produces a byte-identical event stream for any
// IRMC_THREADS value. Tracing therefore never forces serial execution.
//
// Ring-buffer mode: constructing with a non-zero capacity keeps only
// the most recent `capacity` events (oldest overwritten first);
// `dropped()` reports how many were lost. Analyses detect incomplete
// traces (trace/analysis reports the missing event kind).
#pragma once

#include <cstdint>
#include <cstdio>
#include <functional>
#include <vector>

#include "common/types.hpp"

namespace irmc {

enum class TraceKind : std::uint8_t {
  kSendStart,      ///< host begins a message send (actor = node)
  kInject,         ///< packet queued on an injection channel (actor = node)
  kHeadArrive,     ///< worm head reaches a switch input (actor = switch)
  kRoute,          ///< routing decision made (actor = switch)
  kBranch,         ///< replica forwarded through a port (actor = switch)
  kNiDeliver,      ///< tail fully arrived at a node's NI (actor = node)
  kHostDeliver,    ///< message complete at host level (actor = node)
  kBlockBegin,     ///< transmission held by a busy/backpressured channel
  kBlockEnd,       ///< end of the stall (same actor/detail as its begin)
};

const char* ToString(TraceKind kind);

/// Inverse of ToString. Returns false (and leaves `out` untouched) for
/// unknown names.
bool TraceKindFromString(const char* name, TraceKind* out);

struct TraceEvent {
  Cycles time = 0;
  TraceKind kind = TraceKind::kInject;
  std::int64_t mcast_id = -1;
  int pkt_index = 0;
  /// Node for host/NI events, switch for fabric events. Block events
  /// follow the channel: switch for output channels (detail = port),
  /// node for injection channels (detail = -1).
  std::int32_t actor = -1;
  /// Port for kBranch/kBlock*, destination/child node where meaningful,
  /// branch count for kRoute; -1 otherwise.
  std::int32_t detail = -1;
  /// Trial index the event was recorded in (0 for standalone tracers).
  /// Stamped by Record from set_trial; multicast ids are per-trial, so
  /// (trial, mcast_id) identifies one multicast in a merged stream.
  std::int32_t trial = 0;
};

class Tracer {
 public:
  Tracer() = default;
  /// capacity > 0 bounds the tracer to a ring of that many events (the
  /// most recent are kept); 0 means unbounded.
  explicit Tracer(std::size_t capacity) : capacity_(capacity) {}

  /// Trial index stamped onto subsequently recorded events.
  void set_trial(std::int32_t trial) { trial_ = trial; }
  std::int32_t trial() const { return trial_; }

  void Record(const TraceEvent& event) {
    TraceEvent e = event;
    e.trial = trial_;
    Push(e);
  }

  /// Record preserving the event's own trial stamp (merges, parsers).
  void RecordKeepingTrial(const TraceEvent& event) { Push(event); }

  /// Appends another tracer's events in their recorded order, keeping
  /// their trial stamps. Applied in trial-index order by
  /// TrialOutcome::Merge, which makes merged streams thread-count
  /// invariant.
  void Append(const Tracer& other);

  std::size_t size() const { return events_.size(); }
  std::size_t capacity() const { return capacity_; }
  /// Events ever recorded, including any the ring overwrote.
  std::uint64_t total_recorded() const { return recorded_; }
  /// Events lost to the ring cap.
  std::uint64_t dropped() const { return dropped_; }

  void Clear();

  /// Invokes fn on every retained event, oldest first.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    const std::size_t n = events_.size();
    for (std::size_t i = 0; i < n; ++i) fn(events_[(head_ + i) % n]);
  }

  /// Retained events, oldest first (materialised copy; prefer ForEach
  /// on hot paths).
  std::vector<TraceEvent> Events() const;

  /// Events matching a predicate, in recorded (time) order.
  std::vector<TraceEvent> Filter(
      const std::function<bool(const TraceEvent&)>& pred) const;

  /// Events of one multicast. `trial` restricts to one trial's stream;
  /// the default matches every trial (multicast ids are per-trial, so
  /// pass the trial when reading a merged sweep trace).
  std::vector<TraceEvent> OfMulticast(std::int64_t mcast_id,
                                      std::int32_t trial = -1) const;

  /// Human-readable dump (one line per event).
  void Dump(std::FILE* out) const;

 private:
  void Push(const TraceEvent& e) {
    ++recorded_;
    if (capacity_ == 0 || events_.size() < capacity_) {
      events_.push_back(e);
      return;
    }
    events_[head_] = e;
    head_ = (head_ + 1) % capacity_;
    ++dropped_;
  }

  std::vector<TraceEvent> events_;
  std::size_t capacity_ = 0;  ///< 0 = unbounded
  std::size_t head_ = 0;      ///< oldest retained event when wrapped
  std::uint64_t recorded_ = 0;
  std::uint64_t dropped_ = 0;
  std::int32_t trial_ = 0;
};

}  // namespace irmc
