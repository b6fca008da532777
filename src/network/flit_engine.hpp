// Flit-level wormhole/cut-through engine.
//
// A genuinely flit-by-flit simulation of the same switch fabric: per
// input-port flit buffers with credit backpressure, one flit per cycle
// per channel, asynchronous replication (each branch of a
// multidestination worm drains the input buffer at its own rate; a flit
// is freed once every branch has consumed it). With buffers of at least
// one packet this agrees exactly with the packet-granular VCT engine on
// uncontended traffic — tests/test_engine_xcheck asserts that for all
// four schemes at R = 1 — and with smaller buffers it exhibits true
// wormhole blocking, which the VCT engine cannot express. Known
// exception: RouteWorm gives every branch the incoming worm's length,
// so a path-worm header field stripped at a forwarding switch still
// crosses the next channel (docs/engines.md).
//
// Channel wiring, link accounting and metric slots come from the shared
// NetworkModel layer; this engine keeps only its worms, branches,
// activity bitmaps, cycle phases and deadlock trip.
//
// The engine is cycle-stepped but event-driven: each active cycle is one
// event on the shared `sim` kernel, so host/NI `TimelineResource` timing
// from core/executor interleaves correctly, and the engine goes quiet
// (no events at all) whenever the network is empty. Routing decisions
// come from the shared route_logic layer, so port selection — including
// least-loaded adaptive selection — is identical to the Fabric's.
//
// Cost follows worm events, not flits. A branch *streams* once its head
// is sent, provided credit can never block it (its channel ends at a
// host, or at an input buffer of at least the branch's length) and it
// can never starve (its source worm is fully received, or is fed by a
// streaming branch it trails by at least link_delay cycles). From then
// on it sends one flit per cycle until its tail, so its consumed count,
// its channel's flit count, its downstream worm's received/freed counts
// and the buffer-occupancy high-water are linear in time: they are
// settled only at worm events (head send/land, route, tail send/land,
// deadlock report, any read), and only heads, tails and the
// flits of stepped branches go on the wire as discrete landings. A
// branch whose head finds its output port held by another worm is
// *parked*: only one channel feeds that port and only the resident
// worm's release frees it, so nothing but ReleasePorts can end the
// stall. The release wakes the branch in the cycle a check every cycle
// would have seen the port free, and its stall cycles are counted in
// closed form (at that visit, at any read, at the deadlock trip, and at
// the trip cycle, which wakes it to trip in channel order). Every other
// branch — awaiting a grant, stalled on credit, starved, or in a buffer
// too small to absorb it — is *stepped* one cycle at a time in ascending
// channel order, which keeps arbitration and credit timing cycle-exact
// (a worm with a stepped feeder has only stepped branches until it is
// complete, so credit never reads a closed-form count). A cycle visits
// only the channels with a stepped branch, a woken parked branch or a
// tail due, and only the NIs whose head packet is ready; future-ready
// NIs wait in a (ready, node) heap. The tick schedule is unchanged: one
// kernel event per active cycle, while anything is in flight, queued or
// parked. A tick with nothing due (no port to release, flit to land, NI
// ready, route decision, channel to visit or trip to wake) skips its
// phases and only marks the cycle done. Worm and branch slots are
// recycled once nothing can reach them, so memory follows the worms in
// flight, not the packets ever sent.
//
// Packets are values the engine owns: an NI's queued packets sit in one
// node arena (queued_) that every NI's FIFO list threads through, and a
// worm's or branch's packet sits in worm_pkts_ / branch_pkts_, side
// arrays indexed like worms_ / branches_ (so the hot structs stay
// compact). A routed branch's packet is its worm's, written once into
// the branch slot with the route decision's header edits; a landing
// head copies its branch's packet into the downstream worm. Neither side array grows outside a tick, so the
// reference the deliver callback gets stays put while it runs (it may
// inject, which only queues).
//
// A run's per-channel and per-NI state is plain arrays filled in one
// pass: each channel's arbiter holds its active branch and the head and
// tail of a waiting list threaded through the branches, and each NI's
// queue is the head and tail of its list in queued_.
//
// Deadlock trip: up*/down* routing is deadlock-free, so a worm that
// stays credit-blocked on one channel for more than
// NetParams::deadlock_horizon cycles indicates a broken routing state
// (or a genuinely cyclic custom plan); the engine aborts with a report
// naming every stuck worm and the port it blocks on.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <queue>
#include <utility>
#include <vector>

#include "common/fifo.hpp"
#include "network/network_model.hpp"
#include "network/route_logic.hpp"

namespace irmc {

/// Snapshot handed to a deadlock handler when a worm blows past the
/// deadlock horizon: every pending branch with where it sits and why it
/// is not moving. Mirrors the text report the default (aborting) trip
/// prints; the static analyzer's soundness harness consumes it to match
/// dynamic trips against static findings.
struct FlitDeadlockInfo {
  Cycles now = 0;
  Cycles horizon = 0;
  struct Pending {
    std::int64_t mcast_id = -1;
    int pkt_index = 0;
    /// Switch-channel position (sw/port), or injection source when
    /// sw == kInvalidSwitch (then inj_node is set).
    SwitchId sw = kInvalidSwitch;
    PortId port = kInvalidPort;
    NodeId inj_node = kInvalidNode;
    /// True for an open credit-stall streak; false for a branch merely
    /// starved of flits by its upstream.
    bool stalled = false;
    const char* reason = nullptr;
  };
  std::vector<Pending> pending;
};

class FlitEngine final : public NetworkModel {
 public:
  /// `metrics` (optional) receives `flit.*` counters/histograms — the
  /// same catalogue as the Fabric's `fabric.*` family, plus flit-only
  /// series (cycles stepped, buffer-occupancy high-water); see
  /// docs/metrics.md. `tracer` (optional) receives the same event kinds
  /// as the Fabric, including kBlockBegin/kBlockEnd pairs per
  /// credit-stall streak whose durations sum exactly to
  /// `flit.blocked_cycles`.
  FlitEngine(Engine& engine, const System& sys, const NetParams& params,
             DeliverFn deliver, Tracer* tracer = nullptr,
             MetricsRegistry* metrics = nullptr);

  int InjectionBacklog(NodeId n) const override;

  int ChannelBacklog(SwitchId sw, PortId port) const override;

  std::int64_t TotalBacklog() const override { return backlog_; }

  /// Cycles actually stepped (idle gaps cost nothing).
  std::int64_t cycles_stepped() const { return ticks_; }

  /// Channel visits made by the move phase: one per stepped branch per
  /// cycle, plus one per streaming tail and one per woken parked branch
  /// (a branch parked on a held port costs none while it waits). A
  /// machine-independent measure of the engine's per-cycle work.
  std::int64_t channel_visits() const { return visits_; }

  /// Worm slots plus branch slots ever allocated. Finished worms and
  /// branches are recycled, so this follows how many were alive at once,
  /// not how many packets the run sent.
  std::size_t allocated_slots() const {
    return worms_.size() + branches_.size();
  }

  /// Installs a deadlock handler. By default a worm blocked past the
  /// horizon aborts the process with a full report; with a handler the
  /// engine instead calls it once and freezes (drops every future tick),
  /// so a test harness can observe the trip and keep the process alive.
  using DeadlockHandler = std::function<void(const FlitDeadlockInfo&)>;
  void SetDeadlockHandler(DeadlockHandler handler) {
    on_deadlock_ = std::move(handler);
  }

  /// True once the deadlock handler has fired (the engine is wedged and
  /// will not step again).
  bool deadlock_tripped() const { return frozen_; }

 private:
  /// A worm copy resident in (or streaming through) an input buffer;
  /// injection sources are pseudo-worms with every flit available.
  struct Worm {
    int len = 0;
    int received = 0;  ///< flits landed in this buffer
    int freed = 0;     ///< flits consumed by every branch
    Cycles head_arrive = 0;
    bool routed = false;
    int live_branches = 0;
    int port_index = -1;  ///< owning input port; -1 for injection sources
    int feeder = -1;  ///< the channel into port_index; -1 for sources
    std::vector<int> branch_ids;
    /// What still refers to this slot: one while on route_queue_, one
    /// while it holds its input port (until ReleasePorts clears it), one
    /// per branch whose tail has not landed. At zero the slot, its
    /// branches and their packets are recycled.
    int pins = 0;
    // --- closed-form settlement (see Sync) ---
    int feed = -1;  ///< streaming branch still landing flits here
    /// Streamed landings before cycle land_sync and branch moves before
    /// cycle move_sync are folded into received/freed; move_sync is
    /// land_sync or land_sync - 1.
    Cycles land_sync = 0;
    Cycles move_sync = 0;
  };

  /// One output stream of a routed worm: drains the source buffer
  /// through one channel.
  struct BranchState {
    int src_worm = -1;
    int channel = -1;
    int len = 0;
    /// Flits sent and counted on the channel; a streaming branch may
    /// have sent more (see Sent).
    int consumed = 0;
    Cycles start_ok = 0;
    int dst_worm = -1;  ///< created when the head lands downstream
    bool done = false;  ///< tail sent; also a free slot
    /// Sending one flit per cycle without visits until the tail is due.
    bool streaming = false;
    /// Stalled before its head on a held output port, without visits
    /// until ReleasePorts frees the port or the stall is due to trip;
    /// its stall cycles since the last one counted are settled by
    /// SettleStall.
    bool parked = false;
    /// Once streamed: flit k is sent at cycle phase + k - 1, and the
    /// streamed (non-head, non-tail) flits land from land_first on.
    Cycles phase = kNever;
    Cycles land_first = kNever;
    Cycles sink_head = 0;  ///< head landing at a host sink
    // Open credit-stall streak. stall_len counts exactly the cycles
    // added to flit.blocked_cycles, so the emitted block interval
    // [stall_begin, stall_begin + stall_len) keeps the trace-derived
    // total equal to the counter even when the streak is interleaved
    // with flit-availability waits (which are not stalls). The same
    // streak drives the deadlock trip.
    Cycles stall_begin = 0;
    Cycles stall_len = 0;
    const char* stall_why = nullptr;
    int next_waiting = -1;  ///< next on its channel's waiting list
    int next_due = -1;  ///< streaming: next on its tail cycle's due list
    /// Visited every cycle it is active: neither streaming nor parked.
    bool stepped() const { return !streaming && !parked; }
  };

  /// A channel's branches: the one streaming through it and those
  /// waiting for a grant, in arrival order on a list threaded through
  /// BranchState::next_waiting (a grant may unlink any of them).
  struct Arbiter {
    int active_branch = -1;
    int first_waiting = -1;
    int last_waiting = -1;
    int waiting = 0;  ///< branches on the list
    int Load() const { return waiting + (active_branch != -1 ? 1 : 0); }
  };

  /// A packet queued at its NI: a node of queued_, on its NI's FIFO
  /// list or the free list through `next`.
  struct Queued {
    Packet pkt;
    Cycles ready = 0;
    int next = -1;
  };
  /// One NI's queued packets, oldest first.
  struct NiQueue {
    int head = -1;
    int tail = -1;
    int size = 0;
  };

  struct InFlight {
    int branch = -1;
    bool is_head = false;
    bool is_tail = false;
    Cycles lands = 0;
  };

  /// Arbitration tie-break key: the local input port the branch's source
  /// worm occupies at this switch (-1 for source pseudo-worms, which
  /// only ever use injection channels and never contend). Matches the
  /// VCT engine's Tx::arb_port rule.
  int ArbPort(const BranchState& b) const {
    const int pi = worms_[static_cast<std::size_t>(b.src_worm)].port_index;
    return pi >= 0 ? pi % ports_ : -1;
  }

  void QueueInjection(NodeId n, Packet&& pkt, Cycles ready) override;
  /// Middle flits a streaming branch has sent but not yet counted.
  std::int64_t UnsettledFlits(int channel_id) const override;
  /// Settles every stream, then folds `flit.cycles_run`,
  /// `flit.deliveries`, `flit.max_buffer_occupancy`.
  void CollectEngineMetrics() override;

  // --- event-driven cycle stepping ---
  void ScheduleTick(Cycles when);
  void Tick();
  bool Busy() const;
  /// The first cycle after `now` at which a phase has work, as the
  /// phases of `now` left the engine.
  Cycles NextDue(Cycles now) const;

  // --- cycle phases (run in this order each stepped cycle) ---
  void ReleasePorts();
  void LandFlits(Cycles now);
  void PumpInjections(Cycles now);
  void RouteWorms(Cycles now);
  void RouteWorm(int wi, Cycles now);
  void MoveFlits(Cycles now);
  void MoveChannel(std::size_t ci, Cycles now);

  // --- streaming ---
  /// Starts streaming branch `bid` after its flit sent at `now` when it
  /// can neither stall nor starve before its tail.
  void TryStream(int bid, Cycles now);
  /// Flits a streaming branch has sent once the moves of cycle `t` are
  /// done (the tail excepted: it is always sent by a visit).
  static int Sent(const BranchState& b, Cycles t) {
    return static_cast<int>(std::min<Cycles>(b.len - 1, t - b.phase + 1));
  }
  /// Counts a streaming branch's flits sent through cycle `t`.
  void Materialize(BranchState& b, Cycles t);
  /// Folds into `w` the streamed landings of cycles before `land_to` and
  /// the moves of its streaming branches in cycles before `move_to`,
  /// raising the occupancy high-water on the way.
  void Sync(Worm& w, Cycles land_to, Cycles move_to);
  /// `freed` once the moves of cycle `v` are done, for a worm whose
  /// streaming branches all moved in `v`.
  int FreedAfter(const Worm& w, Cycles v) const;
  /// Settles every worm, stream and parked stall to the last completed
  /// cycle.
  void SettleAll();
  /// Counts a parked branch's stall cycles through cycle `t`. Its streak
  /// has no gaps (its head is unsent, so each cycle since stall_begin was
  /// a stall), so stall_begin + stall_len - 1 is the last one counted.
  void SettleStall(BranchState& b, Cycles t);
  /// Wakes the parked branches whose stall trips the deadlock check at
  /// `now` and finds the next such cycle.
  void WakeTrips(Cycles now);

  // --- streaming tails due ---
  /// Files streaming branch `bid` under the cycle its tail is due, less
  /// than the ring's size after `now`, doubling the ring if needed.
  void AddTailDue(int bid, Cycles now);
  /// Links `bid` into its due cycle's list.
  void FileTailDue(int bid);
  /// Sets the step bit of every channel whose streaming tail is due at
  /// `now`.
  void WakeDueTails(Cycles now);
  /// The first cycle from `from` on with a tail due, or kNever.
  Cycles FirstTailDue(Cycles from) const;

  // --- activity bookkeeping ---
  /// Queues branch `bid` for a grant on channel `ci`.
  void Enqueue(std::size_t ci, int bid);
  /// Unlinks waiting branch `bid` (whose predecessor on `c`'s list is
  /// `prev`, -1 for the first) from `c`.
  void Unwait(Arbiter& c, int prev, int bid);
  void SetReady(std::size_t n);

  // --- slot recycling ---
  /// The worm and branch arenas' first allocation, sized from the
  /// System: a worm per input buffer and per NI (one per channel), and
  /// as many branches.
  void ReserveSlots();
  int NewWorm();
  /// Appends a fresh branch slot to worm `wi` and pins the worm for it.
  int NewBranch(int wi, BranchState b);
  /// Drops one pin of worm `wi`; the last one recycles the worm and its
  /// branches.
  void Unpin(int wi);

  /// The packet a worm holds (switch worms; a source pseudo-worm's is
  /// unused) and the header a branch carries downstream.
  Packet& worm_pkt(int wi) { return worm_pkts_[static_cast<std::size_t>(wi)]; }
  Packet& branch_pkt(int bid) {
    return branch_pkts_[static_cast<std::size_t>(bid)];
  }

  void CloseStreak(int bid);

  /// Aborts (default) or invokes the deadlock handler and freezes.
  void DeadlockTrip(Cycles now, int trip_branch);

  std::vector<Arbiter> arbs_;      // per channel, same ids as channels
  std::vector<NiQueue> ni_queues_;  // per NI
  std::vector<Queued> queued_;      // every NI queue's nodes
  int free_queued_ = -1;            // head of the recycled-node list
  std::vector<Worm> worms_;
  std::vector<BranchState> branches_;
  std::vector<Packet> worm_pkts_;    // indexed like worms_
  std::vector<Packet> branch_pkts_;  // indexed like branches_
  std::vector<int> free_worms_;     // recycled worms_ indices
  std::vector<int> free_branches_;  // recycled branches_ indices
  Fifo<InFlight> in_flight_;  // heads, tails, stepped flits; by landing
  Fifo<std::pair<int, Cycles>> route_queue_;  // (worm, decision time)
  /// Per input port [switch*ports + port]: the one worm resident in its
  /// buffer (single VC; every buffer holds params_.buffer_flits), or -1.
  std::vector<int> resident_;
  std::vector<RouteBranch> route_branches_;  // reused by every RouteWorm
  PortLoadFn load_;  // a switch channel's Load(), for adaptive routes
  std::vector<int> pending_port_release_;
  // Activity sets, one bit per index, walked in ascending order. A set
  // bit in step_channels_ marks a channel to visit next cycle: one with
  // a stepped active branch, or with waiting branches and none active.
  // A parked branch's channel is set only by its port's release or its
  // due trip.
  // ready_nis_ holds the NIs with an idle injection channel and
  // a ready head packet; those whose head packet is not ready yet wait
  // in ready_heap_.
  std::vector<std::uint64_t> step_channels_;
  std::vector<std::uint64_t> ready_nis_;
  template <typename T>
  using MinHeap = std::priority_queue<T, std::vector<T>, std::greater<>>;
  MinHeap<std::pair<Cycles, int>> ready_heap_;  // (ready, NI)
  /// Streaming branches by the cycle their tail is due, on a ring over
  /// the next due_cells_.size() cycles (a power of two): cell c & (size
  /// - 1) heads the list of branches due at cycle c, threaded through
  /// BranchState::next_due, and due_bits_ marks the non-empty cells. A
  /// tail is due less than its branch's length after the branch starts
  /// streaming, so the ring doubles (re-filing every branch on it) only
  /// when a longer worm streams. Filing is O(1) and tails due together
  /// come out in no set order: each only sets its channel's step bit.
  std::vector<int> due_cells_;
  std::vector<std::uint64_t> due_bits_;
  Cycles tails_due_ = kNever;  ///< earliest due tail; kNever with none
  /// No later than the first cycle a parked branch's stall reaches the
  /// deadlock horizon (stall_begin + horizon); kNever with none parked.
  /// Kept without a per-park entry, so it may be early: WakeTrips then
  /// finds nothing due and recomputes it.
  Cycles trip_due_ = kNever;
  int busy_channels_ = 0;  ///< channels with an active or waiting branch
  int ready_count_ = 0;    ///< set bits in ready_nis_
  /// Packets in the NI injection queues plus branches active on or
  /// waiting for a channel: TotalBacklog, kept as a running count.
  std::int64_t backlog_ = 0;

  DeadlockHandler on_deadlock_;
  bool frozen_ = false;  ///< deadlock handler fired; engine stays quiet

  Cycles last_processed_ = -1;  ///< highest cycle already stepped
  /// No later than the first cycle with work for a phase: set by each
  /// tick that runs its phases, lowered by QueueInjection. A tick before
  /// it skips its phases.
  Cycles next_due_ = 0;
  Cycles moved_through_ = -1;   ///< highest cycle whose moves are done
  std::int64_t ticks_ = 0;
  std::int64_t visits_ = 0;
  std::int64_t deliveries_ = 0;
  std::int64_t max_occupancy_ = 0;  ///< input-buffer flits high-water
};

}  // namespace irmc
