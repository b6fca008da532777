#include "sim/event_queue.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <iterator>
#include <memory>
#include <queue>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/fifo.hpp"
#include "common/rng.hpp"
#include "sim/engine.hpp"

namespace irmc {
namespace {

constexpr Cycles kW = EventQueue::kWindow;

TEST(EventQueue, RunsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.ScheduleAt(30, [&] { order.push_back(3); });
  q.ScheduleAt(10, [&] { order.push_back(1); });
  q.ScheduleAt(20, [&] { order.push_back(2); });
  while (q.RunNext()) {
  }
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(q.Now(), 30);
}

TEST(EventQueue, FifoAtEqualTimes) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i)
    q.ScheduleAt(5, [&order, i] { order.push_back(i); });
  while (q.RunNext()) {
  }
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(EventQueue, EventsCanScheduleEvents) {
  EventQueue q;
  int fired = 0;
  q.ScheduleAt(1, [&] {
    ++fired;
    q.ScheduleAt(2, [&] { ++fired; });
  });
  while (q.RunNext()) {
  }
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(q.Now(), 2);
}

TEST(EventQueue, SameTimeSelfScheduleRunsThisSweep) {
  EventQueue q;
  int fired = 0;
  q.ScheduleAt(5, [&] { q.ScheduleAt(5, [&] { ++fired; }); });
  while (q.RunNext()) {
  }
  EXPECT_EQ(fired, 1);
}

TEST(EventQueue, ExecutedCount) {
  EventQueue q;
  for (int i = 0; i < 7; ++i) q.ScheduleAt(i, [] {});
  while (q.RunNext()) {
  }
  EXPECT_EQ(q.executed(), 7u);
}

TEST(EventQueue, RunNextHonoursDeadline) {
  EventQueue q;
  int fired = 0;
  q.ScheduleAt(10, [&] { ++fired; });
  EXPECT_FALSE(q.RunNext(9));
  EXPECT_EQ(q.Now(), 0);  // a refused step does not advance time
  EXPECT_TRUE(q.RunNext(10));
  EXPECT_FALSE(q.RunNext(100));
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(q.Empty());
}

// An event parked in the overflow heap is older than one scheduled
// straight into the same bucket later, so it must still fire first; an
// event the migrated one schedules for the same cycle fires after both.
TEST(EventQueue, MigratedOverflowKeepsInsertionOrder) {
  EventQueue q;
  std::vector<int> order;
  const Cycles t = kW + 5;
  q.ScheduleAt(t, [&] {  // from time 0: beyond the window, overflow
    order.push_back(1);
    q.ScheduleAt(t, [&] { order.push_back(3); });
  });
  q.ScheduleAt(6, [&] {  // from time 6: inside the window, direct
    q.ScheduleAt(t, [&] { order.push_back(2); });
  });
  while (q.RunNext()) {
  }
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(q.Now(), t);
}

TEST(EventQueue, JumpsAcrossAnEmptyWindow) {
  EventQueue q;
  std::vector<Cycles> seen;
  for (Cycles t : {Cycles{3'000'000}, Cycles{1'000'000}, Cycles{1'000'001}})
    q.ScheduleAt(t, [&] { seen.push_back(q.Now()); });
  while (q.RunNext()) {
  }
  EXPECT_EQ(seen, (std::vector<Cycles>{1'000'000, 1'000'001, 3'000'000}));
}

// ---------------------------------------------------------------------------
// The draining loop: RunUntil empties a cycle's bucket in one pass, so an
// event scheduled at Now() during the pass must join that bucket's tail.
// ---------------------------------------------------------------------------

TEST(EventQueueDrain, SameTimeEventsRunAfterTheBucketInInsertionOrder) {
  Engine e;
  std::vector<char> order;
  const auto log = [&order](char c) {
    return [&order, c] { order.push_back(c); };
  };
  e.ScheduleAt(5, [&] {
    order.push_back('a');
    e.ScheduleAfter(0, log('x'));
    e.ScheduleAfter(0, [&] {
      order.push_back('y');
      // The bucket's last event schedules into it once more.
      e.ScheduleAfter(0, log('z'));
    });
  });
  e.ScheduleAt(5, log('b'));
  e.ScheduleAt(5, log('c'));
  e.ScheduleAt(6, log('d'));
  EXPECT_TRUE(e.RunUntil(6));
  EXPECT_EQ(order, (std::vector<char>{'a', 'b', 'c', 'x', 'y', 'z', 'd'}));
  EXPECT_EQ(e.events_executed(), 7u);
}

TEST(EventQueueDrain, RunUntilRunsWhatIsDueAtTheDeadlineAndNothingLater) {
  Engine e;
  std::vector<Cycles> ran;
  const auto stamp = [&] { ran.push_back(e.Now()); };
  e.ScheduleAt(9, stamp);
  e.ScheduleAt(10, [&] {
    stamp();
    e.ScheduleAfter(0, [&] {  // the only event left at 10
      stamp();
      e.ScheduleAfter(0, stamp);
      e.ScheduleAfter(1, stamp);
    });
    e.ScheduleAfter(1, stamp);
  });
  EXPECT_FALSE(e.RunUntil(10));
  EXPECT_EQ(ran, (std::vector<Cycles>{9, 10, 10, 10}));
  EXPECT_EQ(e.Now(), 10);
  EXPECT_TRUE(e.RunUntil(11));
  EXPECT_EQ(ran, (std::vector<Cycles>{9, 10, 10, 10, 11, 11}));
}

TEST(EventQueueDrain, OverflowEventsAloneKeepTheQueueBusy) {
  EventQueue q;
  int fired = 0;
  q.ScheduleAt(3 * kW, [&] { ++fired; });  // straight into the heap
  EXPECT_FALSE(q.Empty());
  q.ScheduleAt(1, [&] { ++fired; });
  q.RunUntil(1);
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(q.Empty());  // the window is empty, the heap is not
  q.RunUntil(3 * kW - 1);
  EXPECT_EQ(fired, 1);
  q.RunUntil();
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(q.Now(), 3 * kW);
  EXPECT_TRUE(q.Empty());
}

/// Runs a seeded program of events that spawn children at the same
/// cycle, the next few cycles and beyond the window, driven by
/// `drive(engine)` until it reports the engine idle; returns the ids in
/// the order they ran.
template <class Drive>
std::vector<int> RunSpawningProgram(Drive drive) {
  Engine e;
  std::vector<int> ran;
  int next_id = 0;
  std::function<void(int)> fire = [&](int id) {
    ran.push_back(id);
    Rng rng(static_cast<std::uint64_t>(id) + 11);
    const int kids = next_id < 3000 ? static_cast<int>(rng.NextBelow(4)) : 0;
    for (int k = 0; k < kids; ++k) {
      const Cycles delays[] = {0, 0, 1, 2, kW + 3};
      const Cycles delay = delays[rng.NextBelow(5)];
      const int child = next_id++;
      e.ScheduleAfter(delay, [&fire, child] { fire(child); });
    }
  };
  for (int i = 0; i < 20; ++i) {
    const int id = next_id++;
    // The last one runs long after every other event, alone in the heap.
    const Cycles at = i == 19 ? 1'000'000 : i % 4 == 0 ? 2 * kW : i % 3;
    e.ScheduleAt(at, [&fire, id] { fire(id); });
  }
  drive(e);
  EXPECT_TRUE(e.Idle());
  // Each scheduled event ran exactly once.
  std::vector<int> ids = ran;
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(ids.size(), static_cast<std::size_t>(next_id));
  for (std::size_t i = 0; i < ids.size(); ++i)
    EXPECT_EQ(ids[i], static_cast<int>(i));
  return ran;
}

TEST(EventQueueDrain, StepAndRunUntilInterleave) {
  const std::vector<int> drained = RunSpawningProgram([](Engine& e) {
    e.RunToQuiescence();
  });
  const std::vector<int> mixed = RunSpawningProgram([](Engine& e) {
    for (int round = 0; !e.Idle(); ++round) {
      if (round % 3 == 0) {
        e.RunUntil(e.Now() + round % 5);
      } else {
        EXPECT_TRUE(e.Step());
      }
    }
  });
  EXPECT_GT(drained.size(), 1000u);
  EXPECT_EQ(mixed, drained);
}

// ---------------------------------------------------------------------------
// Reference model: the (when, seq) priority queue the calendar replaced.
// Seeded random schedules must fire in the identical order on both.
// ---------------------------------------------------------------------------

class RefEngine {
 public:
  Cycles Now() const { return now_; }
  bool Idle() const { return heap_.empty(); }
  void ScheduleAfter(Cycles delay, std::function<void()> fn) {
    heap_.push(Entry{now_ + delay, seq_++, std::move(fn)});
  }
  bool RunUntil(Cycles deadline) {
    while (!heap_.empty()) {
      if (heap_.top().when > deadline) return false;
      Entry e = heap_.top();
      heap_.pop();
      now_ = e.when;
      e.fn();
    }
    return true;
  }

 private:
  struct Entry {
    Cycles when;
    std::uint64_t seq;
    std::function<void()> fn;
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.when != b.when) return a.when > b.when;
      return a.seq > b.seq;
    }
  };
  std::priority_queue<Entry, std::vector<Entry>, Later> heap_;
  Cycles now_ = 0;
  std::uint64_t seq_ = 0;
};

/// Delays aimed at the calendar's edges: same cycle, either side of the
/// window boundary (relative to the scheduling time), and far beyond it.
Cycles DrawDelay(Rng& rng) {
  switch (rng.NextBelow(10)) {
    case 0:
    case 1:
      return 0;
    case 2:
      return kW - 1;
    case 3:
      return kW;
    case 4:
      return kW + 1;
    case 5:
      return 1'000'000 + rng.NextInRange(0, 3);
    case 6:
      return rng.NextInRange(1, 3);
    case 7:
      return rng.NextInRange(kW - 3, kW + 3);
    default:
      return rng.NextInRange(1, 4 * kW);
  }
}

/// Replays one seeded schedule on `engine`. Every event logs (id, time)
/// and spawns children from an RNG keyed by its own id, so two engines
/// that fire events in the same order run the same program. RunUntil is
/// driven by deadlines that land between buckets, on events, and far
/// past an emptied window.
template <class E>
std::vector<std::pair<int, Cycles>> Replay(std::uint64_t seed) {
  E engine;
  std::vector<std::pair<int, Cycles>> log;
  int next_id = 0;
  int budget = 20000;
  std::function<void(int)> fire = [&](int id) {
    log.emplace_back(id, engine.Now());
    Rng rng(seed * 1'000'003 + static_cast<std::uint64_t>(id));
    const int kids = static_cast<int>(rng.NextBelow(3));  // ~critical
    for (int k = 0; k < kids && budget > 0; ++k, --budget) {
      const int child = next_id++;
      engine.ScheduleAfter(DrawDelay(rng), [&fire, child] { fire(child); });
    }
  };
  Rng top(seed);
  for (int i = 0; i < 40; ++i) {
    const int id = next_id++;
    engine.ScheduleAfter(DrawDelay(top), [&fire, id] { fire(id); });
  }
  Cycles deadline = 0;
  int steps = 0;
  while (!engine.Idle()) {
    const bool drained = engine.RunUntil(deadline);
    log.emplace_back(-1, engine.Now());  // per-step state must match too
    log.emplace_back(drained ? -2 : -3, deadline);
    ++steps;
    deadline += top.NextBool(0.03) ? 1'500'000 : top.NextInRange(0, kW + 7);
  }
  EXPECT_GT(steps, 50);
  return log;
}

TEST(EventQueueReference, RandomSchedulesFireInReferenceOrder) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    const auto want = Replay<RefEngine>(seed);
    const auto got = Replay<Engine>(seed);
    ASSERT_EQ(got.size(), want.size()) << "seed " << seed;
    for (std::size_t i = 0; i < want.size(); ++i)
      ASSERT_EQ(got[i], want[i]) << "seed " << seed << " step " << i;
  }
}

// ---------------------------------------------------------------------------
// Action lifetime: captures are destroyed exactly once, whether the event
// runs, is dropped with its engine, or is overwritten by move-assignment.
// ---------------------------------------------------------------------------

static_assert(!std::is_copy_constructible_v<EventQueue::Action>);
static_assert(std::is_nothrow_move_constructible_v<EventQueue::Action>);

/// Counts its destructions; a moved-from probe does not count.
struct Probe {
  explicit Probe(int* d) : dtors(d) {}
  Probe(Probe&& o) noexcept : dtors(std::exchange(o.dtors, nullptr)) {}
  Probe(const Probe&) = delete;
  Probe& operator=(const Probe&) = delete;
  Probe& operator=(Probe&&) = delete;
  ~Probe() {
    if (dtors != nullptr) ++*dtors;
  }
  void operator()() const {}
  int* dtors;
};

TEST(ActionLifetime, CaptureReleasedAfterTheEventRuns) {
  auto p = std::make_shared<int>(0);
  Engine e;
  e.ScheduleAfter(3, [p] { ++*p; });
  e.ScheduleAfter(2 * kW, [p] { ++*p; });  // via the overflow heap
  EXPECT_EQ(p.use_count(), 3);
  EXPECT_FALSE(e.RunUntil(3));
  EXPECT_EQ(p.use_count(), 2);
  EXPECT_TRUE(e.RunUntil(2 * kW));
  EXPECT_EQ(p.use_count(), 1);
  EXPECT_EQ(*p, 2);
}

TEST(ActionLifetime, CaptureReleasedWhenEngineDiesWithPendingEvents) {
  auto p = std::make_shared<int>(0);
  {
    Engine e;
    e.ScheduleAfter(0, [p] {});
    e.ScheduleAfter(kW - 1, [p] {});
    e.ScheduleAfter(1'000'000, [p] {});
    e.ScheduleAfter(0, [p] {});
    Fifo<EventQueue::Action> parked;  // an action held outside the queue
    parked.emplace_back([p] {});
    EXPECT_EQ(p.use_count(), 6);
  }
  EXPECT_EQ(p.use_count(), 1);
  EXPECT_EQ(*p, 0);
}

TEST(ActionLifetime, MoveAssignDestroysTheOldCaptureOnce) {
  int old_dtors = 0;
  int new_dtors = 0;
  {
    EventQueue::Action a(Probe{&old_dtors});
    EventQueue::Action b(Probe{&new_dtors});
    a = std::move(b);
    EXPECT_EQ(old_dtors, 1);
    EXPECT_EQ(new_dtors, 0);
    EXPECT_FALSE(static_cast<bool>(b));  // NOLINT(bugprone-use-after-move)
    ASSERT_TRUE(static_cast<bool>(a));
    a();
  }
  EXPECT_EQ(old_dtors, 1);
  EXPECT_EQ(new_dtors, 1);
}

TEST(ActionLifetime, SlotsAreRecycledAcrossEvents) {
  int dtors = 0;
  EventQueue q;
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 5; ++i) q.ScheduleAt(q.Now() + i, Probe{&dtors});
    while (q.RunNext()) {
    }
  }
  EXPECT_EQ(dtors, 15);
}

TEST(ActionLifetime, CaptureOfExactlyTheInlineSizeFits) {
  struct Capture {
    std::uint64_t words[EventQueue::Action::kInlineBytes / 8 - 1];
    std::uint64_t* out;
  };
  static_assert(sizeof(Capture) == EventQueue::Action::kInlineBytes);
  constexpr std::size_t kLast = std::size(Capture{}.words) - 1;
  std::uint64_t seen = 0;
  Capture cap{};
  cap.words[kLast] = 42;
  cap.out = &seen;
  EventQueue q;
  q.ScheduleAt(kW + 1, [cap] { *cap.out = cap.words[kLast]; });
  while (q.RunNext()) {
  }
  EXPECT_EQ(seen, 42u);
}

TEST(ActionLifetime, AnEventThatGrowsTheArenaReadsItsOwnCapture) {
  // The running event's slot is recycled before it runs, and scheduling
  // 10k events from inside it reuses that slot and reallocates the
  // arena several times. Its 48-byte capture must still read intact
  // afterwards: the callable ran from the stack, not from the slot.
  struct Capture {
    std::uint64_t words[EventQueue::Action::kInlineBytes / 8 - 2];
    EventQueue* q;
    std::uint64_t* out;
  };
  static_assert(sizeof(Capture) == EventQueue::Action::kInlineBytes);
  Capture cap{};
  for (std::size_t i = 0; i < std::size(cap.words); ++i)
    cap.words[i] = 0x0101010101010101ull * (i + 1);
  std::uint64_t intact = 0;
  cap.out = &intact;
  EventQueue q;
  cap.q = &q;
  q.ScheduleAt(1, [cap] {
    for (int i = 0; i < 10'000; ++i)
      cap.q->ScheduleAt(2 + i % 100, [out = cap.out] { ++*out; });
    for (std::size_t i = 0; i < std::size(cap.words); ++i)
      if (cap.words[i] != 0x0101010101010101ull * (i + 1)) return;
    *cap.out = 1;
  });
  while (q.RunNext()) {
  }
  EXPECT_EQ(intact, 10'001u);  // 1 from the capture check, 1 per event
  EXPECT_EQ(q.executed(), 10'001u);
}

TEST(Engine, RunToQuiescenceReturnsFinalTime) {
  Engine e;
  e.ScheduleAfter(100, [] {});
  EXPECT_EQ(e.RunToQuiescence(), 100);
  EXPECT_TRUE(e.Idle());
}

TEST(Engine, RunUntilStopsAtDeadline) {
  Engine e;
  int fired = 0;
  e.ScheduleAfter(10, [&] { ++fired; });
  e.ScheduleAfter(20, [&] { ++fired; });
  EXPECT_FALSE(e.RunUntil(15));
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(e.RunUntil(25));
  EXPECT_EQ(fired, 2);
}

TEST(Engine, RunUntilInclusiveOfDeadline) {
  Engine e;
  int fired = 0;
  e.ScheduleAfter(15, [&] { ++fired; });
  EXPECT_TRUE(e.RunUntil(15));
  EXPECT_EQ(fired, 1);
}

TEST(Engine, ScheduleAfterZeroRunsAtSameTime) {
  Engine e;
  Cycles seen = -1;
  e.ScheduleAfter(10, [&] { e.ScheduleAfter(0, [&] { seen = e.Now(); }); });
  e.RunToQuiescence();
  EXPECT_EQ(seen, 10);
}

}  // namespace
}  // namespace irmc
