// Unit tests for common/fifo.hpp, the lazily allocated ring that backs
// every per-channel and per-port queue of both network engines.
#include "common/fifo.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "counting_new.hpp"
#include "sim/event_queue.hpp"

namespace irmc {
namespace {

std::vector<int> Contents(const Fifo<int>& q) {
  std::vector<int> out;
  for (std::size_t i = 0; i < q.size(); ++i) out.push_back(q[i]);
  return out;
}

TEST(Fifo, NothingIsAllocatedBeforeTheFirstPush) {
  const std::size_t before = counting_new::Allocations();
  Fifo<int> q;
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size(), 0u);
  EXPECT_EQ(q.capacity(), 0u);
  Fifo<EventQueue::Action> actions;
  Fifo<int> moved = std::move(q);
  EXPECT_EQ(counting_new::Allocations(), before);

  moved.push_back(7);
  EXPECT_EQ(counting_new::Allocations(), before + 1);
  EXPECT_GT(moved.capacity(), 0u);
}

TEST(Fifo, OrderHoldsAcrossWrapAroundAndGrowth) {
  Fifo<int> q;
  std::vector<int> model;
  int next = 0;
  // Advance the head so later pushes wrap, then push past capacity so
  // the ring grows while it is wrapped.
  for (int i = 0; i < 3; ++i) q.push_back(next++);
  q.pop_front();
  q.pop_front();
  model = {2};
  const std::size_t cap = q.capacity();
  while (q.size() < cap) {
    q.emplace_back(next);
    model.push_back(next++);
  }
  EXPECT_EQ(q.capacity(), cap);  // full and wrapped, not yet grown
  for (int i = 0; i < 40; ++i) {
    q.emplace_back(next);
    model.push_back(next++);
  }
  EXPECT_GT(q.capacity(), cap);
  EXPECT_EQ(Contents(q), model);
  while (!q.empty()) {
    EXPECT_EQ(q.front(), model.front());
    model.erase(model.begin());
    q.pop_front();
  }
}

TEST(Fifo, MatchesAReferenceQueueUnderRandomOperations) {
  Fifo<int> q;
  std::vector<int> model;
  Rng rng(17);
  int next = 0;
  for (int step = 0; step < 20'000; ++step) {
    if (rng.Next() % 2 == 0 || model.empty()) {
      q.emplace_back(next);
      model.push_back(next++);
    } else {
      q.pop_front();
      model.erase(model.begin());
    }
    ASSERT_EQ(q.size(), model.size());
    if (!model.empty()) {
      ASSERT_EQ(q.front(), model.front());
      ASSERT_EQ(q.back(), model.back());
    }
  }
  EXPECT_EQ(Contents(q), model);
}

/// Counts destructions of the live (not moved-from) copy of a payload.
struct Tracked {
  explicit Tracked(std::vector<int>* d, int id) : destroyed(d), id(id) {}
  Tracked(Tracked&& o) noexcept
      : destroyed(std::exchange(o.destroyed, nullptr)), id(o.id) {}
  Tracked& operator=(Tracked&&) = delete;
  Tracked(const Tracked&) = delete;
  Tracked& operator=(const Tracked&) = delete;
  ~Tracked() {
    if (destroyed != nullptr) ++(*destroyed)[static_cast<std::size_t>(id)];
  }
  std::vector<int>* destroyed;
  int id;
};

TEST(Fifo, MoveOnlyActionsAreDestroyedExactlyOnce) {
  constexpr int kN = 37;
  std::vector<int> destroyed(kN, 0);
  std::vector<int> ran;
  {
    Fifo<EventQueue::Action> q;
    for (int i = 0; i < kN; ++i) {
      q.emplace_back([t = Tracked(&destroyed, i), &ran]() {
        ran.push_back(t.id);
      });
    }
    // Pop some (moving out and running them), pop some unrun, and leave
    // the rest to the destructor of the Fifo they were moved into.
    for (int i = 0; i < 10; ++i) {
      EventQueue::Action a = std::move(q.front());
      q.pop_front();
      a();
    }
    for (int i = 0; i < 3; ++i) q.pop_front();
    for (int i = 0; i < 3; ++i) {
      EventQueue::Action a = std::move(q.front());
      q.pop_front();
      a();
    }
    Fifo<EventQueue::Action> moved = std::move(q);
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(moved.size(), static_cast<std::size_t>(kN - 16));
  }
  EXPECT_EQ(ran.size(), 13u);
  for (int i = 0; i < kN; ++i)
    EXPECT_EQ(destroyed[static_cast<std::size_t>(i)], 1) << "payload " << i;
}

}  // namespace
}  // namespace irmc
