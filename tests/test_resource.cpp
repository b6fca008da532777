#include "sim/resource.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace irmc {
namespace {

TEST(TimelineResource, IdleStartsImmediately) {
  TimelineResource r;
  EXPECT_EQ(r.Reserve(100, 50), 100);
  EXPECT_EQ(r.free_at(), 150);
}

TEST(TimelineResource, BackToBackSerializes) {
  TimelineResource r;
  EXPECT_EQ(r.Reserve(0, 10), 0);
  EXPECT_EQ(r.Reserve(0, 10), 10);
  EXPECT_EQ(r.Reserve(5, 10), 20);
}

TEST(TimelineResource, GapWhenEarliestLate) {
  TimelineResource r;
  r.Reserve(0, 10);
  EXPECT_EQ(r.Reserve(100, 10), 100);  // idle gap allowed
}

TEST(TimelineResource, ZeroHold) {
  TimelineResource r;
  EXPECT_EQ(r.Reserve(7, 0), 7);
  EXPECT_EQ(r.free_at(), 7);
}

TEST(TimelineResource, BusyTotalAccumulates) {
  TimelineResource r;
  r.Reserve(0, 10);
  r.Reserve(50, 20);
  EXPECT_EQ(r.busy_total(), 30);
}

TEST(CountingResource, GrantsImmediatelyWhenFree) {
  Engine e;
  CountingResource pool(2);
  int grants = 0;
  pool.Acquire(e, [&] { ++grants; });
  pool.Acquire(e, [&] { ++grants; });
  e.RunToQuiescence();
  EXPECT_EQ(grants, 2);
  EXPECT_EQ(pool.available(), 0);
}

TEST(CountingResource, QueuesWhenExhausted) {
  Engine e;
  CountingResource pool(1);
  std::vector<int> order;
  pool.Acquire(e, [&] { order.push_back(1); });
  pool.Acquire(e, [&] { order.push_back(2); });
  pool.Acquire(e, [&] { order.push_back(3); });
  e.RunToQuiescence();
  EXPECT_EQ(order, (std::vector<int>{1}));
  EXPECT_EQ(pool.queue_length(), 2);

  pool.Release(e);
  e.RunToQuiescence();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  pool.Release(e);
  e.RunToQuiescence();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(pool.queue_length(), 0);
}

TEST(CountingResource, ReleaseWithoutWaitersRestoresSlot) {
  Engine e;
  CountingResource pool(1);
  pool.Acquire(e, [] {});
  e.RunToQuiescence();
  EXPECT_EQ(pool.available(), 0);
  pool.Release(e);
  EXPECT_EQ(pool.available(), 1);
}

}  // namespace
}  // namespace irmc
