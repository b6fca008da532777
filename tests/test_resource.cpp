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

}  // namespace
}  // namespace irmc
