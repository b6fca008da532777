#include "common/nodeset.hpp"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "counting_new.hpp"

namespace irmc {
namespace {

TEST(NodeSet, StartsEmpty) {
  NodeSet s(100);
  EXPECT_TRUE(s.Empty());
  EXPECT_EQ(s.Count(), 0);
  for (NodeId n = 0; n < 100; ++n) EXPECT_FALSE(s.Test(n));
}

TEST(NodeSet, SetTestClear) {
  NodeSet s(70);
  s.Set(0);
  s.Set(63);
  s.Set(64);
  s.Set(69);
  EXPECT_TRUE(s.Test(0));
  EXPECT_TRUE(s.Test(63));
  EXPECT_TRUE(s.Test(64));
  EXPECT_TRUE(s.Test(69));
  EXPECT_FALSE(s.Test(1));
  EXPECT_EQ(s.Count(), 4);
  s.Clear(63);
  EXPECT_FALSE(s.Test(63));
  EXPECT_EQ(s.Count(), 3);
}

TEST(NodeSet, SetIdempotent) {
  NodeSet s(10);
  s.Set(5);
  s.Set(5);
  EXPECT_EQ(s.Count(), 1);
}

TEST(NodeSet, UnionIntersection) {
  NodeSet a(32), b(32);
  a.Set(1);
  a.Set(2);
  b.Set(2);
  b.Set(3);
  const NodeSet u = a | b;
  EXPECT_EQ(u.Count(), 3);
  const NodeSet i = a & b;
  EXPECT_EQ(i.Count(), 1);
  EXPECT_TRUE(i.Test(2));
}

TEST(NodeSet, Subtract) {
  NodeSet a(32), b(32);
  a.Set(1);
  a.Set(2);
  a.Set(3);
  b.Set(2);
  a.Subtract(b);
  EXPECT_EQ(a.Count(), 2);
  EXPECT_FALSE(a.Test(2));
  EXPECT_TRUE(a.Test(1));
}

TEST(NodeSet, SubsetAndIntersects) {
  NodeSet a(32), b(32);
  a.Set(4);
  b.Set(4);
  b.Set(5);
  EXPECT_TRUE(a.IsSubsetOf(b));
  EXPECT_FALSE(b.IsSubsetOf(a));
  EXPECT_TRUE(a.Intersects(b));
  NodeSet c(32);
  c.Set(9);
  EXPECT_FALSE(a.Intersects(c));
  EXPECT_TRUE(NodeSet(32).IsSubsetOf(a));  // empty subset of anything
}

TEST(NodeSet, Equality) {
  NodeSet a(16), b(16);
  a.Set(7);
  EXPECT_FALSE(a == b);
  b.Set(7);
  EXPECT_TRUE(a == b);
}

TEST(NodeSet, ToVectorAscending) {
  NodeSet s(130);
  for (NodeId n : {5, 64, 127, 0, 129}) s.Set(n);
  EXPECT_EQ(s.ToVector(), (std::vector<NodeId>{0, 5, 64, 127, 129}));
}

TEST(NodeSet, FromVectorRoundTrip) {
  const std::vector<NodeId> v{3, 17, 31};
  const NodeSet s = NodeSet::FromVector(32, v);
  EXPECT_EQ(s.ToVector(), v);
}

TEST(NodeSet, HeaderFlitsIsCeilBytes) {
  EXPECT_EQ(NodeSet(1).HeaderFlits(), 1);
  EXPECT_EQ(NodeSet(8).HeaderFlits(), 1);
  EXPECT_EQ(NodeSet(9).HeaderFlits(), 2);
  EXPECT_EQ(NodeSet(32).HeaderFlits(), 4);
  EXPECT_EQ(NodeSet(64).HeaderFlits(), 8);
  EXPECT_EQ(NodeSet(65).HeaderFlits(), 9);
}

TEST(NodeSet, WordBoundaryOps) {
  NodeSet a(128), b(128);
  a.Set(63);
  a.Set(64);
  b.Set(64);
  b.Set(65);
  NodeSet i = a & b;
  EXPECT_EQ(i.ToVector(), (std::vector<NodeId>{64}));
  a.Subtract(b);
  EXPECT_EQ(a.ToVector(), (std::vector<NodeId>{63}));
}


// --- inline (<= 256 nodes) and heap (> 256) storage ---------------------

constexpr int kInline = NodeSet::kInlineNodes;  // 256: last inline size
constexpr int kHeap = kInline + 1;              // 257: first heap size

/// A set of `n` nodes holding 0, n - 1 and every 37th node in between.
NodeSet Pattern(int n) {
  NodeSet s(n);
  for (NodeId i = 0; i < n; i += 37) s.Set(i);
  s.Set(n - 1);
  return s;
}

TEST(NodeSetStorage, InlineSetsNeverAllocate) {
  const std::size_t before = counting_new::Allocations();
  NodeSet a = Pattern(kInline);
  NodeSet b = a;            // copy
  NodeSet c = std::move(b);  // move
  NodeSet d(kInline);
  d = c;  // copy-assign
  d |= a;
  const NodeSet e = a | c;
  const NodeSet f = NodeSetView(a).ToSet();
  EXPECT_EQ(counting_new::Allocations(), before);
  EXPECT_EQ(d, e);
  EXPECT_EQ(f, a);
}

TEST(NodeSetStorage, HeapSetsAllocateOncePerOwner) {
  const NodeSet a = Pattern(kHeap);
  std::size_t before = counting_new::Allocations();
  NodeSet b = a;  // one word block
  EXPECT_EQ(counting_new::Allocations(), before + 1);
  before = counting_new::Allocations();
  NodeSet c = std::move(b);  // steals the block
  EXPECT_EQ(counting_new::Allocations(), before);
  EXPECT_EQ(c, a);
}

TEST(NodeSetStorage, CopyMoveAndAssignAcrossTheBoundary) {
  for (int n : {1, 64, kInline - 1, kInline, kHeap, 2 * kHeap}) {
    const NodeSet src = Pattern(n);
    NodeSet copy(src);
    EXPECT_EQ(copy, src) << n;
    copy.Clear(n - 1);  // a copy owns its words
    EXPECT_TRUE(src.Test(n - 1)) << n;

    NodeSet moved(std::move(copy));
    EXPECT_EQ(moved.capacity(), n);
    EXPECT_FALSE(moved.Test(n - 1));
    EXPECT_EQ(moved.Count(), src.Count() - 1);
    EXPECT_EQ(copy.capacity(), 0);  // NOLINT(bugprone-use-after-move)
    EXPECT_TRUE(copy.Empty());      // NOLINT(bugprone-use-after-move)

    // Assign into sets of the other storage form, both ways.
    for (int m : {kInline, kHeap}) {
      NodeSet dst = Pattern(m);
      dst = src;
      EXPECT_EQ(dst, src) << m << " <- " << n;
      EXPECT_EQ(dst.ToVector(), src.ToVector()) << m << " <- " << n;
      NodeSet dst2 = Pattern(m);
      NodeSet tmp = src;
      dst2 = std::move(tmp);
      EXPECT_EQ(dst2, src) << m << " <- moved " << n;
    }
    NodeSet self = src;
    const NodeSet& alias = self;
    self = alias;  // self-assignment keeps the set
    EXPECT_EQ(self, src) << n;
  }
}

TEST(NodeSetStorage, EqualityAndToSetRoundTripInBothForms) {
  for (int n : {kInline, kHeap}) {
    const NodeSet a = Pattern(n);
    const NodeSet round = NodeSetView(a).ToSet();
    EXPECT_EQ(round, a) << n;
    EXPECT_EQ(round.ToVector(), a.ToVector()) << n;
    NodeSet b = a;
    b.Clear(n - 1);
    EXPECT_FALSE(b == a) << n;
    b.Set(n - 1);
    EXPECT_TRUE(b == a) << n;
  }
  // Same members, different capacity: never equal.
  NodeSet small(kInline), large(kHeap);
  small.Set(3);
  large.Set(3);
  EXPECT_FALSE(NodeSetView(small) == NodeSetView(large));
}

TEST(NodeSetStorage, SetAlgebraOnHeapBackedSets) {
  constexpr int n = 300;
  NodeSet a(n), b(n);
  for (NodeId i : {0, 63, 64, 200, 256, 257, 299}) a.Set(i);
  for (NodeId i : {64, 65, 257, 298, 299}) b.Set(i);
  EXPECT_EQ(a.Count(), 7);
  EXPECT_EQ((a | b).ToVector(),
            (std::vector<NodeId>{0, 63, 64, 65, 200, 256, 257, 298, 299}));
  EXPECT_EQ((a & b).ToVector(), (std::vector<NodeId>{64, 257, 299}));
  EXPECT_TRUE(a.Intersects(b));
  EXPECT_TRUE((a & b).IsSubsetOf(a));
  EXPECT_FALSE(a.IsSubsetOf(b));
  EXPECT_TRUE(a.IsSubsetOfUnion(a & b, a));
  NodeSet c = a;
  c.Subtract(b);
  EXPECT_EQ(c.ToVector(), (std::vector<NodeId>{0, 63, 200, 256}));
  c &= b;
  EXPECT_TRUE(c.Empty());
  EXPECT_EQ(NodeSet::FromVector(n, a.ToVector()), a);
  EXPECT_EQ(NodeSet(n).HeaderFlits(), 38);
}

}  // namespace
}  // namespace irmc
