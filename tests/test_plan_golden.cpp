// Golden digests of every multicast planner's output.
//
// Each digest is FNV-1a 64 over everything a planner decides: the plan's
// scheme, root and destination list, every node's children list in
// order, the chosen k, the tree-worm regions with their header lengths,
// and for each path worm its sender, phase, header length, covered
// destinations and route steps (switch, deliveries, forward port,
// header flits after the switch).
//
// Plan grid: 8/16/32 switches x 3 topology seeds; multicast sizes
// {1, 2, 4, 8, 15, 23, 31} x 20 seeded (source, destinations) draws;
// message shapes {128x1, 128x2, 128x8, 64x16} x R = o_host/o_ni
// {0.5, 1, 4} x header accounting on/off. Model grid: the FPFS
// completion model for 1-63 receivers x k 1-8, and the k choice for
// 1-63 receivers, over the same shapes.
//
// The values were recorded before the planners moved to flat scratch
// buffers; any change to what a planner emits changes a digest.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "mcast/binomial.hpp"
#include "mcast/kbinomial.hpp"
#include "mcast/path_worm.hpp"
#include "mcast/tree_worm.hpp"
#include "topology/system.hpp"

namespace irmc {
namespace {

struct Digest {
  std::uint64_t h = 14695981039346656037ull;
  void Num(std::int64_t v) {
    const auto u = static_cast<std::uint64_t>(v);
    for (int shift = 0; shift < 64; shift += 8) {
      h ^= (u >> shift) & 0xff;
      h *= 1099511628211ull;
    }
  }
  void Nodes(const std::vector<NodeId>& nodes) {
    Num(static_cast<std::int64_t>(nodes.size()));
    for (NodeId n : nodes) Num(n);
  }
};

void HashPlan(Digest& d, const McastPlan& plan) {
  d.Num(static_cast<std::int64_t>(plan.scheme));
  d.Num(plan.root);
  d.Nodes(plan.dests);
  d.Num(static_cast<std::int64_t>(plan.children.size()));
  for (const auto& kids : plan.children) d.Nodes(kids);
  d.Num(plan.chosen_k);
  d.Num(static_cast<std::int64_t>(plan.tree_regions.size()));
  for (const auto& region : plan.tree_regions) d.Nodes(region);
  for (int flits : plan.tree_region_header_flits) d.Num(flits);
  d.Num(static_cast<std::int64_t>(plan.worms.size()));
  for (const auto& worm : plan.worms) {
    d.Num(worm.sender);
    d.Num(worm.phase);
    d.Num(worm.header_flits);
    d.Nodes(worm.covered);
    d.Num(static_cast<std::int64_t>(worm.route->steps.size()));
    for (const auto& step : worm.route->steps) {
      d.Num(step.sw);
      d.Nodes(step.deliver);
      d.Num(step.forward_port);
      d.Num(step.header_flits_after);
    }
  }
}

/// One point of the shape grid: what a planner is told about the
/// message, the host/NI overheads and the header encoding.
struct ShapePoint {
  MessageShape shape;
  HostParams host;
  HeaderSizing headers;
};

std::vector<ShapePoint> ShapeGrid() {
  std::vector<ShapePoint> grid;
  for (const MessageShape shape : {MessageShape{128, 1}, MessageShape{128, 2},
                                   MessageShape{128, 8}, MessageShape{64, 16}})
    for (double r : {0.5, 1.0, 4.0})
      for (bool account : {true, false}) {
        ShapePoint p;
        p.shape = shape;
        p.host.SetRatio(r);
        p.headers.account = account;
        grid.push_back(p);
      }
  return grid;
}

struct Draw {
  const System* sys;
  NodeId src;
  std::vector<NodeId> dests;
};

/// Systems and seeded (source, destinations) draws of the plan grid,
/// built once for all the planner digests.
const std::vector<Draw>& Draws() {
  static const std::vector<std::unique_ptr<System>> systems = [] {
    std::vector<std::unique_ptr<System>> out;
    for (int switches : {8, 16, 32})
      for (std::uint64_t seed : {1, 2, 3}) {
        TopologySpec spec;
        spec.num_switches = switches;
        out.push_back(System::Build(spec, seed));
      }
    return out;
  }();
  static const std::vector<Draw> draws = [] {
    std::vector<Draw> out;
    Rng rng(2024);
    for (const auto& sys : systems) {
      const int nodes = sys->num_nodes();
      for (int size : {1, 2, 4, 8, 15, 23, 31})
        for (int i = 0; i < 20; ++i) {
          Draw draw{sys.get(), static_cast<NodeId>(rng.NextBelow(
                                   static_cast<std::uint64_t>(nodes))),
                    {}};
          for (std::int64_t v : rng.SampleWithoutReplacement(nodes - 1, size))
            draw.dests.push_back(
                static_cast<NodeId>(v >= draw.src ? v + 1 : v));
          out.push_back(std::move(draw));
        }
    }
    return out;
  }();
  return draws;
}

using SchemeFactory =
    std::function<std::unique_ptr<MulticastScheme>(const HostParams&)>;

/// Digest of one planner's plans over the whole plan grid.
std::uint64_t PlanGridDigest(const SchemeFactory& make) {
  Digest d;
  for (const ShapePoint& point : ShapeGrid()) {
    const auto scheme = make(point.host);
    for (const Draw& draw : Draws())
      HashPlan(d, scheme->Plan(*draw.sys, draw.src, draw.dests, point.shape,
                               point.headers));
  }
  return d.h;
}

SchemeFactory FromKind(SchemeKind kind) {
  return [kind](const HostParams& host) { return MakeScheme(kind, host); };
}

/// The k-choice model's inputs as KBinomialNiScheme derives them.
int WireFlits(const ShapePoint& p) {
  return p.shape.packet_flits + p.headers.UnicastFlits();
}
Cycles NetPipe(const ShapePoint& p) { return 3 * 3 + 2 * p.host.o_ni; }

#define EXPECT_DIGEST(expr, want)                                        \
  do {                                                                   \
    const std::uint64_t got_ = (expr);                                   \
    EXPECT_EQ(got_, want##ull) << "digest 0x" << std::hex << got_;       \
  } while (0)

TEST(PlanGolden, UnicastBinomial) {
  EXPECT_DIGEST(PlanGridDigest(FromKind(SchemeKind::kUnicastBinomial)),
                0x4492f3c445a6b525);
}

TEST(PlanGolden, NiKBinomial) {
  EXPECT_DIGEST(PlanGridDigest(FromKind(SchemeKind::kNiKBinomial)),
                0x41970b1851b2f5a5);
}

TEST(PlanGolden, NiKBinomialForcedK2) {
  EXPECT_DIGEST(PlanGridDigest([](const HostParams& host) {
                  auto scheme = std::make_unique<KBinomialNiScheme>();
                  scheme->host = host;
                  scheme->forced_k = 2;
                  return scheme;
                }),
                0x0b68b056b2114325);
}

TEST(PlanGolden, TreeWorm) {
  EXPECT_DIGEST(PlanGridDigest(FromKind(SchemeKind::kTreeWorm)),
                0x09ee6ffd1ae74d25);
}

TEST(PlanGolden, ChunkedTreeWorm) {
  EXPECT_DIGEST(PlanGridDigest([](const HostParams&) {
                  auto scheme = std::make_unique<TreeWormScheme>();
                  scheme->max_region_span = 8;
                  return scheme;
                }),
                0x843c88f90a23a525);
}

TEST(PlanGolden, PathWorm) {
  EXPECT_DIGEST(PlanGridDigest(FromKind(SchemeKind::kPathWorm)),
                0x31ae329dfe4a30e5);
}

TEST(PlanGolden, PathWormGreedy) {
  EXPECT_DIGEST(PlanGridDigest([](const HostParams&) {
                  auto scheme = std::make_unique<PathWormMdpLgScheme>();
                  scheme->less_greedy = false;
                  return scheme;
                }),
                0x3d6bee757b8bebe5);
}

TEST(PlanGolden, SeparateAddressing) {
  EXPECT_DIGEST(PlanGridDigest([](const HostParams&) {
                  return std::make_unique<SeparateAddressingScheme>();
                }),
                0x85c43fdc05868925);
}

TEST(PlanGolden, FpfsCompletionModel) {
  Digest d;
  for (const ShapePoint& p : ShapeGrid())
    for (int receivers = 1; receivers <= 63; ++receivers)
      for (int k = 1; k <= 8; ++k)
        d.Num(EvalFpfsCompletion(receivers, k, p.shape, p.host, WireFlits(p),
                                 NetPipe(p)));
  EXPECT_DIGEST(d.h, 0xdafabc26b55a5ec8);
}

TEST(PlanGolden, ChooseK) {
  Digest d;
  for (const ShapePoint& p : ShapeGrid())
    for (int receivers = 1; receivers <= 63; ++receivers)
      d.Num(ChooseK(receivers, p.shape, p.host, WireFlits(p), NetPipe(p)));
  EXPECT_DIGEST(d.h, 0x90710c2468ffe065);
}

}  // namespace
}  // namespace irmc
