#include "trace/tracer.hpp"

#include "trace/analysis.hpp"

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "core/executor.hpp"
#include "core/single_runner.hpp"
#include "mcast/scheme.hpp"
#include "topology/system.hpp"

namespace irmc {
namespace {

TEST(Tracer, RecordsAndFilters) {
  Tracer tracer;
  tracer.Record({10, TraceKind::kInject, 1, 0, 3, -1});
  tracer.Record({20, TraceKind::kRoute, 1, 0, 0, 2});
  tracer.Record({30, TraceKind::kInject, 2, 0, 4, -1});
  EXPECT_EQ(tracer.size(), 3u);
  const auto injects = tracer.Filter(
      [](const TraceEvent& e) { return e.kind == TraceKind::kInject; });
  EXPECT_EQ(injects.size(), 2u);
  EXPECT_EQ(tracer.OfMulticast(1).size(), 2u);
  tracer.Clear();
  EXPECT_EQ(tracer.size(), 0u);
}

constexpr TraceKind kAllKinds[] = {
    TraceKind::kSendStart, TraceKind::kInject,      TraceKind::kHeadArrive,
    TraceKind::kRoute,     TraceKind::kBranch,      TraceKind::kNiDeliver,
    TraceKind::kHostDeliver, TraceKind::kBlockBegin, TraceKind::kBlockEnd};

TEST(Tracer, KindNamesAreDistinct) {
  std::set<std::string> names;
  for (TraceKind k : kAllKinds) names.insert(ToString(k));
  EXPECT_EQ(names.size(), 9u);
}

TEST(Tracer, KindNamesRoundTrip) {
  for (TraceKind k : kAllKinds) {
    TraceKind parsed = TraceKind::kInject;
    ASSERT_TRUE(TraceKindFromString(ToString(k), &parsed)) << ToString(k);
    EXPECT_EQ(parsed, k);
  }
  TraceKind parsed = TraceKind::kRoute;
  EXPECT_FALSE(TraceKindFromString("no-such-kind", &parsed));
  EXPECT_EQ(parsed, TraceKind::kRoute);  // untouched on failure
}

TEST(Tracer, RingBufferKeepsMostRecentEvents) {
  Tracer tracer(3);
  for (Cycles t = 0; t < 5; ++t)
    tracer.Record({t, TraceKind::kInject, t, 0, 0, -1});
  EXPECT_EQ(tracer.size(), 3u);
  EXPECT_EQ(tracer.capacity(), 3u);
  EXPECT_EQ(tracer.total_recorded(), 5u);
  EXPECT_EQ(tracer.dropped(), 2u);
  const auto events = tracer.Events();
  ASSERT_EQ(events.size(), 3u);
  // Oldest-first iteration over the survivors (times 2, 3, 4).
  EXPECT_EQ(events[0].time, 2);
  EXPECT_EQ(events[1].time, 3);
  EXPECT_EQ(events[2].time, 4);
  tracer.Clear();
  EXPECT_EQ(tracer.size(), 0u);
  EXPECT_EQ(tracer.dropped(), 0u);
  EXPECT_EQ(tracer.capacity(), 3u);  // cap survives Clear
}

TEST(Tracer, RecordStampsTrialAndAppendPreservesIt) {
  Tracer a;
  a.set_trial(2);
  a.Record({1, TraceKind::kInject, 0, 0, 0, -1});
  EXPECT_EQ(a.Events().front().trial, 2);

  Tracer b;
  b.set_trial(5);
  b.Record({7, TraceKind::kRoute, 0, 0, 1, 1});

  Tracer merged;
  merged.Append(a);
  merged.Append(b);
  const auto events = merged.Events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].trial, 2);
  EXPECT_EQ(events[1].trial, 5);
  EXPECT_EQ(merged.OfMulticast(0, /*trial=*/5).size(), 1u);
  EXPECT_EQ(merged.OfMulticast(0).size(), 2u);

  // Ring losses in a source carry into the merged accounting.
  Tracer capped(1);
  capped.Record({1, TraceKind::kInject, 0, 0, 0, -1});
  capped.Record({2, TraceKind::kInject, 0, 0, 0, -1});
  merged.Append(capped);
  EXPECT_EQ(merged.size(), 3u);
  EXPECT_EQ(merged.dropped(), 1u);
  EXPECT_EQ(merged.total_recorded(), 4u);
}

class TracedRun : public ::testing::TestWithParam<SchemeKind> {
 protected:
  Tracer tracer_;
  std::unique_ptr<System> sys_;
  SimConfig cfg_;

  MulticastResult RunTraced(const std::vector<NodeId>& dests) {
    sys_ = System::Build({}, 42);
    Engine engine;
    McastDriver driver(engine, *sys_, cfg_, &tracer_);
    const auto scheme = MakeScheme(GetParam(), cfg_.host);
    MulticastResult result;
    driver.Launch(scheme->Plan(*sys_, 0, dests, cfg_.message, cfg_.headers),
                  0, [&result](const MulticastResult& r) { result = r; });
    engine.RunToQuiescence();
    return result;
  }
};

TEST_P(TracedRun, EventCausalityHolds) {
  const std::vector<NodeId> dests{5, 9, 17, 26};
  const MulticastResult r = RunTraced(dests);
  ASSERT_EQ(r.deliveries.size(), dests.size());

  const auto events = tracer_.OfMulticast(r.id);
  ASSERT_FALSE(events.empty());

  // Times never decrease (recorded in event order). Block events are
  // exempt: their begin timestamps backdate to when the packet became
  // ready, which can precede already-recorded events.
  Cycles prev = 0;
  int sends = 0, injects = 0, routes = 0, ni_delivers = 0, host_delivers = 0;
  for (const auto& e : events) {
    if (e.kind != TraceKind::kBlockBegin && e.kind != TraceKind::kBlockEnd) {
      EXPECT_GE(e.time, prev);
      prev = e.time;
    }
    switch (e.kind) {
      case TraceKind::kSendStart: ++sends; break;
      case TraceKind::kInject: ++injects; break;
      case TraceKind::kRoute: ++routes; break;
      case TraceKind::kNiDeliver: ++ni_delivers; break;
      case TraceKind::kHostDeliver: ++host_delivers; break;
      default: break;
    }
  }
  EXPECT_GE(sends, 1);
  EXPECT_GE(injects, 1);
  EXPECT_GE(routes, injects);  // every injection is routed at least once
  EXPECT_EQ(host_delivers, static_cast<int>(dests.size()));
  // Every destination's NI saw every packet of the message.
  EXPECT_EQ(ni_delivers % static_cast<int>(dests.size()), 0);

  // The first event is the source's send, the last the final delivery.
  EXPECT_EQ(events.front().kind, TraceKind::kSendStart);
  EXPECT_EQ(events.front().actor, 0);
  EXPECT_EQ(events.back().kind, TraceKind::kHostDeliver);
}

TEST_P(TracedRun, NiDeliverPrecedesHostDeliverPerNode) {
  const std::vector<NodeId> dests{4, 12, 30};
  const MulticastResult r = RunTraced(dests);
  for (NodeId d : dests) {
    Cycles ni_time = -1, host_time = -1;
    for (const auto& e : tracer_.OfMulticast(r.id)) {
      if (e.actor != d) continue;
      if (e.kind == TraceKind::kNiDeliver && ni_time < 0) ni_time = e.time;
      if (e.kind == TraceKind::kHostDeliver) host_time = e.time;
    }
    ASSERT_GE(ni_time, 0) << "node " << d;
    ASSERT_GE(host_time, 0) << "node " << d;
    EXPECT_LT(ni_time, host_time) << "node " << d;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Schemes, TracedRun,
    ::testing::Values(SchemeKind::kUnicastBinomial, SchemeKind::kNiKBinomial,
                      SchemeKind::kTreeWorm, SchemeKind::kPathWorm),
    [](const auto& info) { return std::string(ToIdent(info.param)); });

// The channel layer both engines share: link reports, flit accounting,
// the link-metric fold and the swap shape contract owe the same answers
// whichever engine carries the traffic.
class LinkReports : public ::testing::TestWithParam<EngineKind> {};

TEST_P(LinkReports, UtilizationAndFlitAccounting) {
  const auto sys = System::Build({}, 42);
  SimConfig cfg;
  cfg.engine = GetParam();
  MetricsRegistry reg;
  Engine engine;
  McastDriver driver(engine, *sys, cfg, nullptr, &reg);
  const auto scheme = MakeScheme(SchemeKind::kTreeWorm, cfg.host);
  std::vector<NodeId> dests{1, 2, 3, 4, 5, 6, 7, 8};
  driver.Launch(scheme->Plan(*sys, 0, dests, cfg.message, cfg.headers), 0,
                [](const MulticastResult&) {});
  const Cycles end = engine.RunToQuiescence();

  const auto reports = driver.network().LinkReports(end);
  ASSERT_FALSE(reports.empty());
  std::int64_t total_flits = 0;
  for (const auto& r : reports) {
    EXPECT_GE(r.utilization, 0.0);
    EXPECT_LE(r.utilization, 1.0);
    total_flits += r.flits;
  }
  EXPECT_EQ(total_flits, driver.network().flits_sent());
  EXPECT_GT(driver.network().MaxLinkUtilization(end), 0.0);
  EXPECT_LE(driver.network().MaxLinkUtilization(end), 1.0);

  // The end-of-run fold agrees with the live accessors: a channel is
  // busy one cycle per flit it carries.
  driver.network().CollectMetrics(end);
  const std::string prefix =
      GetParam() == EngineKind::kVct ? "fabric." : "flit.";
  EXPECT_EQ(reg.counters().at(prefix + "link_busy_cycles").value,
            driver.network().flits_sent());
  EXPECT_EQ(reg.gauges().at(prefix + "max_link_utilization").value,
            driver.network().MaxLinkUtilization(end));
}

TEST_P(LinkReports, IdleFabricIsAllZero) {
  const auto sys = System::Build({}, 42);
  SimConfig cfg;
  cfg.engine = GetParam();
  Engine engine;
  McastDriver driver(engine, *sys, cfg);
  for (const auto& r : driver.network().LinkReports(1000)) {
    EXPECT_EQ(r.flits, 0);
    EXPECT_EQ(r.utilization, 0.0);
  }
  EXPECT_EQ(driver.network().flits_sent(), 0);
  EXPECT_EQ(driver.network().MaxLinkUtilization(1000), 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    Engines, LinkReports,
    ::testing::Values(EngineKind::kVct, EngineKind::kFlit),
    [](const auto& info) { return std::string(ToString(info.param)); });

class BreakdownTest : public ::testing::TestWithParam<SchemeKind> {};

TEST_P(BreakdownTest, ComponentsSumAndAreNonNegative) {
  const auto sys = System::Build({}, 42);
  SimConfig cfg;
  Tracer tracer;
  Engine engine;
  McastDriver driver(engine, *sys, cfg, &tracer);
  const auto scheme = MakeScheme(GetParam(), cfg.host);
  MulticastResult result;
  const auto id = driver.Launch(
      scheme->Plan(*sys, 0, {5, 13, 21, 29}, cfg.message, cfg.headers), 0,
      [&result](const MulticastResult& r) { result = r; });
  engine.RunToQuiescence();

  const LatencyBreakdown b = AnalyzeMulticast(tracer, id);
  EXPECT_GE(b.SourceSoftware(), 0);
  EXPECT_GE(b.Network(), 0);
  EXPECT_GE(b.DestinationSoftware(), 0);
  EXPECT_EQ(b.SourceSoftware() + b.Network() + b.DestinationSoftware(),
            b.Total());
  EXPECT_EQ(b.Total(), result.Latency());
  // The destination pays at least its host overhead after NI arrival.
  EXPECT_GE(b.DestinationSoftware(), cfg.host.o_host);
}

INSTANTIATE_TEST_SUITE_P(
    Schemes, BreakdownTest,
    ::testing::Values(SchemeKind::kUnicastBinomial, SchemeKind::kNiKBinomial,
                      SchemeKind::kTreeWorm, SchemeKind::kPathWorm),
    [](const auto& info) { return std::string(ToIdent(info.param)); });

TEST(Breakdown, TreeWormNetworkShareSmallerThanBaseline) {
  // The baseline's "network" span contains every intermediate host's
  // software (the last NI arrival comes phases later); the tree worm's
  // is one pipelined pass.
  const auto sys = System::Build({}, 42);
  SimConfig cfg;
  auto measure = [&](SchemeKind kind) {
    Tracer tracer;
    Engine engine;
    McastDriver driver(engine, *sys, cfg, &tracer);
    const auto scheme = MakeScheme(kind, cfg.host);
    const auto id = driver.Launch(
        scheme->Plan(*sys, 0, {5, 13, 21, 29}, cfg.message, cfg.headers), 0,
        [](const MulticastResult&) {});
    engine.RunToQuiescence();
    return AnalyzeMulticast(tracer, id);
  };
  const LatencyBreakdown tree = measure(SchemeKind::kTreeWorm);
  const LatencyBreakdown base = measure(SchemeKind::kUnicastBinomial);
  EXPECT_LT(tree.Network(), base.Network());
}

}  // namespace
}  // namespace irmc
