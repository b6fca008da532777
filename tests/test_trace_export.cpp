// Trace exporters: JSONL round-trip fidelity, Chrome trace-event
// structure, and the determinism contract — a traced run serialises to
// byte-identical output for any IRMC_THREADS (this file's
// TraceDeterminism suite backs the trace_determinism_smoke ctest).
#include "trace/export.hpp"

#include <gtest/gtest.h>

#include <string>

#include "common/build_info.hpp"
#include "core/load_runner.hpp"
#include "core/parallel.hpp"
#include "core/single_runner.hpp"
#include "trace/tracer.hpp"
#include "workloads/dsm.hpp"

namespace irmc {
namespace {

/// Restores the environment/default thread resolution on scope exit.
struct ThreadsGuard {
  ~ThreadsGuard() { SetParallelThreads(0); }
};

Tracer SampleTrace() {
  Tracer tracer;
  tracer.set_trial(0);
  tracer.Record({0, TraceKind::kSendStart, 0, 0, 3, -1});
  tracer.Record({4, TraceKind::kInject, 0, 0, 3, -1});
  tracer.Record({4, TraceKind::kBlockBegin, 0, 0, 1, 2});
  tracer.Record({9, TraceKind::kBlockEnd, 0, 0, 1, 2});
  tracer.Record({9, TraceKind::kHeadArrive, 0, 0, 1, 2});
  tracer.set_trial(1);
  tracer.Record({2, TraceKind::kNiDeliver, 0, 1, 7, -1});
  tracer.Record({5, TraceKind::kHostDeliver, 0, 1, 7, -1});
  return tracer;
}

TEST(JsonLines, RoundTripsByteIdentically) {
  const Tracer original = SampleTrace();
  const std::string text = ToJsonLines(original);
  Tracer parsed;
  std::string error;
  ASSERT_TRUE(ParseTraceJsonLines(text, &parsed, &error)) << error;
  EXPECT_EQ(parsed.size(), original.size());
  EXPECT_EQ(ToJsonLines(parsed), text);
  // Trial stamps survive the round trip.
  EXPECT_EQ(parsed.Events().front().trial, 0);
  EXPECT_EQ(parsed.Events().back().trial, 1);
}

TEST(JsonLines, FixedFieldOrderPerLine) {
  Tracer tracer;
  tracer.Record({12, TraceKind::kInject, 3, 1, 5, -1});
  EXPECT_EQ(ToJsonLines(tracer),
            "{\"trial\":0,\"time\":12,\"kind\":\"inject\",\"mcast\":3,"
            "\"pkt\":1,\"actor\":5,\"detail\":-1}\n");
}

TEST(JsonLines, ParseRejectsMalformedLineWithLineNumber) {
  const std::string text =
      "{\"trial\":0,\"time\":1,\"kind\":\"inject\",\"mcast\":0,\"pkt\":0,"
      "\"actor\":1,\"detail\":-1}\n"
      "this is not a trace record\n";
  Tracer out;
  std::string error;
  EXPECT_FALSE(ParseTraceJsonLines(text, &out, &error));
  EXPECT_NE(error.find("line 2"), std::string::npos) << error;

  // Unknown kind names are malformed too.
  Tracer out2;
  EXPECT_FALSE(ParseTraceJsonLines(
      "{\"trial\":0,\"time\":1,\"kind\":\"warp-drive\",\"mcast\":0,"
      "\"pkt\":0,\"actor\":1,\"detail\":-1}\n",
      &out2, &error));
}

TEST(JsonLines, ParseRejectsOutOfRangeFieldsAndTrailingText) {
  const auto record = [](const std::string& actor, const std::string& tail) {
    return "{\"trial\":0,\"time\":1,\"kind\":\"inject\",\"mcast\":0,"
           "\"pkt\":0,\"actor\":" +
           actor + ",\"detail\":-1}" + tail + "\n";
  };
  Tracer ok;
  std::string error;
  ASSERT_TRUE(ParseTraceJsonLines(record("2147483647", ""), &ok, &error))
      << error;
  EXPECT_EQ(ok.Events().front().actor, 2147483647);

  // 2^32 + 1 once wrapped to actor 1; a second record after the closing
  // brace was ignored.
  for (const std::string& line :
       {record("4294967297", ""), record("2147483648", ""),
        record("1.5", ""), record("\"3\"", ""), record("1", " x"),
        record("1", "{\"trial\":0}")}) {
    Tracer out;
    EXPECT_FALSE(ParseTraceJsonLines(line, &out, &error)) << line;
    EXPECT_EQ(out.size(), 0u) << line;
  }
}

TEST(JsonLines, ParseRejectsNonJsonNumbers) {
  // strtod reads "0x10" as 16; a trace record holds JSON numbers only.
  for (const std::string actor : {"0x10", "+3", "01", ".5", "1.", "inf"}) {
    const std::string line =
        "{\"trial\":0,\"time\":1,\"kind\":\"inject\",\"mcast\":0,"
        "\"pkt\":0,\"actor\":" +
        actor + ",\"detail\":-1}\n";
    Tracer out;
    std::string error;
    EXPECT_FALSE(ParseTraceJsonLines(line, &out, &error)) << line;
    EXPECT_EQ(out.size(), 0u) << line;
  }
}

TEST(ChromeTrace, HasMetadataSlicesAndInstants) {
  const std::string json = ToChromeTrace(SampleTrace());
  // Perfetto-loadable envelope.
  EXPECT_EQ(json.rfind("{\"displayTimeUnit\":\"ns\"", 0), 0u);
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  // One process per trial, named tracks.
  EXPECT_NE(json.find("\"process_name\""), std::string::npos);
  EXPECT_NE(json.find("\"thread_name\""), std::string::npos);
  // The matched block pair renders as one complete slice with its
  // duration; the remaining kinds as instants.
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"dur\":5"), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"blocked\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"send-start\""), std::string::npos);
}

TEST(ChromeTrace, RingCappedTraceStillSerializes) {
  Tracer tracer(2);  // keeps only the block-end + head-arrive pair's tail
  tracer.Record({0, TraceKind::kBlockBegin, 0, 0, 1, 2});
  tracer.Record({7, TraceKind::kBlockEnd, 0, 0, 1, 2});
  tracer.Record({7, TraceKind::kHeadArrive, 0, 0, 1, 2});
  EXPECT_EQ(tracer.dropped(), 1u);
  const std::string json = ToChromeTrace(tracer);
  // The orphaned end must not fabricate a slice.
  EXPECT_EQ(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
}

TEST(SerializeForPath, ExtensionSelectsFormat) {
  const Tracer tracer = SampleTrace();
  // The file-level JSONL form prepends the build stamp, then carries the
  // raw export byte-for-byte (and still round-trips: the parser skips
  // the stamp line).
  EXPECT_EQ(SerializeTraceForPath(tracer, "run.jsonl"),
            "{\"kind\":\"build\",\"value\":" + ToJson(GetBuildInfo()) + "}\n" +
                ToJsonLines(tracer));
  Tracer reparsed;
  std::string error;
  ASSERT_TRUE(ParseTraceJsonLines(SerializeTraceForPath(tracer, "run.jsonl"),
                                  &reparsed, &error))
      << error;
  EXPECT_EQ(ToJsonLines(reparsed), ToJsonLines(tracer));
  EXPECT_EQ(SerializeTraceForPath(tracer, "run.json"), ToChromeTrace(tracer));
  EXPECT_EQ(SerializeTraceForPath(tracer, "run.trace"), ToChromeTrace(tracer));
}

// --- the tentpole regression: byte-identical exports for any thread
// count, across all three traced runners ---

template <typename Fn>
void ExpectByteIdenticalAcrossThreadCounts(Fn run) {
  ThreadsGuard guard;
  SetParallelThreads(1);
  const Tracer t1 = run();
  SetParallelThreads(2);
  const Tracer t2 = run();
  SetParallelThreads(8);
  const Tracer t8 = run();
  ASSERT_GT(t1.size(), 0u);
  const std::string jsonl = ToJsonLines(t1);
  EXPECT_EQ(ToJsonLines(t2), jsonl);
  EXPECT_EQ(ToJsonLines(t8), jsonl);
  const std::string chrome = ToChromeTrace(t1);
  EXPECT_EQ(ToChromeTrace(t2), chrome);
  EXPECT_EQ(ToChromeTrace(t8), chrome);
}

TEST(TraceDeterminism, SingleRunnerExportsAreThreadCountInvariant) {
  ExpectByteIdenticalAcrossThreadCounts([] {
    Tracer tracer;
    SingleRunSpec spec;
    spec.scheme = SchemeKind::kTreeWorm;
    spec.multicast_size = 6;
    spec.topologies = 4;
    spec.samples_per_topology = 2;
    spec.tracer = &tracer;
    RunSingleMulticast(spec);
    return tracer;
  });
}

TEST(TraceDeterminism, LoadRunnerExportsAreThreadCountInvariant) {
  ExpectByteIdenticalAcrossThreadCounts([] {
    Tracer tracer;
    LoadRunSpec spec;
    spec.scheme = SchemeKind::kTreeWorm;
    spec.degree = 8;
    spec.effective_load = 0.2;
    spec.warmup = 2'000;
    spec.horizon = 12'000;
    spec.topologies = 4;
    spec.tracer = &tracer;
    RunLoadSweepPoint(spec);
    return tracer;
  });
}

TEST(TraceDeterminism, DsmRunnerExportsAreThreadCountInvariant) {
  ExpectByteIdenticalAcrossThreadCounts([] {
    Tracer tracer;
    SimConfig cfg;
    DsmParams params;
    params.sharers_per_line = 6;
    params.topologies = 4;
    params.tracer = &tracer;
    RunDsmInvalidation(cfg, SchemeKind::kTreeWorm, params);
    return tracer;
  });
}

TEST(TraceDeterminism, RingCappedExportsAreThreadCountInvariant) {
  // Per-trial caps drop per-trial suffixes deterministically, so even a
  // lossy trace must export identically for any thread count.
  ExpectByteIdenticalAcrossThreadCounts([] {
    Tracer tracer;
    SingleRunSpec spec;
    spec.scheme = SchemeKind::kTreeWorm;
    spec.multicast_size = 6;
    spec.topologies = 4;
    spec.samples_per_topology = 2;
    spec.tracer = &tracer;
    spec.trace_cap = 32;
    RunSingleMulticast(spec);
    return tracer;
  });
}

}  // namespace
}  // namespace irmc
