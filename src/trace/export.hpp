// Machine-readable serialisation of a Tracer's event stream.
//
// Two formats, both derived from the tracer's retained events in
// oldest-first order, so equal streams serialise to identical bytes
// (the determinism contract in docs/tracing.md):
//   JSONL  — one event per line with a fixed field order:
//            {"trial":0,"time":12,"kind":"inject","mcast":0,"pkt":0,
//             "actor":3,"detail":-1}
//            Round-trips through ParseTraceJsonLines (tools/irmc_trace).
//   Chrome — trace-event JSON loadable in chrome://tracing or Perfetto:
//            one process per trial, one track (thread) per switch and
//            per node; kBlockBegin/kBlockEnd pairs render as complete
//            "X" slices on the blocking channel's track, every other
//            kind as an instant.
#pragma once

#include <string>

#include "trace/tracer.hpp"

namespace irmc {

std::string ToJsonLines(const Tracer& tracer);
std::string ToChromeTrace(const Tracer& tracer);

/// Serialises per the file extension: .jsonl -> JSONL, anything else
/// (.json, .trace, ...) -> Chrome trace-event JSON.
std::string SerializeTraceForPath(const Tracer& tracer,
                                  const std::string& path);

/// Parses a JSONL export back into `out` (events keep their trial
/// stamps; `out` should be default-constructed). Returns false and sets
/// `error` (if non-null) on the first malformed line: one that is not a
/// single JSON object of exactly the seven event fields, or whose kind
/// is unknown, or whose integers are fractional or do not fit their
/// field.
bool ParseTraceJsonLines(const std::string& text, Tracer* out,
                         std::string* error = nullptr);

}  // namespace irmc
