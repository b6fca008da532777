// Machine-readable serialisation of a MetricsRegistry.
//
// Three formats, all with names sorted (std::map order) so identical
// registries serialise to identical bytes:
//   JSON  — one object: {"counters":{...},"gauges":{...},"histograms":{...}}
//   JSONL — one metric per line ({"kind":...,"name":...,...}), for
//           appending per-point sidecar records from the benches
//   CSV   — kind,name,field,value rows
// Doubles print with %.17g (round-trip exact), so equal doubles always
// produce equal text; JSON and JSONL write a non-finite double as null,
// CSV as inf or nan.
#pragma once

#include <string>

#include "metrics/metrics.hpp"

namespace irmc {

std::string ToJson(const MetricsRegistry& reg);
std::string ToJsonLines(const MetricsRegistry& reg);
std::string ToCsv(const MetricsRegistry& reg);

/// One histogram as the JSON object embedded in every export and ledger
/// record: {"count":..,"sum":..,"min":..,"max":..,"p50":..,"p95":..,
/// "p99":..,"bins":[[lo,hi,n],...]} (min/max/quantiles omitted when
/// empty; non-empty bins only).
std::string HistogramToJson(const Histogram& h);

/// Serialises per the file extension: .csv -> CSV, .jsonl -> JSONL,
/// anything else -> JSON. Unlike the raw ToJson/ToJsonLines/ToCsv, the
/// file-level form is stamped with the producing binary's BuildInfo
/// (git SHA, compiler, build type, sanitizer): a leading "build" object
/// member (JSON), a {"kind":"build",...} first line (JSONL), or
/// build,... rows after the header (CSV).
std::string SerializeForPath(const MetricsRegistry& reg,
                             const std::string& path);

/// Writes `content` to `path` (truncating). Returns false on I/O error.
bool WriteFile(const std::string& path, const std::string& content);

}  // namespace irmc
