// Shared JSON plumbing for every exporter in the tree.
//
// The metrics exporter, trace exporter, bench sidecars, and the run
// ledger all emit JSON with the same determinism contract: name-sorted
// keys, integers via PRId64, finite doubles via %.17g (round-trip exact)
// and non-finite ones as null, and C0/quote/backslash escaping. The
// formatting helpers here are that contract's single implementation —
// duplicating them (as metrics/export.cpp and trace/export.cpp once did)
// risks two writers drifting and byte-comparison tests passing on one
// path but not the other.
//
// json::Value/json::Parse is the matching reader: a small
// recursive-descent parser for the repo's own exports (ledger records,
// metric sidecars, HTML-report inputs). It takes RFC 8259 numbers only
// (no hex, leading '+' or zeros, bare '.', inf or nan), preserves object
// key order, stores every number as a double (exact for the int53 range
// our exports use), and rejects trailing garbage, so a
// parse-then-reserialize comparison is meaningful in tests.
#pragma once

#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

namespace irmc::json {

/// %.17g — shortest representation that round-trips a double exactly
/// under strtod, so equal doubles always serialize to equal bytes. JSON
/// has no infinity or NaN, so a non-finite double writes `null`.
inline std::string Num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

inline std::string Num(std::int64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%" PRId64, v);
  return buf;
}

/// Escapes `"`, `\`, and control characters for embedding in a JSON
/// string literal. Everything else passes through byte-for-byte.
std::string Escape(const std::string& s);

/// Convenience: `"escaped"` with the surrounding quotes.
inline std::string Str(const std::string& s) {
  return '"' + Escape(s) + '"';
}

/// Parsed JSON document. Objects keep their key order (our writers sort
/// keys, so order-preserving storage keeps comparisons deterministic).
struct Value {
  enum class Kind : std::uint8_t { kNull, kBool, kNumber, kString, kArray, kObject };

  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string str;
  std::vector<Value> array;
  std::vector<std::pair<std::string, Value>> object;

  bool IsObject() const { return kind == Kind::kObject; }
  bool IsArray() const { return kind == Kind::kArray; }
  bool IsNumber() const { return kind == Kind::kNumber; }
  bool IsString() const { return kind == Kind::kString; }

  /// Object member lookup; nullptr when absent or not an object.
  const Value* Find(const std::string& key) const;

  double NumberOr(double fallback) const {
    return kind == Kind::kNumber ? number : fallback;
  }
  std::string StringOr(const std::string& fallback) const {
    return kind == Kind::kString ? str : fallback;
  }
  /// Member shorthand: `v.Num("count", 0)` == Find + NumberOr.
  double NumAt(const std::string& key, double fallback) const {
    const Value* m = Find(key);
    return m != nullptr ? m->NumberOr(fallback) : fallback;
  }
  std::string StrAt(const std::string& key, const std::string& fallback) const {
    const Value* m = Find(key);
    return m != nullptr ? m->StringOr(fallback) : fallback;
  }
};

/// Parses one complete JSON document (rejecting trailing non-whitespace).
/// On failure returns false and, when `error` is non-null, a
/// "offset N: reason" message.
bool Parse(const std::string& text, Value* out, std::string* error);

}  // namespace irmc::json
