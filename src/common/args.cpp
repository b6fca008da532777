#include "common/args.hpp"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>

namespace irmc {

bool ParseIntIn(const std::string& text, std::int64_t lo, std::int64_t hi,
                std::int64_t* out) {
  if (text.empty()) return false;
  char* end = nullptr;
  errno = 0;
  const long long value = std::strtoll(text.c_str(), &end, 10);
  if (errno == ERANGE || *end != '\0' || value < lo || value > hi)
    return false;
  *out = value;
  return true;
}

bool RealRange::Contains(double v) const {
  return std::isfinite(v) && (open_lo ? v > lo : v >= lo) &&
         (open_hi ? v < hi : v <= hi);
}

std::string RealRange::Describe() const {
  char text[96];
  if (hi == Max() && !open_hi)
    std::snprintf(text, sizeof text, "finite numbers %s %g",
                  open_lo ? ">" : ">=", lo);
  else
    std::snprintf(text, sizeof text, "numbers in %c%g, %g%c",
                  open_lo ? '(' : '[', lo, hi, open_hi ? ')' : ']');
  return text;
}

bool ParseDoubleIn(const std::string& text, const RealRange& range,
                   double* out) {
  if (text.empty()) return false;
  char* end = nullptr;
  const double value = std::strtod(text.c_str(), &end);
  if (*end != '\0' || !range.Contains(value)) return false;
  *out = value;
  return true;
}

namespace {

/// The integers [lo, hi] as an error message names them, for a value
/// `text` that missed them: a number below the range names the bound it
/// missed; anything else (not a number, too large) names the whole
/// range.
std::string IntRangeText(const std::string& text, std::int64_t lo,
                         std::int64_t hi) {
  constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
  std::int64_t value = 0;
  if (lo > kMin && ParseIntIn(text, kMin, lo - 1, &value))
    return "integers >= " + std::to_string(lo);
  return "integers from " + std::to_string(lo) + " to " + std::to_string(hi);
}

[[noreturn]] void RejectValue(const std::string& key, const std::string& value,
                             const std::string& accepted) {
  std::fprintf(stderr, "invalid value for --%s: '%s' (accepted: %s)\n",
               key.c_str(), value.c_str(), accepted.c_str());
  std::exit(2);
}

/// Splits `list` at commas, keeping empty tokens.
std::vector<std::string> SplitCommas(const std::string& list) {
  std::vector<std::string> out(1);
  for (char c : list) {
    if (c == ',')
      out.emplace_back();
    else
      out.back() += c;
  }
  return out;
}

}  // namespace

Args Args::Parse(int argc, const char* const* argv) {
  Args args;
  int i = 1;
  if (i < argc && argv[i][0] != '-') {
    args.command_ = argv[i];
    ++i;
  }
  while (i < argc) {
    std::string token = argv[i];
    if (token.rfind("--", 0) == 0) {
      const std::string key = token.substr(2);
      if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
        args.values_[key] = argv[i + 1];
        i += 2;
      } else {
        args.values_[key] = "";  // flag
        ++i;
      }
    } else {
      // Stray positional: callers either take it via Positionals() (file
      // operands) or RejectUnknown() turns it away.
      args.positionals_.push_back(token);
      ++i;
    }
  }
  return args;
}

std::string Args::GetString(const std::string& key,
                            const std::string& fallback) const {
  consumed_[key] = true;
  auto it = values_.find(key);
  return it == values_.end() ? fallback : it->second;
}

std::int64_t Args::GetIntIn(const std::string& key, std::int64_t fallback,
                            std::int64_t lo, std::int64_t hi) const {
  consumed_[key] = true;
  auto it = values_.find(key);
  if (it == values_.end()) {
    if (fallback >= lo && fallback <= hi) return fallback;
    // Another option narrowed the range past the default.
    std::fprintf(stderr,
                 "invalid value for --%s: the default %lld is out of range "
                 "(accepted: %s)\n",
                 key.c_str(), static_cast<long long>(fallback),
                 IntRangeText(std::to_string(fallback), lo, hi).c_str());
    std::exit(2);
  }
  std::int64_t value = 0;
  if (ParseIntIn(it->second, lo, hi, &value)) return value;
  RejectValue(key, it->second, IntRangeText(it->second, lo, hi));
}

double Args::GetDoubleIn(const std::string& key, double fallback,
                         const RealRange& range) const {
  consumed_[key] = true;
  auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  double value = 0.0;
  if (ParseDoubleIn(it->second, range, &value)) return value;
  RejectValue(key, it->second, range.Describe());
}

std::vector<std::int64_t> Args::GetIntListIn(const std::string& key,
                                             const std::string& fallback,
                                             std::int64_t lo,
                                             std::int64_t hi) const {
  const std::string list = GetString(key, fallback);
  std::vector<std::int64_t> out;
  for (const std::string& token : SplitCommas(list)) {
    std::int64_t value = 0;
    if (!ParseIntIn(token, lo, hi, &value))
      RejectValue(key, list,
                  "comma-separated " + IntRangeText(token, lo, hi));
    out.push_back(value);
  }
  return out;
}

std::vector<double> Args::GetDoubleListIn(const std::string& key,
                                          const std::string& fallback,
                                          const RealRange& range) const {
  const std::string list = GetString(key, fallback);
  std::vector<double> out;
  for (const std::string& token : SplitCommas(list)) {
    double value = 0.0;
    if (!ParseDoubleIn(token, range, &value))
      RejectValue(key, list, "comma-separated " + range.Describe());
    out.push_back(value);
  }
  return out;
}

std::string Args::GetChoice(const std::string& key, const std::string& fallback,
                            const std::vector<std::string>& allowed) const {
  consumed_[key] = true;
  auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  if (std::find(allowed.begin(), allowed.end(), it->second) != allowed.end())
    return it->second;
  std::string accepted;
  for (const std::string& a : allowed) {
    if (!accepted.empty()) accepted += ", ";
    accepted += a;
  }
  RejectValue(key, it->second, accepted);
}

bool Args::GetFlag(const std::string& key) const {
  consumed_[key] = true;
  return values_.count(key) > 0;
}

std::vector<std::string> Args::Positionals() const {
  positionals_consumed_ = true;
  return positionals_;
}

std::vector<std::string> Args::UnconsumedKeys() const {
  std::vector<std::string> out;
  for (const auto& [key, value] : values_)
    if (!consumed_.count(key)) out.push_back(key);
  return out;
}

void Args::RejectUnknown() const {
  const std::vector<std::string> unknown = UnconsumedKeys();
  for (const std::string& key : unknown)
    std::fprintf(stderr, "unknown option: --%s\n", key.c_str());
  const bool stray = !positionals_consumed_ && !positionals_.empty();
  if (stray)
    for (const std::string& token : positionals_)
      std::fprintf(stderr, "unexpected argument: %s\n", token.c_str());
  if (!unknown.empty() || stray) std::exit(2);
}

}  // namespace irmc
