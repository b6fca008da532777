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
      // operands) or see it in UnconsumedKeys() and reject it.
      args.positionals_.push_back(token);
      args.values_["<positional:" + token + ">"] = "";
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
  if (it == values_.end()) return fallback;
  std::int64_t value = 0;
  if (ParseIntIn(it->second, lo, hi, &value)) return value;
  // A number below the range names the bound it missed; anything else
  // (not a number, too large) names the whole range.
  constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
  const bool below =
      lo > kMin && ParseIntIn(it->second, kMin, lo - 1, &value);
  const std::string accepted =
      below ? ">= " + std::to_string(lo)
            : "from " + std::to_string(lo) + " to " + std::to_string(hi);
  std::fprintf(stderr, "invalid value for --%s: '%s' (accepted: integers %s)\n",
               key.c_str(), it->second.c_str(), accepted.c_str());
  std::exit(2);
}

double Args::GetDouble(const std::string& key, double fallback) const {
  consumed_[key] = true;
  auto it = values_.find(key);
  if (it == values_.end() || it->second.empty()) return fallback;
  char* end = nullptr;
  const double v = std::strtod(it->second.c_str(), &end);
  return (end != nullptr && *end == '\0') ? v : fallback;
}

double Args::GetDoubleAbove(const std::string& key, double fallback,
                            double lo) const {
  consumed_[key] = true;
  auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  const char* text = it->second.c_str();
  char* end = nullptr;
  const double v = std::strtod(text, &end);
  if (end != text && *end == '\0' && std::isfinite(v) && v > lo) return v;
  std::fprintf(stderr,
               "invalid value for --%s: '%s' (accepted: finite numbers > %g)\n",
               key.c_str(), text, lo);
  std::exit(2);
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
  std::fprintf(stderr, "invalid value for --%s: '%s' (accepted: %s)\n",
               key.c_str(), it->second.c_str(), accepted.c_str());
  std::exit(2);
}

bool Args::GetFlag(const std::string& key) const {
  consumed_[key] = true;
  return values_.count(key) > 0;
}

std::vector<std::string> Args::Positionals() const {
  for (const std::string& token : positionals_)
    consumed_["<positional:" + token + ">"] = true;
  return positionals_;
}

std::vector<std::string> Args::UnconsumedKeys() const {
  std::vector<std::string> out;
  for (const auto& [key, value] : values_)
    if (!consumed_.count(key)) out.push_back(key);
  return out;
}

}  // namespace irmc
