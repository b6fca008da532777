// Minimal command-line argument parsing for the CLI tool.
//
// Supports `--key value`, `--flag`, and one positional command word.
// Unknown keys are collected so the caller can reject them with a
// proper message instead of silently ignoring typos.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace irmc {

/// Parses all of `text` as a base-10 integer in [lo, hi]. Returns false,
/// leaving `out` untouched, for empty text, trailing characters, or a
/// value outside the range (one too large for 64 bits included): a
/// hostile value never wraps or falls back silently.
bool ParseIntIn(const std::string& text, std::int64_t lo, std::int64_t hi,
                std::int64_t* out);

class Args {
 public:
  /// argv[1] may be a positional command; everything else must be
  /// --key [value] pairs (a --key followed by another --key or the end
  /// is a flag).
  static Args Parse(int argc, const char* const* argv);

  const std::string& command() const { return command_; }

  bool Has(const std::string& key) const { return values_.count(key) > 0; }

  std::string GetString(const std::string& key,
                        const std::string& fallback) const;
  /// Checked integer option: a present value that is not an integer in
  /// [lo, hi] exits the process with status 2 after printing the
  /// accepted range, like GetChoice. Returns `fallback` when the key is
  /// absent.
  std::int64_t GetIntIn(const std::string& key, std::int64_t fallback,
                        std::int64_t lo, std::int64_t hi) const;
  /// Lenient: a malformed value reads as `fallback` (see GetDoubleAbove
  /// for the checked form).
  double GetDouble(const std::string& key, double fallback) const;
  /// Checked real option: a present value that is not a finite number
  /// greater than `lo` exits the process with status 2 after printing
  /// the accepted range. Returns `fallback` when the key is absent.
  double GetDoubleAbove(const std::string& key, double fallback,
                        double lo) const;
  bool GetFlag(const std::string& key) const;

  /// Enum-valued option: the provided value must be one of `allowed`,
  /// otherwise the process exits with status 2 after printing the
  /// accepted values (a typo must not silently fall back to the
  /// default). Returns `fallback` when the key is absent.
  std::string GetChoice(const std::string& key, const std::string& fallback,
                        const std::vector<std::string>& allowed) const;

  /// True when `--version` was passed (consumed). Every CLI checks this
  /// first and prints VersionLine(tool) + the BuildInfo JSON
  /// (common/build_info.hpp) before doing anything else.
  bool VersionRequested() const { return GetFlag("version"); }

  /// Stray non-flag tokens after the command word (file operands, ...),
  /// in argv order; marks them consumed.
  std::vector<std::string> Positionals() const;

  /// Keys the caller never consumed; call after all Get*.
  std::vector<std::string> UnconsumedKeys() const;

 private:
  std::string command_;
  std::map<std::string, std::string> values_;  // flag -> "" sentinel
  std::vector<std::string> positionals_;       // argv order
  mutable std::map<std::string, bool> consumed_;
};

}  // namespace irmc
