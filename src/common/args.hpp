// Minimal command-line argument parsing for the CLI tool.
//
// Supports `--key value`, `--flag`, and one positional command word.
// Unknown keys are collected, and RejectUnknown turns them away with a
// proper message instead of silently ignoring typos.
#pragma once

#include <cstdint>
#include <limits>
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

/// The reals a checked option accepts: finite values from `lo` to `hi`,
/// where an open end excludes its bound.
struct RealRange {
  double lo = -std::numeric_limits<double>::max();
  double hi = std::numeric_limits<double>::max();
  bool open_lo = false;
  bool open_hi = false;

  /// Finite values greater than `lo`.
  static RealRange Above(double lo) { return {lo, Max(), true, false}; }
  /// Finite values of at least `lo`.
  static RealRange AtLeast(double lo) { return {lo, Max(), false, false}; }
  /// Values strictly between `lo` and `hi`.
  static RealRange Inside(double lo, double hi) {
    return {lo, hi, true, true};
  }

  bool Contains(double v) const;
  /// The accepted values as an error message names them, e.g.
  /// "finite numbers > 0" or "numbers in (0, 1)".
  std::string Describe() const;

 private:
  static double Max() { return std::numeric_limits<double>::max(); }
};

/// Parses all of `text` as a real in `range`. Returns false, leaving
/// `out` untouched, for empty text, trailing characters, a non-finite
/// value or one outside the range.
bool ParseDoubleIn(const std::string& text, const RealRange& range,
                   double* out);

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
  /// absent; a fallback outside [lo, hi] (a range another option
  /// narrowed) exits the same way, naming the default.
  std::int64_t GetIntIn(const std::string& key, std::int64_t fallback,
                        std::int64_t lo, std::int64_t hi) const;
  /// Checked real option: a present value outside `range` (or not a
  /// number) exits the process with status 2 after printing the
  /// accepted range. Returns `fallback` when the key is absent.
  double GetDoubleIn(const std::string& key, double fallback,
                     const RealRange& range) const;
  /// Checked comma-separated lists (`fallback` is the list text used
  /// when the key is absent): every token must be an integer in [lo, hi]
  /// (resp. a real in `range`) and the list must not be empty, or the
  /// process exits with status 2 naming the option.
  std::vector<std::int64_t> GetIntListIn(const std::string& key,
                                         const std::string& fallback,
                                         std::int64_t lo,
                                         std::int64_t hi) const;
  std::vector<double> GetDoubleListIn(const std::string& key,
                                      const std::string& fallback,
                                      const RealRange& range) const;
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

  /// Option keys the caller never consumed; call after all Get*.
  std::vector<std::string> UnconsumedKeys() const;

  /// Prints "unknown option: --KEY" for each key no Get* read, and
  /// "unexpected argument: TOKEN" for each positional when no
  /// Positionals() call took them, then exits with status 2 when there
  /// is any. Every command calls it once its options are read, before it
  /// simulates, reads or writes anything.
  void RejectUnknown() const;

 private:
  std::string command_;
  std::map<std::string, std::string> values_;  // flag -> "" sentinel
  std::vector<std::string> positionals_;       // argv order
  mutable std::map<std::string, bool> consumed_;
  mutable bool positionals_consumed_ = false;
};

}  // namespace irmc
