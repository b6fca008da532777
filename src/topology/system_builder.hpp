// Keyed cache of immutable Systems.
//
// Building a System (BFS tree, orientation, routing tables, reachability
// strings) is the dominant per-trial setup cost, and many callers build
// the *same* System repeatedly: engine cross-checks run every trial on
// both engines, and sweep runners revisit (spec, seed) cells. A System
// is immutable after construction, so those rebuilds are pure waste.
//
// SystemBuilder memoizes construction behind a key: Build(spec, seed,
// policy) is keyed on the exact spec fields + seed + root policy.
//
// Entries are shared_ptr<const System>; a bounded LRU (default 64
// entries) evicts the map entry while outstanding holders keep their
// System alive. Thread-safe; a process-wide instance is at Global().
#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <vector>

#include "topology/system.hpp"

namespace irmc {

class SystemBuilder {
 public:
  /// `capacity` bounds the number of retained Systems (LRU eviction).
  explicit SystemBuilder(std::size_t capacity = 64);

  /// Process-wide shared instance.
  static SystemBuilder& Global();

  /// Cached equivalent of System::Build.
  std::shared_ptr<const System> Build(
      const TopologySpec& spec, std::uint64_t seed,
      RootPolicy root_policy = RootPolicy::kLowestId);

  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
  };
  Stats stats() const;

  /// Drops every cached entry (outstanding shared_ptrs stay valid).
  void Clear();

  std::size_t size() const;

 private:
  struct SpecKey {
    int num_switches;
    int ports_per_switch;
    int num_hosts;
    std::uint64_t link_utilization_bits;
    bool allow_parallel_links;
    std::uint64_t seed;
    RootPolicy root_policy;
    bool operator==(const SpecKey&) const = default;
  };

  struct Entry {
    std::uint64_t fingerprint;
    SpecKey spec_key;  ///< disambiguates fingerprint collisions
    std::shared_ptr<const System> sys;
  };

  /// Returns a hit (bumped to most-recent) or nullptr. Caller holds mu_.
  std::shared_ptr<const System> LookupLocked(std::uint64_t fingerprint,
                                             const SpecKey& spec_key);
  void InsertLocked(Entry entry);

  mutable std::mutex mu_;
  std::size_t capacity_;
  std::list<Entry> entries_;  // front = most recently used
  Stats stats_;
};

}  // namespace irmc
