#include "topology/system_builder.hpp"

#include <bit>

namespace irmc {

namespace {

constexpr std::uint64_t kFnvOffset = 1469598103934665603ULL;
constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

void Mix(std::uint64_t& h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xff;
    h *= kFnvPrime;
  }
}

}  // namespace

SystemBuilder::SystemBuilder(std::size_t capacity) : capacity_(capacity) {}

SystemBuilder& SystemBuilder::Global() {
  static SystemBuilder instance;
  return instance;
}

std::shared_ptr<const System> SystemBuilder::LookupLocked(
    std::uint64_t fingerprint, const SpecKey& spec_key) {
  for (auto it = entries_.begin(); it != entries_.end(); ++it) {
    if (it->fingerprint != fingerprint || !(it->spec_key == spec_key))
      continue;
    entries_.splice(entries_.begin(), entries_, it);
    ++stats_.hits;
    return entries_.front().sys;
  }
  ++stats_.misses;
  return nullptr;
}

void SystemBuilder::InsertLocked(Entry entry) {
  entries_.push_front(std::move(entry));
  while (entries_.size() > capacity_) entries_.pop_back();
}

std::shared_ptr<const System> SystemBuilder::Build(const TopologySpec& spec,
                                                   std::uint64_t seed,
                                                   RootPolicy root_policy) {
  const SpecKey key{spec.num_switches,
                    spec.ports_per_switch,
                    spec.num_hosts,
                    std::bit_cast<std::uint64_t>(spec.link_utilization),
                    spec.allow_parallel_links,
                    seed,
                    root_policy};
  std::uint64_t h = kFnvOffset;
  Mix(h, 0x73706563);  // domain tag: spec-keyed entry
  Mix(h, static_cast<std::uint64_t>(key.num_switches));
  Mix(h, static_cast<std::uint64_t>(key.ports_per_switch));
  Mix(h, static_cast<std::uint64_t>(key.num_hosts));
  Mix(h, key.link_utilization_bits);
  Mix(h, key.allow_parallel_links ? 1 : 0);
  Mix(h, key.seed);
  Mix(h, static_cast<std::uint64_t>(key.root_policy));

  {
    std::lock_guard<std::mutex> lock(mu_);
    if (auto hit = LookupLocked(h, key)) return hit;
  }
  // Construct outside the lock; concurrent misses on the same key build
  // twice and the second insert wins — wasteful but correct, and rare.
  auto sys = std::make_shared<const System>(GenerateTopology(spec, seed),
                                            root_policy);
  std::lock_guard<std::mutex> lock(mu_);
  InsertLocked(Entry{h, key, sys});
  return sys;
}

SystemBuilder::Stats SystemBuilder::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

void SystemBuilder::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  entries_.clear();
}

std::size_t SystemBuilder::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

}  // namespace irmc
