// Simulation configuration: the paper's system parameters (Section 4.1)
// with the reconstructed defaults documented in DESIGN.md Section 2.
#pragma once

#include <cstdint>
#include <cstdlib>
#include <limits>
#include <string>

#include "common/args.hpp"
#include "common/types.hpp"
#include "network/network_model.hpp"
#include "topology/generator.hpp"

namespace irmc {

/// Forwarding discipline of a smart NI at intermediate destinations.
/// The paper uses FPFS (First-Packet-First-Served, Section 3.2.1):
/// packet j goes to every child before packet j+1, as soon as j arrives.
/// The store-and-forward alternative (wait for the whole message before
/// forwarding anything) is what FPFS was shown to beat; bench/ablG
/// reproduces that comparison.
enum class NiDiscipline : std::uint8_t {
  kFpfs,
  kMessageStoreAndForward,
};

/// Host / network-interface software model. The paper assumes the send
/// and receive overheads are equal at each level (o_s = o_r at both the
/// host and the NI) and studies the ratio R = o_host / o_ni.
struct HostParams {
  // 500 cycles = 5 us at the 10 ns cycle — the one-way host software
  // overhead of 1998 lightweight messaging layers (FM, AM, U-Net class).
  Cycles o_host = 500;  ///< per-message host software overhead (cycles)
  Cycles o_ni = 500;    ///< per-message NI software overhead (cycles)
  /// I/O (PCI-class) bus bandwidth in bytes per cycle; 2.66 B/cycle is
  /// 266 MB/s at the 10 ns cycle.
  static constexpr double io_bus_bytes_per_cycle = 2.66;
  /// NI processor cost to enqueue one forwarded copy of one packet at a
  /// smart NI (FPFS replication, Section 3.2.1).
  static constexpr Cycles ni_forward_overhead = 20;
  /// How intermediate smart NIs forward multi-packet messages.
  NiDiscipline ni_discipline = NiDiscipline::kFpfs;

  double R() const {
    return static_cast<double>(o_host) / static_cast<double>(o_ni);
  }
  /// Derive o_ni from o_host and the ratio R.
  void SetRatio(double r) {
    o_ni = static_cast<Cycles>(static_cast<double>(o_host) / r + 0.5);
  }
  /// I/O-bus DMA duration for `flits` bytes (ceil).
  Cycles DmaCycles(int flits) const {
    const double cycles = static_cast<double>(flits) / io_bus_bytes_per_cycle;
    return static_cast<Cycles>(cycles) +
           (cycles > static_cast<double>(static_cast<Cycles>(cycles)) ? 1 : 0);
  }
};

/// Message shape: the paper's default is one 128-flit packet; longer
/// messages split into 128-flit packets.
struct MessageShape {
  int packet_flits = 128;  ///< payload flits per packet
  int num_packets = 1;

  int TotalFlits() const { return packet_flits * num_packets; }
  /// At least one packet of at least one flit, as the planners' cost
  /// models and McastDriver require.
  bool Valid() const { return packet_flits >= 1 && num_packets >= 1; }
  static MessageShape FromMessageFlits(int message_flits, int packet_flits) {
    MessageShape shape;
    shape.packet_flits = packet_flits;
    shape.num_packets = (message_flits + packet_flits - 1) / packet_flits;
    if (shape.num_packets < 1) shape.num_packets = 1;
    return shape;
  }
};

/// Everything one simulation run needs.
struct SimConfig {
  TopologySpec topology;
  NetParams net;
  HostParams host;
  MessageShape message;
  HeaderSizing headers;
  /// Which network engine plays the plan (CLI `--engine vct|flit`); both
  /// honour `net` (the flit engine additionally uses buffer_flits and
  /// deadlock_horizon). See docs/engines.md.
  EngineKind engine = EngineKind::kVct;
  std::uint64_t seed = 1;

  /// Cycle time in nanoseconds, used only for human-readable reports.
  static constexpr double cycle_ns = 10.0;
};

/// Reads a positive integer from the environment (workload scaling knobs
/// like IRMC_TOPOLOGIES); returns `fallback` when unset or when the value
/// is not an integer in [1, INT_MAX] (never a wrapped one).
inline int EnvInt(const std::string& name, int fallback) {
  const char* raw = std::getenv(name.c_str());
  std::int64_t value = 0;
  if (raw == nullptr ||
      !ParseIntIn(raw, 1, std::numeric_limits<int>::max(), &value))
    return fallback;
  return static_cast<int>(value);
}

}  // namespace irmc
