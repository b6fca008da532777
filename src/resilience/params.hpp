// Runtime resilience knobs (docs/resilience.md).
//
// Everything here is inert while `enabled` is false: the driver installs
// no drop handler, schedules no fault or ack events, and the engines
// keep their pristine contract (an unroutable packet aborts). With
// `enabled` true the driver layers exactly-once-eventually delivery on
// top of the network — receiver dedup, out-of-band acks, timeout +
// exponential-backoff retransmits — and a ResilienceManager injects the
// scheduled faults and performs the Autonet reconfiguration.
#pragma once

#include <vector>

#include "common/types.hpp"

namespace irmc {

/// One scheduled fault: the bidirectional switch-to-switch link at
/// (sw, port) goes down at cycle `at`. A switch failure is expressed as
/// one TimedFault per switch port at the same cycle — note that taking
/// down every link of a switch isolates it, which disconnects the
/// switch graph, so full switch-down schedules are only survivable for
/// switches that host no nodes and carry no last-path links.
struct TimedFault {
  Cycles at = 0;
  SwitchId sw = kInvalidSwitch;
  PortId port = kInvalidPort;
};

struct ResilienceParams {
  /// Master switch; everything below is ignored when false.
  bool enabled = false;

  /// Explicit fault schedule (CLI `--fault-schedule t:sw:port[,...]`).
  /// Must be cumulatively survivable: each fault, applied in time order,
  /// must leave the switch graph connected (validated at startup).
  std::vector<TimedFault> schedule;

  /// > 0: additionally draw random link faults with exponentially
  /// distributed interarrival times of this mean (cycles), capped at
  /// `max_random_faults`, restricted to links whose loss is survivable
  /// at the time of the draw. Seeded from SimConfig::seed.
  double mtbf = 0.0;
  static constexpr int max_random_faults = 2;

  /// Fault detection latency: cycles between the link dying and the
  /// reconfiguration starting (Autonet's failure-detection hardware).
  /// The driver's first repair after a drop report waits it out too.
  static constexpr Cycles detection_delay = 50;
  /// Reconfiguration latency: cycles to rebuild + distribute the BFS
  /// tree, up*/down* orientation and routing tables. The rebuilt System
  /// swaps into the live engines detection_delay + reconfig_delay after
  /// the fault.
  Cycles reconfig_delay = 2000;

  /// Out-of-band delivery-ack latency from a destination NI back to the
  /// root (modelled as reliable and contention-free).
  static constexpr Cycles ack_delay = 50;
  /// Base retransmit timeout; round k waits timeout * 2^(k-1) before
  /// re-checking for unacked destinations (exponential backoff). The
  /// first repair after a drop report is expedited past the pending
  /// reconfiguration instead of waiting out the timer.
  static constexpr Cycles retransmit_timeout = 5'000;
  /// Abort loudly after this many repair rounds for one multicast —
  /// exactly-once-eventually is a contract, not best-effort.
  static constexpr int max_retransmits = 20;

  /// Re-run the full six-check static verification (including the
  /// multicast deadlock analysis) on every reconfigured System before
  /// it swaps in; aborts if any check fails.
  bool verify_reconfig = false;
};

}  // namespace irmc
