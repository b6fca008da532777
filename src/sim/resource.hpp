// Serially-reusable resource for the host/NI models.
//
// TimelineResource — a FIFO server whose hold time is known at request
// time (host CPU running an overhead, the I/O bus DMA-ing a packet).
// Because every request is issued from an event, "start = max(now,
// free_at)" yields exact FIFO service order without storing a queue.
// (The VCT fabric's input-buffer slots, whose release time is not known
// at acquire time, are credits on the one channel that feeds each
// buffer, inside the Fabric.)
#pragma once

#include "common/expect.hpp"
#include "common/types.hpp"

namespace irmc {

class TimelineResource {
 public:
  /// Reserve the resource for `hold` cycles starting no earlier than
  /// `earliest`. Returns the service start time. The resource is busy
  /// until (returned start) + hold.
  Cycles Reserve(Cycles earliest, Cycles hold) {
    IRMC_EXPECT(hold >= 0);
    const Cycles start = earliest > free_at_ ? earliest : free_at_;
    free_at_ = start + hold;
    return start;
  }

  Cycles free_at() const { return free_at_; }

 private:
  Cycles free_at_ = 0;
};

}  // namespace irmc
