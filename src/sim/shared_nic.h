// Processor-sharing NIC: all active transfers on an interface drain at an equal
// share of the interface's (time-varying) rate, the standard fluid model of
// concurrent TCP flows over one access link. This matters for fidelity to the
// paper's DDoS mechanism: when a victim authority must move eight vote copies
// at once through a clamped link, *every* copy slows to rate/8 and misses the
// directory-request deadline — no transfer "wins" the queue the way a FIFO
// model would allow.
#ifndef SRC_SIM_SHARED_NIC_H_
#define SRC_SIM_SHARED_NIC_H_

#include <cstdint>
#include <list>

#include "src/common/inline_function.h"
#include "src/sim/bandwidth.h"
#include "src/sim/simulator.h"

namespace torsim {

class SharedNic {
 public:
  // `sim` must outlive the NIC.
  SharedNic(Simulator* sim, double initial_bits_per_sec);

  // The rate schedule. Changes must either lie in the simulated future or be
  // followed by OnScheduleChanged() before the next event fires; editing the
  // schedule at instants the NIC has already integrated over is undefined.
  BandwidthSchedule& schedule() { return schedule_; }
  const BandwidthSchedule& schedule() const { return schedule_; }

  // Re-derives in-flight completion times after the schedule was edited at or
  // after the current instant. Dynamic attack policies (rolling victims,
  // leader chasing) clamp rates mid-run and must call this so transfers that
  // were already draining pick up the new rate.
  void OnScheduleChanged();

  // Completion callback. The 96-byte buffer keeps the network delivery
  // chain's largest stage (egress completion: latency hop + flattened ingress
  // state + shared payload pointer) inline.
  using CompleteFn = torbase::InlineFunction<void(), 96>;

  // Starts a transfer of `bits`; `on_complete` runs (via the event queue) when
  // the last bit has drained. Transfers that can never complete (zero rate
  // with no future schedule change) are dropped and counted.
  void StartTransfer(double bits, CompleteFn on_complete);

  uint64_t dropped_count() const { return dropped_; }

 private:
  struct Flow {
    double remaining_bits;
    CompleteFn on_complete;
  };

  // Drains all flows for the interval [last_update_, now] and fires
  // completions.
  void Advance();
  // Computes the next completion-or-boundary wakeup and schedules it.
  void Reschedule();
  // Per-flow capacity available over [from, to) with `k` concurrent flows.
  double SharePerFlow(TimePoint from, TimePoint to, size_t k) const;

  Simulator* sim_;
  BandwidthSchedule schedule_;
  std::list<Flow> flows_;
  TimePoint last_update_ = 0;
  EventId pending_event_ = kNoEvent;
  uint64_t dropped_ = 0;
};

}  // namespace torsim

#endif  // SRC_SIM_SHARED_NIC_H_
