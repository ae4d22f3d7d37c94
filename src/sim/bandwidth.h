// Piecewise-constant bandwidth schedules. A NIC's available rate is a step
// function over virtual time; DDoS attacks are expressed by inserting low-rate
// (or zero-rate) segments. FinishTime() integrates the schedule to find when a
// transmission that starts at `start` completes — this is what turns "attack =
// reduced available bandwidth" (the paper's model, following Jansen et al.)
// into concrete message delays.
#ifndef SRC_SIM_BANDWIDTH_H_
#define SRC_SIM_BANDWIDTH_H_

#include <map>

#include "src/common/time.h"

namespace torsim {

using torbase::Duration;
using torbase::TimePoint;

// Convenience constructors for rates.
constexpr double BitsPerSecond(double v) { return v; }
constexpr double MegabitsPerSecond(double v) { return v * 1e6; }

class BandwidthSchedule {
 public:
  // `initial_bits_per_sec` may be infinity for an unconstrained link.
  explicit BandwidthSchedule(double initial_bits_per_sec);

  // Sets the available rate from `from` onwards (until the next change point).
  void SetRateFrom(TimePoint from, double bits_per_sec);

  // Clamps the rate to `bits_per_sec` during [from, to), restoring the
  // underlying rate afterwards. This is the DDoS-attack primitive.
  void LimitDuring(TimePoint from, TimePoint to, double bits_per_sec);

  double RateAt(TimePoint t) const;

  // The first rate-change point strictly after `t`, or torbase::kTimeNever if
  // the rate never changes again. The fair-share NIC uses this to re-evaluate
  // flow completions at schedule boundaries.
  TimePoint NextChangeAfter(TimePoint t) const;

  // Virtual time at which a transmission of `bits` starting at `start`
  // completes. Returns torbase::kTimeNever if the schedule never provides
  // enough capacity (e.g. rate 0 with no later change).
  TimePoint FinishTime(TimePoint start, double bits) const;

  // Total bits the schedule can carry during [from, to).
  double CapacityDuring(TimePoint from, TimePoint to) const;

  // Number of stored change points. Adjacent equal-rate segments are merged on
  // insertion, so rolling/adaptive attack schedules that clamp-and-restore the
  // same rate every epoch keep this bounded instead of growing per epoch.
  size_t segment_count() const { return rates_.size(); }

 private:
  // Inserts a change point at `t` with `rate`, erasing it (or its successor)
  // when the step function would not actually change there. Returns an
  // iterator to the segment active at `t`.
  std::map<TimePoint, double>::iterator SetPointMerged(TimePoint t, double rate);

  // Change points; rates_.begin() is always at time 0.
  std::map<TimePoint, double> rates_;
};

}  // namespace torsim

#endif  // SRC_SIM_BANDWIDTH_H_
