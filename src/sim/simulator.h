// Deterministic discrete-event simulator core: a virtual clock and an event
// queue. Events scheduled for the same instant fire in schedule order, which
// makes every run reproducible.
//
// The queue is a single contiguous binary heap of (time, seq, slot) entries;
// callbacks live inline in a generation-tagged slot arena via a small-buffer
// callable (torbase::InlineFunction), so the steady-state schedule→fire path
// performs no heap allocation and Cancel() is O(1), destroying the captured
// state immediately rather than when the cancelled instant is reached.
#ifndef SRC_SIM_SIMULATOR_H_
#define SRC_SIM_SIMULATOR_H_

#include <cstdint>
#include <vector>

#include "src/common/inline_function.h"
#include "src/common/time.h"

namespace torsim {

using torbase::Duration;
using torbase::TimePoint;

// An EventId encodes (slot index << 40) | (slot generation & (2^40 - 1));
// generations start at 1, so no live event ever has id 0. 24 bits of slot
// index bound concurrent events at ~16.7M; 40 bits of generation mean a stale
// id could only alias a live event after the *same* slot cycled 2^40 times
// (~1.1e12 events through one slot — days of nothing but event churn) while
// the holder kept the id, which no bounded-horizon run approaches.
using EventId = uint64_t;
constexpr EventId kNoEvent = 0;

// Event callback. The 64-byte inline buffer covers every capture the
// simulation layers schedule (network delivery chains carry a shared_ptr
// payload plus routing state); larger captures transparently heap-allocate.
using SimCallback = torbase::InlineFunction<void(), 64>;

class Simulator {
 public:
  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  TimePoint now() const { return now_; }

  // Schedules `fn` to run at absolute virtual time `t` (clamped to now()).
  EventId ScheduleAt(TimePoint t, SimCallback fn);
  // Schedules `fn` to run `delay` after now().
  EventId ScheduleAfter(Duration delay, SimCallback fn);

  // Cancels a pending event in O(1), destroying the callback (and everything
  // it captured) immediately. Cancelling an already-fired or unknown event is
  // a no-op.
  void Cancel(EventId id);

  // Runs events until the queue empties or `limit` events fired. Returns the
  // number of events executed.
  size_t Run(size_t limit = ~size_t(0));

  // Runs all events with time <= deadline; afterwards now() == max(now, deadline)
  // if the queue drained up to it. Returns events executed.
  size_t RunUntil(TimePoint deadline);

  // Executes the single next event, if any. Returns whether one fired.
  bool RunOne();

  // Live (non-cancelled) events still queued. Exact by construction: Cancel
  // decrements it at cancel time, so no drain-time reconciliation (and no
  // underflow guard) is needed.
  size_t pending_count() const { return live_; }

 private:
  // Heap entry: 24 bytes, ordered by (time, seq) so same-instant events fire
  // in schedule order. The callback is *not* here — it stays in its slot, so
  // sift operations move only these small PODs.
  struct HeapEntry {
    TimePoint time;
    uint64_t seq;
    uint32_t slot;

    // Min-heap by (time, seq): later entries compare greater.
    bool operator>(const HeapEntry& other) const {
      if (time != other.time) {
        return time > other.time;
      }
      return seq > other.seq;
    }
  };

  // One arena slot. A slot is acquired on schedule and released only when its
  // heap entry is popped (fired or skipped-as-cancelled), at which point its
  // generation bumps — so a stale EventId cannot cancel a reused slot (within
  // the 2^40 aliasing bound documented at EventId).
  struct Slot {
    SimCallback fn;
    uint64_t generation = 1;
    // True while the callback is live; cleared by Cancel (which also destroys
    // fn) and on fire.
    bool armed = false;
  };

  static constexpr int kGenerationBits = 40;
  static constexpr uint64_t kGenerationMask = (uint64_t(1) << kGenerationBits) - 1;

  static EventId MakeId(uint32_t slot, uint64_t generation) {
    return (static_cast<uint64_t>(slot) << kGenerationBits) | (generation & kGenerationMask);
  }

  uint32_t AcquireSlot();
  void ReleaseSlot(uint32_t slot);
  void HeapPush(HeapEntry entry);
  void HeapPop();
  // Pops cancelled entries off the heap head; afterwards the head (if any) is
  // an armed event.
  void SkipCancelledHead();

  TimePoint now_ = 0;
  uint64_t next_seq_ = 1;
  size_t live_ = 0;
  std::vector<HeapEntry> heap_;
  std::vector<Slot> slots_;
  std::vector<uint32_t> free_slots_;
};

}  // namespace torsim

#endif  // SRC_SIM_SIMULATOR_H_
