#include "src/sim/simulator.h"

#include <algorithm>
#include <cassert>
#include <functional>
#include <utility>

namespace torsim {

uint32_t Simulator::AcquireSlot() {
  if (!free_slots_.empty()) {
    const uint32_t slot = free_slots_.back();
    free_slots_.pop_back();
    return slot;
  }
  slots_.emplace_back();
  assert(slots_.size() <= (size_t(1) << (64 - kGenerationBits)) &&
         "concurrent event count exceeds the EventId slot-index width");
  return static_cast<uint32_t>(slots_.size() - 1);
}

void Simulator::ReleaseSlot(uint32_t slot) {
  ++slots_[slot].generation;
  free_slots_.push_back(slot);
}

void Simulator::HeapPush(HeapEntry entry) {
  heap_.push_back(entry);
  std::push_heap(heap_.begin(), heap_.end(), std::greater<HeapEntry>());
}

void Simulator::HeapPop() {
  std::pop_heap(heap_.begin(), heap_.end(), std::greater<HeapEntry>());
  heap_.pop_back();
}

void Simulator::SkipCancelledHead() {
  while (!heap_.empty() && !slots_[heap_.front().slot].armed) {
    const uint32_t slot = heap_.front().slot;
    HeapPop();
    ReleaseSlot(slot);
  }
}

EventId Simulator::ScheduleAt(TimePoint t, SimCallback fn) {
  // Fail at the schedule site, where the culprit is on the stack — firing an
  // empty callback later would be a null vtable call far from the bug.
  assert(static_cast<bool>(fn) && "scheduled an empty callback");
  if (t < now_) {
    t = now_;
  }
  const uint32_t slot = AcquireSlot();
  slots_[slot].fn = std::move(fn);
  slots_[slot].armed = true;
  HeapPush(HeapEntry{t, next_seq_++, slot});
  ++live_;
  return MakeId(slot, slots_[slot].generation);
}

EventId Simulator::ScheduleAfter(Duration delay, SimCallback fn) {
  return ScheduleAt(now_ + delay, std::move(fn));
}

void Simulator::Cancel(EventId id) {
  const uint32_t slot = static_cast<uint32_t>(id >> kGenerationBits);
  const uint64_t generation = id & kGenerationMask;
  if (slot >= slots_.size() || (slots_[slot].generation & kGenerationMask) != generation ||
      !slots_[slot].armed) {
    return;
  }
  // Free the captured state now; the heap entry stays behind as a tombstone
  // (the slot is reused only after it pops).
  slots_[slot].fn = nullptr;
  slots_[slot].armed = false;
  --live_;
}

bool Simulator::RunOne() {
  SkipCancelledHead();
  if (heap_.empty()) {
    return false;
  }
  const HeapEntry entry = heap_.front();
  const uint32_t slot = entry.slot;
  HeapPop();
  // Move the callback out before invoking: the handler may schedule events,
  // which can grow the slot arena and reuse this slot.
  SimCallback fn = std::move(slots_[slot].fn);
  slots_[slot].fn = nullptr;
  slots_[slot].armed = false;
  ReleaseSlot(slot);
  --live_;
  assert(entry.time >= now_ && "event queue went backwards");
  now_ = entry.time;
  fn();
  return true;
}

size_t Simulator::Run(size_t limit) {
  size_t executed = 0;
  while (executed < limit && RunOne()) {
    ++executed;
  }
  return executed;
}

size_t Simulator::RunUntil(TimePoint deadline) {
  size_t executed = 0;
  for (;;) {
    SkipCancelledHead();
    if (heap_.empty() || heap_.front().time > deadline) {
      break;
    }
    if (RunOne()) {
      ++executed;
    }
  }
  if (now_ < deadline) {
    now_ = deadline;
  }
  return executed;
}

}  // namespace torsim
