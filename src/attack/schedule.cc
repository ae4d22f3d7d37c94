#include "src/attack/schedule.h"

#include <algorithm>
#include <cassert>

#include "src/common/fields.h"

namespace torattack {
namespace {

torbase::TimePoint EffectiveEnd(torbase::TimePoint configured_end,
                                const AttackContext& context) {
  if (context.horizon > 0) {
    return std::min(configured_end, context.horizon);
  }
  return configured_end;
}

// min(count, n) consecutive authorities starting at `head` (mod n).
std::vector<torbase::NodeId> Consecutive(uint64_t head, uint32_t count, uint32_t n) {
  std::vector<torbase::NodeId> victims(std::min(count, n));
  for (uint32_t i = 0; i < victims.size(); ++i) {
    victims[i] = static_cast<torbase::NodeId>((head + i) % n);
  }
  return victims;
}

}  // namespace

void WindowedAttack::Install(torsim::Harness& harness, const AttackContext& /*context*/) {
  for (const AttackWindow& window : windows_) {
    ApplyAttack(harness.net(), window);
    if (!window.targets.empty()) {
      Record(window.start, window.targets, window.available_bps);
    }
  }
}

std::vector<torbase::NodeId> RollingAttack::VictimsOf(uint64_t epoch,
                                                      uint32_t authority_count) const {
  return Consecutive(epoch % authority_count, config_.victim_count, authority_count);
}

void RollingAttack::Install(torsim::Harness& harness, const AttackContext& context) {
  // The rotation is purely time-driven, so the whole schedule is known up
  // front: install every epoch's window immediately.
  const torbase::TimePoint end = EffectiveEnd(config_.end, context);
  if (end == torbase::kTimeNever) {
    // Open-ended rotation with no horizon to clamp to: there is no finite set
    // of windows to install. Refuse rather than loop for ~2^63 epochs.
    assert(false && "RollingAttack needs a finite end or a run horizon");
    return;
  }
  uint64_t epoch = 0;
  for (torbase::TimePoint t = 0; t < end; t += config_.period, ++epoch) {
    AttackWindow window;
    window.targets = VictimsOf(epoch, context.authority_count);
    window.start = t;
    window.end = std::min<torbase::TimePoint>(t + config_.period, end);
    ApplyAttack(harness.net(), window);
    Record(t, std::move(window.targets), window.available_bps);
  }
}

void AdaptiveLeaderAttack::Retarget(torsim::Harness& harness, const AttackContext& context,
                                    uint64_t epoch, torbase::TimePoint end) {
  const torbase::TimePoint now = harness.sim().now();
  const uint32_t n = context.authority_count;

  // Chase the live agreement leader; protocols without one (or before the
  // agreement starts) get a deterministic round-robin sweep instead.
  std::optional<torbase::NodeId> leader;
  if (context.current_leader) {
    leader = context.current_leader();
  }
  const torbase::NodeId head = leader.value_or(static_cast<torbase::NodeId>(epoch % n));

  AttackWindow window;
  window.targets = Consecutive(head, config_.victim_count, n);
  window.start = now;
  window.end = std::min<torbase::TimePoint>(now + config_.period, end);
  if (window.start < window.end) {
    ApplyAttack(harness.net(), window);
    Record(now, std::move(window.targets), window.available_bps);
  }

  const torbase::TimePoint next = now + config_.period;
  if (next < end) {
    harness.sim().ScheduleAt(next, [this, &harness, context, epoch, end] {
      Retarget(harness, context, epoch + 1, end);
    });
  }
}

void AdaptiveLeaderAttack::Install(torsim::Harness& harness, const AttackContext& context) {
  const torbase::TimePoint end = EffectiveEnd(config_.end, context);
  if (end == 0) {
    return;
  }
  harness.sim().ScheduleAt(0, [this, &harness, context, end] {
    Retarget(harness, context, 0, end);
  });
}

// --- canonical descriptions --------------------------------------------------
// The schedule's name, then its configuration through the config's Fields()
// list; history never enters.

void WindowedAttack::Describe(torbase::Writer& writer) const {
  writer.WriteString(name());
  torbase::Describe(writer, windows_);
}

void RollingAttack::Describe(torbase::Writer& writer) const {
  writer.WriteString(name());
  torbase::Describe(writer, config_);
}

void AdaptiveLeaderAttack::Describe(torbase::Writer& writer) const {
  writer.WriteString(name());
  torbase::Describe(writer, config_);
}

}  // namespace torattack
