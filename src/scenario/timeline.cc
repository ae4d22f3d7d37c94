#include "src/scenario/timeline.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <set>
#include <utility>

#include "src/crypto/sha256_tree.h"
#include "src/scenario/runner.h"
#include "src/tordir/consensus_diff.h"
#include "src/tordir/dirspec.h"

namespace torscenario {
namespace {

[[noreturn]] void CalendarError(const std::string& what) {
  std::fprintf(stderr, "timeline: malformed fault calendar: %s\n", what.c_str());
  std::abort();
}

void ValidateTimeline(const TimelineSpec& spec) {
  if (spec.rounds == 0) {
    CalendarError("rounds == 0");
  }
  if (spec.round_period <= 0) {
    CalendarError("round_period <= 0");
  }
  std::vector<uint32_t> attacked(spec.rounds, 0);
  for (const AttackCalendarEntry& entry : spec.attacks) {
    if (entry.first_round > entry.last_round || entry.last_round >= spec.rounds) {
      CalendarError("attack entry rounds out of range");
    }
    if (entry.attack == nullptr) {
      CalendarError("attack entry without a schedule");
    }
    for (uint32_t r = entry.first_round; r <= entry.last_round; ++r) {
      if (++attacked[r] > 1) {
        CalendarError("attack entries overlap at round " + std::to_string(r));
      }
    }
  }
  for (const CrashCalendarEntry& entry : spec.crashes) {
    if (entry.crash_round > entry.recover_round || entry.recover_round >= spec.rounds) {
      CalendarError("crash entry rounds out of range");
    }
    if (entry.crash_round == entry.recover_round && entry.recover_offset < entry.crash_offset) {
      CalendarError("crash entry recovers before it crashes");
    }
    if (entry.crash_offset >= spec.round_period) {
      CalendarError("crash offset outside the round");
    }
    if (entry.node >= spec.base.authority_count) {
      CalendarError("crash entry names a non-authority node");
    }
  }
  for (const ByzantineCalendarEntry& entry : spec.byzantine) {
    if (entry.first_round > entry.last_round || entry.last_round >= spec.rounds) {
      CalendarError("byzantine entry rounds out of range");
    }
  }
  for (const ChurnCalendarEntry& entry : spec.churn) {
    if (entry.round >= spec.rounds) {
      CalendarError("churn entry round out of range");
    }
  }
}

// One published document on the stitched horizon: the serving/diff state the
// stitch pass threads from round to round. Links are append-only and every
// payload is behind a shared const pointer, so snapshots alias them freely.
struct ChainLink {
  uint32_t round = 0;
  std::shared_ptr<const tordir::ConsensusDocument> doc;
  std::shared_ptr<const std::string> text;
  torcrypto::Digest256 digest;
  // Diff from the previously published document; null for the first link.
  std::shared_ptr<const std::string> diff;
};

// Rounds the calendar touches: attack windows, crash-to-recovery spans,
// byzantine windows, and churn crash blips.
std::vector<char> FaultedRounds(const TimelineSpec& spec) {
  std::vector<char> faulted(spec.rounds, 0);
  for (const AttackCalendarEntry& entry : spec.attacks) {
    std::fill(faulted.begin() + entry.first_round, faulted.begin() + entry.last_round + 1, 1);
  }
  for (const ByzantineCalendarEntry& entry : spec.byzantine) {
    std::fill(faulted.begin() + entry.first_round, faulted.begin() + entry.last_round + 1, 1);
  }
  for (const CrashCalendarEntry& entry : spec.crashes) {
    std::fill(faulted.begin() + entry.crash_round, faulted.begin() + entry.recover_round + 1, 1);
  }
  for (const ChurnCalendarEntry& entry : spec.churn) {
    if (entry.event.kind == ChurnEvent::Kind::kCrash) {
      faulted[entry.round] = 1;
    }
  }
  return faulted;
}

// The instant the calendar's last fault cleared (NaN for an empty calendar):
// attack and byzantine windows clear at the end of their last round, crashes
// at their recovery instant, churn crash blips at the end of their round (the
// next round's harness brings the node back up).
double LastFaultClearedSeconds(const TimelineSpec& spec) {
  const double period = torbase::ToSeconds(spec.round_period);
  double cleared = std::numeric_limits<double>::quiet_NaN();
  const auto raise = [&cleared](double t) {
    if (std::isnan(cleared) || t > cleared) {
      cleared = t;
    }
  };
  for (const AttackCalendarEntry& entry : spec.attacks) {
    raise(static_cast<double>(entry.last_round + 1) * period);
  }
  for (const ByzantineCalendarEntry& entry : spec.byzantine) {
    raise(static_cast<double>(entry.last_round + 1) * period);
  }
  for (const CrashCalendarEntry& entry : spec.crashes) {
    raise(static_cast<double>(entry.recover_round) * period +
          torbase::ToSeconds(entry.recover_offset));
  }
  for (const ChurnCalendarEntry& entry : spec.churn) {
    if (entry.event.kind == ChurnEvent::Kind::kCrash) {
      raise(static_cast<double>(entry.round + 1) * period);
    }
  }
  return cleared;
}

// Authorities down at the end of round `r`: calendar crashes spanning the
// boundary, plus churn blips that crashed in-round without recovering.
std::vector<torbase::NodeId> CrashedAtBoundary(const TimelineSpec& spec, uint32_t r) {
  std::set<torbase::NodeId> down;
  for (const CrashCalendarEntry& entry : spec.crashes) {
    if (entry.crash_round <= r && r < entry.recover_round) {
      down.insert(entry.node);
    }
  }
  for (const ChurnCalendarEntry& entry : spec.churn) {
    if (entry.round != r) {
      continue;
    }
    if (entry.event.kind == ChurnEvent::Kind::kCrash) {
      down.insert(entry.event.node);
    } else {
      down.erase(entry.event.node);
    }
  }
  return {down.begin(), down.end()};
}

// One crashed authority coming back: fetch the newest published document as of
// the previous boundary, via the composed diff chain when close enough behind
// (verified byte-identical against the full document, refused on any
// framing-digest mismatch), else in full.
RejoinEvent CatchUp(const TimelineSpec& spec, const std::vector<ChainLink>& chain,
                    std::optional<size_t>& held_index, torbase::NodeId node, uint32_t round) {
  RejoinEvent event;
  event.node = node;
  event.round = round;
  if (chain.empty()) {
    // Nothing was ever published; the authority rejoins as empty-handed as it
    // left (cold when it never held anything).
    event.cold = !held_index.has_value();
    return event;
  }
  const size_t head = chain.size() - 1;
  if (!held_index.has_value()) {
    event.cold = true;
    event.rounds_behind = static_cast<uint32_t>(chain.size());
    event.bytes = chain[head].text->size();
    held_index = head;
    return event;
  }
  if (*held_index >= head) {
    return event;  // already current: nothing to transfer
  }
  const uint32_t behind = static_cast<uint32_t>(head - *held_index);
  event.rounds_behind = behind;
  std::vector<std::string_view> diffs;
  uint64_t diff_bytes = 0;
  if (behind <= spec.max_diff_chain_rounds) {
    diffs.reserve(behind);
    for (size_t i = *held_index + 1; i <= head; ++i) {
      diffs.push_back(*chain[i].diff);
      diff_bytes += chain[i].diff->size();
    }
  }
  // The chain is only worth composing when it undercuts one full fetch —
  // after a round whose vote set shrank (attack, crash) the document can
  // change enough that the diffs cost more than the document itself.
  if (!diffs.empty() && diff_bytes < chain[head].text->size()) {
    const torbase::Result<std::string> patched =
        tordir::ApplyConsensusDiffChain(*chain[*held_index].text, diffs);
    if (patched.ok() && *patched == *chain[head].text) {
      event.via_diff_chain = true;
      event.bytes = diff_bytes;
    } else {
      // A broken chain is refused outright (never applied wrongly); the
      // authority falls back to the full document.
      event.chain_refused = true;
      event.bytes = chain[head].text->size();
    }
  } else {
    event.bytes = chain[head].text->size();
  }
  held_index = head;
  return event;
}

}  // namespace

std::vector<ScenarioSpec> BuildTimelineRoundSpecs(const TimelineSpec& spec) {
  ValidateTimeline(spec);
  std::vector<ScenarioSpec> rounds;
  rounds.reserve(spec.rounds);
  for (uint32_t r = 0; r < spec.rounds; ++r) {
    ScenarioSpec cell = spec.base;
    cell.name = spec.name + "/round" + std::to_string(r);
    cell.horizon = spec.round_period;
    // The stitch pass runs one client plane over the whole horizon and keeps
    // each round's actual document for the chain.
    cell.client_load.client_count = 0;
    cell.retain_consensus = true;
    cell.previous_consensus = nullptr;
    cell.attack = nullptr;
    cell.churn.clear();
    cell.byzantine = torproto::ByzantineSpec{};

    for (const AttackCalendarEntry& entry : spec.attacks) {
      if (entry.first_round <= r && r <= entry.last_round) {
        // Shared across cells on purpose: every run installs its own clone.
        cell.attack = entry.attack;
      }
    }
    for (const ByzantineCalendarEntry& entry : spec.byzantine) {
      if (entry.first_round <= r && r <= entry.last_round) {
        for (const auto& [node, behavior] : entry.spec.behaviors) {
          cell.byzantine.behaviors.insert_or_assign(node, behavior);
        }
        cell.byzantine.mutation_seed = entry.spec.mutation_seed;
        cell.byzantine.bandwidth_multiplier = entry.spec.bandwidth_multiplier;
      }
    }
    // Rounds are independent simulations, so a crash spanning rounds
    // decomposes into per-round churn: crash at its offset in the crash
    // round, down from t = 0 in every round in between, and down from t = 0
    // until the recover offset in the recovery round.
    for (const CrashCalendarEntry& entry : spec.crashes) {
      if (r < entry.crash_round || r > entry.recover_round) {
        continue;
      }
      const torbase::TimePoint crash_at = r == entry.crash_round ? entry.crash_offset : 0;
      cell.churn.push_back(ChurnEvent{entry.node, crash_at, ChurnEvent::Kind::kCrash});
      if (r == entry.recover_round) {
        cell.churn.push_back(
            ChurnEvent{entry.node, entry.recover_offset, ChurnEvent::Kind::kRecover});
      }
    }
    for (const ChurnCalendarEntry& entry : spec.churn) {
      if (entry.round == r) {
        cell.churn.push_back(entry.event);
      }
    }
    rounds.push_back(std::move(cell));
  }
  return rounds;
}

bool BitIdentical(const RoundSnapshot& a, const RoundSnapshot& b) {
  const auto same_text = [](const std::shared_ptr<const std::string>& x,
                            const std::shared_ptr<const std::string>& y) {
    return x == y || (x != nullptr && y != nullptr && *x == *y);
  };
  // The framing digest covers the full signed serialization, so digest
  // equality subsumes document equality.
  return a.round == b.round && a.succeeded == b.succeeded &&
         (a.consensus == nullptr) == (b.consensus == nullptr) &&
         a.consensus_digest == b.consensus_digest && a.consensus_round == b.consensus_round &&
         same_text(a.consensus_text, b.consensus_text) &&
         same_text(a.diff_from_previous, b.diff_from_previous) &&
         a.backlog_fetches == b.backlog_fetches && a.fresh_at_boundary == b.fresh_at_boundary &&
         a.crashed == b.crashed;
}

bool BitIdentical(const TimelineResult& a, const TimelineResult& b) {
  const auto same_double = [](double x, double y) {
    return (std::isnan(x) && std::isnan(y)) || x == y;
  };
  if (a.rounds.size() != b.rounds.size() || a.snapshots.size() != b.snapshots.size()) {
    return false;
  }
  for (size_t i = 0; i < a.rounds.size(); ++i) {
    if (!BitIdentical(a.rounds[i], b.rounds[i])) {
      return false;
    }
  }
  for (size_t i = 0; i < a.snapshots.size(); ++i) {
    if (!BitIdentical(a.snapshots[i], b.snapshots[i])) {
      return false;
    }
  }
  return BitIdentical(a.client_availability, b.client_availability) &&
         a.health_alerts == b.health_alerts && a.rejoins == b.rejoins &&
         a.successful_rounds == b.successful_rounds &&
         a.undeliverable_messages == b.undeliverable_messages &&
         a.byzantine_injected == b.byzantine_injected &&
         a.byzantine_detected == b.byzantine_detected &&
         same_double(a.last_fault_cleared_seconds, b.last_fault_cleared_seconds) &&
         same_double(a.time_to_fresh_seconds, b.time_to_fresh_seconds) &&
         same_double(a.peak_retry_backlog, b.peak_retry_backlog) &&
         a.rejoin_bytes == b.rejoin_bytes;
}

TimelineResult ScenarioRunner::RunTimeline(const TimelineSpec& timeline) {
  return RunTimeline(timeline, SweepOptions{});
}

TimelineResult ScenarioRunner::RunTimeline(const TimelineSpec& timeline,
                                           const SweepOptions& options) {
  const std::vector<ScenarioSpec> specs = BuildTimelineRoundSpecs(timeline);
  TimelineResult out;
  // The fan-out: every round is an independent simulation, so the whole
  // horizon parallelizes under the sweep's bit-identity contract. Everything
  // below is the deterministic serial stitch.
  out.rounds = Sweep(specs, options);

  const double period = torbase::ToSeconds(timeline.round_period);
  const std::vector<char> faulted = FaultedRounds(timeline);
  out.last_fault_cleared_seconds = LastFaultClearedSeconds(timeline);

  // Crash recoveries in deterministic order: rejoin processing for round r
  // targets the chain head as of the end of round r - 1.
  std::vector<CrashCalendarEntry> recoveries = timeline.crashes;
  std::stable_sort(recoveries.begin(), recoveries.end(),
                   [](const CrashCalendarEntry& a, const CrashCalendarEntry& b) {
                     return std::tie(a.recover_round, a.recover_offset, a.node) <
                            std::tie(b.recover_round, b.recover_offset, b.node);
                   });

  std::vector<ChainLink> chain;
  // Per-authority position in the chain: the newest published document each
  // authority holds (nullopt until it first holds one).
  std::vector<std::optional<size_t>> held(timeline.base.authority_count);
  out.snapshots.reserve(timeline.rounds);
  size_t next_recovery = 0;
  // Stitch-side memoization mirroring the runner's: memoized quiet rounds
  // share one ScenarioResult and therefore one document *pointer*, and
  // pointer equality implies byte equality — so the serialization, framing
  // digest and round-to-round diff of a repeated document are computed once
  // and reused. Values are unchanged (the caches only ever substitute results
  // of the identical computation), so TimelineResult stays bit-identical to a
  // memo-off run, where every pointer is distinct and every link recomputes.
  struct {
    const tordir::ConsensusDocument* doc = nullptr;
    std::shared_ptr<const std::string> text;
    torcrypto::Digest256 digest;
  } last_serialized;
  struct {
    const tordir::ConsensusDocument* base = nullptr;
    const tordir::ConsensusDocument* target = nullptr;
    std::shared_ptr<const std::string> diff;
  } last_diff;
  for (uint32_t r = 0; r < timeline.rounds; ++r) {
    const ScenarioResult& round = out.rounds[r];
    // Rejoins first: a recovering authority catches up to the newest document
    // published *before* its round (its own round's consensus is not out yet
    // when it comes back mid-round).
    while (next_recovery < recoveries.size() &&
           recoveries[next_recovery].recover_round == r) {
      const CrashCalendarEntry& entry = recoveries[next_recovery++];
      RejoinEvent event = CatchUp(timeline, chain, held[entry.node], entry.node, r);
      out.rejoin_bytes += event.bytes;
      out.rejoins.push_back(std::move(event));
    }

    std::shared_ptr<const std::string> round_diff;
    if (round.succeeded && round.consensus_document != nullptr) {
      ChainLink link;
      link.round = r;
      link.doc = round.consensus_document;
      if (link.doc.get() == last_serialized.doc) {
        link.text = last_serialized.text;
        link.digest = last_serialized.digest;
      } else {
        link.text =
            std::make_shared<const std::string>(tordir::SerializeConsensus(*link.doc));
        link.digest = torcrypto::Digest256(torcrypto::Sha256TreeDigest(*link.text));
        last_serialized = {link.doc.get(), link.text, link.digest};
      }
      if (!chain.empty()) {
        if (chain.back().doc.get() == last_diff.base && link.doc.get() == last_diff.target) {
          link.diff = last_diff.diff;
        } else {
          tordir::ConsensusDiffOptions diff_options;
          diff_options.base_digest = chain.back().digest;
          diff_options.target_digest = link.digest;
          link.diff = std::make_shared<const std::string>(
              tordir::ComputeConsensusDiff(*chain.back().doc, *link.doc, diff_options));
          last_diff = {chain.back().doc.get(), link.doc.get(), link.diff};
        }
        round_diff = link.diff;
      }
      chain.push_back(std::move(link));
      ++out.successful_rounds;
      // Everyone who ended the round with a valid consensus holds this
      // round's document; crashed or starved authorities keep what they had.
      for (const torbase::NodeId holder : round.consensus_holders) {
        if (holder < held.size()) {
          held[holder] = chain.size() - 1;
        }
      }
    }

    RoundSnapshot snapshot;
    snapshot.round = r;
    snapshot.succeeded = round.succeeded;
    if (!chain.empty()) {
      const ChainLink& head = chain.back();
      snapshot.consensus = head.doc;
      snapshot.consensus_text = head.text;
      snapshot.consensus_digest = head.digest;
      snapshot.consensus_round = head.round;
    }
    snapshot.diff_from_previous = std::move(round_diff);
    snapshot.crashed = CrashedAtBoundary(timeline, r);
    // Without a client plane the boundary state degenerates to "did this
    // round publish"; the plane walk below overwrites both fields.
    snapshot.fresh_at_boundary = round.succeeded;
    out.snapshots.push_back(std::move(snapshot));

    out.undeliverable_messages += round.undeliverable_messages;
    out.byzantine_injected += round.byzantine_count;
    out.byzantine_detected += round.faults_detected;
  }

  // The whole horizon through the consumption plane in ONE call: backlog and
  // serving state evolve continuously across round boundaries, so the
  // post-outage thundering herd builds and drains exactly as in a single
  // window — no per-round resets to hide it.
  const double window = static_cast<double>(timeline.rounds) * period;
  std::vector<double> round_peak_backlog(timeline.rounds, 0.0);
  torclients::ClientLoadSpec load = timeline.base.client_load;
  if (load.client_count > 0) {
    if (load.consensus_size_hint_bytes <= 0.0) {
      load.consensus_size_hint_bytes =
          chain.empty()
              ? static_cast<double>(tordir::EstimateVoteSizeBytes(timeline.base.relay_count))
              : static_cast<double>(chain.front().text->size());
    }
    std::vector<torclients::PublishedDocument> documents;
    documents.reserve(chain.size());
    bool any_diff = false;
    for (const ChainLink& link : chain) {
      const ScenarioResult& round = out.rounds[link.round];
      torclients::PublishedDocument doc = torclients::MapToTimeline(
          static_cast<double>(link.round) * period, round.consensus_published_seconds,
          round.consensus_valid_after, round.consensus_fresh_until, round.consensus_valid_until,
          static_cast<double>(link.text->size()), load.vote_lead);
      if (link.diff != nullptr) {
        doc.diff_size_bytes = static_cast<double>(link.diff->size());
        any_diff = true;
      }
      documents.push_back(doc);
    }
    const bool diff_serving = load.diff_capable_fraction > 0.0 && any_diff;
    std::vector<torclients::PublishedDocument> full_doc_documents;
    if (diff_serving) {
      full_doc_documents = documents;
    }
    const torclients::ClientAvailability availability =
        torclients::SimulateClientLoad(load, std::move(documents), window);

    ClientAvailabilityResult& plane = out.client_availability;
    plane.enabled = true;
    plane.total_fetches = availability.total_fetches;
    plane.fresh_fetches = availability.fresh_fetches;
    plane.stale_fetches = availability.stale_fetches;
    plane.unserved_fetches = availability.unserved_fetches;
    plane.fresh_fraction = availability.fresh_fraction;
    plane.time_to_first_stale_seconds = availability.time_to_first_stale_seconds;
    plane.outage_seconds = availability.outage_seconds;
    plane.outage_start_seconds = availability.outage_start_seconds;
    plane.hard_down_seconds = availability.hard_down_seconds;
    plane.hard_down_start_seconds = availability.hard_down_start_seconds;
    plane.peak_backlog_fetches = availability.peak_backlog_fetches;
    plane.served_bytes = availability.served_bytes;
    const double client_hours = static_cast<double>(load.client_count) * window / 3600.0;
    if (client_hours > 0.0) {
      plane.bytes_per_client_hour = availability.served_bytes / client_hours;
      if (diff_serving) {
        torclients::ClientLoadSpec full_load = load;
        full_load.diff_capable_fraction = 0.0;
        const torclients::ClientAvailability full =
            torclients::SimulateClientLoad(full_load, std::move(full_doc_documents), window);
        plane.full_doc_bytes_per_client_hour = full.served_bytes / client_hours;
      } else {
        plane.full_doc_bytes_per_client_hour = plane.bytes_per_client_hour;
      }
    }
    out.peak_retry_backlog = availability.peak_backlog_fetches;

    // Walk the slice timeline once: per-round backlog peaks for the horizon
    // monitor, and the exact boundary state for each snapshot. Backlog is
    // linear within a slice (all rates constant), so the boundary value
    // interpolates between the neighboring slice ends.
    double slice_start_backlog = std::max(load.initial_backlog_fetches, 0.0);
    uint32_t boundary = 0;
    for (const torclients::AvailabilitySlice& slice : availability.timeline) {
      const uint32_t first_round = std::min(
          timeline.rounds - 1, static_cast<uint32_t>(slice.begin_seconds / period));
      const uint32_t last_round = std::min(
          timeline.rounds - 1, static_cast<uint32_t>(slice.end_seconds / period));
      const double slice_peak = std::max(slice_start_backlog, slice.backlog_fetches);
      for (uint32_t rr = first_round; rr <= last_round; ++rr) {
        round_peak_backlog[rr] = std::max(round_peak_backlog[rr], slice_peak);
      }
      while (boundary < timeline.rounds) {
        const double t = static_cast<double>(boundary + 1) * period;
        if (t <= slice.begin_seconds || t > slice.end_seconds) {
          break;
        }
        const double span = slice.end_seconds - slice.begin_seconds;
        const double fraction = span > 0.0 ? (t - slice.begin_seconds) / span : 1.0;
        out.snapshots[boundary].backlog_fetches =
            slice_start_backlog + fraction * (slice.backlog_fetches - slice_start_backlog);
        out.snapshots[boundary].fresh_at_boundary =
            slice.state == torclients::AvailabilitySlice::State::kFresh;
        ++boundary;
      }
      slice_start_backlog = slice.backlog_fetches;
    }

    // Recovery headline, client-visible flavor: the first instant at or after
    // the last fault cleared when the cache tier was serving fresh again.
    if (!std::isnan(out.last_fault_cleared_seconds)) {
      const double cleared = out.last_fault_cleared_seconds;
      for (const torclients::AvailabilitySlice& slice : availability.timeline) {
        if (slice.state == torclients::AvailabilitySlice::State::kFresh &&
            slice.end_seconds > cleared) {
          out.time_to_fresh_seconds = std::max(slice.begin_seconds - cleared, 0.0);
          break;
        }
      }
    }
  } else if (!std::isnan(out.last_fault_cleared_seconds)) {
    // No client plane: fall back to publish instants — the first consensus
    // published in or after the round the fault cleared in.
    const double cleared = out.last_fault_cleared_seconds;
    const uint32_t cleared_round = std::min(
        timeline.rounds - 1, static_cast<uint32_t>(cleared / period));
    for (const ChainLink& link : chain) {
      if (link.round < cleared_round) {
        continue;
      }
      const double published = static_cast<double>(link.round) * period +
                               out.rounds[link.round].consensus_published_seconds;
      out.time_to_fresh_seconds = std::max(published - cleared, 0.0);
      break;
    }
  }

  // Horizon health: the per-round observations feed the monitor's timeline
  // channel; drops aggregate across rounds.
  tordir::HealthMonitor monitor(timeline.base.authority_count);
  monitor.RecordUndeliverable(out.undeliverable_messages);
  for (uint32_t r = 0; r < timeline.rounds; ++r) {
    tordir::TimelineRoundObservation observation;
    observation.round = r;
    observation.faulted = faulted[r] != 0;
    observation.fresh_at_end = out.snapshots[r].fresh_at_boundary;
    observation.peak_backlog_fraction =
        load.client_count > 0
            ? round_peak_backlog[r] / static_cast<double>(load.client_count)
            : 0.0;
    monitor.RecordTimelineRound(observation);
  }
  out.health_alerts = monitor.Analyze();
  return out;
}

}  // namespace torscenario
