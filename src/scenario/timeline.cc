#include "src/scenario/timeline.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
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
    if (entry.recover_offset >= spec.round_period) {
      CalendarError("recover offset outside the round");
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
    if (entry.event.node >= spec.base.authority_count) {
      CalendarError("churn entry names a non-authority node");
    }
    if (entry.event.at >= spec.round_period) {
      CalendarError("churn offset outside the round");
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

// What the stitch derives, each item once. Memoized rounds share one
// ScenarioResult and so one document pointer, and pointer equality implies
// byte equality, so a document is keyed by its pointer: a memo-off run, where
// every pointer is distinct, derives the same values once per round.
struct StitchPlan {
  // Each distinct published document, in first-publication order.
  std::vector<std::shared_ptr<const tordir::ConsensusDocument>> documents;
  // Each distinct consecutive (base, target) pair of published documents,
  // as indexes into `documents`, in first-appearance order.
  std::vector<std::pair<size_t, size_t>> pairs;
  // Per round: the index of its published document, and of the pair that
  // diffs it from the previously published one (none for a failed round or
  // the horizon's first document).
  std::vector<std::optional<size_t>> round_document;
  std::vector<std::optional<size_t>> round_pair;
};

StitchPlan PlanStitch(const std::vector<ScenarioResult>& rounds) {
  StitchPlan plan;
  plan.round_document.resize(rounds.size());
  plan.round_pair.resize(rounds.size());
  std::map<const tordir::ConsensusDocument*, size_t> document_index;
  std::map<std::pair<size_t, size_t>, size_t> pair_index;
  std::optional<size_t> previous;
  for (size_t r = 0; r < rounds.size(); ++r) {
    const ScenarioResult& round = rounds[r];
    if (!round.succeeded || round.consensus_document == nullptr) {
      continue;
    }
    const auto [document, new_document] =
        document_index.try_emplace(round.consensus_document.get(), plan.documents.size());
    if (new_document) {
      plan.documents.push_back(round.consensus_document);
    }
    plan.round_document[r] = document->second;
    if (previous.has_value()) {
      const auto [pair, new_pair] =
          pair_index.try_emplace({*previous, document->second}, plan.pairs.size());
      if (new_pair) {
        plan.pairs.push_back(pair->first);
      }
      plan.round_pair[r] = pair->second;
    }
    previous = document->second;
  }
  return plan;
}

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

// Authorities down at the end of a round: its own churn list (the calendar
// crashes BuildTimelineRoundSpecs decomposed into it, plus its blips),
// replayed in the order the runner applies it.
std::vector<torbase::NodeId> CrashedAtBoundary(const ScenarioSpec& round) {
  std::set<torbase::NodeId> down;
  for (const ChurnEvent& event : ChurnInTimeOrder(round.churn)) {
    if (event.kind == ChurnEvent::Kind::kCrash) {
      down.insert(event.node);
    } else {
      down.erase(event.node);
    }
  }
  return {down.begin(), down.end()};
}

// One crashed authority coming back: fetch the newest published document as of
// the previous boundary, via the composed diff chain when close enough behind
// (verified byte-identical against the full document, refused on any
// framing-digest mismatch), else in full. `pool` (nullable) splits the
// chain's leaf hashing.
RejoinEvent CatchUp(const std::vector<ChainLink>& chain, std::optional<size_t>& held_index,
                    torbase::NodeId node, uint32_t round, torbase::ThreadPool* pool) {
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
  if (behind <= kMaxDiffChainRounds) {
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
    tordir::ApplyDiffOptions options;
    options.pool = pool;
    const torbase::Result<std::string> patched =
        tordir::ApplyConsensusDiffChain(*chain[*held_index].text, diffs, options);
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

TimelineResult ScenarioRunner::RunTimeline(const TimelineSpec& timeline) {
  return RunTimeline(timeline, SweepOptions{});
}

TimelineResult ScenarioRunner::RunTimeline(const TimelineSpec& timeline,
                                           const SweepOptions& options) {
  const std::vector<ScenarioSpec> specs = BuildTimelineRoundSpecs(timeline);
  TimelineResult out;
  // The fan-out: every round is an independent simulation, so the whole
  // horizon parallelizes under the sweep's bit-identity contract.
  out.rounds = Sweep(specs, options);

  // The stitch. A serial plan lists what to derive; the sweep's workers
  // serialize and tree-hash each distinct document once, then diff each
  // distinct pair once with both digests passed in. Every task reads
  // immutable documents and writes only its own slot, so the tables are the
  // same at any thread count. The serial walk below assembles links,
  // snapshots and rejoins from them.
  const StitchPlan plan = PlanStitch(out.rounds);
  Workers workers(*this, options.threads, std::max(plan.documents.size(), plan.pairs.size()));
  std::vector<std::shared_ptr<const std::string>> texts(plan.documents.size());
  std::vector<torcrypto::Digest256> digests(plan.documents.size());
  workers.ForEach(plan.documents.size(), [&plan, &texts, &digests](size_t i) {
    texts[i] = std::make_shared<const std::string>(tordir::SerializeConsensus(*plan.documents[i]));
    digests[i] = torcrypto::Digest256(torcrypto::Sha256TreeDigest(*texts[i]));
  });
  std::vector<std::shared_ptr<const std::string>> diffs(plan.pairs.size());
  workers.ForEach(plan.pairs.size(), [&plan, &digests, &diffs](size_t i) {
    const auto [base, target] = plan.pairs[i];
    tordir::ConsensusDiffOptions diff_options;
    diff_options.base_digest = digests[base];
    diff_options.target_digest = digests[target];
    diffs[i] = std::make_shared<const std::string>(tordir::ComputeConsensusDiff(
        *plan.documents[base], *plan.documents[target], diff_options));
  });

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
  for (uint32_t r = 0; r < timeline.rounds; ++r) {
    const ScenarioResult& round = out.rounds[r];
    // Rejoins first: a recovering authority catches up to the newest document
    // published *before* its round (its own round's consensus is not out yet
    // when it comes back mid-round).
    while (next_recovery < recoveries.size() &&
           recoveries[next_recovery].recover_round == r) {
      const CrashCalendarEntry& entry = recoveries[next_recovery++];
      RejoinEvent event = CatchUp(chain, held[entry.node], entry.node, r, workers.pool());
      out.rejoin_bytes += event.bytes;
      out.rejoins.push_back(std::move(event));
    }

    std::shared_ptr<const std::string> round_diff;
    if (const std::optional<size_t> document = plan.round_document[r]; document.has_value()) {
      ChainLink link;
      link.round = r;
      link.doc = plan.documents[*document];
      link.text = texts[*document];
      link.digest = digests[*document];
      if (const std::optional<size_t> pair = plan.round_pair[r]; pair.has_value()) {
        link.diff = diffs[*pair];
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
    snapshot.crashed = CrashedAtBoundary(specs[r]);
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
    for (const ChainLink& link : chain) {
      const ScenarioResult& round = out.rounds[link.round];
      torclients::PublishedDocument doc = torclients::MapToTimeline(
          static_cast<double>(link.round) * period, round.consensus_published_seconds,
          round.consensus_valid_after, round.consensus_fresh_until, round.consensus_valid_until,
          static_cast<double>(link.text->size()), load.vote_lead);
      if (link.diff != nullptr) {
        doc.diff_size_bytes = static_cast<double>(link.diff->size());
      }
      documents.push_back(doc);
    }
    std::vector<torclients::AvailabilitySlice> slices;
    out.client_availability = EvaluateClientLoad(load, std::move(documents), window, &slices);
    out.peak_retry_backlog = out.client_availability.peak_backlog_fetches;

    // Walk the slice timeline once: per-round backlog peaks for the horizon
    // monitor, and the exact boundary state for each snapshot. Backlog is
    // linear within a slice (all rates constant), so the boundary value
    // interpolates between the neighboring slice ends.
    double slice_start_backlog = 0.0;
    uint32_t boundary = 0;
    for (const torclients::AvailabilitySlice& slice : slices) {
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
      for (const torclients::AvailabilitySlice& slice : slices) {
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
