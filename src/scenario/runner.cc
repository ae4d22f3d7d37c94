#include "src/scenario/runner.h"

#include <algorithm>
#include <cassert>
#include <deque>
#include <functional>
#include <limits>
#include <map>
#include <optional>
#include <set>
#include <span>
#include <utility>

#include "src/clients/population.h"
#include "src/common/thread_pool.h"
#include "src/crypto/sha256_batch.h"
#include "src/protocols/byzantine.h"
#include "src/protocols/directory_protocol.h"
#include "src/scenario/spec_digest.h"
#include "src/tordir/consensus_diff.h"
#include "src/tordir/dirspec.h"
#include "src/tordir/health_monitor.h"

namespace torscenario {
namespace {

// Key seed of the authority signing directory; fixed across the repo so logs
// and digests are comparable between drivers.
constexpr uint64_t kKeyDirectorySeed = 42;

double NodeRate(const ScenarioSpec& spec, torbase::NodeId node) {
  const auto it = spec.bandwidth_by_authority.find(node);
  return it == spec.bandwidth_by_authority.end() ? spec.bandwidth_bps : it->second;
}

// Feeds the run's observable vote/consensus record through the
// consensus-health monitor (Table 1's deployed mitigation) and stores the
// alerts. Pure post-run analysis over probe results.
void AnalyzeHealth(const ScenarioSpec& spec, const torproto::DirectoryProtocol& protocol,
                   const std::vector<torsim::Actor*>& actors,
                   const std::vector<torcrypto::Digest256>& vote_digests,
                   ScenarioResult& result) {
  tordir::HealthMonitor monitor(spec.authority_count);
  // Bandwidth claimed by each distinct admitted document, summed once: every
  // observer of a shared vote holds the same document. Keys hold their
  // documents, so an address is never reused for another within the call.
  std::map<std::shared_ptr<const tordir::VoteDocument>, uint64_t> bandwidth_totals;
  for (const torsim::Actor* actor : actors) {
    const std::vector<torproto::ObservedVote> observations =
        protocol.ProbeVoteObservations(*actor);
    if (observations.empty()) {
      // Protocols without admission probes (downstream registrations) fall
      // back to the sender list, paired with the canonical workload digests.
      for (const torbase::NodeId sender : protocol.ProbeVoteSenders(*actor)) {
        if (sender < vote_digests.size()) {
          monitor.RecordVote(actor->id(), sender, vote_digests[sender]);
        }
      }
    }
    // Per-observer evidence: each actor reports the digest *it* admitted, so
    // an equivocating sender shows up as two digests across observers.
    for (const torproto::ObservedVote& observed : observations) {
      tordir::VoteObservation record;
      record.sender = observed.sender;
      record.digest = observed.digest;
      record.at_seconds = torbase::ToSeconds(observed.at);
      if (observed.document != nullptr) {
        auto [total, inserted] = bandwidth_totals.try_emplace(observed.document, 0);
        if (inserted) {
          for (const tordir::RelayStatus& relay : observed.document->relays) {
            total->second += relay.bandwidth;
          }
        }
        record.total_bandwidth = total->second;
      }
      monitor.RecordObservation(actor->id(), record);
    }
    for (const torproto::RejectedVote& rejected : protocol.ProbeVoteRejects(*actor)) {
      monitor.RecordReject(actor->id(), rejected.sender, rejected.reason,
                           torbase::ToSeconds(rejected.at));
    }
  }
  // Flooded or dead links drop messages silently at the NIC; surface them so
  // operators see the flood itself, not only its consensus fallout.
  monitor.RecordUndeliverable(result.undeliverable_messages);
  for (const torsim::Actor* actor : actors) {
    const torproto::PublishedConsensus published = protocol.ProbeConsensus(*actor);
    if (published.document == nullptr) {
      monitor.RecordConsensus(actor->id(), std::nullopt);
    } else if (published.digest != nullptr) {
      // All built-ins expose the body digest they computed during the run;
      // recording it is free.
      monitor.RecordConsensus(actor->id(), *published.digest);
    } else {
      // Downstream protocols without a cached digest pay one hash here.
      monitor.RecordConsensus(actor->id(), tordir::ConsensusDigest(*published.document));
    }
  }
  result.health_alerts = monitor.Analyze();
}

// Distills the run's alerts into the fault-detection metrics the fuzzer
// asserts on: how many injected byzantine authorities at least one alert
// implicates, and when the monitor had seen evidence of all of them.
void ComputeFaultMetrics(const ScenarioSpec& spec, ScenarioResult& result) {
  for (const auto& [node, behavior] : spec.byzantine.behaviors) {
    if (node < spec.authority_count) {
      ++result.byzantine_count;
    }
  }
  if (!spec.monitor_health || result.byzantine_count == 0) {
    return;
  }
  std::set<torbase::NodeId> implicated;
  double latest = std::numeric_limits<double>::quiet_NaN();
  for (const tordir::HealthAlert& alert : result.health_alerts) {
    for (const torbase::NodeId authority : alert.authorities) {
      if (authority >= spec.authority_count ||
          spec.byzantine.behaviors.find(authority) == spec.byzantine.behaviors.end()) {
        continue;
      }
      implicated.insert(authority);
      // Max over timestamped evidence; absence-based alerts (-1.0) support
      // detection but carry no instant.
      if (alert.first_evidence_seconds >= 0.0 && !(latest >= alert.first_evidence_seconds)) {
        latest = alert.first_evidence_seconds;
      }
    }
  }
  result.faults_detected = static_cast<uint32_t>(implicated.size());
  result.fault_detection_latency_seconds = latest;
}

// The run's side of the consumption plane: maps its published consensus onto
// the evaluation window, then hands the documents to EvaluateClientLoad.
void AnalyzeClientLoad(const ScenarioSpec& spec, const torproto::PublishedConsensus& published,
                       size_t fallback_size_bytes, ScenarioResult& result) {
  torclients::ClientLoadSpec load = spec.client_load;
  if (load.consensus_size_hint_bytes <= 0.0) {
    // Failed runs publish nothing; size the prior document like a vote,
    // which matches the consensus's wire-size shape at the same relay count.
    load.consensus_size_hint_bytes = static_cast<double>(fallback_size_bytes);
  }

  std::vector<torclients::PublishedDocument> documents;
  if (published.document != nullptr) {
    result.consensus_size_bytes = tordir::SerializeConsensus(*published.document).size();
    if (spec.previous_consensus != nullptr) {
      result.consensus_diff_size_bytes =
          tordir::ComputeConsensusDiff(*spec.previous_consensus, *published.document).size();
    }
    // Retain the published document for the next round of a stitched
    // replay: it is immutable and shared, so it outlives the harness.
    result.consensus_document = published.document;
    documents.push_back(torclients::MapToTimeline(
        /*round_start_seconds=*/0.0, torbase::ToSeconds(published.published_at),
        published.document->valid_after, published.document->fresh_until,
        published.document->valid_until, static_cast<double>(result.consensus_size_bytes),
        load.vote_lead));
    documents.back().diff_size_bytes = static_cast<double>(result.consensus_diff_size_bytes);
  }

  const double window =
      std::min(torbase::ToSeconds(spec.horizon), torbase::ToSeconds(load.evaluation_window));
  result.client_availability = EvaluateClientLoad(load, std::move(documents), window);
}

}  // namespace

std::shared_ptr<const ScenarioRunner::Workload> ScenarioRunner::BuildWorkload(
    const ScenarioSpec& spec) {
  tordir::PopulationConfig pop_config;
  pop_config.relay_count = spec.relay_count;
  pop_config.seed = spec.seed;
  auto workload = std::make_shared<Workload>();
  workload->population = tordir::GeneratePopulation(pop_config);
  auto cache = std::make_shared<tordir::VoteCache>();
  std::vector<tordir::VoteDocument> votes =
      tordir::MakeAllVotes(spec.authority_count, workload->population, pop_config);
  workload->votes.reserve(votes.size());
  workload->vote_texts.reserve(votes.size());
  workload->vote_digests.reserve(votes.size());
  cache->Reserve(votes.size());
  // Serialize every vote first, then digest them all in one Sha256Batch call:
  // the lanes run lock-step on the hardware core and produce exactly the
  // digests Digest256::Of would (vote identity stays plain SHA-256 on the
  // wire), so the cache keys are unchanged.
  torcrypto::Sha256Batch batch;
  for (tordir::VoteDocument& vote : votes) {
    auto document = std::make_shared<const tordir::VoteDocument>(std::move(vote));
    auto text = std::make_shared<const std::string>(tordir::SerializeVote(*document));
    batch.Add(std::string_view(*text));
    workload->votes.push_back(std::move(document));
    workload->vote_texts.push_back(std::move(text));
  }
  const auto digests = batch.Finish();
  for (size_t i = 0; i < digests.size(); ++i) {
    const torcrypto::Digest256 digest(digests[i]);
    cache->Add(digest, tordir::CachedVote{workload->votes[i], workload->vote_texts[i]});
    workload->vote_digests.push_back(digest);
  }
  cache->Seal();
  workload->vote_cache = std::move(cache);
  return workload;
}

size_t ScenarioRunner::workload_cache_hits() const {
  std::lock_guard<std::mutex> lock(workloads_mutex_);
  return cache_hits_;
}

size_t ScenarioRunner::workload_cache_misses() const {
  std::lock_guard<std::mutex> lock(workloads_mutex_);
  return cache_misses_;
}

size_t ScenarioRunner::workload_cache_size() const {
  std::lock_guard<std::mutex> lock(workloads_mutex_);
  return workloads_.size();
}

size_t ScenarioRunner::result_memo_hits() const {
  std::lock_guard<std::mutex> lock(memo_mutex_);
  return memo_hits_;
}

size_t ScenarioRunner::result_memo_misses() const {
  std::lock_guard<std::mutex> lock(memo_mutex_);
  return memo_misses_;
}

size_t ScenarioRunner::result_memo_size() const {
  std::lock_guard<std::mutex> lock(memo_mutex_);
  return results_.size();
}

void ScenarioRunner::ClearResultMemo() {
  std::lock_guard<std::mutex> lock(memo_mutex_);
  results_.clear();
}

ScenarioResult ScenarioRunner::Run(const ScenarioSpec& spec, const InspectFn& inspect) {
  return std::move(RunCells(std::span(&spec, 1), 1, inspect).front());
}

std::vector<ScenarioResult> ScenarioRunner::Sweep(const std::vector<ScenarioSpec>& specs,
                                                  const SweepOptions& options) {
  return RunCells(specs, options.threads, InspectFn());
}

ScenarioResult ScenarioRunner::RunWithWorkload(const ScenarioSpec& spec, const Workload& workload,
                                               const InspectFn& inspect) const {
  const torproto::DirectoryProtocol& base_protocol = torproto::GetProtocol(spec.protocol);
  // Byzantine cells wrap the registered protocol in the faulty-materials
  // layer; honest cells run it directly. The wrapper only substitutes each
  // faulty authority's AuthorityMaterials — probes and everything else
  // delegate, so the rest of this function is protocol-agnostic.
  std::optional<torproto::ByzantineProtocol> byzantine;
  if (!spec.byzantine.empty()) {
    byzantine.emplace(&base_protocol, &spec.byzantine);
  }
  const torproto::DirectoryProtocol& protocol = byzantine.has_value()
                                                    ? static_cast<const torproto::DirectoryProtocol&>(*byzantine)
                                                    : base_protocol;

  torcrypto::KeyDirectory directory(kKeyDirectorySeed, spec.authority_count);

  torsim::NetworkConfig net_config;
  net_config.node_count = spec.authority_count;
  net_config.default_bandwidth_bps = spec.bandwidth_bps;
  net_config.default_latency = spec.latency;
  torsim::Harness harness(net_config);
  for (const auto& [node, bps] : spec.bandwidth_by_authority) {
    harness.net().SetNodeRateFrom(node, 0, bps);
  }

  torproto::ProtocolRunConfig run_config;
  run_config.authority_count = spec.authority_count;
  run_config.dissemination_timeout = spec.dissemination_timeout;
  run_config.two_phase_agreement = spec.two_phase_agreement;

  // One document store per cell, shared by its authorities: each distinct
  // vote list is aggregated and digested once, each distinct packed vote
  // hashed once, and each distinct faulty text hashed and parsed once. It
  // dies with the cell, so no later cell (or warm benchmark pass) can reuse
  // its work. The reference runner withholds it and the vote cache, so every
  // authority parses what it receives and aggregates on its own, and it
  // flattens every frame, so receivers read contiguous bytes instead of the
  // senders' shared texts.
  harness.net().set_flatten_frames(reference_);
  const std::shared_ptr<const tordir::VoteCache> vote_cache =
      reference_ ? nullptr : workload.vote_cache;
  const auto document_store =
      reference_ ? nullptr : std::make_shared<torproto::DocumentStore>();
  std::vector<torsim::Actor*> actors;
  actors.reserve(spec.authority_count);
  for (uint32_t a = 0; a < spec.authority_count; ++a) {
    // Share the cached vote, its serialized bytes and the workload's parsed-
    // vote cache with the actor: all immutable, so concurrent cells can hold
    // the same documents without copying megabytes per authority per run.
    actors.push_back(harness.AddActor(protocol.MakeAuthority(
        run_config, &directory, a,
        torproto::AuthorityMaterials{.vote = workload.votes[a],
                                     .vote_text = workload.vote_texts[a],
                                     .vote_cache = vote_cache,
                                     .document_store = document_store})));
  }

  // A private clone per cell: specs may share one schedule object, but
  // Install and history are per-run state, and the caller's schedule stays
  // untouched.
  const std::shared_ptr<torattack::AttackSchedule> attack =
      spec.attack == nullptr ? nullptr : spec.attack->Clone();
  torattack::AttackContext attack_context;
  if (attack != nullptr) {
    attack_context.authority_count = spec.authority_count;
    attack_context.horizon = spec.horizon;
    attack_context.current_leader = [&protocol, &actors]() -> std::optional<torbase::NodeId> {
      // The leader of the highest in-flight view across authorities: the view
      // an attacker watching the wire would see being driven right now.
      std::optional<std::pair<uint64_t, torbase::NodeId>> best;
      for (const torsim::Actor* actor : actors) {
        const auto view = protocol.AgreementView(*actor);
        if (view.has_value() && (!best.has_value() || view->first > best->first)) {
          best = view;
        }
      }
      if (!best.has_value()) {
        return std::nullopt;
      }
      return best->second;
    };
    attack->Install(harness, attack_context);
  }

  // Churn is applied after the attack schedule, in time order, so a crash
  // erases any later attack restore points on that node: a crashed authority
  // stays down until its own recover event, not until an attack window ends.
  for (const ChurnEvent& event : ChurnInTimeOrder(spec.churn)) {
    if (event.kind == ChurnEvent::Kind::kCrash) {
      harness.net().LimitNode(event.node, event.at, torbase::kTimeNever, 0.0);
    } else {
      harness.net().SetNodeRateFrom(event.node, event.at, NodeRate(spec, event.node));
    }
  }

  harness.StartAll();
  harness.sim().RunUntil(spec.horizon);

  ScenarioResult result;
  result.total_bytes_sent = harness.net().total_bytes_sent();
  result.bytes_by_kind = harness.net().bytes_by_kind();
  result.undeliverable_messages = harness.net().undeliverable_count();

  double latency = 0.0;
  double finish = 0.0;
  torproto::PublishedConsensus published;  // earliest authority to publish
  for (const torsim::Actor* actor : actors) {
    const torproto::UnifiedOutcome outcome = protocol.ProbeOutcome(*actor);
    if (!outcome.valid_consensus) {
      continue;
    }
    ++result.valid_count;
    result.consensus_holders.push_back(actor->id());
    result.consensus_relays = outcome.consensus_relays;
    latency = std::max(latency, outcome.network_time_seconds);
    finish = std::max(finish, outcome.finish_seconds);
    const torproto::PublishedConsensus candidate = protocol.ProbeConsensus(*actor);
    if (candidate.document != nullptr && candidate.published_at < published.published_at) {
      published = candidate;
    }
  }
  result.succeeded = result.valid_count > 0;
  if (result.succeeded) {
    result.latency_seconds = latency;
    result.finish_time_seconds = finish;
  }
  if (published.document != nullptr) {
    result.consensus_published_seconds = torbase::ToSeconds(published.published_at);
    result.consensus_valid_after = published.document->valid_after;
    result.consensus_fresh_until = published.document->fresh_until;
    result.consensus_valid_until = published.document->valid_until;
  }
  if (attack != nullptr) {
    result.attack_history = attack->history();
  }

  if (spec.monitor_health) {
    AnalyzeHealth(spec, protocol, actors, workload.vote_digests, result);
  }
  ComputeFaultMetrics(spec, result);
  if (spec.client_load.client_count > 0) {
    AnalyzeClientLoad(spec, published,
                      workload.vote_texts.empty() ? 0 : workload.vote_texts[0]->size(), result);
  }
  // Timeline rounds run without a per-round client plane but still need the
  // actual published document for diff chains and rejoin costing.
  if (spec.retain_consensus) {
    result.consensus_document = published.document;
  }

  if (inspect) {
    inspect(harness, actors);
  }
  return result;
}

ScenarioRunner::Workers::Workers(const ScenarioRunner& runner, unsigned threads, size_t tasks) {
  // No point spinning up more workers than tasks; a single task (every Run)
  // never starts a pool, and neither does the reference runner.
  threads = runner.reference_
                ? 1
                : static_cast<unsigned>(std::min<size_t>(
                      threads == 0 ? torbase::ThreadPool::DefaultThreads() : threads, tasks));
  if (threads > 1) {
    pool_.emplace(threads);
  }
}

void ScenarioRunner::Workers::ForEach(size_t count, const std::function<void(size_t)>& body) {
  if (pool_.has_value()) {
    pool_->ParallelFor(count, body);
    return;
  }
  for (size_t i = 0; i < count; ++i) {
    body(i);
  }
}

std::vector<ChurnEvent> ChurnInTimeOrder(std::vector<ChurnEvent> churn) {
  std::stable_sort(churn.begin(), churn.end(), [](const ChurnEvent& a, const ChurnEvent& b) {
    return a.at != b.at ? a.at < b.at : a.kind < b.kind;
  });
  return churn;
}

std::vector<ScenarioResult> ScenarioRunner::RunCells(std::span<const ScenarioSpec> specs,
                                                     unsigned threads, const InspectFn& inspect) {
  Workers workers(*this, threads, specs.size());

  // Workload probe, serial in spec order, so telemetry counts exactly the
  // same at any thread count: the first occurrence of an uncached key is the
  // miss, repeats are hits. Each missing key publishes a pending future under
  // the lock, so concurrent callers on a shared runner that miss the same key
  // find it (a hit — one build, shared) and wait instead of building twice.
  // The missing workloads — generation, serialization, digesting and
  // VoteCache build, independent per key — are then built on the pool. Pool
  // threads intern relay strings concurrently; the string pool's lock-free
  // index keeps that race-free and ids never influence results (ROADMAP
  // threading contract).
  std::vector<WorkloadFuture> workloads(specs.size());
  std::vector<size_t> build_spec_indexes;  // first spec index per missing key
  std::deque<std::promise<std::shared_ptr<const Workload>>> promises;
  {
    std::lock_guard<std::mutex> lock(workloads_mutex_);
    for (size_t i = 0; i < specs.size(); ++i) {
      const WorkloadKey key{specs[i].relay_count, specs[i].seed, specs[i].authority_count};
      if (const auto it = workloads_.find(key); it != workloads_.end()) {
        ++cache_hits_;  // built, in flight elsewhere, or earlier in this call
        workloads[i] = it->second;
      } else {
        ++cache_misses_;
        build_spec_indexes.push_back(i);
        promises.emplace_back();
        workloads[i] = promises.back().get_future().share();
        workloads_[key] = workloads[i];
      }
    }
  }
  workers.ForEach(build_spec_indexes.size(),
                  [this, specs, &build_spec_indexes, &promises](size_t j) {
                    promises[j].set_value(BuildWorkload(specs[build_spec_indexes[j]]));
                  });

  // Memo probe, serial in spec order — the same discipline: a digest already
  // published is a hit, the first occurrence of a new digest is the miss that
  // runs, and repeats within this call are hits served by that one run.
  // Inspected runs bypass the memo entirely: the hook needs a live harness,
  // and whatever it observes is invisible to the digest. The reference
  // runner never memoizes.
  const bool memoize = memoize_ && !reference_ && !inspect;
  enum : char { kRun = 0, kMemoized = 1, kDuplicate = 2 };
  std::vector<ScenarioResult> results(specs.size());
  std::vector<char> cell_state(specs.size(), kRun);
  std::vector<torcrypto::Digest256> digests;
  std::vector<size_t> run_indexes;  // cells that actually simulate
  if (memoize) {
    digests.resize(specs.size());
    for (size_t i = 0; i < specs.size(); ++i) {
      digests[i] = SpecDigest(specs[i]);
    }
    std::lock_guard<std::mutex> lock(memo_mutex_);
    std::set<torcrypto::Digest256> pending;
    for (size_t i = 0; i < specs.size(); ++i) {
      if (const auto it = results_.find(digests[i]); it != results_.end()) {
        ++memo_hits_;
        results[i] = *it->second;
        cell_state[i] = kMemoized;
      } else if (pending.insert(digests[i]).second) {
        ++memo_misses_;
        run_indexes.push_back(i);
      } else {
        ++memo_hits_;  // duplicate digest in this call: simulated once
        cell_state[i] = kDuplicate;
      }
    }
  } else {
    run_indexes.resize(specs.size());
    for (size_t i = 0; i < specs.size(); ++i) {
      run_indexes[i] = i;
    }
  }

  workers.ForEach(run_indexes.size(),
                  [this, specs, &workloads, &results, &run_indexes, &inspect](size_t j) {
                    const size_t i = run_indexes[j];
                    results[i] = RunWithWorkload(specs[i], *workloads[i].get(), inspect);
                  });

  if (memoize) {
    // Publish serially in first-appearance order; entries are immutable once
    // published (a racing caller on a shared runner may have published the
    // same digest meanwhile — its entry wins and is bit-identical by purity,
    // and every cell returns the published entry). Duplicate cells are then
    // filled from the published entries.
    std::lock_guard<std::mutex> lock(memo_mutex_);
    for (const size_t i : run_indexes) {
      auto published = std::make_shared<const ScenarioResult>(std::move(results[i]));
      results[i] = *results_.emplace(digests[i], std::move(published)).first->second;
    }
    for (size_t i = 0; i < specs.size(); ++i) {
      if (cell_state[i] == kDuplicate) {
        results[i] = *results_.at(digests[i]);
      }
    }
  }
  return results;
}

ClientAvailabilityResult EvaluateClientLoad(
    const torclients::ClientLoadSpec& load, std::vector<torclients::PublishedDocument> documents,
    double window_seconds, std::vector<torclients::AvailabilitySlice>* timeline) {
  // The full-document counterfactual only diverges when a diff cohort exists
  // and a diff was actually served; copy the documents before they are moved.
  const bool diff_serving =
      load.diff_capable_fraction > 0.0 &&
      std::any_of(documents.begin(), documents.end(), [](const torclients::PublishedDocument& doc) {
        return doc.diff_size_bytes > 0.0;
      });
  std::vector<torclients::PublishedDocument> full_doc_documents;
  if (diff_serving) {
    full_doc_documents = documents;
  }
  torclients::ClientAvailability availability =
      torclients::SimulateClientLoad(load, std::move(documents), window_seconds);

  ClientAvailabilityResult out;
  static_cast<torclients::ClientAvailabilitySummary&>(out) = availability;
  out.enabled = true;
  const double client_hours = static_cast<double>(load.client_count) * window_seconds / 3600.0;
  if (client_hours > 0.0) {
    out.bytes_per_client_hour = availability.served_bytes / client_hours;
    if (diff_serving) {
      // Same documents, diff serving disabled: what the cache tier would have
      // transferred if every fetch were the full document.
      torclients::ClientLoadSpec full_load = load;
      full_load.diff_capable_fraction = 0.0;
      const torclients::ClientAvailability full =
          torclients::SimulateClientLoad(full_load, std::move(full_doc_documents), window_seconds);
      out.full_doc_bytes_per_client_hour = full.served_bytes / client_hours;
    } else {
      out.full_doc_bytes_per_client_hour = out.bytes_per_client_hour;
    }
  }
  if (timeline != nullptr) {
    *timeline = std::move(availability.timeline);
  }
  return out;
}

double FindBandwidthRequirement(ScenarioRunner& runner, const ScenarioSpec& base,
                                uint32_t victim_count, double lo_bps, double hi_bps, int probes) {
  const auto* standing = dynamic_cast<const torattack::WindowedAttack*>(base.attack.get());
  if (base.attack != nullptr && standing == nullptr) {
    return std::numeric_limits<double>::quiet_NaN();
  }
  auto probe = [&](double bandwidth) {
    torattack::AttackWindow window;
    window.targets = torattack::FirstTargets(victim_count);
    window.start = 0;
    window.end = base.horizon;
    window.available_bps = bandwidth;
    std::vector<torattack::AttackWindow> windows;
    if (standing != nullptr) {
      windows = standing->windows();
    }
    windows.push_back(std::move(window));
    ScenarioSpec spec = base;
    spec.attack = std::make_shared<torattack::WindowedAttack>(std::move(windows));
    return runner.Run(spec).succeeded;
  };
  // Invariant: the protocol fails at lo and succeeds at hi. If it already
  // succeeds at lo (tiny relay counts), report lo; if it fails even at hi,
  // report hi as a lower bound.
  if (probe(lo_bps)) {
    return lo_bps;
  }
  if (!probe(hi_bps)) {
    return hi_bps;  // lower bound only; nothing succeeded, nothing to confirm
  }
  double lo = lo_bps;
  double hi = hi_bps;
  for (int i = 0; i < probes; ++i) {
    const double mid = (lo + hi) / 2.0;
    if (probe(mid)) {
      hi = mid;
    } else {
      lo = mid;
    }
  }
  // Re-assert the invariant on the value returned: `hi` was probed when it
  // became the upper bracket, so this replays from the memo and aborts the
  // search (loudly, in debug) if the protocol does not actually succeed there.
  const bool confirmed = probe(hi);
  assert(confirmed && "bandwidth requirement search lost its invariant");
  (void)confirmed;
  return hi;
}

}  // namespace torscenario
