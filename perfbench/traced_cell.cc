#include "traced_cell.h"

#include <malloc.h>

#include <algorithm>
#include <chrono>
#include <fstream>
#include <map>
#include <optional>
#include <set>
#include <string_view>
#include <utility>

#include "src/attack/schedule.h"
#include "src/clients/population.h"
#include "src/crypto/sha256_batch.h"
#include "src/crypto/signature.h"
#include "src/protocols/byzantine.h"
#include "src/protocols/directory_protocol.h"
#include "src/sim/actor.h"
#include "src/tordir/admission.h"
#include "src/tordir/aggregate.h"
#include "src/tordir/consensus_diff.h"
#include "src/tordir/dirspec.h"
#include "src/tordir/generator.h"
#include "src/tordir/health_monitor.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;
using torscenario::ScenarioResult;
using torscenario::ScenarioSpec;

// The runner's key seed (src/scenario/runner.cc); digests depend on it.
constexpr uint64_t kKeyDirectorySeed = 42;

// Keeps the replayed kernels' results observable.
volatile size_t replay_sink = 0;

double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start).count();
}

// Times `body` into `total_ms`.
template <typename Fn>
void Span(double& total_ms, Fn&& body) {
  const auto start = Clock::now();
  body();
  total_ms += MsSince(start);
}

// Reads a "<field>:  <n> kB" line of /proc/self/status, in MB; 0 if absent.
double StatusMb(std::string_view field) {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.starts_with(field)) {
      return std::stod(line.substr(field.size() + 1)) / 1024.0;
    }
  }
  return 0.0;
}

// Resets the kernel's peak-RSS mark to the current RSS so VmHWM measures the
// next interval alone. False when the kernel refuses.
bool ResetPeakRss() {
  std::ofstream clear_refs("/proc/self/clear_refs");
  clear_refs << "5";
  clear_refs.flush();
  return static_cast<bool>(clear_refs);
}

double NodeRate(const ScenarioSpec& spec, torbase::NodeId node) {
  const auto it = spec.bandwidth_by_authority.find(node);
  return it == spec.bandwidth_by_authority.end() ? spec.bandwidth_bps : it->second;
}

// The runner's post-run health analysis, from the same public probes.
void AnalyzeHealth(const ScenarioSpec& spec, const torproto::DirectoryProtocol& protocol,
                   const std::vector<torsim::Actor*>& actors,
                   const std::vector<torcrypto::Digest256>& vote_digests, ScenarioResult& result) {
  tordir::HealthMonitor monitor(spec.authority_count);
  for (const torsim::Actor* actor : actors) {
    const std::vector<torproto::ObservedVote> observations =
        protocol.ProbeVoteObservations(*actor);
    if (observations.empty()) {
      for (const torbase::NodeId sender : protocol.ProbeVoteSenders(*actor)) {
        if (sender < vote_digests.size()) {
          monitor.RecordVote(actor->id(), sender, vote_digests[sender]);
        }
      }
    }
    for (const torproto::ObservedVote& observed : observations) {
      tordir::VoteObservation record;
      record.sender = observed.sender;
      record.digest = observed.digest;
      record.at_seconds = torbase::ToSeconds(observed.at);
      if (observed.document != nullptr) {
        for (const tordir::RelayStatus& relay : observed.document->relays) {
          record.total_bandwidth += relay.bandwidth;
        }
      }
      monitor.RecordObservation(actor->id(), record);
    }
    for (const torproto::RejectedVote& rejected : protocol.ProbeVoteRejects(*actor)) {
      monitor.RecordReject(actor->id(), rejected.sender, rejected.reason,
                           torbase::ToSeconds(rejected.at));
    }
  }
  monitor.RecordUndeliverable(result.undeliverable_messages);
  for (const torsim::Actor* actor : actors) {
    const torproto::PublishedConsensus published = protocol.ProbeConsensus(*actor);
    if (published.document == nullptr) {
      monitor.RecordConsensus(actor->id(), std::nullopt);
    } else if (published.digest != nullptr) {
      monitor.RecordConsensus(actor->id(), *published.digest);
    } else {
      monitor.RecordConsensus(actor->id(), tordir::ConsensusDigest(*published.document));
    }
  }
  result.health_alerts = monitor.Analyze();
}

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
      if (alert.first_evidence_seconds >= 0.0 && !(latest >= alert.first_evidence_seconds)) {
        latest = alert.first_evidence_seconds;
      }
    }
  }
  result.faults_detected = static_cast<uint32_t>(implicated.size());
  result.fault_detection_latency_seconds = latest;
}

// The runner's consumption plane, from the same public calls.
void AnalyzeClientLoad(const ScenarioSpec& spec, const torproto::PublishedConsensus& published,
                       size_t fallback_size_bytes, ScenarioResult& result) {
  torclients::ClientLoadSpec load = spec.client_load;
  if (load.consensus_size_hint_bytes <= 0.0) {
    load.consensus_size_hint_bytes = static_cast<double>(fallback_size_bytes);
  }
  std::vector<torclients::PublishedDocument> documents;
  if (published.document != nullptr) {
    result.consensus_size_bytes = tordir::SerializeConsensus(*published.document).size();
    if (spec.previous_consensus != nullptr) {
      result.consensus_diff_size_bytes =
          tordir::ComputeConsensusDiff(*spec.previous_consensus, *published.document).size();
    }
    result.consensus_document =
        std::make_shared<const tordir::ConsensusDocument>(*published.document);
    documents.push_back(torclients::MapToTimeline(
        0.0, torbase::ToSeconds(published.published_at), published.document->valid_after,
        published.document->fresh_until, published.document->valid_until,
        static_cast<double>(result.consensus_size_bytes), load.vote_lead));
    documents.back().diff_size_bytes = static_cast<double>(result.consensus_diff_size_bytes);
  }
  const double window =
      std::min(torbase::ToSeconds(spec.horizon), torbase::ToSeconds(load.evaluation_window));
  const bool diff_serving =
      load.diff_capable_fraction > 0.0 && result.consensus_diff_size_bytes > 0;
  std::vector<torclients::PublishedDocument> full_doc_documents;
  if (diff_serving) {
    full_doc_documents = documents;
  }
  const torclients::ClientAvailability availability =
      torclients::SimulateClientLoad(load, std::move(documents), window);

  torscenario::ClientAvailabilityResult& out = result.client_availability;
  out.enabled = true;
  out.total_fetches = availability.total_fetches;
  out.fresh_fetches = availability.fresh_fetches;
  out.stale_fetches = availability.stale_fetches;
  out.unserved_fetches = availability.unserved_fetches;
  out.fresh_fraction = availability.fresh_fraction;
  out.time_to_first_stale_seconds = availability.time_to_first_stale_seconds;
  out.outage_seconds = availability.outage_seconds;
  out.outage_start_seconds = availability.outage_start_seconds;
  out.hard_down_seconds = availability.hard_down_seconds;
  out.hard_down_start_seconds = availability.hard_down_start_seconds;
  out.peak_backlog_fetches = availability.peak_backlog_fetches;
  out.served_bytes = availability.served_bytes;
  const double client_hours = static_cast<double>(load.client_count) * window / 3600.0;
  if (client_hours > 0.0) {
    out.bytes_per_client_hour = availability.served_bytes / client_hours;
    if (diff_serving) {
      torclients::ClientLoadSpec full_load = load;
      full_load.diff_capable_fraction = 0.0;
      const torclients::ClientAvailability full =
          torclients::SimulateClientLoad(full_load, std::move(full_doc_documents), window);
      out.full_doc_bytes_per_client_hour = full.served_bytes / client_hours;
    } else {
      out.full_doc_bytes_per_client_hour = out.bytes_per_client_hour;
    }
  }
}

// What the kernel replays need from a finished cell, copied out before the
// harness is torn down.
struct ReplayInputs {
  struct Delivery {
    torbase::NodeId observer = 0;
    std::shared_ptr<const std::string> text;
    torcrypto::Digest256 digest;
    bool cached = false;
  };
  std::vector<Delivery> admitted;
  std::vector<Delivery> refused;
  // The cell's admission record: votes admitted and refused, over observers.
  uint64_t admitted_count = 0;
  uint64_t refused_count = 0;
  // Per consensus holder: the votes it admitted (one per sender, own first)
  // and the document it published.
  std::vector<std::vector<std::shared_ptr<const tordir::VoteDocument>>> holder_votes;
  std::vector<tordir::ConsensusDocument> holder_documents;
};

ReplayInputs CollectReplayInputs(const ScenarioSpec& spec, const TracedWorkload& workload,
                                 const torproto::DirectoryProtocol& protocol,
                                 const std::vector<torsim::Actor*>& actors) {
  // Every text an authority could have put on the wire, by digest, and the
  // faulty texts each byzantine sender emits (what its refusals refused).
  std::map<torcrypto::Digest256, std::shared_ptr<const std::string>> texts;
  std::map<torbase::NodeId, std::vector<std::shared_ptr<const std::string>>> faulty_texts;
  for (size_t a = 0; a < workload.vote_texts.size(); ++a) {
    texts.emplace(workload.vote_digests[a], workload.vote_texts[a]);
  }
  for (const auto& [node, behavior] : spec.byzantine.behaviors) {
    if (node >= workload.votes.size()) {
      continue;
    }
    const torproto::AuthorityMaterials faulty = torproto::MakeFaultyMaterials(
        torproto::AuthorityMaterials{workload.votes[node], workload.vote_texts[node],
                                     workload.vote_cache, nullptr, nullptr},
        behavior, spec.byzantine, node);
    for (const auto& text : {faulty.vote_text, faulty.second_vote_text}) {
      if (text != nullptr) {
        texts.emplace(torcrypto::Digest256::Of(*text), text);
        faulty_texts[node].push_back(text);
      }
    }
  }

  ReplayInputs inputs;
  for (const torsim::Actor* actor : actors) {
    std::map<torbase::NodeId, std::shared_ptr<const tordir::VoteDocument>> held;
    for (const torproto::ObservedVote& observed : protocol.ProbeVoteObservations(*actor)) {
      ++inputs.admitted_count;
      held.emplace(observed.sender, observed.document);
      const auto text = texts.find(observed.digest);
      if (text != texts.end()) {
        inputs.admitted.push_back(
            {actor->id(), text->second, observed.digest,
             tordir::VoteCache::FindIn(workload.vote_cache, observed.digest) != nullptr});
      }
    }
    for (const torproto::RejectedVote& rejected : protocol.ProbeVoteRejects(*actor)) {
      ++inputs.refused_count;
      const auto faulty = faulty_texts.find(rejected.sender);
      if (faulty == faulty_texts.end()) {
        continue;
      }
      for (const auto& text : faulty->second) {
        const torcrypto::Digest256 digest = torcrypto::Digest256::Of(*text);
        if (tordir::VoteCache::FindIn(workload.vote_cache, digest) == nullptr) {
          inputs.refused.push_back({actor->id(), text, digest, false});
          break;
        }
      }
    }
    const torproto::PublishedConsensus published = protocol.ProbeConsensus(*actor);
    if (published.document != nullptr) {
      std::vector<std::shared_ptr<const tordir::VoteDocument>> votes = {
          workload.votes[actor->id()]};
      for (const auto& [sender, document] : held) {
        if (sender != actor->id() && document != nullptr) {
          votes.push_back(document);
        }
      }
      inputs.holder_votes.push_back(std::move(votes));
      inputs.holder_documents.push_back(*published.document);
    }
  }
  return inputs;
}

ReplayTimes Replay(const ReplayInputs& inputs, const TracedWorkload& workload) {
  ReplayTimes times;
  size_t sink = 0;
  const auto period_start = [&workload](torbase::NodeId observer) {
    return workload.votes[observer]->valid_after;
  };
  Span(times.vote_digest_ms, [&] {
    for (const auto& delivery : inputs.admitted) {
      sink += torcrypto::Digest256::Of(*delivery.text).bytes()[0];
    }
  });
  Span(times.admit_hit_ms, [&] {
    for (const auto& delivery : inputs.admitted) {
      if (delivery.cached) {
        sink += tordir::AdmitVote(workload.vote_cache, *delivery.text, delivery.digest,
                                  period_start(delivery.observer))
                    .status.ok();
      }
    }
  });
  const auto for_each_miss = [&inputs](auto&& body) {
    for (const auto& delivery : inputs.admitted) {
      if (!delivery.cached) {
        body(delivery);
      }
    }
    for (const auto& delivery : inputs.refused) {
      body(delivery);
    }
  };
  Span(times.admit_miss_ms, [&] {
    for_each_miss([&](const ReplayInputs::Delivery& delivery) {
      sink += tordir::AdmitVote(workload.vote_cache, *delivery.text, delivery.digest,
                                period_start(delivery.observer))
                  .status.ok();
    });
  });
  Span(times.parse_vote_ms, [&] {
    for_each_miss([&](const ReplayInputs::Delivery& delivery) {
      sink += tordir::ParseVote(*delivery.text).ok();
    });
  });
  Span(times.aggregate_ms, [&] {
    for (const auto& votes : inputs.holder_votes) {
      std::vector<const tordir::VoteDocument*> pointers;
      for (const auto& vote : votes) {
        pointers.push_back(vote.get());
      }
      sink += tordir::ComputeConsensus(pointers).relays.size();
    }
  });
  Span(times.serialize_consensus_ms, [&] {
    for (const tordir::ConsensusDocument& document : inputs.holder_documents) {
      sink += tordir::SerializeConsensus(document).size();
    }
  });
  replay_sink = sink;
  return times;
}

}  // namespace

TracedWorkload BuildTracedWorkload(size_t relay_count, uint64_t seed, uint32_t authority_count) {
  tordir::PopulationConfig pop_config;
  pop_config.relay_count = relay_count;
  pop_config.seed = seed;
  TracedWorkload workload;
  workload.population = tordir::GeneratePopulation(pop_config);
  std::vector<tordir::VoteDocument> votes =
      tordir::MakeAllVotes(authority_count, workload.population, pop_config);
  auto cache = std::make_shared<tordir::VoteCache>();
  cache->Reserve(votes.size());
  torcrypto::Sha256Batch batch;
  for (tordir::VoteDocument& vote : votes) {
    auto document = std::make_shared<const tordir::VoteDocument>(std::move(vote));
    auto text = std::make_shared<const std::string>(tordir::SerializeVote(*document));
    batch.Add(std::string_view(*text));
    workload.votes.push_back(std::move(document));
    workload.vote_texts.push_back(std::move(text));
  }
  const auto digests = batch.Finish();
  for (size_t i = 0; i < digests.size(); ++i) {
    const torcrypto::Digest256 digest(digests[i]);
    cache->Add(digest, tordir::CachedVote{workload.votes[i], workload.vote_texts[i]});
    workload.vote_digests.push_back(digest);
  }
  cache->Seal();
  workload.vote_cache = std::move(cache);
  return workload;
}

TracedCell RunTracedCell(const ScenarioSpec& spec, const TracedWorkload& workload) {
  TracedCell traced;
  CellSpans& spans = traced.spans;
  ScenarioResult& result = traced.result;
  ReplayInputs replay_inputs;
  // Freed memory from earlier cells would hide this cell's RSS growth.
  malloc_trim(0);

  const auto cell_start = Clock::now();
  double paused_ms = 0.0;
  Clock::time_point teardown_start;
  {
    const torproto::DirectoryProtocol& base_protocol = torproto::GetProtocol(spec.protocol);
    std::optional<torproto::ByzantineProtocol> byzantine;
    std::optional<torcrypto::KeyDirectory> directory;
    std::optional<torsim::Harness> harness;
    std::vector<torsim::Actor*> actors;
    std::shared_ptr<torattack::AttackSchedule> attack;
    torattack::AttackContext attack_context;
    const torproto::DirectoryProtocol* protocol = &base_protocol;

    Span(spans.harness_setup_ms, [&] {
      if (!spec.byzantine.empty()) {
        byzantine.emplace(&base_protocol, &spec.byzantine);
        protocol = &*byzantine;
      }
      directory.emplace(kKeyDirectorySeed, spec.authority_count);
      torsim::NetworkConfig net_config;
      net_config.node_count = spec.authority_count;
      net_config.default_bandwidth_bps = spec.bandwidth_bps;
      net_config.default_latency = spec.latency;
      harness.emplace(net_config);
      for (const auto& [node, bps] : spec.bandwidth_by_authority) {
        harness->net().SetNodeRateFrom(node, 0, bps);
      }
      torproto::ProtocolRunConfig run_config;
      run_config.authority_count = spec.authority_count;
      run_config.dissemination_timeout = spec.dissemination_timeout;
      run_config.two_phase_agreement = spec.two_phase_agreement;
      actors.reserve(spec.authority_count);
      for (uint32_t a = 0; a < spec.authority_count; ++a) {
        actors.push_back(harness->AddActor(protocol->MakeAuthority(
            run_config, &*directory, a,
            torproto::AuthorityMaterials{workload.votes[a], workload.vote_texts[a],
                                         workload.vote_cache, nullptr, nullptr})));
      }
      if (spec.attack != nullptr) {
        // A private clone, as a parallel sweep cell gets: the spec's schedule
        // may be shared with the untraced reference run.
        attack = spec.attack->Clone();
        attack_context.authority_count = spec.authority_count;
        attack_context.horizon = spec.horizon;
        attack_context.current_leader = [protocol, &actors]() -> std::optional<torbase::NodeId> {
          std::optional<std::pair<uint64_t, torbase::NodeId>> best;
          for (const torsim::Actor* actor : actors) {
            const auto view = protocol->AgreementView(*actor);
            if (view.has_value() && (!best.has_value() || view->first > best->first)) {
              best = view;
            }
          }
          if (!best.has_value()) {
            return std::nullopt;
          }
          return best->second;
        };
        attack->Install(*harness, attack_context);
      }
      std::vector<torscenario::ChurnEvent> churn = spec.churn;
      std::stable_sort(churn.begin(), churn.end(),
                       [](const torscenario::ChurnEvent& a, const torscenario::ChurnEvent& b) {
                         return a.at != b.at ? a.at < b.at : a.kind < b.kind;
                       });
      for (const torscenario::ChurnEvent& event : churn) {
        if (event.kind == torscenario::ChurnEvent::Kind::kCrash) {
          harness->net().LimitNode(event.node, event.at, torbase::kTimeNever, 0.0);
        } else {
          harness->net().SetNodeRateFrom(event.node, event.at, NodeRate(spec, event.node));
        }
      }
    });

    double rss_before_mb = 0.0;
    bool peak_reset = false;
    Span(spans.event_loop_ms, [&] {
      peak_reset = ResetPeakRss();
      rss_before_mb = StatusMb("VmRSS");
      harness->StartAll();
      harness->sim().RunUntil(spec.horizon);
    });
    if (peak_reset) {
      traced.event_loop_rss_growth_mb = std::max(0.0, StatusMb("VmHWM") - rss_before_mb);
    }

    torproto::PublishedConsensus published;
    Span(spans.probe_ms, [&] {
      result.total_bytes_sent = harness->net().total_bytes_sent();
      result.bytes_by_kind = harness->net().bytes_by_kind();
      result.undeliverable_messages = harness->net().undeliverable_count();
      double latency = 0.0;
      double finish = 0.0;
      for (const torsim::Actor* actor : actors) {
        const torproto::UnifiedOutcome outcome = protocol->ProbeOutcome(*actor);
        if (!outcome.valid_consensus) {
          continue;
        }
        ++result.valid_count;
        result.consensus_holders.push_back(actor->id());
        result.consensus_relays = outcome.consensus_relays;
        latency = std::max(latency, outcome.network_time_seconds);
        finish = std::max(finish, outcome.finish_seconds);
        const torproto::PublishedConsensus candidate = protocol->ProbeConsensus(*actor);
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
    });

    Span(spans.health_ms, [&] {
      if (spec.monitor_health) {
        AnalyzeHealth(spec, *protocol, actors, workload.vote_digests, result);
      }
      ComputeFaultMetrics(spec, result);
    });

    Span(spans.client_plane_ms, [&] {
      if (spec.client_load.client_count > 0) {
        AnalyzeClientLoad(spec, published,
                          workload.vote_texts.empty() ? 0 : workload.vote_texts[0]->size(),
                          result);
      }
      if (spec.retain_consensus && published.document != nullptr &&
          result.consensus_document == nullptr) {
        result.consensus_document =
            std::make_shared<const tordir::ConsensusDocument>(*published.document);
      }
    });

    // Not part of the cell: copy out what the replays need while the actors
    // are alive. This time is taken out of the cell's wall time.
    Span(paused_ms, [&] {
      replay_inputs = CollectReplayInputs(spec, workload, *protocol, actors);
    });
    traced.deliveries = replay_inputs.admitted_count;
    traced.rejects = replay_inputs.refused_count;
    // The scope's end destroys the harness, actors and directory.
    teardown_start = Clock::now();
  }
  spans.teardown_ms = MsSince(teardown_start);
  spans.wall_ms = MsSince(cell_start) - paused_ms;

  traced.replay = Replay(replay_inputs, workload);
  return traced;
}

}  // namespace perfbench
