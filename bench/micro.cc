// Micro-benchmarks (google-benchmark) for the substrate hot paths: the
// simulator's per-event schedule/cancel/fire path, SHA-256, HMAC signatures,
// dir-spec serialization/parsing and the Figure-2 aggregation algorithm.
// These are the operations that dominate the wall-clock cost of the
// experiment harness.
#include <benchmark/benchmark.h>

#include "src/attack/ddos.h"
#include "src/attack/schedule.h"
#include "src/common/serialize.h"
#include "src/common/thread_pool.h"
#include "src/protocols/byzantine.h"
#include "src/protocols/document_store.h"
#include "src/protocols/sync/sync_authority.h"
#include "src/scenario/runner.h"
#include "src/scenario/spec_digest.h"
#include "src/crypto/hmac.h"
#include "src/crypto/sha256.h"
#include "src/crypto/sha256_batch.h"
#include "src/crypto/signature.h"
#include "src/sim/event_probe.h"
#include "src/sim/simulator.h"
#include "src/tordir/admission.h"
#include "src/tordir/aggregate.h"
#include "src/tordir/consensus_diff.h"
#include "src/tordir/dirspec.h"
#include "src/tordir/generator.h"
#include "src/tordir/vote.h"

namespace {

// Per-event benches use the shared probe scaffolding (src/sim/event_probe.h):
// 48-byte captures modelled on the network delivery stages. Regressions that
// push the callback to the heap (or reintroduce per-event hash-map traffic)
// show up here directly.
void BM_EventScheduleFire(benchmark::State& state) {
  const size_t batch = static_cast<size_t>(state.range(0));
  torsim::Simulator sim;
  uint64_t fired = 0;
  torsim::WarmUpProbe(sim, batch, &fired);
  for (auto _ : state) {
    torsim::ScheduleProbeBatch(sim, batch, &fired);
    sim.Run();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(batch));
}
BENCHMARK(BM_EventScheduleFire)->Arg(16)->Arg(64)->Arg(1024);

void BM_EventScheduleCancel(benchmark::State& state) {
  const size_t batch = static_cast<size_t>(state.range(0));
  torsim::Simulator sim;
  uint64_t fired = 0;
  torsim::ScheduleCancelProbeBatch(sim, batch, &fired);
  sim.Run();
  for (auto _ : state) {
    torsim::ScheduleCancelProbeBatch(sim, batch, &fired);
    sim.Run();  // drains the tombstones
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(batch));
}
BENCHMARK(BM_EventScheduleCancel)->Arg(16)->Arg(64)->Arg(1024);

void BM_EventSelfRescheduleChain(benchmark::State& state) {
  // The SharedNic pattern: one live event that keeps rescheduling itself —
  // the minimal schedule->fire round trip at heap depth 1.
  constexpr uint64_t kHops = 1024;
  struct Chain {
    torsim::Simulator* sim;
    uint64_t remaining;
    void operator()() {
      if (remaining > 0) {
        --remaining;
        sim->ScheduleAfter(1, *this);
      }
    }
  };
  torsim::Simulator sim;
  for (auto _ : state) {
    sim.ScheduleAfter(1, Chain{&sim, kHops});
    sim.Run();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kHops + 1));
}
BENCHMARK(BM_EventSelfRescheduleChain);


void BM_Sha256(benchmark::State& state) {
  const std::vector<uint8_t> data(static_cast<size_t>(state.range(0)), 0xab);
  for (auto _ : state) {
    benchmark::DoNotOptimize(torcrypto::Sha256Digest(data));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_Sha256)->Arg(64)->Arg(4096)->Arg(1 << 20);

void BM_HmacSign(benchmark::State& state) {
  torcrypto::KeyDirectory directory(1, 9);
  const auto signer = directory.SignerFor(0);
  const std::vector<uint8_t> message(256, 0x42);
  for (auto _ : state) {
    benchmark::DoNotOptimize(signer.Sign(message));
  }
}
BENCHMARK(BM_HmacSign);

void BM_SignatureVerify(benchmark::State& state) {
  torcrypto::KeyDirectory directory(1, 9);
  const std::vector<uint8_t> message(256, 0x42);
  const auto sig = directory.SignerFor(0).Sign(message);
  for (auto _ : state) {
    benchmark::DoNotOptimize(directory.Verify(message, sig));
  }
}
BENCHMARK(BM_SignatureVerify);

tordir::VoteDocument MakeBenchVote(size_t relays) {
  tordir::PopulationConfig config;
  config.relay_count = relays;
  config.seed = 3;
  const auto population = tordir::GeneratePopulation(config);
  return tordir::MakeVote(0, 9, population, config);
}

// Wire-codec throughput (bytes/s both directions). Pre-refactor baselines on
// the CI container class of hardware at 8k relays: ~719 MB/s serialize,
// ~212 MB/s parse; the streaming codec target is >=5x both.
void BM_SerializeVote(benchmark::State& state) {
  const auto vote = MakeBenchVote(static_cast<size_t>(state.range(0)));
  size_t bytes = 0;
  for (auto _ : state) {
    const std::string text = tordir::SerializeVote(vote);
    bytes = text.size();
    benchmark::DoNotOptimize(text);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations() * bytes));
}
BENCHMARK(BM_SerializeVote)->Arg(1000)->Arg(8000)->Arg(64000);

void BM_ParseVote(benchmark::State& state) {
  const std::string text = tordir::SerializeVote(MakeBenchVote(static_cast<size_t>(state.range(0))));
  for (auto _ : state) {
    auto parsed = tordir::ParseVote(text);
    benchmark::DoNotOptimize(parsed);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations() * text.size()));
}
BENCHMARK(BM_ParseVote)->Arg(1000)->Arg(8000)->Arg(64000);

// VoteDigest streams the serialized form straight into SHA-256: no
// multi-megabyte copy is ever materialized, so beyond hashing the only cost
// is the same field formatting BM_SerializeVote measures.
void BM_VoteDigestStreaming(benchmark::State& state) {
  const auto vote = MakeBenchVote(static_cast<size_t>(state.range(0)));
  const size_t bytes = tordir::SerializeVote(vote).size();
  for (auto _ : state) {
    benchmark::DoNotOptimize(tordir::VoteDigest(vote));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations() * bytes));
}
BENCHMARK(BM_VoteDigestStreaming)->Arg(8000);

// The nine authorities' votes over one population, sealed in a vote cache;
// `texts` receives the cached texts, by authority.
tordir::VoteCache NineVoteCache(size_t relays,
                                std::vector<std::shared_ptr<const std::string>>& texts) {
  tordir::PopulationConfig config;
  config.relay_count = relays;
  config.seed = 3;
  const auto population = tordir::GeneratePopulation(config);
  tordir::VoteCache cache;
  for (tordir::VoteDocument& vote : tordir::MakeAllVotes(9, population, config)) {
    auto document = std::make_shared<const tordir::VoteDocument>(std::move(vote));
    auto text = std::make_shared<const std::string>(tordir::SerializeVote(*document));
    cache.Add(torcrypto::Digest256::Of(*text), tordir::CachedVote{document, text});
    texts.push_back(std::move(text));
  }
  cache.Seal();
  return cache;
}

// What a receiver pays instead of hashing a canonical vote: VoteCache's
// content lookup over the nine authorities' votes, given a separate copy of
// one of them, so the hit is a real full-length byte comparison.
void BM_VoteCacheFindText(benchmark::State& state) {
  const size_t relays = static_cast<size_t>(state.range(0));
  std::vector<std::shared_ptr<const std::string>> texts;
  const tordir::VoteCache cache = NineVoteCache(relays, texts);
  const std::string text = tordir::SerializeVote(MakeBenchVote(relays));
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.FindText(text));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations() * text.size()));
}
BENCHMARK(BM_VoteCacheFindText)->Arg(8000);

// Authority 7's TorMult-inflated vote over NineVoteCache's population: a
// faulty text the vote cache misses. `period_start` receives the period its
// honest receivers check it against.
std::string InflatedVote(size_t relays, std::shared_ptr<const tordir::VoteCache>& cache,
                         uint64_t& period_start) {
  std::vector<std::shared_ptr<const std::string>> texts;
  cache = std::make_shared<const tordir::VoteCache>(NineVoteCache(relays, texts));
  const tordir::CachedVote& honest = cache->FindText(*texts[7])->second;
  period_start = honest.document->valid_after;
  return *torproto::MakeFaultyMaterials(
              torproto::AuthorityMaterials{.vote = honest.document, .vote_text = honest.text},
              torproto::ByzantineBehavior::kInflateBandwidth, torproto::ByzantineSpec{}, 7)
              .vote_text;
}

// A receiver's admission of a faulty vote on its own: the cache miss, then
// SHA-256, ParseVote, the window check and a private copy. Without the cell's
// text table (the reference runner) every receiver pays this.
void BM_AdmitMiss(benchmark::State& state) {
  std::shared_ptr<const tordir::VoteCache> cache;
  uint64_t period_start = 0;
  const std::string text = InflatedVote(static_cast<size_t>(state.range(0)), cache, period_start);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tordir::AdmitVote(cache, text, period_start));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations() * text.size()));
}
BENCHMARK(BM_AdmitMiss)->Arg(2000);

// A later receiver of the same faulty vote, through the cell's text table:
// the cache miss, the table lookup (a full-length comparison with the first
// receiver's copy), the memoised parse and digest, and its own window check.
void BM_AdmitInterned(benchmark::State& state) {
  std::shared_ptr<const tordir::VoteCache> cache;
  uint64_t period_start = 0;
  const std::string text = InflatedVote(static_cast<size_t>(state.range(0)), cache, period_start);
  torproto::DocumentStore store;
  torproto::DocumentStore::Received& first = store.Intern(text);
  store.Parse(first);
  store.Digest(first);
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache->FindText(text));
    torproto::DocumentStore::Received& received = store.Intern(text);
    tordir::VoteAdmission admission = tordir::AdmitParsed(store.Parse(received), period_start);
    admission.digest = store.Digest(received);
    admission.text = received.text;
    benchmark::DoNotOptimize(admission);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations() * text.size()));
}
BENCHMARK(BM_AdmitInterned)->Arg(2000);

// Multi-lane batch hashing: lanes x message-size grid. With 1 lane this is
// the plain dispatched core; 4/8 lanes show what lock-step batching adds on
// the active backend (on SHA-NI hardware the lanes run back-to-back through
// the single-stream unit, on AVX2-only hardware they interleave 8-wide).
void BM_Sha256Batch(benchmark::State& state) {
  const size_t lanes = static_cast<size_t>(state.range(0));
  const size_t message_bytes = static_cast<size_t>(state.range(1));
  const std::vector<uint8_t> data(message_bytes, 0xab);
  for (auto _ : state) {
    torcrypto::Sha256Batch batch;
    for (size_t i = 0; i < lanes; ++i) {
      batch.Add(std::span<const uint8_t>(data));
    }
    benchmark::DoNotOptimize(batch.Finish());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(lanes * message_bytes));
  state.SetLabel(torcrypto::Sha256BackendName(torcrypto::ActiveSha256BatchBackend()));
}
BENCHMARK(BM_Sha256Batch)
    ->Args({1, 4096})
    ->Args({4, 4096})
    ->Args({8, 4096})
    ->Args({1, 1 << 20})
    ->Args({4, 1 << 20})
    ->Args({8, 1 << 20});

// Tree digest of a full vote document with leaf hashing fanned out over a
// pool ("sha256-tree-v1", 64 KiB leaves). The serial streaming tree and the
// pinned-thread-count runs are bit-identical; only throughput differs.
void BM_TreeVoteDigest(benchmark::State& state) {
  const auto vote = MakeBenchVote(static_cast<size_t>(state.range(0)));
  const size_t bytes = tordir::SerializeVote(vote).size();
  torbase::ThreadPool pool(static_cast<unsigned>(state.range(1)));
  torbase::ThreadPool* pool_arg = state.range(1) == 0 ? nullptr : &pool;
  for (auto _ : state) {
    benchmark::DoNotOptimize(tordir::TreeVoteDigest(vote, pool_arg));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations() * bytes));
}
BENCHMARK(BM_TreeVoteDigest)
    ->ArgNames({"relays", "threads"})
    ->Args({8000, 0})
    ->Args({8000, 4})
    ->Args({64000, 0})
    ->Args({64000, 4})
    ->Args({256000, 0})
    ->Args({256000, 4});

// The consensus diff codec (src/tordir/consensus_diff.h) over a relays x
// churn grid. Bytes/s is against the full *target* document — the bytes the
// diff saves a cache from serializing or a client from fetching. Churn is
// per-mille of rows changed per round, with half that rate each added and
// removed (so 10 = the live network's typical ~1%/hour, 100 = 10%, 0 = the
// identity diff). Apply runs the serving path: target verification on.
tordir::ConsensusDocument MakeBenchConsensus(size_t relays) {
  tordir::PopulationConfig config;
  config.relay_count = relays;
  config.seed = 3;
  const auto population = tordir::GeneratePopulation(config);
  tordir::ConsensusDocument consensus =
      tordir::ComputeConsensus(tordir::MakeAllVotes(9, population, config));
  for (uint32_t a = 0; a < 9; ++a) {
    torcrypto::Signature sig;
    sig.signer = a;
    sig.bytes.fill(static_cast<uint8_t>(0xB0 + a));
    consensus.signatures.push_back(sig);
  }
  return consensus;
}

tordir::ConsensusDocument ChurnBenchConsensus(const tordir::ConsensusDocument& base,
                                              int churn_per_mille) {
  tordir::ConsensusChurnConfig churn;
  churn.change_fraction = static_cast<double>(churn_per_mille) / 1000.0;
  churn.remove_fraction = churn.change_fraction / 2.0;
  churn.add_fraction = churn.change_fraction / 2.0;
  churn.seed = 3;
  return tordir::ChurnConsensus(base, churn);
}

void BM_ComputeConsensusDiff(benchmark::State& state) {
  const tordir::ConsensusDocument base = MakeBenchConsensus(static_cast<size_t>(state.range(0)));
  const tordir::ConsensusDocument next =
      ChurnBenchConsensus(base, static_cast<int>(state.range(1)));
  const size_t target_bytes = tordir::SerializeConsensus(next).size();
  size_t diff_bytes = 0;
  for (auto _ : state) {
    const std::string diff = tordir::ComputeConsensusDiff(base, next);
    diff_bytes = diff.size();
    benchmark::DoNotOptimize(diff);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations() * target_bytes));
  state.SetLabel("diff=" + std::to_string(diff_bytes) + "B");
}
BENCHMARK(BM_ComputeConsensusDiff)
    ->ArgNames({"relays", "churn_pm"})
    ->Args({8000, 0})
    ->Args({8000, 10})
    ->Args({8000, 100})
    ->Args({64000, 0})
    ->Args({64000, 10})
    ->Args({64000, 100})
    ->Args({256000, 0})
    ->Args({256000, 10})
    ->Args({256000, 100});

void BM_ApplyConsensusDiff(benchmark::State& state) {
  const tordir::ConsensusDocument base = MakeBenchConsensus(static_cast<size_t>(state.range(0)));
  const tordir::ConsensusDocument next =
      ChurnBenchConsensus(base, static_cast<int>(state.range(1)));
  const std::string base_text = tordir::SerializeConsensus(base);
  const std::string target_text = tordir::SerializeConsensus(next);
  const std::string diff = tordir::ComputeConsensusDiff(base, next);
  for (auto _ : state) {
    auto patched = tordir::ApplyConsensusDiff(base_text, diff);
    benchmark::DoNotOptimize(patched);
  }
  const auto patched = tordir::ApplyConsensusDiff(base_text, diff);
  if (!patched.ok() || *patched != target_text) {
    state.SkipWithError("patched output is not byte-identical to the target");
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations() * target_text.size()));
}
BENCHMARK(BM_ApplyConsensusDiff)
    ->ArgNames({"relays", "churn_pm"})
    ->Args({8000, 0})
    ->Args({8000, 10})
    ->Args({8000, 100})
    ->Args({64000, 0})
    ->Args({64000, 10})
    ->Args({64000, 100})
    ->Args({256000, 0})
    ->Args({256000, 10})
    ->Args({256000, 100});

// The flat-merge aggregation hot path; items/s is relays aggregated per
// second (the `aggregate` row of BENCH_sweep.json tracks the same number at
// 1k/8k/64k relays). Pre-refactor map-based baseline at 8k x 9: ~78 ms/op.
void BM_ComputeConsensus(benchmark::State& state) {
  tordir::PopulationConfig config;
  config.relay_count = static_cast<size_t>(state.range(0));
  config.seed = 3;
  const auto population = tordir::GeneratePopulation(config);
  const auto votes = tordir::MakeAllVotes(9, population, config);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tordir::ComputeConsensus(votes));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_ComputeConsensus)->Arg(1000)->Arg(4000)->Arg(8000);

// A consensus holder served by its cell's DocumentStore: the body's lookup,
// then the lookup of the signed document it publishes, which an earlier
// holder with the same signature list built. This is what every such holder
// pays instead of BM_ComputeConsensus, a ConsensusDigest and a body copy.
void BM_DocumentStoreHit(benchmark::State& state) {
  tordir::PopulationConfig config;
  config.relay_count = static_cast<size_t>(state.range(0));
  config.seed = 3;
  const auto population = tordir::GeneratePopulation(config);
  torproto::DocumentStore::Votes votes;
  for (tordir::VoteDocument& vote : tordir::MakeAllVotes(9, population, config)) {
    votes.push_back(std::make_shared<const tordir::VoteDocument>(std::move(vote)));
  }
  torproto::DocumentStore store;
  const torproto::DocumentStore::Derived& derived = store.Derive(votes);
  const torcrypto::KeyDirectory directory(42, 9);
  std::vector<torcrypto::Signature> signatures;
  for (torbase::NodeId signer = 0; signer < 9; ++signer) {
    signatures.push_back(directory.SignerFor(signer).Sign(derived.digest.span()));
  }
  store.Signed(derived.body, signatures);
  for (auto _ : state) {
    benchmark::DoNotOptimize(store.Signed(store.Derive(votes).body, signatures));
  }
}
BENCHMARK(BM_DocumentStoreHit)->Arg(8000);

// A packed vote's nine lists framed as the synchronous protocol sends them —
// packer, count, then each author tag and shared list (Writer::WriteShared) —
// and read back as a receiver does: each list is a view of the sender's text,
// which the vote cache finds by pointer. Bytes/s is over the packed vote's
// wire size (~28 MB at 8k relays), none of which is copied.
torbase::Frame PackedVoteFrame(const std::vector<std::shared_ptr<const std::string>>& texts) {
  torbase::Writer w;
  w.WriteU32(0);
  w.WriteU32(static_cast<uint32_t>(texts.size()));
  for (uint32_t author = 0; author < texts.size(); ++author) {
    w.WriteU32(author);
    w.WriteShared(texts[author]);
  }
  return w.TakeFrame();
}

void BM_PackedVoteFrame(benchmark::State& state) {
  std::vector<std::shared_ptr<const std::string>> texts;
  const tordir::VoteCache cache = NineVoteCache(static_cast<size_t>(state.range(0)), texts);
  size_t bytes = 0;
  for (auto _ : state) {
    const torbase::Frame frame = PackedVoteFrame(texts);
    bytes = frame.size();
    torbase::Reader r(frame);
    benchmark::DoNotOptimize(r.ReadU32());
    const uint32_t count = *r.ReadU32();
    for (uint32_t i = 0; i < count; ++i) {
      benchmark::DoNotOptimize(r.ReadU32());
      benchmark::DoNotOptimize(cache.FindText(*r.ReadStringView()));
    }
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations() * bytes));
}
BENCHMARK(BM_PackedVoteFrame)->Arg(8000);

// One holder's agreed value for the same nine-list packed vote, its lists
// received as the workload's texts: nine vote-cache hits by pointer, then one
// SHA-256 over the packer, the count and each author tag with its list's
// digest (332 bytes). The value is defined over the lists' digests, so no
// holder streams the packed vote's ~28 MB through SHA-256.
void BM_PackedVoteDigest(benchmark::State& state) {
  std::vector<std::shared_ptr<const std::string>> texts;
  const auto cache = std::make_shared<const tordir::VoteCache>(
      NineVoteCache(static_cast<size_t>(state.range(0)), texts));
  const tordir::CachedVote& own = cache->FindText(*texts[0])->second;
  const torcrypto::KeyDirectory directory(42, 9);
  torproto::SyncAuthority holder(
      &directory, torproto::AuthorityMaterials{
                      .vote = own.document,
                      .vote_text = own.text,
                      .vote_cache = cache,
                      .document_store = std::make_shared<torproto::DocumentStore>()});
  torproto::PackedVote packed;
  for (torbase::NodeId author = 0; author < texts.size(); ++author) {
    packed.lists.emplace_back(author, texts[author]);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(holder.AgreedValue(packed));
  }
}
BENCHMARK(BM_PackedVoteDigest)->Arg(8000);

// The reference runner's price for the same frame: the network flattens it
// into one contiguous buffer before delivery.
void BM_FrameFlatten(benchmark::State& state) {
  std::vector<std::shared_ptr<const std::string>> texts;
  NineVoteCache(static_cast<size_t>(state.range(0)), texts);
  const torbase::Frame frame = PackedVoteFrame(texts);
  for (auto _ : state) {
    torbase::Bytes flat = frame.Flatten();
    benchmark::DoNotOptimize(flat);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations() * frame.size()));
}
BENCHMARK(BM_FrameFlatten)->Arg(8000);

// Cost of handing a vote document to an actor: with interned relay strings
// this is a flat vector copy, the property the scenario runner's per-cell
// actor construction leans on at large n.
void BM_CopyVoteDocument(benchmark::State& state) {
  const auto vote = MakeBenchVote(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    tordir::VoteDocument copy = vote;
    benchmark::DoNotOptimize(copy);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_CopyVoteDocument)->Arg(8000);

// --- scenario result memo ----------------------------------------------------

// A field-rich spec exercising every branch of the canonical description:
// windowed attack, churn, byzantine behaviors, a full client plane,
// heterogeneous bandwidth.
torscenario::ScenarioSpec MakeRichSpec() {
  torscenario::ScenarioSpec spec;
  spec.name = "bench";
  spec.protocol = "current";
  spec.relay_count = 800;
  spec.seed = 1;
  spec.bandwidth_by_authority = {{2, 50e6}, {5, 25e6}};
  torattack::AttackWindow window;
  window.targets = torattack::FirstTargets(5);
  window.start = 0;
  window.end = torbase::Minutes(5);
  window.available_bps = 0.0;
  spec.attack = std::make_shared<torattack::WindowedAttack>(
      std::vector<torattack::AttackWindow>{window});
  spec.churn = {torscenario::ChurnEvent{7, torbase::Minutes(3),
                                        torscenario::ChurnEvent::Kind::kCrash}};
  spec.byzantine.behaviors[4] = torproto::ByzantineBehavior::kEquivocate;
  spec.client_load.client_count = 5'000'000;
  spec.client_load.diff_capable_fraction = 0.8;
  return spec;
}

// The memo's fixed cost per probe: serialize the spec canonically and hash
// it. This is what a memoized (quiet) round pays instead of a simulation —
// it must stay orders of magnitude below BM_TimelineRound/faulted.
void BM_SpecDigest(benchmark::State& state) {
  const torscenario::ScenarioSpec spec = MakeRichSpec();
  for (auto _ : state) {
    benchmark::DoNotOptimize(torscenario::SpecDigest(spec));
  }
}
BENCHMARK(BM_SpecDigest);

// One timeline round, both ways the engine prices it: `quiet` re-runs a spec
// the runner has already memoized (digest probe + shared_ptr copy), `faulted`
// disables the memo and pays the full simulation. The ratio is the round
// memoization win on the ~95% of a long horizon the fault calendar never
// touches.
void BM_TimelineRound(benchmark::State& state) {
  const bool memoized = state.range(0) != 0;
  torscenario::ScenarioSpec spec = MakeRichSpec();
  spec.client_load.client_count = 0;  // rounds defer the client plane to the stitch
  spec.horizon = torbase::Hours(1);
  spec.retain_consensus = true;
  torscenario::ScenarioRunner runner;
  runner.set_memoize(memoized);
  benchmark::DoNotOptimize(runner.Run(spec));  // warm: workload cache + memo
  for (auto _ : state) {
    benchmark::DoNotOptimize(runner.Run(spec));
  }
}
BENCHMARK(BM_TimelineRound)->ArgName("memo")->Arg(1)->Arg(0);

}  // namespace
