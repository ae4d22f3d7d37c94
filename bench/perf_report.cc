// Performance report: times a representative fig7-style sweep grid serially
// vs. on N threads, micro-times the simulator's per-event hot path, counts
// heap allocations per event (the whole binary routes allocations through a
// counting operator new), verifies that parallel results are bit-identical to
// serial, and writes everything to BENCH_sweep.json — the measurement that
// seeds the repo's performance trajectory.
//
// Usage: perf_report [--quick] [--threads N] [--out PATH]
//   --quick      small grid for CI smoke runs
//   --threads N  parallel worker count (default: hardware concurrency)
//   --out PATH   JSON output path (default: BENCH_sweep.json)
//
// Exit code is non-zero if parallel results diverge from serial.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "src/attack/ddos.h"
#include "src/attack/schedule.h"
#include "src/common/counting_allocator.h"
#include "src/common/stats.h"
#include "src/common/thread_pool.h"
#include "src/crypto/sha256.h"
#include "src/crypto/sha256_batch.h"
#include "src/scenario/runner.h"
#include "src/scenario/timeline.h"
#include "src/sim/event_probe.h"
#include "src/sim/simulator.h"
#include "src/tordir/aggregate.h"
#include "src/tordir/consensus_diff.h"
#include "src/tordir/dirspec.h"
#include "src/tordir/generator.h"

namespace {

using torbase::counting_allocator::AllocationCount;

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// Keeps timed digest loops observable without benchmark::DoNotOptimize.
volatile uint64_t benchmark_sink = 0;

// Folds `value` into the sink (a plain store: compound assignment to a
// volatile is deprecated).
void Sink(uint64_t value) { benchmark_sink = benchmark_sink + value; }

// The fig7 shape: the current protocol with 5 of 9 authorities clamped to a
// fixed per-victim bandwidth for the whole run, across relay counts — each
// (relays, clamp) pair one independent deterministic cell.
std::vector<torscenario::ScenarioSpec> Fig7StyleGrid(bool quick) {
  const std::vector<size_t> relay_counts =
      quick ? std::vector<size_t>{400, 800} : std::vector<size_t>{800, 1600, 2400, 3200};
  const std::vector<double> victim_mbps =
      quick ? std::vector<double>{0.5, 8.0, 25.0}
            : std::vector<double>{0.5, 2.0, 4.0, 8.0, 16.0, 25.0};

  std::vector<torscenario::ScenarioSpec> specs;
  for (size_t relays : relay_counts) {
    for (double mbps : victim_mbps) {
      torattack::AttackWindow window;
      window.targets = torattack::FirstTargets(5);
      window.start = 0;
      window.end = torbase::Minutes(15);
      window.available_bps = mbps * 1e6;

      torscenario::ScenarioSpec spec;
      spec.name = "perf_report";
      spec.protocol = "current";
      spec.relay_count = relays;
      spec.horizon = torbase::Minutes(15);
      spec.attack = std::make_shared<torattack::WindowedAttack>(
          std::vector<torattack::AttackWindow>{window});
      specs.push_back(std::move(spec));
    }
  }
  // Two consumption-plane cells so the serial-vs-parallel identity check
  // covers the client-availability fields: one failed round (attacked — the
  // plane runs against the prior document only) and one healthy round (the
  // published consensus is serialized and served).
  for (const bool attacked : {true, false}) {
    torscenario::ScenarioSpec spec;
    spec.name = "perf_report_clients";
    spec.protocol = "current";
    spec.relay_count = 800;
    spec.horizon = torbase::Minutes(15);
    spec.client_load.client_count = 5'000'000;
    if (attacked) {
      torattack::AttackWindow window;
      window.targets = torattack::FirstTargets(5);
      window.start = 0;
      window.end = torbase::Minutes(5);
      window.available_bps = torattack::kUnderAttackBps;
      spec.attack = std::make_shared<torattack::WindowedAttack>(
          std::vector<torattack::AttackWindow>{window});
    }
    specs.push_back(std::move(spec));
  }
  // A diff-enabled consumption cell: a churned variant of the round's
  // document seeds the previous-consensus baseline and 80% of steady
  // refetchers are diff-capable, so the diff size accounting and the
  // byte-denominated serving split run under the serial-vs-parallel identity
  // check too.
  {
    tordir::PopulationConfig config;
    config.relay_count = 800;
    config.seed = 1;
    const auto population = tordir::GeneratePopulation(config);
    const tordir::ConsensusDocument consensus =
        tordir::ComputeConsensus(tordir::MakeAllVotes(9, population, config));
    tordir::ConsensusChurnConfig churn;
    churn.change_fraction = 0.02;
    churn.remove_fraction = 0.01;
    churn.add_fraction = 0.01;
    torscenario::ScenarioSpec spec;
    spec.name = "perf_report_clients_diff";
    spec.protocol = "current";
    spec.relay_count = 800;
    spec.horizon = torbase::Minutes(15);
    spec.client_load.client_count = 5'000'000;
    spec.client_load.diff_capable_fraction = 0.8;
    spec.previous_consensus =
        std::make_shared<const tordir::ConsensusDocument>(tordir::ChurnConsensus(consensus, churn));
    specs.push_back(std::move(spec));
  }
  return specs;
}

struct AggregatePoint {
  size_t relays = 0;
  double relays_per_second = 0.0;
  double millis_per_op = 0.0;
};

struct AggregateMicro {
  // ComputeConsensus throughput across the relay axis (9 authorities), plus
  // the steady-state allocation rate — the flat-merge + interned-strings
  // contract (O(n·a) time, O(1) allocations; see src/tordir/aggregate.h).
  std::vector<AggregatePoint> points;
  double allocations_per_relay = 0.0;
};

// Times the consensus aggregation hot path at 1k/8k/64k relays (1k/8k in
// --quick). Pre-refactor map-based baseline at 8k x 9: ~78 ms/op, ~102k
// relays/s on the CI container class of hardware.
AggregateMicro MeasureAggregate(bool quick) {
  constexpr uint32_t kAuthorities = 9;
  const std::vector<size_t> relay_counts =
      quick ? std::vector<size_t>{1000, 8000} : std::vector<size_t>{1000, 8000, 64000};

  AggregateMicro micro;
  for (const size_t relays : relay_counts) {
    tordir::PopulationConfig config;
    config.relay_count = relays;
    config.seed = 3;
    const auto population = tordir::GeneratePopulation(config);
    const auto votes = tordir::MakeAllVotes(kAuthorities, population, config);

    size_t consensus_relays = tordir::ComputeConsensus(votes).relays.size();  // warm-up
    const int rounds = relays >= 64000 ? 3 : (relays >= 8000 ? 10 : 40);
    const uint64_t allocs_before = AllocationCount();
    const auto start = Clock::now();
    for (int i = 0; i < rounds; ++i) {
      consensus_relays = tordir::ComputeConsensus(votes).relays.size();
    }
    const double elapsed = SecondsSince(start);
    const uint64_t allocs = AllocationCount() - allocs_before;

    AggregatePoint point;
    point.relays = relays;
    point.millis_per_op = elapsed / rounds * 1e3;
    point.relays_per_second = static_cast<double>(relays) * rounds / elapsed;
    micro.points.push_back(point);
    if (relays == 8000) {
      micro.allocations_per_relay = static_cast<double>(allocs) / rounds /
                                    static_cast<double>(consensus_relays);
    }
  }
  return micro;
}

struct CodecPoint {
  size_t relays = 0;
  double serialize_mb_per_second = 0.0;
  double parse_mb_per_second = 0.0;
  double digest_mb_per_second = 0.0;
};

struct CodecMicro {
  // Wire-codec throughput across the relay axis plus steady-state allocation
  // rates — the streaming-serializer / cursor-parser contract
  // (src/tordir/dirspec.cc). Pre-refactor baseline at 8k relays: ~719 MB/s
  // serialize, ~212 MB/s parse, ~8 heap allocations per relay parsed.
  std::vector<CodecPoint> points;
  double serialize_allocations_per_relay = 0.0;
  double parse_allocations_per_relay = 0.0;
};

// Floors for the self-check: far below the ~4000/1100 MB/s the streaming
// codec measures on the CI container class, far above the ~719/212 MB/s
// pre-refactor baseline — a regression to per-field temporaries or per-line
// vectors trips them on any hardware tier. Absolute-throughput floors only
// make sense in optimized, unsanitized builds (TSan/ASan cost ~10-80x, -O0
// costs ~5-10x, and CI runs this binary in Debug for the scalar-fallback
// leg); the allocation and identity checks hold everywhere.
#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__) || !defined(NDEBUG)
constexpr bool kThroughputFloorsApply = false;
#else
constexpr bool kThroughputFloorsApply = true;
#endif
constexpr double kMinSerializeMbps = 1000.0;
constexpr double kMinParseMbps = 400.0;
constexpr double kMaxCodecAllocationsPerRelay = 0.05;

CodecMicro MeasureCodec(bool quick) {
  const std::vector<size_t> relay_counts =
      quick ? std::vector<size_t>{1000, 8000} : std::vector<size_t>{1000, 8000, 64000};

  CodecMicro micro;
  for (const size_t relays : relay_counts) {
    tordir::PopulationConfig config;
    config.relay_count = relays;
    config.seed = 3;
    const auto population = tordir::GeneratePopulation(config);
    const auto vote = tordir::MakeVote(0, 9, population, config);

    std::string text = tordir::SerializeVote(vote);  // warm-up (interns, heap)
    const double megabytes = static_cast<double>(text.size()) / 1e6;
    const int rounds = relays >= 64000 ? 4 : (relays >= 8000 ? 20 : 80);

    const uint64_t serialize_allocs_before = AllocationCount();
    const auto serialize_start = Clock::now();
    for (int i = 0; i < rounds; ++i) {
      text = tordir::SerializeVote(vote);
    }
    const double serialize_seconds = SecondsSince(serialize_start);
    const uint64_t serialize_allocs = AllocationCount() - serialize_allocs_before;

    auto parsed = tordir::ParseVote(text);  // warm-up
    const uint64_t parse_allocs_before = AllocationCount();
    const auto parse_start = Clock::now();
    for (int i = 0; i < rounds; ++i) {
      parsed = tordir::ParseVote(text);
    }
    const double parse_seconds = SecondsSince(parse_start);
    const uint64_t parse_allocs = AllocationCount() - parse_allocs_before;
    if (!parsed.ok() || parsed->relays.size() != vote.relays.size()) {
      std::abort();  // the codec row must measure a correct round trip
    }

    const auto digest_start = Clock::now();
    for (int i = 0; i < rounds; ++i) {
      Sink(tordir::VoteDigest(vote).bytes()[0]);
    }
    const double digest_seconds = SecondsSince(digest_start);

    CodecPoint point;
    point.relays = relays;
    point.serialize_mb_per_second = megabytes * rounds / serialize_seconds;
    point.parse_mb_per_second = megabytes * rounds / parse_seconds;
    point.digest_mb_per_second = megabytes * rounds / digest_seconds;
    micro.points.push_back(point);
    if (relays == 8000) {
      const double per_round_relays = static_cast<double>(vote.relays.size()) * rounds;
      micro.serialize_allocations_per_relay =
          static_cast<double>(serialize_allocs) / per_round_relays;
      micro.parse_allocations_per_relay = static_cast<double>(parse_allocs) / per_round_relays;
    }
  }
  return micro;
}

struct DiffPoint {
  size_t relays = 0;
  double compute_mb_per_second = 0.0;  // target MB per second of ComputeConsensusDiff
  double apply_mb_per_second = 0.0;    // the patch merge itself (verification off)
  double apply_verified_mb_per_second = 0.0;  // serving path: patch + target digest
  double compression_ratio = 0.0;             // diff bytes / full target bytes
};

struct DiffMicro {
  // The consensus diff codec (src/tordir/consensus_diff.h) at live-network
  // churn (1% changed + 0.5% removed + 0.5% added rows per round): compute
  // and apply throughput against the full document size, the compression
  // ratio, apply-side allocation rate, and the byte-identity of every patched
  // output against the target serialization.
  std::vector<DiffPoint> points;
  double apply_allocations_per_relay = 0.0;
  bool byte_identical = true;
};

// The patch merge must beat 1 GiB/s at 8k relays: bulk copies between edit
// points, so a regression to per-row reparsing or per-op allocation trips
// this on any hardware tier. The verified number adds one SHA-256 pass over
// the output — hash-bound by construction (the hashing row floors that
// subsystem separately), so it is reported but not floored: on a single-core
// SHA-NI box it sits at the harmonic mean of the splice and ~1.3 GB/s.
constexpr double kMinApplyMbps = 1073.74;  // 1 GiB/s
constexpr double kMaxDiffCompressionRatio = 0.05;

DiffMicro MeasureDiff(bool quick, unsigned threads) {
  torbase::ThreadPool pool(threads);
  const std::vector<size_t> relay_counts =
      quick ? std::vector<size_t>{1000, 8000} : std::vector<size_t>{1000, 8000, 64000};

  DiffMicro micro;
  for (const size_t relays : relay_counts) {
    tordir::PopulationConfig config;
    config.relay_count = relays;
    config.seed = 3;
    const auto population = tordir::GeneratePopulation(config);
    tordir::ConsensusDocument base =
        tordir::ComputeConsensus(tordir::MakeAllVotes(9, population, config));
    for (uint32_t a = 0; a < 9; ++a) {
      torcrypto::Signature sig;
      sig.signer = a;
      sig.bytes.fill(static_cast<uint8_t>(0xB0 + a));
      base.signatures.push_back(sig);
    }
    tordir::ConsensusChurnConfig churn;
    churn.change_fraction = 0.01;
    churn.remove_fraction = 0.005;
    churn.add_fraction = 0.005;
    churn.seed = 3;
    const tordir::ConsensusDocument next = tordir::ChurnConsensus(base, churn);
    const std::string base_text = tordir::SerializeConsensus(base);
    const std::string target_text = tordir::SerializeConsensus(next);
    const double megabytes = static_cast<double>(target_text.size()) / 1e6;
    const int rounds = relays >= 64000 ? 8 : (relays >= 8000 ? 40 : 120);

    // Compute with precomputed framing digests — the cache workflow, where
    // documents are already named by their tree digest.
    tordir::ConsensusDiffOptions options;
    options.base_digest = tordir::TreeSignedConsensusDigest(base, &pool);
    options.target_digest = tordir::TreeSignedConsensusDigest(next, &pool);
    std::string diff = tordir::ComputeConsensusDiff(base, next, options);  // warm-up
    const auto compute_start = Clock::now();
    for (int i = 0; i < rounds; ++i) {
      diff = tordir::ComputeConsensusDiff(base, next, options);
    }
    const double compute_seconds = SecondsSince(compute_start);

    // The patch merge alone (digest check off, byte-identity asserted against
    // the target serialization instead) — the number the 1 GiB/s floor pins.
    tordir::ApplyDiffOptions patch_only;
    patch_only.verify_target = false;
    auto patched = tordir::ApplyConsensusDiff(base_text, diff, patch_only);  // warm-up
    if (!patched.ok() || *patched != target_text) {
      micro.byte_identical = false;
    }
    const auto patch_start = Clock::now();
    for (int i = 0; i < rounds; ++i) {
      patched = tordir::ApplyConsensusDiff(base_text, diff, patch_only);
    }
    const double patch_seconds = SecondsSince(patch_start);
    if (!patched.ok() || *patched != target_text) {
      micro.byte_identical = false;
    }

    // The serving path: patch + sha256-tree-v1 target verification.
    tordir::ApplyDiffOptions apply_options;
    apply_options.pool = &pool;
    patched = tordir::ApplyConsensusDiff(base_text, diff, apply_options);  // warm-up
    if (!patched.ok() || *patched != target_text) {
      micro.byte_identical = false;
    }
    const uint64_t apply_allocs_before = AllocationCount();
    const auto apply_start = Clock::now();
    for (int i = 0; i < rounds; ++i) {
      patched = tordir::ApplyConsensusDiff(base_text, diff, apply_options);
    }
    const double apply_seconds = SecondsSince(apply_start);
    const uint64_t apply_allocs = AllocationCount() - apply_allocs_before;
    if (!patched.ok() || *patched != target_text) {
      micro.byte_identical = false;
    }

    DiffPoint point;
    point.relays = relays;
    point.compute_mb_per_second = megabytes * rounds / compute_seconds;
    point.apply_mb_per_second = megabytes * rounds / patch_seconds;
    point.apply_verified_mb_per_second = megabytes * rounds / apply_seconds;
    point.compression_ratio =
        static_cast<double>(diff.size()) / static_cast<double>(target_text.size());
    micro.points.push_back(point);
    if (relays == 8000) {
      micro.apply_allocations_per_relay = static_cast<double>(apply_allocs) / rounds /
                                          static_cast<double>(next.relays.size());
    }
  }
  return micro;
}

struct HashingPoint {
  size_t relays = 0;
  double tree_serial_mb_per_second = 0.0;    // TreeVoteDigest, streaming sink
  double tree_parallel_mb_per_second = 0.0;  // TreeVoteDigest on the pool
};

struct HashingMicro {
  // The hardware-bound hashing subsystem (src/crypto/sha256_simd.cc /
  // sha256_batch.cc / sha256_tree.cc): dispatch-reported backends, flat-buffer
  // core throughput, and vote-digest throughput per relay axis. The scalar
  // rows pin the golden-reference core on the same machine so the speedup
  // ratio is hardware-independent.
  const char* stream_backend = "?";
  const char* batch_backend = "?";
  double scalar_mb_per_second = 0.0;      // 1 MiB buffer, pinned scalar core
  double dispatched_mb_per_second = 0.0;  // 1 MiB buffer, dispatched core
  double batch_mb_per_second = 0.0;       // 8 x 1 MiB, active batch backend
  double scalar_vote_digest_mb_per_second = 0.0;  // 8k vote bytes, scalar core
  double vote_digest_speedup_over_scalar = 0.0;   // best fast path / scalar, 8k
  std::vector<HashingPoint> points;
};

// The vote-digest floor: at 8k relays the best tree digest must be >= 4x the
// scalar baseline measured in the same process, as the median ratio over
// interleaved (scalar, fast) pairs. Only meaningful when a hardware
// single-stream core is live (SHA-NI); on scalar-only or AVX2-only machines —
// and under TSan/ASan via kThroughputFloorsApply — the ratio is reported but
// not enforced.
constexpr double kMinVoteDigestSpeedupOverScalar = 4.0;
constexpr int kVoteDigestRatioPairs = 7;
constexpr int kVoteDigestRoundsPerPair = 6;

HashingMicro MeasureHashing(bool quick, unsigned threads) {
  HashingMicro micro;
  micro.stream_backend = torcrypto::Sha256BackendName(torcrypto::ActiveSha256Backend());
  micro.batch_backend = torcrypto::Sha256BackendName(torcrypto::ActiveSha256BatchBackend());

  // Flat-buffer core throughput, 1 MiB messages.
  const std::vector<uint8_t> buffer(1 << 20, 0xab);
  const auto time_flat = [&buffer](auto&& hash_once, int rounds) {
    hash_once();  // warm-up
    const auto start = Clock::now();
    for (int i = 0; i < rounds; ++i) {
      hash_once();
    }
    return static_cast<double>(buffer.size()) * rounds / SecondsSince(start) / 1e6;
  };
  const int flat_rounds = quick ? 40 : 200;
  micro.scalar_mb_per_second = time_flat(
      [&buffer] {
        Sink(torcrypto::Sha256DigestForBackend(torcrypto::Sha256Backend::kScalar,
                                               std::span<const uint8_t>(buffer))[0]);
      },
      flat_rounds);
  micro.dispatched_mb_per_second = time_flat(
      [&buffer] { Sink(torcrypto::Sha256Digest(std::span<const uint8_t>(buffer))[0]); },
      flat_rounds);
  micro.batch_mb_per_second = 8.0 * time_flat(
      [&buffer] {
        torcrypto::Sha256Batch batch;
        for (int lane = 0; lane < 8; ++lane) {
          batch.Add(std::span<const uint8_t>(buffer));
        }
        Sink(batch.Finish()[0][0]);
      },
      flat_rounds / 8 + 1);

  // Vote-digest throughput per relay axis: the tree entry points end-to-end
  // (streaming sink vs pool fan-out), plus the pinned-scalar baseline at 8k.
  torbase::ThreadPool pool(threads);
  const std::vector<size_t> relay_counts =
      quick ? std::vector<size_t>{1000, 8000} : std::vector<size_t>{1000, 8000, 64000};
  for (const size_t relays : relay_counts) {
    tordir::PopulationConfig config;
    config.relay_count = relays;
    config.seed = 3;
    const auto population = tordir::GeneratePopulation(config);
    const auto vote = tordir::MakeVote(0, 9, population, config);
    const std::string text = tordir::SerializeVote(vote);
    const double megabytes = static_cast<double>(text.size()) / 1e6;
    const auto time_digest = [megabytes](auto&& digest_once, int rounds) {
      digest_once();  // warm-up
      const auto start = Clock::now();
      for (int i = 0; i < rounds; ++i) {
        digest_once();
      }
      return megabytes * rounds / SecondsSince(start);
    };
    const auto tree_serial = [&vote] { Sink(tordir::TreeVoteDigest(vote).bytes()[0]); };
    const auto tree_parallel = [&vote, &pool] {
      Sink(tordir::TreeVoteDigest(vote, &pool).bytes()[0]);
    };

    HashingPoint point;
    point.relays = relays;
    if (relays != 8000) {
      const int rounds = relays >= 64000 ? 8 : 120;
      point.tree_serial_mb_per_second = time_digest(tree_serial, rounds);
      point.tree_parallel_mb_per_second = time_digest(tree_parallel, rounds);
    } else {
      // The floor's ratio, from interleaved pairs: scalar, then both fast
      // paths, then scalar again, so host drift lands on both sides of each
      // ratio. Every row at 8k is the median over the pairs.
      const auto scalar = [&text] {
        Sink(torcrypto::Sha256DigestForBackend(torcrypto::Sha256Backend::kScalar,
                                               std::string_view(text))[0]);
      };
      std::vector<double> scalar_rates, serial_rates, parallel_rates, ratios;
      for (int pair = 0; pair < kVoteDigestRatioPairs; ++pair) {
        scalar_rates.push_back(time_digest(scalar, kVoteDigestRoundsPerPair));
        serial_rates.push_back(time_digest(tree_serial, kVoteDigestRoundsPerPair));
        parallel_rates.push_back(time_digest(tree_parallel, kVoteDigestRoundsPerPair));
        ratios.push_back(std::max(serial_rates.back(), parallel_rates.back()) /
                         scalar_rates.back());
      }
      point.tree_serial_mb_per_second = torbase::Percentile(serial_rates, 50.0);
      point.tree_parallel_mb_per_second = torbase::Percentile(parallel_rates, 50.0);
      micro.scalar_vote_digest_mb_per_second = torbase::Percentile(scalar_rates, 50.0);
      micro.vote_digest_speedup_over_scalar = torbase::Percentile(ratios, 50.0);
    }
    micro.points.push_back(point);
  }
  return micro;
}

struct TimelineMicro {
  uint32_t rounds = 0;
  double wall_seconds = 0.0;
  double rounds_per_second = 0.0;
  uint32_t successful_rounds = 0;
  size_t rejoin_count = 0;
  double peak_retry_backlog = 0.0;
  bool plane_enabled = false;
  size_t memo_hits = 0;
  size_t memo_misses = 0;
  double memo_hit_rate = 0.0;
};

// The long-horizon row: a week of hourly rounds (24 in --quick) under a fault
// calendar — an 8-round knock-out flood, an authority crash spanning
// published rounds (diff-chain rejoin), a churn blip — with 5M clients
// integrated across the whole horizon, all in one RunTimeline call fanned
// onto the sweep pool. The floor pins end-to-end round throughput: a
// regression anywhere in the stack (simulation, stitch, diff codec, client
// plane, result memo) drags rounds/s down. With the spec-digest result memo
// (the ~160 quiet rounds of the week collapse to one simulation) the 7-day
// horizon measures >100 rounds/s on a single-core CI container at 800
// relays; the floor sits far below that but well above the ~4 rounds/s the
// memo-less engine managed, so losing the memo — or any structural
// regression in what remains (per-round reserialization, a quadratic
// stitch, an eventful client plane) — trips it on any hardware tier.
constexpr double kMinTimelineRoundsPerSecond = 12.0;

// The memo's own self-check on the full 7-day calendar: 168 rounds shrink to
// ~7 distinct simulations, a ~0.96 hit rate. Checked only on the full
// horizon (the 24-round --quick calendar is mostly faulted, so its rate is
// structurally lower) and only where the throughput floors apply.
constexpr double kMinTimelineMemoHitRate = 0.8;

TimelineMicro MeasureTimeline(bool quick, unsigned threads) {
  torscenario::TimelineSpec timeline;
  timeline.name = "perf_timeline";
  timeline.rounds = quick ? 24 : 168;
  timeline.round_period = torbase::Hours(1);
  timeline.base.name = "perf_timeline";
  timeline.base.protocol = "current";
  timeline.base.relay_count = 800;
  timeline.base.client_load.client_count = 5'000'000;
  timeline.base.client_load.diff_capable_fraction = 0.8;

  torattack::AttackWindow window;
  window.targets = torattack::FirstTargets(5);
  window.start = 0;
  window.end = torbase::Minutes(5);
  window.available_bps = 0.0;
  timeline.attacks.push_back(torscenario::AttackCalendarEntry{
      8, quick ? 11u : 15u,
      std::make_shared<torattack::WindowedAttack>(
          std::vector<torattack::AttackWindow>{window})});
  timeline.crashes.push_back(
      torscenario::CrashCalendarEntry{7, 2, torbase::Minutes(1), 5, torbase::Minutes(2)});
  const uint32_t blip_round = quick ? 20 : 100;
  timeline.churn.push_back(torscenario::ChurnCalendarEntry{
      blip_round, {8, torbase::Seconds(30), torscenario::ChurnEvent::Kind::kCrash}});
  timeline.churn.push_back(torscenario::ChurnCalendarEntry{
      blip_round, {8, torbase::Minutes(5), torscenario::ChurnEvent::Kind::kRecover}});

  torscenario::ScenarioRunner runner;
  const auto start = Clock::now();
  const torscenario::TimelineResult result =
      runner.RunTimeline(timeline, torscenario::SweepOptions{threads});
  TimelineMicro micro;
  micro.wall_seconds = SecondsSince(start);
  micro.rounds = timeline.rounds;
  micro.rounds_per_second = static_cast<double>(timeline.rounds) / micro.wall_seconds;
  micro.successful_rounds = result.successful_rounds;
  micro.rejoin_count = result.rejoins.size();
  micro.peak_retry_backlog = result.peak_retry_backlog;
  micro.plane_enabled = result.client_availability.enabled;
  micro.memo_hits = runner.result_memo_hits();
  micro.memo_misses = runner.result_memo_misses();
  const size_t memo_runs = micro.memo_hits + micro.memo_misses;
  micro.memo_hit_rate =
      memo_runs > 0 ? static_cast<double>(micro.memo_hits) / static_cast<double>(memo_runs) : 0.0;
  return micro;
}

struct EventMicro {
  double schedule_fire_ns = 0.0;
  double schedule_cancel_ns = 0.0;
  double allocations_per_event = 0.0;
};

// Schedule/fire and schedule/cancel throughput with a capture that fills most
// of SimCallback's inline buffer (src/sim/event_probe.h), after warming the
// heap and slot arena.
EventMicro MeasureEventPath() {
  torsim::Simulator sim;
  uint64_t fired = 0;
  constexpr size_t kBatch = 64;
  constexpr size_t kRounds = 4000;
  torsim::WarmUpProbe(sim, kBatch, &fired);

  EventMicro micro;
  {
    const uint64_t allocs_before = AllocationCount();
    const auto start = Clock::now();
    for (size_t round = 0; round < kRounds; ++round) {
      torsim::ScheduleProbeBatch(sim, kBatch, &fired);
      sim.Run();
    }
    const double elapsed = SecondsSince(start);
    const double events = static_cast<double>(kBatch * kRounds);
    micro.schedule_fire_ns = elapsed / events * 1e9;
    micro.allocations_per_event =
        static_cast<double>(AllocationCount() - allocs_before) / events;
  }
  {
    const auto start = Clock::now();
    for (size_t round = 0; round < kRounds; ++round) {
      torsim::ScheduleCancelProbeBatch(sim, kBatch, &fired);
      sim.Run();
    }
    micro.schedule_cancel_ns = SecondsSince(start) / static_cast<double>(kBatch * kRounds) * 1e9;
  }
  return micro;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  unsigned threads = torbase::ThreadPool::DefaultThreads();
  std::string out_path = "BENCH_sweep.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      threads = static_cast<unsigned>(std::atoi(argv[++i]));
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--quick] [--threads N] [--out PATH]\n", argv[0]);
      return 2;
    }
  }
  if (threads == 0) {
    threads = 1;
  }

  const auto specs = Fig7StyleGrid(quick);
  std::printf("=== perf_report: %zu-cell fig7-style sweep, serial vs %u thread(s) ===\n\n",
              specs.size(), threads);

  std::printf("per-event micro (64-cell batches, 48-byte captures)...\n");
  const EventMicro micro = MeasureEventPath();
  std::printf("  schedule->fire  : %7.1f ns/event\n", micro.schedule_fire_ns);
  std::printf("  schedule->cancel: %7.1f ns/event\n", micro.schedule_cancel_ns);
  std::printf("  allocations     : %7.3f per event\n\n", micro.allocations_per_event);

  std::printf("codec micro (SerializeVote / ParseVote / VoteDigest)...\n");
  const CodecMicro codec = MeasureCodec(quick);
  for (const CodecPoint& point : codec.points) {
    std::printf("  %6zu relays : %7.0f MB/s serialize  %7.0f MB/s parse  %7.0f MB/s digest\n",
                point.relays, point.serialize_mb_per_second, point.parse_mb_per_second,
                point.digest_mb_per_second);
  }
  std::printf("  allocations     : %7.4f serialize / %7.4f parse per relay (8k)\n\n",
              codec.serialize_allocations_per_relay, codec.parse_allocations_per_relay);

  std::printf("diff micro (ComputeConsensusDiff / ApplyConsensusDiff, 1%% churn + 0.5%% add/remove)...\n");
  const DiffMicro diff = MeasureDiff(quick, threads);
  for (const DiffPoint& point : diff.points) {
    std::printf(
        "  %6zu relays : %7.0f MB/s compute  %7.0f MB/s apply  %7.0f MB/s verified  ratio %.4f\n",
        point.relays, point.compute_mb_per_second, point.apply_mb_per_second,
        point.apply_verified_mb_per_second, point.compression_ratio);
  }
  std::printf("  allocations     : %7.4f apply per relay (8k); patched output %s\n\n",
              diff.apply_allocations_per_relay,
              diff.byte_identical ? "byte-identical" : "DIVERGED");

  std::printf("hashing micro (SHA-256 cores, Sha256Batch, tree vote digests)...\n");
  const HashingMicro hashing = MeasureHashing(quick, threads);
  std::printf("  backends        : stream=%s batch=%s forced_scalar=%s\n", hashing.stream_backend,
              hashing.batch_backend,
#ifdef TORCRYPTO_FORCE_SCALAR
              "on"
#else
              "off"
#endif
  );
  std::printf("  flat 1 MiB      : %7.0f MB/s scalar  %7.0f MB/s dispatched  %7.0f MB/s batch x8\n",
              hashing.scalar_mb_per_second, hashing.dispatched_mb_per_second,
              hashing.batch_mb_per_second);
  for (const HashingPoint& point : hashing.points) {
    std::printf("  %6zu relays : %7.0f MB/s tree-serial  %7.0f MB/s tree-parallel\n", point.relays,
                point.tree_serial_mb_per_second, point.tree_parallel_mb_per_second);
  }
  std::printf("  vote digest 8k  : %7.2fx over scalar (%.0f MB/s scalar baseline)\n\n",
              hashing.vote_digest_speedup_over_scalar, hashing.scalar_vote_digest_mb_per_second);

  std::printf("aggregate micro (ComputeConsensus, 9 authorities)...\n");
  const AggregateMicro aggregate = MeasureAggregate(quick);
  for (const AggregatePoint& point : aggregate.points) {
    std::printf("  %6zu relays : %8.2f ms/op  (%.2e relays/s)\n", point.relays,
                point.millis_per_op, point.relays_per_second);
  }
  std::printf("  allocations     : %7.4f per aggregated relay (8k)\n\n",
              aggregate.allocations_per_relay);

  std::printf("timeline (%s-horizon fault calendar, 5M clients, %u threads)...\n",
              quick ? "24-round" : "7-day", threads);
  const TimelineMicro timeline = MeasureTimeline(quick, threads);
  std::printf("  %u rounds       : %7.2f s wall  (%.2f rounds/s)\n", timeline.rounds,
              timeline.wall_seconds, timeline.rounds_per_second);
  std::printf("  horizon         : %u published, %zu rejoin(s), peak backlog %.0f\n",
              timeline.successful_rounds, timeline.rejoin_count, timeline.peak_retry_backlog);
  std::printf("  result memo     : %zu hit(s) / %zu simulated  (%.1f%% hit rate)\n\n",
              timeline.memo_hits, timeline.memo_misses, timeline.memo_hit_rate * 100.0);

  std::printf("serial sweep...\n");
  torscenario::ScenarioRunner serial_runner;
  const auto serial_start = Clock::now();
  const auto serial_results = serial_runner.Sweep(specs);
  const double serial_seconds = SecondsSince(serial_start);
  std::printf("  %.2f s (%zu workload generations)\n", serial_seconds,
              serial_runner.workload_cache_misses());

  std::printf("parallel sweep (%u threads)...\n", threads);
  torscenario::ScenarioRunner parallel_runner;
  const auto parallel_start = Clock::now();
  const auto parallel_results = parallel_runner.Sweep(specs, torscenario::SweepOptions{threads});
  const double parallel_seconds = SecondsSince(parallel_start);
  std::printf("  %.2f s\n", parallel_seconds);

  bool identical = serial_results.size() == parallel_results.size();
  for (size_t i = 0; identical && i < serial_results.size(); ++i) {
    identical = torscenario::BitIdentical(serial_results[i], parallel_results[i]);
  }
  const double speedup = parallel_seconds > 0.0 ? serial_seconds / parallel_seconds : 0.0;
  std::printf("  speedup %.2fx, results %s\n\n", speedup,
              identical ? "bit-identical" : "DIVERGED");

  std::ofstream json(out_path);
  json << "{\n"
       << "  \"bench\": \"perf_report\",\n"
       << "  \"quick\": " << (quick ? "true" : "false") << ",\n"
       << "  \"grid_cells\": " << specs.size() << ",\n"
       << "  \"hardware_concurrency\": " << torbase::ThreadPool::DefaultThreads() << ",\n"
       << "  \"threads\": " << threads << ",\n"
       << "  \"serial_seconds\": " << serial_seconds << ",\n"
       << "  \"parallel_seconds\": " << parallel_seconds << ",\n"
       << "  \"speedup\": " << speedup << ",\n"
       << "  \"parallel_identical_to_serial\": " << (identical ? "true" : "false") << ",\n"
       << "  \"codec\": {\n";
  for (const CodecPoint& point : codec.points) {
    json << "    \"serialize_mb_per_second_" << point.relays / 1000 << "k\": "
         << point.serialize_mb_per_second << ",\n"
         << "    \"parse_mb_per_second_" << point.relays / 1000 << "k\": "
         << point.parse_mb_per_second << ",\n"
         << "    \"digest_mb_per_second_" << point.relays / 1000 << "k\": "
         << point.digest_mb_per_second << ",\n";
  }
  json << "    \"serialize_allocations_per_relay\": " << codec.serialize_allocations_per_relay
       << ",\n"
       << "    \"parse_allocations_per_relay\": " << codec.parse_allocations_per_relay << "\n"
       << "  },\n"
       << "  \"diff\": {\n";
  for (const DiffPoint& point : diff.points) {
    json << "    \"compute_mb_per_second_" << point.relays / 1000 << "k\": "
         << point.compute_mb_per_second << ",\n"
         << "    \"apply_mb_per_second_" << point.relays / 1000 << "k\": "
         << point.apply_mb_per_second << ",\n"
         << "    \"apply_verified_mb_per_second_" << point.relays / 1000 << "k\": "
         << point.apply_verified_mb_per_second << ",\n"
         << "    \"compression_ratio_" << point.relays / 1000 << "k\": "
         << point.compression_ratio << ",\n";
  }
  json << "    \"apply_allocations_per_relay\": " << diff.apply_allocations_per_relay << ",\n"
       << "    \"byte_identical\": " << (diff.byte_identical ? "true" : "false") << ",\n"
       << "    \"apply_mbps_floor\": " << kMinApplyMbps << ",\n"
       << "    \"compression_ratio_ceiling\": " << kMaxDiffCompressionRatio << ",\n"
       << "    \"apply_floor_enforced\": " << (kThroughputFloorsApply ? "true" : "false") << "\n"
       << "  },\n"
       << "  \"aggregate\": {\n";
  for (size_t i = 0; i < aggregate.points.size(); ++i) {
    const AggregatePoint& point = aggregate.points[i];
    json << "    \"relays_per_second_" << point.relays / 1000 << "k\": "
         << point.relays_per_second << ",\n"
         << "    \"millis_per_op_" << point.relays / 1000 << "k\": " << point.millis_per_op
         << ",\n";
  }
  json << "    \"allocations_per_relay\": " << aggregate.allocations_per_relay << "\n"
       << "  },\n"
       << "  \"hashing\": {\n"
       << "    \"stream_backend\": \"" << hashing.stream_backend << "\",\n"
       << "    \"batch_backend\": \"" << hashing.batch_backend << "\",\n"
       << "    \"scalar_mb_per_second\": " << hashing.scalar_mb_per_second << ",\n"
       << "    \"dispatched_mb_per_second\": " << hashing.dispatched_mb_per_second << ",\n"
       << "    \"batch_mb_per_second\": " << hashing.batch_mb_per_second << ",\n";
  for (const HashingPoint& point : hashing.points) {
    json << "    \"tree_vote_digest_serial_mb_per_second_" << point.relays / 1000 << "k\": "
         << point.tree_serial_mb_per_second << ",\n"
         << "    \"tree_vote_digest_parallel_mb_per_second_" << point.relays / 1000 << "k\": "
         << point.tree_parallel_mb_per_second << ",\n";
  }
  json << "    \"scalar_vote_digest_mb_per_second_8k\": "
       << hashing.scalar_vote_digest_mb_per_second << ",\n"
       << "    \"vote_digest_speedup_over_scalar_8k\": "
       << hashing.vote_digest_speedup_over_scalar << ",\n"
       << "    \"vote_digest_speedup_floor\": " << kMinVoteDigestSpeedupOverScalar << ",\n"
       << "    \"speedup_floor_enforced\": "
       << ((kThroughputFloorsApply &&
            torcrypto::ActiveSha256Backend() == torcrypto::Sha256Backend::kShaNi)
               ? "true"
               : "false")
       << "\n"
       << "  },\n"
       << "  \"timeline\": {\n"
       << "    \"rounds\": " << timeline.rounds << ",\n"
       << "    \"clients\": 5000000,\n"
       << "    \"wall_seconds\": " << timeline.wall_seconds << ",\n"
       << "    \"rounds_per_second\": " << timeline.rounds_per_second << ",\n"
       << "    \"successful_rounds\": " << timeline.successful_rounds << ",\n"
       << "    \"rejoins\": " << timeline.rejoin_count << ",\n"
       << "    \"peak_retry_backlog\": " << timeline.peak_retry_backlog << ",\n"
       << "    \"memo_hits\": " << timeline.memo_hits << ",\n"
       << "    \"memo_misses\": " << timeline.memo_misses << ",\n"
       << "    \"memo_hit_rate\": " << timeline.memo_hit_rate << ",\n"
       << "    \"memo_hit_rate_floor\": " << kMinTimelineMemoHitRate << ",\n"
       << "    \"memo_floor_enforced\": "
       << ((!quick && kThroughputFloorsApply) ? "true" : "false") << ",\n"
       << "    \"rounds_per_second_floor\": " << kMinTimelineRoundsPerSecond << ",\n"
       << "    \"floor_enforced\": " << (kThroughputFloorsApply ? "true" : "false") << "\n"
       << "  },\n"
       << "  \"event_schedule_fire_ns\": " << micro.schedule_fire_ns << ",\n"
       << "  \"event_schedule_cancel_ns\": " << micro.schedule_cancel_ns << ",\n"
       << "  \"event_allocations_per_event\": " << micro.allocations_per_event << "\n"
       << "}\n";
  json.close();
  std::printf("wrote %s\n", out_path.c_str());

  if (!identical) {
    std::fprintf(stderr, "REGRESSION: parallel sweep diverged from serial\n");
    return 1;
  }
  if (micro.allocations_per_event > 0.0) {
    std::fprintf(stderr, "REGRESSION: event hot path allocates (%f per event)\n",
                 micro.allocations_per_event);
    return 1;
  }
  if (aggregate.allocations_per_relay > 0.05) {
    std::fprintf(stderr, "REGRESSION: consensus aggregation allocates (%f per relay)\n",
                 aggregate.allocations_per_relay);
    return 1;
  }
  for (const CodecPoint& point : codec.points) {
    if (point.relays != 8000 || !kThroughputFloorsApply) {
      continue;  // thresholds anchor on the 8k point benches track
    }
    if (point.serialize_mb_per_second < kMinSerializeMbps) {
      std::fprintf(stderr, "REGRESSION: SerializeVote below %.0f MB/s (%.0f)\n", kMinSerializeMbps,
                   point.serialize_mb_per_second);
      return 1;
    }
    if (point.parse_mb_per_second < kMinParseMbps) {
      std::fprintf(stderr, "REGRESSION: ParseVote below %.0f MB/s (%.0f)\n", kMinParseMbps,
                   point.parse_mb_per_second);
      return 1;
    }
  }
#ifdef TORCRYPTO_FORCE_SCALAR
  // The forced-scalar CI leg exists to prove the scalar core carries the whole
  // suite; dispatch silently picking a hardware core would defeat it.
  if (torcrypto::ActiveSha256Backend() != torcrypto::Sha256Backend::kScalar ||
      torcrypto::ActiveSha256BatchBackend() != torcrypto::Sha256Backend::kScalar) {
    std::fprintf(stderr, "REGRESSION: TORCRYPTO_FORCE_SCALAR build dispatched to %s/%s\n",
                 hashing.stream_backend, hashing.batch_backend);
    return 1;
  }
#endif
  if (kThroughputFloorsApply &&
      torcrypto::ActiveSha256Backend() == torcrypto::Sha256Backend::kShaNi &&
      hashing.vote_digest_speedup_over_scalar < kMinVoteDigestSpeedupOverScalar) {
    std::fprintf(stderr, "REGRESSION: vote digest only %.2fx over scalar at 8k (floor %.1fx)\n",
                 hashing.vote_digest_speedup_over_scalar, kMinVoteDigestSpeedupOverScalar);
    return 1;
  }
  if (codec.serialize_allocations_per_relay > kMaxCodecAllocationsPerRelay ||
      codec.parse_allocations_per_relay > kMaxCodecAllocationsPerRelay) {
    std::fprintf(stderr, "REGRESSION: codec allocates per relay (%f serialize, %f parse)\n",
                 codec.serialize_allocations_per_relay, codec.parse_allocations_per_relay);
    return 1;
  }
  if (!diff.byte_identical) {
    std::fprintf(stderr, "REGRESSION: consensus diff apply is not byte-identical to the target\n");
    return 1;
  }
  if (diff.apply_allocations_per_relay > kMaxCodecAllocationsPerRelay) {
    std::fprintf(stderr, "REGRESSION: diff apply allocates per relay (%f)\n",
                 diff.apply_allocations_per_relay);
    return 1;
  }
  for (const DiffPoint& point : diff.points) {
    if (point.relays != 8000) {
      continue;  // like the codec floors, anchor on the 8k point
    }
    if (point.compression_ratio > kMaxDiffCompressionRatio) {
      std::fprintf(stderr, "REGRESSION: diff is %.1f%% of the full document at 1%% churn\n",
                   point.compression_ratio * 100.0);
      return 1;
    }
    if (kThroughputFloorsApply && point.apply_mb_per_second < kMinApplyMbps) {
      std::fprintf(stderr, "REGRESSION: diff patch merge below %.0f MB/s (%.0f)\n", kMinApplyMbps,
                   point.apply_mb_per_second);
      return 1;
    }
  }
  // The timeline row self-checks: the horizon must actually publish, carry
  // the client plane, and rejoin the crashed authority — and in optimized,
  // unsanitized builds it must clear the end-to-end throughput floor.
  if (timeline.successful_rounds == 0 || !timeline.plane_enabled ||
      timeline.rejoin_count == 0) {
    std::fprintf(stderr,
                 "REGRESSION: timeline row degenerate (%u published, plane=%d, %zu rejoins)\n",
                 timeline.successful_rounds, timeline.plane_enabled, timeline.rejoin_count);
    return 1;
  }
  if (kThroughputFloorsApply && timeline.rounds_per_second < kMinTimelineRoundsPerSecond) {
    std::fprintf(stderr, "REGRESSION: timeline below %.1f rounds/s (%.2f)\n",
                 kMinTimelineRoundsPerSecond, timeline.rounds_per_second);
    return 1;
  }
  if (!quick && kThroughputFloorsApply && timeline.memo_hit_rate < kMinTimelineMemoHitRate) {
    std::fprintf(stderr,
                 "REGRESSION: timeline memo hit rate %.2f below %.2f "
                 "(%zu hits / %zu misses) — quiet rounds are not deduplicating\n",
                 timeline.memo_hit_rate, kMinTimelineMemoHitRate, timeline.memo_hits,
                 timeline.memo_misses);
    return 1;
  }
  return 0;
}
