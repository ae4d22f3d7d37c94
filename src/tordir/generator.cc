#include "src/tordir/generator.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <span>
#include <string_view>

#include "src/crypto/sha256.h"
#include "src/crypto/sha256_batch.h"

namespace tordir {
namespace {

// Flag probabilities, matching live-network frequencies.
constexpr double kFastProbability = 0.80;
constexpr double kStableProbability = 0.55;
constexpr double kGuardProbability = 0.35;
constexpr double kExitProbability = 0.20;
constexpr double kHSDirProbability = 0.40;
constexpr double kV2DirProbability = 0.60;
constexpr double kBadExitProbability = 0.01;
// Base unix time for published timestamps and vote validity windows.
constexpr uint64_t kBaseTime = 1735689600;  // 2025-01-01 00:00:00 UTC

const char* const kVersionPool[] = {
    "Tor 0.4.8.10",
    "Tor 0.4.8.9",
    "Tor 0.4.8.12",
    "Tor 0.4.7.16",
};

const char* const kProtocolPool[] = {
    "Cons=1-2 Desc=1-2 DirCache=2 FlowCtrl=1-2 HSDir=2 HSIntro=4-5 HSRend=1-2 Link=1-5 "
    "LinkAuth=1,3 Microdesc=1-2 Padding=2 Relay=1-4",
    "Cons=1-2 Desc=1-2 DirCache=2 FlowCtrl=1 HSDir=2 HSIntro=4-5 HSRend=1-2 Link=1-5 "
    "LinkAuth=3 Microdesc=1-2 Padding=2 Relay=1-3",
};

const char* const kExitPolicyPool[] = {
    "accept 80,443",
    "accept 20-23,43,53,79-81,88,110,143,194,220,389,443",
    "accept 443,6667",
};

// The derive helpers hash tiny fixed-shape messages once per relay; composing
// them on the stack (byte-identical to the torbase::Writer framing they
// replace: little-endian u64s, u32-length-prefixed strings) keeps population
// generation allocation-free — at 256k relays the old per-call Writer buffers
// were a measurable share of workload build.
void PutU64Le(uint8_t* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out[i] = static_cast<uint8_t>(v >> (8 * i));
  }
}

constexpr std::string_view kFingerprintLabel = "relay-fingerprint";
using FingerprintMessage = std::array<uint8_t, 8 + 8 + 4 + kFingerprintLabel.size()>;

constexpr std::string_view kMicrodescLabel = "microdesc";
using MicrodescMessage = std::array<uint8_t, 20 + 4 + kMicrodescLabel.size()>;

FingerprintMessage ComposeFingerprintMessage(uint64_t seed, uint64_t index) {
  FingerprintMessage message{};
  PutU64Le(message.data(), seed);
  PutU64Le(message.data() + 8, index);
  message[16] = static_cast<uint8_t>(kFingerprintLabel.size());  // u32 LE length prefix
  std::memcpy(message.data() + 20, kFingerprintLabel.data(), kFingerprintLabel.size());
  return message;
}

MicrodescMessage ComposeMicrodescMessage(const Fingerprint& fp) {
  MicrodescMessage message{};
  std::memcpy(message.data(), fp.data(), fp.size());
  message[20] = static_cast<uint8_t>(kMicrodescLabel.size());  // u32 LE length prefix
  std::memcpy(message.data() + 24, kMicrodescLabel.data(), kMicrodescLabel.size());
  return message;
}

// Relay identities are pure functions of (seed, index) — the RNG never feeds
// them — so the whole population's fingerprints and microdescriptor digests
// derive in two Sha256Batch passes (lock-step hardware lanes) before the
// RNG-driven loop. Byte-identical to hashing each message individually.
struct DerivedIdentities {
  std::vector<Fingerprint> fingerprints;
  std::vector<std::array<uint8_t, 32>> microdesc_digests;
};

DerivedIdentities DeriveIdentities(uint64_t seed, size_t relay_count) {
  DerivedIdentities out;
  out.fingerprints.resize(relay_count);
  torcrypto::Sha256Batch batch;

  std::vector<FingerprintMessage> fp_messages(relay_count);
  for (size_t i = 0; i < relay_count; ++i) {
    fp_messages[i] = ComposeFingerprintMessage(seed, i);
    batch.Add(std::span<const uint8_t>(fp_messages[i]));
  }
  const auto fp_digests = batch.Finish();
  for (size_t i = 0; i < relay_count; ++i) {
    std::copy(fp_digests[i].begin(), fp_digests[i].begin() + 20, out.fingerprints[i].begin());
  }

  std::vector<MicrodescMessage> md_messages(relay_count);
  for (size_t i = 0; i < relay_count; ++i) {
    md_messages[i] = ComposeMicrodescMessage(out.fingerprints[i]);
    batch.Add(std::span<const uint8_t>(md_messages[i]));
  }
  out.microdesc_digests = batch.Finish();
  return out;
}

}  // namespace

std::vector<RelayStatus> GeneratePopulation(const PopulationConfig& config) {
  torbase::Rng rng(config.seed ^ 0x7052656c61795067ull);  // "pRelayPg"
  std::vector<RelayStatus> relays;
  relays.reserve(config.relay_count);
  const DerivedIdentities identities = DeriveIdentities(config.seed, config.relay_count);

  // Intern the shared value pools once per population instead of re-hashing
  // the same strings per relay; nicknames/addresses are unique and interned
  // inline below.
  InternedString versions[std::size(kVersionPool)];
  for (size_t i = 0; i < std::size(kVersionPool); ++i) {
    versions[i] = kVersionPool[i];
  }
  InternedString protocols[std::size(kProtocolPool)];
  for (size_t i = 0; i < std::size(kProtocolPool); ++i) {
    protocols[i] = kProtocolPool[i];
  }
  InternedString exit_policies[std::size(kExitPolicyPool)];
  for (size_t i = 0; i < std::size(kExitPolicyPool); ++i) {
    exit_policies[i] = kExitPolicyPool[i];
  }
  const InternedString reject_all = "reject 1-65535";

  for (size_t i = 0; i < config.relay_count; ++i) {
    RelayStatus relay;
    relay.fingerprint = identities.fingerprints[i];
    relay.microdesc_digest = identities.microdesc_digests[i];
    relay.nickname = "relay" + rng.AlphaNumeric(10);

    char addr[20];
    std::snprintf(addr, sizeof(addr), "%u.%u.%u.%u",
                  static_cast<unsigned>(rng.UniformRange(1, 223)),
                  static_cast<unsigned>(rng.UniformRange(0, 254)),
                  static_cast<unsigned>(rng.UniformRange(0, 254)),
                  static_cast<unsigned>(rng.UniformRange(1, 254)));
    relay.address = addr;
    relay.or_port = rng.Bernoulli(0.7) ? 9001 : static_cast<uint16_t>(rng.UniformRange(443, 9999));
    relay.dir_port = rng.Bernoulli(0.4) ? 9030 : 0;
    relay.published = kBaseTime - rng.UniformRange(0, 18 * 3600);

    relay.SetFlag(RelayFlag::kRunning, true);
    relay.SetFlag(RelayFlag::kValid, true);
    relay.SetFlag(RelayFlag::kFast, rng.Bernoulli(kFastProbability));
    relay.SetFlag(RelayFlag::kStable, rng.Bernoulli(kStableProbability));
    relay.SetFlag(RelayFlag::kGuard, rng.Bernoulli(kGuardProbability));
    const bool is_exit = rng.Bernoulli(kExitProbability);
    relay.SetFlag(RelayFlag::kExit, is_exit);
    relay.SetFlag(RelayFlag::kHSDir, rng.Bernoulli(kHSDirProbability));
    relay.SetFlag(RelayFlag::kV2Dir, rng.Bernoulli(kV2DirProbability));
    relay.SetFlag(RelayFlag::kBadExit, is_exit && rng.Bernoulli(kBadExitProbability));

    relay.version = versions[rng.UniformU64(std::size(kVersionPool))];
    relay.protocols = protocols[rng.UniformU64(std::size(kProtocolPool))];
    relay.exit_policy =
        is_exit ? exit_policies[rng.UniformU64(std::size(kExitPolicyPool))] : reject_all;

    // Log-normal-ish bandwidth distribution (KB/s), clamped to a live-network
    // plausible range.
    const double log_bw = rng.Normal(8.0, 1.2);  // e^8 ~ 3000 KB/s
    relay.bandwidth =
        static_cast<uint64_t>(std::clamp(std::exp(log_bw), 20.0, 400000.0));
    relays.push_back(std::move(relay));
  }
  std::sort(relays.begin(), relays.end(), RelayOrder);
  return relays;
}

VoteDocument MakeVote(torbase::NodeId authority, uint32_t authority_count,
                      const std::vector<RelayStatus>& population,
                      const PopulationConfig& population_config,
                      const VoteViewConfig& view_config) {
  torbase::Rng rng(population_config.seed * 1000003 + authority);
  VoteDocument vote;
  vote.authority = authority;
  vote.authority_nickname = "auth" + std::to_string(authority);
  vote.valid_after = kBaseTime;
  vote.fresh_until = kBaseTime + 3600;       // stale after 1 h
  vote.valid_until = kBaseTime + 3 * 3600;   // invalid after 3 h

  const uint32_t measuring_count = static_cast<uint32_t>(
      std::ceil(view_config.measuring_fraction * authority_count));
  const bool measures = authority < measuring_count;

  vote.relays.reserve(population.size());
  for (const auto& relay : population) {
    if (rng.Bernoulli(view_config.p_missing)) {
      continue;
    }
    RelayStatus view = relay;
    for (RelayFlag flag :
         {RelayFlag::kFast, RelayFlag::kStable, RelayFlag::kGuard, RelayFlag::kHSDir}) {
      if (rng.Bernoulli(view_config.p_flag_flip)) {
        view.SetFlag(flag, !view.HasFlag(flag));
      }
    }
    if (measures) {
      const double noisy = static_cast<double>(relay.bandwidth) *
                           (1.0 + rng.Normal(0.0, view_config.measurement_noise));
      view.measured = static_cast<uint64_t>(std::max(1.0, noisy));
    }
    vote.relays.push_back(std::move(view));
  }
  // Population is sorted; dropping entries preserves order.
  return vote;
}

std::vector<VoteDocument> MakeAllVotes(uint32_t authority_count,
                                       const std::vector<RelayStatus>& population,
                                       const PopulationConfig& population_config,
                                       const VoteViewConfig& view_config) {
  std::vector<VoteDocument> votes;
  votes.reserve(authority_count);
  for (uint32_t a = 0; a < authority_count; ++a) {
    votes.push_back(MakeVote(a, authority_count, population, population_config, view_config));
  }
  return votes;
}

ConsensusDocument ChurnConsensus(const ConsensusDocument& base,
                                 const ConsensusChurnConfig& config) {
  torbase::Rng rng(config.seed ^ 0x436f6e734368726eull);  // "ConsChrn"
  const uint64_t period =
      base.fresh_until > base.valid_after ? base.fresh_until - base.valid_after : 3600;

  ConsensusDocument next;
  next.valid_after = base.valid_after + period;
  next.fresh_until = base.fresh_until + period;
  next.valid_until = base.valid_until + period;
  next.vote_count = base.vote_count;
  next.signatures = base.signatures;

  next.relays.reserve(base.relays.size() + base.relays.size() / 8);
  for (const RelayStatus& relay : base.relays) {
    if (rng.Bernoulli(config.remove_fraction)) {
      continue;
    }
    RelayStatus row = relay;
    if (rng.Bernoulli(config.change_fraction)) {
      // A re-measured bandwidth and the occasional flag transition: the two
      // mutations real consensuses churn on hour over hour.
      row.bandwidth = row.bandwidth + 1 + rng.UniformU64(row.bandwidth / 8 + 16);
      if (rng.Bernoulli(0.5)) {
        row.SetFlag(RelayFlag::kStable, !row.HasFlag(RelayFlag::kStable));
      }
    }
    next.relays.push_back(std::move(row));
  }

  const size_t add_count =
      static_cast<size_t>(std::llround(config.add_fraction * base.relays.size()));
  if (add_count > 0) {
    // Joiners derive from a distinct seed domain, so their fingerprints never
    // collide with the base population's (both are SHA-256 outputs; the
    // dedupe below keeps the document canonical even if they somehow did).
    PopulationConfig add_config;
    add_config.relay_count = add_count;
    add_config.seed = config.seed ^ 0x41646452656c6179ull;  // "AddRelay"
    for (RelayStatus& relay : GeneratePopulation(add_config)) {
      relay.published = next.valid_after;
      next.relays.push_back(std::move(relay));
    }
    next.SortRelays();
    next.relays.erase(std::unique(next.relays.begin(), next.relays.end(),
                                  [](const RelayStatus& a, const RelayStatus& b) {
                                    return a.fingerprint == b.fingerprint;
                                  }),
                      next.relays.end());
  }
  return next;
}

std::vector<RelayCountPoint> RelayCountSeries() {
  // 26 monthly points, September 2022 .. October 2024: a gentle upward trend
  // with a seasonal swing and deterministic jitter, renormalized so the mean
  // equals the paper's reported 7141.79.
  constexpr int kMonths = 26;
  torbase::Rng rng(20220901);
  std::vector<double> raw(kMonths);
  double mean = 0.0;
  for (int i = 0; i < kMonths; ++i) {
    const double trend = 6500.0 + 40.0 * i;
    const double seasonal = 600.0 * std::sin(2.0 * M_PI * i / 12.0 + 0.8);
    const double jitter = rng.Normal(0.0, 220.0);
    raw[i] = trend + seasonal + jitter;
    mean += raw[i];
  }
  mean /= kMonths;

  std::vector<RelayCountPoint> series(kMonths);
  int year = 2022;
  int month = 9;
  for (int i = 0; i < kMonths; ++i) {
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%04u-%02u", static_cast<unsigned>(year),
                  static_cast<unsigned>(month));
    series[i].month = buf;
    series[i].relay_count = raw[i] - mean + kPaperAverageRelayCount;
    if (++month == 13) {
      month = 1;
      ++year;
    }
  }
  return series;
}

}  // namespace tordir
