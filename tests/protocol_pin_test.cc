// Pins whole ScenarioResults of every built-in protocol on six shapes — the
// honest round, the paper's 5-of-9 five-minute knockout, two byzantine mixes,
// and an honest round and a 4-of-7 knockout at 7 authorities, where the
// majority, f and the agreement quorum all differ from 9's — against digests
// recorded before the authorities shared one core and one consensus phase.
// Every field BitIdentical compares enters the digest (latencies as exact
// hex floats, bytes by kind, attack history, health-alert details and
// evidence times, fault metrics, the client plane and the published
// document), so any refactor of the protocol seam that moves a single bit of
// any result fails here, in ctest, without the benchmark. The reference runner
// (every shortcut off) is held to the same pins.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "src/attack/ddos.h"
#include "src/attack/schedule.h"
#include "src/crypto/digest.h"
#include "src/scenario/runner.h"
#include "src/tordir/dirspec.h"

namespace torscenario {
namespace {

using torproto::ByzantineBehavior;

// Exact, locale-free text of a double; every NaN prints the same.
std::string Num(double value) {
  if (std::isnan(value)) {
    return "nan";
  }
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%a", value);
  return buffer;
}

template <typename T>
std::string List(const std::vector<T>& values) {
  std::string out = "[";
  for (const T& value : values) {
    out += std::to_string(value) + ",";
  }
  return out + "]";
}

// Canonical text of every field BitIdentical(ScenarioResult) compares.
std::string Dump(const ScenarioResult& r) {
  std::ostringstream out;
  out << "result " << r.succeeded << ' ' << r.valid_count << ' ' << Num(r.latency_seconds) << ' '
      << Num(r.finish_time_seconds) << ' ' << r.consensus_relays << ' ' << r.total_bytes_sent
      << ' ' << r.undeliverable_messages << ' ' << List(r.consensus_holders) << '\n';
  for (const auto& [kind, bytes] : r.bytes_by_kind) {
    out << "bytes " << kind << ' ' << bytes << '\n';
  }
  for (const torattack::AttackSample& sample : r.attack_history) {
    out << "attack " << sample.at << ' ' << List(sample.victims) << ' '
        << Num(sample.available_bps) << '\n';
  }
  out << "published " << Num(r.consensus_published_seconds) << ' ' << r.consensus_valid_after
      << ' ' << r.consensus_fresh_until << ' ' << r.consensus_valid_until << ' '
      << r.consensus_size_bytes << ' ' << r.consensus_diff_size_bytes << ' '
      << (r.consensus_document == nullptr
              ? std::string("-")
              : tordir::ConsensusDigest(*r.consensus_document).ToHex() + "/" +
                    torcrypto::Digest256::Of(tordir::SerializeConsensus(*r.consensus_document))
                        .ToHex())
      << '\n';
  const ClientAvailabilityResult& c = r.client_availability;
  out << "clients " << c.enabled << ' ' << Num(c.total_fetches) << ' ' << Num(c.fresh_fetches)
      << ' ' << Num(c.stale_fetches) << ' ' << Num(c.unserved_fetches) << ' '
      << Num(c.fresh_fraction) << ' ' << Num(c.time_to_first_stale_seconds) << ' '
      << Num(c.outage_seconds) << ' ' << Num(c.outage_start_seconds) << ' '
      << Num(c.hard_down_seconds) << ' ' << Num(c.hard_down_start_seconds) << ' '
      << Num(c.peak_backlog_fetches) << ' ' << Num(c.served_bytes) << ' '
      << Num(c.bytes_per_client_hour) << ' ' << Num(c.full_doc_bytes_per_client_hour) << '\n';
  for (const tordir::HealthAlert& alert : r.health_alerts) {
    out << "alert " << tordir::HealthAlertName(alert.kind) << ' ' << List(alert.authorities)
        << ' ' << Num(alert.first_evidence_seconds) << ' ' << alert.detail << '\n';
  }
  out << "faults " << r.byzantine_count << ' ' << r.faults_detected << ' '
      << Num(r.fault_detection_latency_seconds) << '\n';
  return out.str();
}

std::map<std::string, ScenarioSpec> PinnedShapes(const std::string& protocol) {
  ScenarioSpec base;
  base.protocol = protocol;
  base.relay_count = 800;
  base.seed = 3;
  base.client_load.client_count = 1'000'000;

  std::map<std::string, ScenarioSpec> shapes;
  shapes["honest"] = base;

  ScenarioSpec knockout = base;
  torattack::AttackWindow window;
  window.targets = torattack::FirstTargets(5);
  window.start = 0;
  window.end = torbase::Minutes(5);
  window.available_bps = torattack::kUnderAttackBps;
  knockout.attack = std::make_shared<torattack::WindowedAttack>(
      std::vector<torattack::AttackWindow>{window});
  shapes["knockout"] = knockout;

  ScenarioSpec equivocate_malformed = base;
  equivocate_malformed.byzantine.behaviors = {{3, ByzantineBehavior::kEquivocate},
                                              {6, ByzantineBehavior::kMalformedWire}};
  shapes["equivocate+malformed"] = equivocate_malformed;

  ScenarioSpec replay_inflate = base;
  replay_inflate.byzantine.behaviors = {{2, ByzantineBehavior::kReplay},
                                        {7, ByzantineBehavior::kInflateBandwidth}};
  shapes["replay+inflate"] = replay_inflate;

  // n = 7: majority 4, f = 2, agreement quorum 5.
  ScenarioSpec honest7 = base;
  honest7.authority_count = 7;
  shapes["honest@7"] = honest7;

  ScenarioSpec knockout7 = honest7;
  window.targets = torattack::FirstTargets(4);
  knockout7.attack = std::make_shared<torattack::WindowedAttack>(
      std::vector<torattack::AttackWindow>{window});
  shapes["knockout@7"] = knockout7;
  return shapes;
}

// SHA-256 of Dump(result) per protocol/shape, recorded before the protocol
// seam was consolidated (the @7 shapes: before the consensus phase moved into
// AuthorityCore).
const std::map<std::string, std::string>& PinnedDigests() {
  static const auto* digests = new std::map<std::string, std::string>{
      {"current/equivocate+malformed",
       "d3df1e6ee121c389925a41c2172bd51cb3276a4f13ead779599283651a709d98"},
      {"current/honest",
       "6e26c598771bd05b68cc0739ce2158b24d60e4d599b80418137141a23e2d1013"},
      {"current/honest@7",
       "3ae646cc542a2a191586e089e36fee7d45c912762873b7b8d751adfbc20d6353"},
      {"current/knockout",
       "a2e8c7c897ca8887604c0598959660da6be22711904ad30ea912cc72042e52ea"},
      {"current/knockout@7",
       "d78bc5db03343cdfd32f7d2ad8a46347479c7b1b60d2d0516ce1f7e5dd183c71"},
      {"current/replay+inflate",
       "67819735df10dbc302b43f510d6a4fe9694d93f17e75590646761bd891615717"},
      {"icps/equivocate+malformed",
       "45d080df3b99d2af3fd516a38df83254847d6701baf2b433b2d77c498324134c"},
      {"icps/honest",
       "7d51e47b3c0885e0ed1e0869c8067c5a7ff77dceece62534a52312d3540c718d"},
      {"icps/honest@7",
       "3366ea70e7481e5e1e2a594f4437482790eeb60ed6f01306122223abe1069d00"},
      {"icps/knockout",
       "409564b65a708332be7e7b04e2af51b60568010e3d4e0225856d31cd07297749"},
      {"icps/knockout@7",
       "5e376251b895bd4e4cbfdc9eba7f33cdae52349eb4f547a1298c092724ac130e"},
      {"icps/replay+inflate",
       "28a9e31d9c75ee0fed08e14b370559f5086f4ab5a1643238528b38083bc933fe"},
      {"synchronous/equivocate+malformed",
       "c09e82b0932502706a784042eefe9825adcc1742bc6d053d1be76bb05fd3b53f"},
      {"synchronous/honest",
       "bedb128f52cab2d37cfef1d3d28ace5840745b6dea734b557a195cf6b516350a"},
      {"synchronous/honest@7",
       "39272f641c0e549698d14ccd572035b3e67009f8ab4d963657bb8cafde96573d"},
      {"synchronous/knockout",
       "d8116eec755eaeca4e8e9badc6f56d68b9f53640f508f7f688ae0ece4c220477"},
      {"synchronous/knockout@7",
       "6a052f5acf9757032ba8b6a4eb87d5116d30cf1bf16d9cbae90b154e4202ee48"},
      {"synchronous/replay+inflate",
       "4a12cad8cecccc42421d7084c048a170d566ad7a173fcc02af74a1fe0a361957"},
  };
  return *digests;
}

// The fast runner (memo off) and the reference runner — no vote cache, no
// shared document store, serial — must both reproduce every pin.
TEST(ProtocolPinTest, ResultsMatchRecordedDigests) {
  for (const bool reference : {false, true}) {
    ScenarioRunner runner;
    runner.set_memoize(false);
    runner.set_reference(reference);
    for (const char* protocol : {"current", "synchronous", "icps"}) {
      for (const auto& [shape, spec] : PinnedShapes(protocol)) {
        const std::string key = std::string(protocol) + "/" + shape;
        const std::string dump = Dump(runner.Run(spec));
        const std::string digest = torcrypto::Digest256::Of(dump).ToHex();
        EXPECT_EQ(digest, PinnedDigests().at(key))
            << key << (reference ? " (reference)" : "") << ":\n" << dump;
      }
    }
  }
}

// The pinned shapes reproduce the paper's contrast, so the digests above pin
// meaningful runs: at 9 and at 7 authorities every authority holds a valid
// consensus in the honest round, and the knockout of a majority halts the
// lock-step protocols but not ICPS; every injected byzantine fault is
// detected.
TEST(ProtocolPinTest, PinnedShapesShowThePapersContrast) {
  ScenarioRunner runner;
  for (const char* protocol : {"current", "synchronous", "icps"}) {
    const std::map<std::string, ScenarioSpec> shapes = PinnedShapes(protocol);
    for (const char* honest : {"honest", "honest@7"}) {
      const ScenarioResult result = runner.Run(shapes.at(honest));
      EXPECT_TRUE(result.succeeded) << protocol << "/" << honest;
      EXPECT_EQ(result.valid_count, shapes.at(honest).authority_count)
          << protocol << "/" << honest;
    }
    for (const char* knockout : {"knockout", "knockout@7"}) {
      EXPECT_EQ(runner.Run(shapes.at(knockout)).succeeded, std::string(protocol) == "icps")
          << protocol << "/" << knockout;
    }
    for (const char* shape : {"equivocate+malformed", "replay+inflate"}) {
      const ScenarioResult result = runner.Run(shapes.at(shape));
      EXPECT_EQ(result.byzantine_count, 2u) << protocol << "/" << shape;
      EXPECT_EQ(result.faults_detected, 2u) << protocol << "/" << shape;
    }
  }
}

}  // namespace
}  // namespace torscenario
