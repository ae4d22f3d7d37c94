#include "fingerprint.h"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "src/crypto/digest.h"
#include "src/tordir/dirspec.h"

namespace perfbench {
namespace {

// Exact, locale-free text of a double; every NaN prints the same.
std::string Num(double value) {
  if (std::isnan(value)) {
    return "nan";
  }
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%a", value);
  return buffer;
}

std::string Short(const std::string& text) {
  return torcrypto::Digest256::Of(text).ToHex().substr(0, 16);
}

template <typename T>
std::string List(const std::vector<T>& values) {
  std::string out = "[";
  for (const T& value : values) {
    out += std::to_string(value) + ",";
  }
  return out + "]";
}

std::string Text(const torscenario::ClientAvailabilityResult& c) {
  std::ostringstream out;
  out << "clients " << c.enabled << ' ' << Num(c.total_fetches) << ' ' << Num(c.fresh_fetches)
      << ' ' << Num(c.stale_fetches) << ' ' << Num(c.unserved_fetches) << ' '
      << Num(c.fresh_fraction) << ' ' << Num(c.time_to_first_stale_seconds) << ' '
      << Num(c.outage_seconds) << ' ' << Num(c.outage_start_seconds) << ' '
      << Num(c.hard_down_seconds) << ' ' << Num(c.hard_down_start_seconds) << ' '
      << Num(c.peak_backlog_fetches) << ' ' << Num(c.served_bytes) << ' '
      << Num(c.bytes_per_client_hour) << ' ' << Num(c.full_doc_bytes_per_client_hour) << '\n';
  return out.str();
}

std::string Text(const std::vector<tordir::HealthAlert>& alerts) {
  std::string out;
  for (const tordir::HealthAlert& alert : alerts) {
    out += std::string("alert ") + tordir::HealthAlertName(alert.kind) + ' ' +
           List(alert.authorities) + ' ' + Num(alert.first_evidence_seconds) + ' ' +
           alert.detail + '\n';
  }
  return out;
}

}  // namespace

std::string Fingerprinter::DocumentDigest(const DocumentPtr& document) {
  if (document == nullptr) {
    return "-";
  }
  auto [it, inserted] = document_digests_.try_emplace(document);
  if (inserted) {
    it->second = tordir::ConsensusDigest(*document).ToHex() + "/" +
                 std::to_string(document->signatures.size());
  }
  return it->second;
}

std::string Fingerprinter::Of(const torscenario::ScenarioResult& r) {
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
      << DocumentDigest(r.consensus_document) << '\n';
  out << Text(r.client_availability) << Text(r.health_alerts);
  out << "faults " << r.byzantine_count << ' ' << r.faults_detected << ' '
      << Num(r.fault_detection_latency_seconds) << '\n';
  return Short(out.str());
}

std::string Fingerprinter::Of(const torscenario::ScenarioResult& round,
                              const torscenario::RoundSnapshot& s) {
  std::ostringstream out;
  out << Of(round) << " snapshot " << s.round << ' ' << s.succeeded << ' '
      << s.consensus_digest.ToHex() << ' ' << s.consensus_round << ' '
      << (s.consensus_text == nullptr ? std::string("-") : std::to_string(s.consensus_text->size()))
      << ' '
      << (s.diff_from_previous == nullptr ? std::string("-") : Short(*s.diff_from_previous))
      << ' ' << Num(s.backlog_fetches) << ' ' << s.fresh_at_boundary << ' ' << List(s.crashed);
  return Short(out.str());
}

std::string Fingerprinter::SummaryOf(const torscenario::TimelineResult& t) {
  std::ostringstream out;
  out << Text(t.client_availability) << Text(t.health_alerts);
  for (const torscenario::RejoinEvent& rejoin : t.rejoins) {
    out << "rejoin " << rejoin.node << ' ' << rejoin.round << ' ' << rejoin.rounds_behind << ' '
        << rejoin.cold << ' ' << rejoin.via_diff_chain << ' ' << rejoin.chain_refused << ' '
        << rejoin.bytes << '\n';
  }
  out << "totals " << t.successful_rounds << ' ' << t.undeliverable_messages << ' '
      << t.byzantine_injected << ' ' << t.byzantine_detected << ' '
      << Num(t.last_fault_cleared_seconds) << ' ' << Num(t.time_to_fresh_seconds) << ' '
      << Num(t.peak_retry_backlog) << ' ' << t.rejoin_bytes << '\n';
  return Short(out.str());
}

void Fingerprinter::AddTimeline(const std::string& prefix,
                                const torscenario::TimelineResult& timeline, Fingerprints& out) {
  for (size_t i = 0; i < timeline.rounds.size(); ++i) {
    char key[32];
    std::snprintf(key, sizeof(key), "/r%03zu", i);
    const torscenario::RoundSnapshot empty;
    out[prefix + key] =
        Of(timeline.rounds[i], i < timeline.snapshots.size() ? timeline.snapshots[i] : empty);
  }
  out[prefix + "/summary"] = SummaryOf(timeline);
}

bool Reference::Load(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    return false;
  }
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') {
      continue;
    }
    std::istringstream fields(line);
    std::string workload;
    uint64_t seed = 0;
    std::string key;
    std::string fingerprint;
    if (fields >> workload >> seed >> key >> fingerprint) {
      entries_[{workload, seed}][key] = fingerprint;
    }
  }
  return true;
}

const Fingerprints* Reference::Find(const std::string& workload, uint64_t seed) const {
  const auto it = entries_.find({workload, seed});
  return it == entries_.end() ? nullptr : &it->second;
}

std::vector<std::string> Mismatches(const Fingerprints& expected, const Fingerprints& actual) {
  std::vector<std::string> keys;
  for (const auto& [key, fingerprint] : expected) {
    const auto it = actual.find(key);
    if (it == actual.end() || it->second != fingerprint) {
      keys.push_back(key);
    }
  }
  for (const auto& [key, fingerprint] : actual) {
    if (expected.find(key) == expected.end()) {
      keys.push_back(key);
    }
  }
  return keys;
}

}  // namespace perfbench
