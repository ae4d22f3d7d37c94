// Result fingerprints: a short SHA-256 over a canonical text of every public
// field of a ScenarioResult / RoundSnapshot / TimelineResult. The benchmark
// pins one per cell and per round for seed 1 and a held-out seed
// (reference.txt); a mismatch or an abort counts as a failed operation.
#ifndef PERFBENCH_FINGERPRINT_H_
#define PERFBENCH_FINGERPRINT_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/scenario/scenario.h"
#include "src/scenario/timeline.h"

namespace perfbench {

// key -> fingerprint, e.g. "icps/rolling" or "current/r017".
using Fingerprints = std::map<std::string, std::string>;

class Fingerprinter {
 public:
  std::string Of(const torscenario::ScenarioResult& result);
  // One round of a timeline: its ScenarioResult plus the boundary snapshot.
  std::string Of(const torscenario::ScenarioResult& round, const torscenario::RoundSnapshot& snapshot);
  // Everything a timeline reports beyond its rounds.
  std::string SummaryOf(const torscenario::TimelineResult& timeline);

  // Adds "<prefix>/rNNN" per round and "<prefix>/summary" to `out`.
  void AddTimeline(const std::string& prefix, const torscenario::TimelineResult& timeline,
                   Fingerprints& out);

 private:
  // Memoised consensus digests: memo-served rounds share one document. Keys
  // hold their documents alive, so an address is never reused for another.
  using DocumentPtr = std::shared_ptr<const tordir::ConsensusDocument>;
  std::string DocumentDigest(const DocumentPtr& document);
  std::map<DocumentPtr, std::string> document_digests_;
};

// The pinned references: (workload, seed) -> fingerprints.
class Reference {
 public:
  // Lines of "<workload> <seed> <key> <fingerprint>"; '#' starts a comment.
  // Returns false when the file cannot be read.
  bool Load(const std::string& path);
  // Null when nothing is pinned for this workload and seed.
  const Fingerprints* Find(const std::string& workload, uint64_t seed) const;

 private:
  std::map<std::pair<std::string, uint64_t>, Fingerprints> entries_;
};

// Keys whose fingerprint differs between `expected` and `actual`, or that are
// missing from either.
std::vector<std::string> Mismatches(const Fingerprints& expected, const Fingerprints& actual);

}  // namespace perfbench

#endif  // PERFBENCH_FINGERPRINT_H_
