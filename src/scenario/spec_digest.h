// Canonical scenario-spec digest: the key of the ScenarioRunner's result
// memo. SpecDigest writes the domain "scenario-spec-digest-v3", then every
// field of ScenarioSpec::Fields() through torbase::Describe
// (src/common/fields.h), and hashes the bytes with the repo's streaming
// SHA-256. The encoding carries no field tags: it is prefix-free, and its
// layout is fixed for each domain version.
//
// Coverage rule: two specs with equal digests MUST simulate identically,
// because the memo serves one cached result for both. Fields() names every
// member in a structured binding, so a member added without being listed
// fails to compile, and nested config (attack schedules via
// AttackSchedule::Describe, churn events, the byzantine and client-load specs)
// has compiler-checked lists too. Three rules on top:
//
//   * spec.name is left out of the tuple: a display label, never simulated,
//     which lets a timeline's quiet rounds ("week/round3", "week/round4", ...)
//     collapse into one simulation;
//   * previous_consensus enters as its framing digest (the signed tree digest
//     the diff codec pins documents with), so specs chaining from
//     byte-different baselines never collide;
//   * mutable per-run state (attack history) never enters.
#ifndef SRC_SCENARIO_SPEC_DIGEST_H_
#define SRC_SCENARIO_SPEC_DIGEST_H_

#include "src/crypto/digest.h"
#include "src/scenario/scenario.h"

namespace torscenario {

// Digest of `spec`'s canonical description. Pure; safe to call concurrently.
torcrypto::Digest256 SpecDigest(const ScenarioSpec& spec);

}  // namespace torscenario

#endif  // SRC_SCENARIO_SPEC_DIGEST_H_
