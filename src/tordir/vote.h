// Vote and consensus document models (dir-spec v3, as summarized in §3.1 of the
// paper). Text serialization lives in src/tordir/dirspec.h.
#ifndef SRC_TORDIR_VOTE_H_
#define SRC_TORDIR_VOTE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/common/ids.h"
#include "src/crypto/digest.h"
#include "src/crypto/signature.h"
#include "src/tordir/relay.h"

namespace tordir {

// One authority's status vote: its view of every relay it knows, plus the
// voting-schedule metadata.
struct VoteDocument {
  torbase::NodeId authority = torbase::kNoNode;
  std::string authority_nickname;
  uint64_t valid_after = 0;   // unix seconds
  uint64_t fresh_until = 0;   // consensus considered stale after this
  uint64_t valid_until = 0;   // consensus invalid after this (3 h horizon)
  std::vector<RelayStatus> relays;  // sorted by fingerprint

  void SortRelays();
  bool operator==(const VoteDocument&) const = default;
};

// The aggregated consensus document plus the authority signatures collected on
// it. A consensus is *valid* once it carries signatures from a majority of the
// authorities over the same digest (§4.2).
struct ConsensusDocument {
  uint64_t valid_after = 0;
  uint64_t fresh_until = 0;
  uint64_t valid_until = 0;
  uint32_t vote_count = 0;  // number of votes aggregated
  std::vector<RelayStatus> relays;

  // Signatures over UnsignedDigest(); not part of the digest itself.
  std::vector<torcrypto::Signature> signatures;

  void SortRelays();
  bool operator==(const ConsensusDocument&) const = default;
};

// --- parsed-vote cache -------------------------------------------------------
// A document together with its canonical serialized bytes, both shared and
// immutable. The scenario runner builds these once per workload; authorities
// hold references instead of private multi-megabyte copies.
struct CachedVote {
  std::shared_ptr<const VoteDocument> document;
  std::shared_ptr<const std::string> text;
};

// Immutable lookup of the workload's pre-parsed votes, by digest or by
// content. Honest authorities only ever exchange the workload's canonical
// vote bytes, so a receiver that finds them here skips ParseVote — and, with
// FindText, hashing too: a length check, then memcmp against each entry
// (other authorities' votes differ within their first lines, so a lookup
// costs about one full-length comparison). Byte-equal texts parse to
// identical documents. Misses (mutated or adversarial texts) fall back to
// hashing and parsing.
//
// Build with Add() then Seal(); lookups are const and safe to share across
// threads once sealed.
class VoteCache {
 public:
  using Entry = std::pair<torcrypto::Digest256, CachedVote>;

  // Pre-sizes the index for `count` upcoming Add() calls.
  void Reserve(size_t count) { entries_.reserve(count); }
  void Add(const torcrypto::Digest256& digest, CachedVote vote);
  void Seal();  // sorts the index; required before a lookup
  const CachedVote* Find(const torcrypto::Digest256& digest) const;
  // The entry whose text is exactly `text`, or null.
  const Entry* FindText(std::string_view text) const;
  // The same through a possibly-null cache; null on miss or without a cache.
  static const CachedVote* FindIn(const std::shared_ptr<const VoteCache>& cache,
                                  const torcrypto::Digest256& digest) {
    return cache == nullptr ? nullptr : cache->Find(digest);
  }
  static const Entry* FindTextIn(const std::shared_ptr<const VoteCache>& cache,
                                 std::string_view text) {
    return cache == nullptr ? nullptr : cache->FindText(text);
  }

 private:
  std::vector<Entry> entries_;
  bool sealed_ = false;
};

}  // namespace tordir

#endif  // SRC_TORDIR_VOTE_H_
