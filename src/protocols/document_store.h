// The consensus every holder in a cell derives from its agreed votes, computed
// once per distinct vote list. In an honest round all n authorities aggregate
// the same votes with Tor's algorithm (Figure 2) and digest the same unsigned
// body; one DocumentStore per cell lets the first holder do that work and the
// others share it. Only wall-clock work is shared: every holder still copies
// the body before it appends its own signatures, so no result, wire byte or
// simulated instant depends on whether a store is shared.
//
// The key is the ordered list of vote *pointers*, not their content. Every
// entry keeps its votes alive, so while the store lives an address names one
// immutable document and a freed address can never come back as a false hit.
// Two equal-content documents at different addresses are different keys —
// a miss, never a wrong hit — and so is the same set in another order. An
// identity key names exactly the documents that were aggregated, which a
// digest of their wire bytes does not: a malformed-wire authority aggregates
// its own document while sending other bytes.
//
// Not thread-safe: a store belongs to one cell and is only reached from that
// cell's thread (the threading contract in ROADMAP.md).
#ifndef SRC_PROTOCOLS_DOCUMENT_STORE_H_
#define SRC_PROTOCOLS_DOCUMENT_STORE_H_

#include <cstddef>
#include <deque>
#include <memory>
#include <vector>

#include "src/crypto/digest.h"
#include "src/tordir/vote.h"

namespace torproto {

class DocumentStore {
 public:
  using Votes = std::vector<std::shared_ptr<const tordir::VoteDocument>>;

  // The unsigned consensus of one vote list and its ConsensusDigest.
  struct Derived {
    std::shared_ptr<const tordir::ConsensusDocument> body;
    torcrypto::Digest256 digest;
  };

  // The derived document of `votes`: tordir::ComputeConsensus and
  // tordir::ConsensusDigest run on the first call for a list, and later calls
  // with the same pointers in the same order return that entry. The reference
  // stays valid as long as the store.
  const Derived& Derive(const Votes& votes);

  // Distinct vote lists aggregated so far.
  size_t builds() const { return entries_.size(); }

 private:
  struct Entry {
    Votes votes;
    Derived derived;
  };
  // A cell has one to three distinct vote lists, so a linear scan finds them;
  // a deque keeps returned references stable as entries are added.
  std::deque<Entry> entries_;
};

}  // namespace torproto

#endif  // SRC_PROTOCOLS_DOCUMENT_STORE_H_
