// The consensus every holder in a cell derives from its agreed votes, computed
// once per distinct vote list. In an honest round all n authorities aggregate
// the same votes with Tor's algorithm (Figure 2) and digest the same unsigned
// body; one DocumentStore per cell lets the first holder do that work and the
// others share it. Only wall-clock work is shared, so no result, wire byte or
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
// The store also hands out the signed consensus: one copy of a body per
// distinct signature list appended to it, keyed by the body's pointer and the
// full list in signer order. The holders of an honest lock-step round publish
// the same list and share one document; ICPS holders publish as soon as a
// majority signs, so holders whose counted sets differ get their own copies.
// The key never names the body alone: two holders with different signature
// lists must publish different documents.
//
// The store also interns the received vote texts that are not the workload's
// (a replayed, inflated, equivocated or malformed vote): one shared copy per
// distinct byte string, its SHA-256 and ParseVote's outcome, each computed on
// first need. Every receiver of a faulty text then holds the same text and,
// once it parses, the same document, so the identity keys above hit across
// holders too. The SHA-256 also stands for a faulty list in the synchronous
// protocol's agreed value (SyncAuthority::AgreedValue), so a cell hashes each
// such list once and a workload list never. Only the parse is shared, never a
// verdict: the validity-window check depends on the receiver's period and
// stays with the receiver (tordir::AdmitParsed). A parse is learned only by
// parsing; nothing registers a faulty authority's own document as its text's
// parse, which under kMalformedWire it is not.
//
// Not thread-safe: a store belongs to one cell and is only reached from that
// cell's thread (the threading contract in ROADMAP.md).
#ifndef SRC_PROTOCOLS_DOCUMENT_STORE_H_
#define SRC_PROTOCOLS_DOCUMENT_STORE_H_

#include <cstddef>
#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "src/crypto/digest.h"
#include "src/crypto/signature.h"
#include "src/tordir/admission.h"
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

  // `body` (unsigned, as Derive returns it) with `signatures` as its
  // signature list: the first call for that body pointer and that exact list
  // copies the body once, and later calls return the same document. The
  // reference stays valid as long as the store.
  const std::shared_ptr<const tordir::ConsensusDocument>& Signed(
      const std::shared_ptr<const tordir::ConsensusDocument>& body,
      std::vector<torcrypto::Signature> signatures);

  // Distinct signed documents built so far.
  size_t signed_documents() const { return signed_.size(); }

  // A received vote text that is not the workload's: the cell's shared copy
  // of its bytes, and what Digest and Parse computed for it so far.
  struct Received {
    std::shared_ptr<const std::string> text;
    std::optional<torcrypto::Digest256> digest = std::nullopt;
    std::optional<tordir::ParsedVote> parsed = std::nullopt;
  };

  // The entry whose bytes are exactly `text`, found by address, then length,
  // then content, and added with a copy of `text` on the first call for those
  // bytes. The reference stays valid as long as the store.
  Received& Intern(std::string_view text);
  // The entry's SHA-256 and its parse (tordir::ParseReceivedVote), each
  // computed on the first call for the entry.
  const torcrypto::Digest256& Digest(Received& received);
  const tordir::ParsedVote& Parse(Received& received);

  // Distinct received texts interned, and ParseVote runs over them, so far.
  size_t texts() const { return received_.size(); }
  size_t parses() const { return parses_; }

 private:
  struct Entry {
    Votes votes;
    Derived derived;
  };
  // Holds its body, so a freed body's address never comes back as a hit; the
  // document's own signature list is the rest of the key.
  struct SignedEntry {
    std::shared_ptr<const tordir::ConsensusDocument> body;
    std::shared_ptr<const tordir::ConsensusDocument> document;
  };
  // A cell has one distinct vote list per group of holders that admitted the
  // same votes (one in an honest round, a few in a byzantine one), at most n
  // signed documents and a few faulty texts, so a linear scan finds them; a
  // deque keeps returned references stable as entries are added.
  std::deque<Entry> entries_;
  std::deque<SignedEntry> signed_;
  std::deque<Received> received_;
  size_t parses_ = 0;
};

}  // namespace torproto

#endif  // SRC_PROTOCOLS_DOCUMENT_STORE_H_
