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
// The store also memoises the SHA-256 of each distinct packed vote (the
// synchronous protocol's vote of all n relay lists, tens of megabytes at 8k
// relays), under the same identity rule: the packer plus its ordered
// (author, text pointer) lists. Receivers that recognised the lists as the
// workload's texts hold the same pointers, so the agreed packed vote is
// streamed once per cell instead of once per holder.
//
// The store also interns the received vote texts that are not the workload's
// (a replayed, inflated, equivocated or malformed vote): one shared copy per
// distinct byte string, its SHA-256 and ParseVote's outcome, each computed on
// first need. Every receiver of a faulty text then holds the same text and,
// once it parses, the same document, so the identity keys above hit across
// holders too. Only the parse is shared, never a verdict: the validity-window
// check depends on the receiver's period and stays with the receiver
// (tordir::AdmitParsed). A parse is learned only by parsing; nothing
// registers a faulty authority's own document as its text's parse, which
// under kMalformedWire it is not.
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
#include <utility>
#include <vector>

#include "src/common/ids.h"
#include "src/crypto/digest.h"
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

  // A packed vote's relay lists as kept: (author tag, shared text), in packed
  // order.
  using PackedLists =
      std::vector<std::pair<torbase::NodeId, std::shared_ptr<const std::string>>>;

  // The digest of the packed vote `packer` built from `lists`: `stream()`
  // computes it on the first call for that packer and those text pointers in
  // that order, and later calls return that entry. The reference stays valid
  // as long as the store.
  template <typename Stream>
  const torcrypto::Digest256& PackedDigest(torbase::NodeId packer, const PackedLists& lists,
                                           Stream&& stream) {
    for (const PackedEntry& entry : packed_) {
      if (entry.packer == packer && entry.lists == lists) {
        return entry.digest;
      }
    }
    return packed_.emplace_back(PackedEntry{packer, lists, stream()}).digest;
  }

  // Distinct packed votes digested so far.
  size_t packed_digests() const { return packed_.size(); }

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
  struct PackedEntry {
    torbase::NodeId packer;
    PackedLists lists;
    torcrypto::Digest256 digest;
  };
  // A cell has one distinct vote list per group of holders that admitted the
  // same votes (one in an honest round, a few in a byzantine one), at most n
  // packed votes and a few faulty texts, so a linear scan finds them; a
  // deque keeps returned references stable as entries are added.
  std::deque<Entry> entries_;
  std::deque<PackedEntry> packed_;
  std::deque<Received> received_;
  size_t parses_ = 0;
};

}  // namespace torproto

#endif  // SRC_PROTOCOLS_DOCUMENT_STORE_H_
