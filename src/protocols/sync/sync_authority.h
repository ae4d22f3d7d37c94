// Luo et al.'s synchronous directory protocol (paper §3.1, Figure 5; IEEE S&P
// 2024): the baseline fix for the equivocation attack, still assuming bounded
// synchrony.
//
//   phase 1  [0, R)       Propose — every authority broadcasts its relay list.
//   phase 2  [R, 2R)      Vote    — every authority packs ALL lists it received
//                                    into one signed packed vote and broadcasts
//                                    it (the O(n^3 d) term of Table 1).
//   phase 3  [2R, 3R)     Synchronize — Dolev-Strong style agreement on the
//                                    designated sender's packed vote: f + 1
//                                    relay rounds of signature chains.
//   phase 4  [3R, 4R)     Signatures — compute the consensus from the agreed
//                                    packed vote, sign, and exchange signatures.
//
// Like the deployed protocol it runs in lock step, so the DDoS attack of §4
// breaks it the same way; its heavier vote phase additionally makes it fail at
// much smaller relay counts under constrained bandwidth (Figure 10). As a
// research prototype it has no per-request directory deadline — transfers are
// bounded only by their phase windows.
//
// Simplifications relative to a full Dolev-Strong implementation (documented
// in DESIGN.md): the relay rounds carry only the packed-vote digest plus the
// signature chain (contents travelled in phase 2), and chain acceptance does
// not enforce the per-round signature count — equivocation by the designated
// sender is still detected and nullifies the run.
//
// Authorities keep packed votes as lists of shared texts (a canonical list
// shares the workload's copy), not as n·d-byte copies, and send each list as
// a shared segment of the packed-vote frame, so a receiver reads the packer's
// own texts and recognises the workload's by pointer. A packed vote's digest,
// the SHA-256 of its exact wire encoding, comes from the cell's DocumentStore
// (an authority without one keeps a private store): it is streamed once per
// distinct packed vote, in practice the designated sender's, as the
// synchronize phase starts, and every holder reuses it at phase 4 to find the
// agreed one. A packed vote that does not decode exactly, repeats or
// overruns an author tag, or names a packer other than its sender is dropped
// on arrival.
#ifndef SRC_PROTOCOLS_SYNC_SYNC_AUTHORITY_H_
#define SRC_PROTOCOLS_SYNC_SYNC_AUTHORITY_H_

#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/common/serialize.h"
#include "src/common/time.h"
#include "src/crypto/digest.h"
#include "src/crypto/signature.h"
#include "src/protocols/authority_core.h"
#include "src/protocols/common.h"
#include "src/tordir/vote.h"

namespace torproto {

// A packed vote as kept: its wire encoding is the packer's id, the list
// count, then each list as its author tag and length-prefixed text.
struct PackedVote {
  NodeId packer = 0;
  DocumentStore::PackedLists lists;
};

struct SyncOutcome : ConsensusOutcome {
  bool decided = false;           // Dolev-Strong produced a unique packed vote
  uint32_t lists_in_agreed_vote = 0;

  torbase::TimePoint all_lists_received_at = torbase::kTimeNever;
  torbase::TimePoint all_packed_received_at = torbase::kTimeNever;
  torbase::TimePoint decided_at = torbase::kTimeNever;
};

class SyncAuthority : public AuthorityCore {
 public:
  // `directory` must outlive the actor; `materials` are shared and immutable
  // (see AuthorityMaterials).
  SyncAuthority(const torcrypto::KeyDirectory* directory, AuthorityMaterials materials);

  void Start() override;
  void OnMessage(NodeId from, const torbase::Frame& payload) override;

  const SyncOutcome& outcome() const { return outcome_; }
  bool finished() const { return finished_; }

  PublishedConsensus Published() const override { return PublishedFrom(outcome_); }
  // Propose, vote and signature rounds' network time, each net of the idle
  // rounds before it.
  double NetworkTimeSeconds() const override {
    const double round_seconds = torbase::ToSeconds(kRoundLength);
    const double list_time = torbase::ToSeconds(outcome_.all_lists_received_at);
    const double packed_time = torbase::ToSeconds(outcome_.all_packed_received_at) - round_seconds;
    const double sig_time = torbase::ToSeconds(outcome_.finished_at) - 3 * round_seconds;
    return list_time + packed_time + sig_time;
  }
  // Authorities whose relay lists (this protocol's vote documents) this one
  // holds.
  std::vector<NodeId> vote_senders() const override { return KeysOf(lists_); }

  // The designated Dolev-Strong sender.
  static constexpr NodeId kDesignatedSender = 0;
  // Number of relay rounds: f + 1 with f = majority tolerance of 4.
  static constexpr uint32_t kDsRounds = 5;

 private:
  enum MessageType : uint8_t {
    kProposePost = 1,
    kPackedVote = 2,
    kDsRelay = 3,
    kSigPost = 4,
  };

  void BeginProposePhase();
  void BeginVotePhase();
  void BeginSynchronizePhase();
  void DsRoundBoundary(uint32_t round);
  void BeginSignaturePhase();
  void Finish();

  void HandleProposePost(NodeId from, torbase::Reader& r);
  void HandlePackedVote(NodeId from, torbase::Reader& r);
  void HandleDsRelay(NodeId from, torbase::Reader& r);
  void HandleSigPost(NodeId from, torbase::Reader& r);

  // Decodes the `length`-byte packed vote `from` sent, straight from the
  // frame's reader, sharing canonical lists with the workload. nullopt unless
  // it decodes exactly (packed by `from`, at most n lists under distinct
  // in-range author tags, consuming exactly `length` bytes), so that
  // re-encoding it reproduces the received bytes and no author counts twice.
  // Requires length <= r.remaining().
  std::optional<PackedVote> DecodePacked(NodeId from, uint32_t length, torbase::Reader& r);

  // The byte string the Dolev-Strong chain signs.
  torbase::Bytes DsPayload(const torcrypto::Digest256& digest) const;

  // Phase 1 state: relay lists by author, shared with the workload text when
  // the received bytes match a canonical vote.
  std::map<NodeId, std::shared_ptr<const std::string>> lists_;
  bool vote_phase_started_ = false;

  // Phase 2 state: packed votes by sender, this authority's own included.
  std::map<NodeId, PackedVote> packed_votes_;
  bool ds_started_ = false;

  // Phase 3 state: accepted digests (extracted set) and the signature chains
  // pending relay at the next round boundary.
  std::set<torcrypto::Digest256> extracted_;
  std::map<torcrypto::Digest256, std::vector<torcrypto::Signature>> chains_;
  std::set<torcrypto::Digest256> relayed_;

  bool finished_ = false;

  SyncOutcome outcome_;
};

}  // namespace torproto

#endif  // SRC_PROTOCOLS_SYNC_SYNC_AUTHORITY_H_
