// The deployed Tor directory protocol, version 3 (paper §3.1, Figure 4): four
// lock-step rounds of 150 s each, run once per hour.
//
//   round 1  [0, R)    Perform Vote    — post the vote to every authority
//   round 2  [R, 2R)   Fetch Votes     — ask every peer for missing votes
//   round 3  [2R, 3R)  Send Signature  — aggregate, sign, post the signature
//   round 4  [3R, 4R)  Fetch Signatures— ask every peer for missing signatures
//
// A consensus can be computed only with votes from a majority of authorities
// (5 of 9), and is valid only once a majority of authorities signed the same
// document. Individual directory transfers are abandoned when they exceed the
// per-request deadline (kDirRequestDeadline), which is how the DDoS attack of §4
// breaks the protocol: victims' bandwidth no longer moves a vote inside the
// deadline, fetch retries fail the same way, and consensus computation comes up
// short ("We don't have enough votes to generate a consensus: 4 of 5").
#ifndef SRC_PROTOCOLS_CURRENT_CURRENT_AUTHORITY_H_
#define SRC_PROTOCOLS_CURRENT_CURRENT_AUTHORITY_H_

#include <map>
#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/serialize.h"
#include "src/common/time.h"
#include "src/crypto/signature.h"
#include "src/protocols/authority_core.h"
#include "src/protocols/common.h"
#include "src/tordir/vote.h"

namespace torproto {

class CurrentAuthority : public AuthorityCore {
 public:
  // `directory` must outlive the actor. `materials` are shared and immutable
  // (see AuthorityMaterials); the scenario runner shares one set of
  // documents across every cell and run.
  CurrentAuthority(const torcrypto::KeyDirectory* directory, AuthorityMaterials materials);

  void Start() override;
  void OnMessage(NodeId from, const torbase::Bytes& payload) override;

  const AuthorityOutcome& outcome() const { return outcome_; }
  bool finished() const { return finished_; }

  PublishedConsensus Published() const override { return PublishedFrom(outcome_); }
  // Vote rounds' network time plus signature rounds' network time: the
  // signature phases start two rounds in, so the idle offset is subtracted.
  double NetworkTimeSeconds() const override {
    const double round_seconds = torbase::ToSeconds(kRoundLength);
    const double sig_time = torbase::ToSeconds(outcome_.finished_at) - 2 * round_seconds;
    return torbase::ToSeconds(outcome_.all_votes_received_at) + sig_time;
  }
  std::vector<NodeId> vote_senders() const override { return KeysOf(votes_); }

 private:
  enum MessageType : uint8_t {
    kVotePost = 1,
    kVoteRequest = 2,
    kVoteResponse = 3,
    kSigPost = 4,
    kSigRequest = 5,
    kSigResponse = 6,
  };

  void BeginVoteRound();
  void BeginFetchVotesRound();
  void BeginComputeRound();
  void BeginFetchSignaturesRound();
  void Finish();

  void HandleVotePost(NodeId from, torbase::Reader& reader);
  void HandleVoteRequest(NodeId from, torbase::Reader& reader);
  void HandleVoteResponse(NodeId from, torbase::Reader& reader);
  void HandleSigPost(NodeId from, torbase::Reader& reader);
  void HandleSigRequest(NodeId from, torbase::Reader& reader);
  void HandleSigResponse(NodeId from, torbase::Reader& reader);

  // Admits `text` (a view into the received frame) and stores its shared
  // copy if new and in range. Refusals are held against `culprit`: the wire
  // sender of a direct post, kNoNode for relayed fetch responses (the
  // middleman is not the author); stale votes against their own author.
  void AcceptVote(NodeId culprit, std::string_view text);
  void MaybeRecordVoteCompletion();

  // Votes received (and their serialized form, for re-serving fetches). The
  // documents are shared with the workload cache whenever the received bytes
  // match a canonical vote, so holding "a copy" of every vote costs pointers,
  // not megabytes.
  std::map<NodeId, std::shared_ptr<const tordir::VoteDocument>> votes_;
  std::map<NodeId, std::shared_ptr<const std::string>> vote_texts_;

  // Fetch bookkeeping: ids we asked for and when, to log give-ups.
  std::set<NodeId> outstanding_vote_fetches_;
  bool finished_ = false;

  AuthorityOutcome outcome_;
};

}  // namespace torproto

#endif  // SRC_PROTOCOLS_CURRENT_CURRENT_AUTHORITY_H_
