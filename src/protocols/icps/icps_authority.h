// The paper's directory protocol: Interactive Consistency under Partial
// Synchrony (§5.2), composed of three sub-protocols:
//
//   1. Dissemination — broadcast the vote document, collect peers' documents
//      (all n, or at least n - f after the timeout Δ), then broadcast a signed
//      PROPOSAL describing which digests were received.
//   2. Agreement — single-shot HotStuff over the certified digest vector
//      (H, π); the view leader assembles the vector from (n - f) proposals and
//      external validity checks the proofs.
//   3. Aggregation — fetch any documents named by the agreed vector that are
//      still missing (from their proof witnesses, one of which is correct),
//      aggregate with the standard Tor algorithm, sign, and collect a majority
//      of consensus signatures.
//
// Unlike the lock-step protocols there are no round deadlines: transfers may
// take arbitrarily long (the network may be under DDoS), and the protocol
// finishes shortly after connectivity returns — the property Figure 11
// measures.
#ifndef SRC_PROTOCOLS_ICPS_ICPS_AUTHORITY_H_
#define SRC_PROTOCOLS_ICPS_ICPS_AUTHORITY_H_

#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/common/time.h"
#include "src/consensus/hotstuff.h"
#include "src/protocols/icps/digest_vector.h"
#include "src/protocols/authority_core.h"
#include "src/protocols/common.h"
#include "src/protocols/directory_protocol.h"
#include "src/tordir/vote.h"

namespace toricc {

// Per-authority result probes, extending the shared consensus outcome with
// the agreement milestones.
struct IcpsOutcome : torproto::ConsensusOutcome {
  bool decided = false;           // agreement sub-protocol output
  uint32_t vector_non_empty = 0;  // |H_o| non-⟂ entries
  torbase::TimePoint decided_at = torbase::kTimeNever;
};

class IcpsAuthority : public torproto::AuthorityCore {
 public:
  // `directory` must outlive the actor; `materials` are shared and immutable
  // (see torproto::AuthorityMaterials). An equivocating authority's second
  // variant travels with its own digest and sender signature. Of `config`,
  // ICPS reads the dissemination wait Δ and the agreement commit path; n
  // comes from the network and f = floor((n - 1) / 3) from n.
  IcpsAuthority(const torproto::ProtocolRunConfig& config,
                const torcrypto::KeyDirectory* directory, torproto::AuthorityMaterials materials);

  void Start() override;
  void OnMessage(torbase::NodeId from, const torbase::Bytes& payload) override;

  const IcpsOutcome& outcome() const { return outcome_; }
  bool finished() const { return outcome_.valid_consensus; }

  torproto::PublishedConsensus Published() const override { return PublishedFrom(outcome_); }
  // ICPS has no idle lock-step rounds: network time is start-to-finish.
  double NetworkTimeSeconds() const override { return torbase::ToSeconds(outcome_.finished_at); }
  // Authorities whose vote documents this one holds (its own included).
  std::vector<torbase::NodeId> vote_senders() const override { return KeysOf(documents_); }
  std::optional<std::pair<uint64_t, torbase::NodeId>> agreement_view() const override;

 private:
  enum MessageType : uint8_t {
    // 1..8 reserved for the HotStuff engine.
    kDocument = 0x10,
    kProposal = 0x11,
    kDocRequest = 0x12,
    kDocResponse = 0x13,
    kConsensusSig = 0x14,
  };

  // --- dissemination -------------------------------------------------------
  void BroadcastDocument();
  void HandleDocument(torbase::NodeId from, torbase::Reader& r);
  void OnDisseminationTimeout();
  // Sends (or refreshes) our PROPOSAL once the wait rule is satisfied.
  void MaybeSendProposal();
  Proposal BuildOwnProposal() const;
  void HandleProposal(torbase::NodeId from, torbase::Reader& r);

  // --- agreement glue ------------------------------------------------------
  std::optional<torbase::Bytes> LeaderValue();
  bool ValidateValue(const torbase::Bytes& value);
  void OnDecide(const torbase::Bytes& value);

  // --- aggregation ---------------------------------------------------------
  void RequestMissingDocuments();
  void HandleDocRequest(torbase::NodeId from, torbase::Reader& r);
  void HandleDocResponse(torbase::NodeId from, torbase::Reader& r);
  void MaybeFinishAggregation();
  void HandleConsensusSig(torbase::NodeId from, torbase::Reader& r);
  // Counts `sig` (buffered until our own consensus exists).
  void AcceptConsensusSig(const torcrypto::Signature& sig);
  // ICPS's publish rule: publish as soon as a majority has signed.
  void PublishOnMajority();

  // Stores a received document (first version wins; a second, different
  // version is retained as equivocation evidence).
  void StoreDocument(torbase::NodeId sender, std::shared_ptr<const std::string> text,
                     const torcrypto::Digest256& digest, const torcrypto::Signature& sender_sig);

  torproto::ProtocolRunConfig config_;
  torcrypto::Digest256 own_digest_;

  // Documents received: sender -> (digest, text). First valid one wins; a
  // second, different digest from the same sender is kept as equivocation
  // evidence. Texts are shared with the workload cache whenever the received
  // bytes match a canonical vote.
  struct ReceivedDoc {
    torcrypto::Digest256 digest;
    std::shared_ptr<const std::string> text;
    torcrypto::Signature sender_sig;
  };
  std::map<torbase::NodeId, ReceivedDoc> documents_;
  std::map<torbase::NodeId, ReceivedDoc> equivocations_;  // second digests

  bool dissemination_timed_out_ = false;
  bool proposal_sent_ = false;

  // Proposals received (leader role).
  std::map<torbase::NodeId, Proposal> proposals_;

  std::optional<torbft::HotStuffNode> agreement_;
  std::optional<CertifiedVector> agreed_vector_;

  // Aggregation state.
  std::set<torbase::NodeId> pending_fetches_;
  // Signatures received before our own aggregation finished.
  std::vector<torcrypto::Signature> pending_consensus_sigs_;

  IcpsOutcome outcome_;
};

}  // namespace toricc

#endif  // SRC_PROTOCOLS_ICPS_ICPS_AUTHORITY_H_
