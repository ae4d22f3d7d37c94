// Single-shot HotStuff-style Byzantine agreement under partial synchrony
// (paper §3.3, §5.2.2; Yin et al., PODC'19).
//
// The engine decides ONE value among n nodes with f < n/3 Byzantine faults.
// Each view has a round-robin leader that drives three vote phases:
//
//   NEW_VIEW*  ->  PREPARE  ->  PREPARE_VOTE  ->  PRECOMMIT  ->
//   PRECOMMIT_VOTE  ->  COMMIT  ->  COMMIT_VOTE  ->  DECIDE
//
// Safety comes from the standard two-lock rule: nodes lock on a pre-commit
// quorum certificate and only vote for a conflicting value when shown a newer
// prepare QC. Liveness comes from the pacemaker: views time out, NEW_VIEW
// messages carry the highest prepare QC to the next leader, and after GST a
// correct leader whose proposal passes external validity decides in 5 rounds
// (matching the paper's Appendix B round accounting: 4 + 5 = 9 rounds for the
// full directory protocol).
//
// The engine is transport-agnostic: the owner (an Actor, or a test double)
// provides send/broadcast/timer callbacks plus two hooks that tie it to the
// dissemination sub-protocol:
//   * get_proposal() — the leader pulls its input value when its view starts;
//     returning nullopt means "not ready yet, keep waiting" (§5.2.1 step 2).
//   * validate()     — external validity of a proposed value (proof checking).
#ifndef SRC_CONSENSUS_HOTSTUFF_H_
#define SRC_CONSENSUS_HOTSTUFF_H_

#include <functional>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <tuple>

#include "src/common/bytes.h"
#include "src/common/ids.h"
#include "src/common/logging.h"
#include "src/common/serialize.h"
#include "src/common/time.h"
#include "src/consensus/quorum_cert.h"
#include "src/crypto/signature.h"
#include "src/sim/simulator.h"

namespace torbft {

using torbase::Bytes;
using torbase::Duration;
using torbase::NodeId;

// The largest number of byzantine nodes partial synchrony tolerates among n:
// f = floor((n - 1) / 3), so that n >= 3f + 1.
constexpr uint32_t FaultToleranceOf(uint32_t node_count) { return (node_count - 1) / 3; }

struct HotStuffConfig {
  uint32_t node_count = 9;

  // Two-phase commit path (Jolteon/Tendermint style, the variant the paper's
  // prototype builds on [17]): the leader turns a prepare QC directly into the
  // COMMIT broadcast, skipping the pre-commit phase. One round-trip faster in
  // the good case (6 message rounds instead of 8); the trade-off is the
  // classic one — after a view change a locked node's QC may take an extra
  // view to resurface, costing liveness (never safety). Default remains the
  // 3-phase textbook protocol.
  bool two_phase = false;

  // n - f signatures certify a phase.
  uint32_t Quorum() const { return node_count - FaultToleranceOf(node_count); }
};

class HotStuffNode {
 public:
  struct Callbacks {
    // Transport. `send` must support to == self (loopback).
    std::function<void(NodeId to, Bytes message)> send;
    // Timers.
    std::function<torsim::EventId(Duration, std::function<void()>)> set_timer;
    std::function<void(torsim::EventId)> cancel_timer;
    // Leader input: the value to propose, or nullopt if not ready yet.
    std::function<std::optional<Bytes>()> get_proposal;
    // External validity predicate for proposed values.
    std::function<bool(const Bytes& value)> validate;
    // Decision sink; called exactly once.
    std::function<void(const Bytes& value)> on_decide;
    // Simulated clock for log lines.
    std::function<torbase::TimePoint()> now;
  };

  HotStuffNode(NodeId id, const HotStuffConfig& config, const torcrypto::KeyDirectory* directory,
               Callbacks callbacks);

  // Enters view 1 and starts the pacemaker.
  void Start();

  // Feeds an inbound engine message. Returns false if the payload was not a
  // well-formed engine message (callers multiplexing several protocols can
  // route on their own tag byte before calling this).
  bool OnMessage(NodeId from, const Bytes& payload);

  // Signals that get_proposal() would now return a value; if this node is the
  // pending leader it proposes immediately (§5.2.1: "the leader waits for more
  // PROPOSAL messages before entering the agreement sub-protocol").
  void NotifyProposalReady();

  bool decided() const { return decided_value_.has_value(); }
  const std::optional<Bytes>& decided_value() const { return decided_value_; }
  View current_view() const { return current_view_; }

  NodeId LeaderOf(View view) const { return static_cast<NodeId>(view % config_.node_count); }

  torbase::Logger& log() { return log_; }

 private:
  enum MessageType : uint8_t {
    kNewView = 1,
    kPrepare = 2,
    kPrepareVote = 3,
    kPreCommit = 4,
    kPreCommitVote = 5,
    kCommit = 6,
    kCommitVote = 7,
    kDecide = 8,
  };

  // --- pacemaker ----------------------------------------------------------
  void EnterView(View view);
  void OnViewTimeout(View view);
  Duration TimeoutFor(View view) const;

  // --- leader side --------------------------------------------------------
  void MaybePropose();
  void BroadcastToAll(const Bytes& message);
  void HandleNewView(NodeId from, torbase::Reader& r);
  void HandleVote(NodeId from, MessageType type, torbase::Reader& r);

  // --- replica side -------------------------------------------------------
  void HandlePrepare(NodeId from, torbase::Reader& r);
  void HandlePreCommit(NodeId from, torbase::Reader& r);
  void HandleCommit(NodeId from, torbase::Reader& r);
  void HandleDecide(NodeId from, torbase::Reader& r);
  void SendVote(Phase phase, View view, const torcrypto::Digest256& digest, NodeId leader);
  void Decide(const Bytes& value);

  // Remembers a value by digest so later phases can recover it.
  void CacheValue(const Bytes& value);

  NodeId id_;
  HotStuffConfig config_;
  const torcrypto::KeyDirectory* directory_;
  torcrypto::Signer signer_;
  Callbacks callbacks_;
  torbase::Logger log_;

  View current_view_ = 0;
  torsim::EventId view_timer_ = torsim::kNoEvent;

  // Highest prepare QC seen (carried in NEW_VIEW; leaders re-propose it).
  std::optional<QuorumCert> prepare_qc_;
  // Lock: set when a pre-commit QC is seen.
  std::optional<QuorumCert> locked_qc_;
  // Commit QC backing the decision (re-served to stragglers).
  std::optional<QuorumCert> decide_qc_;
  std::optional<Bytes> decided_value_;

  // Leader state for the in-flight view.
  bool proposed_this_view_ = false;
  std::map<View, std::map<NodeId, std::optional<QuorumCert>>> new_views_;
  // Votes per (phase) for the current view, keyed by digest.
  struct VoteSet {
    std::map<NodeId, torcrypto::Signature> sigs;
  };
  std::map<std::tuple<uint8_t, View, torcrypto::Digest256>, VoteSet> votes_;
  bool sent_precommit_ = false;
  bool sent_commit_ = false;
  bool sent_decide_ = false;

  // Values seen, by digest (proposals survive view changes).
  std::map<torcrypto::Digest256, Bytes> values_;
  // Prepare digest voted in the current view (each phase votes once).
  std::set<std::tuple<uint8_t, View>> voted_;
};

}  // namespace torbft

#endif  // SRC_CONSENSUS_HOTSTUFF_H_
