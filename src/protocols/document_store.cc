#include "src/protocols/document_store.h"

#include <algorithm>
#include <cassert>
#include <string>
#include <utility>

#include "src/tordir/aggregate.h"
#include "src/tordir/dirspec.h"

namespace torproto {

const DocumentStore::Derived& DocumentStore::Derive(const Votes& votes) {
  for (const Entry& entry : entries_) {
    if (std::ranges::equal(entry.votes, votes)) {
      return entry.derived;
    }
  }
  std::vector<const tordir::VoteDocument*> vote_ptrs;
  vote_ptrs.reserve(votes.size());
  for (const auto& vote : votes) {
    vote_ptrs.push_back(vote.get());
  }
  auto body = std::make_shared<const tordir::ConsensusDocument>(tordir::ComputeConsensus(vote_ptrs));
  const torcrypto::Digest256 digest = tordir::ConsensusDigest(*body);
  return entries_.emplace_back(Entry{votes, Derived{std::move(body), digest}}).derived;
}

const std::shared_ptr<const tordir::ConsensusDocument>& DocumentStore::Signed(
    const std::shared_ptr<const tordir::ConsensusDocument>& body,
    std::vector<torcrypto::Signature> signatures) {
  assert(body->signatures.empty() && "Signed: the body is already signed");
  for (const SignedEntry& entry : signed_) {
    if (entry.body == body && entry.document->signatures == signatures) {
      return entry.document;
    }
  }
  auto document = std::make_shared<tordir::ConsensusDocument>(*body);
  document->signatures = std::move(signatures);
  return signed_.emplace_back(SignedEntry{body, std::move(document)}).document;
}

DocumentStore::Received& DocumentStore::Intern(std::string_view text) {
  for (Received& received : received_) {
    const std::string& held = *received.text;
    // A text read back out of this entry is the entry: skip the comparison.
    if (held.size() == text.size() && (held.data() == text.data() || held == text)) {
      return received;
    }
  }
  return received_.emplace_back(Received{.text = std::make_shared<const std::string>(text)});
}

const torcrypto::Digest256& DocumentStore::Digest(Received& received) {
  if (!received.digest.has_value()) {
    received.digest = torcrypto::Digest256::Of(*received.text);
  }
  return *received.digest;
}

const tordir::ParsedVote& DocumentStore::Parse(Received& received) {
  if (!received.parsed.has_value()) {
    received.parsed = tordir::ParseReceivedVote(*received.text);
    ++parses_;
  }
  return *received.parsed;
}

}  // namespace torproto
