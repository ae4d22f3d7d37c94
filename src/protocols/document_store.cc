#include "src/protocols/document_store.h"

#include <algorithm>
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

}  // namespace torproto
