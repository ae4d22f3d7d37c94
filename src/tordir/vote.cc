#include "src/tordir/vote.h"

#include <algorithm>
#include <cassert>
#include <cstring>

namespace tordir {

void VoteDocument::SortRelays() {
  std::sort(relays.begin(), relays.end(), RelayOrder);
}

void ConsensusDocument::SortRelays() {
  std::sort(relays.begin(), relays.end(), RelayOrder);
}

void VoteCache::Add(const torcrypto::Digest256& digest, CachedVote vote) {
  assert(!sealed_ && "VoteCache is immutable once sealed");
  entries_.emplace_back(digest, std::move(vote));
}

void VoteCache::Seal() {
  std::sort(entries_.begin(), entries_.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  sealed_ = true;
}

const CachedVote* VoteCache::Find(const torcrypto::Digest256& digest) const {
  assert(sealed_ && "VoteCache must be sealed before lookup");
  const auto it = std::lower_bound(
      entries_.begin(), entries_.end(), digest,
      [](const auto& entry, const torcrypto::Digest256& d) { return entry.first < d; });
  if (it == entries_.end() || !(it->first == digest)) {
    return nullptr;
  }
  return &it->second;
}

const VoteCache::Entry* VoteCache::FindText(std::string_view text) const {
  assert(sealed_ && "VoteCache must be sealed before lookup");
  for (const Entry& entry : entries_) {
    const std::string& candidate = *entry.second.text;
    // A text read back out of this entry is the entry: skip the comparison.
    if (candidate.size() == text.size() &&
        (candidate.data() == text.data() ||
         std::memcmp(candidate.data(), text.data(), text.size()) == 0)) {
      return &entry;
    }
  }
  return nullptr;
}

}  // namespace tordir
