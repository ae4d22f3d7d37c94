#include "src/tordir/aggregate.h"

#include <algorithm>
#include <cstdint>
#include <span>

#include "src/common/stats.h"

namespace tordir {
namespace {

// A relay as listed by one vote, tagged with the voting authority.
struct Listing {
  torbase::NodeId authority;
  const RelayStatus* status;
};

// Reusable per-relay counting scratch: every container below is cleared (not
// freed) between relays, so after the first few relays the merge performs no
// heap allocations at all. Sizes are bounded by the authority count a (~9 in
// the paper, ≤ a few dozen in any sweep), never by the relay count n.
struct AggregateScratch {
  std::vector<Listing> listings;

  // Distinct popular-vote candidates for one interned-string field.
  struct ValueGroup {
    InternedString value;
    uint32_t count = 0;
    torbase::NodeId min_authority = 0;  // representative owner under aliasing
  };
  std::vector<ValueGroup> groups;

  // Bandwidth median scratch.
  std::vector<uint64_t> bandwidths;

  // Endpoint-tuple popular vote.
  struct EndpointGroup {
    const RelayStatus* representative = nullptr;
    uint32_t count = 0;
    torbase::NodeId best_authority = 0;
  };
  std::vector<EndpointGroup> endpoints;
};

// One merge cursor per vote. `pos` walks the vote's fingerprint-sorted relay
// list exactly once across the whole aggregation.
struct Cursor {
  const RelayStatus* pos = nullptr;
  const RelayStatus* end = nullptr;
  torbase::NodeId authority = 0;
};

// Popular vote over one interned-string field. Counting is pure id equality
// (hash-consing makes that byte equality); `cmp` is consulted only to merge
// comparator-equivalent aliases (e.g. "0.08" vs "0.8" under CompareVersions —
// the alias group keeps the lowest listing authority's spelling, an
// order-independent rule) and to break count ties towards the largest value.
template <typename Cmp>
InternedString PopularString(const std::vector<Listing>& listings,
                             InternedString RelayStatus::*field, Cmp cmp,
                             std::vector<AggregateScratch::ValueGroup>& groups) {
  groups.clear();
  for (const Listing& listing : listings) {
    const InternedString value = listing.status->*field;
    bool found = false;
    for (auto& group : groups) {
      if (group.value == value) {
        ++group.count;
        group.min_authority = std::min(group.min_authority, listing.authority);
        found = true;
        break;
      }
    }
    if (!found) {
      groups.push_back({value, 1, listing.authority});
    }
  }
  // Merge alias groups: distinct interned values the comparator considers
  // equal. Nonexistent in generated workloads, so the quadratic sweep over
  // ≤ a distinct values is effectively free.
  for (size_t i = 0; i + 1 < groups.size(); ++i) {
    for (size_t j = groups.size(); j-- > i + 1;) {
      if (cmp(groups[i].value.view(), groups[j].value.view()) == 0) {
        groups[i].count += groups[j].count;
        if (groups[j].min_authority < groups[i].min_authority) {
          groups[i].min_authority = groups[j].min_authority;
          groups[i].value = groups[j].value;
        }
        groups.erase(groups.begin() + static_cast<ptrdiff_t>(j));
      }
    }
  }
  // The first group leads until a later one beats it; comparing it with
  // itself could only return 0.
  const AggregateScratch::ValueGroup* best = &groups.front();
  for (const auto& group : std::span(groups).subspan(1)) {
    if (group.count > best->count ||
        (group.count == best->count && cmp(group.value.view(), best->value.view()) > 0)) {
      best = &group;
    }
  }
  return best->value;
}

int CompareLexicographic(std::string_view a, std::string_view b) { return a.compare(b); }

// Orders endpoint tuples the way the original std::map key
// (address, or_port, dir_port, published, microdesc_digest) did.
bool EndpointLess(const RelayStatus& a, const RelayStatus& b) {
  if (const int c = a.address.view().compare(b.address.view()); c != 0) {
    return c < 0;
  }
  if (a.or_port != b.or_port) {
    return a.or_port < b.or_port;
  }
  if (a.dir_port != b.dir_port) {
    return a.dir_port < b.dir_port;
  }
  if (a.published != b.published) {
    return a.published < b.published;
  }
  return a.microdesc_digest < b.microdesc_digest;
}

// Aggregates one relay's listings (Fig. 2 rules) into `out`, reusing
// `scratch` so the steady state allocates nothing.
void AggregateRelay(const std::vector<Listing>& listings, AggregateScratch& scratch,
                    RelayStatus& out) {
  out.fingerprint = listings.front().status->fingerprint;

  // Nickname: from the listing vote with the largest authority ID (Fig. 2).
  {
    const Listing* best = &listings.front();
    for (const auto& listing : listings) {
      if (listing.authority > best->authority) {
        best = &listing;
      }
    }
    out.nickname = best->status->nickname;
  }

  // Flags: per-flag strict majority among listing votes; ties unset.
  const size_t listing_count = listings.size();
  out.flags = 0;
  for (RelayFlag flag : kRelayFlagOrder) {
    size_t set_count = 0;
    for (const auto& listing : listings) {
      if (listing.status->HasFlag(flag)) {
        ++set_count;
      }
    }
    out.SetFlag(flag, 2 * set_count > listing_count);
  }

  // Version / protocols: popular vote, tie -> largest by version-aware
  // comparison. Exit policy: popular vote, tie -> lexicographically larger.
  out.version = PopularString(listings, &RelayStatus::version, CompareVersions, scratch.groups);
  out.protocols =
      PopularString(listings, &RelayStatus::protocols, CompareVersions, scratch.groups);
  out.exit_policy =
      PopularString(listings, &RelayStatus::exit_policy, CompareLexicographic, scratch.groups);

  // Bandwidth: median of Measured values where present, else of claimed.
  {
    scratch.bandwidths.clear();
    for (const auto& listing : listings) {
      if (listing.status->measured.has_value()) {
        scratch.bandwidths.push_back(*listing.status->measured);
      }
    }
    if (scratch.bandwidths.empty()) {
      for (const auto& listing : listings) {
        scratch.bandwidths.push_back(listing.status->bandwidth);
      }
    }
    out.bandwidth = torbase::MedianLowInPlace(scratch.bandwidths);
    out.measured.reset();
  }

  // Endpoint tuple (address, ports, published, microdesc digest): popular vote
  // over the whole tuple; tie -> value from the largest authority ID. Groups
  // from distinct authorities are disjoint, so (count, max authority) is a
  // total tie-break.
  {
    scratch.endpoints.clear();
    for (const auto& listing : listings) {
      const RelayStatus& s = *listing.status;
      bool found = false;
      for (auto& group : scratch.endpoints) {
        const RelayStatus& r = *group.representative;
        if (r.address == s.address && r.or_port == s.or_port && r.dir_port == s.dir_port &&
            r.published == s.published && r.microdesc_digest == s.microdesc_digest) {
          ++group.count;
          group.best_authority = std::max(group.best_authority, listing.authority);
          found = true;
          break;
        }
      }
      if (!found) {
        scratch.endpoints.push_back({&s, 1, listing.authority});
      }
    }
    const AggregateScratch::EndpointGroup* best = &scratch.endpoints.front();
    for (const auto& group : scratch.endpoints) {
      if (group.count > best->count ||
          (group.count == best->count && group.best_authority > best->best_authority) ||
          // A full tie (same count AND same max authority) only arises when
          // one vote lists a fingerprint twice; resolve towards the smallest
          // endpoint tuple so the result stays independent of input order,
          // exactly as the original tuple-keyed map iteration did.
          (group.count == best->count && group.best_authority == best->best_authority &&
           EndpointLess(*group.representative, *best->representative))) {
        best = &group;
      }
    }
    const RelayStatus& r = *best->representative;
    out.address = r.address;
    out.or_port = r.or_port;
    out.dir_port = r.dir_port;
    out.published = r.published;
    out.microdesc_digest = r.microdesc_digest;
  }
}

}  // namespace

ConsensusDocument ComputeConsensus(const std::vector<const VoteDocument*>& votes) {
  ConsensusDocument consensus;
  consensus.vote_count = static_cast<uint32_t>(votes.size());
  if (votes.empty()) {
    return consensus;
  }

  // Schedule metadata: medians across votes, robust against outlier clocks.
  {
    std::vector<uint64_t> scratch;
    scratch.reserve(votes.size());
    const auto median_of = [&votes, &scratch](uint64_t VoteDocument::*field) {
      scratch.clear();
      for (const auto* vote : votes) {
        scratch.push_back(vote->*field);
      }
      return torbase::MedianLowInPlace(scratch);
    };
    consensus.valid_after = median_of(&VoteDocument::valid_after);
    consensus.fresh_until = median_of(&VoteDocument::fresh_until);
    consensus.valid_until = median_of(&VoteDocument::valid_until);
  }

  // K-way merge over the votes' fingerprint-sorted relay lists: O(n·a) with a
  // linear min-scan over the ≤ a cursors per output relay, zero map nodes.
  // Votes are sorted by construction (SortRelays / the generator / the
  // serializer all maintain fingerprint order); a caller handing us an
  // unsorted vote gets a sorted shadow copy so the result stays
  // order-independent in every sense.
  std::vector<std::vector<RelayStatus>> sorted_shadows;
  std::vector<Cursor> cursors;
  cursors.reserve(votes.size());
  size_t total_listings = 0;
  for (const auto* vote : votes) {
    Cursor cursor;
    if (std::is_sorted(vote->relays.begin(), vote->relays.end(), RelayOrder)) {
      cursor.pos = vote->relays.data();
      cursor.end = vote->relays.data() + vote->relays.size();
    } else {
      sorted_shadows.emplace_back(vote->relays);
      std::sort(sorted_shadows.back().begin(), sorted_shadows.back().end(), RelayOrder);
      cursor.pos = sorted_shadows.back().data();
      cursor.end = cursor.pos + sorted_shadows.back().size();
    }
    cursor.authority = vote->authority;
    total_listings += vote->relays.size();
    cursors.push_back(cursor);
  }

  // The majority inclusion rule: a relay needs more than half of the votes.
  const size_t threshold = votes.size() / 2 + 1;
  // Upper bound on the output size: every included relay consumes at least
  // `threshold` listings. One reservation, no per-relay growth.
  consensus.relays.reserve(std::min(total_listings, total_listings / threshold + 1));

  AggregateScratch scratch;
  scratch.listings.reserve(votes.size() + 1);
  scratch.groups.reserve(votes.size() + 1);
  scratch.bandwidths.reserve(votes.size() + 1);
  scratch.endpoints.reserve(votes.size() + 1);

  for (;;) {
    const Fingerprint* min_fp = nullptr;
    for (const Cursor& cursor : cursors) {
      if (cursor.pos != cursor.end &&
          (min_fp == nullptr || cursor.pos->fingerprint < *min_fp)) {
        min_fp = &cursor.pos->fingerprint;
      }
    }
    if (min_fp == nullptr) {
      break;  // all cursors exhausted
    }
    const Fingerprint fp = *min_fp;  // copy: the owning cursor advances below
    scratch.listings.clear();
    for (Cursor& cursor : cursors) {
      while (cursor.pos != cursor.end && cursor.pos->fingerprint == fp) {
        scratch.listings.push_back({cursor.authority, cursor.pos});
        ++cursor.pos;
      }
    }
    if (scratch.listings.size() >= threshold) {
      consensus.relays.emplace_back();
      AggregateRelay(scratch.listings, scratch, consensus.relays.back());
    }
  }
  // The merge emits fingerprints in ascending order: already canonical.
  return consensus;
}

ConsensusDocument ComputeConsensus(const std::vector<VoteDocument>& votes) {
  std::vector<const VoteDocument*> ptrs;
  ptrs.reserve(votes.size());
  for (const auto& vote : votes) {
    ptrs.push_back(&vote);
  }
  return ComputeConsensus(ptrs);
}

}  // namespace tordir
