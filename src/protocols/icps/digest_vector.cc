#include "src/protocols/icps/digest_vector.h"

#include <set>

namespace toricc {
namespace {

bool DistinctSigners(const std::vector<torcrypto::Signature>& sigs, size_t minimum) {
  std::set<torbase::NodeId> signers;
  for (const auto& sig : sigs) {
    signers.insert(sig.signer);
  }
  return signers.size() >= minimum;
}

}  // namespace

Bytes EntryPayload(NodeId j, const std::optional<torcrypto::Digest256>& digest) {
  torbase::Writer w;
  w.WriteString("icps-entry");
  w.WriteU32(j);
  w.WriteBool(digest.has_value());
  if (digest.has_value()) {
    w.WriteRaw(digest->span());
  }
  return w.TakeBuffer();
}

void Proposal::Encode(torbase::Writer& w) const {
  w.WriteU32(proposer);
  w.WriteU32(static_cast<uint32_t>(entries.size()));
  for (const auto& entry : entries) {
    w.WriteBool(entry.digest.has_value());
    if (entry.digest.has_value()) {
      w.WriteRaw(entry.digest->span());
      torcrypto::WriteSignature(w, *entry.sender_sig);
    }
    torcrypto::WriteSignature(w, entry.proposer_sig);
  }
}

torbase::Result<Proposal> Proposal::Decode(torbase::Reader& r) {
  Proposal proposal;
  auto proposer = r.ReadU32();
  auto count = r.ReadU32();
  if (!proposer.ok() || !count.ok()) {
    return torbase::Status::InvalidArgument("truncated proposal header");
  }
  if (*count > 1024) {
    return torbase::Status::InvalidArgument("absurd proposal size");
  }
  proposal.proposer = *proposer;
  for (uint32_t j = 0; j < *count; ++j) {
    ProposalEntry entry;
    auto present = r.ReadBool();
    if (!present.ok()) {
      return present.status();
    }
    if (*present) {
      auto digest = torcrypto::ReadDigest(r);
      auto sender_sig = torcrypto::ReadSignature(r);
      if (!digest.ok() || !sender_sig.ok()) {
        return torbase::Status::InvalidArgument("truncated proposal entry");
      }
      entry.digest = *digest;
      entry.sender_sig = *sender_sig;
    }
    auto proposer_sig = torcrypto::ReadSignature(r);
    if (!proposer_sig.ok()) {
      return proposer_sig.status();
    }
    entry.proposer_sig = *proposer_sig;
    proposal.entries.push_back(std::move(entry));
  }
  return proposal;
}

bool Proposal::Verify(const torcrypto::KeyDirectory& directory, uint32_t node_count) const {
  if (proposer >= node_count || entries.size() != node_count) {
    return false;
  }
  for (NodeId j = 0; j < entries.size(); ++j) {
    const ProposalEntry& entry = entries[j];
    const Bytes payload = EntryPayload(j, entry.digest);
    if (entry.proposer_sig.signer != proposer ||
        !directory.Verify(payload, entry.proposer_sig)) {
      return false;
    }
    if (entry.digest.has_value()) {
      if (!entry.sender_sig.has_value() || entry.sender_sig->signer != j ||
          !directory.Verify(payload, *entry.sender_sig)) {
        return false;
      }
    }
  }
  return true;
}

size_t CertifiedVector::NonEmptyCount() const {
  size_t count = 0;
  for (const auto& entry : entries) {
    if (entry.NonEmpty()) {
      ++count;
    }
  }
  return count;
}

Bytes CertifiedVector::Encode() const {
  torbase::Writer w;
  w.WriteU32(static_cast<uint32_t>(entries.size()));
  for (const auto& entry : entries) {
    w.WriteU8(static_cast<uint8_t>(entry.kind));
    switch (entry.kind) {
      case VectorEntry::Kind::kOk: {
        w.WriteRaw(entry.digest->span());
        torcrypto::WriteSignature(w, *entry.sender_sig);
        w.WriteU32(static_cast<uint32_t>(entry.witness_sigs.size()));
        for (const auto& sig : entry.witness_sigs) {
          torcrypto::WriteSignature(w, sig);
        }
        break;
      }
      case VectorEntry::Kind::kEquivocation: {
        w.WriteRaw(entry.equivocation_a->span());
        w.WriteRaw(entry.equivocation_b->span());
        torcrypto::WriteSignature(w, *entry.equivocation_sig_a);
        torcrypto::WriteSignature(w, *entry.equivocation_sig_b);
        break;
      }
      case VectorEntry::Kind::kTimeout: {
        w.WriteU32(static_cast<uint32_t>(entry.witness_sigs.size()));
        for (const auto& sig : entry.witness_sigs) {
          torcrypto::WriteSignature(w, sig);
        }
        break;
      }
    }
  }
  return w.TakeBuffer();
}

torbase::Result<CertifiedVector> CertifiedVector::Decode(const Bytes& bytes) {
  torbase::Reader r(bytes);
  CertifiedVector vector;
  auto count = r.ReadU32();
  if (!count.ok()) {
    return count.status();
  }
  if (*count > 1024) {
    return torbase::Status::InvalidArgument("absurd vector size");
  }
  for (uint32_t j = 0; j < *count; ++j) {
    VectorEntry entry;
    auto kind = r.ReadU8();
    if (!kind.ok() || *kind < 1 || *kind > 3) {
      return torbase::Status::InvalidArgument("bad entry kind");
    }
    entry.kind = static_cast<VectorEntry::Kind>(*kind);
    switch (entry.kind) {
      case VectorEntry::Kind::kOk: {
        auto digest = torcrypto::ReadDigest(r);
        auto sender_sig = torcrypto::ReadSignature(r);
        auto sig_count = r.ReadU32();
        if (!digest.ok() || !sender_sig.ok() || !sig_count.ok() || *sig_count > 1024) {
          return torbase::Status::InvalidArgument("truncated OK entry");
        }
        entry.digest = *digest;
        entry.sender_sig = *sender_sig;
        for (uint32_t s = 0; s < *sig_count; ++s) {
          auto sig = torcrypto::ReadSignature(r);
          if (!sig.ok()) {
            return sig.status();
          }
          entry.witness_sigs.push_back(*sig);
        }
        break;
      }
      case VectorEntry::Kind::kEquivocation: {
        auto a = torcrypto::ReadDigest(r);
        auto b = torcrypto::ReadDigest(r);
        auto sig_a = torcrypto::ReadSignature(r);
        auto sig_b = torcrypto::ReadSignature(r);
        if (!a.ok() || !b.ok() || !sig_a.ok() || !sig_b.ok()) {
          return torbase::Status::InvalidArgument("truncated equivocation entry");
        }
        entry.equivocation_a = *a;
        entry.equivocation_b = *b;
        entry.equivocation_sig_a = *sig_a;
        entry.equivocation_sig_b = *sig_b;
        break;
      }
      case VectorEntry::Kind::kTimeout: {
        auto sig_count = r.ReadU32();
        if (!sig_count.ok() || *sig_count > 1024) {
          return torbase::Status::InvalidArgument("truncated timeout entry");
        }
        for (uint32_t s = 0; s < *sig_count; ++s) {
          auto sig = torcrypto::ReadSignature(r);
          if (!sig.ok()) {
            return sig.status();
          }
          entry.witness_sigs.push_back(*sig);
        }
        break;
      }
    }
    vector.entries.push_back(std::move(entry));
  }
  if (!r.AtEnd()) {
    return torbase::Status::InvalidArgument("trailing bytes after vector");
  }
  return vector;
}

bool CertifiedVector::Verify(const torcrypto::KeyDirectory& directory, uint32_t node_count,
                             uint32_t fault_tolerance) const {
  if (entries.size() != node_count) {
    return false;
  }
  const size_t witness_quorum = fault_tolerance + 1;
  for (NodeId j = 0; j < entries.size(); ++j) {
    const VectorEntry& entry = entries[j];
    switch (entry.kind) {
      case VectorEntry::Kind::kOk: {
        if (!entry.digest.has_value() || !entry.sender_sig.has_value()) {
          return false;
        }
        const Bytes payload = EntryPayload(j, entry.digest);
        if (entry.sender_sig->signer != j || !directory.Verify(payload, *entry.sender_sig)) {
          return false;
        }
        for (const auto& sig : entry.witness_sigs) {
          if (!directory.Verify(payload, sig)) {
            return false;
          }
        }
        if (!DistinctSigners(entry.witness_sigs, witness_quorum)) {
          return false;
        }
        break;
      }
      case VectorEntry::Kind::kEquivocation: {
        if (!entry.equivocation_a.has_value() || !entry.equivocation_b.has_value() ||
            *entry.equivocation_a == *entry.equivocation_b) {
          return false;
        }
        if (!entry.equivocation_sig_a.has_value() || entry.equivocation_sig_a->signer != j ||
            !directory.Verify(EntryPayload(j, entry.equivocation_a), *entry.equivocation_sig_a)) {
          return false;
        }
        if (!entry.equivocation_sig_b.has_value() || entry.equivocation_sig_b->signer != j ||
            !directory.Verify(EntryPayload(j, entry.equivocation_b), *entry.equivocation_sig_b)) {
          return false;
        }
        break;
      }
      case VectorEntry::Kind::kTimeout: {
        const Bytes payload = EntryPayload(j, std::nullopt);
        for (const auto& sig : entry.witness_sigs) {
          if (!directory.Verify(payload, sig)) {
            return false;
          }
        }
        if (!DistinctSigners(entry.witness_sigs, witness_quorum)) {
          return false;
        }
        break;
      }
    }
  }
  return NonEmptyCount() + fault_tolerance >= node_count;
}

std::optional<CertifiedVector> BuildCertifiedVector(const std::map<NodeId, Proposal>& proposals,
                                                    uint32_t node_count,
                                                    uint32_t fault_tolerance) {
  const size_t proposal_quorum = node_count - fault_tolerance;
  const size_t witness_quorum = fault_tolerance + 1;
  if (proposals.size() < proposal_quorum) {
    return std::nullopt;
  }

  CertifiedVector vector;
  vector.entries.resize(node_count);
  for (NodeId j = 0; j < node_count; ++j) {
    VectorEntry& out = vector.entries[j];

    // Group proposer signatures by claimed digest (nullopt key = ⟂ bucket).
    std::map<std::optional<torcrypto::Digest256>, std::vector<torcrypto::Signature>> buckets;
    std::map<torcrypto::Digest256, torcrypto::Signature> sender_sigs;
    for (const auto& [proposer, proposal] : proposals) {
      if (j >= proposal.entries.size()) {
        continue;
      }
      const ProposalEntry& entry = proposal.entries[j];
      buckets[entry.digest].push_back(entry.proposer_sig);
      if (entry.digest.has_value() && entry.sender_sig.has_value()) {
        sender_sigs.emplace(*entry.digest, *entry.sender_sig);
      }
    }

    // Rule b: any two sender-signed distinct digests prove equivocation.
    if (sender_sigs.size() >= 2) {
      auto it = sender_sigs.begin();
      const auto& [digest_a, sig_a] = *it;
      ++it;
      const auto& [digest_b, sig_b] = *it;
      out.kind = VectorEntry::Kind::kEquivocation;
      out.equivocation_a = digest_a;
      out.equivocation_b = digest_b;
      out.equivocation_sig_a = sig_a;
      out.equivocation_sig_b = sig_b;
      continue;
    }

    // Rule a: (f + 1) proposers vouch for the same digest.
    bool resolved = false;
    for (const auto& [digest, sigs] : buckets) {
      if (digest.has_value() && sigs.size() >= witness_quorum) {
        out.kind = VectorEntry::Kind::kOk;
        out.digest = *digest;
        out.sender_sig = sender_sigs.at(*digest);
        out.witness_sigs.assign(sigs.begin(), sigs.begin() + static_cast<long>(witness_quorum));
        resolved = true;
        break;
      }
    }
    if (resolved) {
      continue;
    }

    // Rule c: (f + 1) proposers saw nothing from j.
    auto bot = buckets.find(std::nullopt);
    if (bot != buckets.end() && bot->second.size() >= witness_quorum) {
      out.kind = VectorEntry::Kind::kTimeout;
      out.witness_sigs.assign(bot->second.begin(),
                              bot->second.begin() + static_cast<long>(witness_quorum));
      continue;
    }

    // Unresolvable entry: not enough evidence either way yet. Treat as an
    // unprovable timeout with whatever ⟂ signatures exist; readiness below
    // decides whether the vector can be used.
    out.kind = VectorEntry::Kind::kTimeout;
    if (bot != buckets.end()) {
      out.witness_sigs = bot->second;
    }
  }

  // Readiness: at least (n - f) non-⟂ entries, and every ⟂ entry must carry a
  // valid proof (equivocation or f+1 timeout signatures) for the vector to be
  // externally valid.
  if (vector.NonEmptyCount() < proposal_quorum) {
    return std::nullopt;
  }
  for (const auto& entry : vector.entries) {
    if (entry.kind == VectorEntry::Kind::kTimeout &&
        entry.witness_sigs.size() < witness_quorum) {
      return std::nullopt;  // cannot justify this ⟂ yet; wait for proposals
    }
  }
  return vector;
}

}  // namespace toricc
