#include "src/consensus/quorum_cert.h"

#include <set>

namespace torbft {

torbase::Bytes VotePayload(Phase phase, View view, const torcrypto::Digest256& digest) {
  torbase::Writer w;
  w.WriteString("hotstuff-vote");
  w.WriteU8(static_cast<uint8_t>(phase));
  w.WriteU64(view);
  w.WriteRaw(digest.span());
  return w.TakeBuffer();
}

void QuorumCert::Encode(torbase::Writer& w) const {
  w.WriteU8(static_cast<uint8_t>(phase));
  w.WriteU64(view);
  w.WriteRaw(digest.span());
  w.WriteU32(static_cast<uint32_t>(signatures.size()));
  for (const auto& sig : signatures) {
    torcrypto::WriteSignature(w, sig);
  }
}

torbase::Result<QuorumCert> QuorumCert::Decode(torbase::Reader& r) {
  QuorumCert qc;
  auto phase = r.ReadU8();
  auto view = r.ReadU64();
  auto digest = torcrypto::ReadDigest(r);
  if (!phase.ok() || !view.ok() || !digest.ok()) {
    return torbase::Status::InvalidArgument("truncated quorum cert header");
  }
  if (*phase < 1 || *phase > 3) {
    return torbase::Status::InvalidArgument("bad phase");
  }
  qc.phase = static_cast<Phase>(*phase);
  qc.view = *view;
  qc.digest = *digest;
  auto count = r.ReadU32();
  if (!count.ok()) {
    return count.status();
  }
  if (*count > 1024) {
    return torbase::Status::InvalidArgument("absurd signature count");
  }
  for (uint32_t i = 0; i < *count; ++i) {
    auto sig = torcrypto::ReadSignature(r);
    if (!sig.ok()) {
      return sig.status();
    }
    qc.signatures.push_back(*sig);
  }
  return qc;
}

bool QuorumCert::Verify(const torcrypto::KeyDirectory& directory, uint32_t quorum) const {
  const torbase::Bytes payload = VotePayload(phase, view, digest);
  std::set<torbase::NodeId> signers;
  for (const auto& sig : signatures) {
    if (!directory.Verify(payload, sig)) {
      return false;
    }
    signers.insert(sig.signer);
  }
  return signers.size() >= quorum;
}

void EncodeOptionalQc(torbase::Writer& w, const std::optional<QuorumCert>& qc) {
  w.WriteBool(qc.has_value());
  if (qc.has_value()) {
    qc->Encode(w);
  }
}

torbase::Result<std::optional<QuorumCert>> DecodeOptionalQc(torbase::Reader& r) {
  auto present = r.ReadBool();
  if (!present.ok()) {
    return present.status();
  }
  if (!*present) {
    return std::optional<QuorumCert>{};
  }
  auto qc = QuorumCert::Decode(r);
  if (!qc.ok()) {
    return qc.status();
  }
  return std::optional<QuorumCert>{*qc};
}

}  // namespace torbft
