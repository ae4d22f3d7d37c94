#include "src/protocols/directory_protocol.h"

#include <cstdio>
#include <cstdlib>
#include <map>
#include <type_traits>

#include "src/protocols/icps/icps_authority.h"
#include "src/protocols/authority_core.h"
#include "src/protocols/common.h"
#include "src/protocols/current/current_authority.h"
#include "src/protocols/sync/sync_authority.h"
#include "src/tordir/dirspec.h"

namespace torproto {
namespace {

// The three built-ins ("current", "synchronous", "icps"): every probe reads
// the AuthorityCore they share, so they differ only in name and factory.
class BuiltinProtocol : public DirectoryProtocol {
 public:
  using Factory = std::unique_ptr<AuthorityCore> (*)(const ProtocolRunConfig& config,
                                                     const torcrypto::KeyDirectory* directory,
                                                     AuthorityMaterials materials);

  BuiltinProtocol(std::string_view name, std::string_view display_name, Factory factory)
      : name_(name), display_name_(display_name), factory_(factory) {}

  std::string_view name() const override { return name_; }
  std::string_view display_name() const override { return display_name_; }

  std::unique_ptr<torsim::Actor> MakeAuthority(const ProtocolRunConfig& config,
                                               const torcrypto::KeyDirectory* directory,
                                               torbase::NodeId /*id*/,
                                               AuthorityMaterials materials) const override {
    return factory_(config, directory, std::move(materials));
  }

  UnifiedOutcome ProbeOutcome(const torsim::Actor& actor) const override {
    const AuthorityCore& authority = Core(actor);
    const PublishedConsensus published = authority.Published();
    UnifiedOutcome unified;
    if (published.document == nullptr) {
      return unified;
    }
    unified.valid_consensus = true;
    unified.consensus_relays = published.document->relays.size();
    unified.network_time_seconds = authority.NetworkTimeSeconds();
    unified.finish_seconds = torbase::ToSeconds(published.published_at);
    return unified;
  }

  PublishedConsensus ProbeConsensus(const torsim::Actor& actor) const override {
    return Core(actor).Published();
  }

  // A built-in that assembled nothing this round echoes the round_state it
  // was restored with: a rejoining authority keeps serving what it fetched.
  AuthorityRoundState SnapshotAuthority(const torsim::Actor& actor) const override {
    AuthorityRoundState state = DirectoryProtocol::SnapshotAuthority(actor);
    const std::shared_ptr<const AuthorityRoundState>& restored = Core(actor).round_state();
    if (state.consensus == nullptr && restored != nullptr) {
      state = *restored;
      state.restored = true;
    }
    return state;
  }

  std::vector<torbase::NodeId> ProbeVoteSenders(const torsim::Actor& actor) const override {
    return Core(actor).vote_senders();
  }

  std::vector<ObservedVote> ProbeVoteObservations(const torsim::Actor& actor) const override {
    return Core(actor).observed_votes();
  }

  std::vector<RejectedVote> ProbeVoteRejects(const torsim::Actor& actor) const override {
    return Core(actor).rejected_votes();
  }

  std::optional<std::pair<uint64_t, torbase::NodeId>> AgreementView(
      const torsim::Actor& actor) const override {
    return Core(actor).agreement_view();
  }

 private:
  static const AuthorityCore& Core(const torsim::Actor& actor) {
    return static_cast<const AuthorityCore&>(actor);
  }

  std::string_view name_;
  std::string_view display_name_;
  Factory factory_;
};

// One factory per built-in: the lock-step protocols read n from the network
// and take no configuration; ICPS reads its Δ and commit path from `config`.
template <typename Authority>
std::unique_ptr<AuthorityCore> MakeBuiltin(const ProtocolRunConfig& config,
                                           const torcrypto::KeyDirectory* directory,
                                           AuthorityMaterials materials) {
  if constexpr (std::is_constructible_v<Authority, const ProtocolRunConfig&,
                                        const torcrypto::KeyDirectory*, AuthorityMaterials>) {
    return std::make_unique<Authority>(config, directory, std::move(materials));
  } else {
    return std::make_unique<Authority>(directory, std::move(materials));
  }
}

using ProtocolMap = std::map<std::string, std::unique_ptr<DirectoryProtocol>, std::less<>>;

ProtocolMap& Registry() {
  static ProtocolMap* registry = [] {
    auto* map = new ProtocolMap();
    for (auto* protocol :
         {new BuiltinProtocol("current", "Current", MakeBuiltin<CurrentAuthority>),
          new BuiltinProtocol("synchronous", "Synchronous", MakeBuiltin<SyncAuthority>),
          new BuiltinProtocol("icps", "Ours", MakeBuiltin<toricc::IcpsAuthority>)}) {
      (*map)[std::string(protocol->name())] = std::unique_ptr<DirectoryProtocol>(protocol);
    }
    return map;
  }();
  return *registry;
}

}  // namespace

AuthorityRoundState DirectoryProtocol::SnapshotAuthority(const torsim::Actor& actor) const {
  AuthorityRoundState state;
  const PublishedConsensus published = ProbeConsensus(actor);
  if (published.document != nullptr) {
    // The published document is immutable and shared, so the snapshot keeps
    // it past the round's harness without a copy.
    state.consensus = published.document;
    state.consensus_text =
        std::make_shared<const std::string>(tordir::SerializeConsensus(*state.consensus));
  }
  return state;
}

void RegisterProtocol(std::unique_ptr<DirectoryProtocol> protocol) {
  ProtocolMap& registry = Registry();
  registry[std::string(protocol->name())] = std::move(protocol);
}

const DirectoryProtocol* FindProtocol(std::string_view name) {
  ProtocolMap& registry = Registry();
  const auto it = registry.find(name);
  return it == registry.end() ? nullptr : it->second.get();
}

const DirectoryProtocol& GetProtocol(std::string_view name) {
  const DirectoryProtocol* protocol = FindProtocol(name);
  if (protocol == nullptr) {
    std::fprintf(stderr, "unknown directory protocol '%.*s'; registered:",
                 static_cast<int>(name.size()), name.data());
    for (const auto& entry : Registry()) {
      std::fprintf(stderr, " %s", entry.first.c_str());
    }
    std::fprintf(stderr, "\n");
    std::abort();
  }
  return *protocol;
}

std::vector<std::string> RegisteredProtocolNames() {
  std::vector<std::string> names;
  for (const auto& entry : Registry()) {
    names.push_back(entry.first);
  }
  return names;
}

}  // namespace torproto
