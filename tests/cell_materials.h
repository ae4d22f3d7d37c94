// Test helper: the AuthorityMaterials the scenario runner hands one cell's
// authorities — every vote shared with its serialized bytes, one vote cache
// over all of them, and one document store for the whole cell. Receivers then
// resolve the canonical votes to the very documents their authors hold, so an
// honest round's holders aggregate the same vote pointers and share one
// derived consensus.
#ifndef TESTS_CELL_MATERIALS_H_
#define TESTS_CELL_MATERIALS_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/crypto/digest.h"
#include "src/protocols/directory_protocol.h"
#include "src/protocols/document_store.h"
#include "src/tordir/dirspec.h"
#include "src/tordir/vote.h"

namespace torproto {

inline std::vector<AuthorityMaterials> CellMaterials(
    const std::vector<tordir::VoteDocument>& votes, const std::shared_ptr<DocumentStore>& store) {
  auto cache = std::make_shared<tordir::VoteCache>();
  std::vector<AuthorityMaterials> materials;
  for (const tordir::VoteDocument& vote : votes) {
    auto document = std::make_shared<const tordir::VoteDocument>(vote);
    auto text = std::make_shared<const std::string>(tordir::SerializeVote(*document));
    cache->Add(torcrypto::Digest256::Of(*text), tordir::CachedVote{document, text});
    materials.push_back(
        AuthorityMaterials{.vote = document, .vote_text = text, .document_store = store});
  }
  cache->Seal();
  for (AuthorityMaterials& m : materials) {
    m.vote_cache = cache;
  }
  return materials;
}

}  // namespace torproto

#endif  // TESTS_CELL_MATERIALS_H_
