// Unit tests for src/crypto: SHA-256 against FIPS 180-4 / NIST vectors,
// HMAC-SHA256 against RFC 4231 vectors, Digest256 semantics and the simulated
// signature scheme's unforgeability-by-construction properties.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <string>
#include <unordered_set>
#include <vector>

#include "src/common/bytes.h"
#include "src/common/serialize.h"
#include "src/common/thread_pool.h"
#include "src/crypto/digest.h"
#include "src/crypto/hmac.h"
#include "src/crypto/sha256.h"
#include "src/crypto/sha256_batch.h"
#include "src/crypto/sha256_tree.h"
#include "src/crypto/signature.h"

namespace torcrypto {
namespace {

using torbase::Bytes;
using torbase::HexDecode;
using torbase::HexEncode;

std::string HashHex(std::string_view input) { return HexEncode(Sha256Digest(input)); }

TEST(Sha256Test, EmptyString) {
  EXPECT_EQ(HashHex(""), "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256Test, Abc) {
  EXPECT_EQ(HashHex("abc"), "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256Test, TwoBlockMessage) {
  EXPECT_EQ(HashHex("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256Test, FourBlockMessage) {
  EXPECT_EQ(HashHex("abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmno"
                    "ijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu"),
            "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1");
}

TEST(Sha256Test, MillionAs) {
  Sha256 ctx;
  const std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) {
    ctx.Update(chunk);
  }
  EXPECT_EQ(HexEncode(ctx.Finish()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256Test, IncrementalMatchesOneShot) {
  const std::string msg = "The quick brown fox jumps over the lazy dog";
  for (size_t split = 0; split <= msg.size(); ++split) {
    Sha256 ctx;
    ctx.Update(std::string_view(msg).substr(0, split));
    ctx.Update(std::string_view(msg).substr(split));
    EXPECT_EQ(ctx.Finish(), Sha256Digest(msg)) << "split at " << split;
  }
}

TEST(Sha256Test, ResetAllowsReuse) {
  Sha256 ctx;
  ctx.Update(std::string_view("garbage"));
  ctx.Finish();
  ctx.Reset();
  ctx.Update(std::string_view("abc"));
  EXPECT_EQ(HexEncode(ctx.Finish()),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256Test, PaddingBoundaries) {
  // Lengths around the 55/56/64-byte padding boundaries exercise the two-block
  // padding path. Compare the incremental API against itself at different
  // chunkings (self-consistency) plus a known 56-byte vector above.
  for (size_t len : {55u, 56u, 57u, 63u, 64u, 65u, 119u, 120u, 128u}) {
    const std::string msg(len, 'x');
    Sha256 a;
    a.Update(msg);
    Sha256 b;
    for (char c : msg) {
      b.Update(std::string_view(&c, 1));
    }
    EXPECT_EQ(a.Finish(), b.Finish()) << "len " << len;
  }
}

// Long-message vectors in the NIST long-message style (many blocks, lengths
// straddling the 64 KiB tree-leaf boundary). Expected digests were produced by
// an independent SHA-256 implementation (Python hashlib), not by this code.
std::string PatternMessage(size_t length) {
  std::string msg(length, '\0');
  for (size_t i = 0; i < length; ++i) {
    msg[i] = static_cast<char>((i * 7 + 3) & 0xFF);
  }
  return msg;
}

TEST(Sha256Test, LongMessages) {
  std::string l640;
  for (int i = 0; i < 80; ++i) l640 += "01234567";
  EXPECT_EQ(HashHex(l640), "594847328451bdfa85056225462cc1d867d877fb388df0ce35f25ab5562bfbb5");

  std::string l6400;
  for (int i = 0; i < 640; ++i) l6400 += "0123456789";
  EXPECT_EQ(HashHex(l6400), "abc1f6fb6106a253b34353c0122acf3355a2a1d26de96a51d0ac5c70d5b823d3");

  EXPECT_EQ(HashHex(std::string(100000, 'U')),
            "a8b8158fe9e60f80fd17d6915e86375266fb887dd33fbf408fd98dd4e9b5c463");

  EXPECT_EQ(HashHex(PatternMessage(3 * 65536 + 17)),
            "1695ce0b52d8faf8912dcfb2b13a287d11bec857415b99ff64adee24de04f4b4");
}

// Every chunking of a 3-block (192-byte) message: all two-Update splits, all
// three-Update splits, and every fixed chunk size. Pins the buffered/streaming
// boundary — exactly what a bulk-block compression refactor can silently
// break for inputs that arrive in awkward pieces.
TEST(Sha256Test, EveryChunkingOfThreeBlockMessage) {
  const std::string msg = PatternMessage(192);
  const auto expected = Sha256Digest(msg);
  const std::string_view view(msg);

  for (size_t i = 0; i <= msg.size(); ++i) {
    for (size_t j = i; j <= msg.size(); ++j) {
      Sha256 ctx;
      ctx.Update(view.substr(0, i));
      ctx.Update(view.substr(i, j - i));
      ctx.Update(view.substr(j));
      ASSERT_EQ(ctx.Finish(), expected) << "splits at " << i << "," << j;
    }
  }
  for (size_t chunk = 1; chunk <= msg.size(); ++chunk) {
    Sha256 ctx;
    for (size_t at = 0; at < msg.size(); at += chunk) {
      ctx.Update(view.substr(at, chunk));
    }
    ASSERT_EQ(ctx.Finish(), expected) << "chunk size " << chunk;
  }
}

// Every core the CPU supports must be byte-identical to scalar on all the
// boundary-exercising lengths (dispatch must be invisible).
TEST(Sha256Test, BackendsAreByteIdenticalToScalar) {
  std::vector<std::string> messages = {"", "abc", PatternMessage(192)};
  for (size_t len : {1u, 55u, 56u, 63u, 64u, 65u, 127u, 128u, 1000u, 100000u}) {
    messages.push_back(PatternMessage(len));
  }
  for (const Sha256Backend backend : {Sha256Backend::kShaNi, Sha256Backend::kAvx2x8}) {
    if (!Sha256BackendSupported(backend)) {
      GTEST_LOG_(INFO) << "skipping unsupported backend " << Sha256BackendName(backend);
      continue;
    }
    for (const auto& msg : messages) {
      EXPECT_EQ(Sha256DigestForBackend(backend, msg),
                Sha256DigestForBackend(Sha256Backend::kScalar, msg))
          << Sha256BackendName(backend) << " len " << msg.size();
    }
  }
}

TEST(Sha256Test, ActiveBackendIsSupported) {
  EXPECT_TRUE(Sha256BackendSupported(ActiveSha256Backend()));
  EXPECT_TRUE(Sha256BackendSupported(ActiveSha256BatchBackend()));
#ifdef TORCRYPTO_FORCE_SCALAR
  EXPECT_EQ(ActiveSha256Backend(), Sha256Backend::kScalar);
  EXPECT_EQ(ActiveSha256BatchBackend(), Sha256Backend::kScalar);
#endif
}

#if defined(GTEST_HAS_DEATH_TEST) && !defined(NDEBUG)
TEST(Sha256DeathTest, UpdateAfterFinishAsserts) {
  Sha256 ctx;
  ctx.Update(std::string_view("abc"));
  ctx.Finish();
  EXPECT_DEATH(ctx.Update(std::string_view("more")), "Finish");
}

TEST(Sha256DeathTest, DoubleFinishAsserts) {
  Sha256 ctx;
  ctx.Update(std::string_view("abc"));
  ctx.Finish();
  EXPECT_DEATH(ctx.Finish(), "Finish");
}
#endif  // GTEST_HAS_DEATH_TEST && !NDEBUG

// --- Sha256Batch -----------------------------------------------------------

// Lengths around every interesting boundary: empty, sub-block, block-aligned,
// the batch's 8-lane group size, and lengths forcing unequal per-lane tails.
std::vector<std::string> BatchMessages() {
  std::vector<std::string> messages;
  for (size_t len : {0u, 1u, 3u, 55u, 63u, 64u, 65u, 127u, 128u, 192u, 1000u, 4096u, 10000u}) {
    messages.push_back(PatternMessage(len));
  }
  for (size_t i = 0; i < 9; ++i) {  // spill past one 8-lane group
    messages.push_back(PatternMessage(100 + i * 37));
  }
  return messages;
}

TEST(Sha256BatchTest, MatchesPerMessageDigests) {
  const auto messages = BatchMessages();
  Sha256Batch batch;
  for (const auto& msg : messages) {
    batch.Add(std::string_view(msg));
  }
  const auto digests = batch.Finish();
  ASSERT_EQ(digests.size(), messages.size());
  for (size_t i = 0; i < messages.size(); ++i) {
    EXPECT_EQ(digests[i], Sha256Digest(messages[i])) << "message " << i;
  }
  EXPECT_EQ(batch.size(), 0u);  // Finish clears for reuse
}

TEST(Sha256BatchTest, AllBackendsMatchScalar) {
  const auto messages = BatchMessages();
  for (const Sha256Backend backend :
       {Sha256Backend::kScalar, Sha256Backend::kShaNi, Sha256Backend::kAvx2x8}) {
    if (!Sha256BackendSupported(backend)) {
      GTEST_LOG_(INFO) << "skipping unsupported backend " << Sha256BackendName(backend);
      continue;
    }
    Sha256Batch batch(backend);
    for (const auto& msg : messages) {
      batch.Add(std::string_view(msg));
    }
    const auto digests = batch.Finish();
    ASSERT_EQ(digests.size(), messages.size());
    for (size_t i = 0; i < messages.size(); ++i) {
      EXPECT_EQ(digests[i], Sha256Digest(messages[i]))
          << Sha256BackendName(backend) << " message " << i;
    }
  }
}

TEST(Sha256BatchTest, EmptyBatchAndReuse) {
  Sha256Batch batch;
  EXPECT_TRUE(batch.Finish().empty());
  batch.Add(std::string_view("abc"));
  const auto digests = batch.Finish();
  ASSERT_EQ(digests.size(), 1u);
  EXPECT_EQ(HexEncode(digests[0]),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

// --- tree digests ----------------------------------------------------------

// Roots for the fixed "sha256-tree-v1" shape, computed by an independent
// implementation of the documented construction (Python hashlib). These pin
// the tree's wire definition: leaf size, domain tag, LE64 length, fold order.
TEST(Sha256TreeTest, GoldenRoots) {
  EXPECT_EQ(HexEncode(Sha256TreeDigest(std::string_view(""))),
            "a7f232ba390d03aa4675c687bef1894b5343c61856d8a1346511659c79995c94");
  EXPECT_EQ(HexEncode(Sha256TreeDigest(std::string_view("abc"))),
            "913796a3b57b26ec4abe572be5b741e8c5f99a790764668fb1de7828c9ec9d66");
  EXPECT_EQ(HexEncode(Sha256TreeDigest(std::string_view(PatternMessage(3 * 65536 + 17)))),
            "5835605122b70e8b370c40e8dda5d93b83c1d16688daff5914bf807303e2f681");
}

TEST(Sha256TreeTest, TreeRootDiffersFromPlainDigest) {
  const std::string msg = "abc";
  EXPECT_NE(Sha256TreeDigest(std::string_view(msg)), Sha256Digest(msg));
}

TEST(Sha256TreeTest, StreamingMatchesOneShotAtAwkwardChunkings) {
  const std::string msg = PatternMessage(2 * 65536 + 12345);
  const auto expected = Sha256TreeDigest(std::string_view(msg));
  for (size_t chunk : {1u, 7u, 64u, 1000u, 65535u, 65536u, 65537u, 200000u}) {
    Sha256TreeHasher hasher;
    for (size_t at = 0; at < msg.size(); at += chunk) {
      hasher.Update(std::string_view(msg).substr(at, chunk));
    }
    ASSERT_EQ(hasher.Finish(), expected) << "chunk " << chunk;
  }
}

TEST(Sha256TreeTest, BitIdenticalAcrossThreadCounts) {
  const std::string msg = PatternMessage(5 * 65536 + 999);
  const auto serial = Sha256TreeDigest(std::string_view(msg));
  for (const unsigned threads : {1u, 2u, 8u}) {
    torbase::ThreadPool pool(threads);
    EXPECT_EQ(Sha256TreeDigest(std::string_view(msg), &pool), serial)
        << threads << " threads";
  }
}

TEST(HmacTest, Rfc4231Case1) {
  const Bytes key(20, 0x0b);
  const std::string data = "Hi There";
  const auto mac = HmacSha256(key, torbase::BytesOfString(data));
  EXPECT_EQ(HexEncode(mac), "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

TEST(HmacTest, Rfc4231Case2) {
  const Bytes key = torbase::BytesOfString("Jefe");
  const std::string data = "what do ya want for nothing?";
  const auto mac = HmacSha256(key, torbase::BytesOfString(data));
  EXPECT_EQ(HexEncode(mac), "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(HmacTest, Rfc4231Case3) {
  const Bytes key(20, 0xaa);
  const Bytes data(50, 0xdd);
  const auto mac = HmacSha256(key, data);
  EXPECT_EQ(HexEncode(mac), "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe");
}

TEST(HmacTest, Rfc4231Case6LongKey) {
  const Bytes key(131, 0xaa);
  const std::string data = "Test Using Larger Than Block-Size Key - Hash Key First";
  const auto mac = HmacSha256(key, torbase::BytesOfString(data));
  EXPECT_EQ(HexEncode(mac), "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

TEST(DigestTest, OfStringMatchesSha) {
  const auto d = Digest256::Of("abc");
  EXPECT_EQ(d.ToHex(), "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  EXPECT_EQ(d.ShortHex(), "ba7816bf");
}

TEST(DigestTest, DefaultIsZero) {
  Digest256 d;
  EXPECT_TRUE(d.IsZero());
  EXPECT_FALSE(Digest256::Of("x").IsZero());
}

TEST(DigestTest, OrderingAndEquality) {
  const auto a = Digest256::Of("a");
  const auto b = Digest256::Of("b");
  EXPECT_NE(a, b);
  EXPECT_EQ(a, Digest256::Of("a"));
  EXPECT_TRUE(a < b || b < a);
}

TEST(DigestTest, UsableInHashSet) {
  std::unordered_set<Digest256> set;
  set.insert(Digest256::Of("x"));
  set.insert(Digest256::Of("y"));
  set.insert(Digest256::Of("x"));
  EXPECT_EQ(set.size(), 2u);
  EXPECT_TRUE(set.count(Digest256::Of("y")) > 0);
}

class SignatureTest : public ::testing::Test {
 protected:
  KeyDirectory directory_{/*seed=*/42, /*node_count=*/9};
};

TEST_F(SignatureTest, SignVerifyRoundTrip) {
  const Signer signer = directory_.SignerFor(3);
  const Signature sig = signer.Sign(std::string("vote digest"));
  EXPECT_EQ(sig.signer, 3u);
  EXPECT_TRUE(directory_.Verify(std::string("vote digest"), sig));
}

// Sign and Verify keep each node's key with its pad blocks absorbed; the
// value must still be the scheme's definition over the RFC 4231-tested
// reference: HmacSha256 of 0x01 || message, then of 0x02 || message, under
// the node's derived secret. Lengths straddle the block and padding edges.
TEST_F(SignatureTest, SignEqualsTheTwoReferenceHmacs) {
  std::mt19937_64 rng(7);
  for (torbase::NodeId node = 0; node < directory_.node_count(); ++node) {
    torbase::Writer derivation;
    derivation.WriteU64(42);
    derivation.WriteU32(node);
    derivation.WriteString("partialtor-key-derivation");
    const auto secret = Sha256Digest(derivation.buffer());
    for (const size_t length : {0, 1, 31, 54, 55, 56, 63, 64, 65, 118, 119, 128, 300, 1000}) {
      Bytes message(length);
      for (uint8_t& byte : message) {
        byte = static_cast<uint8_t>(rng());
      }
      const Signature sig = directory_.SignerFor(node).Sign(message);
      for (uint8_t tag = 1; tag <= 2; ++tag) {
        Bytes tagged{tag};
        tagged.insert(tagged.end(), message.begin(), message.end());
        const auto reference = HmacSha256(secret, tagged);
        EXPECT_TRUE(std::equal(reference.begin(), reference.end(),
                               sig.bytes.begin() + 32 * (tag - 1)))
            << "node " << node << ", length " << length << ", half " << int{tag};
      }
      EXPECT_TRUE(directory_.Verify(message, sig));
    }
  }
}

TEST_F(SignatureTest, RejectsTamperedMessage) {
  const Signature sig = directory_.SignerFor(0).Sign(std::string("original"));
  EXPECT_FALSE(directory_.Verify(std::string("tampered"), sig));
}

TEST_F(SignatureTest, RejectsWrongClaimedSigner) {
  Signature sig = directory_.SignerFor(1).Sign(std::string("msg"));
  sig.signer = 2;  // claim someone else authored it
  EXPECT_FALSE(directory_.Verify(std::string("msg"), sig));
}

TEST_F(SignatureTest, RejectsFlippedBit) {
  Signature sig = directory_.SignerFor(4).Sign(std::string("msg"));
  sig.bytes[10] ^= 0x01;
  EXPECT_FALSE(directory_.Verify(std::string("msg"), sig));
}

TEST_F(SignatureTest, RejectsOutOfRangeSigner) {
  Signature sig = directory_.SignerFor(0).Sign(std::string("msg"));
  sig.signer = 99;
  EXPECT_FALSE(directory_.Verify(std::string("msg"), sig));
}

TEST_F(SignatureTest, DistinctNodesProduceDistinctSignatures) {
  const Signature a = directory_.SignerFor(0).Sign(std::string("msg"));
  const Signature b = directory_.SignerFor(1).Sign(std::string("msg"));
  EXPECT_NE(a.bytes, b.bytes);
}

TEST_F(SignatureTest, DeterministicAcrossDirectoryInstances) {
  KeyDirectory other(/*seed=*/42, /*node_count=*/9);
  const Signature a = directory_.SignerFor(5).Sign(std::string("msg"));
  const Signature b = other.SignerFor(5).Sign(std::string("msg"));
  EXPECT_EQ(a.bytes, b.bytes);
  EXPECT_TRUE(other.Verify(std::string("msg"), a));
}

TEST_F(SignatureTest, DifferentSeedsProduceIncompatibleKeys) {
  KeyDirectory other(/*seed=*/43, /*node_count=*/9);
  const Signature sig = directory_.SignerFor(5).Sign(std::string("msg"));
  EXPECT_FALSE(other.Verify(std::string("msg"), sig));
}

}  // namespace
}  // namespace torcrypto
