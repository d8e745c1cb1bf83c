// Tests for the Rabin–Williams cryptosystem.
#include <gtest/gtest.h>

#include "src/crypto/prng.h"
#include "src/crypto/rabin.h"

namespace {

using crypto::BigInt;
using crypto::Mgf1Sha1;
using crypto::Prng;
using crypto::RabinPrivateKey;
using crypto::RabinPublicKey;
using util::Bytes;
using util::BytesOf;

constexpr size_t kTestKeyBits = 512;  // Small for test speed; SFS uses 1024+.

// Shared key so each test doesn't regenerate primes.
const RabinPrivateKey& TestKey() {
  static const RabinPrivateKey kKey = [] {
    Prng prng(uint64_t{31});
    return RabinPrivateKey::Generate(&prng, kTestKeyBits);
  }();
  return kKey;
}

TEST(Mgf1Test, DeterministicAndLengthExact) {
  Bytes seed = BytesOf("seed");
  EXPECT_EQ(Mgf1Sha1(seed, 55).size(), 55u);
  EXPECT_EQ(Mgf1Sha1(seed, 55), Mgf1Sha1(seed, 55));
  // Prefix property: longer output extends shorter output.
  Bytes long_out = Mgf1Sha1(seed, 100);
  Bytes short_out = Mgf1Sha1(seed, 40);
  EXPECT_TRUE(std::equal(short_out.begin(), short_out.end(), long_out.begin()));
  EXPECT_NE(Mgf1Sha1(BytesOf("seed2"), 40), short_out);
}

TEST(RabinTest, GeneratedKeyHasExpectedShape) {
  const auto& key = TestKey();
  EXPECT_GE(key.public_key().BitLength(), kTestKeyBits - 2);
  // N ≡ 5 (mod 8) when p ≡ 3 and q ≡ 7 (mod 8).
  EXPECT_EQ((key.public_key().n() % BigInt(8)).Low64(), 5u);
}

TEST(RabinTest, SignVerifyRoundTrip) {
  const auto& key = TestKey();
  Bytes msg = BytesOf("authservers map public keys to credentials");
  Bytes sig = key.Sign(msg);
  EXPECT_TRUE(key.public_key().Verify(msg, sig).ok());
}

TEST(RabinTest, VerifyRejectsWrongMessage) {
  const auto& key = TestKey();
  Bytes sig = key.Sign(BytesOf("message one"));
  auto status = key.public_key().Verify(BytesOf("message two"), sig);
  EXPECT_EQ(status.code(), util::ErrorCode::kSecurityError);
}

TEST(RabinTest, VerifyRejectsTamperedSignature) {
  const auto& key = TestKey();
  Bytes msg = BytesOf("tamper me");
  Bytes sig = key.Sign(msg);
  for (size_t i : {size_t{0}, size_t{1}, size_t{2}, sig.size() / 2, sig.size() - 1}) {
    Bytes bad = sig;
    bad[i] ^= 0x01;
    EXPECT_FALSE(key.public_key().Verify(msg, bad).ok()) << "flip at " << i;
  }
}

TEST(RabinTest, VerifyRejectsWrongLength) {
  const auto& key = TestKey();
  Bytes msg = BytesOf("m");
  Bytes sig = key.Sign(msg);
  sig.pop_back();
  EXPECT_FALSE(key.public_key().Verify(msg, sig).ok());
}

TEST(RabinTest, SignaturesNotValidUnderOtherKey) {
  const auto& key = TestKey();
  Prng prng(uint64_t{32});
  RabinPrivateKey other = RabinPrivateKey::Generate(&prng, kTestKeyBits);
  Bytes msg = BytesOf("cross-key check");
  Bytes sig = key.Sign(msg);
  EXPECT_FALSE(other.public_key().Verify(msg, sig).ok());
}

TEST(RabinTest, ManyMessagesSignVerify) {
  const auto& key = TestKey();
  Prng prng(uint64_t{33});
  for (int i = 0; i < 25; ++i) {
    Bytes msg = prng.RandomBytes(1 + prng.RandomUint64(200));
    Bytes sig = key.Sign(msg);
    EXPECT_TRUE(key.public_key().Verify(msg, sig).ok()) << "iteration " << i;
  }
}

TEST(RabinTest, EncryptDecryptRoundTrip) {
  const auto& key = TestKey();
  Prng prng(uint64_t{34});
  Bytes msg = BytesOf("session key half KC1");
  auto ct = key.public_key().Encrypt(msg, &prng);
  ASSERT_TRUE(ct.ok());
  auto pt = key.Decrypt(ct.value());
  ASSERT_TRUE(pt.ok()) << pt.status().ToString();
  EXPECT_EQ(pt.value(), msg);
}

TEST(RabinTest, EncryptionIsRandomized) {
  const auto& key = TestKey();
  Prng prng(uint64_t{35});
  Bytes msg = BytesOf("same plaintext");
  auto c1 = key.public_key().Encrypt(msg, &prng);
  auto c2 = key.public_key().Encrypt(msg, &prng);
  ASSERT_TRUE(c1.ok() && c2.ok());
  EXPECT_NE(c1.value(), c2.value());
}

TEST(RabinTest, DecryptRejectsTamperedCiphertext) {
  const auto& key = TestKey();
  Prng prng(uint64_t{36});
  auto ct = key.public_key().Encrypt(BytesOf("secret"), &prng);
  ASSERT_TRUE(ct.ok());
  int failures = 0;
  for (int i = 0; i < 10; ++i) {
    Bytes bad = ct.value();
    bad[static_cast<size_t>(i) * bad.size() / 10] ^= 0x01;
    if (!key.Decrypt(bad).ok()) {
      ++failures;
    }
  }
  EXPECT_EQ(failures, 10);
}

TEST(RabinTest, EncryptRejectsOversizedPlaintext) {
  const auto& key = TestKey();
  Prng prng(uint64_t{37});
  Bytes big(key.public_key().MaxPlaintextBytes() + 1, 0x55);
  EXPECT_FALSE(key.public_key().Encrypt(big, &prng).ok());
  Bytes max(key.public_key().MaxPlaintextBytes(), 0x55);
  auto ct = key.public_key().Encrypt(max, &prng);
  ASSERT_TRUE(ct.ok());
  auto pt = key.Decrypt(ct.value());
  ASSERT_TRUE(pt.ok());
  EXPECT_EQ(pt.value(), max);
}

TEST(RabinTest, EmptyPlaintextRoundTrips) {
  const auto& key = TestKey();
  Prng prng(uint64_t{38});
  auto ct = key.public_key().Encrypt({}, &prng);
  ASSERT_TRUE(ct.ok());
  auto pt = key.Decrypt(ct.value());
  ASSERT_TRUE(pt.ok());
  EXPECT_TRUE(pt->empty());
}

TEST(RabinTest, PublicKeySerializationRoundTrip) {
  const auto& key = TestKey();
  Bytes wire = key.public_key().Serialize();
  auto parsed = RabinPublicKey::Deserialize(wire);
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(parsed.value() == key.public_key());
  Bytes msg = BytesOf("serialize check");
  EXPECT_TRUE(parsed->Verify(msg, key.Sign(msg)).ok());
}

TEST(RabinTest, PrivateKeySerializationRoundTrip) {
  const auto& key = TestKey();
  auto restored = RabinPrivateKey::Deserialize(key.Serialize());
  ASSERT_TRUE(restored.ok());
  Bytes msg = BytesOf("round trip");
  EXPECT_TRUE(key.public_key().Verify(msg, restored->Sign(msg)).ok());
  Prng prng(uint64_t{39});
  auto ct = key.public_key().Encrypt(BytesOf("x"), &prng);
  ASSERT_TRUE(ct.ok());
  EXPECT_TRUE(restored->Decrypt(ct.value()).ok());
}

TEST(RabinTest, DeserializeRejectsGarbage) {
  EXPECT_FALSE(RabinPublicKey::Deserialize({}).ok());
  EXPECT_FALSE(RabinPublicKey::Deserialize({1, 2, 3}).ok());
  EXPECT_FALSE(RabinPrivateKey::Deserialize({0, 0, 0}).ok());
  EXPECT_FALSE(RabinPrivateKey::Deserialize({0, 0, 0, 200, 1}).ok());
  // p = 3 and q = 15 have the right residues mod 8 but share the factor
  // 3, so q has no inverse mod p.
  EXPECT_FALSE(RabinPrivateKey::Deserialize({0, 0, 0, 1, 3, 0, 0, 0, 1, 15}).ok());
}

}  // namespace
