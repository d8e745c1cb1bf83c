// Focused tests for session-key derivation, AuthInfo construction, and
// channel-cipher behavior under sustained use.
#include <gtest/gtest.h>

#include <vector>

#include "src/crypto/prng.h"
#include "src/crypto/sha1.h"
#include "src/sfs/pathname.h"
#include "src/sfs/session.h"

namespace {

using crypto::Prng;
using crypto::RabinPrivateKey;
using sfs::ChannelCipher;
using sfs::DeriveSessionKeys;
using sfs::SelfCertifyingPath;
using sfs::SessionKeys;
using util::Bytes;
using util::BytesOf;

constexpr size_t kKeyBits = 512;

struct Inputs {
  RabinPrivateKey server;
  RabinPrivateKey client;
  Bytes kc1, kc2, ks1, ks2;
};

Inputs MakeInputs(uint64_t seed) {
  Prng prng(seed);
  Inputs in{RabinPrivateKey::Generate(&prng, kKeyBits),
            RabinPrivateKey::Generate(&prng, kKeyBits),
            prng.RandomBytes(20), prng.RandomBytes(20), prng.RandomBytes(20),
            prng.RandomBytes(20)};
  return in;
}

SessionKeys Derive(const Inputs& in) {
  return DeriveSessionKeys(in.server.public_key(), in.client.public_key(), in.kc1, in.kc2,
                           in.ks1, in.ks2);
}

TEST(SessionKeysTest, EveryInputAffectsTheKeys) {
  Inputs base = MakeInputs(1);
  SessionKeys reference = Derive(base);

  // Flip each key-half: at least the corresponding directional key moves.
  {
    Inputs m = base;
    m.kc1[0] ^= 1;
    EXPECT_NE(Derive(m).kcs, reference.kcs);
    EXPECT_EQ(Derive(m).ksc, reference.ksc);  // kc1 feeds only kcs.
  }
  {
    Inputs m = base;
    m.kc2[0] ^= 1;
    EXPECT_EQ(Derive(m).kcs, reference.kcs);
    EXPECT_NE(Derive(m).ksc, reference.ksc);
  }
  {
    Inputs m = base;
    m.ks1[0] ^= 1;
    EXPECT_NE(Derive(m).kcs, reference.kcs);
  }
  {
    Inputs m = base;
    m.ks2[0] ^= 1;
    EXPECT_NE(Derive(m).ksc, reference.ksc);
  }
  // Different long-lived keys change everything.
  Inputs other = MakeInputs(2);
  other.kc1 = base.kc1;
  other.kc2 = base.kc2;
  other.ks1 = base.ks1;
  other.ks2 = base.ks2;
  EXPECT_NE(Derive(other).kcs, reference.kcs);
  EXPECT_NE(Derive(other).ksc, reference.ksc);
}

TEST(SessionKeysTest, SessionIdBindsBothDirections) {
  Inputs base = MakeInputs(3);
  SessionKeys keys = Derive(base);
  Bytes id = keys.SessionId();
  EXPECT_EQ(id.size(), 20u);
  SessionKeys swapped;
  swapped.kcs = keys.ksc;
  swapped.ksc = keys.kcs;
  EXPECT_NE(swapped.SessionId(), id);  // Direction labels matter.
}

TEST(SessionKeysTest, AuthInfoBindsPathAndSession) {
  Prng prng(uint64_t{4});
  auto key = RabinPrivateKey::Generate(&prng, kKeyBits);
  SelfCertifyingPath p1 = SelfCertifyingPath::For("a.example.com", key.public_key());
  SelfCertifyingPath p2 = SelfCertifyingPath::For("b.example.com", key.public_key());
  Bytes session1(20, 1);
  Bytes session2(20, 2);
  Bytes info = sfs::MakeAuthInfo(p1, session1);
  EXPECT_NE(sfs::MakeAuthInfo(p2, session1), info);  // Different server...
  EXPECT_NE(sfs::MakeAuthInfo(p1, session2), info);  // ...different session.
  EXPECT_EQ(sfs::MakeAuthId(info).size(), 20u);
  EXPECT_NE(sfs::MakeAuthId(info), sfs::MakeAuthId(sfs::MakeAuthInfo(p1, session2)));
}

TEST(ChannelCipherTest, SustainedTrafficStaysInSync) {
  Prng prng(uint64_t{5});
  Bytes key = prng.RandomBytes(20);
  ChannelCipher sender(key);
  ChannelCipher receiver(key);
  for (int i = 0; i < 500; ++i) {
    Bytes msg = prng.RandomBytes(prng.RandomUint64(300));
    auto opened = receiver.Open(sender.Seal(msg));
    ASSERT_TRUE(opened.ok()) << "message " << i;
    ASSERT_EQ(opened.value(), msg) << "message " << i;
  }
}

TEST(ChannelCipherTest, EmptyMessageRoundTrips) {
  Bytes key(20, 9);
  ChannelCipher sender(key);
  ChannelCipher receiver(key);
  auto opened = receiver.Open(sender.Seal({}));
  ASSERT_TRUE(opened.ok());
  EXPECT_TRUE(opened->empty());
}

TEST(ChannelCipherTest, SkippedMessageDesynchronizes) {
  // Losing one sealed message permanently desynchronizes the stream —
  // the property that makes replay/reorder attacks impossible, at the
  // cost that the session must be re-established after loss (TCP
  // semantics underneath make loss an endpoint failure, not a routine
  // event).
  Bytes key(20, 7);
  ChannelCipher sender(key);
  ChannelCipher receiver(key);
  Bytes m1 = sender.Seal(BytesOf("first"));
  Bytes m2 = sender.Seal(BytesOf("second"));
  (void)m1;  // Dropped in transit.
  EXPECT_FALSE(receiver.Open(m2).ok());
}

TEST(ChannelCipherTest, WireBytesArePinned) {
  // The sealed frames are the wire protocol: a Seal/Open pair that still
  // round-trips but frames, pads, MACs or encrypts differently would not
  // interoperate with a peer built from an earlier revision.  Sizes cover
  // the empty message, every residue of the XDR pad, the SHA-1 block
  // edges and a full NFS data chunk.
  const Bytes key = BytesOf("sfs wire-pin key 20B");
  ASSERT_EQ(key.size(), 20u);
  Prng prng(uint64_t{12});
  ChannelCipher sender(key);
  std::vector<Bytes> messages;
  std::vector<Bytes> frames;
  crypto::Sha1 wire;
  for (size_t size : {0, 1, 3, 4, 5, 63, 64, 65, 1000, 8192}) {
    messages.push_back(prng.RandomBytes(size));
    frames.push_back(sender.Seal(messages.back()));
    wire.Update(frames.back());
  }
  EXPECT_EQ(util::HexEncode(wire.Digest()), "b5334ea5e3a269ead3e33677ec7ec49a523eb382");

  // A failed Open rewinds the stream, so after a truncated, a bit-flipped
  // and a stale copy the genuine frame and the one after it still open.
  ChannelCipher receiver(key);
  for (size_t i = 0; i < frames.size(); ++i) {
    if (i > 0) {
      Bytes truncated(frames[i].begin(), frames[i].end() - 4);
      Bytes flipped = frames[i];
      flipped[flipped.size() / 2] ^= 0x10;
      EXPECT_FALSE(receiver.Open(truncated).ok()) << "frame " << i;
      EXPECT_FALSE(receiver.Open(flipped).ok()) << "frame " << i;
      EXPECT_FALSE(receiver.Open(frames[i - 1]).ok()) << "frame " << i;
    }
    auto opened = receiver.Open(frames[i]);
    ASSERT_TRUE(opened.ok()) << "frame " << i;
    EXPECT_EQ(opened.value(), messages[i]) << "frame " << i;
  }
}

TEST(NegotiationTest, WrongSizeServerHalvesRejected) {
  Prng prng(uint64_t{6});
  auto server_key = RabinPrivateKey::Generate(&prng, kKeyBits);
  auto negotiation = sfs::ClientNegotiation::Start(server_key.public_key(), &prng, kKeyBits);
  ASSERT_TRUE(negotiation.ok());
  // The "server" encrypts halves of the wrong size under the ephemeral
  // key; Finish must reject them even though decryption succeeds.
  auto bad_half = negotiation->ephemeral_key.public_key().Encrypt(Bytes(5, 1), &prng);
  ASSERT_TRUE(bad_half.ok());
  auto keys = negotiation->Finish(server_key.public_key(), bad_half.value(),
                                  bad_half.value());
  EXPECT_EQ(keys.status().code(), util::ErrorCode::kSecurityError);
}

TEST(NegotiationTest, ServerRejectsUndecryptableHalves) {
  Prng prng(uint64_t{7});
  auto server_key = RabinPrivateKey::Generate(&prng, kKeyBits);
  auto client_key = RabinPrivateKey::Generate(&prng, kKeyBits);
  size_t k = (server_key.public_key().BitLength() + 7) / 8;
  auto response = sfs::ServerNegotiation::Respond(
      server_key, client_key.public_key().Serialize(), prng.RandomBytes(k),
      prng.RandomBytes(k), &prng);
  EXPECT_FALSE(response.ok());
}

TEST(NegotiationTest, FullExchangeAgreesOnKeys) {
  Prng prng(uint64_t{8});
  auto server_key = RabinPrivateKey::Generate(&prng, kKeyBits);
  auto negotiation = sfs::ClientNegotiation::Start(server_key.public_key(), &prng, kKeyBits);
  ASSERT_TRUE(negotiation.ok());
  auto response = sfs::ServerNegotiation::Respond(
      server_key, negotiation->ephemeral_key.public_key().Serialize(),
      negotiation->enc_kc1, negotiation->enc_kc2, &prng);
  ASSERT_TRUE(response.ok());
  auto client_keys = negotiation->Finish(server_key.public_key(), response->enc_ks1,
                                         response->enc_ks2);
  ASSERT_TRUE(client_keys.ok());
  EXPECT_EQ(client_keys->kcs, response->keys.kcs);
  EXPECT_EQ(client_keys->ksc, response->keys.ksc);
  EXPECT_EQ(client_keys->SessionId(), response->keys.SessionId());
}

}  // namespace
