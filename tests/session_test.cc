// Focused tests for session-key derivation, AuthInfo construction, and
// channel-cipher behavior under sustained use.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/crypto/prng.h"
#include "src/crypto/sha1.h"
#include "src/sfs/pathname.h"
#include "src/sfs/proto.h"
#include "src/sfs/session.h"
#include "src/sim/network.h"
#include "src/xdr/xdr.h"

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

TEST(ChannelCipherTest, NonzeroPadUnderAValidMacIsRefused) {
  // The pad sits under the MAC, so only Open's zero-pad check can refuse
  // it.  `craft` is Seal done by hand: the MAC key from the first 32
  // keystream bytes, the MAC over length, message and pad, then all of it
  // encrypted; only the pad byte is a parameter.
  const Bytes key = BytesOf("sfs pad-check key 20");
  ASSERT_EQ(key.size(), 20u);
  const Bytes message = BytesOf("x");  // One byte, so three pad bytes.
  auto craft = [&](uint8_t pad) {
    crypto::Arc4 stream(key);
    uint8_t mac_key[32] = {};
    stream.Crypt(mac_key, sizeof(mac_key));
    Bytes frame = {0, 0, 0, 1, 'x', 0, pad, 0};
    Bytes mac(crypto::kSha1DigestSize);
    crypto::HmacSha1(mac_key, sizeof(mac_key), frame.data(), frame.size(), mac.data());
    util::Append(&frame, mac);
    stream.Crypt(&frame);
    return frame;
  };
  // With a zero pad the hand-made frame is Seal's own, so the forgery's
  // MAC is valid and differs from the genuine frame only in the pad.
  ASSERT_EQ(craft(0), ChannelCipher(key).Seal(message));

  ChannelCipher receiver(key);
  auto forged = receiver.Open(craft(0x5a));
  ASSERT_FALSE(forged.ok()) << "a nonzero pad under a valid MAC opened";
  EXPECT_EQ(forged.status().code(), util::ErrorCode::kSecurityError);
  // The refusal rewound the stream: the first frame a fresh sender seals
  // still opens.
  auto opened = receiver.Open(ChannelCipher(key).Seal(message));
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  EXPECT_EQ(opened.value(), message);
}

// --- ChannelTransport: in-order opening over an out-of-order wire ----------

// Never reached: the tests below hand frames to the transport directly.
class UnusedService : public sim::Service {
 public:
  util::Result<Bytes> Handle(Bytes) override { return util::Unavailable("unused"); }
};

class ChannelTransportTest : public ::testing::Test {
 protected:
  ChannelTransportTest()
      : link_(&clock_, sim::LinkProfile::Tcp(), &service_, &registry_),
        channel_(&link_, &costs_, &registry_, std::make_unique<ChannelCipher>(kcs_),
                 std::make_unique<ChannelCipher>(ksc_)),
        server_seal_(ksc_) {}

  // The server's reply frame for `seqno` (whose xid is the seqno too),
  // sealed at the server's next keystream position.
  Bytes ServerReply(uint32_t seqno) {
    xdr::Encoder body;
    body.PutUint32(seqno);
    body.PutUint32(0);  // Accepted.
    body.PutOpaque(BytesOf("results " + std::to_string(seqno)));
    xdr::Encoder frame;
    frame.PutUint32(seqno);
    frame.PutOpaque(server_seal_.Seal(body.Take()));
    return sfs::FrameMessage(sfs::kMsgEncrypted, frame.Take());
  }

  // Unframes `message` and returns the xids it released; -1 marks a
  // discarded message.
  std::vector<int64_t> Deliver(const Bytes& message) {
    std::vector<int64_t> xids;
    std::vector<util::Result<Bytes>> replies;
    channel_.Unframe(message, [](uint32_t) { return obs::SpanContext{}; }, &replies);
    for (util::Result<Bytes>& reply : replies) {
      if (!reply.ok()) {
        xids.push_back(-1);
        continue;
      }
      xdr::Decoder dec(std::move(reply).value());
      xids.push_back(dec.GetUint32().value());
    }
    return xids;
  }

  const Bytes kcs_ = Bytes(20, 0x11);
  const Bytes ksc_ = Bytes(20, 0x22);
  sim::Clock clock_;
  sim::CostModel costs_;
  obs::Registry registry_;
  UnusedService service_;
  sim::Link link_;
  sfs::ChannelTransport channel_;
  ChannelCipher server_seal_;
};

TEST_F(ChannelTransportTest, RepliesOpenInSeqnoOrderWhateverTheArrivalOrder) {
  for (uint32_t seqno = 1; seqno <= 3; ++seqno) {
    channel_.Frame(seqno, BytesOf("call"));
  }
  const Bytes r1 = ServerReply(1);
  const Bytes r2 = ServerReply(2);
  const Bytes r3 = ServerReply(3);
  // Early replies are held, not opened: the keystream is at seqno 1.
  EXPECT_TRUE(Deliver(r3).empty());
  EXPECT_TRUE(Deliver(r2).empty());
  // The gap fills and everything held opens, in seqno order — whether or
  // not a call still waits for it, so no reply wedges the ones behind it.
  EXPECT_EQ(Deliver(r1), (std::vector<int64_t>{1, 2, 3}));
  // A duplicate of an opened reply is discarded unread.
  EXPECT_EQ(Deliver(r2), (std::vector<int64_t>{-1}));
}

TEST_F(ChannelTransportTest, DiscardsLeaveTheCursorForTheGenuineReply) {
  channel_.Frame(1, BytesOf("call"));
  const Bytes reply = ServerReply(1);
  // A reply for a seqno never sent is not held.
  EXPECT_EQ(Deliver(ServerReply(2)), (std::vector<int64_t>{-1}));
  // A tampered copy fails to open; the receive keystream stays put.
  Bytes tampered = reply;
  tampered.back() ^= 0x01;
  EXPECT_EQ(Deliver(tampered), (std::vector<int64_t>{-1}));
  EXPECT_EQ(Deliver(reply), (std::vector<int64_t>{1}));
}

// --- The sealed frame parser, one check at a time ---------------------------

// One structured edit of a channel frame {type, payload length, seqno,
// body length, body, pad} and the status each receiver answers it with:
// ChannelServerCodec::Open for a call frame, ChannelTransport::Unframe
// for a reply frame, sealed and in the cleartext ablation.  kOk accepts
// (the server defers a seqno ahead of its cursor with an empty body).
struct FrameCase {
  const char* name;
  std::function<void(Bytes*)> edit;
  util::ErrorCode sealed_server;
  util::ErrorCode sealed_client;
  util::ErrorCode clear_server;
  util::ErrorCode clear_client;
};

std::function<void(Bytes*)> SetWord(int word, uint32_t value) {
  return [=](Bytes* frame) {
    for (int k = 0; k < 4; ++k) {
      (*frame)[4 * word + k] = static_cast<uint8_t>(value >> (24 - 8 * k));
    }
  };
}

std::function<void(Bytes*)> AddToWord(int word, int32_t delta) {
  return [=](Bytes* frame) {
    const uint32_t value = xdr::PeekUint32(*frame, 4 * word).value();
    SetWord(word, value + static_cast<uint32_t>(delta))(frame);
  };
}

std::function<void(Bytes*)> Then(std::function<void(Bytes*)> first,
                                 std::function<void(Bytes*)> second) {
  return [=](Bytes* frame) {
    first(frame);
    second(frame);
  };
}

std::function<void(Bytes*)> SetLastByte(uint8_t value) {
  return [=](Bytes* frame) { frame->back() = value; };
}

std::function<void(Bytes*)> Append(size_t count) {
  return [=](Bytes* frame) { frame->resize(frame->size() + count, 0); };
}

std::function<void(Bytes*)> TruncateTo(size_t size) {
  return [=](Bytes* frame) { frame->resize(size); };
}

std::function<void(Bytes*)> DropLast(size_t count) {
  return [=](Bytes* frame) { frame->resize(frame->size() - count); };
}

TEST(ChannelFrameTest, EveryParserCheckAnswersWithItsStatus) {
  using util::ErrorCode;
  constexpr ErrorCode K = ErrorCode::kOk;
  constexpr ErrorCode I = ErrorCode::kInvalidArgument;
  constexpr ErrorCode S = ErrorCode::kSecurityError;
  constexpr ErrorCode U = ErrorCode::kUnavailable;
  constexpr uint32_t kTooBig = (1u << 26) + 1;  // One past the 64 MiB opaque cap.
  enum Word { kType, kPayloadLength, kSeqno, kBodyLength };
  const std::vector<FrameCase> cases = {
      {"intact", [](Bytes*) {}, K, K, K, K},
      {"type+1", AddToWord(kType, 1), S, S, S, S},
      {"type-1", AddToWord(kType, -1), S, S, S, S},
      {"type+4", AddToWord(kType, 4), S, S, S, S},
      {"type-4", AddToWord(kType, -4), S, S, S, S},
      {"type=0", SetWord(kType, 0), S, S, S, S},
      {"type=~0", SetWord(kType, 0xffffffff), S, S, S, S},
      {"type=2^26+1", SetWord(kType, kTooBig), S, S, S, S},
      {"payload+1", AddToWord(kPayloadLength, 1), I, I, I, I},
      // The last byte turns pad: nonzero sealed bytes, but a zero pad in
      // the ablation, whose body then comes up a byte short.
      {"payload-1", AddToWord(kPayloadLength, -1), I, I, S, S},
      {"payload+4", AddToWord(kPayloadLength, 4), I, I, I, I},
      {"payload-4", AddToWord(kPayloadLength, -4), S, S, S, S},
      {"payload=0", SetWord(kPayloadLength, 0), S, S, S, S},
      {"payload=~0", SetWord(kPayloadLength, 0xffffffff), I, I, I, I},
      {"payload=2^26+1", SetWord(kPayloadLength, kTooBig), I, I, I, I},
      {"payload-1, pad 0x80", Then(AddToWord(kPayloadLength, -1), SetLastByte(0x80)), I, I, I,
       I},
      {"payload-1, pad 0", Then(AddToWord(kPayloadLength, -1), SetLastByte(0)), S, S, S, S},
      {"seqno+1", AddToWord(kSeqno, 1), K, U, K, U},
      {"seqno-1", AddToWord(kSeqno, -1), S, U, S, U},
      {"seqno+4", AddToWord(kSeqno, 4), K, U, K, U},
      {"seqno-4", AddToWord(kSeqno, -4), K, U, K, U},
      {"seqno=0", SetWord(kSeqno, 0), S, U, S, U},
      {"seqno=~0", SetWord(kSeqno, 0xffffffff), K, U, K, U},
      {"seqno=2^26+1", SetWord(kSeqno, kTooBig), K, U, K, U},
      // The ablation's bodies are 1 mod 4 long, so a longer body runs into
      // their zero pad and is accepted: cleartext has no integrity.
      {"body+1", AddToWord(kBodyLength, 1), S, S, K, K},
      {"body-1", AddToWord(kBodyLength, -1), S, S, S, S},
      {"body+4", AddToWord(kBodyLength, 4), S, S, S, S},
      {"body-4", AddToWord(kBodyLength, -4), S, S, S, S},
      {"body=0", SetWord(kBodyLength, 0), S, S, S, S},
      {"body=~0", SetWord(kBodyLength, 0xffffffff), S, S, S, S},
      {"body=2^26+1", SetWord(kBodyLength, kTooBig), S, S, S, S},
      {"body-1, pad 0x80", Then(AddToWord(kBodyLength, -1), SetLastByte(0x80)), S, S, S, S},
      {"last byte 0x80", SetLastByte(0x80), S, S, S, S},
      {"append 1", Append(1), S, S, S, S},
      {"append 4", Append(4), S, S, S, S},
      {"append 7", Append(7), S, S, S, S},
      // Consistent frames whose payload ends before the body length word.
      {"header only", Then(TruncateTo(8), SetWord(kPayloadLength, 0)), S, S, S, S},
      {"seqno only", Then(TruncateTo(12), SetWord(kPayloadLength, 4)), S, S, S, S},
      {"truncate to 0", TruncateTo(0), I, I, I, I},
      {"truncate to 3", TruncateTo(3), I, I, I, I},
      {"truncate to 4", TruncateTo(4), I, I, I, I},
      {"truncate to 7", TruncateTo(7), I, I, I, I},
      {"truncate to 8", TruncateTo(8), I, I, I, I},
      {"truncate to 15", TruncateTo(15), I, I, I, I},
      {"drop last 1", DropLast(1), I, I, I, I},
      {"drop last 4", DropLast(4), I, I, I, I},
  };

  const Bytes kcs(20, 0x11);
  const Bytes ksc(20, 0x22);
  const Bytes call = BytesOf("thirteen byte");     // 1 mod 4: the ablation pads it.
  const Bytes reply = BytesOf("seventeen bytes!!");
  ASSERT_EQ(call.size() % 4, 1u);
  ASSERT_EQ(reply.size() % 4, 1u);
  for (const bool sealed : {true, false}) {
    sim::Clock clock;
    sim::CostModel costs;
    obs::Registry registry;
    UnusedService service;
    sim::Link link(&clock, sim::LinkProfile::Tcp(), &service, &registry);
    auto cipher = [&](const Bytes& key) {
      return sealed ? std::make_unique<ChannelCipher>(key) : nullptr;
    };
    auto new_server = [&] {
      return std::make_unique<sfs::ChannelServerCodec>(&clock, &costs, &registry, cipher(ksc),
                                                       cipher(kcs));
    };
    auto new_client = [&] {
      auto client = std::make_unique<sfs::ChannelTransport>(&link, &costs, &registry,
                                                            cipher(kcs), cipher(ksc));
      client->Frame(1, call);  // Seqno 1 is outstanding.
      return client;
    };
    // Frames made by the real senders, at both keystreams' first position.
    sfs::ChannelTransport sender(&link, &costs, &registry, cipher(kcs), cipher(ksc));
    const Bytes request = sender.Frame(1, call);
    auto origin = new_server();
    auto opened = origin->Open(request);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    ASSERT_EQ(opened.value(), call);
    const Bytes reply_frame = origin->Seal(1, reply);
    if (sealed) {
      // "payload-1" reads the sealed frames' last byte as pad.
      ASSERT_NE(request.back(), 0);
      ASSERT_NE(reply_frame.back(), 0);
    }

    for (const FrameCase& c : cases) {
      const ErrorCode want_server = sealed ? c.sealed_server : c.clear_server;
      const ErrorCode want_client = sealed ? c.sealed_client : c.clear_client;
      const std::string where = std::string(sealed ? "sealed" : "cleartext") + ", " + c.name;

      Bytes edited_request = request;
      c.edit(&edited_request);
      const util::Status server = new_server()->Open(edited_request).status();
      EXPECT_EQ(server.code(), want_server) << where << ": server got " << server.ToString();

      Bytes edited_reply = reply_frame;
      c.edit(&edited_reply);
      std::vector<util::Result<Bytes>> released;
      new_client()->Unframe(edited_reply, [](uint32_t) { return obs::SpanContext{}; },
                            &released);
      ASSERT_EQ(released.size(), 1u) << where;
      EXPECT_EQ(released[0].status().code(), want_client)
          << where << ": client got " << released[0].status().ToString();
      if (std::string(c.name) == "intact") {
        ASSERT_TRUE(released[0].ok()) << where;
        EXPECT_EQ(released[0].value(), reply) << where;
      }
    }
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
