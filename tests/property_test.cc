// Property-based tests (parameterized gtest sweeps) on system invariants:
// MemFs vs a reference model under random operation sequences, secure
// channel tamper detection at every position, Rabin over multiple key
// sizes, XDR robustness under truncation/corruption, and strong cache
// coherence between clients under lease callbacks.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <numeric>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "src/crypto/prng.h"
#include "src/crypto/rabin.h"
#include "src/nfs/memfs.h"
#include "src/obs/span.h"
#include "src/sfs/client.h"
#include "src/sfs/proto.h"
#include "src/sfs/server.h"
#include "src/sfs/session.h"
#include "src/xdr/xdr.h"

namespace {

using nfs::Credentials;
using nfs::Fattr;
using nfs::FileHandle;
using nfs::MemFs;
using nfs::Stat;
using util::Bytes;
using util::BytesOf;

// --- MemFs vs reference model --------------------------------------------------

// A trivial model: flat namespace of files with contents, plus dirs.
struct Model {
  std::map<std::string, Bytes> files;
  std::map<std::string, bool> dirs;  // name -> exists
};

class MemFsModelTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MemFsModelTest, RandomOperationsMatchModel) {
  sim::Clock clock;
  sim::Disk disk(&clock, sim::DiskProfile::Ibm18Es());
  MemFs fs(&clock, &disk, MemFs::Options{});
  Credentials user = Credentials::User(1000, {1000});
  crypto::Prng prng(GetParam());

  Model model;
  FileHandle root = fs.root_handle();
  auto name_for = [&](uint64_t i) { return "f" + std::to_string(i % 12); };

  for (int step = 0; step < 400; ++step) {
    uint64_t op = prng.RandomUint64(6);
    std::string name = name_for(prng.RandomUint64(12));
    switch (op) {
      case 0: {  // Create.
        FileHandle fh;
        Fattr attr;
        Stat s = fs.Create(root, name, user, {}, &fh, &attr);
        bool exists = model.files.count(name) != 0 || model.dirs.count(name) != 0;
        EXPECT_EQ(s == Stat::kOk, !exists) << "step " << step;
        if (s == Stat::kOk) {
          model.files[name] = {};
        }
        break;
      }
      case 1: {  // Write at random offset.
        if (model.files.count(name) == 0) {
          break;
        }
        FileHandle fh;
        Fattr attr;
        ASSERT_EQ(fs.Lookup(root, name, user, &fh, &attr), Stat::kOk);
        uint64_t offset = prng.RandomUint64(10000);
        Bytes data = prng.RandomBytes(1 + prng.RandomUint64(5000));
        ASSERT_EQ(fs.Write(fh, user, offset, data, false, &attr), Stat::kOk);
        Bytes& content = model.files[name];
        if (content.size() < offset + data.size()) {
          content.resize(offset + data.size(), 0);
        }
        std::copy(data.begin(), data.end(), content.begin() + static_cast<long>(offset));
        break;
      }
      case 2: {  // Read a random range and compare with the model.
        if (model.files.count(name) == 0) {
          break;
        }
        FileHandle fh;
        Fattr attr;
        ASSERT_EQ(fs.Lookup(root, name, user, &fh, &attr), Stat::kOk);
        const Bytes& content = model.files[name];
        EXPECT_EQ(attr.size, content.size());
        uint64_t offset = prng.RandomUint64(content.size() + 100);
        uint32_t count = static_cast<uint32_t>(1 + prng.RandomUint64(6000));
        Bytes data;
        bool eof = false;
        ASSERT_EQ(fs.Read(fh, user, offset, count, &data, &eof), Stat::kOk);
        uint64_t expected_len =
            offset >= content.size()
                ? 0
                : std::min<uint64_t>(count, content.size() - offset);
        ASSERT_EQ(data.size(), expected_len) << "step " << step;
        for (size_t i = 0; i < data.size(); ++i) {
          ASSERT_EQ(data[i], content[offset + i]) << "step " << step << " byte " << i;
        }
        break;
      }
      case 3: {  // Remove.
        Stat s = fs.Remove(root, name, user);
        if (model.files.count(name) != 0) {
          EXPECT_EQ(s, Stat::kOk);
          model.files.erase(name);
        } else if (model.dirs.count(name) != 0) {
          EXPECT_EQ(s, Stat::kIsDir);
        } else {
          EXPECT_EQ(s, Stat::kNoEnt);
        }
        break;
      }
      case 4: {  // Truncate/grow.
        if (model.files.count(name) == 0) {
          break;
        }
        FileHandle fh;
        Fattr attr;
        ASSERT_EQ(fs.Lookup(root, name, user, &fh, &attr), Stat::kOk);
        nfs::Sattr sattr;
        uint64_t new_size = prng.RandomUint64(12000);
        sattr.size = new_size;
        ASSERT_EQ(fs.SetAttr(fh, user, sattr, &attr), Stat::kOk);
        model.files[name].resize(new_size, 0);
        break;
      }
      case 5: {  // Rename.
        std::string to = name_for(prng.RandomUint64(12));
        Stat s = fs.Rename(root, name, root, to, user);
        bool from_file = model.files.count(name) != 0;
        bool from_dir = model.dirs.count(name) != 0;
        bool to_dir = model.dirs.count(to) != 0;
        if (!from_file && !from_dir) {
          EXPECT_EQ(s, Stat::kNoEnt);
        } else if (name == to) {
          EXPECT_EQ(s, Stat::kOk);
        } else if (from_file && !to_dir) {
          EXPECT_EQ(s, Stat::kOk);
          model.files[to] = model.files[name];
          model.files.erase(name);
        }
        break;
      }
    }
  }

  // Final sweep: every model file matches byte for byte.
  for (const auto& [name, content] : model.files) {
    FileHandle fh;
    Fattr attr;
    ASSERT_EQ(fs.Lookup(root, name, user, &fh, &attr), Stat::kOk) << name;
    Bytes data;
    bool eof = false;
    ASSERT_EQ(fs.Read(fh, user, 0, static_cast<uint32_t>(content.size() + 1), &data, &eof),
              Stat::kOk);
    EXPECT_EQ(data, content) << name;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MemFsModelTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

// --- Channel tamper sweep --------------------------------------------------------

class ChannelTamperTest : public ::testing::TestWithParam<size_t> {};

TEST_P(ChannelTamperTest, AnyCorruptionAtEveryPositionDetected) {
  size_t msg_len = GetParam();
  crypto::Prng prng(uint64_t{msg_len});
  Bytes key = prng.RandomBytes(20);
  Bytes msg = prng.RandomBytes(msg_len);
  // For each byte position, corrupt and verify rejection.
  Bytes reference_sealed;
  {
    sfs::ChannelCipher sender(key);
    reference_sealed = sender.Seal(msg);
  }
  for (size_t pos = 0; pos < reference_sealed.size(); ++pos) {
    sfs::ChannelCipher receiver(key);
    Bytes bad = reference_sealed;
    bad[pos] ^= static_cast<uint8_t>(1 + prng.RandomUint64(255));
    auto opened = receiver.Open(bad);
    ASSERT_FALSE(opened.ok()) << "undetected corruption at byte " << pos;
  }
  // And the untampered message still opens.
  sfs::ChannelCipher receiver(key);
  auto opened = receiver.Open(reference_sealed);
  ASSERT_TRUE(opened.ok());
  EXPECT_EQ(opened.value(), msg);
}

INSTANTIATE_TEST_SUITE_P(Sizes, ChannelTamperTest, ::testing::Values(0, 1, 13, 64, 200));

// --- Rabin key-size sweep ----------------------------------------------------------

class RabinSweepTest : public ::testing::TestWithParam<size_t> {};

TEST_P(RabinSweepTest, SignVerifyEncryptDecryptAcrossKeySizes) {
  crypto::Prng prng(GetParam());
  auto key = crypto::RabinPrivateKey::Generate(&prng, GetParam());
  EXPECT_GE(key.public_key().BitLength(), GetParam() - 2);
  for (int i = 0; i < 5; ++i) {
    Bytes msg = prng.RandomBytes(1 + prng.RandomUint64(100));
    Bytes sig = key.Sign(msg);
    EXPECT_TRUE(key.public_key().Verify(msg, sig).ok());
    Bytes bad = sig;
    bad[2 + prng.RandomUint64(bad.size() - 2)] ^= 1;
    EXPECT_FALSE(key.public_key().Verify(msg, bad).ok());

    Bytes plain = prng.RandomBytes(1 + prng.RandomUint64(key.public_key().MaxPlaintextBytes()));
    auto ct = key.public_key().Encrypt(plain, &prng);
    ASSERT_TRUE(ct.ok());
    auto pt = key.Decrypt(ct.value());
    ASSERT_TRUE(pt.ok());
    EXPECT_EQ(pt.value(), plain);
  }
}

INSTANTIATE_TEST_SUITE_P(KeySizes, RabinSweepTest, ::testing::Values(384, 512, 768));

// --- XDR robustness ------------------------------------------------------------------

class XdrFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(XdrFuzzTest, RandomCorruptionNeverCrashesDecoder) {
  crypto::Prng prng(GetParam());
  // Build a structured message.
  xdr::Encoder enc;
  enc.PutUint32(static_cast<uint32_t>(prng.RandomUint64(0)));
  enc.PutString("structured");
  enc.PutOpaque(prng.RandomBytes(prng.RandomUint64(64)));
  enc.PutUint64(prng.RandomUint64(0));
  enc.PutBool(true);
  Bytes wire = enc.Take();

  for (int trial = 0; trial < 200; ++trial) {
    Bytes mutated = wire;
    // Random truncation and/or byte flips.
    if (prng.RandomUint64(2) == 0 && !mutated.empty()) {
      mutated.resize(prng.RandomUint64(mutated.size()));
    }
    for (uint64_t flips = prng.RandomUint64(4); flips > 0 && !mutated.empty(); --flips) {
      mutated[prng.RandomUint64(mutated.size())] ^=
          static_cast<uint8_t>(prng.RandomUint64(256));
    }
    // Decoding must either succeed or fail cleanly — never crash or read
    // out of bounds (exercised under the harness's normal build; the
    // assertions in Decoder are bounds checks).
    xdr::Decoder dec(std::move(mutated));
    auto a = dec.GetUint32();
    if (!a.ok()) {
      continue;
    }
    auto b = dec.GetString();
    if (!b.ok()) {
      continue;
    }
    auto c = dec.GetOpaque();
    if (!c.ok()) {
      continue;
    }
    auto d = dec.GetUint64();
    if (!d.ok()) {
      continue;
    }
    (void)dec.GetBool();
  }
  SUCCEED();
}

INSTANTIATE_TEST_SUITE_P(Seeds, XdrFuzzTest, ::testing::Values(100, 200, 300));

// --- Pipelined framing robustness ----------------------------------------------------

#include "src/rpc/rpc.h"

// Fisher-Yates using the test's PRNG, so every seed sweeps a different
// delivery order.
template <typename T>
void Shuffle(std::vector<T>* v, crypto::Prng* prng) {
  for (size_t i = v->size(); i > 1; --i) {
    std::swap((*v)[i - 1], (*v)[prng->RandomUint64(i)]);
  }
}

// Random truncation and byte flips rarely land on a length word, so half
// the mutations are one structured edit aimed at a check of the channel
// frame {type, payload length, seqno, body length, body, pad}: one of the
// four header words set to a boundary value, a length word shortened by
// 1-3 bytes so that the frame's tail turns into pad and the last byte of
// it nonzero, 1-7 bytes appended, or the frame cut to a consistent 8 or
// 12 bytes whose payload ends before the body length word.
Bytes Mutate(Bytes frame, crypto::Prng* prng) {
  auto put_word = [&frame](size_t offset, uint32_t value) {
    for (size_t k = 0; k < 4; ++k) {
      frame[offset + k] = static_cast<uint8_t>(value >> (24 - 8 * k));
    }
  };
  if (prng->RandomUint64(2) == 0 && frame.size() >= 16) {
    switch (prng->RandomUint64(4)) {
      case 0: {
        const size_t offset = 4 * prng->RandomUint64(4);
        const uint32_t word = xdr::PeekUint32(frame, offset).value();
        const uint32_t boundary[] = {word + 1, word - 1, word + 4, word - 4,
                                     0,        0xffffffff, (1u << 26) + 1};
        put_word(offset, boundary[prng->RandomUint64(7)]);
        break;
      }
      case 1: {
        const size_t offset = prng->RandomUint64(2) == 0 ? 4 : 12;
        const uint32_t word = xdr::PeekUint32(frame, offset).value();
        put_word(offset, word - static_cast<uint32_t>(1 + prng->RandomUint64(3)));
        frame.back() = static_cast<uint8_t>(1 + prng->RandomUint64(255));
        break;
      }
      case 2:
        frame.resize(frame.size() + 1 + prng->RandomUint64(7),
                     static_cast<uint8_t>(prng->RandomUint64(256)));
        break;
      default: {
        const uint32_t payload_len = static_cast<uint32_t>(prng->RandomUint64(5));
        frame.resize(8 + xdr::PaddedSize(payload_len));
        put_word(4, payload_len);
        break;
      }
    }
    return frame;
  }
  if (prng->RandomUint64(2) == 0 && !frame.empty()) {
    frame.resize(prng->RandomUint64(frame.size()));
  }
  for (uint64_t flips = prng->RandomUint64(4); flips > 0 && !frame.empty(); --flips) {
    frame[prng->RandomUint64(frame.size())] ^= static_cast<uint8_t>(prng->RandomUint64(256));
  }
  return frame;
}

// The two server wire formats in front of rpc::Dispatcher.
enum class ServerFormat { kPlain, kChannel };

// One server connection under test.  Frame() builds call `seqno` the way
// that format's client does (the channel seals positionally, so calls
// are framed in seqno order); Deliver() hands any frame to the server.
// The server's dispatch spans record what it executed.
class CallStream {
 public:
  CallStream() { registry_.spans().Enable([this] { return clock_.now_ns(); }, nullptr); }
  virtual ~CallStream() = default;
  virtual Bytes Frame(uint32_t seqno, const Bytes& payload) = 0;
  virtual util::Result<Bytes> Deliver(const Bytes& frame) = 0;
  // Replaces a connection that a bad frame killed; plain RPC has none.
  virtual util::Status Reconnect() = 0;

  // The seqno of every handler execution, in execution order.  Selected
  // by name: the server records its drc_hit spans, and on the channel its
  // seal and open spans, in the same "server" layer.
  std::vector<uint32_t> Executed() {
    std::vector<uint32_t> seqnos;
    for (const obs::Span& span : registry_.spans().finished()) {
      if (span.name.rfind("rpc.dispatch.", 0) == 0 || span.name.rfind("sfs.dispatch.", 0) == 0) {
        seqnos.push_back(span.seqno);
      }
    }
    EXPECT_EQ(registry_.spans().dropped(), 0u) << "span store too small: record incomplete";
    return seqnos;
  }

 protected:
  sim::Clock clock_;
  sim::CostModel costs_;
  obs::Registry registry_;
};

// A plain Dispatcher with an echo program.
class PlainStream : public CallStream {
 public:
  PlainStream() : dispatcher_(&registry_, &clock_) {
    dispatcher_.RegisterProgram(
        kProg, [](uint32_t, const Bytes& args) -> util::Result<Bytes> { return args; });
  }
  Bytes Frame(uint32_t seqno, const Bytes& payload) override {
    xdr::Encoder enc;
    enc.PutUint32(/*xid=*/100 + seqno);
    enc.PutUint32(seqno);
    enc.PutUint32(kProg);
    enc.PutUint32(/*proc=*/1);
    enc.PutOpaque(payload);
    return enc.Take();
  }
  util::Result<Bytes> Deliver(const Bytes& frame) override { return dispatcher_.Handle(frame); }
  util::Status Reconnect() override { return util::OkStatus(); }

 private:
  static constexpr uint32_t kProg = 77;
  rpc::Dispatcher dispatcher_;
};

// A ServerConnection driven by hand through a real handshake, as sfscd
// would; its calls are control-program GETROOTs sealed under kcs.
class ChannelStream : public CallStream {
 public:
  static constexpr size_t kKeyBits = 512;

  util::Status Connect(crypto::Prng* prng) {
    sfs::SfsServer::Options options;
    options.location = "fuzz.test";
    options.key_bits = kKeyBits;
    options.registry = &registry_;
    server_ = std::make_unique<sfs::SfsServer>(&clock_, &costs_, options, nullptr);
    ASSIGN_OR_RETURN(sfs::ClientNegotiation negotiation,
                     sfs::ClientNegotiation::Start(server_->public_key(), prng, kKeyBits));
    negotiation_ = std::make_unique<sfs::ClientNegotiation>(std::move(negotiation));
    return Reconnect();
  }

  // A fresh connection to the same server under the same ephemeral key,
  // so without key generation: new session keys, an empty duplicate cache
  // and a receive cursor at seqno 1.
  util::Status Reconnect() override {
    connection_ = std::move(server_->CreateConnection().connection);
    xdr::Encoder hello;
    hello.PutUint32(static_cast<uint32_t>(sfs::ServiceType::kFileServer));
    hello.PutString(server_->Path().location);
    hello.PutOpaque(server_->Path().host_id);
    hello.PutString("");
    RETURN_IF_ERROR(
        connection_->Handle(sfs::FrameMessage(sfs::kMsgConnect, hello.Take())).status());
    const sfs::ClientNegotiation& negotiation = *negotiation_;
    xdr::Encoder neg;
    neg.PutOpaque(negotiation.ephemeral_key.public_key().Serialize());
    neg.PutOpaque(negotiation.enc_kc1);
    neg.PutOpaque(negotiation.enc_kc2);
    neg.PutBool(false);
    ASSIGN_OR_RETURN(Bytes reply,
                     connection_->Handle(sfs::FrameMessage(sfs::kMsgNegotiate, neg.Take())));
    ASSIGN_OR_RETURN(Bytes payload, sfs::Unframe(sfs::kMsgNegotiate, reply));
    xdr::Decoder dec(std::move(payload));
    ASSIGN_OR_RETURN(bool cleartext, dec.GetBool());
    ASSIGN_OR_RETURN(Bytes enc_ks1, dec.GetOpaque());
    ASSIGN_OR_RETURN(Bytes enc_ks2, dec.GetOpaque());
    if (cleartext) {
      return util::SecurityError("server refused to encrypt");
    }
    ASSIGN_OR_RETURN(sfs::SessionKeys keys,
                     negotiation.Finish(server_->public_key(), enc_ks1, enc_ks2));
    seal_ = std::make_unique<sfs::ChannelCipher>(keys.kcs);
    return util::OkStatus();
  }

  Bytes Frame(uint32_t seqno, const Bytes& payload) override {
    xdr::Encoder body;
    body.PutUint32(/*xid=*/100 + seqno);
    body.PutUint32(sfs::kSfsCtlProgram);
    body.PutUint32(sfs::kCtlGetRoot);
    body.PutOpaque(payload);
    xdr::Encoder frame;
    frame.PutUint32(seqno);
    frame.PutOpaque(seal_->Seal(body.Take()));
    return sfs::FrameMessage(sfs::kMsgEncrypted, frame.Take());
  }
  util::Result<Bytes> Deliver(const Bytes& frame) override { return connection_->Handle(frame); }

 private:
  std::unique_ptr<sfs::SfsServer> server_;
  std::unique_ptr<sfs::ClientNegotiation> negotiation_;
  std::unique_ptr<sim::Service> connection_;
  std::unique_ptr<sfs::ChannelCipher> seal_;  // Client -> server.
};

// With a sliding send window, the server sees call frames out of order
// and redelivered.  On either wire format it may not crash or violate
// at-most-once, whatever the stream looks like.
class PipelinedFramingFuzzTest
    : public ::testing::TestWithParam<std::tuple<ServerFormat, uint64_t>> {
 protected:
  bool channel() const { return std::get<0>(GetParam()) == ServerFormat::kChannel; }

  std::unique_ptr<CallStream> NewStream(crypto::Prng* prng) {
    if (!channel()) {
      return std::make_unique<PlainStream>();
    }
    auto stream = std::make_unique<ChannelStream>();
    const util::Status connected = stream->Connect(prng);
    EXPECT_TRUE(connected.ok()) << connected.ToString();
    return connected.ok() ? std::move(stream) : nullptr;
  }
};

TEST_P(PipelinedFramingFuzzTest, ReorderedAndCorruptCallStreamsKeepAtMostOnce) {
  crypto::Prng prng(std::get<1>(GetParam()));
  std::unique_ptr<CallStream> stream = NewStream(&prng);
  ASSERT_NE(stream, nullptr);

  // A window's worth of valid call frames, as the pipelined client frames
  // them: consecutive seqnos, distinct payloads.
  constexpr uint32_t kBatch = 16;
  std::vector<Bytes> frames;
  for (uint32_t i = 0; i < kBatch; ++i) {
    frames.push_back(stream->Frame(/*seqno=*/1 + i, BytesOf("call-" + std::to_string(i))));
  }
  std::vector<Bytes> replies(kBatch);
  std::vector<uint32_t> order(kBatch);
  std::iota(order.begin(), order.end(), 0);

  // Out-of-order first delivery.  Plain RPC executes every call.  The
  // channel executes only the frame at its receive cursor and answers
  // the rest, which it cannot open yet, with empty replies.
  Shuffle(&order, &prng);
  uint32_t cursor = 1;
  for (uint32_t i : order) {
    auto reply = stream->Deliver(frames[i]);
    ASSERT_TRUE(reply.ok()) << "frame " << i << ": " << reply.status().message();
    const bool executes = !channel() || 1 + i == cursor;
    EXPECT_EQ(reply->empty(), !executes) << "frame " << i;
    if (executes) {
      replies[i] = reply.value();
      ++cursor;
    }
  }

  // Redelivering the refused frames until none is refused executes every
  // call exactly once — on the channel, in seqno order.
  for (uint32_t pass = 0; pass < kBatch; ++pass) {
    Shuffle(&order, &prng);
    for (uint32_t i : order) {
      if (replies[i].empty()) {
        auto reply = stream->Deliver(frames[i]);
        ASSERT_TRUE(reply.ok()) << "frame " << i << ": " << reply.status().message();
        replies[i] = reply.value();
      }
    }
  }
  for (uint32_t i = 0; i < kBatch; ++i) {
    EXPECT_FALSE(replies[i].empty()) << "frame " << i << " still refused";
  }
  const std::vector<uint32_t> executed = stream->Executed();
  EXPECT_EQ(executed.size(), kBatch);
  EXPECT_EQ(std::set<uint32_t>(executed.begin(), executed.end()).size(), kBatch);
  if (channel()) {
    EXPECT_TRUE(std::is_sorted(executed.begin(), executed.end()));
  }

  // Shuffled redelivery (retransmitted copies): the DRC replays each
  // reply byte-identical — sealed, on the channel — with no re-execution.
  Shuffle(&order, &prng);
  for (uint32_t i : order) {
    auto replay = stream->Deliver(frames[i]);
    ASSERT_TRUE(replay.ok());
    EXPECT_EQ(replay.value(), replies[i]) << "DRC replay differs for frame " << i;
  }
  EXPECT_EQ(stream->Executed().size(), kBatch) << "redelivery re-executed a call";

  // Corruption sweep: mutated frames must decode cleanly or fail cleanly
  // — never crash the server.  The channel kills its connection at the
  // first frame it rejects; the replacement has an empty duplicate cache,
  // so every later frame reaches the frame parser.  The replies it
  // produced get the same treatment through the client's reply-decode
  // sequence.
  for (int trial = 0; trial < 200; ++trial) {
    Bytes call = Mutate(frames[prng.RandomUint64(kBatch)], &prng);
    if (!stream->Deliver(call).ok()) {
      const util::Status reconnected = stream->Reconnect();
      ASSERT_TRUE(reconnected.ok()) << reconnected.ToString();
    }

    xdr::Decoder dec(Mutate(replies[prng.RandomUint64(kBatch)], &prng));
    auto xid = dec.GetUint32();
    auto status = dec.GetUint32();
    if (!xid.ok() || !status.ok()) {
      continue;
    }
    if (status.value() == 0) {
      (void)dec.GetOpaque();
    } else {
      auto code = dec.GetUint32();
      if (code.ok()) {
        (void)dec.GetString();
      }
    }
  }

  // The DRC window edge, on a fresh connection.  With seqnos up to M
  // executed, M - (kDrcWindow - 1) still replays and M - kDrcWindow fails
  // closed; on the channel that also kills the connection.
  std::unique_ptr<CallStream> fresh = NewStream(&prng);
  ASSERT_NE(fresh, nullptr);
  constexpr uint32_t kMax = rpc::kDrcWindow + 16;
  std::vector<Bytes> calls;
  std::vector<Bytes> answers;
  for (uint32_t seqno = 1; seqno <= kMax; ++seqno) {
    calls.push_back(fresh->Frame(seqno, BytesOf("edge-" + std::to_string(seqno))));
    auto answer = fresh->Deliver(calls.back());
    ASSERT_TRUE(answer.ok() && !answer->empty()) << "seqno " << seqno;
    answers.push_back(answer.value());
  }
  const uint32_t oldest = kMax - (rpc::kDrcWindow - 1);
  auto replay = fresh->Deliver(calls[oldest - 1]);
  ASSERT_TRUE(replay.ok()) << replay.status().ToString();
  EXPECT_EQ(replay.value(), answers[oldest - 1]);
  EXPECT_FALSE(fresh->Deliver(calls[oldest - 2]).ok()) << "seqno below the window answered";
  EXPECT_EQ(fresh->Executed().size(), kMax);
  if (channel()) {
    EXPECT_FALSE(fresh->Deliver(fresh->Frame(kMax + 1, BytesOf("after"))).ok())
        << "connection survived a seqno below the window";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Formats, PipelinedFramingFuzzTest,
    ::testing::Combine(::testing::Values(ServerFormat::kPlain, ServerFormat::kChannel),
                       ::testing::Values(41, 42, 43, 44)),
    [](const ::testing::TestParamInfo<PipelinedFramingFuzzTest::ParamType>& info) {
      return std::string(std::get<0>(info.param) == ServerFormat::kPlain ? "Plain" : "Channel") +
             std::to_string(std::get<1>(info.param));
    });

// The client sees reply frames out of order and corrupted; decoding may
// not crash or open a tampered frame.
class PipelinedReplyFuzzTest : public ::testing::TestWithParam<uint64_t> {};

// Never reached: the reply sweep hands frames to the client directly.
class UnreachableService : public sim::Service {
 public:
  util::Result<Bytes> Handle(Bytes) override { return util::Unavailable("unused"); }
};

TEST_P(PipelinedReplyFuzzTest, ReorderedAndCorruptReplyStreamsDecodeOrFailCleanly) {
  crypto::Prng prng(GetParam());
  Bytes key = prng.RandomBytes(20);

  // Seal a window of replies the way the pipelined server connection
  // does: positional channel cipher, then a cleartext seqno echo, then
  // the {type, payload} connection frame.
  constexpr uint32_t kBatch = 12;
  std::vector<Bytes> messages;
  std::vector<Bytes> wire_frames;
  {
    sfs::ChannelCipher sender(key);
    for (uint32_t i = 0; i < kBatch; ++i) {
      messages.push_back(prng.RandomBytes(1 + prng.RandomUint64(400)));
      xdr::Encoder inner;
      inner.PutUint32(1 + i);  // Echoed wire seqno.
      inner.PutOpaque(sender.Seal(messages.back()));
      xdr::Encoder outer;
      outer.PutUint32(sfs::kMsgEncrypted);
      outer.PutOpaque(inner.Take());
      wire_frames.push_back(outer.Take());
    }
  }

  // Decode one delivery exactly as the client's pipelined path does:
  // unframe, read the seqno echo, extract the sealed body.  Returns
  // false for any malformed stage.
  auto decode = [](const Bytes& delivery, uint32_t* seqno, Bytes* sealed) {
    xdr::Decoder outer(delivery);
    auto type = outer.GetUint32();
    auto payload = outer.GetOpaque();
    if (!type.ok() || !payload.ok() || type.value() != sfs::kMsgEncrypted ||
        !outer.AtEnd()) {
      return false;
    }
    xdr::Decoder inner(payload.value());
    auto echo = inner.GetUint32();
    auto body = inner.GetOpaque();
    if (!echo.ok() || !body.ok() || !inner.AtEnd()) {
      return false;
    }
    *seqno = echo.value();
    *sealed = body.value();
    return true;
  };

  // Reordered (but intact) delivery: the reorder buffer admits frames in
  // any arrival order, and in-seqno-order opening recovers every message
  // against the positional keystream.
  std::vector<uint32_t> order(kBatch);
  for (uint32_t i = 0; i < kBatch; ++i) {
    order[i] = i;
  }
  Shuffle(&order, &prng);
  {
    sfs::ChannelCipher receiver(key);
    std::map<uint32_t, Bytes> reorder;
    uint32_t next_open = 1;
    uint32_t opened = 0;
    for (uint32_t i : order) {
      uint32_t seqno = 0;
      Bytes sealed;
      ASSERT_TRUE(decode(wire_frames[i], &seqno, &sealed)) << "frame " << i;
      ASSERT_EQ(seqno, 1 + i);
      reorder[seqno] = sealed;
      for (auto it = reorder.find(next_open); it != reorder.end();
           it = reorder.find(next_open)) {
        auto open = receiver.Open(it->second);
        ASSERT_TRUE(open.ok()) << "seqno " << next_open;
        EXPECT_EQ(open.value(), messages[next_open - 1]);
        reorder.erase(it);
        ++next_open;
        ++opened;
      }
    }
    EXPECT_EQ(opened, kBatch);
  }

  // Corruption sweep on the first frame (the only one a fresh receiver's
  // keystream position can open): every stage either rejects cleanly or,
  // if the sealed body survived intact, opens to exactly the original
  // message.  Tampered bodies must never open.  The client's own
  // ChannelTransport, with seqno 1 outstanding, must release a reply for
  // exactly the frames that the decode above accepts.
  sim::Clock clock;
  sim::CostModel costs;
  obs::Registry registry;
  UnreachableService service;
  sim::Link link(&clock, sim::LinkProfile::Tcp(), &service, &registry);
  for (int trial = 0; trial < 200; ++trial) {
    Bytes mutated = Mutate(wire_frames[0], &prng);
    sfs::ChannelTransport client(&link, &costs, &registry,
                                 std::make_unique<sfs::ChannelCipher>(Bytes(20, 0)),
                                 std::make_unique<sfs::ChannelCipher>(key));
    client.Frame(1, BytesOf("call"));
    std::vector<util::Result<Bytes>> released;
    client.Unframe(mutated, [](uint32_t) { return obs::SpanContext{}; }, &released);
    ASSERT_EQ(released.size(), 1u);

    uint32_t seqno = 0;
    Bytes sealed;
    util::Result<Bytes> open = util::Unavailable("discarded");
    // Malformed framing, or no outstanding call for this seqno: discarded,
    // counted as unmatched.
    if (decode(mutated, &seqno, &sealed) && seqno == 1) {
      sfs::ChannelCipher receiver(key);
      open = receiver.Open(sealed);
    }
    if (open.ok()) {
      EXPECT_EQ(open.value(), messages[0]) << "tampered frame opened to wrong bytes";
    }
    ASSERT_EQ(released[0].ok(), open.ok()) << "trial " << trial << ": "
                                           << released[0].status().ToString();
    if (released[0].ok()) {
      EXPECT_EQ(released[0].value(), messages[0]) << "trial " << trial;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PipelinedReplyFuzzTest, ::testing::Values(41, 42, 43, 44));

// --- Cache transparency ----------------------------------------------------------------

#include "src/nfs/cache.h"

class CacheTransparencyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CacheTransparencyTest, CachedViewMatchesBackendExactly) {
  // Single-writer invariant: with one client, every read through the
  // caching layer returns exactly what an uncached read would — caching
  // must be semantically invisible.
  sim::Clock clock;
  sim::Disk disk(&clock, sim::DiskProfile::Ibm18Es());
  MemFs fs(&clock, &disk, MemFs::Options{});
  nfs::CacheOptions opts;
  opts.use_leases = true;
  nfs::CachingFs cached(&fs, &clock, opts);
  Credentials user = Credentials::User(1000, {1000});
  crypto::Prng prng(GetParam());

  FileHandle fh;
  Fattr attr;
  ASSERT_EQ(cached.Create(fs.root_handle(), "f", user, {}, &fh, &attr), Stat::kOk);

  for (int step = 0; step < 300; ++step) {
    uint64_t op = prng.RandomUint64(4);
    switch (op) {
      case 0: {  // Write through the cache.
        uint64_t offset = prng.RandomUint64(20000);
        ASSERT_EQ(cached.Write(fh, user, offset, prng.RandomBytes(1 + prng.RandomUint64(3000)),
                               false, &attr),
                  Stat::kOk);
        break;
      }
      case 1: {  // Truncate through the cache.
        nfs::Sattr sattr;
        sattr.size = prng.RandomUint64(25000);
        ASSERT_EQ(cached.SetAttr(fh, user, sattr, &attr), Stat::kOk);
        break;
      }
      case 2: {  // Compare a ranged read, cached vs direct.
        uint64_t offset = prng.RandomUint64(25000);
        uint32_t count = static_cast<uint32_t>(1 + prng.RandomUint64(4000));
        Bytes via_cache;
        Bytes direct;
        bool eof1 = false;
        bool eof2 = false;
        ASSERT_EQ(cached.Read(fh, user, offset, count, &via_cache, &eof1), Stat::kOk);
        ASSERT_EQ(fs.Read(fh, user, offset, count, &direct, &eof2), Stat::kOk);
        ASSERT_EQ(via_cache, direct) << "step " << step;
        ASSERT_EQ(eof1, eof2) << "step " << step;
        break;
      }
      case 3: {  // Compare attributes (size is the load-bearing field).
        Fattr via_cache;
        Fattr direct;
        ASSERT_EQ(cached.GetAttr(fh, &via_cache), Stat::kOk);
        ASSERT_EQ(fs.GetAttr(fh, &direct), Stat::kOk);
        ASSERT_EQ(via_cache.size, direct.size) << "step " << step;
        break;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CacheTransparencyTest, ::testing::Values(11, 22, 33));

// --- Cross-client coherence under lease callbacks -------------------------------------

class CoherenceTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  static constexpr size_t kKeyBits = 512;
};

TEST_P(CoherenceTest, TwoClientsAlwaysSeeServerTruth) {
  // Invariant: with lease callbacks, any client's GetAttr/Read observes
  // the result of every previously completed mutation by either client
  // (strong coherence, which the paper's design approximates by
  // invalidating before replying to the writer is not required — our
  // callbacks are synchronous in-process, hence exact).
  sim::Clock clock;
  sim::CostModel costs;
  auth::AuthServer authserver;
  sfs::SfsServer::Options so;
  so.location = "coherence.test";
  so.key_bits = kKeyBits;
  sfs::SfsServer server(&clock, &costs, so, &authserver);

  auto make_client = [&](uint64_t seed) {
    sfs::SfsClient::Options co;
    co.ephemeral_key_bits = kKeyBits;
    co.prng_seed = seed;
    return std::make_unique<sfs::SfsClient>(
        &clock, &costs, [&](const std::string&) { return &server; }, co);
  };
  auto client_a = make_client(1);
  auto client_b = make_client(2);
  auto mount_a = client_a->Mount(server.Path());
  auto mount_b = client_b->Mount(server.Path());
  ASSERT_TRUE(mount_a.ok() && mount_b.ok());
  sfs::SfsClient::MountPoint* mounts[2] = {mount_a.value(), mount_b.value()};

  Credentials user = Credentials::User(1000, {1000});
  crypto::Prng prng(GetParam());

  // One shared file.
  FileHandle fh;
  Fattr attr;
  ASSERT_EQ(mounts[0]->fs()->Create(mounts[0]->root_fh(), "shared", user, {}, &fh, &attr),
            Stat::kOk);
  Bytes truth;  // What the file must contain.

  for (int step = 0; step < 120; ++step) {
    int actor = static_cast<int>(prng.RandomUint64(2));
    nfs::FileSystemApi* fs = mounts[actor]->fs();
    if (prng.RandomUint64(2) == 0) {
      // Write: extend or overwrite.
      uint64_t offset = prng.RandomUint64(truth.size() + 1);
      Bytes data = prng.RandomBytes(1 + prng.RandomUint64(2000));
      ASSERT_EQ(fs->Write(fh, user, offset, data, false, &attr), Stat::kOk);
      if (truth.size() < offset + data.size()) {
        truth.resize(offset + data.size(), 0);
      }
      std::copy(data.begin(), data.end(), truth.begin() + static_cast<long>(offset));
    } else {
      // The *other* client validates size and a random range.
      nfs::FileSystemApi* other = mounts[1 - actor]->fs();
      Fattr check;
      ASSERT_EQ(other->GetAttr(fh, &check), Stat::kOk);
      ASSERT_EQ(check.size, truth.size()) << "step " << step;
      if (!truth.empty()) {
        uint64_t offset = prng.RandomUint64(truth.size());
        uint32_t count = static_cast<uint32_t>(1 + prng.RandomUint64(1000));
        Bytes data;
        bool eof = false;
        ASSERT_EQ(other->Read(fh, user, offset, count, &data, &eof), Stat::kOk);
        size_t expected = std::min<size_t>(count, truth.size() - offset);
        ASSERT_EQ(data.size(), expected);
        for (size_t i = 0; i < data.size(); ++i) {
          ASSERT_EQ(data[i], truth[offset + i]) << "step " << step;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CoherenceTest, ::testing::Values(7, 77, 777));

// --- The paper's §2.1.2 guarantee, as a property ----------------------------------

// Corrupts one randomly chosen byte in every message starting at the k-th
// (both directions), with a per-message coin flip.
class RandomCorruptor : public sim::Interposer {
 public:
  RandomCorruptor(uint64_t seed, int start_at) : prng_(seed), start_at_(start_at) {}

  util::Result<Bytes> OnRequest(Bytes request) override { return MaybeCorrupt(request); }
  util::Result<Bytes> OnResponse(Bytes response) override { return MaybeCorrupt(response); }

 private:
  util::Result<Bytes> MaybeCorrupt(Bytes msg) {
    if (count_++ < start_at_ || msg.empty() || prng_.RandomUint64(2) == 0) {
      return msg;
    }
    msg[prng_.RandomUint64(msg.size())] ^= static_cast<uint8_t>(1 + prng_.RandomUint64(255));
    return msg;
  }

  crypto::Prng prng_;
  int start_at_;
  int count_ = 0;
};

class AdversaryPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(AdversaryPropertyTest, ReadsReturnCorrectDataOrFailClosed) {
  // "Under these assumptions, SFS ensures that attackers can do no worse
  // than delay the file system's operation" — concretely: once files are
  // written, no amount of traffic corruption can make a read that
  // *succeeds* return the wrong bytes.
  sim::Clock clock;
  sim::CostModel costs;
  auth::AuthServer authserver;
  sfs::SfsServer::Options so;
  so.location = "victim.example.org";
  so.key_bits = 512;
  sfs::SfsServer server(&clock, &costs, so, &authserver);

  sfs::SfsClient::Options co;
  co.ephemeral_key_bits = 512;
  co.prng_seed = GetParam();
  sfs::SfsClient client(&clock, &costs, [&](const std::string&) { return &server; }, co);

  // Clean phase: mount and write known content.
  auto mount = client.Mount(server.Path());
  ASSERT_TRUE(mount.ok());
  Credentials user = Credentials::User(1000, {1000});
  crypto::Prng content_prng(uint64_t{123});  // Same content for every seed.
  std::vector<std::pair<FileHandle, Bytes>> files;
  for (int i = 0; i < 4; ++i) {
    FileHandle fh;
    Fattr attr;
    Bytes content = content_prng.RandomBytes(2000 + 1000 * static_cast<size_t>(i));
    ASSERT_EQ((*mount)->fs()->Create((*mount)->root_fh(), "f" + std::to_string(i), user, {},
                                     &fh, &attr),
              Stat::kOk);
    ASSERT_EQ((*mount)->fs()->Write(fh, user, 0, content, false, &attr), Stat::kOk);
    files.emplace_back(fh, std::move(content));
  }
  (*mount)->cache()->InvalidateAll();  // Force reads onto the wire.

  // Attack phase: corrupt traffic with seed-dependent timing.
  RandomCorruptor corruptor(GetParam(), static_cast<int>(GetParam() % 7));
  (*mount)->link()->set_interposer(&corruptor);

  int successes = 0;
  int failures = 0;
  for (int round = 0; round < 50; ++round) {
    const auto& [fh, expected] = files[static_cast<size_t>(round) % files.size()];
    uint64_t offset = (static_cast<uint64_t>(round) * 397) % expected.size();
    uint32_t count = 512;
    Bytes data;
    bool eof = false;
    Stat s = (*mount)->fs()->Read(fh, user, offset, count, &data, &eof);
    if (s == Stat::kOk) {
      ++successes;
      size_t len = std::min<size_t>(count, expected.size() - offset);
      ASSERT_EQ(data.size(), len) << "round " << round;
      for (size_t i = 0; i < len; ++i) {
        ASSERT_EQ(data[i], expected[offset + i])
            << "WRONG DATA round " << round << " byte " << i;
      }
    } else {
      ++failures;
    }
  }
  // The attacker certainly caused failures; it must never have caused
  // wrong data (the ASSERTs above).
  EXPECT_GT(failures, 0);
  (void)successes;
}

INSTANTIATE_TEST_SUITE_P(Seeds, AdversaryPropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

}  // namespace
