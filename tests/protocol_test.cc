// Protocol state-machine hardening: a ServerConnection must fail closed
// on out-of-order, malformed, or hostile connection-level messages —
// "attackers can ... inject new packets onto the network" (§2.1.2).
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/auth/authserver.h"
#include "src/crypto/prng.h"
#include "src/crypto/sha1.h"
#include "src/nfs/client.h"
#include "src/nfs/memfs.h"
#include "src/nfs/program.h"
#include "src/rpc/rpc.h"
#include "src/sfs/client.h"
#include "src/sfs/proto.h"
#include "src/sfs/server.h"
#include "src/sfs/session.h"
#include "src/sim/disk.h"
#include "src/xdr/xdr.h"
#include "tests/test_keys.h"

namespace {

using sfs::SfsServer;
using util::Bytes;
using util::BytesOf;

constexpr size_t kKeyBits = 512;

class ProtocolTest : public ::testing::Test {
 protected:
  ProtocolTest() {
    SfsServer::Options so;
    so.location = "proto.test";
    so.key_bits = kKeyBits;
    server_ = std::make_unique<SfsServer>(&clock_, &costs_, so, &authserver_);
  }

  // A fresh raw connection (no SfsClient in the way).
  std::unique_ptr<sim::Service> Connect() {
    return std::move(server_->CreateConnection().connection);
  }

  static Bytes Frame(uint32_t type, const Bytes& payload) {
    xdr::Encoder enc;
    enc.PutUint32(type);
    enc.PutOpaque(payload);
    return enc.Take();
  }

  // A channel frame: the wire seqno travels outside the sealed body so
  // the server can deduplicate retransmits without opening the cipher.
  static Bytes EncFrame(uint32_t seqno, const Bytes& sealed) {
    xdr::Encoder enc;
    enc.PutUint32(seqno);
    enc.PutOpaque(sealed);
    return Frame(sfs::kMsgEncrypted, enc.Take());
  }

  Bytes ValidHello() {
    xdr::Encoder hello;
    hello.PutUint32(static_cast<uint32_t>(sfs::ServiceType::kFileServer));
    hello.PutString(server_->Path().location);
    hello.PutOpaque(server_->Path().host_id);
    hello.PutString("");
    return Frame(sfs::kMsgConnect, hello.Take());
  }

  sim::Clock clock_;
  sim::CostModel costs_;
  auth::AuthServer authserver_;
  std::unique_ptr<SfsServer> server_;
};

TEST_F(ProtocolTest, GarbageConnectionMessageKillsConnection) {
  auto conn = Connect();
  EXPECT_FALSE(conn->Handle(BytesOf("not even framed")).ok());
  // Dead connection rejects even a valid hello afterwards.
  EXPECT_FALSE(conn->Handle(ValidHello()).ok());
}

TEST_F(ProtocolTest, UnknownMessageTypeRejected) {
  auto conn = Connect();
  EXPECT_FALSE(conn->Handle(Frame(999, {})).ok());
}

TEST_F(ProtocolTest, NegotiateBeforeConnectRejected) {
  auto conn = Connect();
  xdr::Encoder neg;
  neg.PutOpaque(Bytes(64, 1));
  neg.PutOpaque(Bytes(64, 2));
  neg.PutOpaque(Bytes(64, 3));
  neg.PutBool(false);
  auto reply = conn->Handle(Frame(sfs::kMsgNegotiate, neg.Take()));
  EXPECT_EQ(reply.status().code(), util::ErrorCode::kFailedPrecondition);
}

TEST_F(ProtocolTest, EncryptedBeforeNegotiateRejected) {
  auto conn = Connect();
  ASSERT_TRUE(conn->Handle(ValidHello()).ok());
  auto reply = conn->Handle(Frame(sfs::kMsgEncrypted, Bytes(64, 0xaa)));
  EXPECT_EQ(reply.status().code(), util::ErrorCode::kFailedPrecondition);
}

TEST_F(ProtocolTest, DoubleConnectRejected) {
  auto conn = Connect();
  auto first = conn->Handle(ValidHello());
  ASSERT_TRUE(first.ok());
  // A byte-identical second copy is a retransmitted duplicate: the
  // server replays its recorded reply instead of re-running the state
  // machine (which would kill the connection).
  auto replay = conn->Handle(ValidHello());
  ASSERT_TRUE(replay.ok());
  EXPECT_EQ(replay.value(), first.value());
  // A *different* connect after the handshake began is still a protocol
  // violation.
  xdr::Encoder hello;
  hello.PutUint32(static_cast<uint32_t>(sfs::ServiceType::kFileServer));
  hello.PutString(server_->Path().location);
  hello.PutOpaque(server_->Path().host_id);
  hello.PutString("different-extensions");
  EXPECT_FALSE(conn->Handle(Frame(sfs::kMsgConnect, hello.Take())).ok());
}

TEST_F(ProtocolTest, MalformedNegotiatePayloadKillsConnection) {
  auto conn = Connect();
  ASSERT_TRUE(conn->Handle(ValidHello()).ok());
  EXPECT_FALSE(conn->Handle(Frame(sfs::kMsgNegotiate, BytesOf("trash"))).ok());
}

TEST_F(ProtocolTest, BogusKeyHalvesRejected) {
  auto conn = Connect();
  ASSERT_TRUE(conn->Handle(ValidHello()).ok());
  // Well-formed XDR, but the "ciphertexts" are random bytes the server's
  // key cannot decrypt to valid OAEP.
  crypto::Prng prng(uint64_t{3});
  auto client_key = crypto::RabinPrivateKey::Generate(&prng, kKeyBits);
  size_t k = (server_->public_key().BitLength() + 7) / 8;
  xdr::Encoder neg;
  neg.PutOpaque(client_key.public_key().Serialize());
  neg.PutOpaque(prng.RandomBytes(k));
  neg.PutOpaque(prng.RandomBytes(k));
  neg.PutBool(false);
  auto reply = conn->Handle(Frame(sfs::kMsgNegotiate, neg.Take()));
  EXPECT_FALSE(reply.ok());
}

TEST_F(ProtocolTest, SrpOnFileServerConnectionAfterHelloRejected) {
  auto conn = Connect();
  ASSERT_TRUE(conn->Handle(ValidHello()).ok());
  xdr::Encoder srp;
  srp.PutString("alice");
  srp.PutOpaque(Bytes(16, 1));
  EXPECT_FALSE(conn->Handle(Frame(sfs::kMsgSrpStart, srp.Take())).ok());
}

TEST_F(ProtocolTest, SrpFinishWithoutStartRejected) {
  auto conn = Connect();
  xdr::Encoder fin;
  fin.PutOpaque(Bytes(20, 0));
  EXPECT_FALSE(conn->Handle(Frame(sfs::kMsgSrpFinish, fin.Take())).ok());
}

TEST_F(ProtocolTest, HelloForWrongLocationRejected) {
  auto conn = Connect();
  xdr::Encoder hello;
  hello.PutUint32(static_cast<uint32_t>(sfs::ServiceType::kFileServer));
  hello.PutString("someone-else.example.org");  // Right HostID, wrong Location.
  hello.PutOpaque(server_->Path().host_id);
  hello.PutString("");
  auto reply = conn->Handle(Frame(sfs::kMsgConnect, hello.Take()));
  ASSERT_TRUE(reply.ok());
  xdr::Decoder dec(reply.value());
  ASSERT_TRUE(dec.GetUint32().ok());
  xdr::Decoder payload(dec.GetOpaque().value());
  EXPECT_EQ(payload.GetUint32().value(), static_cast<uint32_t>(sfs::kConnectUnknown));
}

TEST_F(ProtocolTest, FullHandshakeThenDesyncKillsSession) {
  // Drive a complete handshake by hand, then send a garbage encrypted
  // frame: the server's stream desynchronizes and the session dies —
  // subsequent *valid* traffic cannot resurrect it.
  auto conn = Connect();
  auto hello_reply = conn->Handle(ValidHello());
  ASSERT_TRUE(hello_reply.ok());

  crypto::Prng prng(uint64_t{4});
  auto negotiation =
      sfs::ClientNegotiation::Start(server_->public_key(), &prng, kKeyBits);
  ASSERT_TRUE(negotiation.ok());
  xdr::Encoder neg;
  neg.PutOpaque(negotiation->ephemeral_key.public_key().Serialize());
  neg.PutOpaque(negotiation->enc_kc1);
  neg.PutOpaque(negotiation->enc_kc2);
  neg.PutBool(false);
  auto neg_reply = conn->Handle(Frame(sfs::kMsgNegotiate, neg.Take()));
  ASSERT_TRUE(neg_reply.ok());
  xdr::Decoder nd(neg_reply.value());
  ASSERT_TRUE(nd.GetUint32().ok());
  xdr::Decoder np(nd.GetOpaque().value());
  ASSERT_FALSE(np.GetBool().value());  // Not cleartext.
  Bytes enc_ks1 = np.GetOpaque().value();
  Bytes enc_ks2 = np.GetOpaque().value();
  auto keys = negotiation->Finish(server_->public_key(), enc_ks1, enc_ks2);
  ASSERT_TRUE(keys.ok());

  sfs::ChannelCipher out(keys->kcs);
  sfs::ChannelCipher in(keys->ksc);

  // One good RPC (control program: get root).
  xdr::Encoder rpc;
  rpc.PutUint32(1);  // xid
  rpc.PutUint32(sfs::kSfsCtlProgram);
  rpc.PutUint32(sfs::kCtlGetRoot);
  rpc.PutOpaque({});
  auto good = conn->Handle(EncFrame(1, out.Seal(rpc.Take())));
  ASSERT_TRUE(good.ok());

  // Inject garbage under a fresh seqno; the server must kill the session...
  EXPECT_FALSE(conn->Handle(EncFrame(2, Bytes(80, 0x5c))).ok());
  // ...and refuse even a correctly sealed follow-up.
  xdr::Encoder rpc2;
  rpc2.PutUint32(2);
  rpc2.PutUint32(sfs::kSfsCtlProgram);
  rpc2.PutUint32(sfs::kCtlGetRoot);
  rpc2.PutOpaque({});
  EXPECT_FALSE(conn->Handle(EncFrame(3, out.Seal(rpc2.Take()))).ok());
}

TEST_F(ProtocolTest, SequenceNumberWindowEnforced) {
  // Drive the login procedure directly to exercise the out-of-order
  // window (§3.1.2 footnote 4: "the server accepts out-of-order sequence
  // numbers within a reasonable window").
  crypto::Prng prng(uint64_t{20});
  auto user_key = crypto::RabinPrivateKey::Generate(&prng, kKeyBits);
  auth::PublicUserRecord rec;
  rec.name = "alice";
  rec.public_key = user_key.public_key().Serialize();
  rec.credentials = nfs::Credentials::User(1000, {1000});
  ASSERT_TRUE(authserver_.RegisterUser(rec).ok());

  sfs::SfsClient::Options co;
  co.ephemeral_key_bits = kKeyBits;
  sfs::SfsClient client(&clock_, &costs_, [&](const std::string&) { return server_.get(); },
                        co);
  auto mount = client.Mount(server_->Path());
  ASSERT_TRUE(mount.ok());

  // Probe: several successful logins advance max_seqno; a replayed
  // (duplicate) signature for an already-used seqno must fail.  The
  // capturing signer records one message, replays it later.
  Bytes captured;
  uint32_t captured_seqno = 0;
  for (int i = 0; i < 3; ++i) {
    auto signer = [&](const Bytes& info, uint32_t seqno) -> std::optional<Bytes> {
      Bytes body = auth::MakeSignedAuthReqBody(sfs::MakeAuthId(info), seqno);
      xdr::Encoder msg;
      msg.PutOpaque(user_key.public_key().Serialize());
      msg.PutOpaque(user_key.Sign(body));
      if (i == 0) {
        captured = msg.data();
        captured_seqno = seqno;
      }
      return msg.Take();
    };
    ASSERT_TRUE((*mount)->Authenticate(static_cast<uint32_t>(100 + i), signer).ok());
    EXPECT_NE((*mount)->AuthnoFor(static_cast<uint32_t>(100 + i)), sfs::kAnonymousAuthno);
  }
  // Replay of the captured message: the mount's counter has moved on, so
  // the transmitted seqno mismatches the signed one — and even a
  // same-seqno replay would hit the used-seqno set.
  auto replayer = [&](const Bytes&, uint32_t) -> std::optional<Bytes> { return captured; };
  EXPECT_FALSE((*mount)->Authenticate(999, replayer).ok());
  EXPECT_GT(captured_seqno, 0u);
}

TEST_F(ProtocolTest, CleartextRefusedUnlessConfigured) {
  // Server not configured for cleartext: a client asking for it still
  // gets an encrypted channel (the reply's cleartext flag is false).
  auto conn = Connect();
  ASSERT_TRUE(conn->Handle(ValidHello()).ok());
  crypto::Prng prng(uint64_t{5});
  auto negotiation =
      sfs::ClientNegotiation::Start(server_->public_key(), &prng, kKeyBits);
  ASSERT_TRUE(negotiation.ok());
  xdr::Encoder neg;
  neg.PutOpaque(negotiation->ephemeral_key.public_key().Serialize());
  neg.PutOpaque(negotiation->enc_kc1);
  neg.PutOpaque(negotiation->enc_kc2);
  neg.PutBool(true);  // Request cleartext.
  auto reply = conn->Handle(Frame(sfs::kMsgNegotiate, neg.Take()));
  ASSERT_TRUE(reply.ok());
  xdr::Decoder dec(reply.value());
  ASSERT_TRUE(dec.GetUint32().ok());
  xdr::Decoder payload(dec.GetOpaque().value());
  EXPECT_FALSE(payload.GetBool().value());
}

// --- Wire-format pin: every frame, byte for byte --------------------------

// Hashes every frame that crosses a link, in order and tagged with its
// direction, and forwards it untouched.  Two runs that emit the same
// frames in the same order produce the same digest.
class FrameHasher : public sim::Interposer {
 public:
  util::Result<Bytes> OnRequest(Bytes request) override {
    Absorb('>', request);
    return request;
  }
  util::Result<Bytes> OnResponse(Bytes response) override {
    Absorb('<', response);
    return response;
  }

  std::string HexDigest() { return util::HexEncode(sha_.Digest()); }
  uint64_t frames() const { return frames_; }

 private:
  void Absorb(uint8_t direction, const Bytes& frame) {
    const uint32_t size = static_cast<uint32_t>(frame.size());
    const uint8_t header[5] = {direction, static_cast<uint8_t>(size >> 24),
                               static_cast<uint8_t>(size >> 16), static_cast<uint8_t>(size >> 8),
                               static_cast<uint8_t>(size)};
    sha_.Update(header, sizeof(header));
    sha_.Update(frame);
    ++frames_;
  }

  crypto::Sha1 sha_;
  uint64_t frames_ = 0;
};

// What a session leaves on the wire and on the clock.
struct SessionPin {
  std::string frames;  // FrameHasher digest.
  uint64_t elapsed_ns = 0;
};

// A fixed SFS session with spans off: mount (connect, negotiate,
// GETROOT), LOGIN, then creates, writes, reads (a multi-chunk file, so a
// window above 1 keeps read-ahead calls in flight) and removes.
SessionPin SfsSession(uint32_t window, bool encrypt) {
  sim::Clock clock;
  sim::CostModel costs;
  obs::Registry registry;
  auth::AuthServer authserver;
  SfsServer::Options so;
  so.location = "wire.test";
  so.key_bits = kKeyBits;
  so.allow_cleartext = true;
  so.registry = &registry;
  SfsServer server(&clock, &costs, so, &authserver);
  nfs::Fattr attr;
  nfs::Sattr chmod;
  chmod.mode = 0777;
  EXPECT_EQ(server.fs()->SetAttr(server.fs()->root_handle(), nfs::Credentials::User(0), chmod,
                                 &attr),
            nfs::Stat::kOk);

  const crypto::RabinPrivateKey& user_key = test_keys::CachedTestKey(77, kKeyBits);
  auth::PublicUserRecord record;
  record.name = "wire";
  record.public_key = user_key.public_key().Serialize();
  record.credentials = nfs::Credentials::User(1000, {1000});
  EXPECT_TRUE(authserver.RegisterUser(record).ok());

  sfs::SfsClient::Options co;
  co.ephemeral_key_bits = kKeyBits;
  co.window = window;
  co.encrypt = encrypt;
  co.registry = &registry;
  sfs::SfsClient client(&clock, &costs, [&](const std::string&) { return &server; }, co);
  FrameHasher hasher;
  client.set_interposer(&hasher);

  auto mount = client.Mount(server.Path());
  EXPECT_TRUE(mount.ok()) << mount.status().ToString();
  if (!mount.ok()) {
    return {};
  }
  auto signer = [&](const Bytes& info, uint32_t seqno) -> std::optional<Bytes> {
    Bytes body = auth::MakeSignedAuthReqBody(sfs::MakeAuthId(info), seqno);
    xdr::Encoder msg;
    msg.PutOpaque(user_key.public_key().Serialize());
    msg.PutOpaque(user_key.Sign(body));
    return msg.Take();
  };
  EXPECT_TRUE((*mount)->Authenticate(1000, signer).ok());

  nfs::FileSystemApi* fs = (*mount)->fs();
  const nfs::Credentials cred = nfs::Credentials::User(1000, {1000});
  std::vector<nfs::FileHandle> handles;
  for (int i = 0; i < 4; ++i) {
    nfs::FileHandle fh;
    const std::string name = "wire-" + std::to_string(i);
    EXPECT_EQ(fs->Create((*mount)->root_fh(), name, cred, nfs::Sattr{}, &fh, &attr),
              nfs::Stat::kOk);
    EXPECT_EQ(fs->Write(fh, cred, 0, Bytes(3000 + 1000 * i, static_cast<uint8_t>(i)),
                        /*stable=*/true, &attr),
              nfs::Stat::kOk);
    handles.push_back(fh);
  }
  nfs::FileHandle big;
  EXPECT_EQ(fs->Create((*mount)->root_fh(), "wire-big", cred, nfs::Sattr{}, &big, &attr),
            nfs::Stat::kOk);
  EXPECT_EQ(fs->Write(big, cred, 0, Bytes(48 * 1024, 0x5a), /*stable=*/true, &attr),
            nfs::Stat::kOk);
  (*mount)->cache()->InvalidateAll();
  EXPECT_EQ(fs->GetAttr(big, &attr), nfs::Stat::kOk);
  for (uint32_t offset = 0; offset < 48 * 1024; offset += 8192) {
    Bytes data;
    bool eof = false;
    EXPECT_EQ(fs->Read(big, cred, offset, 8192, &data, &eof), nfs::Stat::kOk);
    EXPECT_EQ(data, Bytes(8192, 0x5a));
  }
  for (size_t i = 0; i < handles.size(); ++i) {
    Bytes data;
    bool eof = false;
    EXPECT_EQ(fs->Read(handles[i], cred, 0, 8192, &data, &eof), nfs::Stat::kOk);
  }
  for (int i = 0; i < 4; i += 2) {
    EXPECT_EQ(fs->Remove((*mount)->root_fh(), "wire-" + std::to_string(i), cred),
              nfs::Stat::kOk);
  }
  EXPECT_EQ(fs->Remove((*mount)->root_fh(), "wire-big", cred), nfs::Stat::kOk);
  EXPECT_GT(hasher.frames(), 0u);
  return {hasher.HexDigest(), clock.now_ns()};
}

// Plain NFS3 over rpc::Client: synchronous creates, writes and removes,
// plus a burst of asynchronous reads that a window above 1 overlaps.
SessionPin NfsSession(uint32_t window) {
  sim::Clock clock;
  sim::CostModel costs;
  obs::Registry registry;
  sim::Disk disk(&clock, sim::DiskProfile::Ibm18Es(), &registry);
  nfs::MemFs memfs(&clock, &disk, nfs::MemFs::Options{});
  nfs::NfsProgram program(&memfs, &clock, &costs);
  rpc::Dispatcher dispatcher(&registry, &clock);
  dispatcher.RegisterProgram(
      nfs::kNfsProgram,
      [&](uint32_t proc, const Bytes& args) { return program.HandleWire(proc, args); },
      [](uint32_t proc) { return std::string(nfs::ProcName(proc)); }, "NFS3");
  sim::Link link(&clock, sim::LinkProfile::Udp(), &dispatcher, &registry);
  FrameHasher hasher;
  link.set_interposer(&hasher);
  rpc::LinkTransport transport(&link);
  rpc::Client rpc_client(&transport, nfs::kNfsProgram, &registry, "NFS3",
                         [](uint32_t proc) { return std::string(nfs::ProcName(proc)); });
  rpc_client.set_window(window);
  nfs::NfsClient nfs_client(
      [&](uint32_t proc, const Bytes& args) { return rpc_client.Call(proc, args); },
      nfs::NfsClient::WireCredentialsEncoder());
  nfs_client.set_async_call([&](uint32_t proc, const Bytes& args, nfs::AsyncReplyFn done) {
    rpc_client.CallAsync(proc, args, std::move(done));
  });

  const nfs::Credentials root = nfs::Credentials::User(0);
  nfs::Fattr attr;
  std::vector<nfs::FileHandle> handles;
  for (int i = 0; i < 6; ++i) {
    nfs::FileHandle fh;
    const std::string name = "nfs-" + std::to_string(i);
    EXPECT_EQ(nfs_client.Create(memfs.root_handle(), name, root, nfs::Sattr{}, &fh, &attr),
              nfs::Stat::kOk);
    EXPECT_EQ(nfs_client.Write(fh, root, 0, Bytes(2000 + 500 * i, static_cast<uint8_t>(i)),
                               /*stable=*/true, &attr),
              nfs::Stat::kOk);
    handles.push_back(fh);
  }
  int reads = 0;
  for (const nfs::FileHandle& fh : handles) {
    nfs_client.ReadAsync(fh, root, 0, 4096, [&reads](nfs::Stat stat, Bytes, bool) {
      EXPECT_EQ(stat, nfs::Stat::kOk);
      ++reads;
    });
  }
  rpc_client.Drain();
  EXPECT_EQ(reads, 6);
  for (int i = 0; i < 6; i += 2) {
    EXPECT_EQ(nfs_client.Remove(memfs.root_handle(), "nfs-" + std::to_string(i), root),
              nfs::Stat::kOk);
  }
  EXPECT_GT(hasher.frames(), 0u);
  return {hasher.HexDigest(), clock.now_ns()};
}

// Recorded from the tree before the secure channel became an
// rpc::Transport; a refactor of the call engine must not move a byte or
// a nanosecond.
void ExpectPin(const SessionPin& pin, const std::string& frames, uint64_t elapsed_ns) {
  EXPECT_EQ(pin.frames, frames);
  EXPECT_EQ(pin.elapsed_ns, elapsed_ns);
}

TEST(WireFormatTest, SfsFramesAreByteIdentical) {
  ExpectPin(SfsSession(/*window=*/1, /*encrypt=*/true), "395d920edbe97efda50a709401d352c6e0bb41e5",
            240071617);
  ExpectPin(SfsSession(/*window=*/4, /*encrypt=*/true), "572850a90aabecd843fd11daeef2f706dc36b3f4",
            242604463);
  ExpectPin(SfsSession(/*window=*/1, /*encrypt=*/false), "8f3e3102e0c647deea9e41f7062641161684cf62",
            229694885);
  ExpectPin(SfsSession(/*window=*/4, /*encrypt=*/false), "f8a6431c99feec276ba9e637fd1897a2a9c53afb",
            230855822);
}

TEST(WireFormatTest, PlainRpcFramesAreByteIdentical) {
  ExpectPin(NfsSession(/*window=*/1), "6d7ba9cd951cd165592fdbc629313946f065f2e5", 81069358);
  ExpectPin(NfsSession(/*window=*/4), "0df5b0d265a587daef1fde1be74f7ea9d28cf8e6", 79988958);
}

}  // namespace
