// Tests for the authserver, agents (including proxy agents), and the
// sfskey utility.
#include <gtest/gtest.h>

#include "src/agent/agent.h"
#include "src/auth/authserver.h"
#include "src/crypto/prng.h"
#include "src/nfs/memfs.h"
#include "src/sfs/pathname.h"
#include "src/sfs/session.h"
#include "src/sfs/sfskey.h"
#include "src/xdr/xdr.h"
#include "tests/test_keys.h"

namespace {

using agent::Agent;
using agent::ProxyAgent;
using auth::AuthServer;
using auth::PublicUserRecord;
using util::Bytes;
using util::BytesOf;

constexpr size_t kKeyBits = 512;

crypto::RabinPrivateKey MakeKey(uint64_t seed) {
  return test_keys::CachedTestKey(seed, kKeyBits);
}

PublicUserRecord MakeRecord(const std::string& name, const crypto::RabinPrivateKey& key,
                            uint32_t uid) {
  PublicUserRecord r;
  r.name = name;
  r.public_key = key.public_key().Serialize();
  r.credentials = nfs::Credentials::User(uid, {uid});
  return r;
}

// Builds a valid AuthMsg the way an agent does.
Bytes MakeAuthMsg(const crypto::RabinPrivateKey& key, const Bytes& auth_id, uint32_t seqno) {
  Bytes body = auth::MakeSignedAuthReqBody(auth_id, seqno);
  xdr::Encoder enc;
  enc.PutOpaque(key.public_key().Serialize());
  enc.PutOpaque(key.Sign(body));
  return enc.Take();
}

// --- AuthServer -----------------------------------------------------------------

TEST(AuthServerTest, RegisterAndValidate) {
  AuthServer server;
  auto key = MakeKey(1);
  ASSERT_TRUE(server.RegisterUser(MakeRecord("alice", key, 1000)).ok());
  Bytes auth_id(20, 0x42);
  auto creds = server.ValidateAuthMsg(MakeAuthMsg(key, auth_id, 7), auth_id, 7);
  ASSERT_TRUE(creds.ok());
  EXPECT_EQ(creds->uid, 1000u);
  EXPECT_EQ(server.validations(), 1u);
  EXPECT_EQ(server.failed_validations(), 0u);
}

TEST(AuthServerTest, DuplicateRegistrationsRejected) {
  AuthServer server;
  auto key = MakeKey(2);
  ASSERT_TRUE(server.RegisterUser(MakeRecord("alice", key, 1000)).ok());
  EXPECT_FALSE(server.RegisterUser(MakeRecord("alice", MakeKey(3), 1001)).ok());
  EXPECT_FALSE(server.RegisterUser(MakeRecord("alice2", key, 1002)).ok());
  EXPECT_FALSE(server.RegisterUser(PublicUserRecord{}).ok());
}

TEST(AuthServerTest, WrongAuthIdRejected) {
  AuthServer server;
  auto key = MakeKey(4);
  ASSERT_TRUE(server.RegisterUser(MakeRecord("alice", key, 1000)).ok());
  Bytes auth_id(20, 0x42);
  Bytes other_id(20, 0x43);
  // Signature binds the AuthID: a message for one session fails another.
  auto creds = server.ValidateAuthMsg(MakeAuthMsg(key, auth_id, 1), other_id, 1);
  EXPECT_EQ(creds.status().code(), util::ErrorCode::kSecurityError);
  EXPECT_EQ(server.failed_validations(), 1u);
}

TEST(AuthServerTest, WrongSeqnoRejected) {
  AuthServer server;
  auto key = MakeKey(5);
  ASSERT_TRUE(server.RegisterUser(MakeRecord("alice", key, 1000)).ok());
  Bytes auth_id(20, 0x42);
  auto creds = server.ValidateAuthMsg(MakeAuthMsg(key, auth_id, 1), auth_id, 2);
  EXPECT_FALSE(creds.ok());
}

TEST(AuthServerTest, UnknownKeyRejected) {
  AuthServer server;
  ASSERT_TRUE(server.RegisterUser(MakeRecord("alice", MakeKey(6), 1000)).ok());
  Bytes auth_id(20, 1);
  auto creds = server.ValidateAuthMsg(MakeAuthMsg(MakeKey(7), auth_id, 1), auth_id, 1);
  EXPECT_FALSE(creds.ok());
}

TEST(AuthServerTest, MalformedAuthMsgRejected) {
  AuthServer server;
  Bytes auth_id(20, 1);
  EXPECT_FALSE(server.ValidateAuthMsg(BytesOf("garbage"), auth_id, 1).ok());
  EXPECT_FALSE(server.ValidateAuthMsg({}, auth_id, 1).ok());
}

TEST(AuthServerTest, ChangePublicKey) {
  AuthServer server;
  auto old_key = MakeKey(8);
  auto new_key = MakeKey(9);
  ASSERT_TRUE(server.RegisterUser(MakeRecord("alice", old_key, 1000)).ok());
  ASSERT_TRUE(server.ChangePublicKey("alice", new_key.public_key().Serialize()).ok());
  Bytes auth_id(20, 1);
  EXPECT_FALSE(server.ValidateAuthMsg(MakeAuthMsg(old_key, auth_id, 1), auth_id, 1).ok());
  EXPECT_TRUE(server.ValidateAuthMsg(MakeAuthMsg(new_key, auth_id, 2), auth_id, 2).ok());
  EXPECT_FALSE(server.ChangePublicKey("nobody", new_key.public_key().Serialize()).ok());
}

TEST(AuthServerTest, ImportedPublicDatabase) {
  // The paper's arrangement: a central server exports its public database
  // to separately-administered servers "without trusting them".
  AuthServer central;
  auto key = MakeKey(10);
  ASSERT_TRUE(central.RegisterUser(MakeRecord("alice", key, 1000)).ok());
  crypto::Prng prng(uint64_t{11});
  auth::PrivateUserRecord private_record;
  private_record.srp = crypto::MakeSrpVerifier(crypto::DefaultSrpParams(), "pw", 2, &prng);
  ASSERT_TRUE(central.UpdatePrivateRecord("alice", private_record).ok());

  AuthServer department;
  department.ImportPublicDatabase(&central);
  // Public info flows through the import...
  Bytes auth_id(20, 5);
  auto creds = department.ValidateAuthMsg(MakeAuthMsg(key, auth_id, 1), auth_id, 1);
  ASSERT_TRUE(creds.ok());
  EXPECT_EQ(creds->uid, 1000u);
  EXPECT_TRUE(department.FindByName("alice").has_value());
  // ...but the private database (SRP data) never does.
  EXPECT_FALSE(department.SrpVerifierFor("alice").ok());
  // Local records shadow imports.
  ASSERT_TRUE(department.RegisterUser(MakeRecord("bob", MakeKey(12), 2000)).ok());
  EXPECT_EQ(department.PublicDatabase().size(), 1u);  // Only local records exported.
}

TEST(AuthServerTest, GroupsFoldIntoCredentials) {
  AuthServer server;
  auto key = MakeKey(40);
  ASSERT_TRUE(server.RegisterUser(MakeRecord("alice", key, 1000)).ok());
  ASSERT_TRUE(server.AddGroup("pdos", 4000, {"alice", "bob"}).ok());
  ASSERT_TRUE(server.AddGroup("faculty", 5000, {"frans"}).ok());
  Bytes auth_id(20, 6);
  auto creds = server.ValidateAuthMsg(MakeAuthMsg(key, auth_id, 1), auth_id, 1);
  ASSERT_TRUE(creds.ok());
  EXPECT_EQ(creds->uid, 1000u);
  EXPECT_TRUE(creds->HasGid(1000));  // Primary group.
  EXPECT_TRUE(creds->HasGid(4000));  // pdos membership.
  EXPECT_FALSE(creds->HasGid(5000));

  // Late membership addition takes effect on the next validation.
  ASSERT_TRUE(server.AddGroupMember("faculty", "alice").ok());
  auto creds2 = server.ValidateAuthMsg(MakeAuthMsg(key, auth_id, 2), auth_id, 2);
  ASSERT_TRUE(creds2.ok());
  EXPECT_TRUE(creds2->HasGid(5000));
  // Duplicate groups and bad adds are rejected.
  EXPECT_FALSE(server.AddGroup("pdos", 4001, {}).ok());
  EXPECT_FALSE(server.AddGroupMember("nonexistent", "alice").ok());
}

TEST(AuthServerTest, GroupCredentialsAuthorizeGroupFiles) {
  // End-to-end meaning of a group: group-readable files open for members.
  sim::Clock clock;
  sim::Disk disk(&clock, sim::DiskProfile::Ibm18Es());
  nfs::MemFs fs(&clock, &disk, nfs::MemFs::Options{});
  nfs::Credentials owner = nfs::Credentials::User(1, {4000});
  nfs::FileHandle fh;
  nfs::Fattr attr;
  nfs::Sattr mode;
  mode.mode = 0640;
  ASSERT_EQ(fs.Create(fs.root_handle(), "shared", owner, mode, &fh, &attr), nfs::Stat::kOk);

  AuthServer server;
  auto key = MakeKey(41);
  ASSERT_TRUE(server.RegisterUser(MakeRecord("member", key, 2000)).ok());
  ASSERT_TRUE(server.AddGroup("pdos", 4000, {"member"}).ok());
  Bytes auth_id(20, 7);
  auto creds = server.ValidateAuthMsg(MakeAuthMsg(key, auth_id, 1), auth_id, 1);
  ASSERT_TRUE(creds.ok());
  Bytes data;
  bool eof = false;
  EXPECT_EQ(fs.Read(fh, creds.value(), 0, 10, &data, &eof), nfs::Stat::kOk);
  // A non-member with the same uid pattern but no group is denied.
  EXPECT_EQ(fs.Read(fh, nfs::Credentials::User(2000, {2000}), 0, 10, &data, &eof),
            nfs::Stat::kAccess);
}

TEST(AuthServerTest, PublicDatabaseContainsNoSecrets) {
  AuthServer server;
  auto key = MakeKey(13);
  ASSERT_TRUE(server.RegisterUser(MakeRecord("alice", key, 1000)).ok());
  crypto::Prng prng(uint64_t{14});
  ASSERT_TRUE(server
                  .UpdatePrivateRecord("alice", sfs::MakeSrpRecord("secret pw", 2,
                                                                   MakeKey(15), &prng))
                  .ok());
  // The exportable view is names, keys, and credentials only.
  auto db = server.PublicDatabase();
  ASSERT_EQ(db.size(), 1u);
  EXPECT_EQ(db[0].name, "alice");
  EXPECT_EQ(db[0].public_key, key.public_key().Serialize());
}

// --- Agent ----------------------------------------------------------------------

TEST(AgentTest, SigningProducesValidAuthMsg) {
  Agent agent("alice");
  auto key = MakeKey(16);
  agent.AddPrivateKey(key);
  AuthServer server;
  ASSERT_TRUE(server.RegisterUser(MakeRecord("alice", key, 1000)).ok());

  Bytes auth_info = BytesOf("pretend-auth-info");
  auto msg = agent.SignAuthRequest(0, auth_info, 3);
  ASSERT_TRUE(msg.has_value());
  Bytes auth_id = sfs::MakeAuthId(auth_info);
  EXPECT_TRUE(server.ValidateAuthMsg(*msg, auth_id, 3).ok());
  ASSERT_EQ(agent.audit_log().size(), 1u);
  EXPECT_NE(agent.audit_log()[0].find("seqno=3"), std::string::npos);
}

TEST(AgentTest, NoKeyMeansDecline) {
  Agent agent("empty");
  EXPECT_FALSE(agent.SignAuthRequest(0, BytesOf("x"), 1).has_value());
  Agent one_key("alice");
  one_key.AddPrivateKey(MakeKey(17));
  EXPECT_TRUE(one_key.SignAuthRequest(0, BytesOf("x"), 1).has_value());
  EXPECT_FALSE(one_key.SignAuthRequest(1, BytesOf("x"), 2).has_value());
}

TEST(AgentTest, DynamicLinks) {
  Agent agent("alice");
  EXPECT_FALSE(agent.LookupLink("mit").has_value());
  agent.AddLink("mit", "/sfs/host:hostid");
  EXPECT_EQ(agent.LookupLink("mit").value(), "/sfs/host:hostid");
  agent.AddLink("mit", "/sfs/other:hostid");  // Replace.
  EXPECT_EQ(agent.LookupLink("mit").value(), "/sfs/other:hostid");
}

TEST(AgentTest, RevocationRequiresValidCertificate) {
  Agent agent("alice");
  auto key = MakeKey(18);
  sfs::PathRevokeCert cert = sfs::PathRevokeCert::MakeRevocation(key, "host.example.com");
  sfs::SelfCertifyingPath path =
      sfs::SelfCertifyingPath::For("host.example.com", key.public_key());

  // The same certificate with one signature byte flipped: it parses and
  // names the path, but must not be stored.  The signature is the last
  // field; XDR pads at most 3 bytes after it.
  util::Bytes wire = cert.Serialize();
  wire[wire.size() - 8] ^= 1;
  auto tampered = sfs::PathRevokeCert::Deserialize(wire);
  ASSERT_TRUE(tampered.ok()) << tampered.status().ToString();
  EXPECT_TRUE(tampered->RevokedPath() == path);
  EXPECT_FALSE(agent.AddRevocation(*tampered).ok());
  EXPECT_FALSE(agent.IsRevoked(path));
  EXPECT_EQ(agent.RevocationFor(path.host_id), nullptr);

  EXPECT_TRUE(agent.AddRevocation(cert).ok());
  EXPECT_TRUE(agent.IsRevoked(path));
  EXPECT_NE(agent.RevocationFor(path.host_id), nullptr);

  // A forwarding pointer is not a revocation.
  auto target_key = MakeKey(19);
  sfs::PathRevokeCert forward = sfs::PathRevokeCert::MakeForwardingPointer(
      key, "host.example.com",
      sfs::SelfCertifyingPath::For("new.example.com", target_key.public_key()));
  EXPECT_FALSE(agent.AddRevocation(forward).ok());
}

TEST(RevocationCertTest, CorrectlySignedCertificateWithoutALocationIsRefused) {
  // Signed by the key it names, over an empty location: the signature
  // holds, so only Verify's location check refuses it.  A path needs a
  // Location, and a certificate that names none revokes nothing.
  auto key = MakeKey(22);
  const sfs::PathRevokeCert named = sfs::PathRevokeCert::MakeRevocation(key, "host.example.com");
  ASSERT_TRUE(named.Verify().ok()) << named.Verify().ToString();
  const sfs::PathRevokeCert revocation = sfs::PathRevokeCert::MakeRevocation(key, "");
  const sfs::PathRevokeCert forward = sfs::PathRevokeCert::MakeForwardingPointer(
      key, "", sfs::SelfCertifyingPath::For("new.example.com", MakeKey(23).public_key()));
  for (const sfs::PathRevokeCert* cert : {&revocation, &forward}) {
    EXPECT_EQ(cert->Verify().code(), util::ErrorCode::kSecurityError);
    // As it would arrive from the wire: it parses, and is still refused.
    auto wire = sfs::PathRevokeCert::Deserialize(cert->Serialize());
    ASSERT_TRUE(wire.ok()) << wire.status().ToString();
    EXPECT_EQ(wire->Verify().code(), util::ErrorCode::kSecurityError);
    Agent agent("alice");
    EXPECT_FALSE(agent.AddRevocation(*wire).ok());
  }
}

TEST(AgentTest, BlockingIsIndependentOfRevocation) {
  Agent agent("alice");
  auto key = MakeKey(20);
  sfs::SelfCertifyingPath path =
      sfs::SelfCertifyingPath::For("host.example.com", key.public_key());
  EXPECT_FALSE(agent.IsBlocked(path));
  agent.BlockHostId(path.host_id);
  EXPECT_TRUE(agent.IsBlocked(path));
  EXPECT_FALSE(agent.IsRevoked(path));
}

TEST(AgentTest, ProxyAgentForwardsAndAudits) {
  Agent home_agent("alice");
  auto key = MakeKey(21);
  home_agent.AddPrivateKey(key);
  ProxyAgent proxy("gateway.lab.example.com", &home_agent);
  EXPECT_EQ(proxy.owner(), "alice@gateway.lab.example.com");
  EXPECT_EQ(proxy.key_count(), 1u);

  Bytes auth_info = BytesOf("session-info");
  auto msg = proxy.SignAuthRequest(0, auth_info, 9);
  ASSERT_TRUE(msg.has_value());
  // The signature is valid (made by the upstream key)...
  AuthServer server;
  ASSERT_TRUE(server.RegisterUser(MakeRecord("alice", key, 1000)).ok());
  EXPECT_TRUE(server.ValidateAuthMsg(*msg, sfs::MakeAuthId(auth_info), 9).ok());
  // ...and both audit trails record the hop.
  ASSERT_FALSE(proxy.audit_log().empty());
  EXPECT_NE(proxy.audit_log()[0].find("gateway.lab.example.com"), std::string::npos);
  ASSERT_FALSE(home_agent.audit_log().empty());
  EXPECT_NE(home_agent.audit_log()[0].find("seqno=9"), std::string::npos);
}

TEST(AgentTest, ProxyDeclinesWhenUpstreamHasNoKey) {
  Agent empty("bob");
  ProxyAgent proxy("gw", &empty);
  EXPECT_FALSE(proxy.SignAuthRequest(0, BytesOf("x"), 1).has_value());
  EXPECT_EQ(proxy.audit_log().size(), 2u);  // Forward + decline entries.
}

// --- sfskey ----------------------------------------------------------------------

TEST(SfsKeyTest, PrivateKeyEncryptionRoundTrip) {
  crypto::Prng prng(uint64_t{22});
  auto key = MakeKey(23);
  Bytes blob = sfs::EncryptPrivateKey(key, "open sesame", 3, &prng);
  auto restored = sfs::DecryptPrivateKey(blob, "open sesame");
  ASSERT_TRUE(restored.ok());
  Bytes msg = BytesOf("check");
  EXPECT_TRUE(key.public_key().Verify(msg, restored->Sign(msg)).ok());
}

TEST(SfsKeyTest, WrongPasswordFailsCleanly) {
  crypto::Prng prng(uint64_t{24});
  auto key = MakeKey(25);
  Bytes blob = sfs::EncryptPrivateKey(key, "right", 3, &prng);
  auto restored = sfs::DecryptPrivateKey(blob, "wrong");
  EXPECT_EQ(restored.status().code(), util::ErrorCode::kSecurityError);
}

TEST(SfsKeyTest, TamperedBlobDetected) {
  crypto::Prng prng(uint64_t{26});
  auto key = MakeKey(27);
  Bytes blob = sfs::EncryptPrivateKey(key, "pw", 3, &prng);
  for (size_t i : {size_t{21}, blob.size() / 2, blob.size() - 1}) {
    Bytes bad = blob;
    bad[i] ^= 1;
    EXPECT_FALSE(sfs::DecryptPrivateKey(bad, "pw").ok()) << "byte " << i;
  }
}

TEST(SfsKeyTest, SrpRecordHasVerifierAndCiphertext) {
  crypto::Prng prng(uint64_t{28});
  auto key = MakeKey(29);
  auto record = sfs::MakeSrpRecord("pw", 2, key, &prng);
  ASSERT_TRUE(record.srp.has_value());
  EXPECT_EQ(record.srp->cost, 2u);
  EXPECT_FALSE(record.encrypted_private_key.empty());
  auto restored = sfs::DecryptPrivateKey(record.encrypted_private_key, "pw");
  EXPECT_TRUE(restored.ok());
}

}  // namespace
