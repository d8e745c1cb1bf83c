#include "src/sfs/sfskey.h"

#include <utility>

#include "src/crypto/blowfish.h"
#include "src/crypto/srp.h"
#include "src/sfs/proto.h"
#include "src/sfs/session.h"
#include "src/xdr/xdr.h"

namespace sfs {
namespace {

util::Bytes SealKeyFor(const std::string& password, const util::Bytes& salt, unsigned cost) {
  // 24-byte eksblowfish output keys the sealing cipher directly.
  return crypto::EksBlowfishHash(cost, salt, util::BytesOf(password));
}

}  // namespace

util::Bytes EncryptPrivateKey(const crypto::RabinPrivateKey& key, const std::string& password,
                              unsigned cost, crypto::Prng* prng) {
  util::Bytes salt = prng->RandomBytes(16);
  ChannelCipher seal(SealKeyFor(password, salt, cost));
  xdr::Encoder out;
  out.PutFixedOpaque(salt);
  out.PutUint32(cost);
  out.PutOpaque(seal.Seal(key.Serialize()));
  return out.Take();
}

util::Result<crypto::RabinPrivateKey> DecryptPrivateKey(const util::Bytes& blob,
                                                        const std::string& password) {
  xdr::Decoder dec(blob);
  ASSIGN_OR_RETURN(util::Bytes salt, dec.GetFixedOpaque(16));
  ASSIGN_OR_RETURN(uint32_t cost, dec.GetUint32());
  if (cost > 31) {
    return util::InvalidArgument("implausible eksblowfish cost");
  }
  ASSIGN_OR_RETURN(util::Bytes sealed, dec.GetOpaque());
  ChannelCipher open(SealKeyFor(password, salt, cost));
  auto plain = open.Open(std::move(sealed));
  if (!plain.ok()) {
    return util::SecurityError("wrong password (private key MAC mismatch)");
  }
  return crypto::RabinPrivateKey::Deserialize(plain.value());
}

auth::PrivateUserRecord MakeSrpRecord(const std::string& password, unsigned cost,
                                      const crypto::RabinPrivateKey& key,
                                      crypto::Prng* prng) {
  auth::PrivateUserRecord record;
  record.srp = crypto::MakeSrpVerifier(crypto::DefaultSrpParams(), password, cost, prng);
  record.encrypted_private_key = EncryptPrivateKey(key, password, cost, prng);
  return record;
}

util::Result<SfsKeyFetch> SrpFetchKey(sim::Clock* clock, SfsServer* server,
                                      sim::LinkProfile profile, const std::string& user,
                                      const std::string& password, crypto::Prng* prng) {
  SfsServer::Accepted accepted = server->CreateConnection();
  sim::Link link(clock, profile, accepted.connection.get());
  crypto::SrpClient srp(crypto::DefaultSrpParams(), prng);

  // Message 1: user name + SRP A.
  xdr::Encoder start;
  start.PutString(user);
  start.PutOpaque(srp.A().ToBytes());
  ASSIGN_OR_RETURN(util::Bytes reply1,
                   link.Roundtrip(FrameMessage(kMsgSrpStart, start.Take())));
  ASSIGN_OR_RETURN(util::Bytes payload1, Unframe(kMsgSrpStart, reply1));
  xdr::Decoder p1(payload1);
  ASSIGN_OR_RETURN(util::Bytes salt, p1.GetOpaque());
  ASSIGN_OR_RETURN(uint32_t cost, p1.GetUint32());
  ASSIGN_OR_RETURN(util::Bytes b_bytes, p1.GetOpaque());
  RETURN_IF_ERROR(
      srp.ProcessServerReply(password, salt, cost, crypto::BigInt::FromBytes(b_bytes)));

  // Message 2: client proof; reply carries server proof + sealed secrets.
  xdr::Encoder finish;
  finish.PutOpaque(srp.ClientProof());
  ASSIGN_OR_RETURN(util::Bytes reply2,
                   link.Roundtrip(FrameMessage(kMsgSrpFinish, finish.Take())));
  ASSIGN_OR_RETURN(util::Bytes payload2, Unframe(kMsgSrpFinish, reply2));
  xdr::Decoder p2(payload2);
  ASSIGN_OR_RETURN(util::Bytes m2, p2.GetOpaque());
  ASSIGN_OR_RETURN(util::Bytes sealed, p2.GetOpaque());
  RETURN_IF_ERROR(srp.VerifyServerProof(m2));

  ChannelCipher open(srp.SessionKey());
  ASSIGN_OR_RETURN(util::Bytes secret, open.Open(std::move(sealed)));
  xdr::Decoder sec(secret);
  SfsKeyFetch out;
  ASSIGN_OR_RETURN(out.self_certifying_path, sec.GetString());
  ASSIGN_OR_RETURN(util::Bytes encrypted_key, sec.GetOpaque());
  ASSIGN_OR_RETURN(out.private_key, DecryptPrivateKey(encrypted_key, password));
  return out;
}

util::Status SrpChangePassword(sim::Clock* clock, SfsServer* server, sim::LinkProfile profile,
                               const std::string& user, const std::string& old_password,
                               const std::string& new_password, unsigned cost,
                               crypto::Prng* prng) {
  // Prove the old password and recover the private key in one step.
  ASSIGN_OR_RETURN(SfsKeyFetch fetch,
                   SrpFetchKey(clock, server, profile, user, old_password, prng));
  // Derive everything fresh from the new password.  In the real system
  // this update travels over the SRP-negotiated channel; the in-process
  // authserver call models the server side of that RPC.
  return server->authserver()->UpdatePrivateRecord(
      user, MakeSrpRecord(new_password, cost, fetch.private_key, prng));
}

}  // namespace sfs
