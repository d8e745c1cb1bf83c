// SFS secure-channel cryptography: the key-negotiation protocol of
// Figure 3 and the per-message seal/open discipline of §3.1.3.
//
// Negotiation (client C, server S, Location/HostID from the pathname):
//   1. C -> S: Location, HostID                  (connect request)
//   2. S -> C: K_S                               (public key; C checks HostID)
//   3. C -> S: K_C, {kc1}_KS, {kc2}_KS           (K_C short-lived, anonymous)
//   4. S -> C: {ks1}_KC, {ks2}_KC
// Session keys (quoted strings are XDR-marshaled constants):
//   kcs = SHA-1("KCS", K_S, kc1, K_C, ks1)       (client->server direction)
//   ksc = SHA-1("KSC", K_S, kc2, K_C, ks2)       (server->client direction)
//
// Forward secrecy: the server's key halves travel under the ephemeral
// K_C, which clients "discard and regenerate at regular intervals", so a
// later compromise of K_S's private half cannot decrypt recorded traffic.
//
// Channel discipline: each direction runs one ARC4 stream keyed by its
// session key.  Per message, 32 bytes are drawn from the stream to key a
// SHA-1 MAC (never used as encryption keystream); the MAC covers length
// and plaintext; then length || plaintext || MAC are all encrypted.
//
// ChannelTransport makes the client half of that channel one more
// rpc::Transport: the call engine is the same rpc::Client that speaks
// plain NFS3 over a bare link.
#ifndef SFS_SRC_SFS_SESSION_H_
#define SFS_SRC_SFS_SESSION_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/crypto/arc4.h"
#include "src/crypto/prng.h"
#include "src/crypto/rabin.h"
#include "src/obs/span.h"
#include "src/rpc/rpc.h"
#include "src/sfs/pathname.h"
#include "src/sim/cost_model.h"
#include "src/util/bytes.h"
#include "src/util/status.h"

namespace sfs {

// One direction of the secure channel.
class ChannelCipher {
 public:
  explicit ChannelCipher(const util::Bytes& session_key);

  // Seals one message: draws the per-message MAC key, MACs length +
  // plaintext, encrypts everything.
  util::Bytes Seal(const util::Bytes& plaintext);

  // Opens a sealed message; tampering, truncation, replay, or reordering
  // breaks the MAC and yields kSecurityError.  A failed Open restores the
  // stream to its prior position, so the caller may discard the bad
  // message and open a later (retransmitted) copy of the expected one —
  // required for loss masking, where a stale reply must not poison the
  // channel.  Whether a failure is fatal is the caller's policy: the
  // server still kills the connection on any bad message.
  util::Result<util::Bytes> Open(const util::Bytes& sealed);

 private:
  crypto::Arc4 stream_;
};

// Records one already-elapsed all-kCrypto interval (a seal or open of the
// channel cipher) under `parent`, in `layer` ("sfs.chan" on the client,
// "server" on the server).
void RecordCryptoSpan(obs::SpanCollector* spans, const char* name, const char* layer,
                      uint64_t start_ns, uint64_t end_ns, uint64_t bytes,
                      obs::SpanContext parent);

// The client side of an established secure channel as an rpc::Transport.
// A call body is sealed exactly once and framed as {kMsgEncrypted,
// seqno, sealed}; retransmissions resend those bytes, so the send
// keystream advances once per call however many copies the network
// loses, and the cleartext seqno lets the server deduplicate without
// opening.  Replies echo the seqno in cleartext and open strictly in
// seqno order, because the receive keystream is positional: an early
// reply is held until the cursor reaches it.  Null ciphers select the
// cleartext ablation (copies instead of seals).  Crypto charges and the
// sfs.seal/sfs.open spans nest under the owning sfs.call.<PROC> span.
class ChannelTransport : public rpc::Transport {
 public:
  ChannelTransport(sim::Link* link, const sim::CostModel* costs, obs::Registry* registry,
                   std::unique_ptr<ChannelCipher> seal, std::unique_ptr<ChannelCipher> open);

  // Charges the client daemon's two kernel crossings, then seals.
  util::Bytes Frame(uint32_t seqno, const util::Bytes& body) override;
  std::vector<util::Result<util::Bytes>> Unframe(util::Bytes message,
                                                 const rpc::CallSpanFn& call_span) override;

 private:
  const sim::CostModel* costs_;
  obs::SpanCollector* spans_;
  std::unique_ptr<ChannelCipher> seal_;  // Client -> server; null = cleartext.
  std::unique_ptr<ChannelCipher> open_;  // Server -> client; null = cleartext.
  uint32_t last_framed_ = 0;             // Highest seqno sent.
  uint32_t next_open_ = 1;               // Seqno the receive keystream is at.
  std::map<uint32_t, util::Bytes> held_;  // Early replies, still sealed.
};

// Both directions plus the session identity material.
struct SessionKeys {
  util::Bytes kcs;  // client -> server
  util::Bytes ksc;  // server -> client

  // SessionID = SHA-1("SessionInfo", ksc, kcs), paper §3.1.2.
  util::Bytes SessionId() const;
};

// AuthInfo/AuthID for user authentication (paper §3.1.2):
//   AuthInfo = {"AuthInfo", "FS", Location, HostID, SessionID}
//   AuthID   = SHA-1(AuthInfo)
util::Bytes MakeAuthInfo(const SelfCertifyingPath& path, const util::Bytes& session_id);
util::Bytes MakeAuthId(const util::Bytes& auth_info);

// Derives both session keys from the four exchanged key halves.
SessionKeys DeriveSessionKeys(const crypto::RabinPublicKey& server_key,
                              const crypto::RabinPublicKey& client_key,
                              const util::Bytes& kc1, const util::Bytes& kc2,
                              const util::Bytes& ks1, const util::Bytes& ks2);

// Client side of the Figure 3 negotiation, computed against a server
// public key that has already been checked against the HostID.
struct ClientNegotiation {
  crypto::RabinPrivateKey ephemeral_key;  // K_C
  util::Bytes kc1;
  util::Bytes kc2;
  util::Bytes enc_kc1;  // {kc1}_KS
  util::Bytes enc_kc2;  // {kc2}_KS

  static util::Result<ClientNegotiation> Start(const crypto::RabinPublicKey& server_key,
                                               crypto::Prng* prng, size_t ephemeral_bits);

  // Step 4: decrypt the server's halves and derive session keys.
  util::Result<SessionKeys> Finish(const crypto::RabinPublicKey& server_key,
                                   const util::Bytes& enc_ks1,
                                   const util::Bytes& enc_ks2) const;
};

// Server side: processes step 3, produces step 4.
struct ServerNegotiation {
  SessionKeys keys;
  util::Bytes enc_ks1;
  util::Bytes enc_ks2;

  static util::Result<ServerNegotiation> Respond(const crypto::RabinPrivateKey& server_key,
                                                 const util::Bytes& client_pubkey_bytes,
                                                 const util::Bytes& enc_kc1,
                                                 const util::Bytes& enc_kc2,
                                                 crypto::Prng* prng);
};

}  // namespace sfs

#endif  // SFS_SRC_SFS_SESSION_H_
