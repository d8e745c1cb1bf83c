// The SFS server: sfssd (connection hand-off) + sfsrwsd (the read-write
// file server) in one object, per Figure 2 of the paper.
//
// Each accepted connection is a ServerConnection state machine:
//   Connect    — client names a (Location, HostID); the server answers
//                with its public key, or a revocation certificate.
//   Negotiate  — Figure 3 key exchange; establishes the session ciphers.
//   Encrypted  — sealed RPCs through the connection's rpc::Dispatcher and
//                ChannelServerCodec: the NFS3 dialect (handles encrypted,
//                every attribute carrying a lease) and the control program
//                (root handle, user login).
// Authserver-service connections instead speak the SRP password protocol
// on behalf of sfskey (§2.4).
//
// A server may hold several identities (Location, private key) at once,
// which is how the paper serves "two copies of the same file system under
// different self-certifying pathnames" during a key or name transition.
#ifndef SFS_SRC_SFS_SERVER_H_
#define SFS_SRC_SFS_SERVER_H_

#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "src/auth/authserver.h"
#include "src/crypto/prng.h"
#include "src/readonly/readonly.h"
#include "src/crypto/rabin.h"
#include "src/nfs/memfs.h"
#include "src/nfs/program.h"
#include "src/obs/auditlog.h"
#include "src/rpc/rpc.h"
#include "src/sfs/audit.h"
#include "src/sfs/handle_crypt.h"
#include "src/sfs/pathname.h"
#include "src/sfs/proto.h"
#include "src/sfs/revocation.h"
#include "src/sfs/session.h"
#include "src/sim/clock.h"
#include "src/sim/cost_model.h"
#include "src/sim/disk.h"
#include "src/sim/network.h"
#include "src/util/bytes.h"

namespace sfs {

class ServerConnection;

class SfsServer {
 public:
  struct Options {
    std::string location;
    size_t key_bits = 512;               // Rabin modulus; SFS deploys 1024+.
    uint64_t lease_ns = 60'000'000'000;  // Attribute lease granted to clients.
    bool allow_cleartext = false;        // Accept "no encryption" negotiation
                                         // (benchmarks only).
    uint64_t fsid = 1;
    uint64_t prng_seed = 1;
    // Receives server.* counters, per-procedure server metrics and trace
    // events; nullptr selects obs::Registry::Default().
    obs::Registry* registry = nullptr;
    // Tamper-evident operation journal (docs/OBSERVABILITY.md §Audit
    // log).  Every dispatched RPC, connect verdict, and revocation event
    // is recorded; per-batch MAC keys ratchet forward through the SHA-1
    // PRNG.  An empty genesis key derives one deterministically from
    // prng_seed.
    bool audit = true;
    uint32_t audit_batch_records = 64;
    util::Bytes audit_genesis_key;
  };

  SfsServer(sim::Clock* clock, const sim::CostModel* costs, Options options,
            auth::AuthServer* authserver);

  // The exported file system (for test/bench setup).
  nfs::MemFs* fs() { return &memfs_; }
  sim::Disk* disk() { return &disk_; }

  const crypto::RabinPublicKey& public_key() const;
  const crypto::RabinPrivateKey& private_key() const;
  SelfCertifyingPath Path() const;

  // Adds a secondary identity (extra Location and/or key) under which the
  // same file system is served.
  void AddIdentity(crypto::RabinPrivateKey key, const std::string& location);

  // Serves `cert` in response to connect requests for its revoked path.
  void ServeRevocation(PathRevokeCert cert);

  // Serves a signed read-only image under an additional identity derived
  // from the image's own key/location.  Connections naming that HostID
  // are handed to the read-only dialect (no key negotiation — contents
  // are proven by the offline signature).  Returns the image's
  // self-certifying path.
  SelfCertifyingPath ServeReadOnlyImage(readonly::SignedImage image);

  // Accepts one "TCP connection": the returned Service is the server end.
  struct Accepted {
    std::unique_ptr<sim::Service> connection;
    uint64_t connection_id;
  };
  Accepted CreateConnection();

  // Lease-invalidation callbacks: a mounted client registers its cache;
  // mutations arriving on *other* connections invalidate the handle.
  using InvalidateFn = std::function<void(const nfs::FileHandle&)>;
  void RegisterCacheCallback(uint64_t connection_id, InvalidateFn fn);
  void UnregisterCacheCallback(uint64_t connection_id);

  auth::AuthServer* authserver() { return authserver_; }

  uint64_t connections_accepted() const { return next_connection_id_ - 1; }

  obs::Registry* registry() { return registry_; }

  // The tamper-evident operation journal; nullptr when Options::audit is
  // off.  Callers Finalize() it before handing the log bytes to
  // obs::VerifyAuditLog / tools/audit_verify.
  ServerAuditor* auditor() { return auditor_.get(); }

 private:
  friend class ServerConnection;

  struct Identity {
    std::string location;
    crypto::RabinPrivateKey key;
    util::Bytes host_id;
  };

  const Identity* FindIdentity(const std::string& location, const util::Bytes& host_id) const;
  void NotifyMutation(const nfs::FileHandle& fh, uint64_t originating_connection);

  sim::Clock* clock_;
  const sim::CostModel* costs_;
  Options options_;
  crypto::Prng prng_;
  std::vector<Identity> identities_;
  sim::Disk disk_;
  nfs::MemFs memfs_;
  HandleCryptFs crypt_fs_;
  nfs::NfsProgram nfs_program_;
  auth::AuthServer* authserver_;
  std::map<std::string, PathRevokeCert> revocations_;  // Keyed by raw HostID bytes.
  // Read-only images served under their own HostIDs (keyed by raw bytes).
  std::map<std::string, std::unique_ptr<readonly::ReplicaServer>> ro_replicas_;
  std::map<uint64_t, InvalidateFn> cache_callbacks_;
  uint64_t next_connection_id_ = 1;
  std::unique_ptr<ServerAuditor> auditor_;

  // Observability.  Each connection's Dispatcher registers its programs
  // as "NFS3" and "SFSCTL" in this registry, so the per-procedure server
  // metrics aggregate the whole server under the plain-RPC names.
  obs::Registry* registry_;
  obs::Counter* m_drc_hits_;  // Handshake replays; the Dispatchers count RPCs.
};

// One accepted connection (one client <-> server TCP stream).
class ServerConnection : public sim::Service {
 public:
  ServerConnection(SfsServer* server, uint64_t id);
  // Connection teardown seals the open audit batch: the journal's
  // per-connection epoch closes with the stream.
  ~ServerConnection() override;

  util::Result<util::Bytes> Handle(util::Bytes request) override;

 private:
  enum class State { kAwaitConnect, kAwaitNegotiate, kEstablished, kDead };

  util::Result<util::Bytes> HandleConnect(const util::Bytes& payload);
  util::Result<util::Bytes> HandleNegotiate(const util::Bytes& payload);
  util::Result<util::Bytes> HandleEncrypted(util::Bytes request);
  util::Result<util::Bytes> HandleSrpStart(const util::Bytes& payload);
  util::Result<util::Bytes> HandleSrpFinish(const util::Bytes& payload);

  // The two programs on the channel, as registered with the Dispatcher.
  util::Result<util::Bytes> HandleNfs(uint32_t proc, const util::Bytes& args);
  util::Result<util::Bytes> HandleCtl(uint32_t proc, const util::Bytes& args);
  // Journals one executed request inside its dispatch span and passes
  // the result through; DRC replays never get here (exactly-once).
  util::Result<util::Bytes> Journal(obs::AuditKind kind, uint32_t proc,
                                    const util::Bytes& args, util::Result<util::Bytes> result);

  util::Status CheckSeqno(uint32_t seqno);

  SfsServer* server_;
  uint64_t id_;
  State state_ = State::kAwaitConnect;
  const SfsServer::Identity* identity_ = nullptr;
  readonly::ReplicaServer* ro_delegate_ = nullptr;  // Read-only dialect hand-off.

  // The established channel: its wire format and the dispatch path behind
  // it (declared in that order, so the codec outlives the dispatcher).
  std::unique_ptr<ChannelServerCodec> codec_;
  std::unique_ptr<rpc::Dispatcher> dispatcher_;
  util::Bytes session_id_;

  std::map<uint32_t, nfs::Credentials> authno_to_creds_;
  uint32_t next_authno_ = 1;
  // LOGIN seqnos used within kSeqnoWindow of the newest (CheckSeqno).
  std::set<uint32_t> seqnos_seen_;
  uint32_t max_seqno_ = 0;

  // Handshake messages have no seqno; a redelivered copy is recognized by
  // byte identity and answered with the recorded reply instead of hitting
  // the state machine (which would treat it as a protocol violation).
  util::Bytes last_handshake_request_;
  util::Bytes last_handshake_reply_;

  // SRP service state (authserver connections).
  std::unique_ptr<crypto::SrpServer> srp_;
  std::string srp_user_;
};

}  // namespace sfs

#endif  // SFS_SRC_SFS_SERVER_H_
