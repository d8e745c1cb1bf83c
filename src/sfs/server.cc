#include "src/sfs/server.h"

#include <cassert>

#include "src/crypto/sha1.h"
#include "src/sfs/idmap.h"
#include "src/util/log.h"
#include "src/xdr/xdr.h"

namespace sfs {
namespace {

// Derives the server's 20-byte Blowfish handle-encryption key from its
// private key material and a label (deterministic per server, never on
// the wire).
util::Bytes DeriveHandleKey(const crypto::RabinPrivateKey& key) {
  xdr::Encoder enc;
  enc.PutString("HandleKey");
  enc.PutOpaque(key.Serialize());
  return crypto::Sha1Digest(enc.Take());
}

}  // namespace

SfsServer::SfsServer(sim::Clock* clock, const sim::CostModel* costs, Options options,
                     auth::AuthServer* authserver)
    : clock_(clock),
      costs_(costs),
      options_(std::move(options)),
      prng_(options_.prng_seed),
      identities_(),
      disk_(clock, sim::DiskProfile::Ibm18Es(),
            options_.registry != nullptr ? options_.registry : obs::Registry::Default()),
      memfs_(clock, &disk_,
             nfs::MemFs::Options{options_.fsid,
                                 /*handle_secret=*/prng_.RandomUint64(0),
                                 /*read_only=*/false}),
      crypt_fs_(&memfs_, DeriveHandleKey([&] {
        Identity primary;
        primary.location = options_.location;
        primary.key = crypto::RabinPrivateKey::Generate(&prng_, options_.key_bits);
        primary.host_id = ComputeHostId(primary.location, primary.key.public_key());
        identities_.push_back(std::move(primary));
        return identities_[0].key;
      }())),
      nfs_program_(&crypt_fs_, clock, costs),
      authserver_(authserver),
      registry_(options_.registry != nullptr ? options_.registry
                                             : obs::Registry::Default()),
      m_drc_hits_(registry_->GetCounter("server.drc_hits")) {
  nfs_program_.set_lease_ns(options_.lease_ns);
  if (options_.audit) {
    ServerAuditor::Options audit_options;
    audit_options.batch_records = options_.audit_batch_records;
    // The genesis key is the verifier's root of trust; it is drawn from
    // the server PRNG (deterministic per seed) unless supplied, and
    // would be escrowed off-host in a real deployment.
    audit_options.genesis_key = options_.audit_genesis_key.empty()
                                    ? prng_.RandomBytes(crypto::kSha1DigestSize)
                                    : options_.audit_genesis_key;
    auditor_ = std::make_unique<ServerAuditor>(clock_, costs_, registry_, audit_options);
  }
}

const crypto::RabinPublicKey& SfsServer::public_key() const {
  return identities_[0].key.public_key();
}

const crypto::RabinPrivateKey& SfsServer::private_key() const { return identities_[0].key; }

SelfCertifyingPath SfsServer::Path() const {
  return SelfCertifyingPath{identities_[0].location, identities_[0].host_id};
}

void SfsServer::AddIdentity(crypto::RabinPrivateKey key, const std::string& location) {
  Identity identity;
  identity.location = location;
  identity.host_id = ComputeHostId(location, key.public_key());
  identity.key = std::move(key);
  identities_.push_back(std::move(identity));
}

void SfsServer::ServeRevocation(PathRevokeCert cert) {
  const util::Bytes host_id = cert.RevokedPath().host_id;
  revocations_[util::StringOf(host_id)] = std::move(cert);
  if (auditor_ != nullptr) {
    auditor_->Record(obs::AuditKind::kRevocationInstalled, /*connection_id=*/0,
                     /*wire_seqno=*/0, /*proc=*/0, /*verdict=*/0,
                     obs::AuditDigest(host_id));
  }
}

SelfCertifyingPath SfsServer::ServeReadOnlyImage(readonly::SignedImage image) {
  auto key = crypto::RabinPublicKey::Deserialize(image.public_key);
  assert(key.ok() && "read-only image has an undecodable public key");
  SelfCertifyingPath path = SelfCertifyingPath::For(image.location, key.value());
  ro_replicas_[util::StringOf(path.host_id)] =
      std::make_unique<readonly::ReplicaServer>(clock_, costs_, std::move(image));
  return path;
}

SfsServer::Accepted SfsServer::CreateConnection() {
  uint64_t id = next_connection_id_++;
  return Accepted{std::make_unique<ServerConnection>(this, id), id};
}

void SfsServer::RegisterCacheCallback(uint64_t connection_id, InvalidateFn fn) {
  cache_callbacks_[connection_id] = std::move(fn);
}

void SfsServer::UnregisterCacheCallback(uint64_t connection_id) {
  cache_callbacks_.erase(connection_id);
}

const SfsServer::Identity* SfsServer::FindIdentity(const std::string& location,
                                                   const util::Bytes& host_id) const {
  for (const Identity& identity : identities_) {
    if (identity.location == location && identity.host_id == host_id) {
      return &identity;
    }
  }
  return nullptr;
}

void SfsServer::NotifyMutation(const nfs::FileHandle& fh, uint64_t originating_connection) {
  // "The server does not wait for invalidations to be acknowledged" —
  // callbacks charge no virtual time.
  for (const auto& [conn_id, fn] : cache_callbacks_) {
    if (conn_id != originating_connection) {
      fn(fh);
    }
  }
}

// ---------------------------------------------------------------------------

ServerConnection::ServerConnection(SfsServer* server, uint64_t id)
    : server_(server), id_(id) {}

ServerConnection::~ServerConnection() {
  if (server_->auditor_ != nullptr) {
    server_->auditor_->Flush();
  }
}

util::Result<util::Bytes> ServerConnection::Handle(const util::Bytes& request) {
  if (state_ == State::kDead) {
    return util::Unavailable("connection closed");
  }
  // Sealed RPCs go to the dispatcher whole: its codec reads the frame.
  if (auto type = xdr::PeekUint32(request, 0); type.ok() && type.value() == kMsgEncrypted) {
    return HandleEncrypted(request);
  }
  xdr::Decoder dec(request);
  auto type = dec.GetUint32();
  auto payload = dec.GetOpaque();
  if (!type.ok() || !payload.ok() || !dec.AtEnd()) {
    state_ = State::kDead;
    return util::InvalidArgument("malformed connection message");
  }
  // Read-only dialect hand-off: once a connection is bound to a replica,
  // its protocol messages go straight to the subsidiary server.  (These
  // are idempotent reads, so redelivered copies may simply re-execute.)
  if (ro_delegate_ != nullptr && (type.value() == readonly::kMsgRoGetRoot ||
                                  type.value() == readonly::kMsgRoGetNode)) {
    return ro_delegate_->Handle(request);
  }
  switch (type.value()) {
    case kMsgConnect:
    case kMsgNegotiate:
    case kMsgSrpStart:
    case kMsgSrpFinish: {
      // A duplicated handshake message would otherwise hit the state
      // machine out of phase and kill the connection; replay the reply.
      if (!last_handshake_request_.empty() && request == last_handshake_request_) {
        server_->m_drc_hits_->Increment();
        return last_handshake_reply_;
      }
      auto reply = type.value() == kMsgConnect     ? HandleConnect(payload.value())
                   : type.value() == kMsgNegotiate ? HandleNegotiate(payload.value())
                   : type.value() == kMsgSrpStart  ? HandleSrpStart(payload.value())
                                                   : HandleSrpFinish(payload.value());
      if (reply.ok()) {
        last_handshake_request_ = request;
        last_handshake_reply_ = reply.value();
      }
      return reply;
    }
    default:
      state_ = State::kDead;
      return util::InvalidArgument("unknown message type");
  }
}

util::Result<util::Bytes> ServerConnection::HandleConnect(const util::Bytes& payload) {
  if (state_ != State::kAwaitConnect) {
    state_ = State::kDead;
    return util::FailedPrecondition("connect after handshake");
  }
  xdr::Decoder dec(payload);
  auto service = dec.GetUint32();
  auto location = dec.GetString();
  auto host_id = dec.GetOpaque();
  auto extensions = dec.GetString();
  if (!service.ok() || !location.ok() || !host_id.ok() || !extensions.ok()) {
    state_ = State::kDead;
    return util::InvalidArgument("malformed connect request");
  }

  xdr::Encoder reply;
  // A served revocation certificate overrides everything for its HostID.
  auto revoked = server_->revocations_.find(util::StringOf(host_id.value()));
  if (revoked != server_->revocations_.end()) {
    if (server_->auditor_ != nullptr) {
      server_->auditor_->Record(obs::AuditKind::kRevocationServed, id_,
                                /*wire_seqno=*/0, /*proc=*/kConnectRevoked,
                                /*verdict=*/0, obs::AuditDigest(host_id.value()));
    }
    reply.PutUint32(kConnectRevoked);
    reply.PutOpaque(revoked->second.Serialize());
    return FrameMessage(kMsgConnect, reply.Take());
  }

  // Read-only identities take precedence: they are served by the
  // subsidiary read-only daemon, no key negotiation needed.
  auto replica = server_->ro_replicas_.find(util::StringOf(host_id.value()));
  if (replica != server_->ro_replicas_.end() &&
      replica->second->image().location == location.value()) {
    ro_delegate_ = replica->second.get();
    state_ = State::kEstablished;  // No negotiation phase for this dialect.
    reply.PutUint32(kConnectOk);
    reply.PutOpaque(replica->second->image().public_key);
    reply.PutUint32(kDialectReadOnly);
    return FrameMessage(kMsgConnect, reply.Take());
  }

  identity_ = server_->FindIdentity(location.value(), host_id.value());
  if (identity_ == nullptr) {
    reply.PutUint32(kConnectUnknown);
    return FrameMessage(kMsgConnect, reply.Take());
  }
  state_ = State::kAwaitNegotiate;
  reply.PutUint32(kConnectOk);
  reply.PutOpaque(identity_->key.public_key().Serialize());
  reply.PutUint32(kDialectReadWrite);
  return FrameMessage(kMsgConnect, reply.Take());
}

util::Result<util::Bytes> ServerConnection::HandleNegotiate(const util::Bytes& payload) {
  if (state_ != State::kAwaitNegotiate) {
    state_ = State::kDead;
    return util::FailedPrecondition("negotiate before connect");
  }
  xdr::Decoder dec(payload);
  auto client_pubkey = dec.GetOpaque();
  auto enc_kc1 = dec.GetOpaque();
  auto enc_kc2 = dec.GetOpaque();
  auto want_cleartext = dec.GetBool();
  if (!client_pubkey.ok() || !enc_kc1.ok() || !enc_kc2.ok() || !want_cleartext.ok()) {
    state_ = State::kDead;
    return util::InvalidArgument("malformed negotiate request");
  }

  server_->clock_->Advance(server_->costs_->pk_decrypt_ns * 2 +
                               server_->costs_->pk_encrypt_ns * 2,
                           obs::TimeCategory::kCrypto);
  auto negotiation = ServerNegotiation::Respond(identity_->key, client_pubkey.value(),
                                                enc_kc1.value(), enc_kc2.value(),
                                                &server_->prng_);
  if (!negotiation.ok()) {
    state_ = State::kDead;
    return negotiation.status();
  }

  // The sealed channel's server half: kcs opens requests, ksc seals
  // replies; no ciphers in the cleartext ablation.
  const bool cleartext = want_cleartext.value() && server_->options_.allow_cleartext;
  codec_ = std::make_unique<ChannelServerCodec>(
      server_->clock_, server_->costs_, server_->registry_,
      cleartext ? nullptr : std::make_unique<ChannelCipher>(negotiation->keys.ksc),
      cleartext ? nullptr : std::make_unique<ChannelCipher>(negotiation->keys.kcs));
  dispatcher_ =
      std::make_unique<rpc::Dispatcher>(server_->registry_, server_->clock_, codec_.get());
  dispatcher_->RegisterProgram(
      nfs::kNfsProgram,
      [this](uint32_t proc, const util::Bytes& args) {
        return Journal(obs::AuditKind::kNfs, proc, args, HandleNfs(proc, args));
      },
      nfs::ProcName, "NFS3");
  dispatcher_->RegisterProgram(
      kSfsCtlProgram,
      [this](uint32_t proc, const util::Bytes& args) {
        return Journal(obs::AuditKind::kCtl, proc, args, HandleCtl(proc, args));
      },
      CtlProcName, "SFSCTL");
  session_id_ = negotiation->keys.SessionId();
  state_ = State::kEstablished;

  xdr::Encoder reply;
  reply.PutBool(cleartext);
  reply.PutOpaque(negotiation->enc_ks1);
  reply.PutOpaque(negotiation->enc_ks2);
  return FrameMessage(kMsgNegotiate, reply.Take());
}

util::Result<util::Bytes> ServerConnection::HandleEncrypted(const util::Bytes& request) {
  if (dispatcher_ == nullptr) {
    state_ = State::kDead;
    return util::FailedPrecondition("encrypted message before negotiation");
  }
  // User-level server daemon: two kernel crossings per request, DRC hits too.
  server_->costs_->ChargeCrossing(server_->clock_, 2);
  auto reply = dispatcher_->Handle(request);
  if (!reply.ok()) {
    state_ = State::kDead;  // Malformed, tampered or forged: kill the session.
  }
  return reply;
}

util::Result<util::Bytes> ServerConnection::Journal(obs::AuditKind kind, uint32_t proc,
                                                    const util::Bytes& args,
                                                    util::Result<util::Bytes> result) {
  if (server_->auditor_ != nullptr) {
    const bool is_nfs = kind == obs::AuditKind::kNfs;
    uint32_t verdict = result.ok() ? 0 : static_cast<uint32_t>(result.status().code());
    // Stable-storage flag: COMMITs and FILE_SYNC WRITEs are durable
    // commitments; UNSTABLE write-behind traffic stays unflagged.
    if (is_nfs && (proc == nfs::kProcCommit ||
                   (proc == nfs::kProcWrite && AuditNfsWriteIsStable(args)))) {
      verdict |= kAuditVerdictStableBit;
    }
    server_->auditor_->Record(kind, id_, codec_->opened_seqno(), proc, verdict,
                              is_nfs ? AuditFhDigestOfNfsArgs(args) : 0);
  }
  return result;
}

util::Result<util::Bytes> ServerConnection::HandleNfs(uint32_t proc,
                                                      const util::Bytes& args) {
  // The SFS dialect tags requests with an authentication number, mapped
  // to credentials established at login — never wire credentials.
  xdr::Decoder dec(args);
  ASSIGN_OR_RETURN(uint32_t authno, dec.GetUint32());
  nfs::Credentials creds = nfs::Credentials::Anonymous();
  if (authno != kAnonymousAuthno) {
    auto it = authno_to_creds_.find(authno);
    if (it == authno_to_creds_.end()) {
      return util::PermissionDenied("unknown authentication number");
    }
    creds = it->second;
  }
  util::Bytes nfs_args = dec.TakeRemaining();

  auto reply = server_->nfs_program_.Handle(creds, proc, nfs_args);
  if (!reply.ok()) {
    return reply;
  }

  // Lease coherence: invalidate other clients' cached state for mutated
  // handles.
  switch (proc) {
    case nfs::kProcSetAttr:
    case nfs::kProcWrite:
    case nfs::kProcCreate:
    case nfs::kProcMkdir:
    case nfs::kProcSymlink:
    case nfs::kProcRemove:
    case nfs::kProcRmdir: {
      xdr::Decoder fh_dec(nfs_args);
      auto fh = fh_dec.GetOpaque();
      if (fh.ok()) {
        server_->NotifyMutation(fh.value(), id_);
      }
      break;
    }
    case nfs::kProcRename:
    case nfs::kProcLink: {
      // Two handles are affected: (from_dir, to_dir) for rename,
      // (target, dir) for link; both happen to be the first two opaques
      // around one string for rename, or adjacent for link.
      xdr::Decoder fh_dec(nfs_args);
      auto first = fh_dec.GetOpaque();
      if (first.ok()) {
        server_->NotifyMutation(first.value(), id_);
      }
      if (proc == nfs::kProcRename) {
        auto from_name = fh_dec.GetString();
        auto to = fh_dec.GetOpaque();
        if (from_name.ok() && to.ok()) {
          server_->NotifyMutation(to.value(), id_);
        }
      } else {
        auto dir = fh_dec.GetOpaque();
        if (dir.ok()) {
          server_->NotifyMutation(dir.value(), id_);
        }
      }
      break;
    }
    default:
      break;
  }
  return reply;
}

util::Result<util::Bytes> ServerConnection::HandleCtl(uint32_t proc, const util::Bytes& args) {
  switch (proc) {
    case kCtlGetRoot: {
      xdr::Encoder enc;
      enc.PutOpaque(server_->crypt_fs_.EncryptHandle(server_->memfs_.root_handle()));
      return enc.Take();
    }
    case kCtlLogin: {
      if (server_->authserver_ == nullptr) {
        return util::Unavailable("no authserver configured");
      }
      xdr::Decoder dec(args);
      ASSIGN_OR_RETURN(uint32_t seqno, dec.GetUint32());
      ASSIGN_OR_RETURN(util::Bytes auth_msg, dec.GetOpaque());
      RETURN_IF_ERROR(CheckSeqno(seqno));

      SelfCertifyingPath path{identity_->location, identity_->host_id};
      util::Bytes auth_id = MakeAuthId(MakeAuthInfo(path, session_id_));
      // The file server hands the opaque AuthMsg to the authserver over
      // RPC (here, an in-process call on the same machine).
      server_->costs_->ChargeCrossing(server_->clock_, 2);
      server_->clock_->Advance(server_->costs_->pk_verify_ns, obs::TimeCategory::kCrypto);
      ASSIGN_OR_RETURN(nfs::Credentials creds,
                       server_->authserver_->ValidateAuthMsg(auth_msg, auth_id, seqno));
      uint32_t authno = next_authno_++;
      authno_to_creds_[authno] = creds;
      xdr::Encoder enc;
      enc.PutUint32(authno);
      return enc.Take();
    }
    case kCtlIdToName: {
      // libsfs ID mapping (paper §3.3): numeric id -> server-side name.
      if (server_->authserver_ == nullptr) {
        return util::Unavailable("no authserver configured");
      }
      xdr::Decoder dec(args);
      ASSIGN_OR_RETURN(uint32_t uid, dec.GetUint32());
      auto record = server_->authserver_->FindByUid(uid);
      xdr::Encoder enc;
      enc.PutBool(record.has_value());
      if (record.has_value()) {
        enc.PutString(record->name);
      }
      return enc.Take();
    }
    case kCtlNameToId: {
      if (server_->authserver_ == nullptr) {
        return util::Unavailable("no authserver configured");
      }
      xdr::Decoder dec(args);
      ASSIGN_OR_RETURN(std::string name, dec.GetString());
      auto record = server_->authserver_->FindByName(name);
      xdr::Encoder enc;
      enc.PutBool(record.has_value());
      if (record.has_value()) {
        enc.PutUint32(record->credentials.uid);
      }
      return enc.Take();
    }
    default:
      return util::InvalidArgument("unknown control procedure");
  }
}

util::Status ServerConnection::CheckSeqno(uint32_t seqno) {
  if (seqnos_seen_.count(seqno) != 0) {
    return util::SecurityError("replayed sequence number");
  }
  if (max_seqno_ > kSeqnoWindow && seqno < max_seqno_ - kSeqnoWindow) {
    return util::SecurityError("sequence number outside window");
  }
  seqnos_seen_.insert(seqno);
  max_seqno_ = std::max(max_seqno_, seqno);
  if (max_seqno_ > kSeqnoWindow) {
    // The window check refuses anything older, so forget it: the set
    // holds at most the kSeqnoWindow + 1 seqnos the window admits.
    seqnos_seen_.erase(seqnos_seen_.begin(),
                       seqnos_seen_.lower_bound(max_seqno_ - kSeqnoWindow));
  }
  return util::OkStatus();
}

util::Result<util::Bytes> ServerConnection::HandleSrpStart(const util::Bytes& payload) {
  if (state_ != State::kAwaitConnect || server_->authserver_ == nullptr) {
    state_ = State::kDead;
    return util::FailedPrecondition("SRP not available on this connection");
  }
  xdr::Decoder dec(payload);
  auto user = dec.GetString();
  auto a_pub_bytes = dec.GetOpaque();
  if (!user.ok() || !a_pub_bytes.ok()) {
    state_ = State::kDead;
    return util::InvalidArgument("malformed SRP start");
  }
  auto verifier = server_->authserver_->SrpVerifierFor(user.value());
  if (!verifier.ok()) {
    // Deliberately slow failure path: on-line guessing of user names is
    // as slow as password guessing.
    SFS_LOG(kInfo) << "SRP: no record for user " << user.value();
    return verifier.status();
  }
  srp_user_ = user.value();
  srp_ = std::make_unique<crypto::SrpServer>(crypto::DefaultSrpParams(), *verifier.value(),
                                             &server_->prng_);
  auto b_pub = srp_->ProcessClientHello(crypto::BigInt::FromBytes(a_pub_bytes.value()));
  if (!b_pub.ok()) {
    state_ = State::kDead;
    return b_pub.status();
  }
  xdr::Encoder reply;
  reply.PutOpaque(srp_->Salt());
  reply.PutUint32(srp_->Cost());
  reply.PutOpaque(b_pub->ToBytes());
  return FrameMessage(kMsgSrpStart, reply.Take());
}

util::Result<util::Bytes> ServerConnection::HandleSrpFinish(const util::Bytes& payload) {
  if (srp_ == nullptr) {
    state_ = State::kDead;
    return util::FailedPrecondition("SRP finish before start");
  }
  xdr::Decoder dec(payload);
  auto m1 = dec.GetOpaque();
  if (!m1.ok()) {
    state_ = State::kDead;
    return util::InvalidArgument("malformed SRP finish");
  }
  util::Status proof = srp_->VerifyClientProof(m1.value());
  if (!proof.ok()) {
    state_ = State::kDead;  // One guess per connection; failures are logged.
    SFS_LOG(kInfo) << "SRP: failed password proof for " << srp_user_;
    return proof;
  }

  // Payload delivered under the SRP session key: the server's
  // self-certifying pathname and the user's encrypted private key.
  auto record = server_->authserver_->PrivateRecordFor(srp_user_);
  xdr::Encoder secret;
  secret.PutString(server_->Path().FullPath());
  secret.PutOpaque(record.ok() ? record.value()->encrypted_private_key : util::Bytes{});
  ChannelCipher seal_cipher(srp_->SessionKey());
  util::Bytes sealed = seal_cipher.Seal(secret.Take());

  xdr::Encoder reply;
  reply.PutOpaque(srp_->ServerProof());
  reply.PutOpaque(sealed);
  return FrameMessage(kMsgSrpFinish, reply.Take());
}

}  // namespace sfs
