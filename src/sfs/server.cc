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
      tracer_(&registry_->tracer()),
      spans_(&registry_->spans()),
      m_drc_hits_(registry_->GetCounter("server.drc_hits")) {
  nfs_program_.set_lease_ns(options_.lease_ns);
  nfs_metrics_.Init(registry_, "server.NFS3");
  ctl_metrics_.Init(registry_, "server.SFSCTL");
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
        if (server_->tracer_->active()) {
          obs::TraceEvent event;
          event.kind = obs::TraceEvent::Kind::kServerDrcHit;
          event.layer = "sfs.chan";
          event.proc_name = "HANDSHAKE";
          event.wire_bytes = last_handshake_reply_.size();
          event.t_send_ns = server_->clock_->now_ns();
          event.t_recv_ns = event.t_send_ns;
          event.drc_hit = true;
          event.note = "redelivered handshake answered with recorded reply";
          server_->tracer_->Emit(event);
        }
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
    case kMsgEncrypted:
      return HandleEncrypted(payload.value());
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

  cleartext_ = want_cleartext.value() && server_->options_.allow_cleartext;
  if (!cleartext_) {
    cipher_in_ = std::make_unique<ChannelCipher>(negotiation->keys.kcs);
    cipher_out_ = std::make_unique<ChannelCipher>(negotiation->keys.ksc);
  }
  session_id_ = negotiation->keys.SessionId();
  state_ = State::kEstablished;

  xdr::Encoder reply;
  reply.PutBool(cleartext_);
  reply.PutOpaque(negotiation->enc_ks1);
  reply.PutOpaque(negotiation->enc_ks2);
  return FrameMessage(kMsgNegotiate, reply.Take());
}

util::Result<util::Bytes> ServerConnection::HandleEncrypted(const util::Bytes& payload) {
  if (state_ != State::kEstablished) {
    state_ = State::kDead;
    return util::FailedPrecondition("encrypted message before negotiation");
  }
  // User-level server daemon: two kernel crossings per request.
  server_->costs_->ChargeCrossing(server_->clock_, 2);

  // The wire seqno travels outside the sealed body: the duplicate check
  // must run *before* the cipher, because opening a retransmitted copy
  // would advance the receive keystream a second time.
  xdr::Decoder frame(payload);
  auto wire_seqno = frame.GetUint32();
  auto sealed_body = frame.GetOpaque();
  if (!wire_seqno.ok() || !sealed_body.ok() || !frame.AtEnd()) {
    state_ = State::kDead;
    return util::InvalidArgument("malformed channel frame");
  }
  if (auto cached = reply_cache_.find(wire_seqno.value()); cached != reply_cache_.end()) {
    server_->m_drc_hits_->Increment();
    if (server_->tracer_->active()) {
      obs::TraceEvent event;
      event.kind = obs::TraceEvent::Kind::kServerDrcHit;
      event.layer = "sfs.chan";
      event.seqno = wire_seqno.value();
      event.wire_bytes = cached->second.size();
      event.t_send_ns = server_->clock_->now_ns();
      event.t_recv_ns = event.t_send_ns;
      event.drc_hit = true;
      event.note = "replayed sealed reply; keystreams untouched";
      server_->tracer_->Emit(event);
    }
    if (server_->spans_->enabled()) {
      // The sealed body cannot be opened again (the keystream must not
      // advance), so the replay's trace context comes from the cache of
      // the original dispatch.
      obs::SpanContext parent = server_->spans_->current();
      if (auto ctx = ctx_cache_.find(wire_seqno.value()); ctx != ctx_cache_.end()) {
        parent = ctx->second;
      }
      obs::Span span;
      span.name = "sfs.drc_hit";
      span.layer = "server";
      span.start_ns = server_->clock_->now_ns();
      span.end_ns = span.start_ns;
      span.seqno = wire_seqno.value();
      span.wire_bytes = cached->second.size();
      span.drc_hit = true;
      server_->spans_->RecordClosed(std::move(span), parent);
    }
    return cached->second;
  }
  if (reply_cache_max_seqno_ != 0 &&
      wire_seqno.value() + kDrcWindow <= reply_cache_max_seqno_) {
    state_ = State::kDead;
    return util::SecurityError("channel seqno below duplicate-cache window");
  }

  util::Bytes plaintext;
  if (cleartext_) {
    server_->costs_->ChargeCopy(server_->clock_, sealed_body->size());
    plaintext = sealed_body.value();
  } else {
    const uint64_t open_start_ns = server_->clock_->now_ns();
    server_->costs_->ChargeCrypto(server_->clock_, sealed_body->size());
    RecordCryptoSpan(server_->spans_, "sfs.open", "server", open_start_ns,
                     server_->clock_->now_ns(), sealed_body->size(),
                     server_->spans_->current());
    auto opened = cipher_in_->Open(sealed_body.value());
    if (!opened.ok()) {
      state_ = State::kDead;  // Tampered or forged: kill the session.
      return opened.status();
    }
    plaintext = std::move(opened).value();
  }

  auto reply = DispatchRpc(plaintext, wire_seqno.value());
  if (!reply.ok()) {
    state_ = State::kDead;
    return reply.status();
  }
  // The reply frame echoes the request's wire seqno in cleartext, so a
  // pipelined client can order sealed replies for in-order opening
  // before touching the receive cipher (docs/PROTOCOL.md §10).  Fresh
  // replies are sealed in request order — requests are handled serially
  // — so the echoed seqnos are exactly the keystream order.
  util::Bytes sealed_reply;
  if (cleartext_) {
    server_->costs_->ChargeCopy(server_->clock_, reply->size());
    sealed_reply = reply.value();
  } else {
    const uint64_t seal_start_ns = server_->clock_->now_ns();
    sealed_reply = cipher_out_->Seal(reply.value());
    server_->costs_->ChargeCrypto(server_->clock_, sealed_reply.size());
    RecordCryptoSpan(server_->spans_, "sfs.seal", "server", seal_start_ns,
                     server_->clock_->now_ns(), sealed_reply.size(),
                     server_->spans_->current());
  }
  xdr::Encoder reply_frame;
  reply_frame.PutUint32(wire_seqno.value());
  reply_frame.PutOpaque(sealed_reply);
  util::Bytes framed_reply = FrameMessage(kMsgEncrypted, reply_frame.Take());

  // Record the framed reply so a retransmit replays these exact bytes
  // without touching either keystream.
  reply_cache_[wire_seqno.value()] = framed_reply;
  if (wire_seqno.value() > reply_cache_max_seqno_) {
    reply_cache_max_seqno_ = wire_seqno.value();
  }
  while (!reply_cache_.empty() &&
         reply_cache_.begin()->first + kDrcWindow <= reply_cache_max_seqno_) {
    reply_cache_.erase(reply_cache_.begin());
  }
  while (!ctx_cache_.empty() &&
         ctx_cache_.begin()->first + kDrcWindow <= reply_cache_max_seqno_) {
    ctx_cache_.erase(ctx_cache_.begin());
  }
  return framed_reply;
}

util::Result<util::Bytes> ServerConnection::DispatchRpc(const util::Bytes& rpc_message,
                                                        uint32_t wire_seqno) {
  // Minimal RPC framing: xid, prog, proc, args (see rpc/rpc.h).
  xdr::Decoder dec(rpc_message);
  auto xid = dec.GetUint32();
  auto prog = dec.GetUint32();
  auto proc = dec.GetUint32();
  auto args = dec.GetOpaque();
  if (!xid.ok() || !prog.ok() || !proc.ok() || !args.ok()) {
    return util::InvalidArgument("malformed RPC in channel");
  }
  // Optional trailing trace context (rides inside the sealed body; see
  // docs/OBSERVABILITY.md §"Spans").
  obs::SpanContext wire_ctx;
  if (!dec.AtEnd()) {
    auto trace_id = dec.GetUint64();
    auto parent_span = dec.GetUint64();
    if (!trace_id.ok() || !parent_span.ok()) {
      return util::InvalidArgument("malformed RPC in channel");
    }
    wire_ctx = obs::SpanContext{trace_id.value(), parent_span.value()};
  }
  if (!dec.AtEnd()) {
    return util::InvalidArgument("malformed RPC in channel");
  }
  if (wire_ctx.valid()) {
    ctx_cache_[wire_seqno] = wire_ctx;
  }

  const bool is_nfs = prog.value() == nfs::kNfsProgram;
  const bool is_ctl = prog.value() == kSfsCtlProgram;
  const std::string proc_name = is_nfs   ? nfs::ProcName(proc.value())
                                : is_ctl ? CtlProcName(proc.value())
                                         : std::to_string(proc.value());
  const uint64_t t_dispatch_ns = server_->clock_->now_ns();

  auto emit = [&](obs::TraceEvent::Kind kind, uint64_t wire_bytes,
                  const std::string& note) {
    if (!server_->tracer_->active()) {
      return;
    }
    obs::TraceEvent event;
    event.kind = kind;
    event.layer = "sfs.chan";
    event.prog = prog.value();
    event.proc = proc.value();
    event.proc_name = proc_name;
    event.xid = xid.value();
    event.seqno = wire_seqno;
    event.wire_bytes = wire_bytes;
    event.t_send_ns = t_dispatch_ns;
    event.t_recv_ns = server_->clock_->now_ns();
    event.note = note;
    server_->tracer_->Emit(event);
  };
  emit(obs::TraceEvent::Kind::kServerDispatch, rpc_message.size(), "");

  obs::ProcMetrics* pm = is_nfs   ? server_->nfs_metrics_.Get(proc.value(), proc_name)
                         : is_ctl ? server_->ctl_metrics_.Get(proc.value(), proc_name)
                                  : nullptr;
  if (pm != nullptr) {
    pm->calls->Increment();
    pm->bytes_received->Increment(rpc_message.size());
  }

  uint64_t dispatch_span = 0;
  if (server_->spans_->enabled()) {
    dispatch_span = server_->spans_->Begin("sfs.dispatch." + proc_name, "server", wire_ctx);
    if (obs::Span* s = server_->spans_->Find(dispatch_span)) {
      s->xid = xid.value();
      s->seqno = wire_seqno;
      s->wire_bytes = rpc_message.size();
    }
    server_->spans_->Push(dispatch_span);
  }

  util::Result<util::Bytes> result = util::InvalidArgument("no such program");
  if (is_nfs) {
    result = HandleNfs(proc.value(), args.value());
  } else if (is_ctl) {
    result = HandleCtl(proc.value(), args.value());
  }

  // Journal the executed operation (retransmits answered from the DRC
  // never reach this point, so the journal is exactly-once).  Recorded
  // while the dispatch span is still ambient: the record carries its
  // trace/span ids.
  if (server_->auditor_ != nullptr) {
    uint32_t verdict = result.ok() ? 0 : static_cast<uint32_t>(result.status().code());
    // Stable-storage flag: COMMITs and FILE_SYNC WRITEs are durable
    // commitments; UNSTABLE write-behind traffic stays unflagged.
    if (is_nfs && (proc.value() == nfs::kProcCommit ||
                   (proc.value() == nfs::kProcWrite &&
                    AuditNfsWriteIsStable(args.value())))) {
      verdict |= kAuditVerdictStableBit;
    }
    server_->auditor_->Record(
        is_nfs   ? obs::AuditKind::kNfs
        : is_ctl ? obs::AuditKind::kCtl
                 : obs::AuditKind::kOther,
        id_, wire_seqno, proc.value(), verdict,
        is_nfs ? AuditFhDigestOfNfsArgs(args.value()) : 0);
  }

  if (dispatch_span != 0) {
    if (obs::Span* s = server_->spans_->Find(dispatch_span)) {
      s->error = !result.ok();
    }
    server_->spans_->Pop(dispatch_span);
    server_->spans_->End(dispatch_span);
  }

  if (pm != nullptr) {
    // Handler execution time (server CPU + disk, by the cost model).
    pm->latency->Record(server_->clock_->now_ns() - t_dispatch_ns);
    if (!result.ok()) {
      pm->errors->Increment();
    }
  }

  xdr::Encoder reply;
  reply.PutUint32(xid.value());
  if (result.ok()) {
    reply.PutUint32(0);
    reply.PutOpaque(result.value());
  } else {
    reply.PutUint32(1);
    reply.PutUint32(static_cast<uint32_t>(result.status().code()));
    reply.PutString(result.status().message());
  }
  util::Bytes reply_bytes = reply.Take();
  if (pm != nullptr) {
    pm->bytes_sent->Increment(reply_bytes.size());
  }
  emit(obs::TraceEvent::Kind::kServerReply, reply_bytes.size(),
       result.ok() ? "" : result.status().message());
  return reply_bytes;
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
