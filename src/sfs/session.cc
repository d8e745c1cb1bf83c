#include "src/sfs/session.h"

#include <cstring>

#include "src/crypto/sha1.h"
#include "src/sfs/proto.h"
#include "src/xdr/xdr.h"

namespace sfs {
namespace {

constexpr size_t kKeyHalfSize = 20;
constexpr size_t kMacKeySize = 32;
constexpr size_t kMacSize = crypto::kSha1DigestSize;
constexpr size_t kLengthSize = 4;  // XDR uint32, big-endian.

// The channel frame is FrameMessage(kMsgEncrypted, {seqno, opaque body}),
// written and read in one buffer: {kMsgEncrypted, payload length, seqno,
// n, the n body bytes, zero pad}, where the payload is everything after
// the first two words.  A sealed body is a whole number of XDR units, so
// only the cleartext ablation's body is padded.  The cleartext seqno
// (docs/PROTOCOL.md §10) opens the payload.
constexpr size_t kFramePayloadOffset = 8;
constexpr size_t kFrameSeqnoOffset = 8;
constexpr size_t kFrameBodyLengthOffset = 12;
constexpr size_t kFrameHeaderSize = 16;

// Records one already-elapsed all-kCrypto interval (a seal or an open)
// under `parent`; one outside any call is not recorded.
void RecordCryptoSpan(obs::SpanCollector* spans, const char* name, const char* layer,
                      uint64_t start_ns, uint64_t end_ns, uint64_t bytes,
                      obs::SpanContext parent) {
  if (!spans->enabled() || !parent.valid() || end_ns == start_ns) {
    return;
  }
  obs::Span span;
  span.name = name;
  span.layer = layer;
  span.start_ns = start_ns;
  span.end_ns = end_ns;
  span.cat_ns[static_cast<size_t>(obs::TimeCategory::kCrypto)] = end_ns - start_ns;
  span.wire_bytes = bytes;
  spans->RecordClosed(std::move(span), parent);
}

// Seals `body` straight into its channel frame, charging the crypto, and
// records an sfs.seal span in `layer` under the ambient span.  A null
// cipher is the cleartext ablation: the body is charged as a copy and
// framed as is.
util::Bytes SealFrame(ChannelCipher* cipher, sim::Clock* clock, const sim::CostModel* costs,
                      obs::SpanCollector* spans, const char* layer, uint32_t seqno,
                      const util::Bytes& body) {
  const size_t len = cipher == nullptr ? body.size() : ChannelCipher::SealedSize(body.size());
  util::Bytes frame(kFrameHeaderSize + xdr::PaddedSize(len));  // Zeroed, so the pad is free.
  xdr::PokeUint32(frame.data(), kMsgEncrypted);
  xdr::PokeUint32(frame.data() + 4, static_cast<uint32_t>(frame.size() - kFramePayloadOffset));
  xdr::PokeUint32(frame.data() + kFrameSeqnoOffset, seqno);
  xdr::PokeUint32(frame.data() + kFrameBodyLengthOffset, static_cast<uint32_t>(len));
  if (cipher == nullptr) {
    costs->ChargeCopy(clock, body.size());
    if (!body.empty()) {
      std::memcpy(frame.data() + kFrameHeaderSize, body.data(), body.size());
    }
  } else {
    const uint64_t start_ns = clock->now_ns();
    cipher->Seal(body.data(), body.size(), frame.data() + kFrameHeaderSize);
    costs->ChargeCrypto(clock, len);
    RecordCryptoSpan(spans, "sfs.seal", layer, start_ns, clock->now_ns(), len, spans->current());
  }
  return frame;
}

// Returns the frame's seqno and cuts `*frame` down to its body in place,
// which Open then decrypts in place: a received message is never copied.
// Runs every check of Unframe(kMsgEncrypted, message) and of the
// payload's {seqno, opaque} decode, in the same order and with the same
// status codes: a fault in the connection frame's XDR is
// kInvalidArgument, and any other malformation kSecurityError.  A
// failing frame is left as it was.
util::Result<uint32_t> UnframeSealed(util::Bytes* frame) {
  const util::Bytes& message = *frame;
  ASSIGN_OR_RETURN(const uint32_t type, xdr::PeekUint32(message, 0));
  ASSIGN_OR_RETURN(const uint32_t payload_len, xdr::PeekUint32(message, 4));
  if (payload_len > xdr::kMaxOpaque) {
    return util::InvalidArgument("XDR: opaque too large");
  }
  const size_t payload_end = kFramePayloadOffset + payload_len;
  const size_t frame_end = kFramePayloadOffset + xdr::PaddedSize(payload_len);
  if (frame_end > message.size()) {
    return util::InvalidArgument("XDR: truncated opaque");
  }
  for (size_t k = payload_end; k < frame_end; ++k) {
    if (message[k] != 0) {
      return util::InvalidArgument("XDR: nonzero padding");
    }
  }
  if (type != kMsgEncrypted || frame_end != message.size()) {
    return util::SecurityError("unexpected channel framing");
  }
  if (payload_end < kFrameHeaderSize) {
    return util::SecurityError("malformed channel frame");
  }
  const uint32_t seqno = xdr::PeekUint32(message, kFrameSeqnoOffset).value();
  const uint32_t len = xdr::PeekUint32(message, kFrameBodyLengthOffset).value();
  // Too large, truncated, or trailing bytes after the pad.
  if (len > xdr::kMaxOpaque || kFrameHeaderSize + xdr::PaddedSize(len) != payload_end) {
    return util::SecurityError("malformed channel frame");
  }
  for (size_t k = kFrameHeaderSize + len; k < payload_end; ++k) {
    if (message[k] != 0) {
      return util::SecurityError("malformed channel frame");
    }
  }
  *frame = xdr::KeepRange(std::move(*frame), xdr::Range{kFrameHeaderSize, len});
  return seqno;
}

// Opens one sealed body, charging the crypto first, and records an
// sfs.open span in `layer` under `parent`.  A null cipher charges a copy.
util::Result<util::Bytes> OpenBody(ChannelCipher* cipher, sim::Clock* clock,
                                   const sim::CostModel* costs, obs::SpanCollector* spans,
                                   const char* layer, obs::SpanContext parent,
                                   util::Bytes sealed) {
  if (cipher == nullptr) {
    costs->ChargeCopy(clock, sealed.size());
    return sealed;
  }
  const uint64_t start_ns = clock->now_ns();
  costs->ChargeCrypto(clock, sealed.size());
  RecordCryptoSpan(spans, "sfs.open", layer, start_ns, clock->now_ns(), sealed.size(), parent);
  return cipher->Open(std::move(sealed));
}

}  // namespace

ChannelCipher::ChannelCipher(const util::Bytes& session_key) : stream_(session_key) {}

size_t ChannelCipher::SealedSize(size_t len) {
  return kLengthSize + xdr::PaddedSize(len) + kMacSize;
}

void ChannelCipher::Seal(const uint8_t* plaintext, size_t len, uint8_t* out) {
  // 32 bytes of keystream re-key the MAC for this message and are never
  // used for encryption (paper §3.1.3).  Crypt over zeros yields the bare
  // keystream.
  uint8_t mac_key[kMacKeySize] = {};
  stream_.Crypt(mac_key, kMacKeySize);

  // XDR framing: length, plaintext, zero pad to a 4-byte boundary; then
  // the MAC of all that.
  const size_t framed_len = kLengthSize + xdr::PaddedSize(len);
  xdr::PokeUint32(out, static_cast<uint32_t>(len));
  if (len > 0) {
    std::memcpy(out + kLengthSize, plaintext, len);
  }
  std::memset(out + kLengthSize + len, 0, framed_len - kLengthSize - len);
  crypto::HmacSha1(mac_key, kMacKeySize, out, framed_len, out + framed_len);
  stream_.Crypt(out, framed_len + kMacSize);  // Length, message, and MAC all get encrypted.
}

util::Bytes ChannelCipher::Seal(const util::Bytes& plaintext) {
  util::Bytes sealed(SealedSize(plaintext.size()));
  Seal(plaintext.data(), plaintext.size(), sealed.data());
  return sealed;
}

util::Result<util::Bytes> ChannelCipher::Open(util::Bytes sealed) {
  // Transactional: a failed Open must leave the stream where it was, so a
  // stale or corrupt message does not desynchronize the channel for the
  // genuine copy that retransmission will deliver.
  crypto::Arc4 checkpoint = stream_;
  auto fail = [&](const char* reason) {
    stream_ = checkpoint;
    return util::SecurityError(reason);
  };

  if (sealed.size() < kLengthSize + kMacSize) {
    return fail("sealed message too short");
  }
  uint8_t mac_key[kMacKeySize] = {};
  stream_.Crypt(mac_key, kMacKeySize);
  stream_.Crypt(&sealed);

  const size_t framed_len = sealed.size() - kMacSize;
  uint8_t mac[kMacSize];
  crypto::HmacSha1(mac_key, kMacKeySize, sealed.data(), framed_len, mac);
  if (!util::ConstantTimeEquals(mac, sealed.data() + framed_len, kMacSize)) {
    return fail("MAC check failed");
  }
  size_t len = 0;
  for (size_t k = 0; k < kLengthSize; ++k) {
    len = (len << 8) | sealed[k];
  }
  if (kLengthSize + xdr::PaddedSize(len) != framed_len) {
    return fail("length field inconsistent with message");
  }
  for (size_t k = kLengthSize + len; k < framed_len; ++k) {
    if (sealed[k] != 0) {
      return fail("length field inconsistent with message");
    }
  }
  // The plaintext moves down over the length word within the one buffer.
  std::memmove(sealed.data(), sealed.data() + kLengthSize, len);
  sealed.resize(len);
  return sealed;
}

ChannelTransport::ChannelTransport(sim::Link* link, const sim::CostModel* costs,
                                   obs::Registry* registry,
                                   std::unique_ptr<ChannelCipher> seal,
                                   std::unique_ptr<ChannelCipher> open)
    : rpc::Transport(link, "sfs.call.", "sfs.chan"),
      costs_(costs),
      spans_(&registry->spans()),
      seal_(std::move(seal)),
      open_(std::move(open)) {}

util::Bytes ChannelTransport::Frame(uint32_t seqno, util::Bytes body) {
  // User-level client daemon: two kernel crossings, then seal.
  sim::Clock* clock = link()->clock();
  costs_->ChargeCrossing(clock, 2);
  last_framed_ = seqno;
  return SealFrame(seal_.get(), clock, costs_, spans_, "sfs.chan", seqno, body);
}

void ChannelTransport::Unframe(util::Bytes message, const rpc::CallSpanFn& call_span,
                               std::vector<util::Result<util::Bytes>>* replies) {
  // The reply frame echoes the request's wire seqno in cleartext, so a
  // stale duplicate is caught before the cipher is touched.  An empty
  // message (the server deferring a request that arrived ahead of its
  // turn) fails to unframe and is discarded.
  auto seqno = UnframeSealed(&message);
  if (!seqno.ok()) {
    replies->push_back(seqno.status());
    return;
  }
  if (seqno.value() < next_open_ || seqno.value() > last_framed_) {
    // A duplicate of a reply already opened, or a seqno never sent.
    replies->push_back(
        util::Unavailable("stale reply for seqno " + std::to_string(seqno.value())));
    return;
  }
  // Hold the sealed body and open as far as the in-order cursor allows.
  // A duplicate overwrites with identical bytes (the server's DRC replays
  // the frame verbatim), so the overwrite is harmless.
  held_[seqno.value()] = std::move(message);
  for (auto it = held_.find(next_open_); it != held_.end(); it = held_.find(next_open_)) {
    auto body = OpenBody(open_.get(), link()->clock(), costs_, spans_, "sfs.chan",
                         call_span(next_open_), std::move(it->second));
    held_.erase(it);
    if (!body.ok()) {
      // Tampered or corrupt at the expected keystream position (or a
      // stale copy).  Open left the stream untouched; the call's resend
      // brings the server's DRC replay of the genuine sealed bytes.
      replies->push_back(body.status());
      return;
    }
    ++next_open_;
    replies->push_back(std::move(body));
  }
}

ChannelServerCodec::ChannelServerCodec(sim::Clock* clock, const sim::CostModel* costs,
                                       obs::Registry* registry,
                                       std::unique_ptr<ChannelCipher> seal,
                                       std::unique_ptr<ChannelCipher> open)
    : rpc::ServerCodec("sfs.dispatch.", "sfs.drc_hit"),
      clock_(clock),
      costs_(costs),
      spans_(&registry->spans()),
      seal_(std::move(seal)),
      open_(std::move(open)) {}

util::Result<uint32_t> ChannelServerCodec::Seqno(const util::Bytes& request) {
  return xdr::PeekUint32(request, kFrameSeqnoOffset);
}

util::Result<util::Bytes> ChannelServerCodec::Open(util::Bytes request) {
  ASSIGN_OR_RETURN(const uint32_t seqno, UnframeSealed(&request));
  if (seqno > next_open_) {
    // Sealed at a later keystream position than the cursor, so it would
    // fail the MAC now: defer it until the gap fills.
    return util::Bytes{};
  }
  if (seqno < next_open_) {
    // A genuine client's opened seqnos stay in the DRC until below its window.
    return util::SecurityError("channel seqno behind the receive cursor");
  }
  ASSIGN_OR_RETURN(util::Bytes body, OpenBody(open_.get(), clock_, costs_, spans_, "server",
                                              spans_->current(), std::move(request)));
  if (body.empty()) {
    // No call body is empty, and an empty one would read as deferred.
    return util::SecurityError("empty channel message");
  }
  ++next_open_;
  return body;
}

util::Bytes ChannelServerCodec::Seal(uint32_t seqno, util::Bytes reply) {
  // Fresh requests execute in seqno order, so the echoed seqnos are the
  // keystream order the client opens replies in.
  return SealFrame(seal_.get(), clock_, costs_, spans_, "server", seqno, reply);
}

util::Bytes SessionKeys::SessionId() const {
  xdr::Encoder enc;
  enc.PutString("SessionInfo");
  enc.PutOpaque(ksc);
  enc.PutOpaque(kcs);
  return crypto::Sha1Digest(enc.Take());
}

util::Bytes MakeAuthInfo(const SelfCertifyingPath& path, const util::Bytes& session_id) {
  xdr::Encoder enc;
  enc.PutString("AuthInfo");
  enc.PutString("FS");
  enc.PutString(path.location);
  enc.PutOpaque(path.host_id);
  enc.PutOpaque(session_id);
  return enc.Take();
}

util::Bytes MakeAuthId(const util::Bytes& auth_info) { return crypto::Sha1Digest(auth_info); }

SessionKeys DeriveSessionKeys(const crypto::RabinPublicKey& server_key,
                              const crypto::RabinPublicKey& client_key,
                              const util::Bytes& kc1, const util::Bytes& kc2,
                              const util::Bytes& ks1, const util::Bytes& ks2) {
  auto derive = [&](const char* label, const util::Bytes& kc, const util::Bytes& ks) {
    xdr::Encoder enc;
    enc.PutString(label);
    enc.PutOpaque(server_key.Serialize());
    enc.PutOpaque(kc);
    enc.PutOpaque(client_key.Serialize());
    enc.PutOpaque(ks);
    return crypto::Sha1Digest(enc.Take());
  };
  SessionKeys keys;
  keys.kcs = derive("KCS", kc1, ks1);
  keys.ksc = derive("KSC", kc2, ks2);
  return keys;
}

util::Result<ClientNegotiation> ClientNegotiation::Start(
    const crypto::RabinPublicKey& server_key, crypto::Prng* prng, size_t ephemeral_bits) {
  ClientNegotiation neg;
  neg.ephemeral_key = crypto::RabinPrivateKey::Generate(prng, ephemeral_bits);
  neg.kc1 = prng->RandomBytes(kKeyHalfSize);
  neg.kc2 = prng->RandomBytes(kKeyHalfSize);
  ASSIGN_OR_RETURN(neg.enc_kc1, server_key.Encrypt(neg.kc1, prng));
  ASSIGN_OR_RETURN(neg.enc_kc2, server_key.Encrypt(neg.kc2, prng));
  return neg;
}

util::Result<SessionKeys> ClientNegotiation::Finish(const crypto::RabinPublicKey& server_key,
                                                    const util::Bytes& enc_ks1,
                                                    const util::Bytes& enc_ks2) const {
  ASSIGN_OR_RETURN(util::Bytes ks1, ephemeral_key.Decrypt(enc_ks1));
  ASSIGN_OR_RETURN(util::Bytes ks2, ephemeral_key.Decrypt(enc_ks2));
  if (ks1.size() != kKeyHalfSize || ks2.size() != kKeyHalfSize) {
    return util::SecurityError("server key halves have wrong size");
  }
  return DeriveSessionKeys(server_key, ephemeral_key.public_key(), kc1, kc2, ks1, ks2);
}

util::Result<ServerNegotiation> ServerNegotiation::Respond(
    const crypto::RabinPrivateKey& server_key, const util::Bytes& client_pubkey_bytes,
    const util::Bytes& enc_kc1, const util::Bytes& enc_kc2, crypto::Prng* prng) {
  ASSIGN_OR_RETURN(crypto::RabinPublicKey client_key,
                   crypto::RabinPublicKey::Deserialize(client_pubkey_bytes));
  ASSIGN_OR_RETURN(util::Bytes kc1, server_key.Decrypt(enc_kc1));
  ASSIGN_OR_RETURN(util::Bytes kc2, server_key.Decrypt(enc_kc2));
  if (kc1.size() != kKeyHalfSize || kc2.size() != kKeyHalfSize) {
    return util::SecurityError("client key halves have wrong size");
  }
  util::Bytes ks1 = prng->RandomBytes(kKeyHalfSize);
  util::Bytes ks2 = prng->RandomBytes(kKeyHalfSize);

  ServerNegotiation out;
  out.keys = DeriveSessionKeys(server_key.public_key(), client_key, kc1, kc2, ks1, ks2);
  ASSIGN_OR_RETURN(out.enc_ks1, client_key.Encrypt(ks1, prng));
  ASSIGN_OR_RETURN(out.enc_ks2, client_key.Encrypt(ks2, prng));
  return out;
}

}  // namespace sfs
