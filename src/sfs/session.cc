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

}  // namespace

ChannelCipher::ChannelCipher(const util::Bytes& session_key) : stream_(session_key) {}

util::Bytes ChannelCipher::Seal(const util::Bytes& plaintext) {
  // 32 bytes of keystream re-key the MAC for this message and are never
  // used for encryption (paper §3.1.3).  Crypt over zeros yields the bare
  // keystream.
  uint8_t mac_key[kMacKeySize] = {};
  stream_.Crypt(mac_key, kMacKeySize);

  // XDR framing: length, plaintext, zero pad to a 4-byte boundary; then
  // the MAC of all that.  The buffer starts zeroed, so the pad is free.
  const size_t len = plaintext.size();
  const size_t framed_len = kLengthSize + xdr::PaddedSize(len);
  util::Bytes sealed(framed_len + kMacSize);
  for (size_t k = 0; k < kLengthSize; ++k) {
    sealed[k] = static_cast<uint8_t>(len >> (8 * (kLengthSize - 1 - k)));
  }
  if (len > 0) {
    std::memcpy(sealed.data() + kLengthSize, plaintext.data(), len);
  }
  crypto::HmacSha1(mac_key, kMacKeySize, sealed.data(), framed_len, sealed.data() + framed_len);
  stream_.Crypt(&sealed);  // Length, message, and MAC all get encrypted.
  return sealed;
}

util::Result<util::Bytes> ChannelCipher::Open(const util::Bytes& sealed) {
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
  util::Bytes buf = sealed;
  stream_.Crypt(&buf);

  const size_t framed_len = buf.size() - kMacSize;
  uint8_t mac[kMacSize];
  crypto::HmacSha1(mac_key, kMacKeySize, buf.data(), framed_len, mac);
  if (!util::ConstantTimeEquals(mac, buf.data() + framed_len, kMacSize)) {
    return fail("MAC check failed");
  }
  size_t len = 0;
  for (size_t k = 0; k < kLengthSize; ++k) {
    len = (len << 8) | buf[k];
  }
  if (kLengthSize + xdr::PaddedSize(len) != framed_len) {
    return fail("length field inconsistent with message");
  }
  for (size_t k = kLengthSize + len; k < framed_len; ++k) {
    if (buf[k] != 0) {
      return fail("length field inconsistent with message");
    }
  }
  // The plaintext moves down over the length word within the one buffer.
  std::memmove(buf.data(), buf.data() + kLengthSize, len);
  buf.resize(len);
  return buf;
}

void RecordCryptoSpan(obs::SpanCollector* spans, const char* name, const char* layer,
                      uint64_t start_ns, uint64_t end_ns, uint64_t bytes,
                      obs::SpanContext parent) {
  if (spans == nullptr || !spans->enabled() || end_ns == start_ns) {
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

ChannelTransport::ChannelTransport(sim::Link* link, const sim::CostModel* costs,
                                   obs::Registry* registry,
                                   std::unique_ptr<ChannelCipher> seal,
                                   std::unique_ptr<ChannelCipher> open)
    : rpc::Transport(link, "sfs.call.", "sfs.chan"),
      costs_(costs),
      spans_(&registry->spans()),
      seal_(std::move(seal)),
      open_(std::move(open)) {}

util::Bytes ChannelTransport::Frame(uint32_t seqno, const util::Bytes& body) {
  // User-level client daemon: two kernel crossings, then seal.
  sim::Clock* clock = link()->clock();
  costs_->ChargeCrossing(clock, 2);
  util::Bytes sealed;
  if (seal_ == nullptr) {
    costs_->ChargeCopy(clock, body.size());
    sealed = body;
  } else {
    const uint64_t start_ns = clock->now_ns();
    sealed = seal_->Seal(body);
    costs_->ChargeCrypto(clock, sealed.size());
    RecordCryptoSpan(spans_, "sfs.seal", "sfs.chan", start_ns, clock->now_ns(), sealed.size(),
                     spans_->current());
  }
  last_framed_ = seqno;
  xdr::Encoder frame;
  frame.PutUint32(seqno);
  frame.PutOpaque(sealed);
  return FrameMessage(kMsgEncrypted, frame.Take());
}

std::vector<util::Result<util::Bytes>> ChannelTransport::Unframe(
    util::Bytes message, const rpc::CallSpanFn& call_span) {
  std::vector<util::Result<util::Bytes>> replies;
  // The reply frame echoes the request's wire seqno in cleartext
  // (docs/PROTOCOL.md §10), so a stale duplicate is caught before the
  // cipher is touched.
  auto payload = sfs::Unframe(kMsgEncrypted, message);
  if (!payload.ok()) {
    replies.push_back(payload.status());
    return replies;
  }
  xdr::Decoder frame(std::move(payload).value());
  auto seqno = frame.GetUint32();
  auto sealed = frame.GetOpaque();
  if (!seqno.ok() || !sealed.ok() || !frame.AtEnd()) {
    replies.push_back(util::SecurityError("malformed encrypted reply frame"));
    return replies;
  }
  if (seqno.value() < next_open_ || seqno.value() > last_framed_) {
    // A duplicate of a reply already opened, or a seqno never sent.
    replies.push_back(
        util::Unavailable("stale reply for seqno " + std::to_string(seqno.value())));
    return replies;
  }
  // Hold the sealed body and open as far as the in-order cursor allows.
  // A duplicate overwrites with identical bytes (the server's DRC replays
  // the frame verbatim), so the overwrite is harmless.
  held_[seqno.value()] = std::move(sealed).value();
  sim::Clock* clock = link()->clock();
  for (auto it = held_.find(next_open_); it != held_.end(); it = held_.find(next_open_)) {
    util::Bytes body = std::move(it->second);
    held_.erase(it);
    if (open_ == nullptr) {
      costs_->ChargeCopy(clock, body.size());
    } else {
      const uint64_t start_ns = clock->now_ns();
      costs_->ChargeCrypto(clock, body.size());
      if (const obs::SpanContext parent = call_span(next_open_); parent.valid()) {
        RecordCryptoSpan(spans_, "sfs.open", "sfs.chan", start_ns, clock->now_ns(),
                         body.size(), parent);
      }
      auto opened = open_->Open(body);
      if (!opened.ok()) {
        // Tampered or corrupt at the expected keystream position (or a
        // stale copy).  Open left the stream untouched; the call's resend
        // brings the server's DRC replay of the genuine sealed bytes.
        replies.push_back(opened.status());
        return replies;
      }
      body = std::move(opened).value();
    }
    ++next_open_;
    replies.push_back(std::move(body));
  }
  return replies;
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
