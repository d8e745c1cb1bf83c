#include "src/obs/auditlog.h"

#include <cassert>
#include <cstdio>
#include <cstring>

#include "src/xdr/xdr.h"

namespace obs {
namespace {

constexpr uint8_t kIpad = 0x36;
constexpr uint8_t kOpad = 0x5c;

// HMAC key block (RFC 2104): the 20-byte batch key XOR pad, zero-padded
// to the SHA-1 block size.
void UpdatePadBlock(crypto::Sha1* hash, const util::Bytes& key, uint8_t pad) {
  uint8_t block[crypto::kSha1BlockSize];
  std::memset(block, pad, sizeof(block));
  for (size_t i = 0; i < key.size() && i < sizeof(block); ++i) {
    block[i] = key[i] ^ pad;
  }
  hash->Update(block, sizeof(block));
}

// The MAC-covered header prefix: everything known at batch open.
util::Bytes HeaderPrefix(uint32_t batch_index, uint64_t first_seqno) {
  xdr::Encoder enc;
  enc.PutUint32(kAuditMagic);
  enc.PutUint32(batch_index);
  enc.PutUint64(first_seqno);
  return enc.Take();
}

// The MAC-covered trailer fields: known only at seal.
util::Bytes TrailerFields(uint32_t count, bool final) {
  xdr::Encoder enc;
  enc.PutUint32(count);
  enc.PutUint32(final ? 1 : 0);
  return enc.Take();
}

// Truncated keyed tag: the first kAuditTagSize bytes of the running
// inner hash's digest at this point.  Computing it requires the inner
// state, which requires the batch key.
util::Bytes TagFromInner(const crypto::Sha1& inner) {
  crypto::Sha1 snapshot = inner;  // The running state keeps absorbing.
  util::Bytes digest = snapshot.Digest();
  digest.resize(kAuditTagSize);
  return digest;
}

uint32_t ReadU32(const uint8_t* p) {
  return (uint32_t{p[0]} << 24) | (uint32_t{p[1]} << 16) | (uint32_t{p[2]} << 8) |
         uint32_t{p[3]};
}

uint64_t ReadU64(const uint8_t* p) {
  return (uint64_t{ReadU32(p)} << 32) | ReadU32(p + 4);
}

}  // namespace

const char* AuditKindName(AuditKind kind) {
  switch (kind) {
    case AuditKind::kNfs:
      return "NFS3";
    case AuditKind::kCtl:
      return "SFSCTL";
    case AuditKind::kConnect:
      return "CONNECT";
    case AuditKind::kRevocationServed:
      return "REVOKE_SERVED";
    case AuditKind::kRevocationInstalled:
      return "REVOKE_INSTALLED";
  }
  return "?";
}

util::Bytes AuditRecord::Serialize() const {
  xdr::Encoder enc;
  enc.PutUint64(seqno);
  enc.PutUint64(time_ns);
  enc.PutUint64(connection_id);
  enc.PutUint32(wire_seqno);
  enc.PutUint32(kind);
  enc.PutUint32(proc);
  enc.PutUint32(verdict);
  enc.PutUint64(fh_digest);
  enc.PutUint64(trace_id);
  enc.PutUint64(span_id);
  util::Bytes out = enc.Take();
  assert(out.size() == kWireSize);
  return out;
}

AuditRecord AuditRecord::Deserialize(const uint8_t* data) {
  AuditRecord r;
  r.seqno = ReadU64(data);
  r.time_ns = ReadU64(data + 8);
  r.connection_id = ReadU64(data + 16);
  r.wire_seqno = ReadU32(data + 24);
  r.kind = ReadU32(data + 28);
  r.proc = ReadU32(data + 32);
  r.verdict = ReadU32(data + 36);
  r.fh_digest = ReadU64(data + 40);
  r.trace_id = ReadU64(data + 48);
  r.span_id = ReadU64(data + 56);
  return r;
}

uint64_t AuditDigest(const util::Bytes& data) {
  uint64_t h = 14695981039346656037ull;
  for (uint8_t b : data) {
    h ^= b;
    h *= 1099511628211ull;
  }
  return h;
}

// --- Writer -----------------------------------------------------------------

AuditLog::AuditLog(const util::Bytes& genesis_key, Options options)
    : options_(options), keystream_(genesis_key) {
  if (options_.batch_records == 0) {
    options_.batch_records = 1;
  }
}

void AuditLog::OpenBatch() {
  batch_key_ = keystream_.RandomBytes(crypto::kSha1DigestSize);
  inner_ = crypto::Sha1();
  UpdatePadBlock(&inner_, batch_key_, kIpad);
  batch_first_seqno_ = next_seqno_;
  inner_.Update(HeaderPrefix(next_batch_index_, batch_first_seqno_));
  open_count_ = 0;
  pending_.clear();
  batch_open_ = true;
}

AuditLog::AppendInfo AuditLog::Append(AuditRecord record) {
  assert(!finalized_ && "append to a finalized audit log");
  if (!batch_open_) {
    OpenBatch();
  }
  record.seqno = next_seqno_++;
  util::Bytes wire = record.Serialize();
  inner_.Update(wire);
  util::Bytes tag = TagFromInner(inner_);
  pending_.insert(pending_.end(), wire.begin(), wire.end());
  pending_.insert(pending_.end(), tag.begin(), tag.end());
  ++open_count_;
  AppendInfo info;
  info.seqno = record.seqno;
  info.hashed_bytes = kAuditEntrySize;
  return info;
}

AuditLog::SealInfo AuditLog::SealBatch(bool final) {
  inner_.Update(TrailerFields(open_count_, final));
  util::Bytes inner_digest = inner_.Digest();
  crypto::Sha1 outer;
  UpdatePadBlock(&outer, batch_key_, kOpad);
  outer.Update(inner_digest);
  util::Bytes mac = outer.Digest();

  xdr::Encoder header;
  header.PutUint32(kAuditMagic);
  header.PutUint32(next_batch_index_);
  header.PutUint64(batch_first_seqno_);
  header.PutUint32(open_count_);
  header.PutUint32(final ? 1 : 0);
  util::Bytes header_bytes = header.Take();
  assert(header_bytes.size() == kAuditHeaderSize);

  SealInfo info;
  info.sealed_records = open_count_;
  info.sealed_bytes = header_bytes.size() + pending_.size() + mac.size();
  log_.insert(log_.end(), header_bytes.begin(), header_bytes.end());
  log_.insert(log_.end(), pending_.begin(), pending_.end());
  log_.insert(log_.end(), mac.begin(), mac.end());

  // Destroy the batch key: after this point not even the server can
  // recompute these MACs (the PRNG cannot be run backwards).
  std::fill(batch_key_.begin(), batch_key_.end(), uint8_t{0});
  batch_key_.clear();
  pending_.clear();
  open_count_ = 0;
  batch_open_ = false;
  ++next_batch_index_;
  return info;
}

AuditLog::SealInfo AuditLog::Seal() {
  if (!batch_open_ || open_count_ == 0) {
    return SealInfo{};
  }
  return SealBatch(/*final=*/false);
}

AuditLog::SealInfo AuditLog::Finalize() {
  if (finalized_) {
    return SealInfo{};
  }
  SealInfo info = Seal();
  OpenBatch();  // Empty terminal batch: proves the log has an end.
  SealInfo final_info = SealBatch(/*final=*/true);
  info.sealed_bytes += final_info.sealed_bytes;
  finalized_ = true;
  return info;
}

bool AuditLog::WriteTo(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    return false;
  }
  size_t written = log_.empty() ? 0 : std::fwrite(log_.data(), 1, log_.size(), f);
  std::fclose(f);
  return written == log_.size();
}

// --- Verifier ---------------------------------------------------------------

AuditVerifyResult VerifyAuditLog(const util::Bytes& genesis_key,
                                 const util::Bytes& log) {
  AuditVerifyResult result;
  crypto::Prng keystream(genesis_key);
  std::vector<util::Bytes> keys;  // Replayed ratchet, by batch index.
  auto key_for = [&](uint32_t index) -> const util::Bytes& {
    while (keys.size() <= index) {
      keys.push_back(keystream.RandomBytes(crypto::kSha1DigestSize));
    }
    return keys[index];
  };
  auto flag = [&](uint64_t seqno, const std::string& why) {
    if (!result.earliest_bad.has_value() || seqno < *result.earliest_bad) {
      result.earliest_bad = seqno;
      result.detail = why + " (record " + std::to_string(seqno) + ")";
    }
  };

  size_t off = 0;
  uint64_t expected_seqno = 0;
  uint32_t expected_index = 0;
  bool saw_final = false;
  while (off < log.size()) {
    if (saw_final) {
      flag(expected_seqno, "bytes after the final batch");
      break;
    }
    if (log.size() - off < kAuditHeaderSize) {
      flag(expected_seqno, "log truncated inside a batch header");
      break;
    }
    const uint8_t* h = log.data() + off;
    const uint32_t magic = ReadU32(h);
    const uint32_t index = ReadU32(h + 4);
    const uint64_t first_seqno = ReadU64(h + 8);
    const uint32_t count = ReadU32(h + 16);
    const bool final = ReadU32(h + 20) != 0;
    if (magic != kAuditMagic) {
      flag(expected_seqno, "bad batch magic");
      break;  // Cannot resync: everything from here is unattested.
    }
    const uint64_t body_bytes = uint64_t{count} * kAuditEntrySize;
    const bool in_place = index == expected_index && first_seqno == expected_seqno;

    if (log.size() - off - kAuditHeaderSize < body_bytes + kAuditMacSize) {
      // Batch cut short: attest as many complete records as survive the
      // keyed tag chain, then report the first missing/unverified one.
      uint64_t verified = 0;
      if (in_place) {
        crypto::Sha1 inner;
        UpdatePadBlock(&inner, key_for(index), kIpad);
        inner.Update(HeaderPrefix(index, first_seqno));
        size_t rec_off = off + kAuditHeaderSize;
        for (uint32_t j = 0; j < count && rec_off + kAuditEntrySize <= log.size();
             ++j, rec_off += kAuditEntrySize) {
          const uint8_t* entry = log.data() + rec_off;
          AuditRecordInfo info;
          info.record = AuditRecord::Deserialize(entry);
          info.offset = rec_off;
          info.batch_index = index;
          inner.Update(entry, AuditRecord::kWireSize);
          util::Bytes tag = TagFromInner(inner);
          info.survives = info.record.seqno == first_seqno + j &&
                          std::memcmp(tag.data(), entry + AuditRecord::kWireSize,
                                      kAuditTagSize) == 0;
          if (info.survives && verified == j) {
            ++verified;
            ++result.records_ok;
          } else {
            info.survives = false;
          }
          result.records.push_back(info);
        }
      }
      flag(first_seqno + verified, "log truncated mid-batch");
      break;
    }

    // Full batch present: verify under the key of its *stored* index, so
    // authentic batches after a tampered region still attest.
    const bool misordered = index < expected_index;
    crypto::Sha1 inner;
    UpdatePadBlock(&inner, key_for(index), kIpad);
    inner.Update(HeaderPrefix(index, first_seqno));
    std::optional<uint64_t> first_bad_in_batch;
    std::vector<AuditRecordInfo> batch_records;
    size_t rec_off = off + kAuditHeaderSize;
    for (uint32_t j = 0; j < count; ++j, rec_off += kAuditEntrySize) {
      const uint8_t* entry = log.data() + rec_off;
      AuditRecordInfo info;
      info.record = AuditRecord::Deserialize(entry);
      info.offset = rec_off;
      info.batch_index = index;
      inner.Update(entry, AuditRecord::kWireSize);
      util::Bytes tag = TagFromInner(inner);
      const bool tag_ok = std::memcmp(tag.data(), entry + AuditRecord::kWireSize,
                                      kAuditTagSize) == 0;
      info.survives = tag_ok && info.record.seqno == first_seqno + j && !misordered;
      if (!info.survives && !first_bad_in_batch.has_value()) {
        first_bad_in_batch = first_seqno + j;
      }
      batch_records.push_back(info);
    }
    inner.Update(TrailerFields(count, final));
    util::Bytes inner_digest = inner.Digest();
    crypto::Sha1 outer;
    UpdatePadBlock(&outer, key_for(index), kOpad);
    outer.Update(inner_digest);
    util::Bytes mac = outer.Digest();
    const bool mac_ok =
        std::memcmp(mac.data(), log.data() + rec_off, kAuditMacSize) == 0;

    if (misordered) {
      // A batch index going backwards is a splice or duplicate: its
      // records were already attested (or refuted) at their true place.
      flag(expected_seqno, "batch index went backwards (splice/duplicate)");
      for (AuditRecordInfo& info : batch_records) {
        info.survives = false;
      }
    } else {
      if (!in_place) {
        // The batch authenticates at a later position than expected:
        // the records in between are gone.
        flag(expected_seqno, "gap before batch (batch or records removed)");
      }
      if (!mac_ok) {
        if (first_bad_in_batch.has_value()) {
          flag(*first_bad_in_batch, "record tag mismatch (tampered)");
        } else {
          // Every present record attests but the seal does not: the
          // trailer (count/final) was rewritten — records were dropped
          // from the batch tail.
          flag(first_seqno + count, "batch MAC mismatch (trailer tampered)");
        }
      } else {
        if (first_bad_in_batch.has_value()) {
          flag(*first_bad_in_batch, "record sequence mismatch");
        }
        if (final) {
          saw_final = true;
        }
        ++result.batches_ok;
      }
      expected_index = index + 1;
      expected_seqno = first_seqno + count;
    }
    for (const AuditRecordInfo& info : batch_records) {
      if (info.survives) {
        ++result.records_ok;
      }
      result.records.push_back(info);
    }
    off += kAuditHeaderSize + body_bytes + kAuditMacSize;
  }

  result.finalized = saw_final;
  if (!saw_final && !result.earliest_bad.has_value() && !log.empty()) {
    // Without the terminal batch, any number of sealed batches could
    // have been cut off the tail undetectably.
    flag(expected_seqno, "no final batch: tail truncated or log not finalized");
  }
  result.ok = !result.earliest_bad.has_value();
  return result;
}

}  // namespace obs
