// Tamper-evident append-only operation journal (ROADMAP item 5).
//
// The paper separates key management from file system security; this
// module extends that separation to *history*.  An attacker who seizes
// the server learns its current keys but must not be able to rewrite
// what the server already did.  The construction is the SealFS one: a
// keystream of per-batch MAC keys is ratcheted forward through the
// DSS-style SHA-1 PRNG (crypto::Prng, which "cannot be run backwards"
// — paper §3.1.3) and each key is destroyed after its batch seals, so
// the post-compromise attacker holds only future keys.  An offline
// verifier replays the keystream from the retained genesis key and
// checks every batch.
//
// Batching amortizes the MAC: one HMAC-SHA-1 finalization per
// `batch_records` records.  Record-exact tamper localization is kept by
// snapshotting the running inner HMAC state after each record and
// emitting a truncated keyed tag from the snapshot; the attacker cannot
// compute these states without the batch key, and the verifier's first
// tag mismatch pinpoints the earliest bad record.  Because the tags
// chain through the running state, a tamper also poisons the *rest of
// its batch* (everything after it is unattestable); batch size bounds
// that blast radius, which is the SealFS nratchet tradeoff.
//
// Batch wire format (XDR, big-endian), emitted at seal time:
//   header   magic u32 | batch_index u32 | first_seqno u64 |
//            count u32 | final u32
//   body     count x (64-byte record || 8-byte tag)
//   trailer  20-byte HMAC-SHA-1 over (header fields || records)
// Batch keys are positional (one RandomBytes(20) per batch index), and
// the MAC covers batch_index and first_seqno, so batches cannot be
// reordered, spliced in from another log, or silently dropped.  The
// terminal batch carries final=1; its absence means the tail was cut.
#ifndef SFS_SRC_OBS_AUDITLOG_H_
#define SFS_SRC_OBS_AUDITLOG_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/crypto/prng.h"
#include "src/crypto/sha1.h"
#include "src/util/bytes.h"

namespace obs {

// What kind of server event a record describes.
enum class AuditKind : uint32_t {
  kNfs = 1,               // NFS3 dialect RPC (proc = NFS procedure).
  kCtl = 2,               // SFSCTL RPC (proc = control procedure).
  kConnect = 3,           // Connect request (proc = ConnectResult).
  kRevocationServed = 4,  // Revocation certificate answered a connect.
  kRevocationInstalled = 5,  // ServeRevocation installed a certificate.
};
const char* AuditKindName(AuditKind kind);

// One journal entry.  Fixed 64-byte canonical encoding: everything the
// MAC covers is the raw marshaled bytes, per the project's XDR rule.
struct AuditRecord {
  uint64_t seqno = 0;          // Journal position; assigned by Append.
  uint64_t time_ns = 0;        // Virtual timestamp.
  uint64_t connection_id = 0;  // Accepting ServerConnection (0 = none).
  uint32_t wire_seqno = 0;     // Secure-channel frame seqno (0 = none).
  uint32_t kind = 0;           // AuditKind.
  uint32_t proc = 0;           // Procedure number (meaning per kind).
  uint32_t verdict = 0;        // util::ErrorCode of the result; 0 = OK.
  uint64_t fh_digest = 0;      // FNV-1a of the file handle (or HostID
                               // for revocation records); 0 = none.
  uint64_t trace_id = 0;       // obs::SpanContext at dispatch time,
  uint64_t span_id = 0;        // linking the record to its trace.

  static constexpr size_t kWireSize = 64;
  util::Bytes Serialize() const;
  // Decodes exactly kWireSize bytes (no framing).
  static AuditRecord Deserialize(const uint8_t* data);
};

inline constexpr uint32_t kAuditMagic = 0x5346414c;  // "SFAL"
inline constexpr size_t kAuditHeaderSize = 24;
inline constexpr size_t kAuditTagSize = 8;
inline constexpr size_t kAuditEntrySize = AuditRecord::kWireSize + kAuditTagSize;
inline constexpr size_t kAuditMacSize = crypto::kSha1DigestSize;

// 64-bit FNV-1a, the journal's cheap (non-cryptographic) identifier for
// file handles; the MAC provides the integrity.
uint64_t AuditDigest(const util::Bytes& data);

// Append-only journal writer.  Holds the sealed log bytes in memory
// (durability is the simulation's concern; sfs::ServerAuditor charges
// the virtual disk) plus one open batch.
class AuditLog {
 public:
  struct Options {
    uint32_t batch_records = 64;  // Records per ratchet step (nratchet).
  };

  // `genesis_key` seeds the key ratchet; the verifier needs the same
  // bytes.  The writer itself cannot reproduce earlier keys once their
  // batches seal (the PRNG only runs forward and keys are zeroized).
  AuditLog(const util::Bytes& genesis_key, Options options);
  explicit AuditLog(const util::Bytes& genesis_key)
      : AuditLog(genesis_key, Options()) {}

  struct AppendInfo {
    uint64_t seqno = 0;
    uint64_t hashed_bytes = 0;  // Bytes folded into the running MAC.
  };
  // Appends one record (seqno/tag assigned here).  The caller decides
  // when to Seal; open_records() reports the batch fill.
  AppendInfo Append(AuditRecord record);

  struct SealInfo {
    uint64_t sealed_bytes = 0;    // Bytes emitted into the log (0 = no-op).
    uint64_t sealed_records = 0;  // Records in the sealed batch.
  };
  // Seals the open batch: one HMAC finalization, batch bytes appended
  // to the log, batch key destroyed.  No-op on an empty batch.
  SealInfo Seal();
  // Seals, then emits the terminal final=1 batch.  Further appends are
  // a programming error; idempotent.
  SealInfo Finalize();

  const util::Bytes& bytes() const { return log_; }
  uint64_t next_seqno() const { return next_seqno_; }
  uint32_t open_records() const { return open_count_; }
  uint64_t batches_sealed() const { return next_batch_index_; }
  bool finalized() const { return finalized_; }

  // Writes the sealed log bytes to `path`; false on I/O failure.
  bool WriteTo(const std::string& path) const;

 private:
  void OpenBatch();
  SealInfo SealBatch(bool final);

  Options options_;
  crypto::Prng keystream_;
  util::Bytes log_;
  uint64_t next_seqno_ = 0;
  uint32_t next_batch_index_ = 0;
  bool finalized_ = false;

  // Open batch state.
  bool batch_open_ = false;
  util::Bytes batch_key_;     // Zeroized at seal.
  crypto::Sha1 inner_;        // Running inner HMAC hash.
  uint64_t batch_first_seqno_ = 0;
  uint32_t open_count_ = 0;
  util::Bytes pending_;       // Serialized records + tags of the open batch.
};

// --- Offline verification ---------------------------------------------------

// One parseable record with its location and verdict.
struct AuditRecordInfo {
  AuditRecord record;
  uint64_t offset = 0;       // Byte offset of the 64-byte record in the log.
  uint32_t batch_index = 0;  // Stored batch index it appeared under.
  bool survives = false;     // Keyed tag verified at its claimed position.
};

struct AuditVerifyResult {
  bool ok = false;         // No anomaly found (tamper-free given `finalized`).
  bool finalized = false;  // Terminal batch present (tail loss detectable).
  uint64_t records_ok = 0;
  uint64_t batches_ok = 0;
  // Seqno of the earliest record that failed verification or is missing.
  std::optional<uint64_t> earliest_bad;
  std::string detail;  // Human-readable description of the first anomaly.
  std::vector<AuditRecordInfo> records;  // All parseable records, file order.
};

// Replays the keystream from `genesis_key` over `log` and verifies every
// batch.  Batches are verified under the key of their *stored* index, so
// batches after a tampered/removed region still authenticate and their
// records survive; the earliest unverifiable or missing seqno is
// reported in `earliest_bad`.
AuditVerifyResult VerifyAuditLog(const util::Bytes& genesis_key,
                                 const util::Bytes& log);

}  // namespace obs

#endif  // SFS_SRC_OBS_AUDITLOG_H_
