// Forensic scenarios for the tamper-evident audit journal
// (src/obs/auditlog.h) and its SFS server integration
// (src/sfs/audit.h): an adversary who seizes the server after the fact
// rewrites, truncates, reorders, or splices the log at a chosen record
// k, and the offline verifier must pinpoint exactly record k while
// every earlier record stays attested.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <string>

#include "src/auth/authserver.h"
#include "src/obs/auditlog.h"
#include "src/obs/span.h"
#include "src/sfs/audit.h"
#include "src/sfs/client.h"
#include "src/sfs/proto.h"
#include "src/sfs/revocation.h"
#include "src/sfs/server.h"
#include "src/xdr/xdr.h"
#include "tests/test_keys.h"

namespace {

using nfs::Credentials;
using nfs::Fattr;
using nfs::FileHandle;
using nfs::Stat;
using obs::AuditKind;
using obs::AuditLog;
using obs::AuditRecord;
using obs::AuditRecordInfo;
using obs::AuditVerifyResult;
using obs::VerifyAuditLog;
using util::Bytes;
using util::BytesOf;

constexpr size_t kKeyBits = 512;

Bytes GenesisKey() { return BytesOf("audit-test-genesis-key"); }

// A journal of `n` synthetic records with recognizable field values.
AuditLog MakeLog(uint64_t n, uint32_t batch_records, bool finalize = true) {
  AuditLog log(GenesisKey(), AuditLog::Options{batch_records});
  for (uint64_t i = 0; i < n; ++i) {
    AuditRecord record;
    record.time_ns = 1000 * i;
    record.connection_id = 7;
    record.wire_seqno = static_cast<uint32_t>(i);
    record.kind = static_cast<uint32_t>(AuditKind::kNfs);
    record.proc = static_cast<uint32_t>(i % 22);
    record.verdict = 0;
    record.fh_digest = 0x1234 + i;
    record.trace_id = 99;
    record.span_id = 1000 + i;
    AuditLog::AppendInfo info = log.Append(record);
    EXPECT_EQ(info.seqno, i);
    EXPECT_GT(info.hashed_bytes, 0u);
    // Seal at the ratchet boundary, as sfs::ServerAuditor does.
    if (log.open_records() >= batch_records) {
      log.Seal();
    }
  }
  if (finalize) {
    log.Finalize();
  }
  return log;
}

// Seqnos still attested after tampering.  A seqno survives if any
// parseable copy of it carries a valid tag (a spliced duplicate adds an
// unattested copy without revoking the genuine one).
std::set<uint64_t> SurvivingSeqnos(const AuditVerifyResult& result) {
  std::set<uint64_t> alive;
  for (const AuditRecordInfo& info : result.records) {
    if (info.survives) {
      alive.insert(info.record.seqno);
    }
  }
  return alive;
}

void ExpectEarliestBad(const AuditVerifyResult& result, uint64_t k) {
  EXPECT_FALSE(result.ok);
  ASSERT_TRUE(result.earliest_bad.has_value()) << result.detail;
  EXPECT_EQ(*result.earliest_bad, k) << result.detail;
  std::set<uint64_t> alive = SurvivingSeqnos(result);
  for (uint64_t s = 0; s < k; ++s) {
    EXPECT_TRUE(alive.count(s)) << "record " << s << " lost attestation";
  }
}

// --- Writer/verifier basics ---------------------------------------------------

TEST(AuditRecordTest, SerializeRoundTrips) {
  AuditRecord record;
  record.seqno = 0x0102030405060708ULL;
  record.time_ns = 42;
  record.connection_id = 3;
  record.wire_seqno = 9;
  record.kind = static_cast<uint32_t>(AuditKind::kCtl);
  record.proc = 5;
  record.verdict = 13;
  record.fh_digest = 0xdeadbeefcafef00dULL;
  record.trace_id = 777;
  record.span_id = 778;
  Bytes wire = record.Serialize();
  ASSERT_EQ(wire.size(), AuditRecord::kWireSize);
  AuditRecord back = AuditRecord::Deserialize(wire.data());
  EXPECT_EQ(back.seqno, record.seqno);
  EXPECT_EQ(back.time_ns, record.time_ns);
  EXPECT_EQ(back.connection_id, record.connection_id);
  EXPECT_EQ(back.wire_seqno, record.wire_seqno);
  EXPECT_EQ(back.kind, record.kind);
  EXPECT_EQ(back.proc, record.proc);
  EXPECT_EQ(back.verdict, record.verdict);
  EXPECT_EQ(back.fh_digest, record.fh_digest);
  EXPECT_EQ(back.trace_id, record.trace_id);
  EXPECT_EQ(back.span_id, record.span_id);
}

TEST(AuditLogTest, PristineLogVerifiesAcrossBatchSizes) {
  for (uint32_t batch : {1u, 4u, 64u}) {
    AuditLog log = MakeLog(50, batch);
    AuditVerifyResult result = VerifyAuditLog(GenesisKey(), log.bytes());
    EXPECT_TRUE(result.ok) << "batch=" << batch << ": " << result.detail;
    EXPECT_TRUE(result.finalized);
    EXPECT_EQ(result.records_ok, 50u);
    EXPECT_EQ(SurvivingSeqnos(result).size(), 50u);
  }
}

TEST(AuditLogTest, EmptyFinalizedLogVerifies) {
  AuditLog log(GenesisKey());
  log.Finalize();
  AuditVerifyResult result = VerifyAuditLog(GenesisKey(), log.bytes());
  EXPECT_TRUE(result.ok) << result.detail;
  EXPECT_TRUE(result.finalized);
  EXPECT_EQ(result.records_ok, 0u);
}

TEST(AuditLogTest, FinalizeIsIdempotent) {
  AuditLog log = MakeLog(10, 4);
  size_t size = log.bytes().size();
  log.Finalize();
  EXPECT_EQ(log.bytes().size(), size);
  EXPECT_TRUE(log.finalized());
}

TEST(AuditLogTest, WrongGenesisKeyRejectsEverything) {
  AuditLog log = MakeLog(20, 4);
  AuditVerifyResult result = VerifyAuditLog(BytesOf("not-the-key"), log.bytes());
  EXPECT_FALSE(result.ok);
  ASSERT_TRUE(result.earliest_bad.has_value());
  EXPECT_EQ(*result.earliest_bad, 0u);
  EXPECT_TRUE(SurvivingSeqnos(result).empty());
}

TEST(AuditLogTest, UnfinalizedLogReportsPossibleTailLoss) {
  AuditLog log = MakeLog(20, 4, /*finalize=*/false);
  log.Seal();  // Batches are intact but no terminal marker exists.
  AuditVerifyResult result = VerifyAuditLog(GenesisKey(), log.bytes());
  EXPECT_FALSE(result.ok);
  EXPECT_FALSE(result.finalized);
  ASSERT_TRUE(result.earliest_bad.has_value());
  // Every written record attests; the anomaly is the missing tail marker.
  EXPECT_EQ(*result.earliest_bad, 20u);
  EXPECT_EQ(SurvivingSeqnos(result).size(), 20u);
}

// --- The four adversaries at record k ----------------------------------------

// Byte offset of record `k`'s 64-byte body, from the pristine verify.
uint64_t OffsetOf(const AuditVerifyResult& pristine, uint64_t k) {
  for (const AuditRecordInfo& info : pristine.records) {
    if (info.record.seqno == k) {
      return info.offset;
    }
  }
  ADD_FAILURE() << "record " << k << " not found";
  return 0;
}

TEST(AuditForensicsTest, RewriteAtRecordKIsPinpointed) {
  for (uint32_t batch : {1u, 4u, 64u}) {
    AuditLog log = MakeLog(100, batch);
    AuditVerifyResult pristine = VerifyAuditLog(GenesisKey(), log.bytes());
    ASSERT_TRUE(pristine.ok);
    const uint64_t k = 57;
    Bytes tampered = log.bytes();
    tampered[OffsetOf(pristine, k) + 11] ^= 0x40;  // Flip one bit of the body.
    AuditVerifyResult result = VerifyAuditLog(GenesisKey(), tampered);
    ExpectEarliestBad(result, k);
    // Records in later batches still attest under their own keys.
    std::set<uint64_t> alive = SurvivingSeqnos(result);
    uint64_t next_batch_start = (k / batch + 1) * batch;
    for (uint64_t s = next_batch_start; s < 100; ++s) {
      EXPECT_TRUE(alive.count(s)) << "batch=" << batch << " record " << s;
    }
  }
}

TEST(AuditForensicsTest, TruncationAtRecordKIsPinpointed) {
  for (uint32_t batch : {1u, 4u, 64u}) {
    AuditLog log = MakeLog(100, batch);
    AuditVerifyResult pristine = VerifyAuditLog(GenesisKey(), log.bytes());
    ASSERT_TRUE(pristine.ok);
    const uint64_t k = 41;
    Bytes tampered = log.bytes();
    tampered.resize(OffsetOf(pristine, k));  // k and everything after: gone.
    AuditVerifyResult result = VerifyAuditLog(GenesisKey(), tampered);
    ExpectEarliestBad(result, k);
    EXPECT_FALSE(result.finalized);
  }
}

TEST(AuditForensicsTest, ReorderWithinBatchIsPinpointed) {
  AuditLog log = MakeLog(100, 16);
  AuditVerifyResult pristine = VerifyAuditLog(GenesisKey(), log.bytes());
  ASSERT_TRUE(pristine.ok);
  const uint64_t k = 33;  // 33 and 34 share the batch [32, 48).
  Bytes tampered = log.bytes();
  uint64_t a = OffsetOf(pristine, k);
  uint64_t b = OffsetOf(pristine, k + 1);
  std::swap_ranges(tampered.begin() + static_cast<long>(a),
                   tampered.begin() + static_cast<long>(a + obs::kAuditEntrySize),
                   tampered.begin() + static_cast<long>(b));
  ExpectEarliestBad(VerifyAuditLog(GenesisKey(), tampered), k);
}

TEST(AuditForensicsTest, WholeBatchReorderIsPinpointed) {
  AuditLog log = MakeLog(64, 8);
  AuditVerifyResult pristine = VerifyAuditLog(GenesisKey(), log.bytes());
  ASSERT_TRUE(pristine.ok);
  // Swap complete batches 2 and 3 (records [16,24) and [24,32)); each
  // still carries a valid MAC, but under the wrong position.
  const size_t batch_bytes =
      obs::kAuditHeaderSize + 8 * obs::kAuditEntrySize + obs::kAuditMacSize;
  Bytes tampered = log.bytes();
  const size_t b2 = 2 * batch_bytes;
  std::swap_ranges(tampered.begin() + static_cast<long>(b2),
                   tampered.begin() + static_cast<long>(b2 + batch_bytes),
                   tampered.begin() + static_cast<long>(b2 + batch_bytes));
  AuditVerifyResult result = VerifyAuditLog(GenesisKey(), tampered);
  ExpectEarliestBad(result, 16);
}

TEST(AuditForensicsTest, SpliceOfAuthenticRecordIsPinpointed) {
  AuditLog log = MakeLog(100, 16);
  AuditVerifyResult pristine = VerifyAuditLog(GenesisKey(), log.bytes());
  ASSERT_TRUE(pristine.ok);
  const uint64_t k = 50, j = 10;  // Replay record 10 over record 50.
  Bytes tampered = log.bytes();
  uint64_t dst = OffsetOf(pristine, k);
  uint64_t src = OffsetOf(pristine, j);
  std::copy(log.bytes().begin() + static_cast<long>(src),
            log.bytes().begin() + static_cast<long>(src + obs::kAuditEntrySize),
            tampered.begin() + static_cast<long>(dst));
  AuditVerifyResult result = VerifyAuditLog(GenesisKey(), tampered);
  ExpectEarliestBad(result, k);
  // The genuine record j is still attested even though its bytes now
  // also appear (unattested) at k's position.
  EXPECT_TRUE(SurvivingSeqnos(result).count(j));
}

TEST(AuditForensicsTest, WholeBatchDeletionIsPinpointedAndLaterBatchesSurvive) {
  AuditLog log = MakeLog(64, 8);
  const size_t batch_bytes =
      obs::kAuditHeaderSize + 8 * obs::kAuditEntrySize + obs::kAuditMacSize;
  Bytes tampered = log.bytes();
  // Excise batch 3 entirely (records [24, 32)).
  tampered.erase(tampered.begin() + static_cast<long>(3 * batch_bytes),
                 tampered.begin() + static_cast<long>(4 * batch_bytes));
  AuditVerifyResult result = VerifyAuditLog(GenesisKey(), tampered);
  ExpectEarliestBad(result, 24);
  // Batches 4+ verify under their stored index keys: their records are
  // evidence even though a gap precedes them.
  std::set<uint64_t> alive = SurvivingSeqnos(result);
  for (uint64_t s = 32; s < 64; ++s) {
    EXPECT_TRUE(alive.count(s)) << "record " << s;
  }
  EXPECT_FALSE(alive.count(24));
}

TEST(AuditForensicsTest, TrailingGarbageAfterFinalBatchIsDetected) {
  AuditLog log = MakeLog(10, 4);
  Bytes tampered = log.bytes();
  Bytes garbage = BytesOf("post-final forged bytes");
  tampered.insert(tampered.end(), garbage.begin(), garbage.end());
  AuditVerifyResult result = VerifyAuditLog(GenesisKey(), tampered);
  EXPECT_FALSE(result.ok);
  ASSERT_TRUE(result.earliest_bad.has_value());
  EXPECT_EQ(*result.earliest_bad, 10u);
  // All genuine records still attest.
  EXPECT_EQ(SurvivingSeqnos(result).size(), 10u);
}

// --- SFS server integration ---------------------------------------------------

class ServerAuditTest : public ::testing::Test {
 protected:
  ServerAuditTest() {
    sfs::SfsServer::Options server_options;
    server_options.location = "sfs.lcs.mit.edu";
    server_options.key_bits = kKeyBits;
    server_options.allow_cleartext = true;
    server_options.registry = &registry_;
    server_options.audit_batch_records = 8;
    server_options.audit_genesis_key = GenesisKey();
    server_ = std::make_unique<sfs::SfsServer>(&clock_, &costs_, server_options,
                                               &authserver_);
    sfs::SfsClient::Options client_options;
    client_options.ephemeral_key_bits = kKeyBits;
    client_options.registry = &registry_;
    client_ = MakeClient(client_options);

    user_key_ = test_keys::CachedTestKey(77, kKeyBits);
    auth::PublicUserRecord record;
    record.name = "auditor";
    record.public_key = user_key_.public_key().Serialize();
    record.credentials = Credentials::User(1000, {1000});
    EXPECT_TRUE(authserver_.RegisterUser(record).ok());
  }

  sfs::SfsClient::AuthSigner UserSigner() {
    return [this](const Bytes& auth_info, uint32_t seqno) -> std::optional<Bytes> {
      Bytes auth_id = sfs::MakeAuthId(auth_info);
      Bytes body = auth::MakeSignedAuthReqBody(auth_id, seqno);
      xdr::Encoder enc;
      enc.PutOpaque(user_key_.public_key().Serialize());
      enc.PutOpaque(user_key_.Sign(body));
      return enc.Take();
    };
  }

  std::unique_ptr<sfs::SfsClient> MakeClient(sfs::SfsClient::Options options) {
    return std::make_unique<sfs::SfsClient>(
        &clock_, &costs_,
        [this](const std::string& location) -> sfs::SfsServer* {
          return location == "sfs.lcs.mit.edu" ? server_.get() : nullptr;
        },
        options);
  }

  // Finalizes the journal and verifies it offline with the escrowed key.
  AuditVerifyResult VerifyJournal() {
    server_->auditor()->Finalize();
    return VerifyAuditLog(server_->auditor()->genesis_key(),
                          server_->auditor()->log().bytes());
  }

  static int CountKind(const AuditVerifyResult& result, AuditKind kind) {
    int n = 0;
    for (const AuditRecordInfo& info : result.records) {
      if (info.record.kind == static_cast<uint32_t>(kind)) {
        ++n;
      }
    }
    return n;
  }

  obs::Registry registry_;
  sim::Clock clock_;
  sim::CostModel costs_;
  auth::AuthServer authserver_;
  std::unique_ptr<sfs::SfsServer> server_;
  std::unique_ptr<sfs::SfsClient> client_;
  crypto::RabinPrivateKey user_key_;
};

TEST_F(ServerAuditTest, DispatchedRpcsAreJournaledAndVerify) {
  auto mount = client_->Mount(server_->Path());
  ASSERT_TRUE(mount.ok());
  ASSERT_TRUE((*mount)->Authenticate(1000, UserSigner()).ok());
  Credentials alice = Credentials::User(1000, {1000});
  FileHandle fh;
  Fattr attr;
  nfs::Sattr sattr;
  sattr.mode = 0644;
  ASSERT_EQ((*mount)->fs()->Create((*mount)->root_fh(), "journaled", alice, sattr,
                                   &fh, &attr),
            Stat::kOk);
  ASSERT_EQ((*mount)->fs()->GetAttr(fh, &attr), Stat::kOk);

  AuditVerifyResult result = VerifyJournal();
  EXPECT_TRUE(result.ok) << result.detail;
  EXPECT_TRUE(result.finalized);
  EXPECT_GT(CountKind(result, AuditKind::kNfs), 0);
  EXPECT_EQ(registry_.CounterValue("audit.records"), result.records_ok);
  EXPECT_GT(registry_.CounterValue("audit.bytes"), 0u);
  // Every journaled RPC carries the virtual timestamp of its dispatch and
  // the channel seqno it answered, each seqno once, in dispatch order.
  uint64_t last = 0;
  uint32_t next_seqno = 1;
  for (const AuditRecordInfo& info : result.records) {
    EXPECT_GE(info.record.time_ns, last);
    last = info.record.time_ns;
    if (info.record.kind == static_cast<uint32_t>(AuditKind::kNfs) ||
        info.record.kind == static_cast<uint32_t>(AuditKind::kCtl)) {
      EXPECT_EQ(info.record.wire_seqno, next_seqno++);
    }
  }
  EXPECT_GE(next_seqno, 4u);  // GETROOT, LOGIN, CREATE at least.
}

TEST_F(ServerAuditTest, WriteAndCommitRecordsCarryStableFlag) {
  auto mount = client_->Mount(server_->Path());
  ASSERT_TRUE(mount.ok());
  ASSERT_TRUE((*mount)->Authenticate(1000, UserSigner()).ok());
  Credentials alice = Credentials::User(1000, {1000});
  FileHandle fh;
  Fattr attr;
  nfs::Sattr sattr;
  sattr.mode = 0644;
  ASSERT_EQ((*mount)->fs()->Create((*mount)->root_fh(), "flagged", alice, sattr, &fh,
                                   &attr),
            Stat::kOk);
  Bytes data = BytesOf("stable-or-not");
  ASSERT_EQ((*mount)->fs()->Write(fh, alice, 0, data, /*stable=*/false, &attr), Stat::kOk);
  ASSERT_EQ((*mount)->fs()->Write(fh, alice, 64, data, /*stable=*/true, &attr), Stat::kOk);
  ASSERT_EQ((*mount)->fs()->Commit(fh), Stat::kOk);

  AuditVerifyResult result = VerifyJournal();
  ASSERT_TRUE(result.ok) << result.detail;
  int stable_writes = 0;
  int unstable_writes = 0;
  int commits = 0;
  for (const AuditRecordInfo& info : result.records) {
    if (info.record.kind != static_cast<uint32_t>(AuditKind::kNfs)) {
      continue;
    }
    bool flagged = (info.record.verdict & sfs::kAuditVerdictStableBit) != 0;
    if (info.record.proc == nfs::kProcWrite) {
      (flagged ? stable_writes : unstable_writes) += 1;
    } else if (info.record.proc == nfs::kProcCommit) {
      ++commits;
      // Every COMMIT is a durable commitment: always flagged.
      EXPECT_TRUE(flagged);
    } else {
      // The flag is reserved for WRITE/COMMIT; the low bits still carry
      // the status code on every other record.
      EXPECT_FALSE(flagged) << "proc " << info.record.proc;
    }
    EXPECT_EQ(info.record.verdict & ~sfs::kAuditVerdictStableBit, 0u);
  }
  EXPECT_EQ(stable_writes, 1);
  EXPECT_EQ(unstable_writes, 1);
  EXPECT_EQ(commits, 1);
}

TEST_F(ServerAuditTest, RecordsCrossLinkToSpansInPerfettoExport) {
  registry_.spans().Enable([this] { return clock_.now_ns(); }, nullptr, 1 << 16);
  auto mount = client_->Mount(server_->Path());
  ASSERT_TRUE(mount.ok());
  Credentials anon = Credentials::User(1000, {1000});
  Fattr attr;
  ASSERT_EQ((*mount)->fs()->GetAttr((*mount)->root_fh(), &attr), Stat::kOk);

  AuditVerifyResult result = VerifyJournal();
  ASSERT_TRUE(result.ok) << result.detail;

  std::set<std::pair<uint64_t, uint64_t>> span_ids;
  for (const obs::Span& span : registry_.spans().finished()) {
    span_ids.insert({span.trace_id, span.id});
  }
  int linked = 0;
  for (const AuditRecordInfo& info : result.records) {
    if (info.record.span_id == 0) {
      continue;
    }
    EXPECT_TRUE(span_ids.count({info.record.trace_id, info.record.span_id}))
        << "record " << info.record.seqno << " references an unknown span";
    ++linked;
  }
  EXPECT_GT(linked, 0);
  // And those ids are what the Perfetto export publishes.
  std::string trace = obs::ExportChromeTrace(registry_.spans().finished());
  const AuditRecordInfo* sample = nullptr;
  for (const AuditRecordInfo& info : result.records) {
    if (info.record.span_id != 0) {
      sample = &info;
      break;
    }
  }
  ASSERT_NE(sample, nullptr);
  EXPECT_NE(trace.find("\"span_id\": " + std::to_string(sample->record.span_id)),
            std::string::npos);
}

TEST_F(ServerAuditTest, ConnectionTeardownSealsTheOpenBatch) {
  auto mount = client_->Mount(server_->Path());
  ASSERT_TRUE(mount.ok());
  Credentials anon = Credentials::User(1000, {1000});
  Fattr attr;
  ASSERT_EQ((*mount)->fs()->GetAttr((*mount)->root_fh(), &attr), Stat::kOk);
  // batch_records=8; a partial batch is open now.
  client_.reset();  // Tears down the server connection.
  EXPECT_EQ(server_->auditor()->log().open_records(), 0u);
  EXPECT_GT(server_->auditor()->log().batches_sealed(), 0u);
}

TEST_F(ServerAuditTest, RevocationEventsAreJournaled) {
  sfs::PathRevokeCert cert = sfs::PathRevokeCert::MakeRevocation(
      server_->private_key(), server_->Path().location);
  server_->ServeRevocation(cert);
  // A client that connects is answered with the certificate; both the
  // installation and the serving leave journal records.
  auto mount = client_->Mount(server_->Path());
  EXPECT_FALSE(mount.ok());

  AuditVerifyResult result = VerifyJournal();
  EXPECT_TRUE(result.ok) << result.detail;
  EXPECT_EQ(CountKind(result, AuditKind::kRevocationInstalled), 1);
  EXPECT_GE(CountKind(result, AuditKind::kRevocationServed), 1);
  // Installation and serving bind to the same HostID digest.
  uint64_t installed_digest = 0, served_digest = 0;
  for (const AuditRecordInfo& info : result.records) {
    if (info.record.kind == static_cast<uint32_t>(AuditKind::kRevocationInstalled)) {
      installed_digest = info.record.fh_digest;
    }
    if (info.record.kind == static_cast<uint32_t>(AuditKind::kRevocationServed)) {
      served_digest = info.record.fh_digest;
    }
  }
  EXPECT_NE(installed_digest, 0u);
  EXPECT_EQ(installed_digest, served_digest);
}

TEST_F(ServerAuditTest, JournalSurvivesTamperWithExactLocalization) {
  auto mount = client_->Mount(server_->Path());
  ASSERT_TRUE(mount.ok());
  Fattr attr;
  // The caching layer would answer repeats locally; go through the raw
  // NFS client so every call crosses the wire and lands in the journal.
  for (int i = 0; i < 30; ++i) {
    ASSERT_EQ((*mount)->raw_client()->GetAttr((*mount)->root_fh(), &attr), Stat::kOk);
  }
  AuditVerifyResult pristine = VerifyJournal();
  ASSERT_TRUE(pristine.ok) << pristine.detail;
  ASSERT_GT(pristine.records_ok, 20u);

  const uint64_t k = pristine.records_ok / 2;
  Bytes tampered = server_->auditor()->log().bytes();
  tampered[OffsetOf(pristine, k) + 5] ^= 0x01;
  ExpectEarliestBad(
      VerifyAuditLog(server_->auditor()->genesis_key(), tampered), k);
}

}  // namespace
