// Fault injection: the transport must mask loss, duplication, and
// reordering below the application.  A full SFS mount plus a small-file
// workload runs through a seeded LossyInterposer at 1-10% fault rates
// with zero application-visible errors, and non-idempotent operations
// (CREATE, REMOVE) execute exactly once — retransmitted copies are
// answered from the server's duplicate-request cache, never re-executed.
#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/auth/authserver.h"
#include "src/nfs/cache.h"
#include "src/obs/metrics.h"
#include "src/rpc/rpc.h"
#include "src/sfs/client.h"
#include "src/sfs/server.h"
#include "src/sim/clock.h"
#include "src/sim/cost_model.h"
#include "src/sim/network.h"
#include "src/util/bytes.h"
#include "src/xdr/xdr.h"

namespace {

using nfs::Credentials;
using nfs::Fattr;
using nfs::FileHandle;
using nfs::Stat;
using sfs::SfsClient;
using sfs::SfsServer;
using util::Bytes;
using util::BytesOf;

constexpr size_t kKeyBits = 512;

class FaultTest : public ::testing::Test {
 protected:
  FaultTest() {
    SfsServer::Options server_options;
    server_options.location = "faulty.example.org";
    server_options.key_bits = kKeyBits;
    server_options.registry = &registry_;
    server_ = std::make_unique<SfsServer>(&clock_, &costs_, server_options, &authserver_);

    // Anonymous users may mutate the exported tree: the workload then
    // needs no login, keeping the op counts easy to reason about.
    Fattr attr;
    nfs::Sattr chmod;
    chmod.mode = 0777;
    EXPECT_EQ(server_->fs()->SetAttr(server_->fs()->root_handle(), Credentials::User(0),
                                     chmod, &attr),
              Stat::kOk);

    SfsClient::Options client_options;
    client_options.ephemeral_key_bits = kKeyBits;
    client_options.registry = &registry_;
    client_ = std::make_unique<SfsClient>(
        &clock_, &costs_,
        [this](const std::string&) { return server_.get(); }, client_options);
  }

  // Small-file workload (fig5 flavor): create, write, read back, verify,
  // remove half.  Every operation must succeed; returns the mount so
  // callers can inspect counters.
  SfsClient::MountPoint* RunWorkload(int files) {
    auto mount = client_->Mount(server_->Path());
    EXPECT_TRUE(mount.ok()) << mount.status().ToString();
    if (!mount.ok()) {
      return nullptr;
    }
    nfs::FileSystemApi* fs = (*mount)->fs();
    const Credentials cred = Credentials::User(0);
    Fattr attr;
    std::vector<FileHandle> handles;
    for (int i = 0; i < files; ++i) {
      FileHandle fh;
      std::string name = "file-" + std::to_string(i);
      EXPECT_EQ(fs->Create((*mount)->root_fh(), name, cred, nfs::Sattr{}, &fh, &attr), Stat::kOk)
          << name;
      Bytes content = BytesOf("contents of " + name);
      EXPECT_EQ(fs->Write(fh, cred, 0, content, /*stable=*/true, &attr), Stat::kOk) << name;
      handles.push_back(fh);
    }
    for (int i = 0; i < files; ++i) {
      Bytes data;
      bool eof = false;
      EXPECT_EQ(fs->Read(handles[static_cast<size_t>(i)], cred, 0, 4096, &data, &eof), Stat::kOk);
      EXPECT_EQ(data, BytesOf("contents of file-" + std::to_string(i)));
    }
    for (int i = 0; i < files; i += 2) {
      EXPECT_EQ(fs->Remove((*mount)->root_fh(), "file-" + std::to_string(i), cred), Stat::kOk);
    }
    return *mount;
  }

  uint64_t Count(const std::string& counter) const { return registry_.CounterValue(counter); }

  obs::Registry registry_;
  sim::Clock clock_;
  sim::CostModel costs_;
  auth::AuthServer authserver_;
  std::unique_ptr<SfsServer> server_;
  std::unique_ptr<SfsClient> client_;
};

TEST_F(FaultTest, CleanRunHasZeroRetransmissions) {
  // No interposer: the retry machinery must be invisible on the clean
  // path — no retransmissions, no duplicate-cache hits, no stale retries.
  SfsClient::MountPoint* mount = RunWorkload(8);
  ASSERT_NE(mount, nullptr);
  EXPECT_EQ(Count("link.retransmissions"), 0u);
  EXPECT_EQ(Count("rpc.client.stale_retries"), 0u);
  EXPECT_EQ(Count("server.drc_hits"), 0u);
  EXPECT_EQ(server_->fs()->creates_applied(), 8u);
  EXPECT_EQ(server_->fs()->removes_applied(), 4u);
}

TEST_F(FaultTest, AcceptanceProfileDropAndDuplicate) {
  // The ISSUE acceptance configuration: seeded 5% drop + 2% duplicate.
  sim::LossyInterposer lossy(/*seed=*/42, {.drop = 0.05, .duplicate = 0.02});
  client_->set_interposer(&lossy);
  SfsClient::MountPoint* mount = RunWorkload(16);
  ASSERT_NE(mount, nullptr);
  // The seed is fixed, so the run deterministically saw faults...
  EXPECT_GT(lossy.requests_dropped() + lossy.responses_dropped() + lossy.duplicates(), 0u);
  EXPECT_GT(Count("link.retransmissions"), 0u);
  EXPECT_GT(Count("server.drc_hits"), 0u);
  // ...yet every non-idempotent op executed exactly once (a re-executed
  // CREATE would also have surfaced as kExist above).
  EXPECT_EQ(server_->fs()->creates_applied(), 16u);
  EXPECT_EQ(server_->fs()->removes_applied(), 8u);
}

TEST_F(FaultTest, SweepOfLossRatesCompletesWithoutErrors) {
  // 1%..10% drop with duplication and reordering mixed in; each rate gets
  // a fresh client+server pair so the counters are per-configuration.
  for (int percent = 1; percent <= 10; percent += 3) {
    SfsServer::Options so;
    so.location = "sweep.example.org";
    so.key_bits = kKeyBits;
    SfsServer server(&clock_, &costs_, so, &authserver_);
    Fattr attr;
    nfs::Sattr chmod;
    chmod.mode = 0777;
    ASSERT_EQ(server.fs()->SetAttr(server.fs()->root_handle(), Credentials::User(0), chmod,
                                   &attr),
              Stat::kOk);
    SfsClient::Options co;
    co.ephemeral_key_bits = kKeyBits;
    SfsClient client(&clock_, &costs_, [&](const std::string&) { return &server; }, co);
    sim::LossyInterposer lossy(/*seed=*/1000 + static_cast<uint64_t>(percent),
                               {.drop = percent / 100.0,
                                .duplicate = percent / 200.0,
                                .reorder = percent / 400.0});
    client.set_interposer(&lossy);

    auto mount = client.Mount(server.Path());
    ASSERT_TRUE(mount.ok()) << "rate " << percent << "%: " << mount.status().ToString();
    nfs::FileSystemApi* fs = (*mount)->fs();
    const Credentials cred = Credentials::User(0);
    for (int i = 0; i < 10; ++i) {
      FileHandle fh;
      std::string name = "f" + std::to_string(i);
      ASSERT_EQ(fs->Create((*mount)->root_fh(), name, cred, nfs::Sattr{}, &fh, &attr),
                Stat::kOk)
          << "rate " << percent << "%, " << name;
      ASSERT_EQ(fs->Write(fh, cred, 0, BytesOf(name), /*stable=*/true, &attr), Stat::kOk);
      ASSERT_EQ(fs->Remove((*mount)->root_fh(), name, cred), Stat::kOk);
    }
    EXPECT_EQ(server.fs()->creates_applied(), 10u) << "rate " << percent << "%";
    EXPECT_EQ(server.fs()->removes_applied(), 10u) << "rate " << percent << "%";
  }
}

// Duplicates every single request: the strongest exactly-once stress —
// the server sees each message twice and must deduplicate all of them.
TEST_F(FaultTest, EveryRequestDuplicatedExecutesExactlyOnce) {
  sim::LossyInterposer lossy(/*seed=*/7, {.duplicate = 1.0});
  client_->set_interposer(&lossy);
  SfsClient::MountPoint* mount = RunWorkload(6);
  ASSERT_NE(mount, nullptr);
  EXPECT_GT(lossy.duplicates(), 0u);
  EXPECT_EQ(Count("server.drc_hits"), lossy.duplicates());
  EXPECT_EQ(server_->fs()->creates_applied(), 6u);
  EXPECT_EQ(server_->fs()->removes_applied(), 3u);
}

// --- Write-behind commit pipeline under faults -----------------------------

// Drops the next N server->client responses when armed; used to lose
// COMMIT replies specifically (armed while nothing else is in flight).
class DropNextResponsesInterposer : public sim::Interposer {
 public:
  util::Result<Bytes> OnResponse(Bytes response) override {
    if (drop_remaining_ > 0) {
      --drop_remaining_;
      ++dropped_;
      return util::Unavailable("interposer: response dropped");
    }
    return response;
  }
  void Arm(int n) { drop_remaining_ = n; }
  uint64_t dropped() const { return dropped_; }

 private:
  int drop_remaining_ = 0;
  uint64_t dropped_ = 0;
};

TEST_F(FaultTest, ServerRestartMidStreamForcesVerifierReplay) {
  obs::Registry registry;
  SfsClient::Options co;
  co.ephemeral_key_bits = kKeyBits;
  co.write_behind = true;
  co.registry = &registry;
  SfsClient client(&clock_, &costs_, [this](const std::string&) { return server_.get(); },
                   co);
  auto mount = client.Mount(server_->Path());
  ASSERT_TRUE(mount.ok()) << mount.status().ToString();
  nfs::FileSystemApi* fs = (*mount)->fs();
  const Credentials cred = Credentials::User(0);
  Fattr attr;
  FileHandle fh;
  ASSERT_EQ(fs->Create((*mount)->root_fh(), "wb", cred, nfs::Sattr{}, &fh, &attr), Stat::kOk);

  const Bytes first(8192, 0xa1);
  const Bytes second(8192, 0xb2);
  uint64_t writes_before = server_->fs()->writes_applied();

  // Buffer the first extent, then force a read-barrier flush (attribute
  // miss after an invalidation): the extent reaches the server as
  // WRITE(UNSTABLE) with no COMMIT behind it — mid-stream.
  ASSERT_EQ(fs->Write(fh, cred, 0, first, /*stable=*/false, &attr), Stat::kOk);
  (*mount)->cache()->InvalidateAll();
  ASSERT_EQ(fs->GetAttr(fh, &attr), Stat::kOk);
  EXPECT_EQ(server_->fs()->unstable_bytes(), first.size());
  // The extent is on the wire but not yet durable: the not-yet-committed
  // gauge still covers it until COMMIT succeeds.
  EXPECT_EQ((*mount)->cache()->dirty_bytes(), first.size());

  // The server reboots: unstable data is gone (zeroed) and the write
  // verifier changes.
  server_->fs()->SimulateRestart();
  EXPECT_EQ(server_->fs()->restarts(), 1u);
  EXPECT_EQ(server_->fs()->unstable_bytes(), 0u);

  // Buffer a second extent and commit.  The COMMIT returns the new
  // boot's verifier, which does not match the first extent's WRITE-time
  // verifier — the client must replay it and commit again.
  ASSERT_EQ(fs->Write(fh, cred, 8192, second, /*stable=*/false, &attr), Stat::kOk);
  ASSERT_EQ(fs->Commit(fh), Stat::kOk);
  EXPECT_GE((*mount)->cache()->commit_replays(), 1u);

  // No data loss: both extents are committed server-side, and the writes
  // were first + (second, first-replayed) = 3 total — no spurious replay.
  EXPECT_EQ(server_->fs()->unstable_bytes(), 0u);
  EXPECT_EQ((*mount)->cache()->dirty_bytes(), 0u);
  EXPECT_EQ(server_->fs()->writes_applied() - writes_before, 3u);
  (*mount)->cache()->InvalidateAll();
  Bytes out;
  bool eof = false;
  ASSERT_EQ(fs->Read(fh, cred, 0, 8192, &out, &eof), Stat::kOk);
  EXPECT_EQ(out, first);
  ASSERT_EQ(fs->Read(fh, cred, 8192, 8192, &out, &eof), Stat::kOk);
  EXPECT_EQ(out, second);
}

TEST_F(FaultTest, DroppedCommitRepliesRetransmitExactlyOnce) {
  obs::Registry registry;
  SfsClient::Options co;
  co.ephemeral_key_bits = kKeyBits;
  co.write_behind = true;
  co.registry = &registry;
  DropNextResponsesInterposer dropper;
  SfsClient client(&clock_, &costs_, [this](const std::string&) { return server_.get(); },
                   co);
  client.set_interposer(&dropper);
  auto mount = client.Mount(server_->Path());
  ASSERT_TRUE(mount.ok()) << mount.status().ToString();
  nfs::FileSystemApi* fs = (*mount)->fs();
  const Credentials cred = Credentials::User(0);
  Fattr attr;
  FileHandle fh;
  ASSERT_EQ(fs->Create((*mount)->root_fh(), "cd", cred, nfs::Sattr{}, &fh, &attr), Stat::kOk);

  const Bytes data(8192, 0xc3);
  ASSERT_EQ(fs->Write(fh, cred, 0, data, /*stable=*/false, &attr), Stat::kOk);
  // Flush the extent first (read-barrier), so the Commit below sends a
  // lone COMMIT RPC and the armed drops hit exactly its replies.
  (*mount)->cache()->InvalidateAll();
  ASSERT_EQ(fs->GetAttr(fh, &attr), Stat::kOk);
  EXPECT_EQ(server_->fs()->unstable_bytes(), data.size());

  uint64_t commits_before = server_->fs()->commits_applied();
  uint64_t retrans_before = registry.CounterValue("link.retransmissions");
  dropper.Arm(2);  // Lose the next two COMMIT replies.
  ASSERT_EQ(fs->Commit(fh), Stat::kOk);

  // Both drops happened; the retransmission timer masked them; the
  // retransmitted copies were answered from the server's reply cache —
  // the COMMIT executed exactly once, not three times.
  EXPECT_EQ(dropper.dropped(), 2u);
  EXPECT_GE(registry.CounterValue("link.retransmissions") - retrans_before, 2u);
  EXPECT_GT(Count("server.drc_hits"), 0u);
  EXPECT_EQ(server_->fs()->commits_applied() - commits_before, 1u);
  EXPECT_EQ(server_->fs()->unstable_bytes(), 0u);
  EXPECT_EQ((*mount)->cache()->commit_replays(), 0u);

  Bytes out;
  bool eof = false;
  (*mount)->cache()->InvalidateAll();
  ASSERT_EQ(fs->Read(fh, cred, 0, 8192, &out, &eof), Stat::kOk);
  EXPECT_EQ(out, data);
}

TEST_F(FaultTest, WriteBehindWorkloadSurvivesSeededLoss) {
  // A lossy run of buffered writes + commits: every extent the pipeline
  // sent must execute exactly once at the server (DRC dedupes the
  // retransmitted copies), and nothing is left unstable.
  obs::Registry registry;
  SfsClient::Options co;
  co.ephemeral_key_bits = kKeyBits;
  co.write_behind = true;
  co.registry = &registry;
  sim::LossyInterposer lossy(/*seed=*/2026, {.drop = 0.10, .duplicate = 0.05});
  SfsClient client(&clock_, &costs_, [this](const std::string&) { return server_.get(); },
                   co);
  client.set_interposer(&lossy);
  auto mount = client.Mount(server_->Path());
  ASSERT_TRUE(mount.ok()) << mount.status().ToString();
  nfs::FileSystemApi* fs = (*mount)->fs();
  const Credentials cred = Credentials::User(0);
  Fattr attr;
  uint64_t writes_before = server_->fs()->writes_applied();

  std::vector<FileHandle> handles;
  for (int i = 0; i < 24; ++i) {
    FileHandle fh;
    std::string name = "wbl-" + std::to_string(i);
    ASSERT_EQ(fs->Create((*mount)->root_fh(), name, cred, nfs::Sattr{}, &fh, &attr), Stat::kOk);
    ASSERT_EQ(fs->Write(fh, cred, 0, BytesOf("payload " + name), /*stable=*/false, &attr),
              Stat::kOk);
    ASSERT_EQ(fs->Commit(fh), Stat::kOk);
    handles.push_back(fh);
  }

  // The seed deterministically injected faults and the stack masked them.
  EXPECT_GT(lossy.requests_dropped() + lossy.responses_dropped() + lossy.duplicates(), 0u);
  EXPECT_GT(registry.CounterValue("link.retransmissions") + Count("server.drc_hits"), 0u);
  // Exactly-once: server-side WRITE executions match the extents the
  // pipeline sent (a re-executed retransmit would double-count).
  EXPECT_EQ(server_->fs()->writes_applied() - writes_before,
            registry.CounterValue("commit.batched_writes"));
  EXPECT_EQ(server_->fs()->unstable_bytes(), 0u);
  for (int i = 0; i < 24; ++i) {
    Bytes out;
    bool eof = false;
    ASSERT_EQ(fs->Read(handles[static_cast<size_t>(i)], cred, 0, 4096, &out, &eof), Stat::kOk);
    EXPECT_EQ(out, BytesOf("payload wbl-" + std::to_string(i)));
  }
}

// --- Plain RPC layer (no cipher): Dispatcher DRC + Client retransmit -------

TEST(RpcFaultTest, LossyLinkMasksFaultsWithExactlyOnceDispatch) {
  sim::Clock clock;
  obs::Registry registry;
  rpc::Dispatcher dispatcher(&registry);
  uint64_t executions = 0;
  dispatcher.RegisterProgram(9, [&executions](uint32_t, const Bytes& args) {
    ++executions;
    return util::Result<Bytes>(args);
  });
  sim::Link link(&clock, sim::LinkProfile::Udp(), &dispatcher, &registry);
  sim::LossyInterposer lossy(/*seed=*/99, {.drop = 0.05, .duplicate = 0.05});
  link.set_interposer(&lossy);
  rpc::LinkTransport transport(&link);
  rpc::Client client(&transport, 9, &registry);

  constexpr uint64_t kCalls = 200;
  for (uint64_t i = 0; i < kCalls; ++i) {
    auto reply = client.Call(1, BytesOf("payload " + std::to_string(i)));
    ASSERT_TRUE(reply.ok()) << "call " << i << ": " << reply.status().ToString();
    EXPECT_EQ(reply.value(), BytesOf("payload " + std::to_string(i)));
  }
  // Faults occurred, retransmission masked them, and the handler still
  // ran exactly once per call.
  EXPECT_GT(registry.CounterValue("link.retransmissions"), 0u);
  EXPECT_GT(registry.CounterValue("server.drc_hits"), 0u);
  EXPECT_EQ(executions, kCalls);
}

// Sliding-window client under loss and duplication: every outstanding
// xid completes exactly once, in whatever order replies arrive, and the
// handler still executes exactly once per distinct payload.
TEST(RpcFaultTest, PipelinedWindowSweepMasksFaultsExactlyOnce) {
  for (uint32_t window : {2u, 4u, 8u}) {
    SCOPED_TRACE("window=" + std::to_string(window));
    sim::Clock clock;
    obs::Registry registry;
    rpc::Dispatcher dispatcher(&registry);
    std::map<std::string, uint64_t> executions;
    dispatcher.RegisterProgram(9, [&executions](uint32_t, const Bytes& args) {
      ++executions[util::StringOf(args)];
      return util::Result<Bytes>(args);
    });
    sim::Link link(&clock, sim::LinkProfile::Udp(), &dispatcher, &registry);
    sim::LossyInterposer lossy(/*seed=*/500 + window, {.drop = 0.05, .duplicate = 0.05});
    link.set_interposer(&lossy);
    rpc::LinkTransport transport(&link);
    rpc::Client client(&transport, 9, &registry);
    client.set_window(window);
    ASSERT_EQ(client.window(), window);

    constexpr uint64_t kCalls = 200;
    std::map<std::string, uint64_t> completions;
    for (uint64_t i = 0; i < kCalls; ++i) {
      std::string payload = "payload " + std::to_string(i);
      client.CallAsync(1, BytesOf(payload),
                       [payload, &completions](util::Result<Bytes> reply) {
                         EXPECT_TRUE(reply.ok())
                             << payload << ": " << reply.status().ToString();
                         if (reply.ok()) {
                           EXPECT_EQ(reply.value(), BytesOf(payload)) << payload;
                         }
                         ++completions[payload];
                       });
      EXPECT_LE(client.in_flight(), window);
    }
    client.Drain();
    EXPECT_EQ(client.in_flight(), 0u);

    // Exactly one completion per call and one execution per payload —
    // duplicates were answered from the DRC, not re-executed.
    EXPECT_EQ(completions.size(), kCalls);
    for (const auto& [payload, n] : completions) {
      EXPECT_EQ(n, 1u) << payload;
    }
    EXPECT_EQ(executions.size(), kCalls);
    for (const auto& [payload, n] : executions) {
      EXPECT_EQ(n, 1u) << payload;
    }
    // The seed deterministically injected faults and the window machinery
    // masked them.
    EXPECT_GT(lossy.requests_dropped() + lossy.responses_dropped() + lossy.duplicates(), 0u);
    EXPECT_GT(registry.CounterValue("link.retransmissions") +
                  registry.CounterValue("server.drc_hits"),
              0u);
  }
}

TEST(RpcFaultTest, CleanLinkNeverRetransmits) {
  sim::Clock clock;
  obs::Registry registry;
  rpc::Dispatcher dispatcher(&registry);
  dispatcher.RegisterProgram(9, [](uint32_t, const Bytes& args) {
    return util::Result<Bytes>(args);
  });
  sim::Link link(&clock, sim::LinkProfile::Udp(), &dispatcher, &registry);
  rpc::LinkTransport transport(&link);
  rpc::Client client(&transport, 9, &registry);
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(client.Call(1, BytesOf("x")).ok());
  }
  EXPECT_EQ(registry.CounterValue("link.retransmissions"), 0u);
  EXPECT_EQ(registry.CounterValue("rpc.client.stale_retries"), 0u);
  EXPECT_EQ(registry.CounterValue("server.drc_hits"), 0u);
}

// Replaces every reply with one crafted from the xid of the call it
// answers.
class CraftedReplyInterposer : public sim::Interposer {
 public:
  explicit CraftedReplyInterposer(std::function<Bytes(uint32_t xid)> craft)
      : craft_(std::move(craft)) {}
  util::Result<Bytes> OnResponse(Bytes response) override {
    return craft_(xdr::PeekUint32(response, 0).value());
  }

 private:
  std::function<Bytes(uint32_t xid)> craft_;
};

// The plain reply parser, pinned: each check answers with its own status
// at window 1 (stop-and-wait, which reports the last discard's reason
// when it gives up) and at window 4 (the pipelined engine, which counts
// the discard and waits for its timer), and a discarded reply counts as
// unmatched once per transmission.  A call sends twice before giving up.
TEST(RpcReplyTest, EveryParserCheckAnswersWithItsStatus) {
  using util::ErrorCode;
  constexpr uint32_t kAccepted = 0;
  constexpr uint32_t kError = 1;
  constexpr uint32_t kTransmissions = 2;
  auto words = [](std::initializer_list<uint32_t> values) {
    xdr::Encoder enc;
    for (uint32_t v : values) {
      enc.PutUint32(v);
    }
    return enc.Take();
  };
  auto with = [](Bytes head, const std::string& tail) {
    util::Append(&head, tail);
    return head;
  };
  struct ReplyCase {
    const char* name;
    std::function<Bytes(uint32_t xid)> craft;
    ErrorCode stop_and_wait;  // The call's status at window 1.
    ErrorCode pipelined;      // The call's status at window 4.
    const char* message;      // Part of the window-1 status message.
    uint64_t unmatched;       // rpc.client.unmatched_replies after the call.
  };
  const ErrorCode kOk = ErrorCode::kOk;
  const ErrorCode kBad = ErrorCode::kInvalidArgument;
  const ErrorCode kLost = ErrorCode::kUnavailable;
  const std::string ok("ok\0\0", 4);  // "ok" and its pad.
  const std::vector<ReplyCase> cases = {
      {"intact",
       [&](uint32_t xid) { return with(words({xid, kAccepted, 2}), ok); },
       kOk, kOk, "", 0},
      {"three bytes",
       [&](uint32_t xid) {
         Bytes cut = words({xid});
         cut.resize(3);
         return cut;
       },
       kBad, kLost, "RPC: truncated reply", kTransmissions},
      {"xid only",
       [&](uint32_t xid) { return words({xid}); },
       kBad, kLost, "RPC: truncated reply", kTransmissions},
      {"status cut",
       [&](uint32_t xid) { return with(words({xid}), "\0\0"); },
       kBad, kLost, "RPC: truncated reply", kTransmissions},
      {"length above kMaxOpaque",
       [&](uint32_t xid) { return words({xid, kAccepted, xdr::kMaxOpaque + 1}); },
       kBad, kLost, "RPC: malformed accepted reply", kTransmissions},
      {"truncated body",
       [&](uint32_t xid) { return with(words({xid, kAccepted, 8}), "abcd"); },
       kBad, kLost, "RPC: malformed accepted reply", kTransmissions},
      {"nonzero pad",
       [&](uint32_t xid) { return with(words({xid, kAccepted, 3}), "abc\x01"); },
       kBad, kLost, "RPC: malformed accepted reply", kTransmissions},
      {"trailing bytes",
       [&](uint32_t xid) { return with(words({xid, kAccepted, 4}), "abcdefgh"); },
       kBad, kLost, "RPC: malformed accepted reply", kTransmissions},
      {"no results",
       [&](uint32_t xid) { return words({xid, kAccepted}); },
       kBad, kLost, "RPC: malformed accepted reply", kTransmissions},
      {"error, code in range",
       [&](uint32_t xid) {
         return with(words({xid, kError, static_cast<uint32_t>(ErrorCode::kNotFound), 4}), "boom");
       },
       ErrorCode::kNotFound, ErrorCode::kNotFound, "boom", 0},
      {"error, code 0",
       [&](uint32_t xid) { return with(words({xid, kError, 0, 4}), "boom"); },
       ErrorCode::kInternal, ErrorCode::kInternal, "boom", 0},
      {"error, code out of range",
       [&](uint32_t xid) { return with(words({xid, kError, 999, 4}), "boom"); },
       ErrorCode::kInternal, ErrorCode::kInternal, "boom", 0},
      {"error, no code",
       [&](uint32_t xid) { return words({xid, kError}); },
       kBad, kLost, "RPC: malformed error reply", kTransmissions},
      {"error, truncated message",
       [&](uint32_t xid) { return with(words({xid, kError, 2, 8}), "boom"); },
       kBad, kLost, "RPC: malformed error reply", kTransmissions},
      {"stale xid",
       [&](uint32_t xid) { return with(words({xid + 100, kAccepted, 2}), ok); },
       kLost, kLost, "RPC: stale reply xid 101", kTransmissions},
  };

  for (const uint32_t window : {1u, 4u}) {
    for (const ReplyCase& c : cases) {
      const std::string where = "window " + std::to_string(window) + ", " + c.name;
      sim::Clock clock;
      obs::Registry registry;
      rpc::Dispatcher dispatcher(&registry, &clock);
      dispatcher.RegisterProgram(9, [](uint32_t, const Bytes& args) {
        return util::Result<Bytes>(args);
      });
      sim::Link link(&clock, sim::LinkProfile::Udp(), &dispatcher, &registry);
      sim::RetryPolicy policy;
      policy.max_transmissions = kTransmissions;
      link.set_retry_policy(policy);
      CraftedReplyInterposer crafter(c.craft);
      link.set_interposer(&crafter);
      rpc::LinkTransport transport(&link);
      rpc::Client client(&transport, 9, &registry);
      client.set_window(window);

      const util::Result<Bytes> reply = client.Call(1, BytesOf("call"));
      const ErrorCode want = window == 1 ? c.stop_and_wait : c.pipelined;
      EXPECT_EQ(reply.status().code(), want) << where << ": got " << reply.status().ToString();
      if (reply.ok()) {
        EXPECT_EQ(reply.value(), BytesOf("ok")) << where;
      } else if (window == 1) {
        EXPECT_NE(reply.status().message().find(c.message), std::string::npos)
            << where << ": got " << reply.status().ToString();
      } else if (want == kLost) {
        EXPECT_EQ(reply.status().message(), "RPC: retry budget exhausted waiting for reply")
            << where;
      }
      EXPECT_EQ(registry.CounterValue("rpc.client.unmatched_replies"), c.unmatched) << where;
      EXPECT_EQ(client.in_flight(), 0u) << where;
    }
  }
}

}  // namespace
