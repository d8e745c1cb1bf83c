// Pipelined RPC on a clean link: the sliding window must actually
// overlap round trips (the whole point of the feature), publish the
// occupancy/queue-wait metrics that prove it, and leave the exactly-once
// machinery invisible — zero retransmissions, zero unmatched replies.
// Also covers the CachingFs asynchronous read-ahead and batched prefetch
// paths against a scripted async backend, where delivery timing is under
// test control.
#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/auth/authserver.h"
#include "src/nfs/cache.h"
#include "src/nfs/memfs.h"
#include "src/obs/metrics.h"
#include "src/rpc/rpc.h"
#include "src/sfs/client.h"
#include "src/sfs/server.h"
#include "src/sim/clock.h"
#include "src/sim/cost_model.h"
#include "src/sim/disk.h"
#include "src/sim/network.h"
#include "src/util/bytes.h"

namespace {

using nfs::Credentials;
using nfs::Fattr;
using nfs::FileHandle;
using nfs::Stat;
using sfs::SfsServer;
using util::Bytes;
using util::BytesOf;

// --- Raw rpc::Client over a clean simulated link -----------------------------

struct RpcStack {
  sim::Clock clock;
  obs::Registry registry;
  rpc::Dispatcher dispatcher;
  std::unique_ptr<sim::Link> link;
  std::unique_ptr<rpc::LinkTransport> transport;
  std::unique_ptr<rpc::Client> client;

  explicit RpcStack(uint32_t window) : dispatcher(&registry, &clock) {
    dispatcher.RegisterProgram(9, [](uint32_t, const Bytes& args) {
      return util::Result<Bytes>(args);
    });
    link = std::make_unique<sim::Link>(&clock, sim::LinkProfile::Udp(), &dispatcher,
                                       &registry);
    transport = std::make_unique<rpc::LinkTransport>(link.get());
    client = std::make_unique<rpc::Client>(transport.get(), 9, &registry);
    client->set_window(window);
  }

  // Issues `n` echo calls and waits for all replies; returns the elapsed
  // virtual time.
  uint64_t Run(uint32_t n) {
    const uint64_t start = clock.now_ns();
    for (uint32_t i = 0; i < n; ++i) {
      Bytes payload = BytesOf("echo " + std::to_string(i));
      if (client->window() > 1) {
        client->CallAsync(1, payload, [payload](util::Result<Bytes> reply) {
          EXPECT_TRUE(reply.ok());
          if (reply.ok()) {
            EXPECT_EQ(reply.value(), payload);
          }
        });
      } else {
        auto reply = client->Call(1, payload);
        EXPECT_TRUE(reply.ok());
      }
    }
    client->Drain();
    return clock.now_ns() - start;
  }
};

TEST(PipelineTest, WindowEightIsAtLeastTwiceStopAndWait) {
  // The ISSUE acceptance bar: on the default latency profile, a window of
  // 8 must finish the same call batch at least twice as fast as
  // stop-and-wait.  The echo handler is nearly free, so the round trip
  // dominates and the window overlaps it.
  RpcStack stop_and_wait(1);
  RpcStack pipelined(8);
  const uint64_t t1 = stop_and_wait.Run(64);
  const uint64_t t8 = pipelined.Run(64);
  EXPECT_GE(t1, 2 * t8) << "window=8 took " << t8 << "ns vs " << t1
                        << "ns stop-and-wait";
}

TEST(PipelineTest, CleanWindowRunPublishesOccupancyAndQueueWait) {
  RpcStack stack(4);
  constexpr uint32_t kCalls = 64;
  stack.Run(kCalls);
  EXPECT_EQ(stack.client->in_flight(), 0u);
  EXPECT_EQ(stack.registry.CounterValue("rpc.client.unmatched_replies"), 0u);
  EXPECT_EQ(stack.registry.CounterValue("link.retransmissions"), 0u);

  // Occupancy is sampled once per submitted call; with 64 calls pushed
  // through a 4-slot window the mean occupancy must exceed one call.
  const uint64_t samples = stack.registry.CounterValue("rpc.client.window_samples");
  const uint64_t occupancy_sum =
      stack.registry.CounterValue("rpc.client.window_occupancy_sum");
  ASSERT_EQ(samples, kCalls);
  EXPECT_GT(occupancy_sum, samples);
  EXPECT_LE(occupancy_sum, static_cast<uint64_t>(samples) * 4u);

  // Every call records its wait for a window slot; once the window fills,
  // later calls genuinely waited.
  const obs::Histogram* wait = stack.registry.FindHistogram("rpc.client.queue_wait_ns");
  ASSERT_NE(wait, nullptr);
  EXPECT_EQ(wait->count(), kCalls);
  EXPECT_GT(wait->sum_ns(), 0u);
}

TEST(PipelineTest, WindowIsClampedToMaximum) {
  RpcStack stack(1);
  stack.client->set_window(1'000'000);
  EXPECT_EQ(stack.client->window(), rpc::kMaxSendWindow);
}

// --- Window 1: the stop-and-wait timing contract ----------------------------
//
// At window 1 a call waits for its reply however long the server takes:
// the link masks transit loss, and nothing above it resends a request
// that is merely slow.  Every committed paper figure runs in this regime,
// where a 4 MB COMMIT takes longer than the 200 ms initial timeout.

// One call at window 1 against a handler charging `service_ns` of disk
// time; returns the elapsed virtual time.
uint64_t StopAndWaitElapsed(uint64_t service_ns, obs::Registry* registry) {
  sim::Clock clock;
  rpc::Dispatcher dispatcher(registry, &clock);
  dispatcher.RegisterProgram(9, [&clock, service_ns](uint32_t, const Bytes& args) {
    clock.Advance(service_ns, obs::TimeCategory::kDisk);
    return util::Result<Bytes>(args);
  });
  sim::Link link(&clock, sim::LinkProfile::Udp(), &dispatcher, registry);
  rpc::LinkTransport transport(&link);
  rpc::Client client(&transport, 9, registry);
  auto reply = client.Call(1, BytesOf("slow"));
  EXPECT_TRUE(reply.ok()) << reply.status().ToString();
  return clock.now_ns();
}

TEST(StopAndWaitContractTest, SlowHandlerIsWaitedForNotResent) {
  obs::Registry slow_registry;
  obs::Registry fast_registry;
  const uint64_t slow = StopAndWaitElapsed(250'000'000, &slow_registry);
  const uint64_t fast = StopAndWaitElapsed(50'000'000, &fast_registry);
  // Only the handler's extra 200 ms separates the two runs: no timer
  // fired, no copy was resent, and the server ran each call once.
  EXPECT_EQ(slow - fast, 200'000'000u);
  for (const obs::Registry* registry : {&slow_registry, &fast_registry}) {
    EXPECT_EQ(registry->CounterValue("link.retransmissions"), 0u);
    EXPECT_EQ(registry->CounterValue("rpc.client.stale_retries"), 0u);
    EXPECT_EQ(registry->CounterValue("server.drc_hits"), 0u);
    EXPECT_EQ(registry->CounterValue("rpc.client.unmatched_replies"), 0u);
  }
}

TEST(StopAndWaitContractTest, LongSfsCommitIsWaitedForNotResent) {
  sim::Clock clock;
  sim::CostModel costs;
  obs::Registry registry;
  auth::AuthServer authserver;
  SfsServer::Options so;
  so.location = "commit.example.org";
  so.key_bits = 512;
  so.registry = &registry;
  sfs::SfsServer server(&clock, &costs, so, &authserver);
  Fattr attr;
  nfs::Sattr chmod;
  chmod.mode = 0777;
  ASSERT_EQ(server.fs()->SetAttr(server.fs()->root_handle(), Credentials::User(0), chmod,
                                 &attr),
            Stat::kOk);
  sfs::SfsClient::Options co;
  co.ephemeral_key_bits = 512;
  co.write_behind = true;
  co.registry = &registry;
  sfs::SfsClient client(&clock, &costs, [&](const std::string&) { return &server; }, co);
  auto mount = client.Mount(server.Path());
  ASSERT_TRUE(mount.ok()) << mount.status().ToString();

  nfs::FileSystemApi* fs = (*mount)->fs();
  const Credentials cred = Credentials::User(0);
  FileHandle fh;
  ASSERT_EQ(fs->Create((*mount)->root_fh(), "big", cred, nfs::Sattr{}, &fh, &attr), Stat::kOk);
  constexpr uint64_t kChunk = 64 * 1024;
  // Exactly the default write-behind bound: nothing flushes early.
  constexpr uint64_t kBytes = 4 * 1024 * 1024;
  for (uint64_t offset = 0; offset < kBytes; offset += kChunk) {
    ASSERT_EQ(fs->Write(fh, cred, offset, Bytes(kChunk, 0x4d), /*stable=*/false, &attr),
              Stat::kOk);
  }
  // Read barrier: every extent goes out as WRITE(UNSTABLE), so the
  // COMMIT below is one RPC whose handler flushes all of it to disk.
  (*mount)->cache()->InvalidateAll();
  ASSERT_EQ(fs->GetAttr(fh, &attr), Stat::kOk);
  ASSERT_GE(server.fs()->unstable_bytes(), 4u * 1024 * 1024);

  const uint64_t commit_start = clock.now_ns();
  ASSERT_EQ(fs->Commit(fh), Stat::kOk);
  EXPECT_GT(clock.now_ns() - commit_start, sim::RetryPolicy().initial_rto_ns)
      << "the COMMIT must outlast the initial retransmission timeout";
  EXPECT_EQ(server.fs()->unstable_bytes(), 0u);
  EXPECT_EQ(registry.CounterValue("link.retransmissions"), 0u);
  EXPECT_EQ(registry.CounterValue("rpc.client.stale_retries"), 0u);
  EXPECT_EQ(registry.CounterValue("server.drc_hits"), 0u);
  EXPECT_EQ(registry.CounterValue("rpc.client.unmatched_replies"), 0u);
}

// --- Window 1: recovery from loss, staleness and duplication ----------------
//
// Each case runs one stop-and-wait echo call through a scripted
// interposer and compares it with the same call on a clean link: a lost
// request is resent one, then two, initial RTOs after each loss; a lost
// reply is resent one RTO after the drop and answered from the DRC; a
// stale reply is discarded and the call resent one initial RTO later.
// Losses and stale replies have budgets of their own: up to six sends
// lost in a row, counted afresh after each stale reply, and up to six
// stale replies.

// Answers each interposer hook from a script, one entry per message in
// each direction; past the end of a script, messages pass unchanged.
class ScriptedInterposer : public sim::Interposer {
 public:
  enum Action { kDeliver, kDrop, kDuplicate, kStale };

  ScriptedInterposer(std::vector<Action> requests, std::vector<Action> responses)
      : requests_(std::move(requests)), responses_(std::move(responses)) {}

  util::Result<Bytes> OnRequest(Bytes request) override {
    request_action_ = Next(requests_, &next_request_);
    if (request_action_ == kDrop) {
      return util::Unavailable("scripted drop");
    }
    return request;
  }
  bool DuplicateRequest() override { return request_action_ == kDuplicate; }
  util::Result<Bytes> OnResponse(Bytes response) override {
    switch (Next(responses_, &next_response_)) {
      case kDrop:
        return util::Unavailable("scripted drop");
      case kStale:
        response[0] ^= 0x80;  // Another call's xid, at the same length.
        return response;
      default:
        return response;
    }
  }

 private:
  static Action Next(const std::vector<Action>& script, size_t* next) {
    return *next < script.size() ? script[(*next)++] : kDeliver;
  }

  std::vector<Action> requests_;
  std::vector<Action> responses_;
  size_t next_request_ = 0;
  size_t next_response_ = 0;
  Action request_action_ = kDeliver;
};

struct RecoveryRun {
  uint64_t elapsed_ns = 0;
  sim::Clock::CategorySnapshot ledger;
  uint64_t retransmissions = 0;
  uint64_t stale_retries = 0;
  uint64_t drc_hits = 0;
  uint64_t messages = 0;
  uint64_t bytes = 0;
  util::Status status;  // The call's outcome.
};

// One window-1 echo call whose handler charges 70 us of CPU; it either
// `recovers` or gives up.
RecoveryRun RunScriptedCall(std::vector<ScriptedInterposer::Action> requests,
                            std::vector<ScriptedInterposer::Action> responses,
                            bool recovers = true) {
  sim::Clock clock;
  obs::Registry registry;
  rpc::Dispatcher dispatcher(&registry, &clock);
  dispatcher.RegisterProgram(9, [&clock](uint32_t, const Bytes& args) {
    clock.Advance(70'000, obs::TimeCategory::kCpu);
    return util::Result<Bytes>(args);
  });
  sim::Link link(&clock, sim::LinkProfile::Udp(), &dispatcher, &registry);
  ScriptedInterposer script(std::move(requests), std::move(responses));
  link.set_interposer(&script);
  rpc::LinkTransport transport(&link);
  rpc::Client client(&transport, 9, &registry);
  auto reply = client.Call(1, BytesOf("scripted"));
  EXPECT_EQ(reply.ok(), recovers) << reply.status().ToString();
  if (reply.ok()) {
    EXPECT_EQ(reply.value(), BytesOf("scripted"));
  }
  RecoveryRun run;
  run.status = reply.status();
  run.elapsed_ns = clock.now_ns();
  run.ledger = clock.categories();
  run.retransmissions = registry.CounterValue("link.retransmissions");
  run.stale_retries = registry.CounterValue("rpc.client.stale_retries");
  run.drc_hits = registry.CounterValue("server.drc_hits");
  run.messages = registry.CounterValue("link.messages");
  run.bytes = registry.CounterValue("link.bytes");
  return run;
}

uint64_t Charged(const RecoveryRun& run, obs::TimeCategory category) {
  return run.ledger.ns[static_cast<size_t>(category)];
}

constexpr uint64_t kRtoNs = 200'000'000;  // sim::RetryPolicy's initial RTO.

TEST(StopAndWaitRecoveryTest, RequestDroppedTwiceIsResentOneThenTwoRtosAfterEachLoss) {
  using A = ScriptedInterposer::Action;
  const RecoveryRun clean = RunScriptedCall({}, {});
  const RecoveryRun run = RunScriptedCall({A::kDrop, A::kDrop}, {});
  // Neither lost copy reached the wire's far end or the server.
  EXPECT_EQ(run.elapsed_ns, clean.elapsed_ns + 3 * kRtoNs);
  EXPECT_EQ(Charged(run, obs::TimeCategory::kWait), 3 * kRtoNs);
  EXPECT_EQ(Charged(run, obs::TimeCategory::kLink), Charged(clean, obs::TimeCategory::kLink));
  EXPECT_EQ(Charged(run, obs::TimeCategory::kCpu), 70'000u);
  EXPECT_EQ(run.retransmissions, 2u);
  EXPECT_EQ(run.stale_retries, 0u);
  EXPECT_EQ(run.drc_hits, 0u);
}

TEST(StopAndWaitRecoveryTest, ReplyDroppedOnceIsResentOneRtoLaterAndAnsweredFromTheDrc) {
  using A = ScriptedInterposer::Action;
  const RecoveryRun clean = RunScriptedCall({}, {});
  const RecoveryRun run = RunScriptedCall({}, {A::kDrop});
  // The resent request crosses the uplink again; the DRC answers it
  // without running the handler.
  const uint64_t request_leg_ns = Charged(clean, obs::TimeCategory::kLink) / 2;
  const uint64_t resent_leg_ns =
      Charged(run, obs::TimeCategory::kLink) - Charged(clean, obs::TimeCategory::kLink);
  EXPECT_EQ(run.elapsed_ns, clean.elapsed_ns + kRtoNs + resent_leg_ns);
  EXPECT_NEAR(static_cast<double>(resent_leg_ns), static_cast<double>(request_leg_ns), 1'000.0);
  EXPECT_EQ(Charged(run, obs::TimeCategory::kWait), kRtoNs);
  EXPECT_EQ(Charged(run, obs::TimeCategory::kCpu), 70'000u);
  EXPECT_EQ(run.retransmissions, 1u);
  EXPECT_EQ(run.stale_retries, 0u);
  EXPECT_EQ(run.drc_hits, 1u);
}

TEST(StopAndWaitRecoveryTest, StaleReplyIsResentOneInitialRtoLater) {
  using A = ScriptedInterposer::Action;
  const RecoveryRun clean = RunScriptedCall({}, {});
  const RecoveryRun run = RunScriptedCall({}, {A::kStale});
  // Two full round trips (the stale reply has the fresh one's length),
  // one initial RTO between them, and one execution.
  EXPECT_EQ(run.elapsed_ns, 2 * clean.elapsed_ns - 70'000 + kRtoNs);
  EXPECT_EQ(Charged(run, obs::TimeCategory::kWait), kRtoNs);
  EXPECT_EQ(Charged(run, obs::TimeCategory::kLink), 2 * Charged(clean, obs::TimeCategory::kLink));
  EXPECT_EQ(Charged(run, obs::TimeCategory::kCpu), 70'000u);
  EXPECT_EQ(run.retransmissions, 0u);
  EXPECT_EQ(run.stale_retries, 1u);
  EXPECT_EQ(run.drc_hits, 1u);
}

TEST(StopAndWaitRecoveryTest, DuplicatedRequestDoesNotDelayTheCaller) {
  using A = ScriptedInterposer::Action;
  const RecoveryRun clean = RunScriptedCall({}, {});
  const RecoveryRun run = RunScriptedCall({A::kDuplicate}, {});
  // The copy follows the original onto the uplink and queues behind it at
  // the server, which answers it from the DRC after the original's reply
  // has left; the copy's reply finds no one waiting.  The caller's reply
  // is not delayed at all.  The copy lands one serialization time after
  // the original, inside the original's service, and the ledger charges
  // that slice of the shared timeline to the wire.
  EXPECT_EQ(run.elapsed_ns, clean.elapsed_ns);
  EXPECT_EQ(run.messages, clean.messages + 1) << "the copy is a real wire message";
  const uint64_t copy_serialization_ns =
      (run.bytes - clean.bytes) * 1'000'000'000 / sim::LinkProfile::Udp().bytes_per_sec;
  EXPECT_EQ(Charged(run, obs::TimeCategory::kLink),
            Charged(clean, obs::TimeCategory::kLink) + copy_serialization_ns);
  EXPECT_EQ(Charged(run, obs::TimeCategory::kCpu), 70'000u - copy_serialization_ns);
  EXPECT_EQ(Charged(run, obs::TimeCategory::kWait), 0u);
  EXPECT_EQ(run.retransmissions, 0u);
  EXPECT_EQ(run.stale_retries, 0u);
  EXPECT_EQ(run.drc_hits, 1u);
}

TEST(StopAndWaitRecoveryTest, LossesAndStaleRepliesKeepBudgetsOfTheirOwn) {
  using A = ScriptedInterposer::Action;
  const RecoveryRun clean = RunScriptedCall({}, {});
  // Loss, stale, three times over, then a fresh reply on the seventh send.
  const RecoveryRun run = RunScriptedCall(
      {A::kDrop, A::kDeliver, A::kDrop, A::kDeliver, A::kDrop, A::kDeliver},
      {A::kStale, A::kStale, A::kStale});
  // Each wait is one initial RTO: every loss is the first since a reply.
  // Four round trips, one execution, three DRC replays.
  EXPECT_EQ(run.elapsed_ns, 4 * clean.elapsed_ns - 3 * 70'000 + 6 * kRtoNs);
  EXPECT_EQ(Charged(run, obs::TimeCategory::kWait), 6 * kRtoNs);
  EXPECT_EQ(Charged(run, obs::TimeCategory::kLink), 4 * Charged(clean, obs::TimeCategory::kLink));
  EXPECT_EQ(Charged(run, obs::TimeCategory::kCpu), 70'000u);
  EXPECT_EQ(run.retransmissions, 3u);
  EXPECT_EQ(run.stale_retries, 3u);
  EXPECT_EQ(run.drc_hits, 3u);
}

TEST(StopAndWaitRecoveryTest, SixLossesAfterAStaleReplyGiveUpWithTheLoss) {
  using A = ScriptedInterposer::Action;
  const RecoveryRun clean = RunScriptedCall({}, {});
  const RecoveryRun run = RunScriptedCall(
      {A::kDeliver, A::kDrop, A::kDrop, A::kDrop, A::kDrop, A::kDrop, A::kDrop}, {A::kStale},
      /*recovers=*/false);
  EXPECT_EQ(run.status.code(), util::ErrorCode::kUnavailable);
  EXPECT_EQ(run.status.message(), "request dropped in transit: scripted drop");
  // One initial RTO after the stale reply, then 1, 2, 4, 8 and 16
  // initial RTOs after the first five of six losses in a row.
  EXPECT_EQ(run.elapsed_ns, clean.elapsed_ns + 32 * kRtoNs);
  EXPECT_EQ(Charged(run, obs::TimeCategory::kWait), 32 * kRtoNs);
  EXPECT_EQ(run.retransmissions, 5u);
  EXPECT_EQ(run.stale_retries, 1u);
  EXPECT_EQ(run.drc_hits, 0u);
}

TEST(StopAndWaitRecoveryTest, SixStaleRepliesBetweenLossesGiveUpWithTheStaleStatus) {
  using A = ScriptedInterposer::Action;
  const RecoveryRun clean = RunScriptedCall({}, {});
  std::vector<A> requests;
  for (int i = 0; i < 6; ++i) {
    requests.insert(requests.end(), {A::kDrop, A::kDeliver});
  }
  const RecoveryRun run =
      RunScriptedCall(requests, std::vector<A>(6, A::kStale), /*recovers=*/false);
  EXPECT_EQ(run.status.code(), util::ErrorCode::kUnavailable);
  EXPECT_EQ(run.status.message(), "RPC: gave up waiting for a fresh reply: RPC: stale reply xid " +
                                      std::to_string(0x80000001u));
  // Twelve sends: six losses and five stale replies each wait one
  // initial RTO; six round trips, one execution.
  EXPECT_EQ(run.elapsed_ns, 6 * clean.elapsed_ns - 5 * 70'000 + 11 * kRtoNs);
  EXPECT_EQ(Charged(run, obs::TimeCategory::kWait), 11 * kRtoNs);
  EXPECT_EQ(run.retransmissions, 6u);
  EXPECT_EQ(run.stale_retries, 5u);
  EXPECT_EQ(run.drc_hits, 5u);
}

// --- CachingFs read-ahead / prefetch against a scripted async backend --------

// Queues every async request; Deliver() answers them from the MemFs in
// FIFO order.  This pins down the cache's re-validation behavior without
// a full simulated channel.
class ScriptedAsyncOps : public nfs::AsyncFileOps {
 public:
  explicit ScriptedAsyncOps(nfs::MemFs* fs) : fs_(fs) {}

  void ReadAsync(const FileHandle& fh, const Credentials& cred, uint64_t offset,
                 uint32_t count, ReadCallback done) override {
    ++reads_;
    pending_.push_back([this, fh, cred, offset, count, done = std::move(done)] {
      Bytes data;
      bool eof = false;
      Stat stat = fs_->Read(fh, cred, offset, count, &data, &eof);
      done(stat, std::move(data), eof);
    });
  }
  void LookupAsync(const FileHandle& dir, const std::string& name,
                   const Credentials& cred, LookupCallback done) override {
    ++lookups_;
    pending_.push_back([this, dir, name, cred, done = std::move(done)] {
      FileHandle fh;
      Fattr attr;
      Stat stat = fs_->Lookup(dir, name, cred, &fh, &attr);
      done(stat, fh, attr);
    });
  }
  void GetAttrAsync(const FileHandle& fh, AttrCallback done) override {
    ++getattrs_;
    pending_.push_back([this, fh, done = std::move(done)] {
      Fattr attr;
      Stat stat = fs_->GetAttr(fh, &attr);
      done(stat, attr);
    });
  }
  void WriteAsync(const FileHandle& fh, const Credentials& cred, uint64_t offset,
                  const Bytes& data, bool stable, WriteCallback done) override {
    ++writes_;
    pending_.push_back([this, fh, cred, offset, data, stable, done = std::move(done)] {
      Fattr attr;
      Stat stat = fs_->Write(fh, cred, offset, data, stable, &attr);
      done(stat, attr, fs_->WriteVerf());
    });
  }

  void Deliver() {
    std::vector<std::function<void()>> batch;
    batch.swap(pending_);
    for (auto& thunk : batch) {
      thunk();
    }
  }

  uint64_t reads() const { return reads_; }
  uint64_t lookups() const { return lookups_; }
  uint64_t getattrs() const { return getattrs_; }
  uint64_t writes() const { return writes_; }

 private:
  nfs::MemFs* fs_;
  std::vector<std::function<void()>> pending_;
  uint64_t reads_ = 0;
  uint64_t lookups_ = 0;
  uint64_t getattrs_ = 0;
  uint64_t writes_ = 0;
};

class ReadAheadTest : public ::testing::Test {
 protected:
  ReadAheadTest()
      : disk_(&clock_, sim::DiskProfile::Ibm18Es()),
        fs_(&clock_, &disk_, nfs::MemFs::Options{}),
        async_ops_(&fs_) {
    nfs::CacheOptions options;
    options.read_ahead_chunks = 2;
    cache_ = std::make_unique<nfs::CachingFs>(&fs_, &clock_, options);
    cache_->set_async_ops(&async_ops_);
  }

  FileHandle CreateFile(const std::string& name, const Bytes& content) {
    FileHandle fh;
    Fattr attr;
    EXPECT_EQ(fs_.Create(fs_.root_handle(), name, cred_, nfs::Sattr{}, &fh, &attr),
              Stat::kOk);
    EXPECT_EQ(fs_.Write(fh, cred_, 0, content, /*stable=*/true, &attr), Stat::kOk);
    return fh;
  }

  sim::Clock clock_;
  sim::Disk disk_;
  nfs::MemFs fs_;
  ScriptedAsyncOps async_ops_;
  std::unique_ptr<nfs::CachingFs> cache_;
  const Credentials cred_ = Credentials::User(0);
};

TEST_F(ReadAheadTest, SequentialMissPrefetchesFollowingChunks) {
  constexpr uint32_t kChunk = 16;
  Bytes content;
  for (int i = 0; i < 64; ++i) {
    content.push_back(static_cast<uint8_t>(i));
  }
  FileHandle fh = CreateFile("seq", content);
  // Read-ahead needs the cached size to know where the file ends, so warm
  // the attribute cache the way a real access pattern (lookup, then read)
  // would.
  Fattr warm;
  ASSERT_EQ(cache_->GetAttr(fh, &warm), Stat::kOk);

  // First chunk misses and schedules read-ahead for the next two.
  Bytes data;
  bool eof = false;
  ASSERT_EQ(cache_->Read(fh, cred_, 0, kChunk, &data, &eof), Stat::kOk);
  EXPECT_EQ(cache_->read_aheads_issued(), 2u);
  EXPECT_EQ(async_ops_.reads(), 2u);
  async_ops_.Deliver();
  EXPECT_EQ(cache_->read_ahead_fills(), 2u);

  // Chunks 2 and 3 are already cached: rewrite the backing file and the
  // cache must still serve the *original* bytes (hits, not refetches).
  const uint64_t hits_before = cache_->data_hits();
  Fattr attr;
  ASSERT_EQ(fs_.Write(fh, cred_, 0, Bytes(64, 0xff), /*stable=*/true, &attr), Stat::kOk);
  for (uint64_t offset : {uint64_t{kChunk}, uint64_t{2 * kChunk}}) {
    ASSERT_EQ(cache_->Read(fh, cred_, offset, kChunk, &data, &eof), Stat::kOk);
    EXPECT_EQ(data, Bytes(content.begin() + static_cast<long>(offset),
                          content.begin() + static_cast<long>(offset + kChunk)));
  }
  EXPECT_EQ(cache_->data_hits(), hits_before + 2);
}

TEST_F(ReadAheadTest, InvalidatedEntryDiscardsInFlightReadAhead) {
  constexpr uint32_t kChunk = 16;
  FileHandle fh = CreateFile("stale", Bytes(64, 0x11));
  Fattr warm;
  ASSERT_EQ(cache_->GetAttr(fh, &warm), Stat::kOk);

  Bytes data;
  bool eof = false;
  ASSERT_EQ(cache_->Read(fh, cred_, 0, kChunk, &data, &eof), Stat::kOk);
  ASSERT_EQ(cache_->read_aheads_issued(), 2u);

  // A server lease callback lands while the read-ahead replies are in
  // flight (paper §3.3): the completion must find the entry gone and
  // drop the bytes, not resurrect a cache the server just invalidated.
  cache_->InvalidateHandle(fh);
  async_ops_.Deliver();
  EXPECT_EQ(cache_->read_ahead_fills(), 0u);
}

TEST_F(ReadAheadTest, PrefetchLookupsWarmsNameCache) {
  FileHandle a = CreateFile("a", BytesOf("aaaa"));
  CreateFile("b", BytesOf("bbbb"));

  cache_->PrefetchLookups(fs_.root_handle(), {"a", "b"}, cred_);
  EXPECT_EQ(cache_->prefetches_issued(), 2u);
  EXPECT_EQ(async_ops_.lookups(), 2u);
  async_ops_.Deliver();

  // Fresh entries are not re-requested.
  cache_->PrefetchLookups(fs_.root_handle(), {"a", "b"}, cred_);
  EXPECT_EQ(async_ops_.lookups(), 2u);

  // The name cache is warm: remove "a" from the backend and the cached
  // binding still resolves (plain-NFS attribute-timeout semantics).
  ASSERT_EQ(fs_.Remove(fs_.root_handle(), "a", cred_), Stat::kOk);
  FileHandle fh;
  Fattr attr;
  EXPECT_EQ(cache_->Lookup(fs_.root_handle(), "a", cred_, &fh, &attr), Stat::kOk);
  EXPECT_EQ(fh, a);
}

TEST_F(ReadAheadTest, PrefetchAttrsSkipsFreshAndWarmsStale) {
  FileHandle fh = CreateFile("attrs", BytesOf("xxxx"));

  cache_->PrefetchAttrs({fh});
  EXPECT_EQ(async_ops_.getattrs(), 1u);
  async_ops_.Deliver();
  // Fresh now: a second prefetch issues nothing.
  cache_->PrefetchAttrs({fh});
  EXPECT_EQ(async_ops_.getattrs(), 1u);

  // Served from cache: the backend's file can grow without the cached
  // attributes noticing until the timeout.
  Fattr attr;
  ASSERT_EQ(fs_.Write(fh, cred_, 0, Bytes(100, 0x33), /*stable=*/true, &attr), Stat::kOk);
  Fattr cached;
  ASSERT_EQ(cache_->GetAttr(fh, &cached), Stat::kOk);
  EXPECT_EQ(cached.size, 4u);
}

// --- SFS channel: clean pipelined mounts ------------------------------------

TEST(SfsPipelineTest, CleanPipelinedWorkloadLeavesNoRetryResidue) {
  for (uint32_t window : {2u, 8u}) {
    SCOPED_TRACE("window=" + std::to_string(window));
    sim::Clock clock;
    sim::CostModel costs;
    auth::AuthServer authserver;
    SfsServer::Options so;
    so.location = "pipeline.example.org";
    so.key_bits = 512;
    obs::Registry registry;
    so.registry = &registry;
    sfs::SfsServer server(&clock, &costs, so, &authserver);
    Fattr attr;
    nfs::Sattr chmod;
    chmod.mode = 0777;
    ASSERT_EQ(server.fs()->SetAttr(server.fs()->root_handle(), Credentials::User(0),
                                   chmod, &attr),
              Stat::kOk);
    sfs::SfsClient::Options co;
    co.ephemeral_key_bits = 512;
    co.window = window;
    co.registry = &registry;
    sfs::SfsClient client(&clock, &costs, [&](const std::string&) { return &server; }, co);

    auto mount = client.Mount(server.Path());
    ASSERT_TRUE(mount.ok()) << mount.status().ToString();
    EXPECT_EQ((*mount)->rpc()->window(), window);

    nfs::FileSystemApi* fs = (*mount)->fs();
    const Credentials cred = Credentials::User(0);
    for (int i = 0; i < 8; ++i) {
      FileHandle fh;
      std::string name = "clean-" + std::to_string(i);
      ASSERT_EQ(fs->Create((*mount)->root_fh(), name, cred, nfs::Sattr{}, &fh, &attr),
                Stat::kOk);
      ASSERT_EQ(fs->Write(fh, cred, 0, BytesOf(name), /*stable=*/true, &attr), Stat::kOk);
      Bytes data;
      bool eof = false;
      ASSERT_EQ(fs->Read(fh, cred, 0, 4096, &data, &eof), Stat::kOk);
      EXPECT_EQ(data, BytesOf(name));
    }
    (*mount)->rpc()->Drain();

    // The retry/dedup machinery stayed invisible on the clean path.
    EXPECT_EQ((*mount)->rpc()->in_flight(), 0u);
    EXPECT_EQ(registry.CounterValue("rpc.client.unmatched_replies"), 0u);
    EXPECT_EQ(registry.CounterValue("rpc.client.stale_retries"), 0u);
    EXPECT_EQ(registry.CounterValue("link.retransmissions"), 0u);
    EXPECT_EQ(registry.CounterValue("server.drc_hits"), 0u);
    EXPECT_EQ(server.fs()->creates_applied(), 8u);
  }
}

}  // namespace
