// Shared-file two-fleet scenario: a writer fleet and a reader fleet of
// independent SFS clients churn a small set of shared files on one
// server, every client its own mount (own secure channel, own cache
// stack) on one virtual clock.
//
// The access pattern is the close-to-open handoff NFS semantics are
// designed around: a writer opens a shared file, rewrites it, and
// closes (flush + COMMIT); the readers then open the same file and must
// observe the new contents.  Rows compare the seed's write-through
// discipline against the write-behind commit pipeline — write-behind
// collapses each writer session's per-chunk synchronous WRITEs into
// UNSTABLE batches plus one COMMIT at close, which shows up as fewer
// wire messages and a shorter virtual runtime at identical observed
// contents (the workload asserts every read-back).
#include <benchmark/benchmark.h>

#include <cassert>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bench/obs_report.h"
#include "bench/testbed.h"
#include "bench/workloads.h"
#include "src/obs/timeline.h"
#include "src/sim/sampler.h"

namespace {

constexpr int kWriters = 4;
constexpr int kReaders = 4;
constexpr int kFiles = 8;
constexpr int kRounds = 4;
// Each writer session rewrites the file as four 32 KB chunks: exactly
// one VFS gather buffer each, so write-through pays four synchronous
// WRITE round trips per session while write-behind coalesces them into
// one 128 KB extent sent at close ahead of the COMMIT.
constexpr size_t kChunk = 32768;
constexpr size_t kChunksPerWrite = 4;

// One mounted client: its own SfsClient (distinct ephemeral-key seed)
// and its own VFS, sharing the fleet's clock, cost model, and registry.
struct FleetNode {
  std::unique_ptr<sfs::SfsClient> client;
  std::unique_ptr<sim::Disk> disk;
  std::unique_ptr<nfs::MemFs> local_fs;  // VFS root; workload lives on SFS.
  std::unique_ptr<vfs::Vfs> vfs;
  vfs::UserContext user;
};

struct SharedFileResult {
  double seconds = 0;
  uint64_t wire_messages = 0;
  uint64_t commit_calls = 0;
  uint64_t batched_writes = 0;
  std::string timeline_json;
};

SharedFileResult RunSharedFile(bool write_behind) {
  obs::Registry registry;
  sim::Clock clock;
  const sim::CostModel& costs = bench::ActiveCostModel();

  // Telemetry timeline: the scenario runs ~3.6 virtual seconds, so
  // 100 ms windows give ~36 readings.  Its edges land while the clients'
  // stop-and-wait calls run the event loop, so a window can close between
  // a writer's buffered writes, with the dirty-bytes gauge nonzero.  The stall rule is armed at the
  // write-behind backpressure limit — the handoff pattern commits at
  // every close, so the dirty track must stay bounded and no stall (or
  // overload) episode may appear; Finalize asserts both.
  obs::Timeline::Options timeline_options;
  timeline_options.window_ns = 100'000'000;
  timeline_options.stall_dirty_bytes_limit = 4 << 20;  // cache.h default.
  obs::Timeline timeline(&registry, timeline_options);
  timeline.AddRateTrack("msgs", "link.messages");
  timeline.AddRateTrack("commits", "commit.calls");
  timeline.AddGaugeTrack("dirty_bytes", "nfs.cache.dirty_bytes");
  timeline.AddLatencyTrack("rpc", "rpc.client.queue_wait_ns");
  sim::TimelineSampler sampler(&clock, &timeline);
  sampler.Start();

  auto authserver = std::make_unique<auth::AuthServer>();
  sfs::SfsServer::Options server_options;
  server_options.location = "server.bench";
  server_options.key_bits = 512;
  server_options.registry = &registry;
  auto server = std::make_unique<sfs::SfsServer>(&clock, &costs, server_options,
                                                 authserver.get());

  const crypto::RabinPrivateKey& user_key = bench::BenchUserKey();
  auth::PublicUserRecord record;
  record.name = "bench";
  record.public_key = user_key.public_key().Serialize();
  record.credentials = nfs::Credentials::User(1000, {1000});
  authserver->RegisterUser(record);
  agent::Agent agent("bench");
  agent.AddPrivateKey(user_key);

  auto make_node = [&](int seed) {
    FleetNode node;
    sfs::SfsClient::Options options;
    options.ephemeral_key_bits = 512;
    options.write_behind = write_behind;
    options.registry = &registry;
    options.prng_seed = 100 + static_cast<uint64_t>(seed);
    node.client = std::make_unique<sfs::SfsClient>(
        &clock, &costs, [&server](const std::string&) { return server.get(); },
        options);
    node.disk = std::make_unique<sim::Disk>(&clock, sim::DiskProfile::Ibm18Es());
    node.local_fs =
        std::make_unique<nfs::MemFs>(&clock, node.disk.get(), nfs::MemFs::Options{});
    node.vfs = std::make_unique<vfs::Vfs>(&clock, &costs, &registry);
    node.vfs->MountRoot(node.local_fs.get(), node.local_fs->root_handle());
    node.vfs->EnableSfs(node.client.get());
    node.user = vfs::UserContext::For(1000, &agent);
    return node;
  };
  std::vector<FleetNode> writers;
  std::vector<FleetNode> readers;
  for (int i = 0; i < kWriters; ++i) {
    writers.push_back(make_node(i));
  }
  for (int i = 0; i < kReaders; ++i) {
    readers.push_back(make_node(kWriters + i));
  }

  const std::string base = server->Path().FullPath() + "/shared";
  bench::Check(writers[0].vfs->Mkdir(writers[0].user, base), "mkdir shared");
  auto file_path = [&](int f) { return base + "/f" + std::to_string(f); };

  sim::Stopwatch watch(&clock);
  for (int round = 0; round < kRounds; ++round) {
    for (int f = 0; f < kFiles; ++f) {
      // Version the content per round so a reader observing stale data
      // fails the assert rather than silently passing.
      util::Bytes chunk =
          bench::Content(kChunk, static_cast<uint64_t>(round * kFiles + f + 1));
      FleetNode& w = writers[static_cast<size_t>(round * kFiles + f) % writers.size()];
      {
        auto file = bench::CheckResult(
            w.vfs->Open(w.user, file_path(f), vfs::OpenFlags::CreateRw()),
            "writer open");
        for (size_t c = 0; c < kChunksPerWrite; ++c) {
          bench::Check(file.Pwrite(c * kChunk, chunk), "writer pwrite");
        }
        bench::Check(file.Close(), "writer close");  // Flush + COMMIT.
      }
      // Close-to-open handoff: every reader opens after the writer's
      // close and must see this round's bytes.
      for (FleetNode& r : readers) {
        auto file = bench::CheckResult(
            r.vfs->Open(r.user, file_path(f), vfs::OpenFlags::ReadOnly()),
            "reader open");
        util::Bytes got = bench::CheckResult(file.Pread(0, kChunk), "reader pread");
        if (got != chunk) {
          std::fprintf(stderr, "shared_file: reader saw stale data (round %d file %d)\n",
                       round, f);
          std::abort();
        }
        bench::Check(file.Close(), "reader close");
      }
    }
  }

  sampler.Finalize();
  // Close-to-open handoff keeps backpressure invisible: the writer
  // commits at close, so dirty bytes never pin at the limit and the
  // serial access pattern never overloads the server.
  for (const obs::Timeline::Episode& episode : timeline.episodes()) {
    if (episode.kind == obs::Timeline::EpisodeKind::kOverload ||
        episode.kind == obs::Timeline::EpisodeKind::kStall) {
      std::fprintf(stderr, "shared_file: unexpected %s episode [%llu, %llu): %s\n",
                   obs::Timeline::EpisodeKindName(episode.kind),
                   static_cast<unsigned long long>(episode.begin_ns),
                   static_cast<unsigned long long>(episode.end_ns),
                   episode.cause.c_str());
      std::abort();
    }
  }
  for (const obs::Timeline::Window& window : timeline.windows()) {
    if (!window.gauges.empty() && window.gauges[0] > (4 << 20)) {
      std::fprintf(stderr, "shared_file: dirty bytes %lld above write-behind limit\n",
                   static_cast<long long>(window.gauges[0]));
      std::abort();
    }
  }

  SharedFileResult result;
  result.seconds = watch.elapsed_seconds();
  result.wire_messages = registry.CounterValue("link.messages");
  result.commit_calls = registry.CounterValue("commit.calls");
  result.batched_writes = registry.CounterValue("commit.batched_writes");
  result.timeline_json = timeline.ToJson();
  return result;
}

// range(0) = write-behind ablation.
void BM_SharedFile(benchmark::State& state) {
  for (auto _ : state) {
    bool write_behind = state.range(0) != 0;
    SharedFileResult result = RunSharedFile(write_behind);
    state.SetIterationTime(result.seconds);
    state.counters["wire_messages"] = static_cast<double>(result.wire_messages);
    state.counters["commit_calls"] = static_cast<double>(result.commit_calls);
    state.counters["batched_writes"] = static_cast<double>(result.batched_writes);
    state.SetLabel(write_behind ? "SFS + write-behind" : "SFS write-through");
    bench::RecordTimeline("BM_SharedFile/" + std::to_string(state.range(0)),
                          result.timeline_json);
  }
}

}  // namespace

BENCHMARK(BM_SharedFile)
    ->Arg(0)
    ->Arg(1)
    ->UseManualTime()
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);

SFS_BENCH_JSON_MAIN("shared_file")
