// Pipelined-RPC scaling: throughput versus send-window size and client
// count over the simulated 100 Mbit/s link.
//
// A stop-and-wait client pays one full round trip per RPC; the paper's
// user-level daemons amortize that by keeping several calls in flight.
// This benchmark sweeps the sliding send window (1 = the original
// stop-and-wait discipline) and the number of concurrent clients, and
// reports virtual-time throughput plus the observability counters that
// prove the window is actually being used: mean window occupancy,
// time spent queue-waiting for a free slot, and the unmatched-reply and
// retransmission counts (both must stay zero on a clean link).
//
// Each configuration also runs the identical workload at window 1 in a
// fresh environment, so every row carries its own speedup_vs_w1.
#include <benchmark/benchmark.h>

#include "bench/obs_report.h"

#include <memory>
#include <string>
#include <vector>

#include "src/auth/authserver.h"
#include "src/nfs/cache.h"
#include "src/nfs/client.h"
#include "src/nfs/memfs.h"
#include "src/nfs/program.h"
#include "src/obs/metrics.h"
#include "src/rpc/rpc.h"
#include "src/sfs/client.h"
#include "src/sfs/server.h"
#include "src/sim/clock.h"
#include "src/sim/cost_model.h"
#include "src/sim/disk.h"
#include "src/sim/network.h"
#include "src/xdr/xdr.h"

namespace {

// One NFS3 server with `nclients` independent pipelined rpc::Clients,
// each over its own link, all sharing one virtual clock and registry.
struct RpcEnv {
  sim::Clock clock;
  sim::CostModel costs = sim::CostModel::PentiumIII550();
  obs::Registry registry;
  std::unique_ptr<sim::Disk> disk;
  std::unique_ptr<nfs::MemFs> memfs;
  std::unique_ptr<nfs::NfsProgram> program;
  std::unique_ptr<rpc::Dispatcher> dispatcher;
  std::unique_ptr<sim::Host> host;
  struct ClientStack {
    std::unique_ptr<rpc::Dispatcher> dispatcher;
    std::unique_ptr<sim::Link> link;
    std::unique_ptr<rpc::LinkTransport> transport;
    std::unique_ptr<rpc::Client> client;
  };
  std::vector<ClientStack> clients;

  RpcEnv(uint32_t window, uint32_t nclients) {
    disk = std::make_unique<sim::Disk>(&clock, sim::DiskProfile::Ibm18Es());
    memfs = std::make_unique<nfs::MemFs>(&clock, disk.get(), nfs::MemFs::Options{});
    program = std::make_unique<nfs::NfsProgram>(memfs.get(), &clock, &costs);
    dispatcher = std::make_unique<rpc::Dispatcher>(&registry, &clock);
    dispatcher->RegisterProgram(
        nfs::kNfsProgram,
        [this](uint32_t proc, const util::Bytes& args) {
          return program->HandleWire(proc, args);
        },
        [](uint32_t proc) { return std::string(nfs::ProcName(proc)); }, "NFS3");
    // One server machine: every client link feeds the same admission
    // queue and serial executor instead of a private per-link watermark.
    host = std::make_unique<sim::Host>(&clock, dispatcher.get(), &registry);
    clients.resize(nclients);
    for (auto& stack : clients) {
      // Per-connection Dispatcher: each client's duplicate-request
      // cache follows its own seqno stream (a shared DRC would alias
      // seqnos across clients and replay one client's replies to
      // another).  The shared Host still serializes the machine.
      stack.dispatcher = std::make_unique<rpc::Dispatcher>(&registry, &clock);
      stack.dispatcher->RegisterProgram(
          nfs::kNfsProgram,
          [this](uint32_t proc, const util::Bytes& args) {
            return program->HandleWire(proc, args);
          },
          [](uint32_t proc) { return std::string(nfs::ProcName(proc)); }, "NFS3");
      stack.link = std::make_unique<sim::Link>(&clock, sim::LinkProfile::Udp(),
                                               host.get(), &registry,
                                               stack.dispatcher.get());
      stack.transport = std::make_unique<rpc::LinkTransport>(stack.link.get());
      stack.client = std::make_unique<rpc::Client>(
          stack.transport.get(), nfs::kNfsProgram, &registry, "NFS3",
          [](uint32_t proc) { return std::string(nfs::ProcName(proc)); });
      stack.client->set_window(window);
    }
  }

  util::Bytes GetAttrArgs() {
    xdr::Encoder enc;
    nfs::Credentials::Anonymous().Encode(&enc);
    enc.PutOpaque(memfs->root_handle());
    return enc.Take();
  }

  // Issues `total` GETATTRs round-robin across the clients and drains
  // every window.  Returns elapsed virtual nanoseconds.
  uint64_t Run(uint32_t total) {
    const util::Bytes args = GetAttrArgs();
    const uint64_t start = clock.now_ns();
    for (uint32_t i = 0; i < total; ++i) {
      rpc::Client* client = clients[i % clients.size()].client.get();
      if (client->window() > 1) {
        client->CallAsync(nfs::kProcGetAttr, args, [](util::Result<util::Bytes> reply) {
          benchmark::DoNotOptimize(reply.ok());
        });
      } else {
        auto reply = client->Call(nfs::kProcGetAttr, args);
        benchmark::DoNotOptimize(reply.ok());
      }
    }
    for (auto& stack : clients) {
      stack.client->Drain();
    }
    return clock.now_ns() - start;
  }
};

void ReportWindowCounters(benchmark::State& state, obs::Registry* registry) {
  const uint64_t samples = registry->CounterValue("rpc.client.window_samples");
  if (samples > 0) {
    state.counters["occupancy_mean"] =
        static_cast<double>(registry->CounterValue("rpc.client.window_occupancy_sum")) /
        static_cast<double>(samples);
  }
  if (const obs::Histogram* wait = registry->FindHistogram("rpc.client.queue_wait_ns");
      wait != nullptr && wait->count() > 0) {
    state.counters["queue_wait_mean_us"] = wait->MeanNs() / 1000.0;
  }
  state.counters["unmatched_replies"] =
      static_cast<double>(registry->CounterValue("rpc.client.unmatched_replies"));
  state.counters["retransmissions"] =
      static_cast<double>(registry->CounterValue("link.retransmissions"));
}

void BM_PipelineScaling_RpcWindow(benchmark::State& state) {
  const auto window = static_cast<uint32_t>(state.range(0));
  constexpr uint32_t kCalls = 64;
  for (auto _ : state) {
    RpcEnv baseline(/*window=*/1, /*nclients=*/1);
    const uint64_t base_ns = baseline.Run(kCalls);
    RpcEnv env(window, /*nclients=*/1);
    const uint64_t elapsed_ns = env.Run(kCalls);
    state.SetIterationTime(static_cast<double>(elapsed_ns) * 1e-9);
    state.counters["ops_per_sec"] =
        static_cast<double>(kCalls) * 1e9 / static_cast<double>(elapsed_ns);
    state.counters["speedup_vs_w1"] =
        static_cast<double>(base_ns) / static_cast<double>(elapsed_ns);
    ReportWindowCounters(state, &env.registry);
    state.SetLabel("window=" + std::to_string(window));
  }
}

void BM_PipelineScaling_WindowByClients(benchmark::State& state) {
  const auto window = static_cast<uint32_t>(state.range(0));
  const auto nclients = static_cast<uint32_t>(state.range(1));
  constexpr uint32_t kCallsPerClient = 32;
  const uint32_t total = kCallsPerClient * nclients;
  for (auto _ : state) {
    RpcEnv baseline(/*window=*/1, nclients);
    const uint64_t base_ns = baseline.Run(total);
    RpcEnv env(window, nclients);
    const uint64_t elapsed_ns = env.Run(total);
    state.SetIterationTime(static_cast<double>(elapsed_ns) * 1e-9);
    state.counters["ops_per_sec"] =
        static_cast<double>(total) * 1e9 / static_cast<double>(elapsed_ns);
    state.counters["speedup_vs_w1"] =
        static_cast<double>(base_ns) / static_cast<double>(elapsed_ns);
    ReportWindowCounters(state, &env.registry);
    state.SetLabel("window=" + std::to_string(window) +
                   " clients=" + std::to_string(nclients));
  }
}

// One SFS server + client pair at a given channel window; the workload
// file is created server-side so setup stays off the measured wire.
struct SfsEnv {
  sim::Clock clock;
  sim::CostModel costs = sim::CostModel::PentiumIII550();
  obs::Registry registry;
  auth::AuthServer authserver;
  std::unique_ptr<sfs::SfsServer> server;
  std::unique_ptr<sfs::SfsClient> client;
  sfs::SfsClient::MountPoint* mount = nullptr;
  nfs::FileHandle file;

  explicit SfsEnv(uint32_t window, uint32_t file_bytes, uint32_t chunk) {
    sfs::SfsServer::Options so;
    so.location = "pipeline.bench";
    so.key_bits = 512;
    so.registry = &registry;
    server = std::make_unique<sfs::SfsServer>(&clock, &costs, so, &authserver);

    const nfs::Credentials root = nfs::Credentials::User(0);
    nfs::Fattr attr;
    nfs::Sattr world;
    world.mode = 0777;
    server->fs()->SetAttr(server->fs()->root_handle(), root, world, &attr);
    nfs::Sattr file_mode;
    file_mode.mode = 0666;
    server->fs()->Create(server->fs()->root_handle(), "data", root, file_mode, &file, &attr);
    const util::Bytes block(chunk, 0x5a);
    for (uint32_t offset = 0; offset < file_bytes; offset += chunk) {
      server->fs()->Write(file, root, offset, block, true, &attr);
    }

    sfs::SfsClient::Options co;
    co.ephemeral_key_bits = 512;
    co.registry = &registry;
    co.window = window;
    client = std::make_unique<sfs::SfsClient>(
        &clock, &costs, [this](const std::string&) { return server.get(); }, co);
    mount = client->Mount(server->Path()).value();
  }

  // Sequential whole-file read through the cache (read-ahead active at
  // window > 1).  Returns elapsed virtual nanoseconds.
  uint64_t Run(uint32_t file_bytes, uint32_t chunk) {
    const nfs::Credentials cred = nfs::Credentials::User(1000, {1000});
    nfs::FileHandle fh;
    nfs::Fattr attr;
    mount->fs()->Lookup(mount->root_fh(), "data", cred, &fh, &attr);
    const uint64_t start = clock.now_ns();
    util::Bytes data;
    bool eof = false;
    for (uint32_t offset = 0; offset < file_bytes; offset += chunk) {
      mount->fs()->Read(fh, cred, offset, chunk, &data, &eof);
      benchmark::DoNotOptimize(data.size());
    }
    mount->rpc()->Drain();
    return clock.now_ns() - start;
  }
};

void BM_PipelineScaling_SfsChannelRead(benchmark::State& state) {
  const auto window = static_cast<uint32_t>(state.range(0));
  constexpr uint32_t kFileBytes = 256 * 1024;
  constexpr uint32_t kChunk = 8 * 1024;
  for (auto _ : state) {
    SfsEnv baseline(/*window=*/1, kFileBytes, kChunk);
    const uint64_t base_ns = baseline.Run(kFileBytes, kChunk);
    SfsEnv env(window, kFileBytes, kChunk);
    const uint64_t elapsed_ns = env.Run(kFileBytes, kChunk);
    state.SetIterationTime(static_cast<double>(elapsed_ns) * 1e-9);
    state.counters["mb_per_sec"] =
        static_cast<double>(kFileBytes) / 1048576.0 * 1e9 / static_cast<double>(elapsed_ns);
    state.counters["speedup_vs_w1"] =
        static_cast<double>(base_ns) / static_cast<double>(elapsed_ns);
    state.counters["read_aheads"] =
        static_cast<double>(env.mount->cache()->read_aheads_issued());
    state.counters["read_ahead_fills"] =
        static_cast<double>(env.mount->cache()->read_ahead_fills());
    ReportWindowCounters(state, &env.registry);
    state.SetLabel("window=" + std::to_string(window));
  }
}

}  // namespace

BENCHMARK(BM_PipelineScaling_RpcWindow)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Arg(16)
    ->UseManualTime()
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);

BENCHMARK(BM_PipelineScaling_WindowByClients)
    ->Args({1, 2})
    ->Args({4, 2})
    ->Args({8, 2})
    ->Args({4, 4})
    ->Args({8, 4})
    ->UseManualTime()
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);

BENCHMARK(BM_PipelineScaling_SfsChannelRead)
    ->Arg(1)
    ->Arg(4)
    ->Arg(8)
    ->UseManualTime()
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);

SFS_BENCH_JSON_MAIN("pipeline_scaling")
