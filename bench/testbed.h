// Shared benchmark testbed: reconstructs the paper's §4.1 experimental
// setup as simulated machines — one client, one server, 100 Mbit/s
// switched Ethernet — in each of the measured configurations:
//
//   Local        the server's local FFS (no network)
//   NFS3/UDP     plain NFS 3 over the UDP profile
//   NFS3/TCP     plain NFS 3 over the TCP profile
//   SFS          full SFS: secure channel, leases, user-level daemons
//   SFS w/o enc  SFS negotiated down to a cleartext channel (§4.2)
//   SFS w/o cache SFS with enhanced caching disabled (§4.3 ablation)
//
// All time is virtual (sim::Clock); see src/sim/cost_model.h for the
// constants and their derivation from the paper's own numbers.
#ifndef SFS_BENCH_TESTBED_H_
#define SFS_BENCH_TESTBED_H_

#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>

#include "src/agent/agent.h"
#include "src/auth/authserver.h"
#include "src/nfs/cache.h"
#include "src/obs/metrics.h"
#include "src/nfs/client.h"
#include "src/nfs/memfs.h"
#include "src/nfs/program.h"
#include "src/rpc/rpc.h"
#include "src/sfs/client.h"
#include "src/sfs/server.h"
#include "src/obs/timeline.h"
#include "src/sim/clock.h"
#include "src/sim/cost_model.h"
#include "src/sim/disk.h"
#include "src/sim/network.h"
#include "src/sim/sampler.h"
#include "src/vfs/vfs.h"

namespace bench {

enum class Config {
  kLocal,
  kNfsUdp,
  kNfsTcp,
  kSfs,
  kSfsNoCrypt,
  kSfsNoCache,
};

inline const char* ConfigName(Config c) {
  switch (c) {
    case Config::kLocal:
      return "Local";
    case Config::kNfsUdp:
      return "NFS 3 (UDP)";
    case Config::kNfsTcp:
      return "NFS 3 (TCP)";
    case Config::kSfs:
      return "SFS";
    case Config::kSfsNoCrypt:
      return "SFS w/o encryption";
    case Config::kSfsNoCache:
      return "SFS w/o enhanced caching";
  }
  return "?";
}

// The cost model every testbed runs under.  Defaults to the paper's
// Pentium III profile; SFS_COST_MODEL=calibrated (set directly or via
// the --sfs_cost_model= flag of BenchJsonMain) times this build's real
// crypto primitives on the host CPU instead.  Calibration runs once and
// is cached — it costs a few hundred ms.
inline const sim::CostModel& ActiveCostModel() {
  static const sim::CostModel kModel = [] {
    const char* env = std::getenv("SFS_COST_MODEL");
    if (env != nullptr && std::strcmp(env, "calibrated") == 0) {
      return sim::CostModel::CalibrateFromPrimitives();
    }
    return sim::CostModel::PentiumIII550();
  }();
  return kModel;
}

// The benchmark user's 512-bit Rabin key.  Deterministic (fixed seed)
// and generated once per process: every Testbed shares it, which keeps
// per-testbed setup out of measured benchmark time.
inline const crypto::RabinPrivateKey& BenchUserKey() {
  static const crypto::RabinPrivateKey kKey = [] {
    crypto::Prng prng(uint64_t{7001});
    return crypto::RabinPrivateKey::Generate(&prng, 512);
  }();
  return kKey;
}

// One fully wired client/server pair.  All members share one virtual
// clock; workloads measure with sim::Stopwatch over `clock`.
class Testbed {
 public:
  // Audit-journal knobs for the SFS configurations (bench/audit_overhead
  // sweeps these; everything else runs the server default).
  struct AuditKnobs {
    bool enabled = true;
    uint32_t batch_records = 64;
  };

  // Client cache-layer knobs (bench ablations).  write_behind turns on
  // the WRITE(UNSTABLE)+COMMIT pipeline plus close-to-open consistency
  // in whichever cache stack the config builds (NFS3 or SFS); off keeps
  // the seed's write-through discipline.
  struct CacheKnobs {
    bool write_behind = false;
  };

  explicit Testbed(Config config) : Testbed(config, AuditKnobs()) {}
  Testbed(Config config, AuditKnobs audit) : Testbed(config, audit, CacheKnobs()) {}
  Testbed(Config config, CacheKnobs cache) : Testbed(config, AuditKnobs(), cache) {}

  Testbed(Config config, AuditKnobs audit, CacheKnobs cache)
      : config_(config), costs_(ActiveCostModel()) {
    vfs_ = std::make_unique<vfs::Vfs>(&clock_, &costs_, &registry_);

    switch (config) {
      case Config::kLocal: {
        // Client-local file system; syscalls + disk only.
        disk_ = std::make_unique<sim::Disk>(&clock_, sim::DiskProfile::Ibm18Es(), &registry_);
        memfs_ = std::make_unique<nfs::MemFs>(&clock_, disk_.get(), nfs::MemFs::Options{});
        vfs_->MountRoot(memfs_.get(), memfs_->root_handle());
        server_fs_ = memfs_.get();
        break;
      }
      case Config::kNfsUdp:
      case Config::kNfsTcp: {
        disk_ = std::make_unique<sim::Disk>(&clock_, sim::DiskProfile::Ibm18Es(), &registry_);
        memfs_ = std::make_unique<nfs::MemFs>(&clock_, disk_.get(), nfs::MemFs::Options{});
        program_ = std::make_unique<nfs::NfsProgram>(memfs_.get(), &clock_, &costs_);
        dispatcher_ = std::make_unique<rpc::Dispatcher>(&registry_, &clock_);
        dispatcher_->RegisterProgram(
            nfs::kNfsProgram,
            [this](uint32_t proc, const util::Bytes& args) {
              return program_->HandleWire(proc, args);
            },
            [](uint32_t proc) { return std::string(nfs::ProcName(proc)); }, "NFS3");
        // The server machine is explicit: an admission/execution Host
        // the link (and any additional fleet links) schedules into.
        host_ = std::make_unique<sim::Host>(&clock_, dispatcher_.get(), &registry_);
        link_ = std::make_unique<sim::Link>(&clock_,
                                            config == Config::kNfsUdp
                                                ? sim::LinkProfile::Udp()
                                                : sim::LinkProfile::NfsTcpKernel(),
                                            host_.get(), &registry_);
        transport_ = std::make_unique<rpc::LinkTransport>(link_.get());
        rpc_client_ = std::make_unique<rpc::Client>(
            transport_.get(), nfs::kNfsProgram, &registry_, "NFS3",
            [](uint32_t proc) { return std::string(nfs::ProcName(proc)); });
        nfs_client_ = std::make_unique<nfs::NfsClient>(
            [this](uint32_t proc, const util::Bytes& args) {
              return rpc_client_->Call(proc, args);
            },
            nfs::NfsClient::WireCredentialsEncoder());
        nfs::CacheOptions cache_options;  // Plain NFS3 attribute timeouts.
        cache_options.registry = &registry_;
        cache_options.write_behind = cache.write_behind;
        cache_options.close_to_open = cache.write_behind;
        cached_ = std::make_unique<nfs::CachingFs>(nfs_client_.get(), &clock_, cache_options);
        vfs_->MountRoot(cached_.get(), memfs_->root_handle());
        server_fs_ = memfs_.get();
        break;
      }
      case Config::kSfs:
      case Config::kSfsNoCrypt:
      case Config::kSfsNoCache: {
        // Client keeps a (rarely used) local root; the workload lives on
        // the SFS server.
        disk_ = std::make_unique<sim::Disk>(&clock_, sim::DiskProfile::Ibm18Es(), &registry_);
        memfs_ = std::make_unique<nfs::MemFs>(&clock_, disk_.get(), nfs::MemFs::Options{});
        vfs_->MountRoot(memfs_.get(), memfs_->root_handle());

        authserver_ = std::make_unique<auth::AuthServer>();
        sfs::SfsServer::Options server_options;
        server_options.location = "server.bench";
        server_options.key_bits = 512;
        server_options.allow_cleartext = config == Config::kSfsNoCrypt;
        server_options.registry = &registry_;
        server_options.audit = audit.enabled;
        server_options.audit_batch_records = audit.batch_records;
        sfs_server_ = std::make_unique<sfs::SfsServer>(&clock_, &costs_, server_options,
                                                       authserver_.get());
        server_fs_ = sfs_server_->fs();

        sfs::SfsClient::Options client_options;
        client_options.ephemeral_key_bits = 512;
        client_options.encrypt = config != Config::kSfsNoCrypt;
        client_options.enhanced_caching = config != Config::kSfsNoCache;
        client_options.write_behind = cache.write_behind;
        client_options.registry = &registry_;
        sfs_client_ = std::make_unique<sfs::SfsClient>(
            &clock_, &costs_,
            [this](const std::string&) { return sfs_server_.get(); }, client_options);
        vfs_->EnableSfs(sfs_client_.get());

        // Register the benchmark user and give her agent the key.
        user_key_ = BenchUserKey();
        auth::PublicUserRecord record;
        record.name = "bench";
        record.public_key = user_key_.public_key().Serialize();
        record.credentials = nfs::Credentials::User(1000, {1000});
        authserver_->RegisterUser(record);
        agent_ = std::make_unique<agent::Agent>("bench");
        agent_->AddPrivateKey(user_key_);
        break;
      }
    }
    user_ = vfs::UserContext::For(1000, agent_.get());
  }

  // Absolute path of the working directory for workloads, created here.
  std::string WorkDir() {
    std::string base = IsSfs() ? sfs_server_->Path().FullPath() + "/bench" : "/bench";
    vfs_->Mkdir(user_, base);
    // Exclude mount/auth setup cost from workload timing: benchmarks
    // measure steady-state operation, as the paper does.
    return base;
  }

  // Drops client-side caches (phase separation in the LFS benchmarks);
  // the server's buffer cache stays warm.  No-op for the local config,
  // whose only cache *is* the buffer cache.
  void DropClientCaches() {
    if (cached_ != nullptr) {
      cached_->InvalidateAll();
    }
    if (sfs_client_ != nullptr) {
      auto mount = sfs_client_->Mount(sfs_server_->Path());
      if (mount.ok()) {
        (*mount)->cache()->InvalidateAll();
      }
    }
  }

  // Messages that actually crossed the wire (both directions).  All
  // links publish into this testbed's registry, so one counter covers
  // every configuration.
  uint64_t WireMessages() { return registry_.CounterValue("link.messages"); }

  // Fault injector for lossy-network benchmarks.  Must be called before
  // the first operation (the SFS mount link is created lazily).
  void InstallInterposer(sim::Interposer* interposer) {
    if (link_ != nullptr) {
      link_->set_interposer(interposer);
    }
    if (sfs_client_ != nullptr) {
      sfs_client_->set_interposer(interposer);
    }
  }

  // Timer-driven resends (transit loss) plus stale-reply resends.  These
  // used to be hand-summed from three per-component counters; every
  // layer now also publishes into the registry, which is authoritative.
  uint64_t Retransmissions() {
    return registry_.CounterValue("link.retransmissions") +
           registry_.CounterValue("rpc.client.stale_retries");
  }

  // Requests the server answered from its duplicate-request cache
  // (rpc::Dispatcher's, on plain RPC and the SFS channel alike).
  uint64_t DrcHits() { return registry_.CounterValue("server.drc_hits"); }

  bool IsSfs() const {
    return config_ == Config::kSfs || config_ == Config::kSfsNoCrypt ||
           config_ == Config::kSfsNoCache;
  }

  Config config() const { return config_; }
  sim::Clock* clock() { return &clock_; }
  // The NFS server machine (null for local/SFS configs, which own their
  // service pipelines elsewhere).
  sim::Host* host() { return host_.get(); }
  // This testbed's private metrics registry; every component publishes
  // here, so concurrent testbeds never share counters.
  obs::Registry* registry() { return &registry_; }

  // Turns on span collection for this testbed, wiring the collector to
  // the shared virtual clock.  Call before running a workload; collected
  // spans are at registry()->spans().
  void EnableSpans(size_t capacity = 1 << 20) {
    registry_.spans().Enable(
        [this] { return clock_.now_ns(); },
        [this](uint64_t out[obs::kTimeCategoryCount]) {
          const sim::Clock::CategorySnapshot& charged = clock_.categories();
          for (size_t i = 0; i < obs::kTimeCategoryCount; ++i) {
            out[i] = charged.ns[i];
          }
        },
        capacity);
  }

  // Turns on windowed telemetry for this testbed: an obs::Timeline with
  // the standard track set, sampled by a recurring event on the shared
  // clock.  Call before running a workload; FinalizeTimeline() (or the
  // testbed's destruction order) closes the trailing window and runs
  // the episode annotator.  The testbed's workloads advance the clock
  // in large kApp jumps (lease expiries), so the default window here is
  // 1 s virtual rather than the Timeline's 10 ms — jumps collapse into
  // single catch-up windows either way.
  obs::Timeline* EnableTimeline(uint64_t window_ns = 1'000'000'000) {
    if (timeline_ != nullptr) {
      return timeline_.get();
    }
    obs::Timeline::Options opts;
    opts.window_ns = window_ns;
    timeline_ = std::make_unique<obs::Timeline>(&registry_, opts);
    timeline_->AddRateTrack("msgs", "link.messages");
    timeline_->AddGaugeTrack("in_flight", "rpc.client.in_flight");
    timeline_->AddGaugeTrack("dirty_bytes", "nfs.cache.dirty_bytes");
    timeline_->AddLatencyTrack("rpc", "rpc.client.queue_wait_ns");
    sampler_ = std::make_unique<sim::TimelineSampler>(&clock_, timeline_.get());
    sampler_->Start();
    return timeline_.get();
  }

  // Delivers any pending window edge by polling (testbed workloads run
  // the synchronous stop-and-wait path, which never pumps the event
  // queue); call between workload phases.
  void PollTimeline() {
    if (sampler_ != nullptr) {
      sampler_->Poll();
    }
  }

  // Closes the trailing window and runs the episode annotator; safe to
  // call repeatedly (later calls no-op).
  obs::Timeline* FinalizeTimeline() {
    if (sampler_ != nullptr) {
      sampler_->Finalize();
    }
    return timeline_.get();
  }

  obs::Timeline* timeline() { return timeline_.get(); }

  // Full machine-readable dump: refreshes the time.<category>_ns
  // counters from the clock's ledger, then snapshots every metric.
  std::string ObsSnapshotJson() {
    clock_.ExportTimeCounters(&registry_);
    return registry_.SnapshotJson();
  }
  vfs::Vfs* vfs() { return vfs_.get(); }
  // The SFS server (null for non-SFS configs); audit_overhead uses it
  // to finalize and export the journal.
  sfs::SfsServer* sfs_server() { return sfs_server_.get(); }
  const vfs::UserContext& user() const { return user_; }
  // The server-side file store (for cold-file setup and cache drops).
  nfs::MemFs* server_fs() { return server_fs_; }

 private:
  Config config_;
  // Declared before the components so it outlives them (they cache
  // pointers to its counters).
  obs::Registry registry_;
  sim::Clock clock_;
  sim::CostModel costs_;
  // Windowed telemetry (EnableTimeline); declared after the clock so the
  // sampler can cancel its pending edge before the event queue dies.
  std::unique_ptr<obs::Timeline> timeline_;
  std::unique_ptr<sim::TimelineSampler> sampler_;
  std::unique_ptr<vfs::Vfs> vfs_;
  vfs::UserContext user_;

  std::unique_ptr<sim::Disk> disk_;
  std::unique_ptr<nfs::MemFs> memfs_;
  nfs::MemFs* server_fs_ = nullptr;

  // Plain NFS pieces.
  std::unique_ptr<nfs::NfsProgram> program_;
  std::unique_ptr<rpc::Dispatcher> dispatcher_;
  std::unique_ptr<sim::Host> host_;
  std::unique_ptr<sim::Link> link_;
  std::unique_ptr<rpc::LinkTransport> transport_;
  std::unique_ptr<rpc::Client> rpc_client_;
  std::unique_ptr<nfs::NfsClient> nfs_client_;
  std::unique_ptr<nfs::CachingFs> cached_;

  // SFS pieces.
  std::unique_ptr<auth::AuthServer> authserver_;
  std::unique_ptr<sfs::SfsServer> sfs_server_;
  std::unique_ptr<sfs::SfsClient> sfs_client_;
  crypto::RabinPrivateKey user_key_;
  std::unique_ptr<agent::Agent> agent_;
};

}  // namespace bench

#endif  // SFS_BENCH_TESTBED_H_
