// nfs3_fleet: thousands of pipelined NFS3 clients against one serial
// server machine, all on one virtual clock.  The only workload through
// sim::EventQueue, the shared sim::Host and the event-driven rpc::Client
// at scale; it has no crypto.
//
// Each client runs a closed loop of open/close sessions: LOOKUP a file
// chosen by Zipfian popularity, issue a burst of READ/GETATTR operations
// against the handle, think, open the next file.
#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/workloads.h"
#include "src/nfs/program.h"
#include "src/nfs/types.h"
#include "src/rpc/rpc.h"
#include "src/sim/event.h"
#include "src/xdr/xdr.h"

namespace perfbench {
namespace {

constexpr uint32_t kWindow = 16;
constexpr uint32_t kReadPct = 80;
constexpr uint32_t kSessions = 2;
constexpr uint32_t kOpsPerSession = 3;
constexpr uint32_t kFiles = 256;
constexpr uint32_t kFileBytes = 8 * 1024;
constexpr uint32_t kReadBytes = 4 * 1024;
constexpr double kZipfSkew = 0.99;

double UnitUniform(uint64_t* state) {
  return static_cast<double>(SplitMix64(state) >> 11) * (1.0 / 9007199254740992.0);
}

std::string FileName(uint32_t i) { return "f" + std::to_string(i); }

class Fleet {
 public:
  Fleet(const FleetParams& p, bool trace) : p_(p), trace_(trace) {
    disk_ = std::make_unique<sim::Disk>(&clock_, sim::DiskProfile::Ibm18Es());
    memfs_ = std::make_unique<nfs::MemFs>(&clock_, disk_.get(), nfs::MemFs::Options{});
    program_ = std::make_unique<nfs::NfsProgram>(memfs_.get(), &clock_, &costs_);
    dispatcher_ = std::make_unique<rpc::Dispatcher>(&registry_, &clock_);
    RegisterNfs(dispatcher_.get());
    host_ = std::make_unique<sim::Host>(&clock_, dispatcher_.get(), &registry_);

    // The popularity-ranked file set, created before any wire traffic.
    uint64_t s = p_.input_seed;
    const util::Bytes pool = RandomPool(SplitMix64(&s), 2 * kFileBytes * 8);
    const nfs::Credentials root = nfs::Credentials::User(0);
    nfs::Fattr attr;
    nfs::Sattr world;
    world.mode = 0777;
    memfs_->SetAttr(memfs_->root_handle(), root, world, &attr);
    contents_.resize(kFiles);
    for (uint32_t i = 0; i < kFiles; ++i) {
      const size_t from = SplitMix64(&s) % (pool.size() - kFileBytes);
      contents_[i].assign(pool.begin() + static_cast<long>(from),
                          pool.begin() + static_cast<long>(from + kFileBytes));
      nfs::Sattr mode;
      mode.mode = 0666;
      nfs::FileHandle fh;
      memfs_->Create(memfs_->root_handle(), FileName(i), root, mode, &fh, &attr);
      memfs_->Write(fh, root, 0, contents_[i], /*stable=*/true, &attr);
    }
    double mass = 0.0;
    zipf_cdf_.resize(kFiles);
    for (uint32_t i = 0; i < kFiles; ++i) {
      mass += 1.0 / std::pow(static_cast<double>(i + 1), kZipfSkew);
      zipf_cdf_[i] = mass;
    }
    for (double& c : zipf_cdf_) {
      c /= mass;
    }

    stacks_.reserve(p_.clients);
    drivers_.resize(p_.clients);
    for (uint32_t i = 0; i < p_.clients; ++i) {
      // Per-connection Dispatcher (its duplicate-request cache follows
      // this client's seqnos) over the shared program and host.
      auto stack = std::make_unique<Stack>();
      stack->dispatcher = std::make_unique<rpc::Dispatcher>(&registry_, &clock_);
      RegisterNfs(stack->dispatcher.get());
      stack->link = std::make_unique<sim::Link>(&clock_, sim::LinkProfile::Udp(), host_.get(),
                                                &registry_, stack->dispatcher.get());
      stack->transport = std::make_unique<rpc::LinkTransport>(stack->link.get());
      stack->client = std::make_unique<rpc::Client>(
          stack->transport.get(), nfs::kNfsProgram, &registry_, "NFS3",
          [](uint32_t proc) { return std::string(nfs::ProcName(proc)); });
      stack->client->set_window(kWindow);
      stack->client->EnableEventDriven();
      drivers_[i].rpc = stack->client.get();
      drivers_[i].rng = SplitMix64(&s);
      drivers_[i].sessions_left = kSessions;
      stacks_.push_back(std::move(stack));
    }
    total_ops_ = uint64_t{p_.clients} * kSessions * (1 + kOpsPerSession);
  }

  // Runs every client to completion on the shared event loop.  Returns
  // false on deadlock (no events left, ops outstanding).
  bool Run(RepResult* r) {
    out_ = r;
    for (Driver& d : drivers_) {
      StartSession(&d);
    }
    sim::EventQueue* events = clock_.events();
    while (ops_done_ < total_ops_) {
      if (events->empty()) {
        return false;
      }
      Pace();
      if (trace_) {
        const uint64_t t0 = SteadyNs();
        events->RunOne();
        event_host_ns_ += SteadyNs() - t0;
        ++events_timed_;
      } else {
        events->RunOne();
      }
    }
    return true;
  }

  obs::Registry* registry() { return &registry_; }
  sim::Clock* clock() { return &clock_; }
  double host_ns_per_event() const {
    return events_timed_ == 0 ? 0 : static_cast<double>(event_host_ns_) / events_timed_;
  }
  double handle_host_ns_per_call() const {
    return handled_ == 0 ? 0 : static_cast<double>(handle_host_ns_) / handled_;
  }

 private:
  struct Stack {
    std::unique_ptr<rpc::Dispatcher> dispatcher;
    std::unique_ptr<sim::Link> link;
    std::unique_ptr<rpc::LinkTransport> transport;
    std::unique_ptr<rpc::Client> client;
  };
  enum class Kind { kLookup, kRead, kGetAttr };
  struct Driver {
    rpc::Client* rpc = nullptr;
    uint64_t rng = 0;
    uint32_t in_flight = 0;
    uint32_t sessions_left = 0;
    uint32_t session_ops_left = 0;
    uint32_t file = 0;
    nfs::FileHandle fh;
  };

  void RegisterNfs(rpc::Dispatcher* dispatcher) {
    dispatcher->RegisterProgram(
        nfs::kNfsProgram,
        [this](uint32_t proc, const util::Bytes& args) {
          if (!trace_) {
            return program_->HandleWire(proc, args);
          }
          const uint64_t t0 = SteadyNs();
          auto reply = program_->HandleWire(proc, args);
          handle_host_ns_ += SteadyNs() - t0;
          ++handled_;
          return reply;
        },
        [](uint32_t proc) { return std::string(nfs::ProcName(proc)); }, "NFS3");
  }

  uint32_t SampleZipf(uint64_t* rng) {
    const double u = UnitUniform(rng);
    auto it = std::lower_bound(zipf_cdf_.begin(), zipf_cdf_.end(), u);
    return static_cast<uint32_t>(std::min<ptrdiff_t>(it - zipf_cdf_.begin(), kFiles - 1));
  }

  void StartSession(Driver* d) {
    d->file = SampleZipf(&d->rng);
    xdr::Encoder enc;
    cred_.Encode(&enc);
    enc.PutOpaque(memfs_->root_handle());
    enc.PutString(FileName(d->file));
    Issue(d, nfs::kProcLookup, enc.Take(), Kind::kLookup, 0);
  }

  void IssueSessionOps(Driver* d) {
    while (d->session_ops_left > 0 && d->in_flight < kWindow) {
      d->session_ops_left--;
      xdr::Encoder enc;
      cred_.Encode(&enc);
      enc.PutOpaque(d->fh);
      if (UnitUniform(&d->rng) * 100.0 < kReadPct) {
        const uint64_t offset = (SplitMix64(&d->rng) % (kFileBytes / kReadBytes)) * kReadBytes;
        enc.PutUint64(offset);
        enc.PutUint32(kReadBytes);
        Issue(d, nfs::kProcRead, enc.Take(), Kind::kRead, offset);
      } else {
        Issue(d, nfs::kProcGetAttr, enc.Take(), Kind::kGetAttr, 0);
      }
    }
  }

  void Issue(Driver* d, uint32_t proc, util::Bytes args, Kind kind, uint64_t offset) {
    d->in_flight++;
    out_->ops++;
    const uint64_t t0 = clock_.now_ns();
    d->rpc->CallAsync(proc, args, [this, d, t0, kind, offset](util::Result<util::Bytes> reply) {
      OnDone(d, t0, kind, offset, std::move(reply));
    });
  }

  // Checks one reply: NFS status OK, and for READ the file's bytes.
  bool Check(Driver* d, Kind kind, uint64_t offset, const util::Bytes& reply) {
    xdr::Decoder dec(reply);
    auto stat = dec.GetUint32();
    if (!stat.ok() || *stat != static_cast<uint32_t>(nfs::Stat::kOk)) {
      return false;
    }
    if (kind == Kind::kLookup) {
      auto fh = dec.GetOpaque();
      if (!fh.ok()) {
        return false;
      }
      d->fh = *fh;
    } else if (kind == Kind::kRead) {
      auto data = dec.GetOpaque();
      const util::Bytes& want = contents_[d->file];
      if (!data.ok() || data->size() != kReadBytes ||
          !std::equal(data->begin(), data->end(), want.begin() + static_cast<long>(offset))) {
        return false;
      }
      out_->read_bytes += kReadBytes;
    }
    return true;
  }

  void OnDone(Driver* d, uint64_t t0, Kind kind, uint64_t offset,
              util::Result<util::Bytes> reply) {
    out_->op_virt_ns.push_back(clock_.now_ns() - t0);
    ops_done_++;
    d->in_flight--;
    const bool ok = reply.ok() && Check(d, kind, offset, *reply);
    if (!ok) {
      out_->failed++;
      if (kind == Kind::kLookup) {
        // A failed open aborts its session: its data ops never issue.
        ops_done_ += kOpsPerSession;
      }
    } else if (kind == Kind::kLookup) {
      d->session_ops_left = kOpsPerSession;
    }
    if (d->session_ops_left > 0) {
      IssueSessionOps(d);
      return;
    }
    if (d->in_flight > 0) {
      return;
    }
    if (--d->sessions_left == 0) {
      return;
    }
    const uint64_t think_ns = 100'000 + (SplitMix64(&d->rng) & 0x3ffff);
    clock_.events()->Schedule(clock_.now_ns() + think_ns, obs::TimeCategory::kWait,
                              [this, d] { StartSession(d); });
  }

  FleetParams p_;
  bool trace_;
  obs::Registry registry_;
  sim::Clock clock_;
  sim::CostModel costs_ = sim::CostModel::PentiumIII550();
  std::unique_ptr<sim::Disk> disk_;
  std::unique_ptr<nfs::MemFs> memfs_;
  std::unique_ptr<nfs::NfsProgram> program_;
  std::unique_ptr<rpc::Dispatcher> dispatcher_;
  std::unique_ptr<sim::Host> host_;
  std::vector<std::unique_ptr<Stack>> stacks_;
  std::vector<Driver> drivers_;
  std::vector<util::Bytes> contents_;
  std::vector<double> zipf_cdf_;
  const nfs::Credentials cred_ = nfs::Credentials::User(1000, {1000});
  RepResult* out_ = nullptr;
  uint64_t total_ops_ = 0;
  uint64_t ops_done_ = 0;
  uint64_t event_host_ns_ = 0;
  uint64_t events_timed_ = 0;
  uint64_t handle_host_ns_ = 0;
  uint64_t handled_ = 0;
};

}  // namespace

FleetParams FleetParams::FromSeed(uint64_t seed) {
  uint64_t s = seed ^ 0xf1ee7f1eULL;
  FleetParams p;
  p.clients = 4096;
  p.input_seed = SplitMix64(&s);
  return p;
}

RepResult RunFleet(const FleetParams& params, bool trace) {
  RepResult r;
  const double setup_t0 = HostSeconds();
  Fleet fleet(params, trace);
  r.setup_cpu_s = HostSeconds() - setup_t0;

  if (trace) {
    EnableSpans(fleet.registry(), fleet.clock());
  }
  PhaseProbe probe(fleet.registry(), fleet.clock(), trace);
  const double t0 = HostSeconds();
  if (!fleet.Run(&r)) {
    ++r.failed;  // Deadlock: outstanding ops with no event left.
  }
  r.run_cpu_s = HostSeconds() - t0;
  probe.Finish(&r, PhaseProbe::Extras());
  if (trace) {
    r.layers["sim.event.host_ns_per_event"] = fleet.host_ns_per_event();
    r.layers["server.handle_host_ns_per_call"] = fleet.handle_host_ns_per_call();
  }
  return r;
}

}  // namespace perfbench
