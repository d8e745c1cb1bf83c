// Shared measurement plumbing for the repository benchmark: host timers,
// per-op virtual-latency logs, the wired SFS client/server pair the
// sfs_* workloads drive, and the per-layer report computed from spans.
//
// Two currencies, never mixed: host time is what this build's C++ costs
// (thread CPU time rescaled to a reference core, or steady_clock for
// per-call timers); virtual time is
// what sim::CostModel charges on the discrete-event clock, pinned to the
// paper's p3-550 profile so it is exactly reproducible.
#ifndef SFS_PERFBENCH_HARNESS_H_
#define SFS_PERFBENCH_HARNESS_H_

#include <chrono>
#include <cstdint>
#include <ctime>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/agent/agent.h"
#include "src/auth/authserver.h"
#include "src/crypto/prng.h"
#include "src/nfs/memfs.h"
#include "src/obs/metrics.h"
#include "src/obs/span.h"
#include "src/sfs/client.h"
#include "src/sfs/server.h"
#include "src/sim/clock.h"
#include "src/sim/cost_model.h"
#include "src/sim/disk.h"
#include "src/sim/network.h"
#include "src/vfs/vfs.h"

namespace perfbench {

// Host CPU time of the calling thread, in seconds.
inline double ThreadCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

inline uint64_t SteadyNs() {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   std::chrono::steady_clock::now().time_since_epoch())
                                   .count());
}

// The reference core.  The benchmark runs on shared machines whose speed
// drifts: thread CPU time of one repetition moved by a third within
// minutes on a 4-core VM.  So the workloads call Pace() at op boundaries,
// which every kPaceIntervalNs of wall time runs one unit of a fixed
// integer kernel (multiply-accumulate, rotate-xor rounds, a 64 KiB copy)
// that belongs to the benchmark, not to the program.  HostSeconds() leaves
// the kernel's time out, and each repetition's host times are rescaled to
// a core on which one unit takes kReferenceUnitS (see ReferenceScale), so
// a slow spell slows the kernel and the workload alike and cancels out.
constexpr uint64_t kPaceIntervalNs = 20'000'000;
constexpr double kReferenceUnitS = 0.5e-3;

// Runs one reference unit if kPaceIntervalNs passed since the last one.
void Pace();
// Runs one reference unit now.
void RunReferenceUnit();

// Thread CPU seconds spent outside reference units.
double HostSeconds();

// Reference units run so far, and their thread CPU seconds.
struct ReferenceTally {
  uint64_t units = 0;
  double cpu_s = 0;
};
ReferenceTally Reference();

// Factor that turns host seconds measured between `before` and `after`
// into reference-core seconds: kReferenceUnitS over the seconds a unit
// took in that interval.
double ReferenceScale(const ReferenceTally& before, const ReferenceTally& after);

// Splitmix64: the workloads' input generator.  Everything a workload
// feeds the program comes from one of these, seeded from --seed.
inline uint64_t SplitMix64(uint64_t* state) {
  uint64_t z = (*state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4568bULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// Uniform in [lo, hi].
inline uint64_t UniformIn(uint64_t* state, uint64_t lo, uint64_t hi) {
  return lo + SplitMix64(state) % (hi - lo + 1);
}

// Seeded random bytes, generated once per repetition during set-up so
// the measured phase copies instead of generating.
util::Bytes RandomPool(uint64_t seed, size_t len);

// Nearest-rank percentile of `v` (sorted in place).
double Percentile(std::vector<uint64_t>* v, double p);

// The tail percentile the benchmark reports: p99 when at least 1000
// samples leave ten beyond it, otherwise the highest percentile with at
// least ten samples beyond it.
double TailPercentile(size_t samples);

double Median(std::vector<double> v);

// Everything one repetition of a workload measured.  A repetition is a
// full set-up followed by the measured phase on fresh state, so every
// repetition of one seed charges identical virtual time.
struct RepResult {
  // Host time (HostSeconds; main rescales it to reference-core seconds).
  double setup_cpu_s = 0;      // Key generation, population, first mount.
  double run_cpu_s = 0;        // The measured phase.
  double read_cpu_s = 0;       // Part of run_cpu_s spent in read phases.
  double write_cpu_s = 0;      // Part of run_cpu_s spent in write phases.
  // Work.
  uint64_t ops = 0;            // vfs calls, fleet RPCs, or logins.
  uint64_t failed = 0;         // Error, wrong bytes, or anonymous login.
  uint64_t read_bytes = 0;
  uint64_t write_bytes = 0;
  // Virtual time.
  std::vector<uint64_t> op_virt_ns;  // One sample per op (or op group).
  uint64_t virt_ns = 0;              // Measured phase, minus deliberate idle.
  uint64_t read_virt_ns = 0;
  uint64_t write_virt_ns = 0;
  bool ledger_ok = true;             // Clock categories sum to now_ns.
  // Per-layer metrics; filled only by traced repetitions.
  std::map<std::string, double> layers;
};

// Times each public call the workload makes: virtual latency always,
// host latency (steady_clock) only in traced repetitions.  Each call is
// one op; its virtual latency is one sample, unless a group is open, in
// which case the group's calls together make one sample.
class OpLog {
 public:
  OpLog(const sim::Clock* clock, RepResult* out, bool host_timing)
      : clock_(clock), out_(out), host_timing_(host_timing) {}

  void BeginGroup() {
    grouped_ = true;
    group_v0_ = clock_->now_ns();
  }
  void EndGroup() {
    grouped_ = false;
    out_->op_virt_ns.push_back(clock_->now_ns() - group_v0_);
  }

  template <typename F>
  auto Time(F&& call) -> decltype(call()) {
    Pace();
    const uint64_t v0 = clock_->now_ns();
    const uint64_t h0 = host_timing_ ? SteadyNs() : 0;
    auto result = call();
    if (host_timing_) {
      host_ns_.push_back(SteadyNs() - h0);
    }
    if (!grouped_) {
      out_->op_virt_ns.push_back(clock_->now_ns() - v0);
    }
    ++out_->ops;
    if (!result.ok()) {
      ++out_->failed;
    }
    return result;
  }

  // A check the workload made on an op's output (wrong bytes).
  void Fail() { ++out_->failed; }

  std::vector<uint64_t>* host_ns() { return &host_ns_; }

 private:
  const sim::Clock* clock_;
  RepResult* out_;
  bool host_timing_;
  bool grouped_ = false;
  uint64_t group_v0_ = 0;
  std::vector<uint64_t> host_ns_;
};

// Records the size of every frame that crosses an SFS connection, in
// both directions, without altering it.  The traced run replays these
// sizes through sfs::ChannelCipher to price seal/open in host time.
class FrameLog : public sim::Interposer {
 public:
  util::Result<util::Bytes> OnRequest(util::Bytes request) override {
    sizes_.push_back(request.size());
    return request;
  }
  util::Result<util::Bytes> OnResponse(util::Bytes response) override {
    sizes_.push_back(response.size());
    return response;
  }
  const std::vector<size_t>& sizes() const { return sizes_; }
  void Clear() { sizes_.clear(); }

 private:
  std::vector<size_t> sizes_;
};

// One SFS client machine and one SFS server on a shared virtual clock,
// with one registered user whose agent holds the user's key: the paper's
// §4.1 testbed in its SFS configuration, keyed with the same seeds as the
// repository's figure benchmarks (so it drives exactly the stack behind
// the committed figures, and set-up cost does not depend on --seed).
class SfsBed {
 public:
  explicit SfsBed(sim::Interposer* interposer);

  // Creates the workload directory on the server.  As the first /sfs
  // access it triggers the automount: HostID check, key negotiation and
  // user authentication.
  util::Status MakeWorkDir();
  const std::string& work_dir() const { return work_dir_; }

  // Drops the client's caches; the server's stay warm.
  void DropClientCaches();

  // True when the mount holds a non-anonymous authno for the user.
  bool UserAuthenticated();

  sim::Clock* clock() { return &clock_; }
  obs::Registry* registry() { return &registry_; }
  vfs::Vfs* vfs() { return vfs_.get(); }
  const vfs::UserContext& user() const { return user_; }
  double keygen_host_ms() const { return keygen_host_ms_; }

 private:
  // Declared first so it outlives the components caching its counters.
  obs::Registry registry_;
  sim::Clock clock_;
  sim::CostModel costs_ = sim::CostModel::PentiumIII550();
  std::unique_ptr<vfs::Vfs> vfs_;
  vfs::UserContext user_;
  std::unique_ptr<sim::Disk> disk_;
  std::unique_ptr<nfs::MemFs> local_fs_;
  std::unique_ptr<auth::AuthServer> authserver_;
  std::unique_ptr<sfs::SfsServer> server_;
  std::unique_ptr<sfs::SfsClient> client_;
  std::unique_ptr<agent::Agent> agent_;
  std::string work_dir_;
  double keygen_host_ms_ = 0;
};

// Enables span collection on `registry`, reading time from `clock`.
void EnableSpans(obs::Registry* registry, sim::Clock* clock);

// Registry counters the per-layer report differences across the
// measured phase.
struct CounterSnap {
  uint64_t link_messages = 0;
  uint64_t link_bytes = 0;
  uint64_t retransmissions = 0;  // link.retransmissions + rpc.client.stale_retries.
  uint64_t unmatched_replies = 0;
  uint64_t drc_hits = 0;
  uint64_t shed = 0;
  uint64_t queue_waits = 0;      // Samples in server.queue_wait_ns.

  static CounterSnap Take(const obs::Registry& registry);
  CounterSnap Minus(const CounterSnap& earlier) const;
};

// Brackets a workload's measured phase: snapshots the registry, the
// clock ledger and the event count at construction; Finish() checks the
// ledger and, when `trace` is on, takes the spans and fills the
// per-layer metrics.  Construct it after set-up, once spans are on.
class PhaseProbe {
 public:
  PhaseProbe(obs::Registry* registry, sim::Clock* clock, bool trace);

  struct Extras {
    const std::vector<uint64_t>* vfs_host_ns = nullptr;
    const std::vector<size_t>* frame_sizes = nullptr;
    uint64_t idle_ns = 0;  // Deliberate clock advances (lease expiry).
  };
  // Sets r->virt_ns and r->ledger_ok; fills r->layers when tracing.
  void Finish(RepResult* r, const Extras& extras);

 private:
  obs::Registry* registry_;
  sim::Clock* clock_;
  bool trace_;
  CounterSnap counters_;
  sim::Clock::CategorySnapshot charged_;
  uint64_t events_ = 0;
  uint64_t start_ns_ = 0;
};

}  // namespace perfbench

#endif  // SFS_PERFBENCH_HARNESS_H_
