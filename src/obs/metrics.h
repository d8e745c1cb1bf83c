// Process-wide metrics registry: named counters and fixed-bucket latency
// histograms, cheap enough to stay enabled in benchmarks.
//
// The paper's evaluation (§4, Figures 5-9) is built on per-RPC
// breakdowns — which procedures a workload issues and what each costs in
// network, crypto, and disk time.  This registry is where every layer
// (sim::Link, rpc::Client/Dispatcher, sfs::ServerAuditor,
// nfs::NfsProgram) publishes those numbers, replacing the ad-hoc
// counters that used to be hand-summed in bench/testbed.h.
//
// Concurrency: increments are relaxed atomic adds — no locks, no
// allocation on the hot path.  Metric *creation* (GetCounter /
// GetHistogram) takes a mutex and may allocate; callers cache the
// returned pointer, which stays valid for the registry's lifetime.
#ifndef SFS_SRC_OBS_METRICS_H_
#define SFS_SRC_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace obs {

// Where a nanosecond of virtual time was charged.  sim::Clock accounts
// every Advance() against one of these; the per-category totals become
// the time.<category>_ns counters in snapshots and must sum to the
// clock's total (see docs/OBSERVABILITY.md).
enum class TimeCategory : uint8_t {
  kLink = 0,   // Wire transit: latency + bandwidth + per-message overhead.
  kCrypto,     // Symmetric seal/open and public-key operations.
  kDisk,       // Disk mechanics: seeks, transfers, metadata updates.
  kCpu,        // User-level daemon crossings, copies, server op processing.
  kSyscall,    // Local system-call overhead (VFS entry).
  kWait,       // Retransmission timeouts spent waiting out lost messages.
  kQueue,      // Server admission-queue wait (overload).  Rarely lands on
               // the global ledger — queue wait overlaps the service of
               // whatever the server is busy with, and the single shared
               // timeline charges each nanosecond once — but spans and
               // the server.queue_wait_ns histogram report it per
               // request (docs/OBSERVABILITY.md §"time.queue").
  kApp,        // Application CPU simulated by workloads (compile phases).
  kUntracked,  // Legacy untagged Advance() calls; ~0 on instrumented paths.
};
inline constexpr size_t kTimeCategoryCount = 9;
const char* TimeCategoryName(TimeCategory category);

// Monotonic counter.  Increment is a relaxed atomic add; Set exists for
// exported gauges (e.g. copying clock totals into a snapshot).
class Counter {
 public:
  void Increment(uint64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  void Set(uint64_t value) { value_.store(value, std::memory_order_relaxed); }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

// Last-value instrument for quantities that go up *and* down: queue
// depths, in-flight call counts, dirty buffer bytes.  Unlike Counter,
// a Gauge is signed and its Set/Add are not monotonic; snapshots report
// the instantaneous value, never a rate.
class Gauge {
 public:
  void Set(int64_t value) { value_.store(value, std::memory_order_relaxed); }
  void Add(int64_t delta) { value_.fetch_add(delta, std::memory_order_relaxed); }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

// Plain-value copy of a Histogram at one instant.  Two snapshots of the
// same histogram can be diffed (Delta) to get the samples recorded in
// between — the windowed-percentile path used by obs::Timeline, with no
// second registry and no reset of the live histogram.
struct HistogramSnapshot {
  static constexpr size_t kNumBuckets = 28;

  uint64_t buckets[kNumBuckets] = {};
  uint64_t count = 0;
  uint64_t sum_ns = 0;

  double MeanNs() const {
    return count == 0 ? 0.0
                      : static_cast<double>(sum_ns) / static_cast<double>(count);
  }
  // Same estimator as Histogram::ApproxPercentileNs, over this
  // snapshot's buckets.
  uint64_t ApproxPercentileNs(double p) const;
  // This snapshot minus an `earlier` snapshot of the same histogram:
  // exactly the samples recorded between the two.  Saturates at zero
  // defensively (snapshots of a live histogram are monotone).
  HistogramSnapshot Delta(const HistogramSnapshot& earlier) const;
};

// Fixed-bucket latency histogram.  Bucket i counts samples with
// value <= BucketBoundNs(i); bounds double from 1us, the last bucket is
// unbounded.  Everything is relaxed atomics: Record never locks or
// allocates.
class Histogram {
 public:
  static constexpr size_t kNumBuckets = HistogramSnapshot::kNumBuckets;

  // Upper bound (inclusive) of bucket i: 1us << i, except the last
  // bucket which absorbs everything larger (~2.2 virtual minutes).
  static uint64_t BucketBoundNs(size_t i) {
    return i + 1 >= kNumBuckets ? UINT64_MAX : uint64_t{1000} << i;
  }

  void Record(uint64_t value_ns);

  uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  uint64_t sum_ns() const { return sum_ns_.load(std::memory_order_relaxed); }
  uint64_t bucket(size_t i) const {
    return buckets_[i].load(std::memory_order_relaxed);
  }

  double MeanNs() const;
  // Estimate of the p-th percentile sample (p in [0, 1]); 0 when empty.
  // Linearly interpolates within the winning bucket by the sample's rank
  // among that bucket's counts, so a lone sample still reports the
  // bucket's upper bound but dense buckets resolve finer than 2×.
  uint64_t ApproxPercentileNs(double p) const;

  // Consistent-enough copy of the current state (relaxed loads; exact
  // under the single-threaded simulator).
  HistogramSnapshot Snapshot() const;
  // Samples recorded since `earlier` was taken.
  HistogramSnapshot Delta(const HistogramSnapshot& earlier) const {
    return Snapshot().Delta(earlier);
  }

  // One-line human-readable summary: count, mean, and the p50/p90/p99
  // estimates — the distribution shape, not the raw bucket counts.
  std::string SnapshotText() const;

 private:
  std::atomic<uint64_t> buckets_[kNumBuckets] = {};
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_ns_{0};
};

// Per-procedure metric family ("<prefix>.<PROC>.*"): call/error/byte
// counters and a latency histogram.
struct ProcMetrics {
  Counter* calls = nullptr;
  Counter* errors = nullptr;
  Counter* retransmits = nullptr;
  Counter* bytes_sent = nullptr;
  Counter* bytes_received = nullptr;
  Histogram* latency = nullptr;
};

// Named metrics for one process (or one testbed).  Also owns the span
// collector — one handle threads the whole observability subsystem
// through a stack.
class SpanCollector;

class Registry {
 public:
  Registry();
  ~Registry();
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  // Get-or-create.  The returned pointer is stable for the registry's
  // lifetime; cache it rather than re-resolving per increment.
  Counter* GetCounter(const std::string& name);
  Gauge* GetGauge(const std::string& name);
  Histogram* GetHistogram(const std::string& name);
  // The procedure family named `base` ("rpc.client.NFS3.READ"): its six
  // metrics are created on the first request and the same family is
  // returned to every later one.
  ProcMetrics* GetProcMetrics(const std::string& base);

  // Read-side lookups; 0 / nullptr when the metric was never created.
  uint64_t CounterValue(const std::string& name) const;
  int64_t GaugeValue(const std::string& name) const;
  const Histogram* FindHistogram(const std::string& name) const;

  // Machine-readable dump:
  // {"counters": {...}, "gauges": {...}, "histograms": {...}}.
  // Histograms list only their nonzero buckets.
  std::string SnapshotJson() const;
  // Human-readable dump, one metric per line.
  std::string SnapshotText() const;

  // The registry's span collector (src/obs/span.h); disabled until a
  // harness calls spans().Enable() with clock callbacks.  Held by
  // pointer so this header need not see the span types.
  SpanCollector& spans() { return *spans_; }

  // Shared fallback for components constructed without an explicit
  // registry (the "process-wide" registry).
  static Registry* Default();

 private:
  Counter* CounterLocked(const std::string& name);
  Histogram* HistogramLocked(const std::string& name);

  mutable std::mutex mu_;  // Guards the maps, not the metric values.
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
  std::map<std::string, ProcMetrics> proc_families_;  // By family base name.
  std::unique_ptr<SpanCollector> spans_;
};

// Caches one caller's ProcMetrics per procedure number under one name
// prefix (e.g. "rpc.client.NFS3").  The families themselves belong to the
// registry, built once however many clients and dispatchers share the
// prefix: a procedure's first Get here is one registry lookup, later ones
// a scan of the few procedures this caller has used.
class ProcMetricsTable {
 public:
  ProcMetricsTable() = default;

  void Init(Registry* registry, std::string prefix);
  bool initialized() const { return registry_ != nullptr; }

  // `proc_name` names the family on first sight of `proc` (the existing
  // proc-name resolvers plug in here).
  ProcMetrics* Get(uint32_t proc, const std::string& proc_name);

 private:
  Registry* registry_ = nullptr;
  std::string prefix_;
  std::vector<std::pair<uint32_t, ProcMetrics*>> procs_;
};

}  // namespace obs

#endif  // SFS_SRC_OBS_METRICS_H_
