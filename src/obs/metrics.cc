#include "src/obs/metrics.h"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <iomanip>
#include <sstream>

#include "src/obs/span.h"

namespace obs {

// Out of line: metrics.h only forward-declares SpanCollector.
Registry::Registry() : spans_(std::make_unique<SpanCollector>()) {}
Registry::~Registry() = default;

const char* TimeCategoryName(TimeCategory category) {
  switch (category) {
    case TimeCategory::kLink:
      return "link";
    case TimeCategory::kCrypto:
      return "crypto";
    case TimeCategory::kDisk:
      return "disk";
    case TimeCategory::kCpu:
      return "cpu";
    case TimeCategory::kSyscall:
      return "syscall";
    case TimeCategory::kWait:
      return "wait";
    case TimeCategory::kQueue:
      return "queue";
    case TimeCategory::kApp:
      return "app";
    case TimeCategory::kUntracked:
      return "untracked";
  }
  return "?";
}

void Histogram::Record(uint64_t value_ns) {
  // The smallest i with value_ns <= 1000 << i is the bit width of
  // (value_ns - 1) / 1000; the last bucket takes everything above.
  const size_t i =
      value_ns <= 1000
          ? 0
          : std::min<size_t>(std::bit_width((value_ns - 1) / 1000), kNumBuckets - 1);
  buckets_[i].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_ns_.fetch_add(value_ns, std::memory_order_relaxed);
}

double Histogram::MeanNs() const {
  uint64_t n = count();
  return n == 0 ? 0.0 : static_cast<double>(sum_ns()) / static_cast<double>(n);
}

namespace {

// Shared percentile estimator over a plain bucket array; both Histogram
// and HistogramSnapshot delegate here so live and windowed percentiles
// use the identical interpolation.
uint64_t PercentileFromBuckets(const uint64_t* buckets, uint64_t n, double p) {
  if (n == 0) {
    return 0;
  }
  if (p < 0.0) {
    p = 0.0;
  }
  if (p > 1.0) {
    p = 1.0;
  }
  // Rank of the percentile sample, 1-based.
  uint64_t rank = static_cast<uint64_t>(p * static_cast<double>(n - 1)) + 1;
  uint64_t seen = 0;
  for (size_t i = 0; i < Histogram::kNumBuckets; ++i) {
    uint64_t in_bucket = buckets[i];
    seen += in_bucket;
    if (seen < rank) {
      continue;
    }
    // Interpolate linearly inside the winning bucket by the sample's
    // rank among this bucket's counts.  rank == seen (the bucket's last
    // sample) yields the upper bound, matching the old behavior for
    // single-sample buckets.
    uint64_t lo = i == 0 ? 0 : Histogram::BucketBoundNs(i - 1);
    uint64_t hi = Histogram::BucketBoundNs(i);
    if (hi == UINT64_MAX) {
      hi = lo * 2;  // The unbounded bucket has no real upper edge.
    }
    double pos = static_cast<double>(rank - (seen - in_bucket)) /
                 static_cast<double>(in_bucket);
    return lo + static_cast<uint64_t>(pos * static_cast<double>(hi - lo));
  }
  return Histogram::BucketBoundNs(Histogram::kNumBuckets - 1);
}

}  // namespace

uint64_t Histogram::ApproxPercentileNs(double p) const {
  return Snapshot().ApproxPercentileNs(p);
}

HistogramSnapshot Histogram::Snapshot() const {
  HistogramSnapshot snap;
  for (size_t i = 0; i < kNumBuckets; ++i) {
    snap.buckets[i] = bucket(i);
  }
  snap.count = count();
  snap.sum_ns = sum_ns();
  return snap;
}

uint64_t HistogramSnapshot::ApproxPercentileNs(double p) const {
  return PercentileFromBuckets(buckets, count, p);
}

HistogramSnapshot HistogramSnapshot::Delta(
    const HistogramSnapshot& earlier) const {
  HistogramSnapshot d;
  for (size_t i = 0; i < kNumBuckets; ++i) {
    d.buckets[i] = buckets[i] >= earlier.buckets[i]
                       ? buckets[i] - earlier.buckets[i]
                       : 0;
    d.count += d.buckets[i];
  }
  d.sum_ns = sum_ns >= earlier.sum_ns ? sum_ns - earlier.sum_ns : 0;
  return d;
}

Counter* Registry::GetCounter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  return CounterLocked(name);
}

Counter* Registry::CounterLocked(const std::string& name) {
  auto& slot = counters_[name];
  if (slot == nullptr) {
    slot = std::make_unique<Counter>();
  }
  return slot.get();
}

Gauge* Registry::GetGauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = gauges_[name];
  if (slot == nullptr) {
    slot = std::make_unique<Gauge>();
  }
  return slot.get();
}

Histogram* Registry::GetHistogram(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  return HistogramLocked(name);
}

Histogram* Registry::HistogramLocked(const std::string& name) {
  auto& slot = histograms_[name];
  if (slot == nullptr) {
    slot = std::make_unique<Histogram>();
  }
  return slot.get();
}

ProcMetrics* Registry::GetProcMetrics(const std::string& base) {
  std::lock_guard<std::mutex> lock(mu_);
  auto [it, inserted] = proc_families_.try_emplace(base);
  ProcMetrics& m = it->second;
  if (inserted) {
    m.calls = CounterLocked(base + ".calls");
    m.errors = CounterLocked(base + ".errors");
    m.retransmits = CounterLocked(base + ".retransmits");
    m.bytes_sent = CounterLocked(base + ".bytes_sent");
    m.bytes_received = CounterLocked(base + ".bytes_received");
    m.latency = HistogramLocked(base + ".latency_ns");
    for (size_t i = 0; i < kTimeCategoryCount; ++i) {
      m.time[i] = CounterLocked(base + ".time." +
                                TimeCategoryName(static_cast<TimeCategory>(i)) + "_ns");
    }
  }
  return &m;
}

uint64_t Registry::CounterValue(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second->value();
}

int64_t Registry::GaugeValue(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = gauges_.find(name);
  return it == gauges_.end() ? 0 : it->second->value();
}

const Histogram* Registry::FindHistogram(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = histograms_.find(name);
  return it == histograms_.end() ? nullptr : it->second.get();
}

namespace {

// Metric names are dotted identifiers of our own making, but escape
// defensively so the snapshot is valid JSON whatever callers register.
void AppendJsonString(std::ostringstream* out, const std::string& s) {
  *out << '"';
  for (char c : s) {
    switch (c) {
      case '"':
        *out << "\\\"";
        break;
      case '\\':
        *out << "\\\\";
        break;
      case '\n':
        *out << "\\n";
        break;
      case '\t':
        *out << "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          *out << buf;
        } else {
          *out << c;
        }
    }
  }
  *out << '"';
}

}  // namespace

std::string Registry::SnapshotJson() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ostringstream out;
  out << "{\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, counter] : counters_) {
    out << (first ? "\n" : ",\n") << "    ";
    AppendJsonString(&out, name);
    out << ": " << counter->value();
    first = false;
  }
  out << (first ? "" : "\n  ") << "},\n  \"gauges\": {";
  first = true;
  for (const auto& [name, gauge] : gauges_) {
    out << (first ? "\n" : ",\n") << "    ";
    AppendJsonString(&out, name);
    out << ": " << gauge->value();
    first = false;
  }
  out << (first ? "" : "\n  ") << "},\n  \"histograms\": {";
  first = true;
  for (const auto& [name, hist] : histograms_) {
    out << (first ? "\n" : ",\n") << "    ";
    AppendJsonString(&out, name);
    out << ": {\"count\": " << hist->count() << ", \"sum_ns\": " << hist->sum_ns()
        << ", \"mean_ns\": " << static_cast<uint64_t>(hist->MeanNs())
        << ", \"p50_ns\": " << hist->ApproxPercentileNs(0.5)
        << ", \"p90_ns\": " << hist->ApproxPercentileNs(0.9)
        << ", \"p99_ns\": " << hist->ApproxPercentileNs(0.99) << ", \"buckets\": [";
    bool first_bucket = true;
    for (size_t i = 0; i < Histogram::kNumBuckets; ++i) {
      uint64_t n = hist->bucket(i);
      if (n == 0) {
        continue;
      }
      out << (first_bucket ? "" : ", ") << "{\"le_ns\": ";
      if (Histogram::BucketBoundNs(i) == UINT64_MAX) {
        out << "\"inf\"";
      } else {
        out << Histogram::BucketBoundNs(i);
      }
      out << ", \"count\": " << n << "}";
      first_bucket = false;
    }
    out << "]}";
    first = false;
  }
  out << (first ? "" : "\n  ") << "}\n}\n";
  return out.str();
}

std::string Histogram::SnapshotText() const {
  std::ostringstream out;
  out << "count=" << count() << " mean_ns=" << static_cast<uint64_t>(MeanNs())
      << " p50_ns=" << ApproxPercentileNs(0.5)
      << " p90_ns=" << ApproxPercentileNs(0.9)
      << " p99_ns=" << ApproxPercentileNs(0.99);
  return out.str();
}

std::string Registry::SnapshotText() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ostringstream out;
  size_t width = 4;
  for (const auto& [name, counter] : counters_) {
    width = std::max(width, name.size());
  }
  for (const auto& [name, gauge] : gauges_) {
    width = std::max(width, name.size());
  }
  for (const auto& [name, hist] : histograms_) {
    width = std::max(width, name.size());
  }
  for (const auto& [name, counter] : counters_) {
    out << std::left << std::setw(static_cast<int>(width)) << name << "  "
        << counter->value() << "\n";
  }
  for (const auto& [name, gauge] : gauges_) {
    out << std::left << std::setw(static_cast<int>(width)) << name
        << "  " << gauge->value() << " (gauge)\n";
  }
  if (!histograms_.empty()) {
    // Percentile table: the distribution shape at a glance, instead of
    // the raw bucket counts (those remain in SnapshotJson).
    out << std::left << std::setw(static_cast<int>(width)) << "histogram"
        << "  " << std::right << std::setw(10) << "count" << std::setw(12)
        << "mean_ns" << std::setw(12) << "p50_ns" << std::setw(12) << "p90_ns"
        << std::setw(12) << "p99_ns" << "\n";
    for (const auto& [name, hist] : histograms_) {
      out << std::left << std::setw(static_cast<int>(width)) << name << "  "
          << std::right << std::setw(10) << hist->count() << std::setw(12)
          << static_cast<uint64_t>(hist->MeanNs()) << std::setw(12)
          << hist->ApproxPercentileNs(0.5) << std::setw(12)
          << hist->ApproxPercentileNs(0.9) << std::setw(12)
          << hist->ApproxPercentileNs(0.99) << "\n";
    }
  }
  return out.str();
}

Registry* Registry::Default() {
  static Registry* instance = new Registry();
  return instance;
}

void ProcMetricsTable::Init(Registry* registry, std::string prefix) {
  registry_ = registry;
  prefix_ = std::move(prefix);
  procs_.clear();
}

ProcMetrics* ProcMetricsTable::Get(uint32_t proc, const std::string& proc_name) {
  for (const auto& [known, metrics] : procs_) {
    if (known == proc) {
      return metrics;
    }
  }
  ProcMetrics* metrics = registry_->GetProcMetrics(prefix_ + "." + proc_name);
  procs_.emplace_back(proc, metrics);
  return metrics;
}

}  // namespace obs
