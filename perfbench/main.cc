// Entry point of the repository benchmark.
//
//   sfs_perfbench --workload NAME --seed N --seconds S --trace 0|1
//
// Repeats the workload (fresh set-up each time) until S seconds of wall
// time have passed, at least three times.  Host metrics are medians over
// the repetitions, in reference-core seconds (harness.h); virtual metrics come from the first repetition, and
// every later one must reproduce them exactly.  With --trace 0 it prints
// the end-to-end metrics; with --trace 1 it spends half the time untraced
// and half with spans and per-layer host timers on, and prints the
// per-layer metrics, including the tracing overhead.  The last line of
// stdout is one JSON object; the exit code is 1 if any check failed.
#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "perfbench/workloads.h"

namespace {

using perfbench::RepResult;

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

const std::vector<std::pair<const char*, const char*>>& PerLayerUnits() {
  static const std::vector<std::pair<const char*, const char*>> kUnits = {
      {"vfs.host_call_p50_us", "us"},
      {"vfs.host_call_p99_us", "us"},
      {"nfs.cache.rpcs_per_op", "ratio"},
      {"nfs.cache.virt_self_us", "us"},
      {"sfs.chan.msgs_per_op", "ratio"},
      {"sfs.chan.bytes_per_msg", "B"},
      {"sfs.chan.virt_self_us", "us"},
      {"sfs.chan.seal_open_host_ns_per_msg", "ns"},
      {"sfs.chan.seal_open_host_ns_per_kb", "ns"},
      {"crypto.virt_share", "ratio"},
      {"crypto.keygen_host_ms", "ms"},
      {"sfskey.srp_fetch_host_ms", "ms"},
      {"sfs.mount.host_ms", "ms"},
      {"sfs.mount.virt_ms", "ms"},
      {"auth.rejections", "count"},
      {"rpc.calls_per_op", "ratio"},
      {"rpc.retransmissions_per_kop", "ratio"},
      {"rpc.unmatched_replies", "count"},
      {"rpc.virt_self_us", "us"},
      {"sim.event.events_per_op", "ratio"},
      {"sim.event.host_ns_per_event", "ns"},
      {"link.msgs_per_op", "ratio"},
      {"link.bytes_per_user_byte", "ratio"},
      {"link.virt_share", "ratio"},
      {"server.queue_wait_p50_us", "us"},
      {"server.queue_wait_p99_us", "us"},
      {"server.shed_per_kop", "ratio"},
      {"server.busy_share", "ratio"},
      {"server.handle_host_ns_per_call", "ns"},
      {"server.drc_hits_per_kop", "ratio"},
      {"server.virt_self_us", "us"},
      {"disk.virt_share", "ratio"},
      {"disk.ops_per_op", "ratio"},
      {"obs.trace_overhead_ratio", "ratio"},
      {"span.dropped", "count"},
      {"op_fail_ratio", "ratio"},
      {"virt_op_samples", "count"},
      {"host_read_MBps", "MB/s"},
      {"host_write_MBps", "MB/s"},
      {"virt_read_MBps", "MB/s"},
      {"virt_write_MBps", "MB/s"},
  };
  return kUnits;
}

std::function<RepResult(bool)> WorkloadFor(const std::string& name, uint64_t seed) {
  using namespace perfbench;
  if (name == "sfs_bulk_rw") {
    return [p = BulkParams::FromSeed(seed)](bool trace) { return RunBulkRw(p, trace); };
  }
  if (name == "sfs_small_files") {
    return [p = SmallParams::FromSeed(seed)](bool trace) { return RunSmallFiles(p, trace); };
  }
  if (name == "nfs3_fleet") {
    return [p = FleetParams::FromSeed(seed)](bool trace) { return RunFleet(p, trace); };
  }
  if (name == "sfs_login") {
    return [p = LoginParams::FromSeed(seed)](bool trace) { return RunLogin(p, trace); };
  }
  return nullptr;
}

// num / den, or 0 when there is nothing to divide by (a phase or an op
// kind the workload does not have).
double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

// True when `b` charged exactly the virtual time `a` did.
bool SameVirtual(const RepResult& a, const RepResult& b) {
  return a.op_virt_ns == b.op_virt_ns && a.virt_ns == b.virt_ns &&
         a.read_virt_ns == b.read_virt_ns && a.write_virt_ns == b.write_virt_ns &&
         a.read_bytes == b.read_bytes && a.write_bytes == b.write_bytes;
}

// Repetitions of one mode, reduced as they complete.
struct Reps {
  RepResult first;  // Holds the virtual reference samples.
  size_t count = 0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  bool deterministic = true;
  bool ledger_ok = true;
  bool drop_first = true;
  std::vector<double> setup_s;
  std::vector<double> run_cpu_s;
  std::vector<double> ops_per_host_s;
  std::vector<double> read_MBps;
  std::vector<double> write_MBps;
  std::map<std::string, std::vector<double>> layers;

  void Add(RepResult r, const RepResult* reference) {
    attempted += r.ops;
    failed += r.failed;
    ledger_ok = ledger_ok && r.ledger_ok;
    setup_s.push_back(r.setup_cpu_s);
    // The first measured phase of a process runs on a cold heap and
    // caches; host rates come from the later repetitions.
    if (count > 0 || !drop_first) {
      run_cpu_s.push_back(r.run_cpu_s);
      ops_per_host_s.push_back(static_cast<double>(r.ops) / r.run_cpu_s);
      read_MBps.push_back(Ratio(r.read_bytes / 1e6, r.read_cpu_s));
      write_MBps.push_back(Ratio(r.write_bytes / 1e6, r.write_cpu_s));
    }
    for (const auto& [name, value] : r.layers) {
      layers[name].push_back(value);
    }
    if (reference != nullptr && !SameVirtual(*reference, r)) {
      deterministic = false;
    }
    if (count++ == 0) {
      first = std::move(r);
    }
  }
};

double SteadySeconds() { return static_cast<double>(perfbench::SteadyNs()) * 1e-9; }

// Runs repetitions until `budget_s` of wall time has passed (at least
// `min_reps`), checking each against the first.
Reps Repeat(const std::function<RepResult(bool)>& run, bool trace, double budget_s,
            size_t min_reps, bool drop_first) {
  Reps reps;
  reps.drop_first = drop_first;
  const double t0 = SteadySeconds();
  while (reps.count < min_reps || SteadySeconds() - t0 < budget_s) {
    // Bracket the repetition with reference units, so its set-up (where
    // nothing paces) and a short phase still have a scale.
    const perfbench::ReferenceTally before = perfbench::Reference();
    perfbench::RunReferenceUnit();
    RepResult r = run(trace);
    perfbench::RunReferenceUnit();
    const double scale = perfbench::ReferenceScale(before, perfbench::Reference());
    for (double* s : {&r.setup_cpu_s, &r.run_cpu_s, &r.read_cpu_s, &r.write_cpu_s}) {
      *s *= scale;
    }
    std::fprintf(stderr, "rep %zu%s: set-up %.4f s, %.2f ops/s, reference scale %.4f\n",
                 reps.count, trace ? " (traced)" : "", r.setup_cpu_s,
                 static_cast<double>(r.ops) / r.run_cpu_s, scale);
    reps.Add(std::move(r), reps.count > 0 ? &reps.first : nullptr);
    // Hard stop: a run must end well within three minutes.
    if (SteadySeconds() - t0 > 4 * budget_s + 60) {
      break;
    }
  }
  return reps;
}

std::string Number(double v) {
  char buf[64];
  auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB.
}

void Usage() {
  std::fprintf(stderr,
               "usage: sfs_perfbench --workload sfs_bulk_rw|sfs_small_files|nfs3_fleet|sfs_login"
               " --seed N --seconds S --trace 0|1\n");
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      trace = std::strcmp(value, "1") == 0;
    } else {
      Usage();
      return 2;
    }
  }
  // Virtual metrics are exact only under the pinned paper profile.
  if (const char* model = std::getenv("SFS_COST_MODEL");
      model != nullptr && std::strcmp(model, "calibrated") == 0) {
    std::fprintf(stderr, "SFS_COST_MODEL=calibrated is refused: virtual metrics are defined "
                         "under the pinned p3-550 cost model\n");
    return 2;
  }
  const std::function<RepResult(bool)> run = WorkloadFor(workload, seed);
  if (!run || seconds <= 0) {
    Usage();
    return 2;
  }

  // Untraced repetitions (all of the time, or half when tracing).
  Reps plain = Repeat(run, false, trace ? seconds / 2 : seconds, 3, /*drop_first=*/true);
  const RepResult& ref = plain.first;
  std::vector<uint64_t> samples = ref.op_virt_ns;
  const double tail = perfbench::TailPercentile(samples.size());
  std::vector<Metric> metrics;
  uint64_t attempted = plain.attempted;
  uint64_t failed = plain.failed;
  bool correct = plain.deterministic && plain.ledger_ok;
  std::vector<std::string> problems;
  if (!plain.deterministic) {
    problems.push_back("repetitions of one seed charged different virtual time");
  }
  if (!plain.ledger_ok) {
    problems.push_back("clock categories do not sum to now_ns");
  }

  if (!trace) {
    metrics = {
        {"setup_s", perfbench::Median(plain.setup_s), "s"},
        {"ops_per_host_s", perfbench::Median(plain.ops_per_host_s), "ops/s"},
        {"virt_op_p50_us", perfbench::Percentile(&samples, 0.50) / 1e3, "us"},
        {"virt_op_p99_us", perfbench::Percentile(&samples, tail) / 1e3, "us"},
        {"virt_ops_per_s", static_cast<double>(ref.ops) * 1e9 / static_cast<double>(ref.virt_ns),
         "ops/s"},
        {"peak_rss_mb", PeakRssMb(), "MB"},
    };
  } else {
    // Traced calls carry span contexts on the wire, so traced virtual
    // time differs slightly from untraced; it must still repeat exactly.
    // The untraced repetitions ran first, so none of these is cold.
    Reps traced = Repeat(run, true, seconds / 2, 1, /*drop_first=*/false);
    attempted += traced.attempted;
    failed += traced.failed;
    if (!traced.deterministic || !traced.ledger_ok) {
      correct = false;
      problems.push_back("traced repetitions charged different virtual time or broke the ledger");
    }
    std::map<std::string, double> layer;
    for (const auto& [name, values] : traced.layers) {
      layer[name] = perfbench::Median(values);
    }
    double dropped = 0;
    for (double d : traced.layers["span.dropped"]) {
      dropped = std::max(dropped, d);
    }
    layer["span.dropped"] = dropped;
    if (dropped != 0) {
      correct = false;
      problems.push_back("spans were dropped; raise the collector's capacity");
    }
    layer["obs.trace_overhead_ratio"] =
        perfbench::Median(traced.run_cpu_s) / perfbench::Median(plain.run_cpu_s);
    layer["op_fail_ratio"] = Ratio(plain.failed, plain.attempted);
    layer["virt_op_samples"] = static_cast<double>(ref.op_virt_ns.size());
    layer["host_read_MBps"] = perfbench::Median(plain.read_MBps);
    layer["host_write_MBps"] = perfbench::Median(plain.write_MBps);
    layer["virt_read_MBps"] = Ratio(ref.read_bytes * 1e3, ref.read_virt_ns);
    layer["virt_write_MBps"] = Ratio(ref.write_bytes * 1e3, ref.write_virt_ns);
    for (const auto& [name, unit] : PerLayerUnits()) {
      metrics.push_back({name, layer[name], unit});
    }
  }
  if (failed != 0) {
    correct = false;
    problems.push_back(std::to_string(failed) + " operations failed or returned wrong bytes");
  }

  std::printf("workload %s seed %llu: %zu untraced repetitions, %llu ops in the first, "
              "virtual tail percentile p%s over %zu samples\n",
              workload.c_str(), static_cast<unsigned long long>(seed), plain.count,
              static_cast<unsigned long long>(ref.ops), Number(tail * 100).c_str(),
              ref.op_virt_ns.size());
  for (const Metric& m : metrics) {
    std::printf("  %-36s %16s %s\n", m.name.c_str(), Number(m.value).c_str(), m.unit);
  }
  for (const std::string& p : problems) {
    std::printf("CHECK FAILED: %s\n", p.c_str());
  }
  std::string json = "{\"correct\": " + std::string(correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    json += (i == 0 ? "\"" : ", \"") + metrics[i].name + "\": {\"value\": " +
            Number(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return correct ? 0 : 1;
}
