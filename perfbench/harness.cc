#include "perfbench/harness.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <unordered_map>

#include "src/sfs/proto.h"
#include "src/sfs/session.h"
#include "src/sim/event.h"

namespace perfbench {
namespace {

// The reference core's state; the benchmark runs on one thread.
struct ReferenceState {
  ReferenceTally tally;
  uint64_t last_ns = 0;
  uint32_t calls = 0;
  util::Bytes src = util::Bytes(64 * 1024, 0x5a);
  util::Bytes dst = util::Bytes(64 * 1024);
};

ReferenceState& State() {
  static ReferenceState state;
  return state;
}

}  // namespace

void RunReferenceUnit() {
  ReferenceState& st = State();
  const double t0 = ThreadCpuSeconds();
  uint64_t a[8];
  uint64_t b[8];
  for (int i = 0; i < 8; ++i) {
    a[i] = 0x9e3779b97f4a7c15ULL * static_cast<uint64_t>(i + 1);
    b[i] = ~a[i];
  }
  for (int round = 0; round < 32; ++round) {
    // Bignum-like: 8x8-limb multiply-accumulate.
    unsigned __int128 acc = 0;
    for (int k = 0; k < 200; ++k) {
      for (int i = 0; i < 8; ++i) {
        for (int j = 0; j < 8; ++j) {
          acc += static_cast<unsigned __int128>(a[i]) * b[j];
        }
      }
      a[k & 7] ^= static_cast<uint64_t>(acc);
      b[(k + 3) & 7] += static_cast<uint64_t>(acc >> 64);
      asm volatile("" : : "r"(a), "r"(b) : "memory");
    }
    // Hash-like: SHA-1-style rotate/xor/add rounds.
    uint32_t h0 = 0x67452301;
    uint32_t h1 = 0xefcdab89;
    uint32_t h2 = 0x98badcfe;
    for (uint32_t k = 0; k < 4000; ++k) {
      const uint32_t t = ((h0 << 5) | (h0 >> 27)) + (h1 ^ h2) + 0x5a827999U + k;
      h2 = (h1 << 30) | (h1 >> 2);
      h1 = h0;
      h0 = t;
    }
    asm volatile("" : : "r"(h0), "r"(h1), "r"(h2) : "memory");
    // Copy-like: one pass over 64 KiB.
    std::memcpy(st.dst.data(), st.src.data(), st.src.size());
    st.src[static_cast<size_t>(round)] = st.dst[st.dst.size() - 1 - static_cast<size_t>(round)];
    asm volatile("" : : "r"(st.dst.data()) : "memory");
  }
  st.tally.cpu_s += ThreadCpuSeconds() - t0;
  ++st.tally.units;
  st.last_ns = SteadyNs();
}

void Pace() {
  ReferenceState& st = State();
  // Read the clock on every fourth call only: fleet events are ~1 us.
  if ((++st.calls & 3) == 0 && SteadyNs() - st.last_ns >= kPaceIntervalNs) {
    RunReferenceUnit();
  }
}

double HostSeconds() { return ThreadCpuSeconds() - State().tally.cpu_s; }

ReferenceTally Reference() { return State().tally; }

double ReferenceScale(const ReferenceTally& before, const ReferenceTally& after) {
  const uint64_t units = after.units - before.units;
  const double cpu_s = after.cpu_s - before.cpu_s;
  return units == 0 || cpu_s <= 0 ? 1.0 : kReferenceUnitS * static_cast<double>(units) / cpu_s;
}

util::Bytes RandomPool(uint64_t seed, size_t len) {
  util::Bytes out(len);
  uint64_t state = seed;
  for (size_t i = 0; i < len; i += 8) {
    const uint64_t word = SplitMix64(&state);
    std::memcpy(out.data() + i, &word, std::min<size_t>(8, len - i));
  }
  return out;
}

double Percentile(std::vector<uint64_t>* v, double p) {
  if (v->empty()) {
    return 0;
  }
  std::sort(v->begin(), v->end());
  const double rank = std::ceil(p * static_cast<double>(v->size()));
  const size_t idx = rank < 1 ? 0 : std::min(v->size() - 1, static_cast<size_t>(rank) - 1);
  return static_cast<double>((*v)[idx]);
}

double TailPercentile(size_t samples) {
  if (samples >= 1000) {
    return 0.99;
  }
  return samples > 10 ? 1.0 - 10.0 / static_cast<double>(samples) : 0.5;
}

double Median(std::vector<double> v) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

SfsBed::SfsBed(sim::Interposer* interposer) {
  vfs_ = std::make_unique<vfs::Vfs>(&clock_, &costs_, &registry_);
  // The client keeps a local root; the workload lives under /sfs.
  disk_ = std::make_unique<sim::Disk>(&clock_, sim::DiskProfile::Ibm18Es(), &registry_);
  local_fs_ = std::make_unique<nfs::MemFs>(&clock_, disk_.get(), nfs::MemFs::Options{});
  vfs_->MountRoot(local_fs_.get(), local_fs_->root_handle());

  authserver_ = std::make_unique<auth::AuthServer>();
  sfs::SfsServer::Options server_options;
  server_options.location = "server.bench";
  server_options.key_bits = 512;
  server_options.prng_seed = 1;
  server_options.registry = &registry_;
  server_ = std::make_unique<sfs::SfsServer>(&clock_, &costs_, server_options,
                                             authserver_.get());

  sfs::SfsClient::Options client_options;
  client_options.ephemeral_key_bits = 512;
  client_options.prng_seed = 2;
  client_options.registry = &registry_;
  const double t0 = ThreadCpuSeconds();
  client_ = std::make_unique<sfs::SfsClient>(
      &clock_, &costs_, [this](const std::string&) { return server_.get(); },
      client_options);
  keygen_host_ms_ = (ThreadCpuSeconds() - t0) * 1e3;
  if (interposer != nullptr) {
    client_->set_interposer(interposer);
  }
  vfs_->EnableSfs(client_.get());

  crypto::Prng prng(uint64_t{7001});
  crypto::RabinPrivateKey key = crypto::RabinPrivateKey::Generate(&prng, 512);
  auth::PublicUserRecord record;
  record.name = "bench";
  record.public_key = key.public_key().Serialize();
  record.credentials = nfs::Credentials::User(1000, {1000});
  authserver_->RegisterUser(record);
  agent_ = std::make_unique<agent::Agent>("bench");
  agent_->AddPrivateKey(std::move(key));
  user_ = vfs::UserContext::For(1000, agent_.get());
}

util::Status SfsBed::MakeWorkDir() {
  work_dir_ = server_->Path().FullPath() + "/bench";
  return vfs_->Mkdir(user_, work_dir_);
}

void SfsBed::DropClientCaches() {
  auto mount = client_->Mount(server_->Path());
  if (mount.ok()) {
    (*mount)->cache()->InvalidateAll();
  }
}

bool SfsBed::UserAuthenticated() {
  auto mount = client_->Mount(server_->Path());
  return mount.ok() && (*mount)->AuthnoFor(user_.creds.uid) != sfs::kAnonymousAuthno;
}

void EnableSpans(obs::Registry* registry, sim::Clock* clock) {
  registry->spans().Enable(
      [clock] { return clock->now_ns(); },
      [clock](uint64_t out[obs::kTimeCategoryCount]) {
        const sim::Clock::CategorySnapshot charged = clock->categories();
        for (size_t i = 0; i < obs::kTimeCategoryCount; ++i) {
          out[i] = charged.ns[i];
        }
      },
      /*capacity=*/size_t{1} << 21);
}

CounterSnap CounterSnap::Take(const obs::Registry& registry) {
  CounterSnap s;
  s.link_messages = registry.CounterValue("link.messages");
  s.link_bytes = registry.CounterValue("link.bytes");
  s.retransmissions = registry.CounterValue("link.retransmissions") +
                      registry.CounterValue("rpc.client.stale_retries");
  s.unmatched_replies = registry.CounterValue("rpc.client.unmatched_replies");
  s.drc_hits = registry.CounterValue("server.drc_hits");
  s.shed = registry.CounterValue("server.shed");
  if (const obs::Histogram* qw = registry.FindHistogram("server.queue_wait_ns")) {
    s.queue_waits = qw->count();
  }
  return s;
}

CounterSnap CounterSnap::Minus(const CounterSnap& e) const {
  CounterSnap d;
  d.link_messages = link_messages - e.link_messages;
  d.link_bytes = link_bytes - e.link_bytes;
  d.retransmissions = retransmissions - e.retransmissions;
  d.unmatched_replies = unmatched_replies - e.unmatched_replies;
  d.drc_hits = drc_hits - e.drc_hits;
  d.shed = shed - e.shed;
  d.queue_waits = queue_waits - e.queue_waits;
  return d;
}

namespace {

// True when the clock's per-category charges sum to now_ns().
bool LedgerBalanced(const sim::Clock& clock) {
  const sim::Clock::CategorySnapshot charged = clock.categories();
  uint64_t sum = 0;
  for (uint64_t ns : charged.ns) {
    sum += ns;
  }
  return sum == clock.now_ns();
}

bool StartsWith(const std::string& s, const char* prefix) {
  return s.rfind(prefix, 0) == 0;
}

// Host nanoseconds to seal and open one frame of each recorded size
// through a fresh pair of channel ciphers; returns the total.
uint64_t ReplaySealOpen(const std::vector<size_t>& sizes, bool* ok) {
  const util::Bytes key(20, 0x5c);
  sfs::ChannelCipher sealer(key);
  sfs::ChannelCipher opener(key);
  uint64_t total_ns = 0;
  for (size_t size : sizes) {
    const util::Bytes plaintext(size, 0xa5);
    const uint64_t t0 = SteadyNs();
    util::Bytes sealed = sealer.Seal(plaintext);
    auto opened = opener.Open(sealed);
    total_ns += SteadyNs() - t0;
    if (!opened.ok() || *opened != plaintext) {
      *ok = false;
    }
  }
  return total_ns;
}

// Inputs of the per-layer report that only the workload knows.
struct LayerInputs {
  CounterSnap counters;                // Differenced over the measured phase.
  const std::vector<obs::Span>* spans = nullptr;
  uint64_t dropped_spans = 0;
  uint64_t ops = 0;
  uint64_t user_bytes = 0;
  uint64_t virt_ns = 0;                // Measured-phase virtual time.
  sim::Clock::CategorySnapshot charged;  // Ledger diff over the phase.
  uint64_t events = 0;                 // EventQueue dispatches in the phase.
  const std::vector<uint64_t>* vfs_host_ns = nullptr;
  const std::vector<size_t>* frame_sizes = nullptr;
};

// Fills the span-, registry- and replay-derived per-layer metrics into
// `out`.  Workload-specific host timers (event loop, handler, key
// generation, SRP, mount) are added by the workloads themselves.
// Returns false if a replayed frame failed to open to its plaintext.
bool FillLayerMetrics(const LayerInputs& in, std::map<std::string, double>* out) {
  const double ops = static_cast<double>(std::max<uint64_t>(in.ops, 1));
  const double virt = static_cast<double>(std::max<uint64_t>(in.virt_ns, 1));
  auto share = [&](obs::TimeCategory c) {
    return static_cast<double>(in.charged.ns[static_cast<size_t>(c)]) / virt;
  };
  auto& m = *out;

  if (in.vfs_host_ns != nullptr && !in.vfs_host_ns->empty()) {
    std::vector<uint64_t> host = *in.vfs_host_ns;
    m["vfs.host_call_p50_us"] = Percentile(&host, 0.50) / 1e3;
    m["vfs.host_call_p99_us"] = Percentile(&host, TailPercentile(host.size())) / 1e3;
  }

  // Span self time: a span's duration minus the union of its children's
  // intervals (clipped to it), summed per layer.
  const std::vector<obs::Span>& spans = *in.spans;
  std::unordered_map<uint64_t, size_t> index;
  std::unordered_map<uint64_t, std::vector<size_t>> children;
  index.reserve(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    index[spans[i].id] = i;
    if (spans[i].parent_id != 0) {
      children[spans[i].parent_id].push_back(i);
    }
  }
  std::map<std::string, uint64_t> self_ns;
  std::map<std::string, uint64_t> span_count;
  uint64_t calls = 0;
  uint64_t cache_calls = 0;
  uint64_t service_ns = 0;
  std::vector<uint64_t> queue_waits;
  for (const obs::Span& s : spans) {
    uint64_t covered = 0;
    auto kids = children.find(s.id);
    if (kids != children.end()) {
      std::vector<std::pair<uint64_t, uint64_t>> iv;
      for (size_t k : kids->second) {
        const uint64_t a = std::max(spans[k].start_ns, s.start_ns);
        const uint64_t b = std::min(spans[k].end_ns, s.end_ns);
        if (b > a) {
          iv.emplace_back(a, b);
        }
      }
      std::sort(iv.begin(), iv.end());
      uint64_t cur_a = 0;
      uint64_t cur_b = 0;
      for (const auto& [a, b] : iv) {
        if (a > cur_b) {
          covered += cur_b - cur_a;
          cur_a = a;
          cur_b = b;
        } else {
          cur_b = std::max(cur_b, b);
        }
      }
      covered += cur_b - cur_a;
    }
    self_ns[s.layer] += s.duration_ns() - std::min(covered, s.duration_ns());
    span_count[s.layer]++;

    if (StartsWith(s.name, "rpc.call.") || StartsWith(s.name, "sfs.call.")) {
      ++calls;
      // A wire RPC the client cache issued: some ancestor is a cache op.
      for (uint64_t p = s.parent_id; p != 0;) {
        auto it = index.find(p);
        if (it == index.end()) {
          break;
        }
        if (std::strcmp(spans[it->second].layer, "nfs.cache") == 0) {
          ++cache_calls;
          break;
        }
        p = spans[it->second].parent_id;
      }
    } else if (StartsWith(s.name, "rpc.dispatch.") || StartsWith(s.name, "sfs.dispatch.")) {
      service_ns += s.duration_ns();
    } else if (s.name == "server.queue") {
      queue_waits.push_back(s.duration_ns());
    }
  }
  auto self_us = [&](const char* layer) { return static_cast<double>(self_ns[layer]) / 1e3 / ops; };

  m["nfs.cache.rpcs_per_op"] = static_cast<double>(cache_calls) / ops;
  m["nfs.cache.virt_self_us"] = self_us("nfs.cache");

  bool replay_ok = true;
  if (in.frame_sizes != nullptr && !in.frame_sizes->empty()) {
    const std::vector<size_t>& frames = *in.frame_sizes;
    uint64_t frame_bytes = 0;
    for (size_t f : frames) {
      frame_bytes += f;
    }
    const double replay_ns = static_cast<double>(ReplaySealOpen(frames, &replay_ok));
    m["sfs.chan.msgs_per_op"] = static_cast<double>(frames.size()) / ops;
    m["sfs.chan.bytes_per_msg"] =
        static_cast<double>(frame_bytes) / static_cast<double>(frames.size());
    m["sfs.chan.seal_open_host_ns_per_msg"] = replay_ns / static_cast<double>(frames.size());
    m["sfs.chan.seal_open_host_ns_per_kb"] =
        replay_ns / (static_cast<double>(frame_bytes) / 1024.0);
  }
  m["sfs.chan.virt_self_us"] = self_us("sfs.chan");
  m["crypto.virt_share"] = share(obs::TimeCategory::kCrypto);

  m["rpc.calls_per_op"] = static_cast<double>(calls) / ops;
  m["rpc.retransmissions_per_kop"] = static_cast<double>(in.counters.retransmissions) * 1e3 / ops;
  m["rpc.unmatched_replies"] = static_cast<double>(in.counters.unmatched_replies);
  m["rpc.virt_self_us"] = self_us("rpc");

  m["sim.event.events_per_op"] = static_cast<double>(in.events) / ops;

  m["link.msgs_per_op"] = static_cast<double>(in.counters.link_messages) / ops;
  m["link.bytes_per_user_byte"] =
      in.user_bytes == 0 ? 0
                         : static_cast<double>(in.counters.link_bytes) /
                               static_cast<double>(in.user_bytes);
  m["link.virt_share"] = share(obs::TimeCategory::kLink);

  // Requests that found a free service slot record a zero wait and no
  // queue span; the histogram's sample count supplies them.
  if (in.counters.queue_waits > queue_waits.size()) {
    queue_waits.resize(in.counters.queue_waits, 0);
  }
  m["server.queue_wait_p50_us"] = Percentile(&queue_waits, 0.50) / 1e3;
  m["server.queue_wait_p99_us"] =
      Percentile(&queue_waits, TailPercentile(queue_waits.size())) / 1e3;
  m["server.shed_per_kop"] = static_cast<double>(in.counters.shed) * 1e3 / ops;
  m["server.busy_share"] = static_cast<double>(service_ns) / virt;
  m["server.drc_hits_per_kop"] = static_cast<double>(in.counters.drc_hits) * 1e3 / ops;
  m["server.virt_self_us"] = self_us("server");

  m["disk.virt_share"] = share(obs::TimeCategory::kDisk);
  m["disk.ops_per_op"] = static_cast<double>(span_count["sim.disk"]) / ops;
  m["span.dropped"] = static_cast<double>(in.dropped_spans);
  return replay_ok;
}

}  // namespace

PhaseProbe::PhaseProbe(obs::Registry* registry, sim::Clock* clock, bool trace)
    : registry_(registry),
      clock_(clock),
      trace_(trace),
      counters_(CounterSnap::Take(*registry)),
      charged_(clock->categories()),
      events_(clock->events()->dispatched()),
      start_ns_(clock->now_ns()) {}

void PhaseProbe::Finish(RepResult* r, const Extras& extras) {
  r->virt_ns = clock_->now_ns() - start_ns_ - extras.idle_ns;
  r->ledger_ok = LedgerBalanced(*clock_);
  if (!trace_) {
    return;
  }
  LayerInputs in;
  in.counters = CounterSnap::Take(*registry_).Minus(counters_);
  const std::vector<obs::Span> spans = registry_->spans().TakeFinished();
  in.spans = &spans;
  in.dropped_spans = registry_->spans().dropped();
  in.ops = r->ops;
  in.user_bytes = r->read_bytes + r->write_bytes;
  in.virt_ns = r->virt_ns;
  const sim::Clock::CategorySnapshot now = clock_->categories();
  for (size_t i = 0; i < obs::kTimeCategoryCount; ++i) {
    in.charged.ns[i] = now.ns[i] - charged_.ns[i];
  }
  in.events = clock_->events()->dispatched() - events_;
  in.vfs_host_ns = extras.vfs_host_ns;
  in.frame_sizes = extras.frame_sizes;
  if (!FillLayerMetrics(in, &r->layers)) {
    ++r->failed;
  }
}


}  // namespace perfbench
