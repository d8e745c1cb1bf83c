// Key-negotiation scaling: how many cold-start key negotiations per
// second can one server machine sustain, and at what point does
// handshake CPU starve the NFS data path?
//
// The paper separates key management from file system security exactly
// so that the expensive public-key work (SRP login through sfskey, the
// Rabin session-key agreement of §3.2.1) can be charged where it
// belongs: on the server's CPU, in competition with ordinary NFS
// service.  This bench puts both on one sim::Host (one serial machine,
// discrete-event virtual time):
//
//  * H "handshake clients" each run a closed loop of cold-start
//    negotiations — an SRP verifier-side exchange plus the Rabin
//    session-key decryption and server-authentication signature —
//    separated by ~2 s of think time (a user re-keying, an agent
//    re-connecting).  The per-negotiation service time comes from the
//    sim::CostModel (srp_server_ns + pk_decrypt_ns + pk_sign_ns plus
//    two user-level crossings), so re-calibrating the model after a
//    crypto-kernel change moves these rows the honest way.
//
//  * A small fixed population of data clients GETATTR-polls the same
//    host with millisecond think times, standing in for the NFS data
//    path that shares the machine.
//
// Sweeping H traces the knee: negotiations/sec rises linearly while
// crypto CPU is slack, then flattens as cost-model-charged crypto
// utilization dominates the ledger (the event loop charges each
// inter-event gap exactly once, so interleaved timer and wire events
// keep the reported share below the service-side busy fraction even at
// saturation) — and the data path's p99 shows the head-of-line damage,
// since a GETATTR arriving behind a negotiation waits out a ~250 ms
// (paper profile) service slot.  Every row reports
// negotiations/sec, crypto/CPU utilization from the clock's category
// ledger, handshake and data-op latency percentiles, and the ledger
// invariant.
//
// All rows are pure virtual time — a deterministic function of the
// cost model — so the committed BENCH_negotiation_scaling.json is
// reproduced exactly by honest refactors (tools/negotiation_smoke.py
// is the gate, 10% threshold only to absorb deliberate retuning).
#include <benchmark/benchmark.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "bench/obs_report.h"
#include "src/obs/metrics.h"
#include "src/sim/clock.h"
#include "src/sim/cost_model.h"
#include "src/sim/event.h"
#include "src/sim/network.h"

namespace {

// Deterministic per-client RNG (splitmix64), as in fleet_scaling: the
// run is a pure function of the configuration.
uint64_t SplitMix64(uint64_t* state) {
  uint64_t z = (*state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4568bULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

struct NegotiationOptions {
  uint32_t handshake_clients = 8;
  uint32_t data_clients = 4;
  uint32_t negotiations_per_client = 4;
  // Mean think times (jittered per client below).
  uint64_t handshake_think_ns = 1'500'000'000;  // + up to ~1.07 s jitter.
  uint64_t data_think_ns = 1'000'000;           // + up to ~0.52 ms jitter.
};

// Wire sizes: an SRP/Rabin negotiation carries group elements and key
// halves (~0.5 KB each way); a GETATTR is a small fixed RPC.
constexpr size_t kNegotiateRequestBytes = 512;
constexpr size_t kNegotiateReplyBytes = 512;
constexpr size_t kDataRequestBytes = 128;
constexpr size_t kDataReplyBytes = 112;

// Server side of one cold-start negotiation, charged from the cost
// model: the SRP verifier exchange (B = kv + g^b, v^u, S = (A v^u)^b),
// the Rabin decryption of the client's session-key half, and the
// server-authentication signature, plus the user-level daemon
// crossings of the auth path.
class NegotiateService : public sim::Service {
 public:
  NegotiateService(sim::Clock* clock, const sim::CostModel* costs)
      : clock_(clock), costs_(costs) {}

  util::Result<util::Bytes> Handle(util::Bytes request) override {
    (void)request;
    clock_->Advance(costs_->srp_server_ns + costs_->pk_decrypt_ns + costs_->pk_sign_ns,
                    obs::TimeCategory::kCrypto);
    costs_->ChargeCrossing(clock_, 2);
    return util::Bytes(kNegotiateReplyBytes, 0xa5);
  }

 private:
  sim::Clock* clock_;
  const sim::CostModel* costs_;
};

// The data path sharing the machine: per-request NFS server processing.
class DataService : public sim::Service {
 public:
  DataService(sim::Clock* clock, const sim::CostModel* costs)
      : clock_(clock), costs_(costs) {}

  util::Result<util::Bytes> Handle(util::Bytes request) override {
    (void)request;
    clock_->Advance(costs_->nfs_server_op_ns, obs::TimeCategory::kCpu);
    return util::Bytes(kDataReplyBytes, 0x5a);
  }

 private:
  sim::Clock* clock_;
  const sim::CostModel* costs_;
};

// One server machine, H handshake links and D data links feeding it,
// all on one virtual clock.
class NegotiationRig {
 public:
  explicit NegotiationRig(const NegotiationOptions& opt)
      : opt_(opt),
        negotiate_service_(&clock_, &costs_),
        data_service_(&clock_, &costs_) {
    host_ = std::make_unique<sim::Host>(&clock_, &data_service_, &registry_,
                                        sim::Host::Options{});
    neg_latency_ = registry_.GetHistogram("neg.latency_ns");
    data_latency_ = registry_.GetHistogram("neg.data_latency_ns");

    handshakers_.resize(opt_.handshake_clients);
    for (uint32_t i = 0; i < opt_.handshake_clients; ++i) {
      Peer& p = handshakers_[i];
      p.link = std::make_unique<sim::Link>(&clock_, sim::LinkProfile::Tcp(),
                                           host_.get(), &registry_,
                                           &negotiate_service_);
      p.rng = 0x6e6567ULL + 0x9e3779b9ULL * (i + 1);
      p.remaining = opt_.negotiations_per_client;
      Peer* peer = &p;
      p.link->set_delivery_sink(
          [this, peer](sim::Delivery d) { OnNegotiationDone(peer, std::move(d)); });
    }

    data_peers_.resize(opt_.data_clients);
    for (uint32_t i = 0; i < opt_.data_clients; ++i) {
      Peer& p = data_peers_[i];
      p.link = std::make_unique<sim::Link>(&clock_, sim::LinkProfile::Udp(),
                                           host_.get(), &registry_, nullptr);
      p.rng = 0xda7aULL + 0x9e3779b9ULL * (i + 1);
      Peer* peer = &p;
      p.link->set_delivery_sink(
          [this, peer](sim::Delivery d) { OnDataDone(peer, std::move(d)); });
    }

    target_ = static_cast<uint64_t>(opt_.handshake_clients) *
              opt_.negotiations_per_client;
  }

  uint64_t Run() {
    const uint64_t start_ns = clock_.now_ns();
    // Stagger the first negotiations across one think interval so row 0
    // of the sweep doesn't begin with H synchronized arrivals.
    for (Peer& p : handshakers_) {
      const uint64_t stagger = SplitMix64(&p.rng) % opt_.handshake_think_ns;
      SchedulePeer(&p, stagger, /*data=*/false);
    }
    for (Peer& p : data_peers_) {
      const uint64_t stagger = SplitMix64(&p.rng) % opt_.data_think_ns;
      SchedulePeer(&p, stagger, /*data=*/true);
    }
    while (negotiations_done_ < target_) {
      if (clock_.events()->size() == 0) {
        std::fprintf(stderr, "negotiation rig deadlock: %llu/%llu done\n",
                     static_cast<unsigned long long>(negotiations_done_),
                     static_cast<unsigned long long>(target_));
        std::abort();
      }
      clock_.events()->RunOne();
    }
    return clock_.now_ns() - start_ns;
  }

  uint64_t negotiations() const { return negotiations_done_; }
  uint64_t data_ops() const { return data_ops_; }
  const obs::Histogram* neg_latency() const { return neg_latency_; }
  const obs::Histogram* data_latency() const { return data_latency_; }
  obs::Registry* registry() { return &registry_; }
  sim::Clock* clock() { return &clock_; }

  bool LedgerBalanced() const {
    const sim::Clock::CategorySnapshot charged = clock_.categories();
    uint64_t sum = 0;
    for (size_t i = 0; i < obs::kTimeCategoryCount; ++i) {
      sum += charged.ns[i];
    }
    return sum == clock_.now_ns();
  }

 private:
  struct Peer {
    std::unique_ptr<sim::Link> link;
    uint64_t rng = 0;
    uint32_t remaining = 0;   // Handshake clients: negotiations left.
    uint64_t issued_ns = 0;   // Submit time of the in-flight request.
  };

  void SchedulePeer(Peer* p, uint64_t delay_ns, bool data) {
    clock_.events()->Schedule(clock_.now_ns() + delay_ns, obs::TimeCategory::kWait,
                              [this, p, data] {
                                p->issued_ns = clock_.now_ns();
                                p->link->Submit(util::Bytes(
                                    data ? kDataRequestBytes : kNegotiateRequestBytes,
                                    data ? 0x11 : 0x22));
                              });
  }

  void OnNegotiationDone(Peer* p, sim::Delivery d) {
    (void)d;
    neg_latency_->Record(clock_.now_ns() - p->issued_ns);
    ++negotiations_done_;
    if (--p->remaining == 0) {
      return;
    }
    const uint64_t think =
        opt_.handshake_think_ns + (SplitMix64(&p->rng) & 0x3fffffff);
    SchedulePeer(p, think, /*data=*/false);
  }

  void OnDataDone(Peer* p, sim::Delivery d) {
    (void)d;
    data_latency_->Record(clock_.now_ns() - p->issued_ns);
    ++data_ops_;
    if (negotiations_done_ >= target_) {
      return;  // Sweep complete: stop offering data load.
    }
    const uint64_t think = opt_.data_think_ns + (SplitMix64(&p->rng) & 0xfffff);
    SchedulePeer(p, think, /*data=*/true);
  }

  NegotiationOptions opt_;
  obs::Registry registry_;
  sim::Clock clock_;
  sim::CostModel costs_ = bench::ActiveCostModel();
  NegotiateService negotiate_service_;
  DataService data_service_;
  std::unique_ptr<sim::Host> host_;
  std::vector<Peer> handshakers_;
  std::vector<Peer> data_peers_;
  obs::Histogram* neg_latency_ = nullptr;
  obs::Histogram* data_latency_ = nullptr;
  uint64_t target_ = 0;
  uint64_t negotiations_done_ = 0;
  uint64_t data_ops_ = 0;
};

void ReportNegotiationCounters(benchmark::State& state, NegotiationRig* rig,
                               uint64_t elapsed_ns) {
  state.SetIterationTime(static_cast<double>(elapsed_ns) * 1e-9);
  const double elapsed = static_cast<double>(elapsed_ns);
  state.counters["negotiations"] = static_cast<double>(rig->negotiations());
  state.counters["negotiations_per_sec"] =
      static_cast<double>(rig->negotiations()) * 1e9 / elapsed;
  // Cost-model-charged saturation, straight from the clock's category
  // ledger: crypto is the handshake work, cpu adds crossings and the
  // data path's server processing.
  const sim::Clock::CategorySnapshot charged = rig->clock()->categories();
  const double crypto_ns =
      static_cast<double>(charged.ns[static_cast<size_t>(obs::TimeCategory::kCrypto)]);
  const double cpu_ns =
      static_cast<double>(charged.ns[static_cast<size_t>(obs::TimeCategory::kCpu)]);
  state.counters["crypto_util"] = crypto_ns / elapsed;
  state.counters["server_util"] = (crypto_ns + cpu_ns) / elapsed;
  state.counters["neg_p50_ms"] =
      static_cast<double>(rig->neg_latency()->ApproxPercentileNs(0.50)) * 1e-6;
  state.counters["neg_p99_ms"] =
      static_cast<double>(rig->neg_latency()->ApproxPercentileNs(0.99)) * 1e-6;
  state.counters["data_ops"] = static_cast<double>(rig->data_ops());
  if (rig->data_latency()->count() > 0) {
    state.counters["data_p50_us"] =
        static_cast<double>(rig->data_latency()->ApproxPercentileNs(0.50)) / 1000.0;
    state.counters["data_p99_us"] =
        static_cast<double>(rig->data_latency()->ApproxPercentileNs(0.99)) / 1000.0;
  }
  obs::Registry* registry = rig->registry();
  if (const obs::Histogram* qw = registry->FindHistogram("server.queue_wait_ns");
      qw != nullptr && qw->count() > 0) {
    state.counters["queue_wait_p99_ms"] =
        static_cast<double>(qw->ApproxPercentileNs(0.99)) * 1e-6;
  }
  state.counters["shed"] = static_cast<double>(registry->CounterValue("server.shed"));
  state.counters["ledger_ok"] = rig->LedgerBalanced() ? 1.0 : 0.0;
}

// The knee sweep: handshake-client count is the offered negotiation
// load; the data population stays fixed so its latency rows isolate
// the starvation effect.
void BM_NegotiationKnee(benchmark::State& state) {
  NegotiationOptions opt;
  opt.handshake_clients = static_cast<uint32_t>(state.range(0));
  for (auto _ : state) {
    NegotiationRig rig(opt);
    const uint64_t elapsed_ns = rig.Run();
    ReportNegotiationCounters(state, &rig, elapsed_ns);
    state.SetLabel("handshakers=" + std::to_string(opt.handshake_clients) +
                   " data_clients=" + std::to_string(opt.data_clients));
  }
}

}  // namespace

BENCHMARK(BM_NegotiationKnee)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Arg(12)
    ->Arg(16)
    ->Arg(24)
    ->Arg(32)
    ->UseManualTime()
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);

SFS_BENCH_JSON_MAIN("negotiation_scaling")
