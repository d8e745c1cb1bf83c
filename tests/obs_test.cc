// Observability subsystem: the metrics registry, the per-procedure
// families, and — the important part — the RPC trace layer.  A full SFS
// mount runs through a seeded LossyInterposer and the ring-buffer trace
// must *show* exactly-once application-level delivery: a retransmitted
// xid appears once (and only once) as a kClientReply, every wire seqno
// is dispatched to a handler exactly once, and the extra copies surface
// as kServerDrcHit events.  Counter equality alone would not distinguish
// "deduplicated" from "never duplicated"; the trace does.
#include <gtest/gtest.h>

#include <cctype>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/auth/authserver.h"
#include "src/obs/metrics.h"
#include "src/obs/span.h"
#include "src/obs/trace.h"
#include "src/sfs/client.h"
#include "src/sfs/server.h"
#include "src/sim/clock.h"
#include "src/sim/cost_model.h"
#include "src/sim/network.h"
#include "src/util/bytes.h"

namespace {

using nfs::Credentials;
using nfs::Fattr;
using nfs::FileHandle;
using nfs::Stat;
using sfs::SfsClient;
using sfs::SfsServer;
using util::Bytes;
using util::BytesOf;

constexpr size_t kKeyBits = 512;

// --- Minimal JSON parser (validation only) -----------------------------------
//
// Enough of RFC 8259 to round-trip SnapshotJson() through a structural
// check: objects, arrays, strings with escapes, numbers, literals.
class JsonChecker {
 public:
  explicit JsonChecker(const std::string& text) : s_(text) {}

  bool Valid() {
    SkipWs();
    if (!Value()) {
      return false;
    }
    SkipWs();
    return pos_ == s_.size();
  }

 private:
  bool Value() {
    if (pos_ >= s_.size()) {
      return false;
    }
    switch (s_[pos_]) {
      case '{':
        return Object();
      case '[':
        return Array();
      case '"':
        return String();
      case 't':
        return Literal("true");
      case 'f':
        return Literal("false");
      case 'n':
        return Literal("null");
      default:
        return Number();
    }
  }
  bool Object() {
    ++pos_;  // '{'
    SkipWs();
    if (Peek('}')) {
      return true;
    }
    for (;;) {
      SkipWs();
      if (!String()) {
        return false;
      }
      SkipWs();
      if (!Peek(':')) {
        return false;
      }
      SkipWs();
      if (!Value()) {
        return false;
      }
      SkipWs();
      if (Peek('}')) {
        return true;
      }
      if (!Peek(',')) {
        return false;
      }
    }
  }
  bool Array() {
    ++pos_;  // '['
    SkipWs();
    if (Peek(']')) {
      return true;
    }
    for (;;) {
      SkipWs();
      if (!Value()) {
        return false;
      }
      SkipWs();
      if (Peek(']')) {
        return true;
      }
      if (!Peek(',')) {
        return false;
      }
    }
  }
  bool String() {
    if (pos_ >= s_.size() || s_[pos_] != '"') {
      return false;
    }
    ++pos_;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      if (s_[pos_] == '\\') {
        ++pos_;
        if (pos_ >= s_.size()) {
          return false;
        }
      }
      ++pos_;
    }
    if (pos_ >= s_.size()) {
      return false;
    }
    ++pos_;  // Closing quote.
    return true;
  }
  bool Number() {
    size_t start = pos_;
    if (pos_ < s_.size() && s_[pos_] == '-') {
      ++pos_;
    }
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) || s_[pos_] == '.' ||
            s_[pos_] == 'e' || s_[pos_] == 'E' || s_[pos_] == '+' || s_[pos_] == '-')) {
      ++pos_;
    }
    return pos_ > start;
  }
  bool Literal(const char* word) {
    size_t len = std::string(word).size();
    if (s_.compare(pos_, len, word) != 0) {
      return false;
    }
    pos_ += len;
    return true;
  }
  bool Peek(char c) {
    if (pos_ < s_.size() && s_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }
  void SkipWs() {
    while (pos_ < s_.size() && std::isspace(static_cast<unsigned char>(s_[pos_]))) {
      ++pos_;
    }
  }

  const std::string& s_;
  size_t pos_ = 0;
};

// --- Fixture: full SFS stack publishing into a private registry --------------

class ObsTest : public ::testing::Test {
 protected:
  ObsTest() : sink_(/*capacity=*/1 << 16) {
    registry_.tracer().AddSink(&sink_);

    SfsServer::Options server_options;
    server_options.location = "obs.example.org";
    server_options.key_bits = kKeyBits;
    server_options.registry = &registry_;
    server_ = std::make_unique<SfsServer>(&clock_, &costs_, server_options, &authserver_);

    Fattr attr;
    nfs::Sattr chmod;
    chmod.mode = 0777;
    EXPECT_EQ(server_->fs()->SetAttr(server_->fs()->root_handle(), Credentials::User(0),
                                     chmod, &attr),
              Stat::kOk);

    SfsClient::Options client_options;
    client_options.ephemeral_key_bits = kKeyBits;
    client_options.registry = &registry_;
    client_ = std::make_unique<SfsClient>(
        &clock_, &costs_,
        [this](const std::string&) { return server_.get(); }, client_options);
  }

  // Create/write/read/remove through the mount; every op must succeed.
  SfsClient::MountPoint* RunWorkload(int files) {
    auto mount = client_->Mount(server_->Path());
    EXPECT_TRUE(mount.ok()) << mount.status().ToString();
    if (!mount.ok()) {
      return nullptr;
    }
    nfs::FileSystemApi* fs = (*mount)->fs();
    const Credentials cred = Credentials::User(0);
    Fattr attr;
    std::vector<FileHandle> handles;
    for (int i = 0; i < files; ++i) {
      FileHandle fh;
      std::string name = "file-" + std::to_string(i);
      EXPECT_EQ(fs->Create((*mount)->root_fh(), name, cred, nfs::Sattr{}, &fh, &attr),
                Stat::kOk)
          << name;
      Bytes content = BytesOf("contents of " + name);
      EXPECT_EQ(fs->Write(fh, cred, 0, content, /*stable=*/true, &attr), Stat::kOk) << name;
      handles.push_back(fh);
    }
    for (int i = 0; i < files; ++i) {
      Bytes data;
      bool eof = false;
      EXPECT_EQ(fs->Read(handles[static_cast<size_t>(i)], cred, 0, 4096, &data, &eof),
                Stat::kOk);
    }
    for (int i = 0; i < files; i += 2) {
      EXPECT_EQ(fs->Remove((*mount)->root_fh(), "file-" + std::to_string(i), cred), Stat::kOk);
    }
    return *mount;
  }

  // Secure-channel events only (the SFS client/server layers).
  std::vector<obs::TraceEvent> ChanEvents() {
    std::vector<obs::TraceEvent> out;
    for (const obs::TraceEvent& event : sink_.Events()) {
      if (std::string(event.layer) == "sfs.chan") {
        out.push_back(event);
      }
    }
    return out;
  }

  obs::Registry registry_;
  obs::RingBufferSink sink_;
  sim::Clock clock_;
  sim::CostModel costs_;
  auth::AuthServer authserver_;
  std::unique_ptr<SfsServer> server_;
  std::unique_ptr<SfsClient> client_;
};

// --- Registry unit behavior --------------------------------------------------

TEST(RegistryTest, CountersAndHistograms) {
  obs::Registry registry;
  obs::Counter* c = registry.GetCounter("test.counter");
  c->Increment();
  c->Increment(41);
  EXPECT_EQ(registry.GetCounter("test.counter"), c);  // Stable get-or-create.
  EXPECT_EQ(registry.CounterValue("test.counter"), 42u);
  EXPECT_EQ(registry.CounterValue("never.created"), 0u);

  obs::Histogram* h = registry.GetHistogram("test.latency_ns");
  h->Record(500);        // <= 1us bucket.
  h->Record(1'500);      // <= 2us bucket.
  h->Record(3'000'000);  // <= 4ms bucket.
  EXPECT_EQ(h->count(), 3u);
  EXPECT_EQ(h->sum_ns(), 3'001'500u + 500u);
  EXPECT_GT(h->MeanNs(), 0.0);
  // The max percentile lands in the bucket holding the largest sample.
  EXPECT_GE(h->ApproxPercentileNs(1.0), 3'000'000u);
  EXPECT_LE(h->ApproxPercentileNs(0.0), 1'000u);

  std::string text = registry.SnapshotText();
  EXPECT_NE(text.find("test.counter"), std::string::npos);
  EXPECT_NE(text.find("test.latency_ns"), std::string::npos);
}

TEST(TracerTest, InactiveWithoutSinksAndPrettyPrinterFormats) {
  obs::Tracer tracer;
  EXPECT_FALSE(tracer.active());
  obs::RingBufferSink sink(4);
  tracer.AddSink(&sink);
  EXPECT_TRUE(tracer.active());

  obs::TraceEvent event;
  event.kind = obs::TraceEvent::Kind::kClientRetransmit;
  event.layer = "rpc";
  event.proc_name = "LOOKUP";
  event.xid = 7;
  event.seqno = 9;
  event.attempt = 2;
  for (int i = 0; i < 6; ++i) {  // Overflow a 4-slot ring.
    tracer.Emit(event);
  }
  EXPECT_EQ(sink.total_events(), 6u);
  EXPECT_EQ(sink.Events().size(), 4u);
  EXPECT_EQ(sink.dropped(), 2u);

  std::string line = obs::PrettyPrintSink::Format(event);
  EXPECT_NE(line.find("LOOKUP"), std::string::npos);
  EXPECT_NE(line.find("xid=7"), std::string::npos);
  EXPECT_NE(line.find("retransmit"), std::string::npos);

  tracer.RemoveSink(&sink);
  EXPECT_FALSE(tracer.active());
}

// --- Clean run: every call traced, no retransmission noise -------------------

TEST_F(ObsTest, CleanRunTracesEveryCallExactlyOnce) {
  ASSERT_NE(RunWorkload(4), nullptr);
  std::map<uint32_t, int> calls, replies, retransmits;
  for (const obs::TraceEvent& event : ChanEvents()) {
    switch (event.kind) {
      case obs::TraceEvent::Kind::kClientCall:
        ++calls[event.xid];
        break;
      case obs::TraceEvent::Kind::kClientReply:
        ++replies[event.xid];
        break;
      case obs::TraceEvent::Kind::kClientRetransmit:
        ++retransmits[event.xid];
        break;
      default:
        break;
    }
  }
  EXPECT_FALSE(calls.empty());
  EXPECT_TRUE(retransmits.empty());
  for (const auto& [xid, n] : calls) {
    EXPECT_EQ(n, 1) << "xid " << xid << " sent twice on a clean link";
    EXPECT_EQ(replies[xid], 1) << "xid " << xid;
  }
  // Per-procedure families populated under the canonical names.
  const obs::Histogram* create_latency =
      registry_.FindHistogram("rpc.client.NFS3.CREATE.latency_ns");
  ASSERT_NE(create_latency, nullptr);
  EXPECT_EQ(create_latency->count(), 4u);
  EXPECT_EQ(registry_.CounterValue("rpc.client.NFS3.CREATE.calls"), 4u);
  EXPECT_EQ(registry_.CounterValue("server.NFS3.CREATE.calls"), 4u);
  EXPECT_GT(registry_.CounterValue("link.messages"), 0u);
  EXPECT_EQ(registry_.CounterValue("link.retransmissions"), 0u);
  EXPECT_EQ(registry_.CounterValue("server.drc_hits"), 0u);
}

// --- The acceptance test: exactly-once by trace inspection -------------------

TEST_F(ObsTest, LossyRunShowsExactlyOnceDeliveryInTrace) {
  // The ISSUE acceptance profile: seeded 5% drop + 2% duplicate.
  sim::LossyInterposer lossy(/*seed=*/42, {.drop = 0.05, .duplicate = 0.02});
  client_->set_interposer(&lossy);
  SfsClient::MountPoint* mount = RunWorkload(16);
  ASSERT_NE(mount, nullptr);
  ASSERT_GT(lossy.requests_dropped() + lossy.responses_dropped() + lossy.duplicates(), 0u);
  ASSERT_EQ(sink_.dropped(), 0u) << "ring too small: trace incomplete";

  std::map<uint32_t, int> replies, retransmits;
  std::map<uint32_t, int> dispatches_by_seqno;  // Handler executions.
  bool saw_server_drc_hit = false;
  for (const obs::TraceEvent& event : ChanEvents()) {
    switch (event.kind) {
      case obs::TraceEvent::Kind::kClientReply:
        ++replies[event.xid];
        break;
      case obs::TraceEvent::Kind::kClientRetransmit:
        ++retransmits[event.xid];
        break;
      case obs::TraceEvent::Kind::kServerDispatch:
        ++dispatches_by_seqno[event.seqno];
        break;
      case obs::TraceEvent::Kind::kServerDrcHit:
        saw_server_drc_hit = true;
        EXPECT_TRUE(event.drc_hit);
        break;
      default:
        break;
    }
  }

  // The server deduplicated at least one redelivered request, and the
  // trace says so explicitly.
  EXPECT_TRUE(saw_server_drc_hit);

  // A retransmitted xid reached the application exactly once: stale-reply
  // resends at the channel layer never surface twice above it.
  ASSERT_FALSE(replies.empty());
  for (const auto& [xid, n] : retransmits) {
    EXPECT_GT(n, 0);
    EXPECT_EQ(replies[xid], 1)
        << "xid " << xid << " was retransmitted " << n
        << " times but delivered " << replies[xid] << " times to the application";
  }
  for (const auto& [xid, n] : replies) {
    EXPECT_EQ(n, 1) << "xid " << xid << " delivered " << n << " times";
  }

  // Every wire seqno hit a handler exactly once — duplicates were
  // answered from the reply cache, never re-executed.
  for (const auto& [seqno, n] : dispatches_by_seqno) {
    EXPECT_EQ(n, 1) << "seqno " << seqno << " dispatched " << n << " times";
  }
}

// --- Pipelined channel: exactly-once at every swept window size --------------

TEST_F(ObsTest, PipelinedLossyRunShowsExactlyOnceAtEverySweptWindow) {
  // Same acceptance profile as above, but with a sliding send window
  // keeping several calls in flight.  Out-of-order completion, timer
  // retransmissions, and DRC replays must still collapse to exactly one
  // application-level reply per xid and one dispatch per seqno — and the
  // ring-buffer trace, not just counters, must prove it per window size.
  for (uint32_t window : {2u, 4u, 8u}) {
    SCOPED_TRACE("window=" + std::to_string(window));
    SfsClient::Options options;
    options.ephemeral_key_bits = kKeyBits;
    options.registry = &registry_;
    options.window = window;
    SfsClient client(&clock_, &costs_,
                     [this](const std::string&) { return server_.get(); }, options);
    sim::LossyInterposer lossy(/*seed=*/1000 + window, {.drop = 0.05, .duplicate = 0.02});
    client.set_interposer(&lossy);

    const size_t skip = sink_.Events().size();
    auto mount = client.Mount(server_->Path());
    ASSERT_TRUE(mount.ok()) << mount.status().ToString();
    EXPECT_EQ((*mount)->rpc()->window(), window);

    nfs::FileSystemApi* fs = (*mount)->fs();
    const Credentials cred = Credentials::User(0);
    Fattr attr;
    for (int i = 0; i < 12; ++i) {
      FileHandle fh;
      std::string name = "pipelined-" + std::to_string(i);
      ASSERT_EQ(fs->Create((*mount)->root_fh(), name, cred, nfs::Sattr{}, &fh, &attr),
                Stat::kOk)
          << name;
      ASSERT_EQ(fs->Write(fh, cred, 0, BytesOf(name), /*stable=*/true, &attr), Stat::kOk);
      Bytes data;
      bool eof = false;
      ASSERT_EQ(fs->Read(fh, cred, 0, 4096, &data, &eof), Stat::kOk);
      EXPECT_EQ(data, BytesOf(name));
      ASSERT_EQ(fs->Remove((*mount)->root_fh(), name, cred), Stat::kOk);
    }
    (*mount)->rpc()->Drain();
    EXPECT_EQ((*mount)->rpc()->in_flight(), 0u);

    // This window's slice of the trace (the ring is large enough that
    // nothing from this run has been evicted).
    ASSERT_EQ(sink_.dropped(), 0u) << "ring too small: trace incomplete";
    std::vector<obs::TraceEvent> events = sink_.Events();
    ASSERT_GE(events.size(), skip);
    std::map<uint32_t, int> calls, replies, retransmits;
    std::map<uint32_t, int> dispatches_by_seqno;
    std::map<uint32_t, int> drc_hits_by_seqno;
    for (size_t i = skip; i < events.size(); ++i) {
      const obs::TraceEvent& event = events[i];
      if (std::string(event.layer) != "sfs.chan") {
        continue;
      }
      switch (event.kind) {
        case obs::TraceEvent::Kind::kClientCall:
          ++calls[event.xid];
          break;
        case obs::TraceEvent::Kind::kClientReply:
          ++replies[event.xid];
          break;
        case obs::TraceEvent::Kind::kClientRetransmit:
          ++retransmits[event.xid];
          break;
        case obs::TraceEvent::Kind::kServerDispatch:
          ++dispatches_by_seqno[event.seqno];
          break;
        case obs::TraceEvent::Kind::kServerDrcHit:
          ++drc_hits_by_seqno[event.seqno];
          break;
        default:
          break;
      }
    }

    // The seed deterministically injected faults, so the masking machinery
    // demonstrably ran at this window size.
    EXPECT_GT(lossy.requests_dropped() + lossy.responses_dropped() + lossy.duplicates(), 0u);
    EXPECT_FALSE(retransmits.empty());

    // Exactly-once, by trace: one application reply per xid...
    ASSERT_FALSE(calls.empty());
    for (const auto& [xid, n] : calls) {
      EXPECT_EQ(n, 1) << "xid " << xid << " entered the window twice";
      EXPECT_EQ(replies[xid], 1) << "xid " << xid;
    }
    for (const auto& [xid, n] : replies) {
      EXPECT_EQ(n, 1) << "xid " << xid << " delivered " << n << " times";
    }
    // ...one handler execution per seqno, and every DRC hit names a seqno
    // that genuinely was dispatched once before (a hit for a never-seen
    // seqno would mean the cache is answering requests it never executed).
    for (const auto& [seqno, n] : dispatches_by_seqno) {
      EXPECT_EQ(n, 1) << "seqno " << seqno << " dispatched " << n << " times";
    }
    for (const auto& [seqno, n] : drc_hits_by_seqno) {
      EXPECT_GT(n, 0);
      EXPECT_EQ(dispatches_by_seqno.count(seqno), 1u)
          << "DRC hit for seqno " << seqno << " that was never dispatched";
    }
  }
}

// --- Snapshot round-trip -----------------------------------------------------

TEST_F(ObsTest, SnapshotJsonParsesAndCarriesTimeSplit) {
  ASSERT_NE(RunWorkload(4), nullptr);
  clock_.ExportTimeCounters(&registry_);
  std::string json = registry_.SnapshotJson();

  JsonChecker checker(json);
  EXPECT_TRUE(checker.Valid()) << json.substr(0, 400);
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  EXPECT_NE(json.find("\"rpc.client.NFS3.CREATE.latency_ns\""), std::string::npos);
  EXPECT_NE(json.find("\"time.total_ns\""), std::string::npos);

  // The clock's category ledger must account for every nanosecond.
  uint64_t sum = 0;
  for (size_t i = 0; i < obs::kTimeCategoryCount; ++i) {
    sum += clock_.charged_ns(static_cast<obs::TimeCategory>(i));
  }
  EXPECT_EQ(sum, clock_.now_ns());
  EXPECT_EQ(clock_.charged_ns(obs::TimeCategory::kUntracked), 0u);
  EXPECT_GT(clock_.charged_ns(obs::TimeCategory::kLink), 0u);
  EXPECT_GT(clock_.charged_ns(obs::TimeCategory::kCrypto), 0u);
  EXPECT_GT(clock_.charged_ns(obs::TimeCategory::kDisk), 0u);
}

// --- SpanCollector unit behavior ---------------------------------------------

// A hand-cranked clock + ledger pair for driving the collector without a
// simulation: Tick() advances time and charges one category.
struct FakeLedger {
  uint64_t now = 0;
  uint64_t charged[obs::kTimeCategoryCount] = {};

  void Tick(obs::TimeCategory category, uint64_t ns) {
    now += ns;
    charged[static_cast<size_t>(category)] += ns;
  }
  void Wire(obs::SpanCollector* spans, size_t capacity = 1 << 10) {
    spans->Enable([this] { return now; },
                  [this](uint64_t out[obs::kTimeCategoryCount]) {
                    for (size_t i = 0; i < obs::kTimeCategoryCount; ++i) {
                      out[i] = charged[i];
                    }
                  },
                  capacity);
  }
};

TEST(SpanCollectorTest, DisabledCollectorIsFreeAndInert) {
  obs::SpanCollector spans;
  EXPECT_FALSE(spans.enabled());
  EXPECT_EQ(spans.Begin("op", "test"), 0u);
  spans.End(0);  // No-op, must not crash.
  {
    obs::ScopedSpan scoped(&spans, "op", "test");
    EXPECT_EQ(scoped.id(), 0u);
    EXPECT_EQ(scoped.span(), nullptr);
  }
  EXPECT_FALSE(spans.current().valid());
  EXPECT_TRUE(spans.finished().empty());
}

TEST(SpanCollectorTest, AmbientStackBuildsTreeAndSplitsLedger) {
  obs::SpanCollector spans;
  FakeLedger ledger;
  ledger.Wire(&spans);

  uint64_t root = spans.Begin("vfs.open", "vfs");
  spans.Push(root);
  ledger.Tick(obs::TimeCategory::kSyscall, 10);
  uint64_t child = spans.Begin("rpc.call", "rpc");  // Ambient parent: root.
  spans.Push(child);
  ledger.Tick(obs::TimeCategory::kLink, 100);
  spans.Pop(child);
  spans.End(child);
  ledger.Tick(obs::TimeCategory::kCpu, 5);
  spans.Pop(root);
  spans.End(root);

  ASSERT_EQ(spans.finished().size(), 2u);
  const obs::Span& c = spans.finished()[0];
  const obs::Span& r = spans.finished()[1];
  EXPECT_EQ(r.parent_id, 0u);
  EXPECT_EQ(r.trace_id, r.id);
  EXPECT_EQ(c.parent_id, r.id);
  EXPECT_EQ(c.trace_id, r.trace_id);

  // Intervals nest and the ledger split is exact at both levels: the
  // child saw only the link time, the root the whole 115ns.
  EXPECT_LE(r.start_ns, c.start_ns);
  EXPECT_GE(r.end_ns, c.end_ns);
  EXPECT_EQ(c.duration_ns(), 100u);
  EXPECT_EQ(c.CategoryTotalNs(), c.duration_ns());
  EXPECT_EQ(c.cat_ns[static_cast<size_t>(obs::TimeCategory::kLink)], 100u);
  EXPECT_EQ(r.duration_ns(), 115u);
  EXPECT_EQ(r.CategoryTotalNs(), r.duration_ns());
  EXPECT_EQ(r.cat_ns[static_cast<size_t>(obs::TimeCategory::kSyscall)], 10u);
  EXPECT_EQ(r.cat_ns[static_cast<size_t>(obs::TimeCategory::kLink)], 100u);
  EXPECT_EQ(r.cat_ns[static_cast<size_t>(obs::TimeCategory::kCpu)], 5u);
}

TEST(SpanCollectorTest, ExplicitParentWinsOverAmbientStack) {
  obs::SpanCollector spans;
  FakeLedger ledger;
  ledger.Wire(&spans);

  uint64_t root_a = spans.Begin("op.a", "test");
  obs::SpanContext ctx_a = spans.Find(root_a)->context();
  spans.End(root_a);

  // An unrelated ambient span is open, but the explicit context (as
  // carried across the wire) must take precedence.
  uint64_t root_b = spans.Begin("op.b", "test");
  spans.Push(root_b);
  uint64_t child = spans.Begin("server.dispatch", "server", ctx_a);
  spans.End(child);
  spans.Pop(root_b);
  spans.End(root_b);

  std::vector<obs::Span> finished = spans.TakeFinished();
  ASSERT_EQ(finished.size(), 3u);
  const obs::Span& dispatch = finished[1];
  EXPECT_EQ(dispatch.name, "server.dispatch");
  EXPECT_EQ(dispatch.parent_id, root_a);
  EXPECT_EQ(dispatch.trace_id, root_a);
}

TEST(SpanCollectorTest, RecordClosedAssignsIdsAndCapacityDropsCount) {
  obs::SpanCollector spans;
  FakeLedger ledger;
  ledger.Wire(&spans, /*capacity=*/2);

  uint64_t root = spans.Begin("op", "test");
  obs::SpanContext ctx = spans.Find(root)->context();

  // A pipelined link transit is measured externally and recorded whole.
  obs::Span transit;
  transit.name = "link.transit";
  transit.layer = "sim.link";
  transit.start_ns = 1;
  transit.end_ns = 4;
  spans.RecordClosed(transit, ctx);
  ASSERT_EQ(spans.finished().size(), 1u);
  EXPECT_EQ(spans.finished()[0].parent_id, root);
  EXPECT_EQ(spans.finished()[0].trace_id, root);
  EXPECT_NE(spans.finished()[0].id, 0u);

  spans.End(root);  // Fills the 2-slot store.
  EXPECT_EQ(spans.dropped(), 0u);
  uint64_t extra = spans.Begin("overflow", "test");
  spans.End(extra);
  EXPECT_EQ(spans.finished().size(), 2u);
  EXPECT_EQ(spans.dropped(), 1u);
}

TEST(SpanCollectorTest, SlowOpLogFiresOnThresholdAndOnDrcHit) {
  obs::SpanCollector spans;
  FakeLedger ledger;
  ledger.Wire(&spans);
  std::vector<std::string> dumps;
  spans.EnableSlowOpLog(1'000, [&dumps](const std::string& d) { dumps.push_back(d); });

  // Fast and clean: not logged.
  uint64_t fast = spans.Begin("fast.op", "test");
  ledger.Tick(obs::TimeCategory::kCpu, 10);
  spans.End(fast);
  EXPECT_EQ(dumps.size(), 0u);

  // Over threshold: logged with the whole tree in the dump.
  uint64_t slow = spans.Begin("slow.op", "test");
  spans.Push(slow);
  uint64_t child = spans.Begin("slow.child", "test");
  ledger.Tick(obs::TimeCategory::kLink, 5'000);
  spans.End(child);
  spans.Pop(slow);
  spans.End(slow);
  ASSERT_EQ(dumps.size(), 1u);
  EXPECT_NE(dumps[0].find("slow.op"), std::string::npos);
  EXPECT_NE(dumps[0].find("slow.child"), std::string::npos);

  // Fast but answered from the duplicate-request cache: still logged.
  uint64_t dup = spans.Begin("dup.op", "test");
  if (obs::Span* s = spans.Find(dup)) {
    s->drc_hit = true;
  }
  spans.End(dup);
  EXPECT_EQ(dumps.size(), 2u);
  EXPECT_EQ(spans.slow_ops_logged(), 2u);
}

TEST(SpanAnalysisTest, CriticalPathTablesAndChromeExport) {
  obs::SpanCollector spans;
  FakeLedger ledger;
  ledger.Wire(&spans);

  for (int i = 0; i < 3; ++i) {
    uint64_t root = spans.Begin("vfs.read", "vfs");
    spans.Push(root);
    ledger.Tick(obs::TimeCategory::kSyscall, 10);
    uint64_t call = spans.Begin("rpc.call.READ", "rpc");
    ledger.Tick(obs::TimeCategory::kLink, 200);
    spans.End(call);
    spans.Pop(root);
    spans.End(root);
  }
  std::vector<obs::Span> finished = spans.TakeFinished();

  std::vector<obs::CriticalPathRow> roots = obs::CriticalPathByRoot(finished);
  ASSERT_EQ(roots.size(), 1u);
  EXPECT_EQ(roots[0].name, "vfs.read");
  EXPECT_EQ(roots[0].count, 3u);
  EXPECT_EQ(roots[0].total_ns, 3u * 210u);
  EXPECT_EQ(roots[0].cat_ns[static_cast<size_t>(obs::TimeCategory::kLink)], 600u);
  EXPECT_EQ(roots[0].cat_ns[static_cast<size_t>(obs::TimeCategory::kSyscall)], 30u);

  std::vector<obs::CriticalPathRow> rpc = obs::CriticalPathByName(finished, "rpc");
  ASSERT_EQ(rpc.size(), 1u);
  EXPECT_EQ(rpc[0].name, "rpc.call.READ");
  EXPECT_EQ(rpc[0].count, 3u);

  std::string json = obs::ExportChromeTrace(finished);
  JsonChecker checker(json);
  EXPECT_TRUE(checker.Valid()) << json.substr(0, 400);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"vfs.read\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);

  std::string tree = obs::FormatSpanTree(finished, finished[1].trace_id);
  EXPECT_NE(tree.find("vfs.read"), std::string::npos);
  EXPECT_NE(tree.find("rpc.call.READ"), std::string::npos);
}

}  // namespace
