// Span-tree invariants over the full SFS stack: every operation's
// causal trace must form a well-formed tree whose timing agrees with
// the virtual clock — under stop-and-wait and pipelined windows, on
// clean and seeded-lossy links alike (ISSUE: windows 1/2/4/8, lossy
// profile).  The key property of the single-threaded simulation is
// that every nanosecond the clock advances is charged to exactly one
// TimeCategory, so any span's category buckets must sum exactly to its
// duration (a wire leg's span carries its whole interval as link time,
// docs/OBSERVABILITY.md).
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "src/auth/authserver.h"
#include "src/nfs/api.h"
#include "src/obs/metrics.h"
#include "src/obs/span.h"
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
using util::Bytes;

constexpr int kKeyBits = 512;

Bytes BytesOf(const std::string& s) { return Bytes(s.begin(), s.end()); }

// One client/server pair sharing a registry, with span collection
// wired to the shared virtual clock before the mount happens.
class SpanStack {
 public:
  SpanStack(uint32_t window, sim::Interposer* interposer) {
    registry_.spans().Enable(
        [this] { return clock_.now_ns(); },
        [this](uint64_t out[obs::kTimeCategoryCount]) {
          const sim::Clock::CategorySnapshot& charged = clock_.categories();
          for (size_t i = 0; i < obs::kTimeCategoryCount; ++i) {
            out[i] = charged.ns[i];
          }
        });

    sfs::SfsServer::Options so;
    so.location = "span.example.org";
    so.key_bits = kKeyBits;
    so.registry = &registry_;
    server_ = std::make_unique<sfs::SfsServer>(&clock_, &costs_, so, &authserver_);
    Fattr attr;
    nfs::Sattr chmod;
    chmod.mode = 0777;
    EXPECT_EQ(server_->fs()->SetAttr(server_->fs()->root_handle(), Credentials::User(0),
                                     chmod, &attr),
              Stat::kOk);

    sfs::SfsClient::Options co;
    co.ephemeral_key_bits = kKeyBits;
    co.window = window;
    co.registry = &registry_;
    client_ = std::make_unique<sfs::SfsClient>(
        &clock_, &costs_, [this](const std::string&) { return server_.get(); }, co);
    if (interposer != nullptr) {
      client_->set_interposer(interposer);
    }
  }

  // Dials and certifies the server (the key-exchange half of the
  // protocol, which runs outside any file operation's span).
  sfs::SfsClient::MountPoint* Mount() {
    auto mount = client_->Mount(server_->Path());
    EXPECT_TRUE(mount.ok()) << mount.status().ToString();
    return mount.ok() ? *mount : nullptr;
  }

  // Mixed create/write/read/remove workload through the mount.
  void RunWorkload(int files) {
    sfs::SfsClient::MountPoint* mount = Mount();
    ASSERT_NE(mount, nullptr);
    nfs::FileSystemApi* fs = mount->fs();
    const Credentials cred = Credentials::User(0);
    Fattr attr;
    std::vector<FileHandle> handles;
    for (int i = 0; i < files; ++i) {
      FileHandle fh;
      std::string name = "span-" + std::to_string(i);
      ASSERT_EQ(fs->Create(mount->root_fh(), name, cred, nfs::Sattr{}, &fh, &attr),
                Stat::kOk);
      ASSERT_EQ(fs->Write(fh, cred, 0, BytesOf("contents of " + name), /*stable=*/true,
                          &attr),
                Stat::kOk);
      handles.push_back(fh);
    }
    for (int i = 0; i < files; ++i) {
      Bytes data;
      bool eof = false;
      ASSERT_EQ(fs->Read(handles[static_cast<size_t>(i)], cred, 0, 4096, &data, &eof),
                Stat::kOk);
    }
    for (int i = 0; i < files; i += 2) {
      ASSERT_EQ(fs->Remove(mount->root_fh(), "span-" + std::to_string(i), cred),
                Stat::kOk);
    }
    mount->rpc()->Drain();
  }

  std::vector<obs::Span> Collect() {
    EXPECT_EQ(registry_.spans().open_count(), 0u)
        << "spans left open after the workload drained";
    EXPECT_EQ(registry_.spans().dropped(), 0u);
    return registry_.spans().TakeFinished();
  }

  obs::Registry registry_;
  sim::Clock clock_;
  sim::CostModel costs_;
  auth::AuthServer authserver_;
  std::unique_ptr<sfs::SfsServer> server_;
  std::unique_ptr<sfs::SfsClient> client_;
};

// The invariants.  Every child starts inside its parent.  `strict_nesting`
// additionally requires every child to end inside its parent — true on a
// clean link.  Under loss, DRC hits and the wire legs of duplicated
// request copies legitimately land after their originating call has
// completed, and so may any wire leg of a call resent at `window` > 1,
// whose timer resends while the original copy is still out.
void CheckSpanInvariants(const std::vector<obs::Span>& spans, bool strict_nesting,
                         uint32_t window) {
  ASSERT_FALSE(spans.empty());
  std::map<uint64_t, const obs::Span*> by_id;
  for (const obs::Span& span : spans) {
    EXPECT_NE(span.id, 0u);
    EXPECT_TRUE(by_id.emplace(span.id, &span).second) << "duplicate span id " << span.id;
  }

  for (const obs::Span& span : spans) {
    SCOPED_TRACE(span.name + " id=" + std::to_string(span.id));
    EXPECT_GE(span.end_ns, span.start_ns);

    // Exact time attribution: buckets sum to duration for every span.
    EXPECT_EQ(span.CategoryTotalNs(), span.duration_ns());

    // Channel crypto, client or server side, is charged inside the call
    // that sealed or opened it.
    if (span.name == "sfs.seal" || span.name == "sfs.open") {
      auto call_it = by_id.find(span.parent_id);
      ASSERT_NE(call_it, by_id.end()) << span.name << " outside any call";
      EXPECT_EQ(call_it->second->name.rfind("sfs.call.", 0), 0u)
          << span.name << " parented under " << call_it->second->name;
    }

    if (span.parent_id == 0) {
      EXPECT_EQ(span.trace_id, span.id) << "root must root its own trace";
      continue;
    }

    // Parent chain: present, same trace, acyclic, ends at a root.
    auto parent_it = by_id.find(span.parent_id);
    ASSERT_NE(parent_it, by_id.end()) << "dangling parent " << span.parent_id;
    const obs::Span* parent = parent_it->second;
    EXPECT_EQ(span.trace_id, parent->trace_id);
    std::set<uint64_t> seen{span.id};
    const obs::Span* node = parent;
    while (node->parent_id != 0) {
      ASSERT_TRUE(seen.insert(node->id).second) << "cycle through span " << node->id;
      auto it = by_id.find(node->parent_id);
      ASSERT_NE(it, by_id.end());
      node = it->second;
    }
    EXPECT_EQ(node->id, span.trace_id) << "parent chain must end at the trace's root";

    EXPECT_GE(span.start_ns, parent->start_ns)
        << "child " << span.name << " starts before parent " << parent->name;
    const bool may_outlast_parent =
        span.drc_hit || span.name == "link.send.dup" ||
        (window > 1 && std::string(span.layer) == "sim.link");
    if (strict_nesting || !may_outlast_parent) {
      EXPECT_LE(span.end_ns, parent->end_ns)
          << "child " << span.name << " escapes parent " << parent->name;
    }
  }
}

// Client and server halves of a call must land in one tree even though
// the context crosses the simulated wire inside the sealed channel.
void CheckCrossWireTraces(const std::vector<obs::Span>& spans) {
  std::set<uint64_t> chan_traces, server_traces;
  for (const obs::Span& span : spans) {
    if (std::string(span.layer) == "sfs.chan") {
      chan_traces.insert(span.trace_id);
    } else if (std::string(span.layer) == "server") {
      server_traces.insert(span.trace_id);
    }
  }
  EXPECT_FALSE(chan_traces.empty());
  size_t joined = 0;
  for (uint64_t trace : server_traces) {
    joined += chan_traces.count(trace);
  }
  EXPECT_GT(joined, 0u) << "no server span joined a client-rooted trace";
}

TEST(SpanTreeTest, CleanRunsAreWellFormedAtAllWindows) {
  for (uint32_t window : {1u, 2u, 4u, 8u}) {
    SCOPED_TRACE("window=" + std::to_string(window));
    SpanStack stack(window, nullptr);
    stack.RunWorkload(8);
    std::vector<obs::Span> spans = stack.Collect();
    CheckSpanInvariants(spans, /*strict_nesting=*/true, window);
    CheckCrossWireTraces(spans);
  }
}

TEST(SpanTreeTest, SeededLossyRunsAreWellFormedAtAllWindows) {
  for (uint32_t window : {1u, 2u, 4u, 8u}) {
    SCOPED_TRACE("window=" + std::to_string(window));
    // Same profile as fault_test's acceptance configuration.
    sim::LossyInterposer lossy(/*seed=*/42 + window, {.drop = 0.05, .duplicate = 0.02});
    SpanStack stack(window, &lossy);
    stack.RunWorkload(16);
    std::vector<obs::Span> spans = stack.Collect();
    CheckSpanInvariants(spans, /*strict_nesting=*/false, window);
    CheckCrossWireTraces(spans);

    // The seed deterministically injected faults; the trace must carry
    // their marks without breaking tree shape.
    if (lossy.requests_dropped() + lossy.responses_dropped() + lossy.duplicates() > 0) {
      bool saw_fault_mark = false;
      for (const obs::Span& span : spans) {
        if (span.retransmits > 0 || span.drc_hit) {
          saw_fault_mark = true;
          break;
        }
      }
      EXPECT_TRUE(saw_fault_mark) << "faults injected but no span recorded them";
    }
  }
}

// Root spans opened around each cache operation split their wall time
// exactly — summing the roots reproduces the clock's ledger over the
// traced interval (the span_report cross-check, as a test).
TEST(SpanTreeTest, RootCriticalPathReproducesClockLedger) {
  SpanStack stack(/*window=*/4, nullptr);
  // Mount first: the key exchange runs outside any operation span, so
  // the ledger snapshot starts after it.  Everything the workload
  // itself charges must then land inside some cache.* root span.
  ASSERT_NE(stack.Mount(), nullptr);
  stack.registry_.spans().ClearFinished();
  // categories() returns a value snapshot (measure frames overlay the
  // global ledger), so take one before and one after the workload.
  const sim::Clock::CategorySnapshot before = stack.clock_.categories();
  stack.RunWorkload(8);
  const sim::Clock::CategorySnapshot charged = stack.clock_.categories();
  std::vector<obs::Span> spans = stack.Collect();

  uint64_t span_cat[obs::kTimeCategoryCount] = {};
  for (const obs::CriticalPathRow& row : obs::CriticalPathByRoot(spans)) {
    for (size_t i = 0; i < obs::kTimeCategoryCount; ++i) {
      span_cat[i] += row.cat_ns[i];
    }
  }
  for (size_t i = 0; i < obs::kTimeCategoryCount; ++i) {
    SCOPED_TRACE(obs::TimeCategoryName(static_cast<obs::TimeCategory>(i)));
    EXPECT_EQ(span_cat[i], charged.ns[i] - before.ns[i]);
  }
}

}  // namespace
