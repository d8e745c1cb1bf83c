// Causal span tracing: a tree of timed intervals tying every top-level
// VFS/workload operation to the NFS cache ops, RPC calls, seal/open
// crypto, link transits, server dispatches, and disk charges it caused.
//
// The paper's evaluation argues from where the time goes (§4, Figures
// 5-9); spans make that attribution structural instead of statistical.
// Each span records the sim::Clock per-category ledger at its start and
// end, so a span's cost splits exactly into TimeCategory buckets.  The
// simulation is single-threaded, which gives root spans a strong
// invariant: every nanosecond the clock advanced during a root span was
// charged to some category, so a root's category totals sum precisely to
// its duration, and summing roots over a workload reproduces the clock's
// own ledger (the cross-check bench/span_report performs).
//
// Parent/child links propagate two ways:
//   * ambient: synchronous scopes (VFS ops, cache ops, seal/open, disk
//     charges) nest via a context stack (ScopedSpan pushes/pops);
//   * explicit: asynchronous work (RPC calls, which complete in a later
//     event, server-side dispatch reached through the simulated wire,
//     wire legs) carries a SpanContext
//     in call metadata, so client and server events land in one tree
//     even under pipelining and retransmission (docs/OBSERVABILITY.md
//     §"Spans" has the wire rules).
//
// Layering: sim depends on obs (the clock charges TimeCategories), so
// this header cannot see sim::Clock.  The collector instead takes two
// callbacks — now() and the per-category ledger — at Enable() time.
#ifndef SFS_SRC_OBS_SPAN_H_
#define SFS_SRC_OBS_SPAN_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "src/obs/metrics.h"

namespace obs {

// A span's coordinates in its trace, as carried in call metadata across
// the simulated wire (two trailing XDR uint64s; see PROTOCOL.md §11).
struct SpanContext {
  uint64_t trace_id = 0;
  uint64_t span_id = 0;
  bool valid() const { return span_id != 0; }
};

struct Span {
  uint64_t id = 0;
  uint64_t parent_id = 0;  // 0 = root span.
  uint64_t trace_id = 0;   // Root span's id, shared by the whole tree.
  std::string name;        // "vfs.open", "rpc.call.GETATTR", "disk.read"...
  const char* layer = "";  // "vfs", "nfs.cache", "rpc", "sfs.chan", ...
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  // Ledger diff across the span: where its wall time was charged.
  uint64_t cat_ns[kTimeCategoryCount] = {};

  // Annotations.
  std::string detail;       // Procedure name, path, error text.
  uint32_t xid = 0;
  uint32_t seqno = 0;
  uint64_t wire_bytes = 0;
  uint32_t retransmits = 0;  // Copies resent while this span was open.
  bool drc_hit = false;      // Answered from a duplicate-request cache.
  bool error = false;

  uint64_t duration_ns() const { return end_ns - start_ns; }
  uint64_t CategoryTotalNs() const {
    uint64_t total = 0;
    for (uint64_t ns : cat_ns) {
      total += ns;
    }
    return total;
  }
  SpanContext context() const { return SpanContext{trace_id, id}; }
};

// Collects spans for one registry.  Disabled (the default) every entry
// point is a cheap early-out, so instrumented layers stay free when
// tracing is off.  Not thread-safe — the simulation is single-threaded
// (docs/OBSERVABILITY.md).
class SpanCollector {
 public:
  using NowFn = std::function<uint64_t()>;
  // Copies the clock's per-category charge totals into `out`.
  using LedgerFn = std::function<void(uint64_t out[kTimeCategoryCount])>;
  // Receives one formatted slow-op tree dump.
  using SlowOpSink = std::function<void(const std::string& dump)>;

  // Enables collection.  `capacity` bounds the finished-span store;
  // once full, further finished spans are counted in dropped() and
  // discarded (open spans still close correctly).
  void Enable(NowFn now, LedgerFn ledger, size_t capacity = 1 << 16);
  void Disable();
  bool enabled() const { return enabled_; }

  // Opens a span and returns its id (0 when disabled — every other
  // entry point treats id 0 as a no-op).  Parent resolution: `parent`
  // if valid, else the ambient stack top, else this span is a root.
  uint64_t Begin(std::string name, const char* layer, SpanContext parent = {});
  void End(uint64_t id);

  // Mutable handle on an open span for annotations; nullptr if unknown.
  Span* Find(uint64_t id);

  // Ambient context stack (ScopedSpan drives this; Push/Pop must nest).
  void Push(uint64_t id);
  void Pop(uint64_t id);
  SpanContext current() const;

  // Replaces the ambient stack wholesale, returning the previous one.
  // The discrete-event loop uses this to run a server handler under the
  // submitting client's context instead of whichever caller happens to
  // be pumping events (sim::Host); a stale id in the installed stack is
  // harmless — current() treats closed spans as no context.
  std::vector<uint64_t> SwapStack(std::vector<uint64_t> stack) {
    std::swap(stack_, stack);
    return stack;
  }

  // Records an already-measured interval (used for pipelined link
  // transits, whose endpoints are known only at delivery time).  The
  // span's id/trace are assigned here; cat_ns is taken as given.
  void RecordClosed(Span span, SpanContext parent);

  const std::vector<Span>& finished() const { return finished_; }
  std::vector<Span> TakeFinished();
  void ClearFinished() { finished_.clear(); }
  uint64_t dropped() const { return dropped_; }
  size_t open_count() const { return open_.size(); }

  // Slow-op log: when a root span ends, if its duration is at least
  // `threshold_ns` or any span in its tree saw a retransmit or DRC hit,
  // the whole tree is formatted and handed to `sink`.  A null sink
  // writes one util::log line per span at kInfo.  threshold_ns == 0
  // disables the latency trigger (retransmit/DRC still fire).
  void EnableSlowOpLog(uint64_t threshold_ns, SlowOpSink sink = nullptr);
  void DisableSlowOpLog() { slow_op_log_ = false; }
  uint64_t slow_ops_logged() const { return slow_ops_logged_; }

 private:
  void SnapshotLedger(uint64_t out[kTimeCategoryCount]) const;
  void Finish(Span span);
  void MaybeLogSlowOp(const Span& root);

  bool enabled_ = false;
  NowFn now_;
  LedgerFn ledger_;
  size_t capacity_ = 0;
  uint64_t next_id_ = 1;

  struct OpenSpan {
    Span span;
    uint64_t start_ledger[kTimeCategoryCount] = {};
  };
  std::map<uint64_t, OpenSpan> open_;
  std::vector<uint64_t> stack_;
  std::vector<Span> finished_;
  uint64_t dropped_ = 0;

  bool slow_op_log_ = false;
  uint64_t slow_threshold_ns_ = 0;
  SlowOpSink slow_sink_;
  uint64_t slow_ops_logged_ = 0;
};

// RAII synchronous span: Begin + Push on construction, Pop + End on
// destruction.  A disabled collector makes every step a no-op.
class ScopedSpan {
 public:
  ScopedSpan(SpanCollector* collector, std::string name, const char* layer,
             std::string detail = "")
      : collector_(collector) {
    if (collector_ != nullptr && collector_->enabled()) {
      id_ = collector_->Begin(std::move(name), layer);
      if (Span* span = collector_->Find(id_)) {
        span->detail = std::move(detail);
      }
      collector_->Push(id_);
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  ~ScopedSpan() {
    if (id_ != 0) {
      collector_->Pop(id_);
      collector_->End(id_);
    }
  }

  uint64_t id() const { return id_; }
  Span* span() { return id_ != 0 ? collector_->Find(id_) : nullptr; }

 private:
  SpanCollector* collector_;
  uint64_t id_ = 0;
};

// --- Critical-path analysis -------------------------------------------------

// One row of a critical-path table: spans aggregated under `name`, with
// wall time split into TimeCategory buckets by the spans' ledger diffs.
struct CriticalPathRow {
  std::string name;
  uint64_t count = 0;
  uint64_t total_ns = 0;
  uint64_t cat_ns[kTimeCategoryCount] = {};
};

// Aggregates every root span (parent_id == 0) by name.  In the
// single-threaded simulation each root's buckets sum exactly to its
// duration, so the table's totals reproduce the clock ledger over the
// traced interval.  Rows are sorted by descending total_ns.
std::vector<CriticalPathRow> CriticalPathByRoot(const std::vector<Span>& spans);

// Aggregates spans of one layer by name (e.g. layer "rpc" for a
// per-procedure table).  Note: child spans of concurrent (pipelined)
// operations overlap, so unlike the root table this one may double-count
// shared wall time across rows.
std::vector<CriticalPathRow> CriticalPathByName(const std::vector<Span>& spans,
                                                const char* layer);

// All spans of `trace_id`, roots first, then by start time.
std::vector<Span> SpansOfTrace(const std::vector<Span>& spans, uint64_t trace_id);

// Indented one-line-per-span rendering of one trace's tree, with each
// span's xid, wire seqno and wire bytes when set: the RPC traffic
// pretty-printer, e.g.
//   sfs.call.WRITE xid=3 seq=3 148B 7264us (106030us..+7264)
std::string FormatSpanTree(const std::vector<Span>& spans, uint64_t trace_id);

// --- Perfetto / Chrome trace-event export -----------------------------------

// Serializes spans as Chrome trace-event JSON ("X" complete events, one
// tid per layer) loadable by Perfetto (ui.perfetto.dev) and
// chrome://tracing.  Virtual nanoseconds map to microsecond timestamps.
std::string ExportChromeTrace(const std::vector<Span>& spans);

// As above, plus the timeline's tracks merged in: one Chrome counter
// ("ph":"C") series per rate/gauge/latency track, a stacked "util"
// counter with the per-window category shares, and the annotator's
// episodes as slices on a dedicated "timeline.episodes" track.  A null
// timeline degenerates to the spans-only export.
class Timeline;
std::string ExportChromeTrace(const std::vector<Span>& spans,
                              const Timeline* timeline);

// Writes ExportChromeTrace(spans) to `path`; false on I/O failure.
bool WriteChromeTrace(const std::string& path, const std::vector<Span>& spans);
bool WriteChromeTrace(const std::string& path, const std::vector<Span>& spans,
                      const Timeline* timeline);

}  // namespace obs

#endif  // SFS_SRC_OBS_SPAN_H_
