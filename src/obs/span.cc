#include "src/obs/span.h"

#include "src/obs/timeline.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string_view>

#include "src/util/log.h"

namespace obs {

void SpanCollector::Enable(NowFn now, LedgerFn ledger, size_t capacity) {
  enabled_ = true;
  now_ = std::move(now);
  ledger_ = std::move(ledger);
  capacity_ = capacity;
}

void SpanCollector::Disable() {
  enabled_ = false;
  open_.clear();
  stack_.clear();
}

void SpanCollector::SnapshotLedger(uint64_t out[kTimeCategoryCount]) const {
  if (ledger_) {
    ledger_(out);
  } else {
    std::fill(out, out + kTimeCategoryCount, 0);
  }
}

uint64_t SpanCollector::Begin(std::string name, const char* layer, SpanContext parent) {
  if (!enabled_) {
    return 0;
  }
  OpenSpan open;
  open.span.id = next_id_++;
  open.span.name = std::move(name);
  open.span.layer = layer;
  open.span.start_ns = now_ ? now_() : 0;
  if (parent.valid()) {
    open.span.parent_id = parent.span_id;
    open.span.trace_id = parent.trace_id != 0 ? parent.trace_id : parent.span_id;
  } else if (!stack_.empty()) {
    if (const auto it = open_.find(stack_.back()); it != open_.end()) {
      open.span.parent_id = it->second.span.id;
      open.span.trace_id = it->second.span.trace_id;
    }
  }
  if (open.span.trace_id == 0) {
    open.span.trace_id = open.span.id;  // This span roots a new trace.
  }
  SnapshotLedger(open.start_ledger);
  uint64_t id = open.span.id;
  open_.emplace(id, std::move(open));
  return id;
}

void SpanCollector::End(uint64_t id) {
  auto it = open_.find(id);
  if (id == 0 || it == open_.end()) {
    return;
  }
  Span span = std::move(it->second.span);
  span.end_ns = now_ ? now_() : span.start_ns;
  uint64_t end_ledger[kTimeCategoryCount];
  SnapshotLedger(end_ledger);
  for (size_t i = 0; i < kTimeCategoryCount; ++i) {
    span.cat_ns[i] = end_ledger[i] - it->second.start_ledger[i];
  }
  open_.erase(it);
  const bool is_root = span.parent_id == 0;
  Finish(std::move(span));
  if (is_root && slow_op_log_ && !finished_.empty() &&
      finished_.back().parent_id == 0) {
    MaybeLogSlowOp(finished_.back());
  }
}

Span* SpanCollector::Find(uint64_t id) {
  auto it = open_.find(id);
  return it == open_.end() ? nullptr : &it->second.span;
}

void SpanCollector::Push(uint64_t id) {
  if (id != 0) {
    stack_.push_back(id);
  }
}

void SpanCollector::Pop(uint64_t id) {
  if (id == 0 || stack_.empty()) {
    return;
  }
  if (stack_.back() == id) {
    stack_.pop_back();
    return;
  }
  // Unbalanced pop (a span outlived an enable/disable boundary): drop
  // the deepest matching entry rather than corrupting the stack.
  auto it = std::find(stack_.rbegin(), stack_.rend(), id);
  if (it != stack_.rend()) {
    stack_.erase(std::next(it).base());
  }
}

SpanContext SpanCollector::current() const {
  if (!enabled_ || stack_.empty()) {
    return SpanContext{};
  }
  auto it = open_.find(stack_.back());
  return it == open_.end() ? SpanContext{} : it->second.span.context();
}

void SpanCollector::RecordClosed(Span span, SpanContext parent) {
  if (!enabled_) {
    return;
  }
  span.id = next_id_++;
  if (parent.valid()) {
    span.parent_id = parent.span_id;
    span.trace_id = parent.trace_id != 0 ? parent.trace_id : parent.span_id;
  } else {
    span.parent_id = 0;
    span.trace_id = span.id;
  }
  Finish(std::move(span));
}

void SpanCollector::Finish(Span span) {
  if (finished_.size() >= capacity_) {
    ++dropped_;
    return;
  }
  finished_.push_back(std::move(span));
}

std::vector<Span> SpanCollector::TakeFinished() {
  std::vector<Span> out;
  out.swap(finished_);
  return out;
}

void SpanCollector::EnableSlowOpLog(uint64_t threshold_ns, SlowOpSink sink) {
  slow_op_log_ = true;
  slow_threshold_ns_ = threshold_ns;
  slow_sink_ = std::move(sink);
}

void SpanCollector::MaybeLogSlowOp(const Span& root) {
  bool slow = slow_threshold_ns_ != 0 && root.duration_ns() >= slow_threshold_ns_;
  if (!slow) {
    // Retransmit / DRC trigger: scan the finished tree.  (Spans of
    // still-pending async work attached to this trace land after the
    // root closes and are not re-examined.)
    for (const Span& span : finished_) {
      if (span.trace_id == root.trace_id && (span.retransmits > 0 || span.drc_hit)) {
        slow = true;
        break;
      }
    }
  }
  if (!slow) {
    return;
  }
  ++slow_ops_logged_;
  std::string dump = FormatSpanTree(finished_, root.trace_id);
  if (slow_sink_) {
    slow_sink_(dump);
    return;
  }
  std::istringstream lines(dump);
  std::string line;
  while (std::getline(lines, line)) {
    SFS_LOG(kInfo) << "slow-op: " << line;
  }
}

// --- Critical-path analysis -------------------------------------------------

namespace {

std::vector<CriticalPathRow> SortRows(std::map<std::string, CriticalPathRow> by_name) {
  std::vector<CriticalPathRow> rows;
  rows.reserve(by_name.size());
  for (auto& [name, row] : by_name) {
    rows.push_back(std::move(row));
  }
  std::sort(rows.begin(), rows.end(),
            [](const CriticalPathRow& a, const CriticalPathRow& b) {
              return a.total_ns != b.total_ns ? a.total_ns > b.total_ns
                                              : a.name < b.name;
            });
  return rows;
}

void Accumulate(CriticalPathRow* row, const Span& span) {
  ++row->count;
  row->total_ns += span.duration_ns();
  for (size_t i = 0; i < kTimeCategoryCount; ++i) {
    row->cat_ns[i] += span.cat_ns[i];
  }
}

}  // namespace

std::vector<CriticalPathRow> CriticalPathByRoot(const std::vector<Span>& spans) {
  std::map<std::string, CriticalPathRow> by_name;
  for (const Span& span : spans) {
    if (span.parent_id != 0) {
      continue;
    }
    CriticalPathRow& row = by_name[span.name];
    row.name = span.name;
    Accumulate(&row, span);
  }
  return SortRows(std::move(by_name));
}

std::vector<CriticalPathRow> CriticalPathByName(const std::vector<Span>& spans,
                                                const char* layer) {
  std::map<std::string, CriticalPathRow> by_name;
  for (const Span& span : spans) {
    if (std::string_view(span.layer) != layer) {
      continue;
    }
    CriticalPathRow& row = by_name[span.name];
    row.name = span.name;
    Accumulate(&row, span);
  }
  return SortRows(std::move(by_name));
}

std::vector<Span> SpansOfTrace(const std::vector<Span>& spans, uint64_t trace_id) {
  std::vector<Span> out;
  for (const Span& span : spans) {
    if (span.trace_id == trace_id) {
      out.push_back(span);
    }
  }
  std::sort(out.begin(), out.end(), [](const Span& a, const Span& b) {
    if ((a.parent_id == 0) != (b.parent_id == 0)) {
      return a.parent_id == 0;
    }
    return a.start_ns != b.start_ns ? a.start_ns < b.start_ns : a.id < b.id;
  });
  return out;
}

std::string FormatSpanTree(const std::vector<Span>& spans, uint64_t trace_id) {
  std::vector<Span> trace = SpansOfTrace(spans, trace_id);
  // Children by parent, already in start order from SpansOfTrace.
  std::map<uint64_t, std::vector<const Span*>> children;
  const Span* root = nullptr;
  for (const Span& span : trace) {
    if (span.parent_id == 0 && root == nullptr) {
      root = &span;
    } else {
      children[span.parent_id].push_back(&span);
    }
  }
  std::ostringstream out;
  std::function<void(const Span&, int)> render = [&](const Span& span, int depth) {
    for (int i = 0; i < depth; ++i) {
      out << "  ";
    }
    out << span.name;
    if (!span.detail.empty()) {
      out << " [" << span.detail << "]";
    }
    if (span.xid != 0) {
      out << " xid=" << span.xid;
    }
    if (span.seqno != 0) {
      out << " seq=" << span.seqno;
    }
    if (span.wire_bytes != 0) {
      out << " " << span.wire_bytes << "B";
    }
    out << " " << span.duration_ns() / 1000 << "us"
        << " (" << span.start_ns / 1000 << "us..+" << span.duration_ns() / 1000
        << ")";
    if (span.retransmits > 0) {
      out << " retransmits=" << span.retransmits;
    }
    if (span.drc_hit) {
      out << " drc_hit";
    }
    if (span.error) {
      out << " error";
    }
    out << "\n";
    auto it = children.find(span.id);
    if (it != children.end()) {
      for (const Span* child : it->second) {
        render(*child, depth + 1);
      }
    }
  };
  if (root != nullptr) {
    render(*root, 0);
    // Orphans whose parent span was not captured (e.g. dropped at
    // capacity) still print, flat, so nothing is silently hidden.
    for (const Span& span : trace) {
      if (span.parent_id != 0 && span.id != root->id) {
        bool reachable = span.parent_id == root->id;
        for (const Span& other : trace) {
          if (other.id == span.parent_id) {
            reachable = true;
            break;
          }
        }
        if (!reachable) {
          out << "  (orphan) ";
          render(span, 0);
        }
      }
    }
  }
  return out.str();
}

// --- Perfetto / Chrome trace-event export -----------------------------------

namespace {

void AppendEscaped(std::ostringstream* out, std::string_view s) {
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

// Microsecond timestamp with nanosecond precision kept as decimals.
std::string Micros(uint64_t ns) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%llu.%03llu",
                static_cast<unsigned long long>(ns / 1000),
                static_cast<unsigned long long>(ns % 1000));
  return buf;
}

}  // namespace

std::string ExportChromeTrace(const std::vector<Span>& spans) {
  return ExportChromeTrace(spans, nullptr);
}

std::string ExportChromeTrace(const std::vector<Span>& spans,
                              const Timeline* timeline) {
  // One Chrome "thread" per layer keeps each layer on its own track.
  std::map<std::string, int> layer_tids;
  for (const Span& span : spans) {
    layer_tids.emplace(span.layer, 0);
  }
  int next_tid = 1;
  for (auto& [layer, tid] : layer_tids) {
    tid = next_tid++;
  }

  std::ostringstream out;
  out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  out << "  {\"ph\": \"M\", \"pid\": 1, \"tid\": 0, \"name\": \"process_name\", "
         "\"args\": {\"name\": \"sfs-sim\"}}";
  for (const auto& [layer, tid] : layer_tids) {
    out << ",\n  {\"ph\": \"M\", \"pid\": 1, \"tid\": " << tid
        << ", \"name\": \"thread_name\", \"args\": {\"name\": ";
    AppendEscaped(&out, layer.empty() ? "(none)" : layer);
    out << "}}";
  }
  for (const Span& span : spans) {
    out << ",\n  {\"ph\": \"X\", \"pid\": 1, \"tid\": " << layer_tids[span.layer]
        << ", \"name\": ";
    AppendEscaped(&out, span.name);
    out << ", \"cat\": ";
    AppendEscaped(&out, std::string_view(span.layer).empty() ? "(none)" : span.layer);
    out << ", \"ts\": " << Micros(span.start_ns)
        << ", \"dur\": " << Micros(span.duration_ns()) << ", \"args\": {"
        << "\"trace_id\": " << span.trace_id << ", \"span_id\": " << span.id
        << ", \"parent_id\": " << span.parent_id;
    if (!span.detail.empty()) {
      out << ", \"detail\": ";
      AppendEscaped(&out, span.detail);
    }
    if (span.xid != 0) {
      out << ", \"xid\": " << span.xid;
    }
    if (span.seqno != 0) {
      out << ", \"seqno\": " << span.seqno;
    }
    if (span.wire_bytes != 0) {
      out << ", \"wire_bytes\": " << span.wire_bytes;
    }
    if (span.retransmits != 0) {
      out << ", \"retransmits\": " << span.retransmits;
    }
    if (span.drc_hit) {
      out << ", \"drc_hit\": true";
    }
    if (span.error) {
      out << ", \"error\": true";
    }
    for (size_t i = 0; i < kTimeCategoryCount; ++i) {
      if (span.cat_ns[i] != 0) {
        out << ", \"" << TimeCategoryName(static_cast<TimeCategory>(i))
            << "_ns\": " << span.cat_ns[i];
      }
    }
    out << "}}";
  }

  if (timeline != nullptr) {
    // Counter tracks: one "ph":"C" series per timeline track.  Rates and
    // utilization stamp the window *begin* (the value describes the whole
    // window); gauges stamp the window *end* (the value is the reading at
    // that edge).
    for (const Timeline::Window& w : timeline->windows()) {
      for (size_t i = 0; i < w.rates.size(); ++i) {
        out << ",\n  {\"ph\": \"C\", \"pid\": 1, \"name\": ";
        AppendEscaped(&out, timeline->rate_labels()[i] + "/s");
        out << ", \"ts\": " << Micros(w.begin_ns)
            << ", \"args\": {\"value\": " << w.rates[i].per_sec << "}}";
      }
      for (size_t i = 0; i < w.gauges.size(); ++i) {
        out << ",\n  {\"ph\": \"C\", \"pid\": 1, \"name\": ";
        AppendEscaped(&out, timeline->gauge_labels()[i]);
        out << ", \"ts\": " << Micros(w.end_ns)
            << ", \"args\": {\"value\": " << w.gauges[i] << "}}";
      }
      for (size_t i = 0; i < w.latency.size(); ++i) {
        out << ",\n  {\"ph\": \"C\", \"pid\": 1, \"name\": ";
        AppendEscaped(&out, timeline->latency_labels()[i] + ".p90_us");
        out << ", \"ts\": " << Micros(w.begin_ns)
            << ", \"args\": {\"value\": " << Micros(w.latency[i].p90_ns)
            << "}}";
      }
      // Stacked utilization: every nonzero category share in one counter
      // event, so Perfetto draws the window's time split as one area.
      out << ",\n  {\"ph\": \"C\", \"pid\": 1, \"name\": \"util\", \"ts\": "
          << Micros(w.begin_ns) << ", \"args\": {";
      bool first = true;
      for (size_t c = 0; c < kTimeCategoryCount; ++c) {
        if (w.util_ns[c] == 0) {
          continue;
        }
        out << (first ? "" : ", ") << "\""
            << TimeCategoryName(static_cast<TimeCategory>(c))
            << "\": " << w.UtilShare(c);
        first = false;
      }
      out << "}}";
    }
    // Episode annotations on their own track.
    const int episode_tid = 1000;
    out << ",\n  {\"ph\": \"M\", \"pid\": 1, \"tid\": " << episode_tid
        << ", \"name\": \"thread_name\", \"args\": {\"name\": "
           "\"timeline.episodes\"}}";
    for (const Timeline::Episode& ep : timeline->episodes()) {
      out << ",\n  {\"ph\": \"X\", \"pid\": 1, \"tid\": " << episode_tid
          << ", \"name\": ";
      AppendEscaped(&out, Timeline::EpisodeKindName(ep.kind));
      out << ", \"cat\": \"episode\", \"ts\": " << Micros(ep.begin_ns)
          << ", \"dur\": " << Micros(ep.end_ns - ep.begin_ns)
          << ", \"args\": {\"windows\": " << ep.window_count
          << ", \"cause\": ";
      AppendEscaped(&out, ep.cause);
      out << "}}";
    }
  }

  out << "\n]}\n";
  return out.str();
}

bool WriteChromeTrace(const std::string& path, const std::vector<Span>& spans) {
  return WriteChromeTrace(path, spans, nullptr);
}

bool WriteChromeTrace(const std::string& path, const std::vector<Span>& spans,
                      const Timeline* timeline) {
  std::ofstream file(path, std::ios::out | std::ios::trunc);
  if (!file) {
    return false;
  }
  file << ExportChromeTrace(spans, timeline);
  return static_cast<bool>(file);
}

}  // namespace obs
