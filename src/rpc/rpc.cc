#include "src/rpc/rpc.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <optional>
#include <vector>

#include "src/obs/span.h"
#include "src/sim/event.h"
#include "src/xdr/xdr.h"

namespace rpc {
namespace {

constexpr size_t kWordSize = 4;
constexpr uint32_t kReplyAccepted = 0;
constexpr uint32_t kReplyError = 1;

// Parses a reply body into the xid it answers and the call's outcome:
// the results, or the remote handler's error.  A body that does not
// parse names no call; it is discarded like a stale reply.
util::Result<uint32_t> ParseReply(util::Bytes body, util::Result<util::Bytes>* outcome) {
  xdr::Decoder dec(std::move(body));
  auto xid = dec.GetUint32();
  auto status = dec.GetUint32();
  if (!xid.ok() || !status.ok()) {
    return util::InvalidArgument("RPC: truncated reply");
  }
  if (status.value() == kReplyAccepted) {
    auto results = dec.GetOpaque();
    if (!results.ok() || !dec.AtEnd()) {
      return util::InvalidArgument("RPC: malformed accepted reply");
    }
    *outcome = std::move(results).value();
    return xid.value();
  }
  auto code = dec.GetUint32();
  auto message = dec.GetString();
  if (!code.ok() || !message.ok()) {
    return util::InvalidArgument("RPC: malformed error reply");
  }
  uint32_t clamped = code.value();
  if (clamped == 0 || clamped > static_cast<uint32_t>(util::ErrorCode::kInternal)) {
    clamped = static_cast<uint32_t>(util::ErrorCode::kInternal);
  }
  *outcome = util::Status(static_cast<util::ErrorCode>(clamped), message.value());
  return xid.value();
}

}  // namespace

util::Result<uint32_t> PlainServerCodec::Seqno(const util::Bytes& request) {
  return xdr::PeekUint32(request, kWordSize);
}

util::Result<util::Bytes> PlainServerCodec::Open(const util::Bytes& request) {
  // The call body is the request minus the seqno word LinkTransport::Frame
  // spliced in after the xid.
  if (request.size() < 2 * kWordSize) {
    return util::InvalidArgument("RPC: malformed call message");
  }
  util::Bytes body(request.size() - kWordSize);
  std::memcpy(body.data(), request.data(), kWordSize);
  std::memcpy(body.data() + kWordSize, request.data() + 2 * kWordSize,
              request.size() - 2 * kWordSize);
  return body;
}

Dispatcher::Dispatcher(obs::Registry* registry, const sim::Clock* clock, ServerCodec* codec)
    : codec_(codec != nullptr ? codec : &plain_codec_),
      registry_(registry != nullptr ? registry : obs::Registry::Default()),
      clock_(clock),
      spans_(&registry_->spans()),
      m_drc_hits_(registry_->GetCounter("server.drc_hits")) {}

void Dispatcher::RegisterProgram(uint32_t prog, ProgramHandler handler, ProcNamer namer,
                                 std::string name) {
  if (name.empty()) {
    name = "PROG" + std::to_string(prog);
  }
  Program& program = programs_[prog];
  program.handler = std::move(handler);
  program.namer = std::move(namer);
  program.name = std::move(name);
  program.metrics.Init(registry_, "server." + program.name);
}

util::Bytes Dispatcher::Replay(uint32_t seqno, const DrcEntry& entry) {
  m_drc_hits_->Increment();
  if (spans_->enabled()) {
    // Zero-duration marker in the original call's trace: the copy is never
    // decoded (the sealed channel's keystream must not advance).
    const uint64_t now_ns = clock_ != nullptr ? clock_->now_ns() : 0;
    obs::Span span;
    span.name = codec_->drc_hit_span();
    span.layer = "server";
    span.start_ns = now_ns;
    span.end_ns = now_ns;
    span.seqno = seqno;
    span.wire_bytes = entry.reply.size();
    span.drc_hit = true;
    spans_->RecordClosed(std::move(span), entry.ctx.valid() ? entry.ctx : spans_->current());
  }
  return entry.reply;
}

util::Result<util::Bytes> Dispatcher::Handle(const util::Bytes& request) {
  // Duplicate-request cache, consulted on the wire seqno before the codec
  // decodes anything: a retransmitted call must not re-execute a
  // non-idempotent handler, nor advance the sealed channel's keystreams.
  ASSIGN_OR_RETURN(const uint32_t seqno, codec_->Seqno(request));
  if (auto cached = drc_.find(seqno); cached != drc_.end()) {
    return Replay(seqno, cached->second);
  }
  if (drc_max_seqno_ != 0 && seqno + kDrcWindow <= drc_max_seqno_) {
    // Older than anything the cache retains; the reply is long gone and
    // re-executing would break at-most-once.
    return util::InvalidArgument("RPC: request seqno below duplicate-cache window");
  }
  ASSIGN_OR_RETURN(util::Bytes body, codec_->Open(request));
  if (body.empty()) {
    return body;  // Deferred by the codec: neither executed nor cached.
  }

  xdr::Decoder dec(std::move(body));
  auto xid = dec.GetUint32();
  auto prog = dec.GetUint32();
  auto proc = dec.GetUint32();
  auto args = dec.GetOpaque();
  if (!xid.ok() || !prog.ok() || !proc.ok() || !args.ok()) {
    return util::InvalidArgument("RPC: malformed call message");
  }
  // Optional trailing trace context, present only while the caller's span
  // collector is enabled (docs/OBSERVABILITY.md §"Spans").
  obs::SpanContext wire_ctx;
  if (!dec.AtEnd()) {
    auto trace_id = dec.GetUint64();
    auto parent_span = dec.GetUint64();
    if (!trace_id.ok() || !parent_span.ok()) {
      return util::InvalidArgument("RPC: malformed call message");
    }
    wire_ctx = obs::SpanContext{trace_id.value(), parent_span.value()};
  }
  if (!dec.AtEnd()) {
    return util::InvalidArgument("RPC: malformed call message");
  }

  auto it = programs_.find(prog.value());
  Program* program = it == programs_.end() ? nullptr : &it->second;
  // Starts after Open, so the sealed channel's crypto stays out of the
  // handler latency.
  const uint64_t now_ns = clock_ != nullptr ? clock_->now_ns() : 0;

  xdr::Encoder reply;
  reply.PutUint32(xid.value());
  util::Bytes wire;
  if (program == nullptr) {
    reply.PutUint32(kReplyError);
    reply.PutUint32(static_cast<uint32_t>(util::ErrorCode::kNotFound));
    reply.PutString("no such program");
    wire = codec_->Seal(seqno, reply.Take());
  } else {
    std::string proc_name =
        program->namer ? program->namer(proc.value()) : std::to_string(proc.value());
    obs::ProcMetrics* pm = program->metrics.Get(proc.value(), proc_name);
    pm->calls->Increment();
    pm->bytes_received->Increment(request.size());

    // Dispatch span: explicit wire-context parent when the caller sent
    // one (correct even for a retransmitted copy raced by the original),
    // ambient otherwise.  Pushed so handler-side spans (disk charges)
    // nest under it.
    uint64_t dispatch_span = 0;
    if (spans_->enabled()) {
      dispatch_span = spans_->Begin(codec_->dispatch_span_prefix() + proc_name, "server",
                                    wire_ctx);
      if (obs::Span* s = spans_->Find(dispatch_span)) {
        s->xid = xid.value();
        s->seqno = seqno;
        s->wire_bytes = request.size();
      }
      spans_->Push(dispatch_span);
    }
    auto result = program->handler(proc.value(), args.value());
    if (dispatch_span != 0) {
      if (obs::Span* s = spans_->Find(dispatch_span)) {
        s->error = !result.ok();
      }
      spans_->Pop(dispatch_span);
      spans_->End(dispatch_span);
    }
    if (clock_ != nullptr) {
      // Handler execution time (server CPU + disk, by the cost model).
      pm->latency->Record(clock_->now_ns() - now_ns);
    }
    if (!result.ok()) {
      pm->errors->Increment();
      reply.PutUint32(kReplyError);
      reply.PutUint32(static_cast<uint32_t>(result.status().code()));
      reply.PutString(result.status().message());
    } else {
      reply.PutUint32(kReplyAccepted);
      reply.PutOpaque(result.value());
    }
    wire = codec_->Seal(seqno, reply.Take());
    pm->bytes_sent->Increment(wire.size());
  }

  // Cache every reply — including handler errors, which a duplicate must
  // see verbatim rather than triggering a second execution attempt.
  drc_[seqno] = DrcEntry{wire, wire_ctx};
  drc_max_seqno_ = std::max(drc_max_seqno_, seqno);
  while (!drc_.empty() && drc_.begin()->first + kDrcWindow <= drc_max_seqno_) {
    drc_.erase(drc_.begin());
  }
  return wire;
}

util::Bytes LinkTransport::Frame(uint32_t seqno, const util::Bytes& body) {
  // The plain header carries the seqno right after the body's xid.
  util::Bytes wire(body.size() + kWordSize);
  std::memcpy(wire.data(), body.data(), kWordSize);
  for (size_t k = 0; k < kWordSize; ++k) {
    wire[kWordSize + k] = static_cast<uint8_t>(seqno >> (8 * (kWordSize - 1 - k)));
  }
  std::memcpy(wire.data() + 2 * kWordSize, body.data() + kWordSize, body.size() - kWordSize);
  return wire;
}

std::vector<util::Result<util::Bytes>> LinkTransport::Unframe(util::Bytes message,
                                                              const CallSpanFn& call_span) {
  (void)call_span;
  std::vector<util::Result<util::Bytes>> replies;
  replies.emplace_back(std::move(message));
  return replies;
}

Client::Client(Transport* transport, std::vector<Program> programs, obs::Registry* registry)
    : transport_(transport),
      link_(transport->link()),
      clock_(link_->clock()),
      registry_(registry != nullptr ? registry : obs::Registry::Default()),
      spans_(&registry_->spans()),
      m_stale_retries_(registry_->GetCounter("rpc.client.stale_retries")),
      m_unmatched_replies_(registry_->GetCounter("rpc.client.unmatched_replies")),
      m_window_occupancy_sum_(registry_->GetCounter("rpc.client.window_occupancy_sum")),
      m_window_samples_(registry_->GetCounter("rpc.client.window_samples")),
      g_in_flight_(registry_->GetGauge("rpc.client.in_flight")),
      m_queue_wait_(registry_->GetHistogram("rpc.client.queue_wait_ns")) {
  for (Program& program : programs) {
    ProgramState& state = programs_.emplace_back();
    state.prog = program.prog;
    state.namer = std::move(program.namer);
    state.metrics.Init(registry_, "rpc.client." + (program.name.empty()
                                                       ? "PROG" + std::to_string(program.prog)
                                                       : program.name));
  }
  link_->set_delivery_sink([this](sim::Delivery delivery) { OnDelivery(std::move(delivery)); });
}

Client::Client(Transport* transport, uint32_t prog, obs::Registry* registry,
               std::string prog_name, ProcNamer namer)
    : Client(transport, {Program{prog, std::move(prog_name), std::move(namer)}}, registry) {}

Client::~Client() {
  // The link and clock outlive the client: disarm the retransmission
  // timers and the delivery sink, which would otherwise touch freed state.
  clock_->events()->CancelGroup(&timers_);
  link_->set_delivery_sink(nullptr);
  // Calls abandoned in-flight are no longer occupying the window.
  g_in_flight_->Add(-static_cast<int64_t>(pending_.size()));
}

void Client::set_window(uint32_t window) {
  window_ = std::clamp<uint32_t>(window, 1, kMaxSendWindow);
}

Client::ProgramState* Client::ProgramFor(uint32_t prog) {
  auto it = std::find_if(programs_.begin(), programs_.end(),
                         [prog](const ProgramState& program) { return program.prog == prog; });
  assert(it != programs_.end() && "program not given to this client's constructor");
  return &*it;
}

Client::PendingCall Client::NewCall(uint32_t prog, uint32_t proc) {
  ProgramState* program = ProgramFor(prog);
  PendingCall call;
  call.xid = next_xid_++;
  call.prog = prog;
  call.proc = proc;
  call.proc_name = program->namer ? program->namer(proc) : std::to_string(proc);
  call.pm = program->metrics.Get(proc, call.proc_name);
  call.pm->calls->Increment();
  call.t_call_ns = clock_->now_ns();
  return call;
}

void Client::FrameCall(PendingCall* call, const util::Bytes& args) {
  xdr::Encoder body;
  body.PutUint32(call->xid);
  body.PutUint32(call->prog);
  body.PutUint32(call->proc);
  body.PutOpaque(args);
  if (const obs::Span* span = spans_->Find(call->span_id)) {
    // Trace context rides after the args; retransmitted copies carry it
    // verbatim, so the server always sees the original parent.
    body.PutUint64(span->trace_id);
    body.PutUint64(span->id);
  }
  // Framed under the call span, so the transport's send-side work nests
  // under it.
  spans_->Push(call->span_id);
  call->wire = transport_->Frame(call->xid, body.Take());
  spans_->Pop(call->span_id);
  if (obs::Span* s = spans_->Find(call->span_id)) {
    s->xid = call->xid;
    s->seqno = call->xid;
    s->wire_bytes = call->wire.size();
  }
}

util::Result<util::Bytes> Client::Call(uint32_t prog, uint32_t proc, const util::Bytes& args) {
  if (window_ == 1) {
    return LegacyCall(prog, proc, args);
  }
  // Submit through the window and pump until this call's reply lands;
  // earlier async calls complete (and run their callbacks) on the way.
  std::optional<util::Result<util::Bytes>> out;
  CallAsync(prog, proc, args,
            [&out](util::Result<util::Bytes> result) { out = std::move(result); });
  while (!out.has_value()) {
    PumpOnce();
  }
  return std::move(*out);
}

util::Result<util::Bytes> Client::LegacyCall(uint32_t prog, uint32_t proc,
                                             const util::Bytes& args) {
  // Not entered in pending_: only this frame waits for the reply.
  PendingCall call = NewCall(prog, proc);
  // The call span covers the whole stop-and-wait exchange, retransmits
  // included; pushed so transport, link and server child spans nest under
  // it.
  obs::ScopedSpan call_span(spans_, transport_->call_span_prefix() + call.proc_name,
                            transport_->layer());
  call.span_id = call_span.id();
  const sim::Clock::CategorySnapshot before = clock_->categories();
  FrameCall(&call, args);

  // On every exit path, attribute the call's elapsed virtual time to the
  // per-procedure latency histogram and slice it by charge category.
  auto finish = [&](bool ok, uint64_t reply_bytes) {
    if (!ok) {
      call.pm->errors->Increment();
      if (obs::Span* s = call_span.span()) {
        s->error = true;
      }
    }
    call.pm->bytes_received->Increment(reply_bytes);
    call.pm->latency->Record(clock_->now_ns() - call.t_call_ns);
    const sim::Clock::CategorySnapshot& after = clock_->categories();
    for (size_t i = 0; i < obs::kTimeCategoryCount; ++i) {
      call.pm->time[i]->Increment(after.ns[i] - before.ns[i]);
    }
  };

  // Only this call's replies may nest under its span.
  const CallSpanFn own_span = [&](uint32_t seqno) {
    obs::Span* s = call_span.span();
    return seqno == call.xid && s != nullptr ? s->context() : obs::SpanContext{};
  };

  // Network reordering can hand us a stale reply (some earlier call's,
  // or one that fails to open).  That is loss, not an attack: discard
  // it, wait out a timeout, and retransmit the same wire bytes — the
  // server's DRC guarantees the handler does not run twice.
  const sim::RetryPolicy& policy = link_->retry_policy();
  const uint32_t attempts = std::max<uint32_t>(policy.max_transmissions, 1);
  util::Status last_error = util::Unavailable("RPC: no matching reply");
  for (; call.attempt < attempts; ++call.attempt) {
    if (call.attempt > 0) {
      clock_->Advance(policy.initial_rto_ns, obs::TimeCategory::kWait);
      m_stale_retries_->Increment();
      call.pm->retransmits->Increment();
      if (obs::Span* s = call_span.span()) {
        ++s->retransmits;
      }
    }
    call.pm->bytes_sent->Increment(call.wire.size());

    auto roundtrip = link_->Roundtrip(call.wire);
    if (!roundtrip.ok()) {
      // The link already retried transit loss; its verdict is final.
      finish(false, 0);
      return roundtrip.status();
    }
    for (util::Result<util::Bytes>& reply :
         transport_->Unframe(std::move(roundtrip).value(), own_span)) {
      util::Result<util::Bytes> outcome = util::Unavailable("RPC: no reply");
      util::Result<uint32_t> reply_xid =
          reply.ok() ? ParseReply(std::move(reply).value(), &outcome) : reply.status();
      if (reply_xid.ok() && reply_xid.value() == call.xid) {
        finish(outcome.ok(), outcome.ok() ? outcome->size() : 0);
        return outcome;
      }
      last_error = reply_xid.ok() ? util::Unavailable("RPC: stale reply xid " +
                                                      std::to_string(reply_xid.value()))
                                  : reply_xid.status();
      m_unmatched_replies_->Increment();
    }
  }
  finish(false, 0);
  return util::Status(last_error.code(),
                      "RPC: gave up waiting for a fresh reply: " + last_error.message());
}

// --- Pipelined path ---------------------------------------------------------

void Client::Transmit(PendingCall* call) {
  call->pm->bytes_sent->Increment(call->wire.size());
  // The call span is ambient across Submit so the link's transit
  // bookkeeping (and the server-side dispatch, which executes under the
  // submitter's context) parent under it (Push(0) no-ops).
  spans_->Push(call->span_id);
  link_->Submit(call->wire, /*tag=*/call->xid);
  spans_->Pop(call->span_id);
  // The timer fires only if nothing completed the call first; the gap it
  // bridges (idle, waiting out a lost message) is kWait.
  const uint32_t xid = call->xid;
  call->timer_id = clock_->events()->Schedule(clock_->now_ns() + call->rto_ns,
                                              obs::TimeCategory::kWait,
                                              [this, xid] { OnRetransmitTimer(xid); }, &timers_);
}

void Client::CallAsync(uint32_t prog, uint32_t proc, const util::Bytes& args, Callback done) {
  if (window_ == 1) {
    // Stop-and-wait: complete synchronously.
    done(LegacyCall(prog, proc, args));
    return;
  }
  // A new call may enter only when (a) a window slot is free and (b) its
  // seqno would stay within the server's duplicate-request window of the
  // oldest outstanding call.  (b) matters because completions arrive out
  // of order: while the oldest call waits out its retransmission timer,
  // newer calls keep completing and freeing slots, so the send window
  // alone does not bound the seqno spread — without this hold, the DRC
  // can slide past the stuck seqno and reject its retransmission.
  // pending_ is keyed by xid, which is also the seqno, so the first entry
  // is the oldest.  kDrcWindow/2 leaves the server margin for
  // retransmitted copies and matches kMaxSendWindow, so the hold only
  // ever engages when completions have outrun the oldest call by more
  // than a full window.
  auto may_issue = [this] {
    return pending_.size() < window_ &&
           (pending_.empty() || next_xid_ - pending_.begin()->first < kDrcWindow / 2);
  };
  if (!may_issue()) {
    // Pump until the call may enter.  The wait is real queueing delay the
    // caller experiences, so record it.
    const uint64_t wait_start = clock_->now_ns();
    while (!may_issue()) {
      PumpOnce();
    }
    m_queue_wait_->Record(clock_->now_ns() - wait_start);
  } else {
    m_queue_wait_->Record(0);
  }

  PendingCall call = NewCall(prog, proc);
  call.rto_ns = link_->retry_policy().initial_rto_ns;
  call.done = std::move(done);
  // Async call span: parented to the ambient span at submission (the
  // initiating operation), ended when the reply completes the call.
  // Initiators that must satisfy the nesting invariant drain their async
  // calls before closing their own span.
  if (spans_->enabled()) {
    call.span_id = spans_->Begin(transport_->call_span_prefix() + call.proc_name,
                                 transport_->layer());
  }
  FrameCall(&call, args);

  auto [it, inserted] = pending_.emplace(call.xid, std::move(call));
  (void)inserted;
  g_in_flight_->Add(1);
  Transmit(&it->second);
  m_window_occupancy_sum_->Increment(pending_.size());
  m_window_samples_->Increment();
}

void Client::Drain() {
  while (!pending_.empty()) {
    PumpOnce();
  }
}

void Client::PumpOnce() {
  if (!pending_.empty()) {
    clock_->events()->RunOne();
  }
}

void Client::OnRetransmitTimer(uint32_t xid) {
  auto it = pending_.find(xid);
  if (it == pending_.end()) {
    return;  // Completed in the same dispatch round; timer raced the cancel.
  }
  PendingCall& call = it->second;
  call.timer_id = 0;  // This timer just fired; Transmit re-arms.
  const sim::RetryPolicy& policy = link_->retry_policy();
  if (call.attempt + 1 >= std::max<uint32_t>(policy.max_transmissions, 1)) {
    Complete(xid, util::Unavailable("RPC: retry budget exhausted waiting for reply"));
    return;
  }
  ++call.attempt;
  call.rto_ns = std::min(call.rto_ns * policy.backoff_factor, policy.max_rto_ns);
  // Timer resends count as link retransmissions (we cannot tell loss
  // from reordering here), not as stale_retries — the benchmarks sum the
  // two, so attributing to both would double-count.
  link_->NoteRetransmission();
  call.pm->retransmits->Increment();
  if (obs::Span* s = spans_->Find(call.span_id)) {
    ++s->retransmits;
  }
  Transmit(&call);
}

void Client::OnDelivery(sim::Delivery delivery) {
  // The transmission's tag is its call's xid; it attributes service-level
  // verdicts, whose response bytes (if any) are not a parseable reply.
  if (!delivery.status.ok()) {
    Complete(static_cast<uint32_t>(delivery.tag), delivery.status);
    return;
  }

  const CallSpanFn call_span = [this](uint32_t seqno) {
    auto it = pending_.find(seqno);
    obs::Span* s = it == pending_.end() ? nullptr : spans_->Find(it->second.span_id);
    return s != nullptr ? s->context() : obs::SpanContext{};
  };
  for (util::Result<util::Bytes>& reply :
       transport_->Unframe(std::move(delivery.response), call_span)) {
    // Discarded unread (the call's timer resends, and the server's DRC
    // replays the intact reply), unparseable, or wanted by no outstanding
    // call: a late duplicate of an already completed call (a retransmit
    // raced the reply), or the reply of a call that gave up.  Counted,
    // not silent.
    util::Result<util::Bytes> outcome = util::Unavailable("RPC: no reply");
    util::Result<uint32_t> reply_xid =
        reply.ok() ? ParseReply(std::move(reply).value(), &outcome) : reply.status();
    if (!reply_xid.ok() || pending_.count(reply_xid.value()) == 0) {
      m_unmatched_replies_->Increment();
      continue;
    }
    Complete(reply_xid.value(), std::move(outcome));
  }
}

void Client::Complete(uint32_t xid, util::Result<util::Bytes> result) {
  auto it = pending_.find(xid);
  if (it == pending_.end()) {
    return;
  }
  PendingCall call = std::move(it->second);
  pending_.erase(it);
  g_in_flight_->Add(-1);
  if (call.timer_id != 0) {
    // The reply beat the retransmission timer; cancel it so it neither
    // fires nor holds the event queue open.
    clock_->events()->Cancel(call.timer_id);
  }
  if (result.ok()) {
    call.pm->bytes_received->Increment(result.value().size());
  } else {
    call.pm->errors->Increment();
  }
  // Wall-clock latency of the whole call.  Per-category slices are not
  // recorded here: overlapping calls share elapsed time, so a per-call
  // category diff would double-charge (the stop-and-wait path keeps them).
  call.pm->latency->Record(clock_->now_ns() - call.t_call_ns);
  if (call.span_id != 0) {
    if (obs::Span* s = spans_->Find(call.span_id)) {
      s->error = !result.ok();
    }
    spans_->End(call.span_id);
  }
  if (call.done) {
    call.done(std::move(result));
  }
}

}  // namespace rpc
