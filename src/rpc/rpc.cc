#include "src/rpc/rpc.h"

#include <algorithm>
#include <cassert>
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
// the results, cut out of the body's own buffer, or the remote handler's
// error.  A body that does not parse names no call; it is discarded like
// a stale reply.
util::Result<uint32_t> ParseReply(util::Bytes body, util::Result<util::Bytes>* outcome) {
  xdr::Decoder dec(body);
  auto xid = dec.GetUint32();
  auto status = dec.GetUint32();
  if (!xid.ok() || !status.ok()) {
    return util::InvalidArgument("RPC: truncated reply");
  }
  if (status.value() == kReplyAccepted) {
    auto results = dec.GetOpaqueRange();
    if (!results.ok() || !dec.AtEnd()) {
      return util::InvalidArgument("RPC: malformed accepted reply");
    }
    *outcome = xdr::KeepRange(std::move(body), results.value());
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

util::Result<util::Bytes> PlainServerCodec::Open(util::Bytes request) {
  // The call body is the request minus the seqno word LinkTransport::Frame
  // spliced in after the xid.
  if (request.size() < 2 * kWordSize) {
    return util::InvalidArgument("RPC: malformed call message");
  }
  request.erase(request.begin() + kWordSize, request.begin() + 2 * kWordSize);
  return request;
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

util::Result<util::Bytes> Dispatcher::Handle(util::Bytes request) {
  // Duplicate-request cache, consulted on the wire seqno before the codec
  // decodes anything: a retransmitted call must not re-execute a
  // non-idempotent handler, nor advance the sealed channel's keystreams.
  ASSIGN_OR_RETURN(const uint32_t seqno, codec_->Seqno(request));
  if (drc_max_seqno_ != 0 && seqno + kDrcWindow <= drc_max_seqno_) {
    // Older than anything the cache retains; the reply is long gone and
    // re-executing would break at-most-once.
    return util::InvalidArgument("RPC: request seqno below duplicate-cache window");
  }
  // Seqnos start at 1, so a connection's first calls fill the ring from
  // its first slot.
  const size_t slot = (seqno - 1) % kDrcWindow;
  if (slot < drc_.size() && drc_[slot].cached && drc_[slot].seqno == seqno) {
    return Replay(seqno, drc_[slot]);
  }
  const size_t request_bytes = request.size();
  ASSIGN_OR_RETURN(util::Bytes body, codec_->Open(std::move(request)));
  if (body.empty()) {
    return body;  // Deferred by the codec: neither executed nor cached.
  }

  // The header is read where it lies; the args are then cut out of the
  // same buffer.
  xdr::Decoder dec(body);
  auto xid = dec.GetUint32();
  auto prog = dec.GetUint32();
  auto proc = dec.GetUint32();
  auto args_range = dec.GetOpaqueRange();
  if (!xid.ok() || !prog.ok() || !proc.ok() || !args_range.ok()) {
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
  const util::Bytes args = xdr::KeepRange(std::move(body), args_range.value());

  auto it = programs_.find(prog.value());
  Program* program = it == programs_.end() ? nullptr : &it->second;
  // Starts after Open, so the sealed channel's crypto stays out of the
  // handler latency.
  const uint64_t now_ns = clock_ != nullptr ? clock_->now_ns() : 0;

  util::Bytes wire;
  if (program == nullptr) {
    xdr::Encoder reply;
    reply.PutUint32(xid.value());
    reply.PutUint32(kReplyError);
    reply.PutUint32(static_cast<uint32_t>(util::ErrorCode::kNotFound));
    reply.PutString("no such program");
    wire = codec_->Seal(seqno, reply.Take());
  } else {
    std::string proc_name =
        program->namer ? program->namer(proc.value()) : std::to_string(proc.value());
    obs::ProcMetrics* pm = program->metrics.Get(proc.value(), proc_name);
    pm->calls->Increment();
    pm->bytes_received->Increment(request_bytes);

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
        s->wire_bytes = request_bytes;
      }
      spans_->Push(dispatch_span);
    }
    auto result = program->handler(proc.value(), args);
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
    // Sized exactly: xid, status, then the results or the error.
    const size_t outcome_bytes =
        result.ok() ? xdr::PaddedSize(result->size())
                    : kWordSize + xdr::PaddedSize(result.status().message().size());
    xdr::Encoder reply(3 * kWordSize + outcome_bytes);
    reply.PutUint32(xid.value());
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
  // see verbatim rather than triggering a second execution attempt.  The
  // cache keeps an exact-size copy; the reply itself goes to the wire.
  if (drc_.size() <= slot) {
    if (drc_.capacity() <= slot) {
      // A short connection holds a few slots, a long one the whole window.
      drc_.reserve(std::min<size_t>(
          kDrcWindow, std::max<size_t>({slot + 1, 2 * drc_.capacity(), kDrcWindow / 8})));
    }
    drc_.resize(slot + 1);
  }
  drc_[slot] = DrcEntry{true, seqno, wire, wire_ctx};
  drc_max_seqno_ = std::max(drc_max_seqno_, seqno);
  return wire;
}

util::Bytes LinkTransport::Frame(uint32_t seqno, util::Bytes body) {
  // The plain header carries the seqno right after the body's xid.
  uint8_t word[kWordSize];
  xdr::PokeUint32(word, seqno);
  body.insert(body.begin() + kWordSize, word, word + kWordSize);
  return body;
}

void LinkTransport::Unframe(util::Bytes message, const CallSpanFn& call_span,
                            std::vector<util::Result<util::Bytes>>* replies) {
  (void)call_span;
  replies->emplace_back(std::move(message));
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
  g_in_flight_->Add(-static_cast<int64_t>(in_flight_));
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

Client::PendingCall* Client::FindCall(uint32_t xid) {
  if (xid == 0) {
    return nullptr;  // Marks a free slot; never issued.
  }
  for (PendingCall& call : calls_) {
    if (call.xid == xid) {
      return &call;
    }
  }
  return nullptr;
}

uint32_t Client::OldestXid() const {
  uint32_t oldest = next_xid_;
  for (const PendingCall& call : calls_) {
    if (call.xid != 0) {
      oldest = std::min(oldest, call.xid);
    }
  }
  return oldest;
}

Client::PendingCall Client::NewCall(uint32_t prog, uint32_t proc, std::string* proc_name) {
  ProgramState* program = ProgramFor(prog);
  PendingCall call;
  call.xid = next_xid_++;
  call.prog = prog;
  call.proc = proc;
  *proc_name = program->namer ? program->namer(proc) : std::to_string(proc);
  call.pm = program->metrics.Get(proc, *proc_name);
  call.pm->calls->Increment();
  call.t_call_ns = clock_->now_ns();
  return call;
}

void Client::FrameCall(PendingCall* call, const util::Bytes& args) {
  // Sized for the header words, the args, a trace context and one spare
  // word, so a transport that splices a header word into the body in
  // place (LinkTransport) does not reallocate it.
  xdr::Encoder body(4 * kWordSize + xdr::PaddedSize(args.size()) + 2 * sizeof(uint64_t) +
                    kWordSize);
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

void Client::Transmit(PendingCall* call) {
  call->pm->bytes_sent->Increment(call->wire.size());
  // The call span is ambient across Submit so the link's transit
  // bookkeeping (and the server-side dispatch, which executes under the
  // submitter's context) parent under it (Push(0) no-ops).
  spans_->Push(call->span_id);
  link_->Submit(call->wire, /*tag=*/call->xid);
  spans_->Pop(call->span_id);
  if (call->stop_and_wait) {
    return;  // Waits for the reply, or for the link's report of a loss.
  }
  // The timer fires only if nothing completed the call first; the gap it
  // bridges (idle, waiting out a lost message) is kWait.
  const uint32_t xid = call->xid;
  call->timer_id = clock_->events()->Schedule(clock_->now_ns() + call->rto_ns,
                                              obs::TimeCategory::kWait,
                                              [this, xid] { OnRetransmitTimer(xid); }, &timers_);
}

void Client::CallAsync(uint32_t prog, uint32_t proc, const util::Bytes& args, Callback done) {
  // A new call may enter only when (a) a window slot is free and (b) its
  // seqno would stay within the server's duplicate-request window of the
  // oldest outstanding call.  (b) matters because completions arrive out
  // of order: while the oldest call waits out its retransmission timer,
  // newer calls keep completing and freeing slots, so the send window
  // alone does not bound the seqno spread — without this hold, the DRC
  // can slide past the stuck seqno and reject its retransmission.
  // A call's xid is also its seqno, so the smallest outstanding xid is the
  // oldest call.  kDrcWindow/2 leaves the server margin for
  // retransmitted copies and matches kMaxSendWindow, so the hold only
  // ever engages when completions have outrun the oldest call by more
  // than a full window.
  auto may_issue = [this] {
    return in_flight_ < window_ && (in_flight_ == 0 || next_xid_ - OldestXid() < kDrcWindow / 2);
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

  std::string proc_name;
  PendingCall call = NewCall(prog, proc, &proc_name);
  call.rto_ns = link_->retry_policy().initial_rto_ns;
  call.stop_and_wait = window_ == 1;
  call.done = std::move(done);
  // Async call span: parented to the ambient span at submission (the
  // initiating operation), ended when the reply completes the call.
  // Initiators that must satisfy the nesting invariant drain their async
  // calls before closing their own span.
  if (spans_->enabled()) {
    call.span_id = spans_->Begin(transport_->call_span_prefix() + proc_name,
                                 transport_->layer());
  }
  FrameCall(&call, args);

  auto free_slot = std::find_if(calls_.begin(), calls_.end(),
                                [](const PendingCall& slot) { return slot.xid == 0; });
  PendingCall& slot = free_slot != calls_.end() ? *free_slot : calls_.emplace_back();
  slot = std::move(call);
  ++in_flight_;
  g_in_flight_->Add(1);
  Transmit(&slot);
  m_window_occupancy_sum_->Increment(in_flight_);
  m_window_samples_->Increment();
}

void Client::Drain() {
  while (in_flight_ != 0) {
    PumpOnce();
  }
}

void Client::PumpOnce() {
  if (in_flight_ != 0) {
    clock_->events()->RunOne();
  }
}

void Client::OnRetransmitTimer(uint32_t xid) {
  PendingCall* pending = FindCall(xid);
  if (pending == nullptr) {
    return;  // Completed in the same dispatch round; timer raced the cancel.
  }
  PendingCall& call = *pending;
  call.timer_id = 0;  // This timer just fired; Transmit re-arms.
  if (!call.stop_and_wait) {
    // Pipelined: the timer armed at send expired.
    const sim::RetryPolicy& policy = link_->retry_policy();
    if (++call.attempt >= std::max<uint32_t>(policy.max_transmissions, 1)) {
      Complete(xid, util::Unavailable("RPC: retry budget exhausted waiting for reply"));
      return;
    }
    call.rto_ns = std::min(call.rto_ns * policy.backoff_factor, policy.max_rto_ns);
  }
  if (call.stale_resend) {
    call.stale_resend = false;
    m_stale_retries_->Increment();
  } else {
    // Resends after a loss (or, pipelined, a timeout: we cannot tell loss
    // from delay there) count as link retransmissions, stale resends as
    // stale_retries — the benchmarks sum the two, so attributing to both
    // would double-count.
    link_->NoteRetransmission();
  }
  call.pm->retransmits->Increment();
  if (obs::Span* s = spans_->Find(call.span_id)) {
    ++s->retransmits;
  }
  Transmit(&call);
}

void Client::ResendLater(PendingCall* call, bool stale, util::Status why) {
  // A stale reply comes from network reordering, or fails to open; the
  // server's DRC guarantees the handler does not run twice.
  const uint32_t xid = call->xid;
  const std::optional<uint64_t> wait_ns = call->retry.Next(link_->retry_policy(), stale);
  if (!wait_ns.has_value()) {
    Complete(xid, stale ? util::Status(why.code(), "RPC: gave up waiting for a fresh reply: " +
                                                        why.message())
                        : std::move(why));
    return;
  }
  call->stale_resend = stale;
  call->timer_id = clock_->events()->Schedule(clock_->now_ns() + *wait_ns,
                                              obs::TimeCategory::kWait,
                                              [this, xid] { OnRetransmitTimer(xid); }, &timers_);
}

void Client::OnDelivery(sim::Delivery delivery) {
  // The transmission's tag is its call's xid; it attributes loss reports
  // and service-level verdicts, whose response bytes (if any) are not a
  // parseable reply.
  const uint32_t tag = static_cast<uint32_t>(delivery.tag);
  PendingCall* sender = FindCall(tag);
  const bool stop_and_wait = sender != nullptr && sender->stop_and_wait;
  if (delivery.lost) {
    // A pipelined call's timer, armed at send, already covers the loss.
    if (stop_and_wait) {
      ResendLater(sender, /*stale=*/false, std::move(delivery.status));
    }
    return;
  }
  if (!delivery.status.ok()) {
    Complete(tag, delivery.status);
    return;
  }

  const CallSpanFn call_span = [this](uint32_t seqno) {
    const PendingCall* call = FindCall(seqno);
    obs::Span* s = call == nullptr ? nullptr : spans_->Find(call->span_id);
    return s != nullptr ? s->context() : obs::SpanContext{};
  };
  // Moved out of the member while in use, so a delivery nested in a
  // callback (one that pumps the loop) gets a vector of its own.
  std::vector<util::Result<util::Bytes>> replies = std::move(unframed_);
  replies.clear();
  transport_->Unframe(std::move(delivery.response), call_span, &replies);
  // Why the last reply was discarded, kept for a stop-and-wait call, which
  // reports it if it gives up.
  util::Status discarded;
  for (util::Result<util::Bytes>& reply : replies) {
    // Discarded unread (the call resends, and the server's DRC replays
    // the intact reply), unparseable, or wanted by no outstanding call: a
    // late duplicate of an already completed call (a retransmit raced
    // the reply), or the reply of a call that gave up.  Counted, not
    // silent.  The xid is read first, so a reply no call wants is never
    // decoded.
    const util::Result<uint32_t> xid =
        reply.ok() ? xdr::PeekUint32(reply.value(), 0) : reply.status();
    util::Result<util::Bytes> outcome = util::Unavailable("RPC: no reply");
    if (xid.ok() && FindCall(xid.value()) != nullptr) {
      const util::Result<uint32_t> parsed = ParseReply(std::move(reply).value(), &outcome);
      if (parsed.ok()) {
        Complete(xid.value(), std::move(outcome));
        continue;
      }
      if (stop_and_wait) {
        discarded = parsed.status();
      }
    } else if (stop_and_wait) {
      discarded = !reply.ok() ? reply.status()
                  : !xid.ok() ? ParseReply(std::move(reply).value(), &outcome).status()
                              : util::Unavailable("RPC: stale reply xid " +
                                                  std::to_string(xid.value()));
    }
    m_unmatched_replies_->Increment();
  }
  replies.clear();  // Frees the bytes of replies no call took.
  unframed_ = std::move(replies);
  // A message that did not complete the stop-and-wait call it answers
  // was stale.
  if (PendingCall* call = FindCall(tag); stop_and_wait && call != nullptr) {
    ResendLater(call, /*stale=*/true,
                discarded.ok() ? util::Unavailable("RPC: no matching reply")
                               : std::move(discarded));
  }
}

void Client::Complete(uint32_t xid, util::Result<util::Bytes> result) {
  PendingCall* pending = FindCall(xid);
  if (pending == nullptr) {
    return;
  }
  PendingCall call = std::move(*pending);
  *pending = PendingCall{};
  if (--in_flight_ == 0 && calls_.size() > 1) {
    // Idle: the slots are not kept past a burst of calls.
    calls_ = std::vector<PendingCall>();
  }
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
  // recorded per call: overlapping calls share elapsed time, so a
  // per-call category diff would double-charge.
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
