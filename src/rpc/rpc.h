// Minimal Sun-RPC-style call/reply layer over simulated links.
//
// Mirrors the paper's implementation structure (§3.2): programs
// communicate via RPC with XDR-described messages, and the library can
// pretty-print traffic for debugging.  Spans are that record: each call
// opens a call span, each execution a dispatch span and each duplicate
// answered from the cache a drc_hit span, annotated with xid, seqno and
// wire bytes, and obs::FormatSpanTree prints them (docs/OBSERVABILITY.md
// §3).  A Dispatcher is the one server-side dispatch path and a Client
// the one client-side call engine, for plain NFS3 and for the SFS secure
// channel alike.
//
// Both speak in bodies; a wire format turns them into bytes — a Transport
// on the client, a ServerCodec on the server.
//   call body:  uint32 xid, uint32 prog, uint32 proc, opaque args
//               [, uint64 trace_id, uint64 parent_span_id]  — optional
//               trace context, appended only while span tracing is
//               enabled (the server parents its dispatch span under the
//               client's call span; see docs/OBSERVABILITY.md §"Spans")
//   reply body: uint32 xid, uint32 status (0 = accepted), on error:
//               uint32 code + string message, else opaque results
// The plain format (LinkTransport, PlainServerCodec) sends a call as its
// body with the wire seqno spliced in after the xid (xid, seqno, prog,
// proc, ...) and a reply as its body; sfs::ChannelTransport and
// sfs::ChannelServerCodec seal the body and frame it behind a cleartext
// seqno (docs/PROTOCOL.md §10).
//
// At-most-once semantics: calls may be resent, so the Dispatcher keeps a
// duplicate-request cache (DRC) keyed by the call's wire seqno — a
// redelivered request replays the cached wire reply instead of
// re-executing a possibly non-idempotent handler.  The Client matches
// replies to outstanding calls by xid; a reply matching no outstanding
// call (a late duplicate from network reordering) is counted and
// discarded.
//
// Every call, at every window, is submitted through Link::Submit and
// completed by the clock's event loop.  Window 1 (the default) is
// stop-and-wait: no timer is armed at send, so a call waits for its reply
// however long the server takes, and a transmission the link reports
// lost or answered by a stale reply is resent by sim::StopAndWaitRetry.
// set_window(n > 1) keeps up to n calls in flight, overlapping their
// round trips; replies arrive through the link's delivery sink, possibly
// out of order (each is matched to its call by xid), and each in-flight
// call arms one cancellable retransmission timer at send that resends
// the identical wire bytes, ignoring the link's loss reports.
//
// Message bytes move rather than copy: a call body is framed in its own
// buffer, the server opens and parses a request in the buffer the link
// delivered, and a reply's results are cut out of the reply in place
// (DESIGN.md, "Message bytes").
#ifndef SFS_SRC_RPC_RPC_H_
#define SFS_SRC_RPC_RPC_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "src/obs/metrics.h"
#include "src/obs/span.h"
#include "src/sim/event.h"
#include "src/sim/network.h"
#include "src/util/bytes.h"
#include "src/util/status.h"

namespace rpc {

// How many recent replies a duplicate-request cache retains.  A
// retransmitted request older than this gets an error instead of a
// replay (with a synchronous client it would have to be ancient).
inline constexpr uint32_t kDrcWindow = 64;

// Largest send window a pipelined client may use.  Kept well under
// kDrcWindow so every in-flight seqno (and a margin of recently
// completed ones) still has a cached reply a retransmit can hit.
inline constexpr uint32_t kMaxSendWindow = 32;

// Server-side handler for one RPC program.
using ProgramHandler =
    std::function<util::Result<util::Bytes>(uint32_t proc, const util::Bytes& args)>;

// Optional proc-name resolver: names metric families and spans.
using ProcNamer = std::function<std::string(uint32_t proc)>;

// The server half of a wire format, the mirror image of Transport.  The
// Dispatcher asks it for a request's wire seqno (the DRC key, read before
// anything is decoded), for a fresh request's call body, and for the wire
// bytes of its reply.  It also names the server's spans.
class ServerCodec {
 public:
  // `dispatch_span_prefix` ("rpc.dispatch.") and `drc_hit_span`
  // ("rpc.drc_hit") must outlive the codec; string literals do.
  ServerCodec(const char* dispatch_span_prefix, const char* drc_hit_span)
      : dispatch_span_prefix_(dispatch_span_prefix), drc_hit_span_(drc_hit_span) {}
  virtual ~ServerCodec() = default;
  ServerCodec(const ServerCodec&) = delete;
  ServerCodec& operator=(const ServerCodec&) = delete;

  // Reads the request's cleartext wire seqno and nothing else.
  virtual util::Result<uint32_t> Seqno(const util::Bytes& request) = 0;
  // Decodes a request the DRC did not answer, in the request's own
  // buffer where the format allows.  An empty body defers it: the
  // Dispatcher answers with an empty message, executes nothing and caches
  // nothing.
  virtual util::Result<util::Bytes> Open(util::Bytes request) = 0;
  // Encodes the reply to the fresh request `seqno`; runs once per fresh
  // request, and the DRC replays the result to retransmitted copies.
  virtual util::Bytes Seal(uint32_t seqno, util::Bytes reply) = 0;

  const char* dispatch_span_prefix() const { return dispatch_span_prefix_; }
  const char* drc_hit_span() const { return drc_hit_span_; }

 private:
  const char* dispatch_span_prefix_;
  const char* drc_hit_span_;
};

// The plain Sun-RPC wire format, LinkTransport's peer.
class PlainServerCodec : public ServerCodec {
 public:
  PlainServerCodec() : ServerCodec("rpc.dispatch.", "rpc.drc_hit") {}
  util::Result<uint32_t> Seqno(const util::Bytes& request) override;
  util::Result<util::Bytes> Open(util::Bytes request) override;
  util::Bytes Seal(uint32_t, util::Bytes reply) override { return reply; }
};

class Dispatcher : public sim::Service {
 public:
  // `registry` receives the server.* counters, per-procedure ops metrics
  // and spans; nullptr selects obs::Registry::Default().  `clock`
  // (optional) timestamps drc_hit spans and feeds per-procedure handler
  // latency histograms.  `codec` (which must outlive the dispatcher)
  // selects the wire format; nullptr serves the plain one.
  explicit Dispatcher(obs::Registry* registry = nullptr, const sim::Clock* clock = nullptr,
                      ServerCodec* codec = nullptr);

  // `name` labels this program's server-side metrics
  // ("server.<name>.<PROC>.*"); empty derives "PROG<prog>".
  void RegisterProgram(uint32_t prog, ProgramHandler handler, ProcNamer namer = nullptr,
                       std::string name = "");

  // sim::Service: answer from the duplicate-request cache, or open the
  // call, dispatch it and seal the reply.  Cache answers count in the
  // registry's server.drc_hits.
  util::Result<util::Bytes> Handle(util::Bytes request) override;

 private:
  struct Program {
    ProgramHandler handler;
    ProcNamer namer;
    std::string name;
    obs::ProcMetricsTable metrics;
  };

  // An executed request's wire reply, replayed verbatim to retransmitted
  // copies, and its trace context, which parents their drc-hit spans.
  struct DrcEntry {
    bool cached = false;
    uint32_t seqno = 0;
    util::Bytes reply;
    obs::SpanContext ctx;
  };

  util::Bytes Replay(uint32_t seqno, const DrcEntry& entry);

  PlainServerCodec plain_codec_;
  ServerCodec* codec_;
  std::map<uint32_t, Program> programs_;

  // Duplicate-request cache: a ring of kDrcWindow entries indexed by
  // (seqno - 1) mod kDrcWindow, grown to the highest index used.  Seqnos
  // within the window of drc_max_seqno_ differ mod kDrcWindow, so each
  // holds its own slot; one below the window is refused before the ring
  // is read.
  std::vector<DrcEntry> drc_;
  uint32_t drc_max_seqno_ = 0;

  obs::Registry* registry_;
  const sim::Clock* clock_;
  obs::SpanCollector* spans_;
  obs::Counter* m_drc_hits_;
};

// Names the span a reply's receive-side work nests under: the open span
// of the call that was sent under `seqno`, or an invalid context when no
// call is waiting for it.
using CallSpanFn = std::function<obs::SpanContext(uint32_t seqno)>;

// The wire format of one connection over a sim::Link.  The Client hands
// the transport each call body once and every arriving message; the
// transport owns everything between bodies and wire bytes.  It also names
// the engine's per-call spans and their layer.
class Transport {
 public:
  // `call_span_prefix` ("rpc.call.") and `layer` ("rpc") must outlive the
  // transport; string literals do.
  Transport(sim::Link* link, const char* call_span_prefix, const char* layer)
      : link_(link), call_span_prefix_(call_span_prefix), layer_(layer) {}
  virtual ~Transport() = default;
  Transport(const Transport&) = delete;
  Transport& operator=(const Transport&) = delete;

  // Encodes one call body under its wire seqno, in the body's own buffer
  // where the format allows.  Runs once per call: retransmissions resend
  // the returned bytes verbatim.  The call's span is ambient.
  virtual util::Bytes Frame(uint32_t seqno, util::Bytes body) = 0;

  // Decodes one arriving message and appends the reply bodies it
  // releases to `replies`, in processing order.  An error entry is a
  // message discarded unread (stale, malformed, or failing to open); the
  // Client counts it as an unmatched reply.
  virtual void Unframe(util::Bytes message, const CallSpanFn& call_span,
                       std::vector<util::Result<util::Bytes>>* replies) = 0;

  sim::Link* link() const { return link_; }
  const char* call_span_prefix() const { return call_span_prefix_; }
  const char* layer() const { return layer_; }

 private:
  sim::Link* link_;
  const char* call_span_prefix_;
  const char* layer_;
};

// The plain Sun-RPC wire format: the body with the seqno after the xid.
class LinkTransport : public Transport {
 public:
  explicit LinkTransport(sim::Link* link) : Transport(link, "rpc.call.", "rpc") {}
  util::Bytes Frame(uint32_t seqno, util::Bytes body) override;
  void Unframe(util::Bytes message, const CallSpanFn& call_span,
               std::vector<util::Result<util::Bytes>>* replies) override;
};

class Client {
 public:
  // One program the client calls.  `name` labels its metric family
  // ("rpc.client.<name>.<PROC>.*"; empty derives "PROG<prog>") and
  // `namer` resolves its procedure numbers for metrics and spans.
  struct Program {
    uint32_t prog = 0;
    std::string name;
    ProcNamer namer;
  };

  // `registry` receives the rpc.client.* counters, the per-program metric
  // families and spans; nullptr selects obs::Registry::Default().
  // The client calls only these programs; the first is the default for
  // the program-less Call and CallAsync.  Registers itself as the link's
  // delivery sink; the link and its clock must outlive the client.
  Client(Transport* transport, std::vector<Program> programs,
         obs::Registry* registry = nullptr);
  Client(Transport* transport, uint32_t prog, obs::Registry* registry = nullptr,
         std::string prog_name = "", ProcNamer namer = nullptr);
  ~Client();
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  // Synchronous call.  Errors from the transport (kUnavailable,
  // kSecurityError) and from the remote handler both surface as Status.
  // Submits through the window and runs the event loop until this call
  // completes — earlier async calls' replies are processed (and their
  // callbacks run) along the way.  It pumps the loop at every window, so
  // it must not be called from inside an event (a callback included).
  util::Result<util::Bytes> Call(uint32_t prog, uint32_t proc, const util::Bytes& args);
  util::Result<util::Bytes> Call(uint32_t proc, const util::Bytes& args) {
    return Call(programs_.front().prog, proc, args);
  }

  // Completion for an asynchronous call: the decoded results, or the
  // transport/handler error.  Runs inside a later event dispatch.  Held
  // inline while the call is pending, so a closure within
  // sim::InlineFn's budget costs no allocation.
  using Callback = sim::InlineFn<void(util::Result<util::Bytes>)>;

  // Starts a call without waiting for its reply.  If the window is full,
  // blocks (running the event loop) until a slot frees; the wait is
  // recorded in the rpc.client.queue_wait_ns histogram.  The call
  // completes in a later event, at window 1 too.
  void CallAsync(uint32_t prog, uint32_t proc, const util::Bytes& args, Callback done);
  void CallAsync(uint32_t proc, const util::Bytes& args, Callback done) {
    CallAsync(programs_.front().prog, proc, args, std::move(done));
  }

  // Runs the event loop until every outstanding async call has completed.
  void Drain();

  // Every client is event-driven: deliveries and loss reports arrive
  // through the link's sink and resends are EventQueue timers, so a fleet
  // harness can run one top-level loop over thousands of clients.  A
  // no-op kept because perfbench/fleet.cc still calls it.
  void EnableEventDriven() {}

  // Sliding send window: 1 (default) is stop-and-wait; larger values
  // pipeline up to `window` concurrent calls.  Clamped to kMaxSendWindow.
  void set_window(uint32_t window);
  uint32_t window() const { return window_; }
  uint64_t in_flight() const { return in_flight_; }

 private:
  struct ProgramState {
    uint32_t prog = 0;
    ProcNamer namer;
    obs::ProcMetricsTable metrics;
  };

  struct PendingCall {
    uint32_t xid = 0;  // Also the wire seqno: both advance together.  0 = free slot.
    uint32_t prog = 0;
    uint32_t proc = 0;
    util::Bytes wire;  // Framed once; retransmissions resend these bytes.
    uint64_t t_call_ns = 0;
    uint64_t timer_id = 0;  // Retransmission timer; 0 = none armed.
    // Pipelined: the timer's timeout and the sends so far, less one.
    uint64_t rto_ns = 0;
    uint32_t attempt = 0;
    // Sent at window 1: no timer at send; the link's loss reports and
    // discarded replies arm the resend, by `retry`.
    bool stop_and_wait = false;
    // The armed resend answers a discarded reply: counted in
    // stale_retries rather than link.retransmissions.
    bool stale_resend = false;
    sim::StopAndWaitRetry retry;
    uint64_t span_id = 0;  // Open call span; 0 = tracing off.
    obs::ProcMetrics* pm = nullptr;
    Callback done;
  };

  ProgramState* ProgramFor(uint32_t prog);
  // The outstanding call `xid`, or null.
  PendingCall* FindCall(uint32_t xid);
  // Smallest outstanding xid; next_xid_ when none is outstanding.
  uint32_t OldestXid() const;
  // Assigns the next xid and starts the call's per-procedure accounting;
  // `*proc_name` receives the name its span is called by.
  PendingCall NewCall(uint32_t prog, uint32_t proc, std::string* proc_name);
  // Encodes the call body (with the open span's trace context) and has
  // the transport frame it into call->wire.
  void FrameCall(PendingCall* call, const util::Bytes& args);
  // Sends (or resends) a pending call and, unless it is stop-and-wait,
  // arms its timer.
  void Transmit(PendingCall* call);
  // Stop-and-wait: the call's transmission in flight came to nothing,
  // lost (`why` is the link's report) or answered by a discarded reply
  // (`stale`; `why` says why it was discarded).  Arms the resend the
  // call's StopAndWaitRetry names, or gives up with `why` once that
  // budget is spent.
  void ResendLater(PendingCall* call, bool stale, util::Status why);
  // Dispatches one event; with a call pending there is always one (its
  // timer), so every pump makes progress.
  void PumpOnce();
  // Link delivery sink: unframe, then match each reply body by xid.
  void OnDelivery(sim::Delivery delivery);
  // Retransmission timer fired for `xid`: resend, or (pipelined) give up.
  void OnRetransmitTimer(uint32_t xid);
  // Removes the call from the window and runs its callback.
  void Complete(uint32_t xid, util::Result<util::Bytes> result);

  Transport* transport_;
  sim::Link* link_;
  sim::Clock* clock_;
  std::vector<ProgramState> programs_;
  uint32_t next_xid_ = 1;
  uint32_t window_ = 1;

  // Outstanding calls, one per slot, found by xid.  A window holds at
  // most kMaxSendWindow calls, so a scan is as fast as a tree; a burst of
  // calls reuses its slots, which are released when the client goes idle
  // (a single slot stays, so stop-and-wait calls reuse it).  Each
  // transmission is submitted with its xid as the link tag, so a
  // service-level verdict or loss report names its call directly.
  std::vector<PendingCall> calls_;
  uint32_t in_flight_ = 0;
  // Reply bodies of the message being processed; kept so its capacity is
  // reused from one delivery to the next.
  std::vector<util::Result<util::Bytes>> unframed_;
  // Retransmission timers still armed; cancelled at destruction.
  sim::EventGroup timers_;

  obs::Registry* registry_;
  obs::SpanCollector* spans_;
  obs::Counter* m_stale_retries_;
  obs::Counter* m_unmatched_replies_;
  obs::Counter* m_window_occupancy_sum_;
  obs::Counter* m_window_samples_;
  // In-flight calls across all clients on the registry, for timeline
  // gauge tracks (client window occupancy over virtual time).
  obs::Gauge* g_in_flight_;
  obs::Histogram* m_queue_wait_;
};

}  // namespace rpc

#endif  // SFS_SRC_RPC_RPC_H_
