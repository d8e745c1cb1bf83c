// Minimal Sun-RPC-style call/reply layer over simulated links.
//
// Mirrors the paper's implementation structure (§3.2): programs
// communicate via RPC with XDR-described messages, and the library can
// pretty-print traffic for debugging.  A Dispatcher is the server side of
// one connection; a Client is the one client-side call engine, for plain
// NFS3 and for the SFS secure channel alike.
//
// The engine speaks in bodies; a Transport turns them into wire bytes.
//   call body:  uint32 xid, uint32 prog, uint32 proc, opaque args
//               [, uint64 trace_id, uint64 parent_span_id]  — optional
//               trace context, appended only while span tracing is
//               enabled (the server parents its dispatch span under the
//               client's call span; see docs/OBSERVABILITY.md §"Spans")
//   reply body: uint32 xid, uint32 status (0 = accepted), on error:
//               uint32 code + string message, else opaque results
// LinkTransport sends a call as its body with the wire seqno spliced in
// after the xid (xid, seqno, prog, proc, ...) and a reply as its body;
// sfs::ChannelTransport seals the body and frames it behind a cleartext
// seqno (docs/PROTOCOL.md §10).
//
// At-most-once semantics: calls may be resent, so the server keeps a
// duplicate-request cache (DRC) keyed by the call's wire seqno — a
// redelivered request replays the cached reply instead of re-executing a
// possibly non-idempotent handler.  The Client matches replies to
// outstanding calls by xid; a reply matching no outstanding call (a late
// duplicate from network reordering) is counted and discarded.
//
// Window 1 (the default) is stop-and-wait over Link::Roundtrip, which
// masks transit loss itself: a call waits for its reply however long the
// server takes, and is resent from above the link only when the reply in
// hand is stale.  set_window(n > 1) keeps up to n calls in flight over
// Link::Submit, overlapping their round trips; replies arrive through the
// link's delivery sink, possibly out of order (the xid map reassociates
// them), and each in-flight call arms one cancellable retransmission
// timer on the clock's EventQueue that resends the identical wire bytes.
#ifndef SFS_SRC_RPC_RPC_H_
#define SFS_SRC_RPC_RPC_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "src/obs/metrics.h"
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

// Optional proc-name resolver, used by the traffic pretty-printer.
using ProcNamer = std::function<std::string(uint32_t proc)>;

class Dispatcher : public sim::Service {
 public:
  // `registry` receives the server.* counters, per-procedure ops metrics
  // and trace events; nullptr selects obs::Registry::Default().  `clock`
  // (optional) timestamps trace events and feeds per-procedure handler
  // latency histograms.
  explicit Dispatcher(obs::Registry* registry = nullptr,
                      const sim::Clock* clock = nullptr);

  // `name` labels this program's server-side metrics
  // ("server.<name>.<PROC>.*"); empty derives "PROG<prog>".
  void RegisterProgram(uint32_t prog, ProgramHandler handler, ProcNamer namer = nullptr,
                       std::string name = "");

  // sim::Service: decode the call header, dispatch, encode the reply.
  // Requests answered from the duplicate-request cache count in the
  // registry's server.drc_hits.
  util::Result<util::Bytes> Handle(const util::Bytes& request) override;

 private:
  struct Program {
    ProgramHandler handler;
    ProcNamer namer;
    std::string name;
    obs::ProcMetricsTable metrics;
  };

  std::string ProcNameFor(const Program* program, uint32_t proc) const;

  std::map<uint32_t, Program> programs_;

  // Duplicate-request cache: wire seqno -> complete reply message.
  std::map<uint32_t, util::Bytes> drc_;
  uint32_t drc_max_seqno_ = 0;

  obs::Registry* registry_;
  const sim::Clock* clock_;
  obs::Tracer* tracer_;
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
// the engine's per-call spans and trace events.
class Transport {
 public:
  // `call_span_prefix` ("rpc.call.") and `layer` ("rpc") must outlive the
  // transport; string literals do.
  Transport(sim::Link* link, const char* call_span_prefix, const char* layer)
      : link_(link), call_span_prefix_(call_span_prefix), layer_(layer) {}
  virtual ~Transport() = default;
  Transport(const Transport&) = delete;
  Transport& operator=(const Transport&) = delete;

  // Encodes one call body under its wire seqno.  Runs once per call:
  // retransmissions resend the returned bytes verbatim.  The call's span
  // is ambient.
  virtual util::Bytes Frame(uint32_t seqno, const util::Bytes& body) = 0;

  // Decodes one arriving message into the reply bodies it releases, in
  // processing order.  An error entry is a message discarded unread
  // (stale, malformed, or failing to open); the Client counts it as an
  // unmatched reply.
  virtual std::vector<util::Result<util::Bytes>> Unframe(util::Bytes message,
                                                         const CallSpanFn& call_span) = 0;

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
  util::Bytes Frame(uint32_t seqno, const util::Bytes& body) override;
  std::vector<util::Result<util::Bytes>> Unframe(util::Bytes message,
                                                 const CallSpanFn& call_span) override;
};

class Client {
 public:
  // One program the client calls.  `name` labels its metric family
  // ("rpc.client.<name>.<PROC>.*"; empty derives "PROG<prog>") and
  // `namer` resolves its procedure numbers for metrics, spans and trace
  // events.
  struct Program {
    uint32_t prog = 0;
    std::string name;
    ProcNamer namer;
  };

  // `registry` receives the rpc.client.* counters, the per-program metric
  // families and trace events; nullptr selects obs::Registry::Default().
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
  // With a window > 1 this submits through the window and runs the event
  // loop until this call completes — earlier async calls' replies are
  // processed (and their callbacks run) along the way.
  util::Result<util::Bytes> Call(uint32_t prog, uint32_t proc, const util::Bytes& args);
  util::Result<util::Bytes> Call(uint32_t proc, const util::Bytes& args) {
    return Call(programs_.front().prog, proc, args);
  }

  // Completion for an asynchronous call: the decoded results, or the
  // transport/handler error.  Runs inside a later event dispatch.
  using Callback = std::function<void(util::Result<util::Bytes>)>;

  // Starts a call without waiting for its reply.  If the window is full,
  // blocks (running the event loop) until a slot frees; the wait is
  // recorded in the rpc.client.queue_wait_ns histogram.  At window 1 the
  // call completes synchronously.
  void CallAsync(uint32_t prog, uint32_t proc, const util::Bytes& args, Callback done);
  void CallAsync(uint32_t proc, const util::Bytes& args, Callback done) {
    CallAsync(programs_.front().prog, proc, args, std::move(done));
  }

  // Runs the event loop until every outstanding async call has completed.
  void Drain();

  // Every pipelined client is event-driven: deliveries arrive through the
  // link's sink and each in-flight call arms an EventQueue timer, so a
  // fleet harness can run one top-level loop over thousands of clients.
  // A no-op kept because perfbench/fleet.cc still calls it.
  void EnableEventDriven() {}

  // Sliding send window: 1 (default) is stop-and-wait; larger values
  // pipeline up to `window` concurrent calls.  Clamped to kMaxSendWindow.
  void set_window(uint32_t window);
  uint32_t window() const { return window_; }
  uint64_t in_flight() const { return pending_.size(); }

 private:
  struct ProgramState {
    uint32_t prog = 0;
    ProcNamer namer;
    obs::ProcMetricsTable metrics;
  };

  struct PendingCall {
    uint32_t xid = 0;  // Also the wire seqno: both advance together.
    uint32_t prog = 0;
    uint32_t proc = 0;
    std::string proc_name;
    util::Bytes wire;  // Framed once; retransmissions resend these bytes.
    uint64_t t_call_ns = 0;
    uint64_t rto_ns = 0;
    uint64_t timer_id = 0;  // Retransmission timer; 0 = none armed.
    uint32_t attempt = 0;
    uint64_t span_id = 0;  // Open call span; 0 = tracing off.
    obs::ProcMetrics* pm = nullptr;
    Callback done;
  };

  ProgramState* ProgramFor(uint32_t prog);
  // Assigns the next xid and starts the call's per-procedure accounting.
  PendingCall NewCall(uint32_t prog, uint32_t proc);
  // Encodes the call body (with the open span's trace context) and has
  // the transport frame it into call->wire.
  void FrameCall(PendingCall* call, const util::Bytes& args);
  util::Result<util::Bytes> LegacyCall(uint32_t prog, uint32_t proc, const util::Bytes& args);
  // Sends (or resends) a pending call and arms its timer.
  void Transmit(PendingCall* call);
  // Dispatches one event; with a call pending there is always one (its
  // timer), so every pump makes progress.
  void PumpOnce();
  // Link delivery sink: unframe, then match each reply body by xid.
  void OnDelivery(sim::Delivery delivery);
  // Retransmission timer fired for `xid`: resend or give up.
  void OnRetransmitTimer(uint32_t xid);
  // Removes the call from the window and runs its callback.
  void Complete(uint32_t xid, util::Result<util::Bytes> result);
  void CountUnmatched(uint32_t xid, uint64_t wire_bytes, const std::string& note);
  void EmitEvent(obs::TraceEvent::Kind kind, const PendingCall& call, uint64_t wire_bytes,
                 const std::string& note);

  Transport* transport_;
  sim::Link* link_;
  sim::Clock* clock_;
  std::vector<ProgramState> programs_;
  uint32_t next_xid_ = 1;
  uint32_t window_ = 1;

  // Outstanding pipelined calls by xid, plus the submission-token map
  // used to attribute service-level error deliveries.
  std::map<uint32_t, PendingCall> pending_;
  std::map<uint64_t, uint32_t> token_to_xid_;

  obs::Registry* registry_;
  obs::Tracer* tracer_;
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
