// Structured RPC tracing: the paper stresses debuggability ("Our RPC
// library can pretty-print RPC traffic for debugging purposes").  The
// RPC layers (rpc::Client and rpc::Dispatcher, for plain NFS3 and the
// SFS secure channel alike) emit one TraceEvent per wire-visible step —
// call sent, retransmission, stale reply discarded, reply delivered,
// server dispatch, duplicate-request-cache replay — into whatever sinks
// are registered on the owning registry's Tracer.
//
// Two sinks ship here: RingBufferSink keeps the last N events for test
// inspection (the exactly-once proofs read it), and PrettyPrintSink
// formats one line per event through util::log, realizing the paper's
// pretty-printer.  Emission is skipped entirely while no sink is
// registered, so tracing costs one branch when off.
#ifndef SFS_SRC_OBS_TRACE_H_
#define SFS_SRC_OBS_TRACE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/util/log.h"

namespace obs {

class Counter;
class Registry;

struct TraceEvent {
  enum class Kind : uint8_t {
    kClientCall,        // First transmission of a call.
    kClientRetransmit,  // Same call resent (stale or lost reply).
    kClientStaleReply,  // Reply discarded above the link (wrong xid /
                        // keystream position); a retransmit follows.
    kClientReply,       // Matching reply delivered to the application.
    kServerDispatch,    // Handler executed for this request.
    kServerReply,       // Reply left the server (fresh execution).
    kServerDrcHit,      // Retransmit answered from the duplicate-request
                        // cache; the handler did NOT run again.
  };

  Kind kind = Kind::kClientCall;
  const char* layer = "";       // "rpc" (plain Sun-RPC) or "sfs.chan".
  uint32_t prog = 0;
  uint32_t proc = 0;
  std::string proc_name;        // Via the program's proc-name resolver.
  uint32_t xid = 0;
  uint32_t seqno = 0;           // Wire-level seqno (keys the DRC).
  uint64_t wire_bytes = 0;      // Size of the message on the wire.
  uint64_t t_send_ns = 0;       // Virtual time the call was (re)sent.
  uint64_t t_recv_ns = 0;       // Virtual time of receipt (reply events).
  uint32_t attempt = 0;         // Retransmission number; 0 = first copy.
  bool drc_hit = false;         // Server answered from its reply cache.
  std::string note;             // Free-form detail (error text, etc).
};

const char* TraceEventKindName(TraceEvent::Kind kind);

class TraceSink {
 public:
  virtual ~TraceSink() = default;
  virtual void OnEvent(const TraceEvent& event) = 0;
};

// Keeps the most recent `capacity` events; older ones are overwritten.
// Not thread-safe (the simulation is single-threaded; see
// docs/OBSERVABILITY.md for the concurrency story).
class RingBufferSink : public TraceSink {
 public:
  explicit RingBufferSink(size_t capacity = 4096);
  // Also publishes overwrites to the registry's "trace.ring.dropped"
  // counter, so exactly-once proofs can assert no events were lost
  // without holding the sink itself.
  RingBufferSink(size_t capacity, Registry* registry);

  void OnEvent(const TraceEvent& event) override;

  // Oldest-first copy of the retained events.
  std::vector<TraceEvent> Events() const;
  uint64_t total_events() const { return total_; }
  uint64_t dropped() const {
    return total_ > ring_.size() ? total_ - ring_.size() : 0;
  }
  void Clear();

 private:
  size_t capacity_;
  std::vector<TraceEvent> ring_;
  size_t next_ = 0;     // Overwrite position once the ring is full.
  uint64_t total_ = 0;  // Events ever seen.
  Counter* dropped_counter_ = nullptr;  // "trace.ring.dropped", optional.
};

// Pretty-prints each event as one log line at the given level.  Enable
// with util::SetLogLevel(util::LogLevel::kDebug) + sink registration.
class PrettyPrintSink : public TraceSink {
 public:
  explicit PrettyPrintSink(util::LogLevel level = util::LogLevel::kDebug)
      : level_(level) {}

  void OnEvent(const TraceEvent& event) override;

  static std::string Format(const TraceEvent& event);

 private:
  util::LogLevel level_;
};

// Fan-out point the instrumented layers emit through.  Sinks are
// borrowed, not owned; unregister before destroying a sink.
class Tracer {
 public:
  void AddSink(TraceSink* sink);
  void RemoveSink(TraceSink* sink);

  // Fast path: emitting layers check this before building a TraceEvent.
  bool active() const { return !sinks_.empty(); }

  void Emit(const TraceEvent& event) {
    for (TraceSink* sink : sinks_) {
      sink->OnEvent(event);
    }
  }

 private:
  std::vector<TraceSink*> sinks_;
};

}  // namespace obs

#endif  // SFS_SRC_OBS_TRACE_H_
