// Simulated network: links with latency/bandwidth, a synchronous
// request/response discipline, and an adversary interposition point.
//
// The paper's threat model (§2.1.2): "malicious parties entirely control
// the network.  Attackers can intercept packets, tamper with them, and
// inject new packets."  The Interposer hook gives tests exactly these
// powers; the LinkProfile reproduces the 100 Mbit/s switched Ethernet of
// the evaluation (§4.1) with separate UDP-like and TCP-like profiles.
//
// Loss masking: real NFS/SFS transports retransmit on a timer, so a
// dropped datagram delays an operation instead of failing it.  Roundtrip
// implements that discipline — the same wire bytes are resent after an
// exponentially backed-off timeout, up to RetryPolicy::max_transmissions;
// only then does the caller observe kUnavailable.  Services are expected
// to deduplicate redelivered requests (see rpc::Dispatcher and
// sfs::ServerConnection).
//
// Discrete-event model: pipelined submissions flow through the clock's
// EventQueue (src/sim/event.h).  Submit() schedules a message-arrival
// event on the far host; the Host admits it (or queues it behind a
// concurrency limit, or sheds it past the queue depth), runs the handler
// in a clock measure frame, and schedules a completion event; the reply
// then takes the downlink as a delivery event, which hands it to the
// link's delivery sink.  Nothing executes inline inside Submit, which
// makes the server a genuinely serial (or C-parallel) resource shared by
// every link pointed at it and makes inline-execution timing bugs
// structurally impossible.
#ifndef SFS_SRC_SIM_NETWORK_H_
#define SFS_SRC_SIM_NETWORK_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>

#include "src/obs/span.h"
#include "src/sim/clock.h"
#include "src/util/bytes.h"
#include "src/util/status.h"

namespace sim {

// One reply arriving on a pipelined link (see Link::Submit).
// `status` carries a service-level verdict (dead connection, malformed
// message); transit loss produces no Delivery at all — the sender's
// retransmission timer is the only signal.
struct Delivery {
  uint64_t token = 0;
  util::Status status = util::OkStatus();
  util::Bytes response;
};

// A request handler on the far side of a link ("the server machine").
class Service {
 public:
  virtual ~Service() = default;
  virtual util::Result<util::Bytes> Handle(const util::Bytes& request) = 0;
};

// Adversary hook: sees (and may rewrite, drop, or fabricate) every
// message in both directions.
class Interposer {
 public:
  virtual ~Interposer() = default;
  // Return modified bytes to forward, or an error status to drop the
  // message (the sender's retransmission timer eventually fires; after
  // the retry cap the caller observes kUnavailable).
  virtual util::Result<util::Bytes> OnRequest(util::Bytes request) { return request; }
  virtual util::Result<util::Bytes> OnResponse(util::Bytes response) { return response; }
  // Network duplication: return true to deliver the current request to
  // the service a second time.  The far side must deduplicate; the extra
  // reply finds no one waiting and is discarded.
  virtual bool DuplicateRequest() { return false; }
};

struct LinkProfile {
  uint64_t latency_ns;          // One-way propagation + switching.
  uint64_t bytes_per_sec;       // Wire bandwidth.
  uint64_t per_message_ns;      // Per-packet protocol overhead (one way).

  // 100 Mbit/s Ethernet, UDP transport (the paper's NFS 3 default).
  static LinkProfile Udp() { return {45'000, 12'500'000, 25'000}; }
  // Same wire, TCP transport (stream reassembly + ack overhead).  This is
  // the profile SFS connections use.
  static LinkProfile Tcp() { return {45'000, 11'500'000, 33'000}; }
  // FreeBSD 3.3's in-kernel NFS-over-TCP, which the paper found
  // "suboptimal" (§4.1, including a kernel panic while writing a large
  // file): same latency, degraded streaming bandwidth.
  static LinkProfile NfsTcpKernel() { return {45'000, 8'200'000, 33'000}; }
  // Loopback for the local-FS baseline.
  static LinkProfile Local() { return {0, 0, 0}; }
};

// Sender-side retransmission discipline (NFS-style timer: the FreeBSD
// default timeo is in this neighborhood, doubling per retry).
struct RetryPolicy {
  uint32_t max_transmissions = 6;        // 1 initial send + 5 retransmissions.
  uint64_t initial_rto_ns = 200'000'000;  // 200 ms before the first retry.
  uint64_t max_rto_ns = 3'200'000'000;    // Backoff ceiling.
  uint32_t backoff_factor = 2;
};

// Deterministic fault injector: drops, duplicates, and reorders messages
// with seeded probabilities.  Used by the fault-injection tests and the
// lossy benchmark configurations; with retransmission plus server-side
// duplicate-request caches, a workload must survive it with zero
// application-visible errors.
class LossyInterposer : public Interposer {
 public:
  struct Profile {
    double drop = 0.0;       // Per-message loss (each direction, independently).
    double duplicate = 0.0;  // Per-request duplicate delivery.
    double reorder = 0.0;    // Per-response delay/swap (stale delivery).
  };

  LossyInterposer(uint64_t seed, Profile profile)
      : state_(seed * 2 + 1), profile_(profile) {}

  util::Result<util::Bytes> OnRequest(util::Bytes request) override;
  util::Result<util::Bytes> OnResponse(util::Bytes response) override;
  bool DuplicateRequest() override;

  // End-of-run reconciliation: a response still held back for reordering
  // has left the simulation without ever being delivered.  Flushing
  // reclassifies it as a drop (counted in responses_dropped and
  // held_flushed), so sent = delivered + dropped balances after a run;
  // without the flush the held message is silently destroyed and the
  // accounting disagrees by one.  Returns how many messages (0 or 1)
  // were reclassified.
  size_t FlushHeld();
  bool has_held() const { return held_.has_value(); }

  uint64_t requests_dropped() const { return requests_dropped_; }
  uint64_t responses_dropped() const { return responses_dropped_; }
  uint64_t duplicates() const { return duplicates_; }
  uint64_t reorders() const { return reorders_; }
  uint64_t held_flushed() const { return held_flushed_; }

 private:
  bool Chance(double p);

  uint64_t state_;
  Profile profile_;
  // A response held back by the network; delivered later in place of a
  // fresher one (the receiver sees a stale message, not silence).
  std::optional<util::Bytes> held_;
  uint64_t requests_dropped_ = 0;
  uint64_t responses_dropped_ = 0;
  uint64_t duplicates_ = 0;
  uint64_t reorders_ = 0;
  uint64_t held_flushed_ = 0;
};

// The server machine as an event source: an admission queue in front of
// a concurrency-limited executor.  Requests arrive from any number of
// links; each is either started immediately (a free service slot),
// queued (recorded as server.queue_wait_ns and, with spans on, a
// server.queue span), or shed when the queue is full — a shed request
// simply vanishes, exactly like a datagram the kernel dropped on a full
// socket buffer, and the client's retransmission timer is the recovery.
//
// The handler runs at its service-start event inside a clock measure
// frame (see sim::Clock), so its disk/CPU/crypto charges are captured
// and replayed as the gap to its completion event: the server occupies
// the timeline for exactly the measured service time, whether or not the
// submitting client is the one pumping the event loop.
class Host {
 public:
  struct Options {
    // Service slots executing concurrently (the paper's server is one
    // machine — 1 models a serial daemon; >1 models SMP or async I/O).
    uint32_t concurrency = 1;
    // Admission-queue bound; arrivals past it are shed.  The default is
    // effectively unbounded (honest infinite-buffer model).
    size_t queue_depth = SIZE_MAX;
  };

  // `registry` receives server.queue_wait_ns / server.shed; nullptr
  // selects obs::Registry::Default().  The clock must outlive the host
  // (completion events scheduled on its queue are cancelled here).
  // Two overloads instead of a defaulted Options argument: a default
  // argument would need Options complete inside its own class.
  Host(Clock* clock, Service* service, obs::Registry* registry = nullptr)
      : Host(clock, service, registry, Options()) {}
  Host(Clock* clock, Service* service, obs::Registry* registry, Options options);
  ~Host();
  Host(const Host&) = delete;
  Host& operator=(const Host&) = delete;

  using ResponseFn = std::function<void(util::Result<util::Bytes>)>;

  // Called at message-arrival-event time.  `respond` fires at the
  // service-completion event with the handler's verdict; `shed` (may be
  // null) fires instead, immediately, if the admission queue is full.
  // `ctx` is the submitting client's span context: queue spans parent
  // under it, and the handler executes with it as the ambient stack.
  // `service` overrides the host's default handler for this arrival:
  // per-connection protocol state (an rpc::Dispatcher's duplicate-
  // request cache is keyed by the connection's seqnos) lives in the
  // service, while the machine's slots and queue stay shared here.
  void Arrive(util::Bytes request, obs::SpanContext ctx, ResponseFn respond,
              std::function<void()> shed = nullptr, Service* service = nullptr);

  Clock* clock() const { return clock_; }
  Service* service() const { return service_; }
  const Options& options() const { return options_; }

  uint64_t arrivals() const { return arrivals_; }
  uint64_t shed_count() const { return shed_; }
  uint32_t in_service() const { return in_service_; }
  size_t queue_length() const { return queue_.size(); }

 private:
  struct Job {
    util::Bytes request;
    obs::SpanContext ctx;
    ResponseFn respond;
    uint64_t arrive_ns = 0;
    Service* service = nullptr;  // Per-connection override; null = host default.
  };

  void StartService(Job job);
  void FinishService();

  Clock* clock_;
  Service* service_;
  Options options_;
  std::deque<Job> queue_;
  // Completion events still scheduled; cancelled at destruction so a
  // host can die before its clock without dangling dispatches.
  std::set<uint64_t> outstanding_events_;
  uint32_t in_service_ = 0;
  uint64_t arrivals_ = 0;
  uint64_t shed_ = 0;
  obs::Registry* registry_;
  obs::Histogram* m_queue_wait_;
  obs::Counter* m_shed_;
  // Instantaneous admission-queue depth and busy executor slots, for
  // obs::Timeline gauge tracks (docs/OBSERVABILITY.md §8).
  obs::Gauge* g_queue_len_;
  obs::Gauge* g_in_service_;
};

// A bidirectional link to one service.  Roundtrip() charges virtual time
// for both directions, runs the interposer chain, and masks transit loss
// by retransmitting the same wire bytes on a backed-off timer.
class Link {
 public:
  // `registry` receives the aggregate link.* counters; nullptr selects
  // the process-wide obs::Registry::Default().  This form gives the link
  // its own private Host around `service` — the classic one-client
  // topology, where the far machine serves only this link.
  Link(Clock* clock, LinkProfile profile, Service* service,
       obs::Registry* registry = nullptr);

  // Shared-host form: many links (client machines) feed one server
  // machine, competing for its service slots and admission queue.
  // `service`, when given, is this connection's endpoint on the server
  // (e.g. its own rpc::Dispatcher, whose duplicate-request cache is
  // keyed by this connection's seqnos); null shares the host's default.
  Link(Clock* clock, LinkProfile profile, Host* host,
       obs::Registry* registry = nullptr, Service* service = nullptr);

  // The clock must outlive the link: in-flight events it scheduled are
  // cancelled here, and response closures a shared Host still holds are
  // disarmed (they hold a weak liveness token, not a bare this).
  ~Link();
  Link(const Link&) = delete;
  Link& operator=(const Link&) = delete;

  // Installs (or clears, with nullptr) the adversary.
  void set_interposer(Interposer* interposer) { interposer_ = interposer; }

  void set_retry_policy(RetryPolicy policy) { retry_policy_ = policy; }
  const RetryPolicy& retry_policy() const { return retry_policy_; }

  util::Result<util::Bytes> Roundtrip(const util::Bytes& request);

  // --- Pipelined mode -----------------------------------------------------
  //
  // Submit() puts a request on the wire without blocking for the reply,
  // so several calls can share one round-trip of latency.  The uplink
  // and downlink are serial bandwidth resources (busy-until watermarks:
  // concurrent messages overlap in propagation but queue for the wire);
  // the server is the Host's admission/execution pipeline.  Everything
  // beyond the uplink watermark happens as scheduled events: arrival,
  // handler completion, delivery.  A message the interposer drops
  // schedules no delivery: the caller's retransmission timer is the
  // only recovery, exactly as with Roundtrip().
  //
  // Returns a token identifying the submission; the matching Delivery
  // carries it back (callers typically match on message content instead,
  // since duplicated/reordered replies can arrive under any token).
  uint64_t Submit(const util::Bytes& request);

  // Receives every delivery at its delivery event; a delivery with no
  // sink installed finds no one listening and is discarded.  One
  // top-level EventQueue loop can drive any number of links this way.
  void set_delivery_sink(std::function<void(Delivery)> sink) {
    sink_ = std::move(sink);
  }

  // Counts a client-driven retransmission in link.retransmissions
  // (pipelined callers resend on their own timers; Roundtrip's internal
  // retry loop counts itself).
  void NoteRetransmission() { m_retransmissions_->Increment(); }

  // In-flight span bookkeeping entries (bounded by in-flight tokens:
  // entries are erased at delivery and on every drop/shed — a live
  // token is never evicted).
  size_t transit_info_size() const { return transit_info_.size(); }

  Clock* clock() const { return clock_; }
  Host* host() const { return host_; }
  const LinkProfile& profile() const { return profile_; }

 private:
  void ChargeOneWay(size_t bytes, const char* span_name);
  // Wire occupancy (bandwidth) of one message, excluding propagation.
  uint64_t SerializationNs(size_t bytes) const;
  void CountMessage(size_t bytes);
  bool SpansEnabled() const;
  // Charges the uplink watermark and schedules the arrival event.
  void ScheduleRequestLeg(uint64_t token, const util::Bytes& wire_request,
                          obs::SpanContext ctx, bool is_duplicate);
  // Service verdict in hand (at completion-event time): run the response
  // interposer, charge the downlink, schedule the delivery event.  Error
  // verdicts take the same downlink leg as success replies.
  void CompleteResponse(uint64_t token, util::Result<util::Bytes> result);
  void ScheduleResponseLeg(uint64_t token, util::Status status, util::Bytes response);
  // Delivery-event time: record the transit span, then hand to the sink.
  void Deliver(Delivery delivery);
  void EraseTransitInfo(uint64_t token);
  // Schedules on the clock's queue, tracking the id for cancellation at
  // destruction (the event wrapper un-tracks itself on dispatch).
  void ScheduleEvent(uint64_t at_ns, obs::TimeCategory category,
                     std::function<void()> fn);

  Clock* clock_;
  LinkProfile profile_;
  Service* service_;
  Host* host_;
  std::unique_ptr<Host> owned_host_;
  Interposer* interposer_ = nullptr;
  RetryPolicy retry_policy_;
  // Pipelined-mode state: the delivery sink and busy-until watermarks
  // for the two wire directions (the server's occupancy lives in the
  // Host).
  std::function<void(Delivery)> sink_;
  uint64_t next_token_ = 1;
  uint64_t uplink_free_ns_ = 0;
  uint64_t downlink_free_ns_ = 0;
  // Pipelined-mode span bookkeeping: the ambient span and submit time of
  // each in-flight token, so the delivery event can record a
  // "link.transit" span parented into the submitter's trace.  Entries
  // are erased exactly when the token dies — delivery, interposer drop,
  // or server shed — never by size pruning (which used to evict live
  // tokens at fleet scale and orphan their spans).
  struct TransitInfo {
    uint64_t trace_id = 0;
    uint64_t parent_span_id = 0;
    uint64_t submit_ns = 0;
  };
  std::map<uint64_t, TransitInfo> transit_info_;
  // Events this link scheduled and has not yet seen dispatch; cancelled
  // at destruction.
  std::set<uint64_t> outstanding_events_;
  // Liveness token for closures handed to a shared Host: they capture a
  // weak copy and no-op once the link is gone.
  std::shared_ptr<char> alive_ = std::make_shared<char>(0);
  // The link.* counters live in the registry, shared across links.
  obs::Registry* registry_ = nullptr;
  obs::Counter* m_messages_ = nullptr;
  obs::Counter* m_bytes_ = nullptr;
  obs::Counter* m_retransmissions_ = nullptr;
  obs::Counter* m_drops_ = nullptr;
  obs::Counter* m_duplicates_ = nullptr;
};

}  // namespace sim

#endif  // SFS_SRC_SIM_NETWORK_H_
