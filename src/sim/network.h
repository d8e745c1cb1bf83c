// Simulated network: links with latency/bandwidth, a discrete-event
// delivery discipline, and an adversary interposition point.
//
// The paper's threat model (§2.1.2): "malicious parties entirely control
// the network.  Attackers can intercept packets, tamper with them, and
// inject new packets."  The Interposer hook gives tests exactly these
// powers; the LinkProfile reproduces the 100 Mbit/s switched Ethernet of
// the evaluation (§4.1) with separate UDP-like and TCP-like profiles.
//
// Discrete-event model: every message flows through the clock's
// EventQueue (src/sim/event.h).  Submit() schedules a message-arrival
// event on the far host; the Host admits it (or queues it behind a
// concurrency limit, or sheds it past the queue depth), runs the handler
// in a clock measure frame, and schedules a completion event; the reply
// then takes the downlink as a delivery event, which hands it to the
// link's delivery sink.  Nothing executes inline inside Submit, which
// makes the server a genuinely serial (or C-parallel) resource shared by
// every link pointed at it and makes inline-execution timing bugs
// structurally impossible.
//
// Loss: real NFS/SFS transports retransmit, so a dropped message delays
// an operation instead of failing it.  The link reports each lost
// request, lost reply and shed arrival to its sink as a Delivery marked
// lost, at the moment of the loss.  The sender decides what to do: a
// stop-and-wait caller (rpc::Client at window 1, Exchange) resends the
// same wire bytes by StopAndWaitRetry, and a pipelined one ignores the
// report and relies on the timer it armed at send.  Services are
// expected to deduplicate redelivered requests (see rpc::Dispatcher,
// which also serves the SFS secure channel).
#ifndef SFS_SRC_SIM_NETWORK_H_
#define SFS_SRC_SIM_NETWORK_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "src/obs/span.h"
#include "src/sim/clock.h"
#include "src/sim/event.h"
#include "src/util/bytes.h"
#include "src/util/status.h"

namespace sim {

// What a link hands its sink for one transmission (see Link::Submit): a
// reply, a service-level verdict in `status` (dead connection, malformed
// message), or, with `lost` set, the report that the request or its
// reply was lost in transit or shed by the server (`status` says which).
// Every sink gets the loss reports, so one that counts replies must skip
// them.  `tag` echoes the value the sender passed to Submit.
struct Delivery {
  uint64_t tag = 0;
  util::Status status = util::OkStatus();
  util::Bytes response;
  bool lost = false;
};

// A request handler on the far side of a link ("the server machine").
// The request's bytes are the service's to keep or rewrite: a host hands
// over the copy that crossed the wire, so a service decodes in place.
class Service {
 public:
  virtual ~Service() = default;
  virtual util::Result<util::Bytes> Handle(util::Bytes request) = 0;
};

// Adversary hook: sees (and may rewrite, drop, or fabricate) every
// message in both directions.
class Interposer {
 public:
  virtual ~Interposer() = default;
  // Return modified bytes to forward, or an error status to drop the
  // message (the sender resends; after the retry cap the caller observes
  // kUnavailable).
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

// Stop-and-wait's resend rule, the one copy rpc::Client (window 1) and
// Exchange share; one per outstanding request.  No timer runs while a
// request is out, so a slow server is waited for.  A send the link
// reports lost is resent one backed-off RTO later, up to
// max_transmissions sends lost in a row.  A reply the sender discards
// (stale, or failing to open) is resent one initial RTO later and starts
// the loss schedule afresh, up to max_transmissions discarded replies.
class StopAndWaitRetry {
 public:
  // The wait before resending after a loss, or after a `discarded`
  // reply; nullopt once that budget is spent.
  std::optional<uint64_t> Next(const RetryPolicy& policy, bool discarded);

 private:
  uint32_t losses_ = 0;    // Sends lost since the last reply.
  uint32_t discards_ = 0;  // Replies discarded.
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
// vanishes, exactly like a datagram the kernel dropped on a full socket
// buffer, and the client's resend is the recovery.
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

  using ResponseFn = InlineFn<void(util::Result<util::Bytes>)>;

  // Called at message-arrival-event time.  `respond` fires at the
  // service-completion event with the handler's verdict; `shed` (may be
  // null) fires instead, immediately, if the admission queue is full.
  // `ctx` is the submitting client's span context: queue spans parent
  // under it, and the handler executes with it as the ambient stack.
  // `service` overrides the host's default handler for this arrival:
  // per-connection protocol state (an rpc::Dispatcher's duplicate-
  // request cache is keyed by the connection's seqnos) lives in the
  // service, while the machine's slots and queue stay shared here.
  // `connection_alive`, when given, is the submitting connection's
  // liveness flag, cleared when the connection is torn down: a job whose
  // flag is cleared by its service start is dropped (neither executed,
  // since its `service` may be gone too, nor answered), and a verdict
  // whose flag is cleared by its completion is not delivered.
  void Arrive(util::Bytes request, obs::SpanContext ctx, ResponseFn respond,
              EventFn shed = nullptr, Service* service = nullptr,
              std::shared_ptr<const bool> connection_alive = nullptr);

  Clock* clock() const { return clock_; }
  Service* service() const { return service_; }
  const Options& options() const { return options_; }

  uint64_t arrivals() const { return arrivals_; }
  uint64_t shed_count() const { return shed_; }
  uint32_t in_service() const { return in_service_; }
  size_t queue_length() const { return queue_size_; }

 private:
  struct Job {
    util::Bytes request;
    obs::SpanContext ctx;
    ResponseFn respond;
    uint64_t arrive_ns = 0;
    Service* service = nullptr;  // Per-connection override; null = host default.
    std::shared_ptr<const bool> connection_alive;  // Null: no connection to outlive.
  };
  // A job between its service start and its completion event.  The
  // handler's verdict waits here, so the completion event carries only
  // the index into running_.
  struct Running {
    ResponseFn respond;
    util::Result<util::Bytes> result = util::Bytes{};
    std::shared_ptr<const bool> connection_alive;
  };

  // True once the connection a job came from has been torn down.
  static bool Orphaned(const std::shared_ptr<const bool>& connection_alive) {
    return connection_alive != nullptr && !*connection_alive;
  }
  void StartService(Job job);
  // Completion event of running_[index]: answer, free the service slot,
  // start the next queued job.
  void FinishService(uint32_t index);
  // Starts queued jobs while a service slot is free, dropping orphans.
  void StartQueued();

  // Admission queue as a ring over queue_: queue_size_ jobs starting at
  // queue_head_.  It doubles when full and halves when a quarter full, so
  // a steady stream of arrivals allocates nothing and a drained burst
  // does not keep its memory.
  static constexpr size_t kMinQueueSlots = 8;
  void PushJob(Job job);
  Job PopJob();
  void ResizeQueue(size_t slots);

  Clock* clock_;
  Service* service_;
  Options options_;
  std::vector<Job> queue_;
  size_t queue_head_ = 0;
  size_t queue_size_ = 0;
  std::vector<Running> running_;
  std::vector<uint32_t> free_running_;  // Indices of idle running_ entries.
  // Completion events still scheduled; cancelled at destruction so a
  // host can die before its clock without dangling dispatches.
  EventGroup events_;
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

// A bidirectional link to one service: two serial wire directions, the
// far Host, and the interposer chain, all driven by the event queue.
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
  // cancelled here, and the jobs a shared Host still holds for it are
  // disarmed through its liveness flag.
  ~Link();
  Link(const Link&) = delete;
  Link& operator=(const Link&) = delete;

  // Installs (or clears, with nullptr) the adversary.
  void set_interposer(Interposer* interposer) { interposer_ = interposer; }

  // The senders' resend discipline on this link.
  void set_retry_policy(RetryPolicy policy) { retry_policy_ = policy; }
  const RetryPolicy& retry_policy() const { return retry_policy_; }

  // Puts a request on the wire without blocking for the reply, so
  // several calls can share one round-trip of latency.  The uplink and
  // downlink are serial bandwidth resources (busy-until watermarks:
  // concurrent messages overlap in propagation but queue for the wire);
  // the server is the Host's admission/execution pipeline.  Everything
  // beyond the uplink watermark happens as scheduled events: arrival,
  // handler completion, delivery, or the report of a loss.  With spans
  // on, each wire leg is recorded when it is scheduled, as a link.send,
  // link.send.dup or link.recv span under the span ambient at Submit.
  //
  // The submission's Delivery carries back `tag`, a value of the caller's
  // choosing (rpc::Client passes the call's xid, so a verdict or loss
  // report names its call whichever transmission carried it).  Replies
  // are still matched on message content, since duplicated/reordered
  // replies can arrive under any tag.
  void Submit(const util::Bytes& request, uint64_t tag = 0);

  // Receives every delivery at its delivery event; a delivery with no
  // sink installed finds no one listening and is discarded.  One
  // top-level EventQueue loop can drive any number of links this way.
  // Returns the sink it replaces.
  std::function<void(Delivery)> set_delivery_sink(std::function<void(Delivery)> sink) {
    std::swap(sink_, sink);
    return sink;
  }

  // Counts a sender's resend in link.retransmissions.
  void NoteRetransmission() { m_retransmissions_->Increment(); }

  Clock* clock() const { return clock_; }
  Host* host() const { return host_; }
  const LinkProfile& profile() const { return profile_; }

 private:
  // Wire occupancy (bandwidth) of one message, excluding propagation.
  uint64_t SerializationNs(size_t bytes) const;
  void CountMessage(size_t bytes);
  bool SpansEnabled() const;
  // One transmission of a submission, as its arrival and completion
  // closures carry it; `ctx` parents its leg spans.
  struct Leg {
    uint64_t tag = 0;
    bool is_duplicate = false;
    obs::SpanContext ctx;
  };
  // Records one wire leg [start_ns, end_ns) as a span, when spans are on.
  void RecordLeg(const char* name, const Leg& leg, uint64_t start_ns, uint64_t end_ns,
                 size_t bytes);
  // Charges the uplink watermark and schedules the arrival event, which
  // hands the bytes on to the host.
  void ScheduleRequestLeg(Leg leg, util::Bytes wire_request);
  // Service verdict in hand (at completion-event time): run the response
  // interposer, charge the downlink, schedule the delivery event.  Error
  // verdicts take the same downlink leg as success replies.
  void CompleteResponse(Leg leg, util::Result<util::Bytes> result);
  void ScheduleResponseLeg(Leg leg, util::Result<util::Bytes> reply);
  // Schedules the report of a loss, now, as the transmission's delivery.
  void ReportLoss(const Leg& leg, util::Status why);
  void Deliver(Delivery delivery);

  Clock* clock_;
  LinkProfile profile_;
  Service* service_;
  Host* host_;
  std::unique_ptr<Host> owned_host_;
  Interposer* interposer_ = nullptr;
  RetryPolicy retry_policy_;
  // The delivery sink and busy-until watermarks for the two wire
  // directions (the server's occupancy lives in the Host).
  std::function<void(Delivery)> sink_;
  uint64_t uplink_free_ns_ = 0;
  uint64_t downlink_free_ns_ = 0;
  // Arrival and delivery events this link scheduled and has not yet
  // seen dispatch; cancelled at destruction.
  EventGroup events_;
  // Liveness flag for jobs handed to a shared Host, cleared at
  // destruction: the host drops a queued job (whose closures and
  // per-connection service point into this link's connection) instead
  // of starting it, and withholds a finished job's verdict.
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
  // The link.* counters live in the registry, shared across links.
  obs::Registry* registry_ = nullptr;
  obs::Counter* m_messages_ = nullptr;
  obs::Counter* m_bytes_ = nullptr;
  obs::Counter* m_retransmissions_ = nullptr;
  obs::Counter* m_drops_ = nullptr;
  obs::Counter* m_duplicates_ = nullptr;
};

// One request and its reply over `link`, for the connection messages
// that precede an RPC channel (SFS connect and negotiate, the SRP key
// fetch, SFSRO).  It resends by StopAndWaitRetry, a reply `accept`
// refuses (stale or unexpected) being a discarded one; a service-level
// verdict ends it, and a spent budget returns the last loss or refusal.
// Runs the event loop until done, so call it neither from inside an event
// nor while calls are in flight on the link: it takes the link's delivery
// sink and puts back the one it found.
using ReplyCheck = std::function<util::Status(const util::Bytes& reply)>;
util::Result<util::Bytes> Exchange(Link* link, const util::Bytes& request,
                                   const ReplyCheck& accept = nullptr);

}  // namespace sim

#endif  // SFS_SRC_SIM_NETWORK_H_
