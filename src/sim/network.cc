#include "src/sim/network.h"

#include <algorithm>
#include <optional>
#include <utility>

#include "src/sim/event.h"

namespace sim {

// --- Host -------------------------------------------------------------------

Host::Host(Clock* clock, Service* service, obs::Registry* registry, Options options)
    : clock_(clock), service_(service), options_(options) {
  registry_ = registry != nullptr ? registry : obs::Registry::Default();
  m_queue_wait_ = registry_->GetHistogram("server.queue_wait_ns");
  m_shed_ = registry_->GetCounter("server.shed");
  g_queue_len_ = registry_->GetGauge("server.queue_len");
  g_in_service_ = registry_->GetGauge("server.in_service");
}

Host::~Host() { clock_->events()->CancelGroup(&events_); }

void Host::Arrive(util::Bytes request, obs::SpanContext ctx, ResponseFn respond, EventFn shed,
                  Service* service, std::shared_ptr<const bool> connection_alive) {
  ++arrivals_;
  Job job{std::move(request), ctx, std::move(respond), clock_->now_ns(), service,
          std::move(connection_alive)};
  if (in_service_ < options_.concurrency) {
    StartService(std::move(job));
    return;
  }
  if (queue_size_ < options_.queue_depth) {
    PushJob(std::move(job));
    g_queue_len_->Add(1);
    return;
  }
  // Overload: the admission queue is full and the request vanishes, like
  // a datagram dropped on a full socket buffer.  No reply is ever
  // scheduled; `shed` lets the link report the loss, and the client's
  // resend is the recovery.
  ++shed_;
  m_shed_->Increment();
  if (shed) {
    shed();
  }
}

void Host::PushJob(Job job) {
  if (queue_size_ == queue_.size()) {
    ResizeQueue(std::max<size_t>(2 * queue_.size(), kMinQueueSlots));
  }
  queue_[(queue_head_ + queue_size_) % queue_.size()] = std::move(job);
  ++queue_size_;
}

Host::Job Host::PopJob() {
  Job job = std::move(queue_[queue_head_]);
  queue_head_ = (queue_head_ + 1) % queue_.size();
  --queue_size_;
  if (queue_.size() > kMinQueueSlots && queue_size_ <= queue_.size() / 4) {
    ResizeQueue(queue_.size() / 2);
  }
  return job;
}

void Host::ResizeQueue(size_t slots) {
  // The jobs move, oldest first, to the front of the new ring.
  std::vector<Job> resized(slots);
  for (size_t i = 0; i < queue_size_; ++i) {
    resized[i] = std::move(queue_[(queue_head_ + i) % queue_.size()]);
  }
  queue_ = std::move(resized);
  queue_head_ = 0;
}

void Host::StartService(Job job) {
  ++in_service_;
  g_in_service_->Add(1);
  const uint64_t wait_ns = clock_->now_ns() - job.arrive_ns;
  m_queue_wait_->Record(wait_ns);
  obs::SpanCollector& spans = registry_->spans();
  if (wait_ns != 0 && spans.enabled()) {
    // The queue interval, parented into the submitter's trace.  Tagged
    // kQueue: on the global ledger this time mostly overlaps other
    // requests' service (each nanosecond of the shared timeline is
    // charged once), so the per-request span — not the ledger — is where
    // queueing delay becomes visible (docs/OBSERVABILITY.md).
    obs::Span span;
    span.name = "server.queue";
    span.layer = "sim.host";
    span.start_ns = job.arrive_ns;
    span.end_ns = clock_->now_ns();
    span.cat_ns[static_cast<size_t>(obs::TimeCategory::kQueue)] = wait_ns;
    spans.RecordClosed(std::move(span), job.ctx);
  }

  // Run the handler now, at its service-start event, capturing its
  // charges in a measure frame; the captured breakdown becomes the gap
  // attribution of the completion event, so the service time occupies
  // the timeline between start and completion no matter who pumps the
  // loop.  The ambient span stack is swapped to the submitter's context:
  // handler-internal spans (crypto, disk) must not parent under whatever
  // span the pumping client happens to have open.
  std::vector<uint64_t> saved_stack;
  const bool spans_on = spans.enabled();
  if (spans_on) {
    saved_stack = spans.SwapStack({job.ctx.span_id});
  }
  clock_->BeginMeasureFrame();
  Service* service = job.service != nullptr ? job.service : service_;
  auto result = service->Handle(std::move(job.request));
  const Clock::CategorySnapshot frame = clock_->EndMeasureFrame();
  if (spans_on) {
    spans.SwapStack(std::move(saved_stack));
  }
  uint64_t service_ns = 0;
  for (uint64_t ns : frame.ns) {
    service_ns += ns;
  }
  if (free_running_.empty()) {
    free_running_.push_back(static_cast<uint32_t>(running_.size()));
    running_.emplace_back();
  }
  const uint32_t index = free_running_.back();
  free_running_.pop_back();
  running_[index] = Running{std::move(job.respond), std::move(result),
                            std::move(job.connection_alive)};
  clock_->events()->Schedule(clock_->now_ns() + service_ns, GapAttribution::Proportional(frame),
                             [this, index] { FinishService(index); }, &events_);
}

void Host::FinishService(uint32_t index) {
  // Moved out first: the verdict's closure may start another service,
  // which can grow running_.
  Running done = std::move(running_[index]);
  free_running_.push_back(index);
  if (done.respond && !Orphaned(done.connection_alive)) {
    done.respond(std::move(done.result));
  }
  --in_service_;
  g_in_service_->Add(-1);
  StartQueued();
}

void Host::StartQueued() {
  while (queue_size_ != 0 && in_service_ < options_.concurrency) {
    Job job = PopJob();
    g_queue_len_->Add(-1);
    if (Orphaned(job.connection_alive)) {
      // Its connection was torn down while it waited, and the
      // per-connection service with it: nothing to run, no one to answer.
      continue;
    }
    StartService(std::move(job));
  }
}

// --- Link -------------------------------------------------------------------

Link::Link(Clock* clock, LinkProfile profile, Service* service, obs::Registry* registry)
    : clock_(clock), profile_(profile), service_(service) {
  registry_ = registry != nullptr ? registry : obs::Registry::Default();
  owned_host_ = std::make_unique<Host>(clock, service, registry_);
  host_ = owned_host_.get();
  m_messages_ = registry_->GetCounter("link.messages");
  m_bytes_ = registry_->GetCounter("link.bytes");
  m_retransmissions_ = registry_->GetCounter("link.retransmissions");
  m_drops_ = registry_->GetCounter("link.drops");
  m_duplicates_ = registry_->GetCounter("link.duplicates_delivered");
}

Link::Link(Clock* clock, LinkProfile profile, Host* host, obs::Registry* registry,
           Service* service)
    : clock_(clock),
      profile_(profile),
      service_(service != nullptr ? service : host->service()),
      host_(host) {
  registry_ = registry != nullptr ? registry : obs::Registry::Default();
  m_messages_ = registry_->GetCounter("link.messages");
  m_bytes_ = registry_->GetCounter("link.bytes");
  m_retransmissions_ = registry_->GetCounter("link.retransmissions");
  m_drops_ = registry_->GetCounter("link.drops");
  m_duplicates_ = registry_->GetCounter("link.duplicates_delivered");
}

Link::~Link() {
  *alive_ = false;
  clock_->events()->CancelGroup(&events_);
}

bool Link::SpansEnabled() const { return registry_->spans().enabled(); }

uint64_t Link::SerializationNs(size_t bytes) const {
  if (profile_.bytes_per_sec == 0) {
    return 0;
  }
  return static_cast<uint64_t>(bytes) * 1'000'000'000 / profile_.bytes_per_sec;
}

void Link::CountMessage(size_t bytes) {
  m_messages_->Increment();
  m_bytes_->Increment(bytes);
}

void Link::RecordLeg(const char* name, const Leg& leg, uint64_t start_ns, uint64_t end_ns,
                     size_t bytes) {
  if (end_ns == start_ns || !SpansEnabled()) {
    return;
  }
  // The leg owns the wire from the moment it has it until it lands, so
  // its whole interval is link time; queueing for the wire stays with
  // the sender.
  obs::Span span;
  span.name = name;
  span.layer = "sim.link";
  span.start_ns = start_ns;
  span.end_ns = end_ns;
  span.cat_ns[static_cast<size_t>(obs::TimeCategory::kLink)] = end_ns - start_ns;
  span.wire_bytes = bytes;
  registry_->spans().RecordClosed(std::move(span), leg.ctx);
}

void Link::Submit(const util::Bytes& request, uint64_t tag) {
  Leg leg{tag, false, {}};
  if (SpansEnabled()) {
    leg.ctx = registry_->spans().current();
  }
  // The one copy on the request path: the caller keeps its bytes for
  // retransmission, and this copy travels on to the host.
  util::Bytes wire_request = request;
  if (interposer_ != nullptr) {
    auto intercepted = interposer_->OnRequest(std::move(wire_request));
    if (!intercepted.ok()) {
      m_drops_->Increment();
      ReportLoss(leg, util::Unavailable("request dropped in transit: " +
                                        intercepted.status().message()));
      return;
    }
    wire_request = std::move(intercepted).value();
  }
  // Draw the duplicate verdict before scheduling so the interposer's
  // deterministic sequence stays per-submission, then put both copies on
  // the uplink: each occupies wire bandwidth and, at arrival, the
  // server's admission pipeline — a duplicate is an ordinary arrival
  // that the service must deduplicate, not a free ride.
  if (interposer_ != nullptr && interposer_->DuplicateRequest()) {
    ScheduleRequestLeg(leg, wire_request);
    m_duplicates_->Increment();
    leg.is_duplicate = true;
  }
  ScheduleRequestLeg(leg, std::move(wire_request));
}

void Link::ScheduleRequestLeg(Leg leg, util::Bytes wire_request) {
  CountMessage(wire_request.size());
  // Uplink: messages queue for bandwidth but overlap in propagation.
  const uint64_t up_start = std::max(clock_->now_ns(), uplink_free_ns_);
  uplink_free_ns_ = up_start + SerializationNs(wire_request.size());
  const uint64_t arrive_ns = uplink_free_ns_ + profile_.latency_ns + profile_.per_message_ns;
  RecordLeg(leg.is_duplicate ? "link.send.dup" : "link.send", leg, up_start, arrive_ns,
            wire_request.size());
  auto arrive = [this, leg, request = std::move(wire_request)]() mutable {
    // The verdict may wait in a shared Host's queue past this link's
    // lifetime; alive_ disarms it there.
    host_->Arrive(
        std::move(request), leg.ctx,
        [this, leg](util::Result<util::Bytes> result) {
          if (!leg.is_duplicate) {
            CompleteResponse(leg, std::move(result));
          }
          // A duplicate's reply finds no one waiting (the service
          // deduplicated or re-executed — its choice) and the network
          // discards it.
        },
        [this, leg] {
          // Shed at admission.  A shed duplicate changes nothing for the
          // live original.
          if (!leg.is_duplicate) {
            ReportLoss(leg, util::Unavailable("request shed by the server"));
          }
        },
        service_, alive_);
  };
  static_assert(EventFn::kStoredInline<decltype(arrive)>, "arrival event would allocate");
  clock_->events()->Schedule(arrive_ns, obs::TimeCategory::kLink, std::move(arrive), &events_);
}

void Link::CompleteResponse(Leg leg, util::Result<util::Bytes> result) {
  if (!result.ok()) {
    // A verdict from the service itself (dead connection, bad message)
    // is delivered like a reply: retrying the same bytes cannot help,
    // and the caller must hear about it.  It takes the full downlink leg
    // — latency, per-message overhead, serialization of its (empty)
    // body — and counts as a wire message, exactly like a success reply.
    ScheduleResponseLeg(leg, std::move(result));
    return;
  }
  if (interposer_ != nullptr) {
    auto intercepted = interposer_->OnResponse(std::move(result).value());
    if (!intercepted.ok()) {
      m_drops_->Increment();
      ReportLoss(leg, util::Unavailable("response dropped in transit: " +
                                        intercepted.status().message()));
      return;
    }
    result = std::move(intercepted).value();
  }
  ScheduleResponseLeg(leg, std::move(result));
}

void Link::ScheduleResponseLeg(Leg leg, util::Result<util::Bytes> reply) {
  const size_t bytes = reply.ok() ? reply->size() : 0;
  CountMessage(bytes);
  const uint64_t down_start = std::max(clock_->now_ns(), downlink_free_ns_);
  downlink_free_ns_ = down_start + SerializationNs(bytes);
  const uint64_t deliver_ns =
      downlink_free_ns_ + profile_.latency_ns + profile_.per_message_ns;
  RecordLeg("link.recv", leg, down_start, deliver_ns, bytes);
  auto deliver = [this, tag = leg.tag, reply = std::move(reply)]() mutable {
    if (reply.ok()) {
      Deliver(Delivery{tag, util::OkStatus(), std::move(reply).value()});
    } else {
      Deliver(Delivery{tag, reply.status(), util::Bytes{}});
    }
  };
  static_assert(EventFn::kStoredInline<decltype(deliver)>, "delivery event would allocate");
  clock_->events()->Schedule(deliver_ns, obs::TimeCategory::kLink, std::move(deliver), &events_);
}

void Link::ReportLoss(const Leg& leg, util::Status why) {
  // An event, not a call: the sender hears of the loss from the loop,
  // never from inside Submit or the host.
  auto report = [this, tag = leg.tag, why = std::move(why)]() mutable {
    Deliver(Delivery{tag, std::move(why), util::Bytes{}, /*lost=*/true});
  };
  static_assert(EventFn::kStoredInline<decltype(report)>, "loss report would allocate");
  clock_->events()->Schedule(clock_->now_ns(), obs::TimeCategory::kLink, std::move(report),
                             &events_);
}

void Link::Deliver(Delivery delivery) {
  if (sink_) {
    sink_(std::move(delivery));
  }
}

std::optional<uint64_t> StopAndWaitRetry::Next(const RetryPolicy& policy, bool discarded) {
  if (discarded) {
    losses_ = 0;  // A reply came back: the resend starts a fresh exchange.
  }
  if (++(discarded ? discards_ : losses_) >= std::max<uint32_t>(policy.max_transmissions, 1)) {
    return std::nullopt;
  }
  // The initial RTO, backed off once per earlier loss in a row.
  uint64_t rto_ns = policy.initial_rto_ns;
  for (uint32_t resent = 1; resent < losses_; ++resent) {
    rto_ns = std::min(rto_ns * policy.backoff_factor, policy.max_rto_ns);
  }
  return rto_ns;
}

util::Result<util::Bytes> Exchange(Link* link, const util::Bytes& request,
                                   const ReplyCheck& accept) {
  EventQueue* events = link->clock()->events();
  std::optional<Delivery> delivery;
  std::function<void(Delivery)> found_sink =
      link->set_delivery_sink([&delivery](Delivery d) { delivery = std::move(d); });
  StopAndWaitRetry retry;
  util::Result<util::Bytes> result = util::Unavailable("no reply");
  for (;;) {
    delivery.reset();
    link->Submit(request);
    while (!delivery.has_value()) {
      events->RunOne();
    }
    const bool lost = delivery->lost;
    std::optional<uint64_t> wait_ns;
    if (lost) {
      result = std::move(delivery->status);
      wait_ns = retry.Next(link->retry_policy(), /*discarded=*/false);
    } else if (!delivery->status.ok()) {
      result = std::move(delivery->status);
      break;
    } else if (util::Status refused = accept ? accept(delivery->response) : util::OkStatus();
               refused.ok()) {
      result = std::move(delivery->response);
      break;
    } else {
      result = std::move(refused);
      wait_ns = retry.Next(link->retry_policy(), /*discarded=*/true);
    }
    if (!wait_ns.has_value()) {
      break;
    }
    // Wait out the timeout on the event queue, so everything else on the
    // timeline (other links, timeline edges) runs on time meanwhile.
    bool resend = false;
    events->Schedule(link->clock()->now_ns() + *wait_ns, obs::TimeCategory::kWait,
                     [&resend] { resend = true; });
    while (!resend) {
      events->RunOne();
    }
    if (lost) {
      link->NoteRetransmission();
    }
  }
  link->set_delivery_sink(std::move(found_sink));
  return result;
}

// splitmix64: tiny, deterministic, and independent of the crypto layer.
bool LossyInterposer::Chance(double p) {
  if (p <= 0.0) {
    return false;
  }
  uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  z ^= z >> 31;
  return static_cast<double>(z >> 11) * 0x1.0p-53 < p;
}

util::Result<util::Bytes> LossyInterposer::OnRequest(util::Bytes request) {
  if (Chance(profile_.drop)) {
    ++requests_dropped_;
    return util::Unavailable("lossy network: request lost");
  }
  return request;
}

util::Result<util::Bytes> LossyInterposer::OnResponse(util::Bytes response) {
  if (Chance(profile_.reorder)) {
    ++reorders_;
    if (held_.has_value()) {
      // Deliver the delayed response in place of the fresh one; the
      // receiver sees a stale message and must discard it.
      std::swap(*held_, response);
      return response;
    }
    held_ = std::move(response);
    return util::Unavailable("lossy network: response delayed");
  }
  if (Chance(profile_.drop)) {
    ++responses_dropped_;
    return util::Unavailable("lossy network: response lost");
  }
  return response;
}

bool LossyInterposer::DuplicateRequest() {
  if (Chance(profile_.duplicate)) {
    ++duplicates_;
    return true;
  }
  return false;
}

size_t LossyInterposer::FlushHeld() {
  if (!held_.has_value()) {
    return 0;
  }
  held_.reset();
  ++responses_dropped_;
  ++held_flushed_;
  return 1;
}

}  // namespace sim
