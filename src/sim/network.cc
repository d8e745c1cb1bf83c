#include "src/sim/network.h"

#include <algorithm>
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

Host::~Host() {
  for (uint64_t id : outstanding_events_) {
    clock_->events()->Cancel(id);
  }
}

void Host::Arrive(util::Bytes request, obs::SpanContext ctx, ResponseFn respond,
                  std::function<void()> shed, Service* service) {
  ++arrivals_;
  Job job{std::move(request), ctx, std::move(respond), clock_->now_ns(), service};
  if (in_service_ < options_.concurrency) {
    StartService(std::move(job));
    return;
  }
  if (queue_.size() < options_.queue_depth) {
    queue_.push_back(std::move(job));
    g_queue_len_->Add(1);
    return;
  }
  // Overload: the admission queue is full and the request vanishes, like
  // a datagram dropped on a full socket buffer.  No reply is ever
  // scheduled; the client's retransmission timer is the recovery.
  ++shed_;
  m_shed_->Increment();
  if (shed) {
    shed();
  }
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
  auto result = service->Handle(job.request);
  const Clock::CategorySnapshot frame = clock_->EndMeasureFrame();
  if (spans_on) {
    spans.SwapStack(std::move(saved_stack));
  }
  uint64_t service_ns = 0;
  for (uint64_t ns : frame.ns) {
    service_ns += ns;
  }
  auto id_holder = std::make_shared<uint64_t>(0);
  const uint64_t id = clock_->events()->Schedule(
      clock_->now_ns() + service_ns, GapAttribution::Proportional(frame),
      [this, id_holder, respond = std::move(job.respond),
       result = std::move(result)]() mutable {
        outstanding_events_.erase(*id_holder);
        if (respond) {
          respond(std::move(result));
        }
        FinishService();
      });
  *id_holder = id;
  outstanding_events_.insert(id);
}

void Host::FinishService() {
  --in_service_;
  g_in_service_->Add(-1);
  if (!queue_.empty() && in_service_ < options_.concurrency) {
    Job job = std::move(queue_.front());
    queue_.pop_front();
    g_queue_len_->Add(-1);
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
  for (uint64_t id : outstanding_events_) {
    clock_->events()->Cancel(id);
  }
}

void Link::ScheduleEvent(uint64_t at_ns, obs::TimeCategory category,
                         std::function<void()> fn) {
  auto id_holder = std::make_shared<uint64_t>(0);
  const uint64_t id = clock_->events()->Schedule(
      at_ns, category, [this, id_holder, fn = std::move(fn)] {
        outstanding_events_.erase(*id_holder);
        fn();
      });
  *id_holder = id;
  outstanding_events_.insert(id);
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

void Link::ChargeOneWay(size_t bytes, const char* span_name) {
  uint64_t transit = profile_.latency_ns + profile_.per_message_ns + SerializationNs(bytes);
  const uint64_t start_ns = clock_->now_ns();
  clock_->Advance(transit, obs::TimeCategory::kLink);
  CountMessage(bytes);
  if (transit != 0 && SpansEnabled()) {
    obs::SpanCollector& spans = registry_->spans();
    obs::Span span;
    span.name = span_name;
    span.layer = "sim.link";
    span.start_ns = start_ns;
    span.end_ns = start_ns + transit;
    span.cat_ns[static_cast<size_t>(obs::TimeCategory::kLink)] = transit;
    span.wire_bytes = bytes;
    spans.RecordClosed(std::move(span), spans.current());
  }
}

void Link::EraseTransitInfo(uint64_t token) { transit_info_.erase(token); }

uint64_t Link::Submit(const util::Bytes& request) {
  const uint64_t token = next_token_++;
  obs::SpanContext ctx;
  if (SpansEnabled()) {
    ctx = registry_->spans().current();
    transit_info_[token] = TransitInfo{ctx.trace_id, ctx.span_id, clock_->now_ns()};
  }
  util::Bytes wire_request = request;
  if (interposer_ != nullptr) {
    auto intercepted = interposer_->OnRequest(std::move(wire_request));
    if (!intercepted.ok()) {
      // Lost in transit: no arrival is ever scheduled; the sender's
      // retransmission timer is the only recovery.  The token is dead,
      // so its span bookkeeping goes with it.
      m_drops_->Increment();
      EraseTransitInfo(token);
      return token;
    }
    wire_request = std::move(intercepted).value();
  }
  // Draw the duplicate verdict before scheduling so the interposer's
  // deterministic sequence stays per-submission, then put both copies on
  // the uplink: each occupies wire bandwidth and, at arrival, the
  // server's admission pipeline — a duplicate is an ordinary arrival
  // that the service must deduplicate, not a free ride.
  const bool duplicate = interposer_ != nullptr && interposer_->DuplicateRequest();
  ScheduleRequestLeg(token, wire_request, ctx, /*is_duplicate=*/false);
  if (duplicate) {
    m_duplicates_->Increment();
    ScheduleRequestLeg(token, wire_request, ctx, /*is_duplicate=*/true);
  }
  return token;
}

void Link::ScheduleRequestLeg(uint64_t token, const util::Bytes& wire_request,
                              obs::SpanContext ctx, bool is_duplicate) {
  CountMessage(wire_request.size());
  // Uplink: messages queue for bandwidth but overlap in propagation.
  const uint64_t up_start = std::max(clock_->now_ns(), uplink_free_ns_);
  uplink_free_ns_ = up_start + SerializationNs(wire_request.size());
  const uint64_t arrive_ns = uplink_free_ns_ + profile_.latency_ns + profile_.per_message_ns;
  ScheduleEvent(
      arrive_ns, obs::TimeCategory::kLink,
      [this, token, wire_request, ctx, is_duplicate] {
        // The respond/shed closures may sit in a shared Host's queue past
        // this link's lifetime; the weak token disarms them.
        std::weak_ptr<char> alive = alive_;
        host_->Arrive(
            wire_request, ctx,
            [this, alive, token, is_duplicate](util::Result<util::Bytes> result) {
              if (alive.expired() || is_duplicate) {
                // A dead link has no one to carry the reply to; a
                // duplicate's reply finds no one waiting (the service
                // deduplicated or re-executed — its choice) and the
                // network discards it.
                return;
              }
              CompleteResponse(token, std::move(result));
            },
            [this, alive, token, is_duplicate] {
              // Shed at admission: the token is dead (for the original;
              // a shed duplicate changes nothing for the live original).
              if (!alive.expired() && !is_duplicate) {
                EraseTransitInfo(token);
              }
            },
            service_);
      });
}

void Link::CompleteResponse(uint64_t token, util::Result<util::Bytes> result) {
  if (!result.ok()) {
    // A verdict from the service itself (dead connection, bad message)
    // is delivered like a reply: retrying the same bytes cannot help,
    // and the caller must hear about it.  It takes the full downlink leg
    // — latency, per-message overhead, serialization of its (empty)
    // body — and counts as a wire message, exactly like a success reply.
    ScheduleResponseLeg(token, result.status(), util::Bytes{});
    return;
  }
  util::Bytes wire_response = std::move(result).value();
  if (interposer_ != nullptr) {
    auto intercepted = interposer_->OnResponse(std::move(wire_response));
    if (!intercepted.ok()) {
      m_drops_->Increment();
      EraseTransitInfo(token);
      return;
    }
    wire_response = std::move(intercepted).value();
  }
  ScheduleResponseLeg(token, util::OkStatus(), std::move(wire_response));
}

void Link::ScheduleResponseLeg(uint64_t token, util::Status status,
                               util::Bytes response) {
  CountMessage(response.size());
  const uint64_t down_start = std::max(clock_->now_ns(), downlink_free_ns_);
  downlink_free_ns_ = down_start + SerializationNs(response.size());
  const uint64_t deliver_ns =
      downlink_free_ns_ + profile_.latency_ns + profile_.per_message_ns;
  ScheduleEvent(
      deliver_ns, obs::TimeCategory::kLink,
      [this, token, status = std::move(status),
       response = std::move(response)]() mutable {
        Deliver(Delivery{token, std::move(status), std::move(response)});
      });
}

void Link::Deliver(Delivery delivery) {
  if (auto info = transit_info_.find(delivery.token); info != transit_info_.end()) {
    if (SpansEnabled()) {
      // Interval marker covering submit → delivery, parented into the
      // submitter's trace.  Categories stay empty: the interval overlaps
      // the server's service time and any concurrent transits, so a
      // ledger slice here would misattribute shared time.
      obs::Span span;
      span.name = "link.transit";
      span.layer = "sim.link";
      span.start_ns = info->second.submit_ns;
      span.end_ns = clock_->now_ns();
      span.wire_bytes = delivery.response.size();
      span.error = !delivery.status.ok();
      registry_->spans().RecordClosed(
          std::move(span),
          obs::SpanContext{info->second.trace_id, info->second.parent_span_id});
    }
    transit_info_.erase(info);
  }
  if (sink_) {
    sink_(std::move(delivery));
  }
}

util::Result<util::Bytes> Link::Roundtrip(const util::Bytes& request) {
  uint64_t rto = retry_policy_.initial_rto_ns;
  util::Status last_drop = util::Unavailable("request dropped in transit");
  for (uint32_t attempt = 0; attempt < retry_policy_.max_transmissions; ++attempt) {
    if (attempt > 0) {
      // The full retransmission timeout elapses before the sender gives
      // up on the outstanding copy and resends the same wire bytes.
      clock_->Advance(rto, obs::TimeCategory::kWait);
      rto = std::min(rto * retry_policy_.backoff_factor, retry_policy_.max_rto_ns);
      m_retransmissions_->Increment();
    }

    util::Bytes wire_request = request;
    if (interposer_ != nullptr) {
      auto intercepted = interposer_->OnRequest(std::move(wire_request));
      if (!intercepted.ok()) {
        m_drops_->Increment();
        last_drop = util::Unavailable("request dropped in transit: " +
                                      intercepted.status().message());
        continue;
      }
      wire_request = std::move(intercepted).value();
    }
    ChargeOneWay(wire_request.size(), "link.send");

    auto response = service_->Handle(wire_request);
    if (!response.ok()) {
      // An error from the service itself (dead connection, bad message)
      // is not transit loss; retrying the same bytes cannot help.
      return response.status();
    }
    util::Bytes wire_response = std::move(response).value();

    if (interposer_ != nullptr && interposer_->DuplicateRequest()) {
      // The network delivers a second copy of the request.  The service
      // must deduplicate; its reply to the copy finds no one waiting.
      m_duplicates_->Increment();
      ChargeOneWay(wire_request.size(), "link.send.dup");
      (void)service_->Handle(wire_request);
    }

    if (interposer_ != nullptr) {
      auto intercepted = interposer_->OnResponse(std::move(wire_response));
      if (!intercepted.ok()) {
        m_drops_->Increment();
        last_drop = util::Unavailable("response dropped in transit: " +
                                      intercepted.status().message());
        continue;
      }
      wire_response = std::move(intercepted).value();
    }
    ChargeOneWay(wire_response.size(), "link.recv");
    return wire_response;
  }
  return last_drop;
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
