// The discrete-event core and the timing bugs it was built to kill.
//
// Layer one pins the EventQueue itself: deterministic FIFO among equal
// timestamps, cancellation that neither runs nor charges, ids that go
// stale when their slot is reused, closures that run (or die) exactly
// once, and allocation budgets: warm Schedule/Cancel/RunOne cycles
// allocate nothing for closures within EventFn's inline size, and a warm
// pipelined plain-RPC call allocates only for its message bytes.  Layer two
// pins the Host admission pipeline (bounded queue, shedding, retransmit
// recovery) and the sim::Link regressions fixed alongside it: error
// verdicts that used to skip the downlink leg, duplicate deliveries that
// used to ride the server for free, transit_info entries that used to be
// size-pruned while their tokens were still in flight, and reorder-held
// responses that used to vanish from the accounting at end of run.  A
// differential test checks the event core against the inline watermark
// model (Roundtrip) at window=1 — same timeline, same ledger, to the
// nanosecond — and every scenario re-checks the ledger invariant: the
// per-category totals sum exactly to now_ns().  Layer three tears owners
// down mid-run: a Link, Host or Client cancels exactly its own pending
// events, and a shared Host drops the queued jobs of a connection that
// is gone instead of running them against its freed service.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <deque>
#include <map>
#include <memory>
#include <new>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/obs/metrics.h"
#include "src/obs/span.h"
#include "src/rpc/rpc.h"
#include "src/sim/clock.h"
#include "src/sim/event.h"
#include "src/sim/network.h"
#include "src/util/bytes.h"
#include "src/util/status.h"
#include "src/xdr/xdr.h"

namespace {

// Every replaceable operator new in this binary bumps this count; the
// allocation-budget test reads it around a window of its own calls.
std::atomic<uint64_t> g_allocations{0};

}  // namespace

// GCC pairs the inlined `new` with the free() below and warns; the pair
// is a matched malloc/free.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) {
    return p;
  }
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop

namespace {

using obs::TimeCategory;
using util::Bytes;

Bytes BytesOf(const std::string& s) { return Bytes(s.begin(), s.end()); }

// The ledger invariant under test everywhere: every charged nanosecond
// lands in exactly one category, so the totals reconstruct the clock.
void ExpectLedgerBalanced(const sim::Clock& clock) {
  const sim::Clock::CategorySnapshot snapshot = clock.categories();
  uint64_t total = 0;
  for (uint64_t ns : snapshot.ns) {
    total += ns;
  }
  EXPECT_EQ(total, clock.now_ns()) << "ledger does not sum to now_ns";
}

// Captures a link's deliveries at their delivery events; Next() runs the
// event loop until one is in hand (nullopt once the queue drains first).
class DeliveryCapture {
 public:
  explicit DeliveryCapture(sim::Link* link) : link_(link) {
    link->set_delivery_sink([this](sim::Delivery delivery) {
      captured_.push_back(std::move(delivery));
    });
  }

  std::optional<sim::Delivery> Next() {
    while (captured_.empty() && link_->clock()->events()->RunOne()) {
    }
    if (captured_.empty()) {
      return std::nullopt;
    }
    sim::Delivery delivery = std::move(captured_.front());
    captured_.pop_front();
    return delivery;
  }

 private:
  sim::Link* link_;
  std::deque<sim::Delivery> captured_;
};

// --- EventQueue ------------------------------------------------------------

TEST(EventQueueTest, EqualTimestampsDispatchInScheduleOrder) {
  sim::Clock clock;
  sim::EventQueue* events = clock.events();
  std::vector<int> order;
  // Three events at the same instant, plus one earlier and one later,
  // scheduled in shuffled order: dispatch must be (time, schedule order).
  events->Schedule(100, TimeCategory::kWait, [&] { order.push_back(2); });
  events->Schedule(50, TimeCategory::kWait, [&] { order.push_back(1); });
  events->Schedule(100, TimeCategory::kWait, [&] { order.push_back(3); });
  events->Schedule(200, TimeCategory::kWait, [&] { order.push_back(5); });
  events->Schedule(100, TimeCategory::kWait, [&] { order.push_back(4); });
  while (events->RunOne()) {
  }
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4, 5}));
  EXPECT_EQ(clock.now_ns(), 200u);
  EXPECT_EQ(events->dispatched(), 5u);
  ExpectLedgerBalanced(clock);
}

TEST(EventQueueTest, CancelledEventNeitherRunsNorCharges) {
  sim::Clock clock;
  sim::EventQueue* events = clock.events();
  bool cancelled_ran = false;
  bool live_ran = false;
  // The cancelled timer is the *earlier* one: popping it must not drag
  // the clock to t=50 or charge its kWait gap — the next live event's
  // attribution covers the whole bridge to t=100.
  const sim::EventQueue::EventId timer =
      events->Schedule(50, TimeCategory::kWait, [&] { cancelled_ran = true; });
  events->Schedule(100, TimeCategory::kCpu, [&] { live_ran = true; });
  EXPECT_TRUE(events->Cancel(timer));
  EXPECT_FALSE(events->Cancel(timer)) << "double-cancel must report dead";
  while (events->RunOne()) {
  }
  EXPECT_FALSE(cancelled_ran);
  EXPECT_TRUE(live_ran);
  EXPECT_EQ(events->cancelled(), 1u);
  EXPECT_EQ(events->dispatched(), 1u);
  EXPECT_EQ(clock.now_ns(), 100u);
  EXPECT_EQ(clock.charged_ns(TimeCategory::kWait), 0u);
  EXPECT_EQ(clock.charged_ns(TimeCategory::kCpu), 100u);
  ExpectLedgerBalanced(clock);
}

TEST(EventQueueTest, StaleIdsNeverCancelALaterEvent) {
  sim::Clock clock;
  sim::EventQueue* events = clock.events();
  // A is cancelled, and its heap entry discarded, which frees its slot;
  // B takes the slot under a new generation.
  const sim::EventQueue::EventId a = events->Schedule(10, TimeCategory::kWait, [] {});
  EXPECT_TRUE(events->Cancel(a));
  EXPECT_EQ(events->next_time_ns(), UINT64_MAX) << "A's dead entry is discarded";
  bool b_ran = false;
  const sim::EventQueue::EventId b =
      events->Schedule(20, TimeCategory::kWait, [&] { b_ran = true; });
  EXPECT_EQ(static_cast<uint32_t>(b), static_cast<uint32_t>(a)) << "B reuses A's slot";
  EXPECT_NE(b, a);
  EXPECT_FALSE(events->Cancel(a)) << "a stale id must not cancel the slot's next occupant";
  EXPECT_EQ(events->size(), 1u);
  EXPECT_TRUE(events->RunOne());
  EXPECT_TRUE(b_ran);

  // A dispatched id is stale, from inside its own closure and after.
  sim::EventQueue::EventId c = sim::EventQueue::kInvalidId;
  bool self_cancel = true;
  c = events->Schedule(30, TimeCategory::kWait, [&] { self_cancel = events->Cancel(c); });
  EXPECT_TRUE(events->RunOne());
  EXPECT_FALSE(self_cancel) << "the running event's own id is already stale";
  EXPECT_FALSE(events->Cancel(c));
  EXPECT_FALSE(events->Cancel(sim::EventQueue::kInvalidId));
  EXPECT_EQ(events->cancelled(), 1u);
  EXPECT_EQ(events->dispatched(), 2u);
  ExpectLedgerBalanced(clock);
}

// Counts the destruction of the one instance that was never moved from,
// however often the closure holding it is relocated.
class DestroyCounter {
 public:
  explicit DestroyCounter(int* destroyed) : destroyed_(destroyed) {}
  DestroyCounter(DestroyCounter&& other) noexcept
      : destroyed_(std::exchange(other.destroyed_, nullptr)) {}
  DestroyCounter(const DestroyCounter&) = delete;
  ~DestroyCounter() {
    if (destroyed_ != nullptr) {
      ++*destroyed_;
    }
  }

 private:
  int* destroyed_;
};

TEST(EventQueueTest, OversizedAndMoveOnlyClosuresRunOrDieExactlyOnce) {
  sim::Clock clock;
  sim::EventQueue* events = clock.events();
  int large_runs = 0;
  int move_only_runs = 0;
  std::array<uint64_t, 40> big{};
  big[39] = 7;
  auto large = [&large_runs, big] { large_runs += static_cast<int>(big[39]); };
  static_assert(!sim::EventFn::kStoredInline<decltype(large)>);
  events->Schedule(10, TimeCategory::kWait, std::move(large));
  events->Schedule(20, TimeCategory::kWait,
                   [&move_only_runs, owned = std::make_unique<int>(5)] {
                     move_only_runs += *owned;
                   });

  // Cancelled closures, inline and boxed, are destroyed at the cancel and
  // never again.
  int small_destroyed = 0;
  int boxed_destroyed = 0;
  const auto small_timer = events->Schedule(
      5, TimeCategory::kWait, [counter = DestroyCounter(&small_destroyed)] {});
  const auto boxed_timer = events->Schedule(
      6, TimeCategory::kWait, [counter = DestroyCounter(&boxed_destroyed), big] {});
  EXPECT_TRUE(events->Cancel(small_timer));
  EXPECT_TRUE(events->Cancel(boxed_timer));
  EXPECT_EQ(small_destroyed, 1);
  EXPECT_EQ(boxed_destroyed, 1);

  int ran_destroyed = 0;
  events->Schedule(30, TimeCategory::kWait, [counter = DestroyCounter(&ran_destroyed)] {});
  while (events->RunOne()) {
  }
  EXPECT_EQ(large_runs, 7) << "the boxed closure ran exactly once";
  EXPECT_EQ(move_only_runs, 5) << "the move-only closure ran exactly once";
  EXPECT_EQ(small_destroyed, 1);
  EXPECT_EQ(boxed_destroyed, 1);
  EXPECT_EQ(ran_destroyed, 1) << "a dispatched closure is destroyed once, after running";
  EXPECT_EQ(events->dispatched(), 3u);
  EXPECT_EQ(events->cancelled(), 2u);
  ExpectLedgerBalanced(clock);
}

TEST(EventQueueTest, WarmCyclesAllocateOnlyForOversizedClosures) {
  sim::Clock clock;
  sim::EventQueue* events = clock.events();
  uint64_t runs = 0;
  // 64 bytes of captures, a link arrival event's size: stored inline.
  std::array<uint64_t, 7> word{};
  word[0] = 1;
  auto fits = [&runs, word] { runs += word[0]; };
  static_assert(sizeof(fits) == 64 && sim::EventFn::kStoredInline<decltype(fits)>);
  // Past the inline budget: one allocation per event.
  std::array<uint64_t, 16> block{};
  block[0] = 1;
  auto oversized = [&runs, block] { runs += block[0]; };
  static_assert(!sim::EventFn::kStoredInline<decltype(oversized)>);

  // One cycle: an event and a timer, the timer cancelled, then one
  // dispatch (which discards the dead timer entry on the way).
  auto cycle = [events, &clock](const auto& fn) {
    const uint64_t now = clock.now_ns();
    events->Schedule(now + 10, TimeCategory::kLink, fn);
    events->Cancel(events->Schedule(now + 5, TimeCategory::kWait, fn));
    events->RunOne();
  };
  constexpr uint64_t kWarm = 100;
  constexpr uint64_t kCycles = 10'000;
  // Each window counts its own calls only; no assertion runs inside.
  for (uint64_t i = 0; i < kWarm; ++i) {
    cycle(fits);
  }
  const uint64_t fits_before = g_allocations.load();
  for (uint64_t i = 0; i < kCycles; ++i) {
    cycle(fits);
  }
  const uint64_t fits_allocations = g_allocations.load() - fits_before;
  for (uint64_t i = 0; i < kWarm; ++i) {
    cycle(oversized);
  }
  const uint64_t oversized_before = g_allocations.load();
  for (uint64_t i = 0; i < kCycles; ++i) {
    cycle(oversized);
  }
  const uint64_t oversized_allocations = g_allocations.load() - oversized_before;

  EXPECT_EQ(fits_allocations, 0u) << "steady-state events within the inline size allocate";
  EXPECT_EQ(oversized_allocations, 2 * kCycles) << "one allocation per oversized event";
  EXPECT_EQ(runs, 2 * (kWarm + kCycles));
  EXPECT_EQ(events->cancelled(), 2 * (kWarm + kCycles));
  EXPECT_TRUE(events->empty());
}

TEST(AllocationBudgetTest, WarmPipelinedPlainCallAllocatesFiveTimes) {
  // A plain-RPC call at window 4 over sim::Link, a shared sim::Host and an
  // rpc::Dispatcher, the fleet's path, on a clean link.  Its message
  // bytes cost five allocations: the client's call body (framed in
  // place), the copy the link carries (the client keeps its own for
  // retransmission), the echo handler's results, the reply body and the
  // duplicate-request cache's copy.  Everything else (the pending-call
  // slot, the callback, the host's queue slot, the events, the reply
  // parse) is reused or stored inline.
  sim::Clock clock;
  obs::Registry registry;
  rpc::Dispatcher dispatcher(&registry, &clock);
  dispatcher.RegisterProgram(9, [](uint32_t, const Bytes& args) {
    return util::Result<Bytes>(args);
  });
  sim::Host host(&clock, &dispatcher, &registry);
  sim::Link link(&clock, sim::LinkProfile::Udp(), &host, &registry);
  // A cancelled retransmission timer keeps its event slot until its
  // deadline passes, so the event pool grows for one RTO of virtual time.
  // A short RTO (still far above the round trip) keeps the warm-up short.
  sim::RetryPolicy policy;
  policy.initial_rto_ns = 10'000'000;
  link.set_retry_policy(policy);
  rpc::LinkTransport transport(&link);
  rpc::Client client(&transport, 9, &registry);
  client.set_window(4);

  const Bytes args = BytesOf("a warm pipelined call");
  uint64_t completions = 0;
  auto issue = [&](uint64_t calls) {
    for (uint64_t i = 0; i < calls; ++i) {
      client.CallAsync(1, args, [&completions, &args](util::Result<Bytes> reply) {
        completions += reply.ok() && reply.value() == args ? 1 : 0;
      });
    }
  };
  // Past the growth of the duplicate-request ring, the event pool and
  // every queue on the path.
  constexpr uint64_t kWarm = 2'000;
  constexpr uint64_t kCalls = 1'000;
  issue(kWarm);
  // The window stays full from here on, so no slot is released or
  // regrown; the count is read with the same calls in flight as at its
  // start.
  const uint64_t before = g_allocations.load();
  issue(kCalls);
  const uint64_t allocations = g_allocations.load() - before;
  client.Drain();

  EXPECT_EQ(completions, kWarm + kCalls);
  EXPECT_EQ(allocations, 5 * kCalls) << "allocations per warm pipelined call: "
                                     << static_cast<double>(allocations) / kCalls;
  EXPECT_EQ(registry.CounterValue("link.retransmissions"), 0u);
  ExpectLedgerBalanced(clock);
}

// --- Host admission queue --------------------------------------------------

TEST(HostTest, BoundedQueueShedsAndRetransmissionRecovers) {
  sim::Clock clock;
  obs::Registry registry;
  rpc::Dispatcher dispatcher(&registry, &clock);
  uint64_t executions = 0;
  dispatcher.RegisterProgram(9, [&](uint32_t, const Bytes& args) {
    ++executions;
    clock.Advance(500'000, TimeCategory::kCpu);  // 500 us of service.
    return util::Result<Bytes>(args);
  });
  // One service slot, one queue slot: a window of four nearly
  // simultaneous arrivals must shed at least one.
  sim::Host::Options options;
  options.concurrency = 1;
  options.queue_depth = 1;
  sim::Host host(&clock, &dispatcher, &registry, options);
  sim::Link link(&clock, sim::LinkProfile::Udp(), &host, &registry);
  rpc::LinkTransport transport(&link);
  rpc::Client client(&transport, 9, &registry);
  client.set_window(4);

  constexpr uint64_t kCalls = 16;
  uint64_t completions = 0;
  for (uint64_t i = 0; i < kCalls; ++i) {
    const std::string payload = "op " + std::to_string(i);
    client.CallAsync(1, BytesOf(payload),
                     [payload, &completions](util::Result<Bytes> reply) {
                       ASSERT_TRUE(reply.ok()) << payload << ": "
                                               << reply.status().ToString();
                       EXPECT_EQ(reply.value(), BytesOf(payload)) << payload;
                       ++completions;
                     });
  }
  client.Drain();

  // Shedding happened, produced no reply (only the retransmission timer
  // recovers a shed request), and every call still completed.
  EXPECT_GT(host.shed_count(), 0u);
  EXPECT_GE(registry.CounterValue("link.retransmissions"), host.shed_count());
  EXPECT_EQ(completions, kCalls);
  EXPECT_EQ(client.in_flight(), 0u);
  EXPECT_EQ(registry.CounterValue("server.shed"), host.shed_count());
  // The DRC absorbed retransmissions of requests that did get through.
  EXPECT_GE(executions, kCalls);
  EXPECT_EQ(host.queue_length(), 0u);
  EXPECT_EQ(host.in_service(), 0u);
  ExpectLedgerBalanced(clock);
}

// --- Differential: event core vs the inline watermark model ---------------

// A fixed-cost echo: the same 70 us of kCpu whether it runs inline
// (Roundtrip) or in a measure frame at its service-start event.
class FixedCostEcho : public sim::Service {
 public:
  FixedCostEcho(sim::Clock* clock, uint64_t service_ns)
      : clock_(clock), service_ns_(service_ns) {}
  util::Result<Bytes> Handle(Bytes request) override {
    clock_->Advance(service_ns_, TimeCategory::kCpu);
    return util::Result<Bytes>(request);
  }

 private:
  sim::Clock* clock_;
  uint64_t service_ns_;
};

TEST(DifferentialTest, EventCoreMatchesWatermarkModelAtWindowOne) {
  // Stop-and-wait on a loss-free link is the one regime where the old
  // inline model (charge uplink, run handler, charge downlink) was
  // correct.  The event core must reproduce its timeline exactly:
  // same elapsed time, same per-category ledger, for the same calls.
  constexpr uint64_t kServiceNs = 70'000;
  constexpr int kCalls = 8;

  sim::Clock inline_clock;
  obs::Registry inline_registry;
  FixedCostEcho inline_echo(&inline_clock, kServiceNs);
  sim::Link inline_link(&inline_clock, sim::LinkProfile::Udp(), &inline_echo,
                        &inline_registry);

  sim::Clock event_clock;
  obs::Registry event_registry;
  FixedCostEcho event_echo(&event_clock, kServiceNs);
  sim::Link event_link(&event_clock, sim::LinkProfile::Udp(), &event_echo,
                       &event_registry);
  DeliveryCapture event_deliveries(&event_link);

  for (int i = 0; i < kCalls; ++i) {
    const Bytes payload = BytesOf("differential " + std::to_string(i));

    auto inline_reply = inline_link.Roundtrip(payload);
    ASSERT_TRUE(inline_reply.ok());
    EXPECT_EQ(inline_reply.value(), payload);

    const uint64_t token = event_link.Submit(payload);
    auto delivery = event_deliveries.Next();
    ASSERT_TRUE(delivery.has_value());
    EXPECT_EQ(delivery->token, token);
    ASSERT_TRUE(delivery->status.ok());
    EXPECT_EQ(delivery->response, payload);

    EXPECT_EQ(event_clock.now_ns(), inline_clock.now_ns())
        << "timelines diverged at call " << i;
  }

  const sim::Clock::CategorySnapshot inline_ledger = inline_clock.categories();
  const sim::Clock::CategorySnapshot event_ledger = event_clock.categories();
  for (size_t i = 0; i < obs::kTimeCategoryCount; ++i) {
    EXPECT_EQ(event_ledger.ns[i], inline_ledger.ns[i])
        << "category " << obs::TimeCategoryName(static_cast<TimeCategory>(i));
  }
  EXPECT_EQ(inline_registry.CounterValue("link.messages"),
            event_registry.CounterValue("link.messages"));
  EXPECT_EQ(inline_registry.CounterValue("link.bytes"),
            event_registry.CounterValue("link.bytes"));
  ExpectLedgerBalanced(inline_clock);
  ExpectLedgerBalanced(event_clock);
}

// --- Teardown mid-run -----------------------------------------------------

// One client connection to a shared host: a per-connection dispatcher
// (its own duplicate-request cache) behind its own link.  Members are
// declared so destruction runs client, transport, link, dispatcher.
struct Connection {
  Connection(sim::Clock* clock, sim::Host* host, obs::Registry* registry, uint64_t* executions) {
    dispatcher = std::make_unique<rpc::Dispatcher>(registry, clock);
    dispatcher->RegisterProgram(9, [clock, executions](uint32_t, const Bytes& args) {
      ++*executions;
      clock->Advance(500'000, TimeCategory::kCpu);  // 500 us of service.
      return util::Result<Bytes>(args);
    });
    link = std::make_unique<sim::Link>(clock, sim::LinkProfile::Udp(), host, registry,
                                       dispatcher.get());
    transport = std::make_unique<rpc::LinkTransport>(link.get());
    client = std::make_unique<rpc::Client>(transport.get(), 9, registry);
    client->set_window(4);
  }

  // Issues `calls` echo calls; each verified completion bumps *completions.
  void Issue(int calls, const std::string& name, uint64_t* completions) {
    for (int i = 0; i < calls; ++i) {
      const std::string payload = name + " op " + std::to_string(i);
      client->CallAsync(1, BytesOf(payload), [payload, completions](util::Result<Bytes> reply) {
        EXPECT_TRUE(reply.ok()) << payload << ": " << reply.status().ToString();
        EXPECT_EQ(reply.value(), BytesOf(payload));
        ++*completions;
      });
    }
  }

  std::unique_ptr<rpc::Dispatcher> dispatcher;
  std::unique_ptr<sim::Link> link;
  std::unique_ptr<rpc::LinkTransport> transport;
  std::unique_ptr<rpc::Client> client;
};

TEST(HostTest, TornDownConnectionsQueuedJobsAreDroppedNotRun) {
  // Regression: the host kept the per-connection Service* of a queued
  // job and called it at service start even after the connection (and
  // its dispatcher) had been destroyed — a use-after-free under ASan.
  sim::Clock clock;
  obs::Registry registry;
  sim::Host::Options options;
  options.concurrency = 1;
  sim::Host host(&clock, /*service=*/nullptr, &registry, options);
  uint64_t executions_a = 0;
  uint64_t executions_b = 0;
  uint64_t completions_a = 0;
  uint64_t completions_b = 0;
  auto a = std::make_unique<Connection>(&clock, &host, &registry, &executions_a);
  auto b = std::make_unique<Connection>(&clock, &host, &registry, &executions_b);
  a->Issue(3, "A", &completions_a);
  b->Issue(3, "B", &completions_b);
  while (host.arrivals() < 6) {
    ASSERT_TRUE(clock.events()->RunOne());
  }
  // One job in service (A's first), five queued, B's among them.
  EXPECT_EQ(host.in_service(), 1u);
  EXPECT_EQ(host.queue_length(), 5u);
  EXPECT_EQ(executions_b, 0u);

  b.reset();  // Client, link and dispatcher B, in that order.
  clock.events()->RunUntil(UINT64_MAX);

  EXPECT_EQ(completions_a, 3u) << "the surviving connection is served";
  EXPECT_EQ(executions_a, 3u);
  EXPECT_EQ(executions_b, 0u) << "an orphaned job is neither executed nor answered";
  EXPECT_EQ(completions_b, 0u);
  EXPECT_EQ(host.queue_length(), 0u);
  EXPECT_EQ(host.in_service(), 0u);
  EXPECT_TRUE(clock.events()->empty());
  ExpectLedgerBalanced(clock);
}

TEST(TeardownTest, EachOwnerCancelsExactlyItsOwnEvents) {
  sim::Clock clock;
  sim::EventQueue* events = clock.events();
  obs::Registry registry;
  sim::Host::Options options;
  options.concurrency = 1;
  sim::Host host(&clock, /*service=*/nullptr, &registry, options);
  uint64_t executions_a = 0;
  uint64_t executions_b = 0;
  uint64_t completions_a = 0;
  uint64_t completions_b = 0;
  Connection a(&clock, &host, &registry, &executions_a);
  auto b = std::make_unique<Connection>(&clock, &host, &registry, &executions_b);
  b->Issue(3, "B", &completions_b);
  a.Issue(3, "A", &completions_a);
  // B's first call is served first; A's waits behind it.  Stop when that
  // service completes and A's first starts: B's reply is on B's
  // downlink, A's completion is on the host, every call's timer is armed.
  while (executions_a < 1) {
    ASSERT_TRUE(events->RunOne());
  }
  ASSERT_EQ(executions_b, 1u);
  EXPECT_EQ(host.arrivals(), 6u) << "every arrival event has dispatched";
  EXPECT_EQ(events->size(), 8u) << "6 timers, 1 delivery, 1 completion";
  // One more call from B puts an arrival on B's uplink and a fourth timer
  // in B's client.
  b->Issue(1, "B late", &completions_b);
  EXPECT_EQ(events->size(), 10u);

  // The client owns its four retransmission timers.
  uint64_t cancelled = events->cancelled();
  b->client.reset();
  EXPECT_EQ(events->size(), 6u);
  EXPECT_EQ(events->cancelled(), cancelled + 4);
  // The link owns the arrival on its uplink and the delivery on its
  // downlink.
  cancelled = events->cancelled();
  b->transport.reset();
  b->link.reset();
  EXPECT_EQ(events->size(), 4u);
  EXPECT_EQ(events->cancelled(), cancelled + 2);
  b.reset();

  // The host owns the completion of the job in service.  A scratch host
  // on the same clock with an arrival of its own shows it: destroying
  // the host cancels that completion and nothing else.
  FixedCostEcho echo(&clock, 100'000);
  bool answered = false;
  {
    sim::Host scratch(&clock, &echo, &registry);
    scratch.Arrive(BytesOf("never answered"), obs::SpanContext{},
                   [&answered](util::Result<Bytes>) { answered = true; });
    EXPECT_EQ(events->size(), 5u);
    cancelled = events->cancelled();
  }
  EXPECT_EQ(events->size(), 4u);
  EXPECT_EQ(events->cancelled(), cancelled + 1);

  // The survivors' events still run: A's calls all complete, and B's
  // orphaned jobs are dropped at the host.
  events->RunUntil(UINT64_MAX);
  EXPECT_FALSE(answered);
  EXPECT_EQ(completions_a, 3u);
  EXPECT_EQ(executions_a, 3u);
  EXPECT_EQ(completions_b, 0u) << "B's reply died with its link";
  EXPECT_EQ(executions_b, 1u);
  EXPECT_EQ(host.arrivals(), 6u) << "B's late call never arrived";
  EXPECT_TRUE(events->empty());
  ExpectLedgerBalanced(clock);
}

// Answers the request with wire seqno `doomed` with a service-level
// verdict, as a sealed channel answers for a dead session, and passes
// every other request to `inner`.
class FailOneSeqno : public sim::Service {
 public:
  FailOneSeqno(sim::Service* inner, uint32_t doomed) : inner_(inner), doomed_(doomed) {}
  util::Result<Bytes> Handle(Bytes request) override {
    if (xdr::PeekUint32(request, 4).value() == doomed_) {
      return util::Unavailable("connection torn down");
    }
    return inner_->Handle(std::move(request));
  }

 private:
  sim::Service* inner_;
  uint32_t doomed_;
};

// Drops the first `copies` transmissions of the request with wire seqno
// `seqno`.
class DropEarlyCopies : public sim::Interposer {
 public:
  DropEarlyCopies(uint32_t seqno, int copies) : seqno_(seqno), copies_(copies) {}
  util::Result<Bytes> OnRequest(Bytes request) override {
    if (xdr::PeekUint32(request, 4).value() == seqno_ && copies_ > 0) {
      --copies_;
      return util::Unavailable("dropped");
    }
    return request;
  }

 private:
  uint32_t seqno_;
  int copies_;
};

TEST(ClientTest, ServiceVerdictCompletesTheCallItsTransmissionCarried) {
  // Each transmission is tagged with its call's xid, so a verdict that
  // rides a late retransmission still completes its own call — with no
  // cap on how many transmissions a call may make.
  sim::Clock clock;
  obs::Registry registry;
  rpc::Dispatcher dispatcher(&registry, &clock);
  dispatcher.RegisterProgram(9, [](uint32_t, const Bytes& args) {
    return util::Result<Bytes>(args);
  });
  FailOneSeqno service(&dispatcher, /*doomed=*/2);
  sim::Link link(&clock, sim::LinkProfile::Udp(), &service, &registry);
  DropEarlyCopies interposer(/*seqno=*/2, /*copies=*/7);
  link.set_interposer(&interposer);
  sim::RetryPolicy policy;
  policy.max_transmissions = 10;
  link.set_retry_policy(policy);
  rpc::LinkTransport transport(&link);
  rpc::Client client(&transport, 9, &registry);
  client.set_window(4);

  std::vector<std::optional<util::Result<Bytes>>> outcomes(3);
  for (size_t i = 0; i < outcomes.size(); ++i) {
    client.CallAsync(1, BytesOf("op " + std::to_string(i)),
                     [&outcomes, i](util::Result<Bytes> reply) { outcomes[i] = std::move(reply); });
  }
  client.Drain();

  ASSERT_TRUE(outcomes[0].has_value() && outcomes[1].has_value() && outcomes[2].has_value());
  EXPECT_TRUE(outcomes[0]->ok());
  EXPECT_TRUE(outcomes[2]->ok());
  ASSERT_FALSE(outcomes[1]->ok()) << "the verdict completes xid 2, the call it was sent for";
  EXPECT_EQ(outcomes[1]->status().code(), util::ErrorCode::kUnavailable);
  EXPECT_EQ(outcomes[1]->status().message(), "connection torn down");
  EXPECT_EQ(registry.CounterValue("link.retransmissions"), 7u)
      << "the verdict rode the eighth transmission";
  EXPECT_EQ(registry.CounterValue("rpc.client.unmatched_replies"), 0u);
  EXPECT_TRUE(clock.events()->empty());
  ExpectLedgerBalanced(clock);
}

// --- Link timing regressions ----------------------------------------------

// Success with an empty body, or an error verdict, depending on the
// request — both replies have zero payload bytes on the wire.
class VerdictService : public sim::Service {
 public:
  explicit VerdictService(sim::Clock* clock) : clock_(clock) {}
  util::Result<Bytes> Handle(Bytes request) override {
    clock_->Advance(100'000, TimeCategory::kCpu);
    if (util::StringOf(request) == "fail") {
      return util::Unavailable("connection torn down");
    }
    return util::Result<Bytes>(Bytes{});
  }

 private:
  sim::Clock* clock_;
};

TEST(LinkTimingTest, ErrorVerdictTakesTheFullDownlinkLeg) {
  // Regression: error verdicts used to surface instantly, skipping the
  // downlink and the wire-message count — an error was cheaper than the
  // empty success reply carrying the same zero-byte body.  Timed on two
  // fresh links, the verdicts must be indistinguishable on the wire.
  auto timed_delivery = [](const std::string& request, bool expect_ok) {
    sim::Clock clock;
    obs::Registry registry;
    VerdictService service(&clock);
    sim::Link link(&clock, sim::LinkProfile::Udp(), &service, &registry);
    DeliveryCapture deliveries(&link);
    link.Submit(BytesOf(request));
    auto delivery = deliveries.Next();
    EXPECT_TRUE(delivery.has_value());
    EXPECT_EQ(delivery->status.ok(), expect_ok);
    EXPECT_EQ(registry.CounterValue("link.messages"), 2u) << "request + reply, success or not";
    ExpectLedgerBalanced(clock);
    return clock.now_ns();
  };
  const uint64_t success_ns = timed_delivery("pass", /*expect_ok=*/true);
  const uint64_t error_ns = timed_delivery("fail", /*expect_ok=*/false);
  EXPECT_EQ(error_ns, success_ns)
      << "error verdicts must ride the same downlink as success replies";
}

// Duplicates exactly the first request it sees.
class DuplicateFirstRequest : public sim::Interposer {
 public:
  bool DuplicateRequest() override {
    if (fired_) {
      return false;
    }
    fired_ = true;
    return true;
  }

 private:
  bool fired_ = false;
};

TEST(LinkTimingTest, DuplicateDeliveryOccupiesTheSerialServer) {
  // Regression: a network-duplicated request used to be answered without
  // occupying the server, so overload experiments undercounted offered
  // load.  With a serial host and no dedup layer, the duplicate of A
  // must push B's completion back by one full service time.
  constexpr uint64_t kServiceNs = 500'000;
  auto run = [&](sim::Interposer* interposer) {
    sim::Clock clock;
    obs::Registry registry;
    FixedCostEcho echo(&clock, kServiceNs);
    sim::Link link(&clock, sim::LinkProfile::Udp(), &echo, &registry);
    link.set_interposer(interposer);
    DeliveryCapture deliveries(&link);
    link.Submit(BytesOf("request A"));
    link.Submit(BytesOf("request B"));
    for (int i = 0; i < 2; ++i) {
      auto delivery = deliveries.Next();
      EXPECT_TRUE(delivery.has_value());
      EXPECT_TRUE(delivery->status.ok());
    }
    ExpectLedgerBalanced(clock);
    struct Outcome {
      uint64_t elapsed_ns;
      uint64_t messages;
      uint64_t duplicates;
      uint64_t arrivals;
    };
    return Outcome{clock.now_ns(), registry.CounterValue("link.messages"),
                   registry.CounterValue("link.duplicates_delivered"),
                   link.host()->arrivals()};
  };

  const auto plain = run(nullptr);
  DuplicateFirstRequest interposer;
  const auto duplicated = run(&interposer);

  EXPECT_EQ(duplicated.duplicates, 1u);
  EXPECT_EQ(duplicated.arrivals, plain.arrivals + 1)
      << "the duplicate is an ordinary arrival at the host";
  EXPECT_EQ(duplicated.messages, plain.messages + 1)
      << "the duplicate occupies the uplink as a real wire message";
  EXPECT_EQ(duplicated.elapsed_ns, plain.elapsed_ns + kServiceNs)
      << "the duplicate must hold the serial server for a full service time";
}

// --- transit_info_ lifetime ------------------------------------------------

// Drops every request on the floor.
class DropAllRequests : public sim::Interposer {
 public:
  util::Result<Bytes> OnRequest(Bytes) override {
    return util::Unavailable("black hole");
  }
};

TEST(TransitInfoTest, EntriesLiveExactlyAsLongAsTheirTokens) {
  // Regression: transit_info_ was size-capped, so a fleet-scale burst
  // evicted live tokens and orphaned their spans.  Entries must survive
  // any number of in-flight tokens and be erased exactly at delivery,
  // drop, or shed — never by pruning.
  sim::Clock clock;
  obs::Registry registry;
  registry.spans().Enable(
      [&clock] { return clock.now_ns(); },
      [&clock](uint64_t out[obs::kTimeCategoryCount]) {
        const sim::Clock::CategorySnapshot charged = clock.categories();
        for (size_t i = 0; i < obs::kTimeCategoryCount; ++i) {
          out[i] = charged.ns[i];
        }
      });
  FixedCostEcho echo(&clock, 10'000);
  sim::Link link(&clock, sim::LinkProfile::Udp(), &echo, &registry);
  DeliveryCapture deliveries(&link);

  // Far more in-flight tokens than the old cap tolerated: all live, all
  // tracked.
  constexpr uint64_t kInFlight = 512;
  for (uint64_t i = 0; i < kInFlight; ++i) {
    link.Submit(BytesOf("burst " + std::to_string(i)));
  }
  EXPECT_EQ(link.transit_info_size(), kInFlight)
      << "live tokens must never be evicted";
  for (uint64_t i = 0; i < kInFlight; ++i) {
    auto delivery = deliveries.Next();
    ASSERT_TRUE(delivery.has_value());
  }
  EXPECT_EQ(link.transit_info_size(), 0u) << "delivery erases the entry";

  // A request dropped in transit dies with its bookkeeping.
  DropAllRequests black_hole;
  link.set_interposer(&black_hole);
  link.Submit(BytesOf("doomed"));
  EXPECT_EQ(link.transit_info_size(), 0u) << "drop erases the entry";
  EXPECT_EQ(registry.CounterValue("link.drops"), 1u);
  link.set_interposer(nullptr);
  ExpectLedgerBalanced(clock);
}

TEST(TransitInfoTest, ShedArrivalsPruneTheirEntries) {
  sim::Clock clock;
  obs::Registry registry;
  registry.spans().Enable(
      [&clock] { return clock.now_ns(); },
      [&clock](uint64_t out[obs::kTimeCategoryCount]) {
        const sim::Clock::CategorySnapshot charged = clock.categories();
        for (size_t i = 0; i < obs::kTimeCategoryCount; ++i) {
          out[i] = charged.ns[i];
        }
      });
  FixedCostEcho echo(&clock, 500'000);
  sim::Host::Options options;
  options.concurrency = 1;
  options.queue_depth = 0;  // No queue: anything beyond the slot is shed.
  sim::Host host(&clock, &echo, &registry, options);
  sim::Link link(&clock, sim::LinkProfile::Udp(), &host, &registry);
  DeliveryCapture deliveries(&link);

  // Three near-simultaneous arrivals: one serves, two are shed.
  link.Submit(BytesOf("request 1"));
  link.Submit(BytesOf("request 2"));
  link.Submit(BytesOf("request 3"));
  auto delivery = deliveries.Next();
  ASSERT_TRUE(delivery.has_value());
  clock.events()->RunUntil(UINT64_MAX);  // Drain any remaining events.
  EXPECT_EQ(host.shed_count(), 2u);
  EXPECT_EQ(link.transit_info_size(), 0u)
      << "a shed token's bookkeeping dies at the admission decision";
  ExpectLedgerBalanced(clock);
}

// --- LossyInterposer held-response reconciliation ---------------------------

TEST(LossyTest, FlushHeldReclassifiesTheHeldResponseAsADrop) {
  // reorder=1.0 makes the hold deterministic: the first response is held
  // back, and every later one is swapped for the one in the hold slot —
  // the receiver always sees the previous (stale) message, and exactly
  // one response is still held when the run ends.
  sim::LossyInterposer lossy(/*seed=*/7, {.reorder = 1.0});
  auto r1 = lossy.OnResponse(BytesOf("reply 1"));
  EXPECT_FALSE(r1.ok()) << "first response is held, not delivered";
  EXPECT_TRUE(lossy.has_held());
  auto r2 = lossy.OnResponse(BytesOf("reply 2"));
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r2.value(), BytesOf("reply 1")) << "stale delivery in place of fresh";
  auto r3 = lossy.OnResponse(BytesOf("reply 3"));
  ASSERT_TRUE(r3.ok());
  EXPECT_EQ(r3.value(), BytesOf("reply 2")) << "the hold slot always lags by one";
  ASSERT_TRUE(lossy.has_held());

  // End of run: the held message never reached anyone.  Flushing books
  // it as a drop so sent = delivered + dropped balances.
  EXPECT_EQ(lossy.responses_dropped(), 0u);
  EXPECT_EQ(lossy.FlushHeld(), 1u);
  EXPECT_FALSE(lossy.has_held());
  EXPECT_EQ(lossy.responses_dropped(), 1u);
  EXPECT_EQ(lossy.held_flushed(), 1u);
  EXPECT_EQ(lossy.FlushHeld(), 0u) << "nothing held, nothing to flush";
  EXPECT_EQ(lossy.held_flushed(), 1u);
}

// Counts responses through a LossyInterposer so the end-of-run balance
// can be checked: everything the server sent was either delivered or is
// in a drop counter — nothing vanishes.
class CountingLossy : public sim::Interposer {
 public:
  CountingLossy(uint64_t seed, sim::LossyInterposer::Profile profile)
      : inner_(seed, profile) {}

  util::Result<Bytes> OnRequest(Bytes request) override {
    return inner_.OnRequest(std::move(request));
  }
  util::Result<Bytes> OnResponse(Bytes response) override {
    ++responses_in_;
    auto result = inner_.OnResponse(std::move(response));
    if (result.ok()) {
      ++responses_out_;
    }
    return result;
  }
  bool DuplicateRequest() override { return inner_.DuplicateRequest(); }

  sim::LossyInterposer* inner() { return &inner_; }
  uint64_t responses_in() const { return responses_in_; }
  uint64_t responses_out() const { return responses_out_; }

 private:
  sim::LossyInterposer inner_;
  uint64_t responses_in_ = 0;
  uint64_t responses_out_ = 0;
};

TEST(LossyTest, SeededLossyRunReconcilesAfterFlush) {
  // Sweep seeds until a run ends with a response still held back for
  // reordering (most reordering runs do), then check the books: before
  // the flush the held message is missing from both the delivered and
  // the dropped column; after it, sent = delivered + dropped exactly.
  bool found_held_run = false;
  for (uint64_t seed = 1; seed <= 32 && !found_held_run; ++seed) {
    sim::Clock clock;
    obs::Registry registry;
    rpc::Dispatcher dispatcher(&registry, &clock);
    dispatcher.RegisterProgram(9, [](uint32_t, const Bytes& args) {
      return util::Result<Bytes>(args);
    });
    sim::Link link(&clock, sim::LinkProfile::Udp(), &dispatcher, &registry);
    CountingLossy lossy(seed, {.drop = 0.05, .duplicate = 0.05, .reorder = 0.25});
    link.set_interposer(&lossy);
    rpc::LinkTransport transport(&link);
    rpc::Client client(&transport, 9, &registry);
    client.set_window(2);

    constexpr uint64_t kCalls = 40;
    uint64_t completions = 0;
    for (uint64_t i = 0; i < kCalls; ++i) {
      client.CallAsync(1, BytesOf("op " + std::to_string(i)),
                       [&completions](util::Result<Bytes> reply) {
                         EXPECT_TRUE(reply.ok()) << reply.status().ToString();
                         ++completions;
                       });
    }
    client.Drain();
    EXPECT_EQ(completions, kCalls);
    ExpectLedgerBalanced(clock);

    sim::LossyInterposer* inner = lossy.inner();
    const uint64_t imbalance =
        lossy.responses_in() - lossy.responses_out() - inner->responses_dropped();
    if (inner->has_held()) {
      found_held_run = true;
      EXPECT_EQ(imbalance, 1u) << "exactly the held message is unaccounted";
      EXPECT_EQ(inner->FlushHeld(), 1u);
      EXPECT_EQ(inner->held_flushed(), 1u);
    } else {
      EXPECT_EQ(imbalance, 0u);
    }
    // After reconciliation every response the server sent is either
    // delivered or counted as dropped.
    EXPECT_EQ(lossy.responses_in(),
              lossy.responses_out() + inner->responses_dropped());
  }
  EXPECT_TRUE(found_held_run)
      << "no seed in [1,32] left a held response; weaken the sweep";
}

// --- Ledger at fleet scale -------------------------------------------------

TEST(LedgerTest, MultiClientEventDrivenRunSumsExactlyToNow) {
  // Many event-driven clients over one shared serial host, driven by a
  // single top-level event loop — the fleet_scaling topology in
  // miniature.  However the gaps interleave (transit, service frames,
  // queue waits, retransmission timers), every nanosecond lands in
  // exactly one category.
  sim::Clock clock;
  obs::Registry registry;
  sim::Host::Options options;
  options.concurrency = 1;
  options.queue_depth = 8;
  sim::Host host(&clock, /*service=*/nullptr, &registry, options);

  constexpr int kClients = 24;
  constexpr uint64_t kOpsPerClient = 8;
  struct ClientStack {
    std::unique_ptr<rpc::Dispatcher> dispatcher;
    std::unique_ptr<sim::Link> link;
    std::unique_ptr<rpc::LinkTransport> transport;
    std::unique_ptr<rpc::Client> client;
  };
  std::vector<ClientStack> stacks;
  uint64_t completions = 0;
  for (int i = 0; i < kClients; ++i) {
    ClientStack stack;
    // Per-connection dispatcher: the duplicate-request cache is keyed by
    // this connection's seqnos (see src/sim/network.h, Host::Arrive).
    stack.dispatcher = std::make_unique<rpc::Dispatcher>(&registry, &clock);
    stack.dispatcher->RegisterProgram(9, [&clock](uint32_t, const Bytes& args) {
      clock.Advance(70'000, TimeCategory::kCpu);
      return util::Result<Bytes>(args);
    });
    stack.link = std::make_unique<sim::Link>(&clock, sim::LinkProfile::Udp(),
                                             &host, &registry,
                                             stack.dispatcher.get());
    stack.transport = std::make_unique<rpc::LinkTransport>(stack.link.get());
    stack.client = std::make_unique<rpc::Client>(stack.transport.get(), 9, &registry);
    stack.client->set_window(4);
    stack.client->EnableEventDriven();
    stacks.push_back(std::move(stack));
  }
  for (int i = 0; i < kClients; ++i) {
    for (uint64_t op = 0; op < kOpsPerClient; ++op) {
      const std::string payload =
          "client " + std::to_string(i) + " op " + std::to_string(op);
      stacks[i].client->CallAsync(
          1, BytesOf(payload), [payload, &completions](util::Result<Bytes> reply) {
            EXPECT_TRUE(reply.ok()) << payload << ": " << reply.status().ToString();
            ++completions;
          });
    }
  }
  while (completions < static_cast<uint64_t>(kClients) * kOpsPerClient) {
    ASSERT_TRUE(clock.events()->RunOne()) << "event queue drained early";
  }
  clock.events()->RunUntil(UINT64_MAX);

  EXPECT_GT(clock.now_ns(), 0u);
  // The acceptance criterion: the clock ledger sums exactly to now_ns
  // at multi-client, event-driven scale.
  const sim::Clock::CategorySnapshot snapshot = clock.categories();
  uint64_t total = 0;
  for (size_t i = 0; i < obs::kTimeCategoryCount; ++i) {
    total += snapshot.ns[i];
  }
  ASSERT_EQ(total, clock.now_ns());
  // The serial server occupied the timeline for a full 70 us per
  // executed op, so the run cannot be faster than ops * service.  (The
  // kCpu *category* can total less: a service frame's charge covers only
  // the gap to its completion event, and link-transit events landing
  // inside that gap take their slice as kLink — overlap never
  // double-charges the shared timeline.)
  EXPECT_GE(clock.now_ns(),
            static_cast<uint64_t>(kClients) * kOpsPerClient * 70'000u);
  EXPECT_GT(snapshot.ns[static_cast<size_t>(TimeCategory::kCpu)], 0u);
}

}  // namespace
