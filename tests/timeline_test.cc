// The telemetry timeline and the primitives beneath it.
//
// Layer one pins the new obs:: primitives: first-class gauges (rise and
// fall, snapshot inclusion) and histogram snapshot diffs (windowed
// deltas that sum back to the cumulative distribution).  Layer two pins
// the Timeline itself with hand-fed edges: contiguous windows, catch-up
// windows, utilization shares that sum exactly to each window's span,
// and the episode annotator's begin/end placement.  Layer three drives
// a real bounded-queue sim::Host through a shedding burst and checks
// the annotator finds exactly the overload it caused — and nothing in a
// clean run — plus the sampler properties the BENCH baselines rely on:
// edges never move real events, a late edge closes one catch-up window,
// and the ledger reads the same with or without a sampler.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "src/obs/metrics.h"
#include "src/obs/timeline.h"
#include "src/rpc/rpc.h"
#include "src/sim/clock.h"
#include "src/sim/event.h"
#include "src/sim/network.h"
#include "src/sim/sampler.h"
#include "src/util/bytes.h"
#include "src/util/status.h"

namespace {

using obs::TimeCategory;
using util::Bytes;

Bytes BytesOf(const std::string& s) { return Bytes(s.begin(), s.end()); }

// A ledger stand-in for hand-fed edges: all time in one category, so
// util assertions are easy to state.
struct FakeLedger {
  uint64_t ns[obs::kTimeCategoryCount] = {};
  void ChargeCpuUpTo(uint64_t now_ns) {
    uint64_t total = 0;
    for (uint64_t v : ns) {
      total += v;
    }
    ns[static_cast<size_t>(TimeCategory::kCpu)] += now_ns - total;
  }
};

// --- Gauges -----------------------------------------------------------------

TEST(GaugeTest, SetAddAndRegistryLookup) {
  obs::Registry registry;
  obs::Gauge* gauge = registry.GetGauge("test.depth");
  EXPECT_EQ(gauge->value(), 0);
  gauge->Set(7);
  gauge->Add(3);
  gauge->Add(-10);
  EXPECT_EQ(gauge->value(), 0);
  gauge->Add(-2);
  EXPECT_EQ(gauge->value(), -2);  // Gauges may go negative; counters cannot.
  EXPECT_EQ(registry.GetGauge("test.depth"), gauge);  // Same object on re-get.
  EXPECT_EQ(registry.GaugeValue("test.depth"), -2);
  EXPECT_EQ(registry.GaugeValue("test.absent"), 0);
}

TEST(GaugeTest, SnapshotsIncludeGauges) {
  obs::Registry registry;
  registry.GetGauge("queue.depth")->Set(42);
  const std::string json = registry.SnapshotJson();
  EXPECT_NE(json.find("\"gauges\""), std::string::npos);
  EXPECT_NE(json.find("\"queue.depth\": 42"), std::string::npos);
  const std::string text = registry.SnapshotText();
  EXPECT_NE(text.find("queue.depth"), std::string::npos);
  EXPECT_NE(text.find("(gauge)"), std::string::npos);
}

// --- Histogram snapshot diffs ----------------------------------------------

TEST(HistogramSnapshotTest, WindowDeltasSumToCumulative) {
  obs::Registry registry;
  obs::Histogram* hist = registry.GetHistogram("test.latency_ns");

  // Three "windows" of recordings; snapshot at each edge.
  const std::vector<std::vector<uint64_t>> windows = {
      {100, 200, 400}, {1'000'000, 2'000'000}, {50, 16'000'000, 300}};
  obs::HistogramSnapshot edges[4];
  edges[0] = hist->Snapshot();
  obs::HistogramSnapshot sum_of_deltas;  // Zero-initialized.
  for (size_t w = 0; w < windows.size(); ++w) {
    for (uint64_t v : windows[w]) {
      hist->Record(v);
    }
    edges[w + 1] = hist->Snapshot();
    const obs::HistogramSnapshot delta = edges[w + 1].Delta(edges[w]);
    EXPECT_EQ(delta.count, windows[w].size()) << "window " << w;
    for (size_t b = 0; b < obs::HistogramSnapshot::kNumBuckets; ++b) {
      sum_of_deltas.buckets[b] += delta.buckets[b];
    }
    sum_of_deltas.count += delta.count;
    sum_of_deltas.sum_ns += delta.sum_ns;
  }

  // The windows partition the run: their deltas reassemble the
  // cumulative distribution bucket by bucket.
  const obs::HistogramSnapshot final = hist->Snapshot();
  EXPECT_EQ(sum_of_deltas.count, final.count);
  EXPECT_EQ(sum_of_deltas.sum_ns, final.sum_ns);
  for (size_t b = 0; b < obs::HistogramSnapshot::kNumBuckets; ++b) {
    EXPECT_EQ(sum_of_deltas.buckets[b], final.buckets[b]) << "bucket " << b;
  }
}

TEST(HistogramSnapshotTest, WindowedPercentilesAreLocal) {
  obs::Registry registry;
  obs::Histogram* hist = registry.GetHistogram("test.latency_ns");
  for (int i = 0; i < 100; ++i) {
    hist->Record(1'000);  // 1 us era.
  }
  const obs::HistogramSnapshot edge = hist->Snapshot();
  for (int i = 0; i < 100; ++i) {
    hist->Record(8'000'000);  // 8 ms era.
  }
  // The cumulative distribution straddles both eras; the window sees
  // only the slow one, so even its median lands in the slow era's
  // bucket (the estimator interpolates inside the power-of-two bucket,
  // hence the lower bound is the bucket floor, not the exact value).
  const obs::HistogramSnapshot window = hist->Snapshot().Delta(edge);
  EXPECT_EQ(window.count, 100u);
  EXPECT_GE(window.ApproxPercentileNs(0.50), 4'000'000u);
  EXPECT_LT(edge.ApproxPercentileNs(0.99), 4'000'000u);
}

// --- Timeline with hand-fed edges ------------------------------------------

TEST(TimelineTest, WindowsAreContiguousAndRatesAreWindowed) {
  obs::Registry registry;
  obs::Counter* ops = registry.GetCounter("test.ops");
  obs::Timeline timeline(&registry);
  timeline.AddRateTrack("ops", "test.ops");

  FakeLedger ledger;
  timeline.Start(0, ledger.ns);
  ops->Increment(10);
  ledger.ChargeCpuUpTo(10'000'000);
  timeline.CloseWindow(10'000'000, ledger.ns);
  ops->Increment(30);
  ledger.ChargeCpuUpTo(20'000'000);
  timeline.CloseWindow(20'000'000, ledger.ns);
  ledger.ChargeCpuUpTo(23'000'000);
  timeline.Finalize(23'000'000, ledger.ns);  // Partial trailing window.

  ASSERT_EQ(timeline.windows().size(), 3u);
  const auto& w = timeline.windows();
  EXPECT_EQ(w[0].begin_ns, 0u);
  EXPECT_EQ(w[0].end_ns, 10'000'000u);
  EXPECT_EQ(w[1].begin_ns, 10'000'000u);  // Contiguous.
  EXPECT_EQ(w[2].end_ns, 23'000'000u);
  EXPECT_EQ(w[0].rates[0].delta, 10u);
  EXPECT_EQ(w[1].rates[0].delta, 30u);
  EXPECT_EQ(w[2].rates[0].delta, 0u);
  EXPECT_DOUBLE_EQ(w[0].rates[0].per_sec, 1000.0);  // 10 per 10 ms.
  EXPECT_DOUBLE_EQ(w[1].rates[0].per_sec, 3000.0);
  // Utilization: all charged as kCpu, so each window's CPU share is 1.
  for (const auto& window : w) {
    EXPECT_EQ(window.util_ns[static_cast<size_t>(TimeCategory::kCpu)],
              window.span_ns());
    uint64_t total = 0;
    for (uint64_t ns : window.util_ns) {
      total += ns;
    }
    EXPECT_EQ(total, window.span_ns());  // Shares sum exactly to the span.
    EXPECT_DOUBLE_EQ(window.UtilShare(static_cast<size_t>(TimeCategory::kCpu)),
                     1.0);
  }
}

TEST(TimelineTest, CatchUpWindowCoversTheWholeGap) {
  obs::Registry registry;
  obs::Timeline timeline(&registry);
  FakeLedger ledger;
  timeline.Start(0, ledger.ns);
  ledger.ChargeCpuUpTo(10'000'000);
  timeline.CloseWindow(10'000'000, ledger.ns);
  // The clock jumped 95 ms past the next nominal edge: one variable-
  // length window, still contiguous with its neighbours.
  ledger.ChargeCpuUpTo(105'000'000);
  timeline.CloseWindow(105'000'000, ledger.ns);
  timeline.Finalize(105'000'000, ledger.ns);  // No new partial window.

  ASSERT_EQ(timeline.windows().size(), 2u);
  EXPECT_EQ(timeline.windows()[1].begin_ns, 10'000'000u);
  EXPECT_EQ(timeline.windows()[1].end_ns, 105'000'000u);
  EXPECT_EQ(timeline.windows()[1].span_ns(), 95'000'000u);
}

TEST(TimelineTest, GaugeSampledAtWindowEndAndLatencyWindowed) {
  obs::Registry registry;
  obs::Gauge* depth = registry.GetGauge("test.depth");
  obs::Histogram* lat = registry.GetHistogram("test.lat_ns");
  obs::Timeline timeline(&registry);
  timeline.AddGaugeTrack("depth", "test.depth");
  timeline.AddLatencyTrack("lat", "test.lat_ns");

  FakeLedger ledger;
  timeline.Start(0, ledger.ns);
  depth->Set(5);
  lat->Record(1'000);
  lat->Record(1'000);
  ledger.ChargeCpuUpTo(10'000'000);
  timeline.CloseWindow(10'000'000, ledger.ns);
  depth->Set(2);
  lat->Record(4'000'000);
  ledger.ChargeCpuUpTo(20'000'000);
  timeline.Finalize(20'000'000, ledger.ns);

  ASSERT_EQ(timeline.windows().size(), 2u);
  EXPECT_EQ(timeline.windows()[0].gauges[0], 5);  // Value at the edge.
  EXPECT_EQ(timeline.windows()[1].gauges[0], 2);
  EXPECT_EQ(timeline.windows()[0].latency[0].count, 2u);
  EXPECT_EQ(timeline.windows()[1].latency[0].count, 1u);
  EXPECT_GE(timeline.windows()[1].latency[0].p50_ns, 4'000'000u);
  EXPECT_LT(timeline.windows()[0].latency[0].p99_ns, 4'000'000u);
}

// --- Episode annotator with hand-fed edges ---------------------------------

TEST(TimelineEpisodeTest, OverloadEpisodeSpansTheSheddingWindows) {
  obs::Registry registry;
  obs::Counter* shed = registry.GetCounter("server.shed");
  obs::Timeline timeline(&registry);  // Default rules: shed OR p90 >= 1 ms.

  FakeLedger ledger;
  timeline.Start(0, ledger.ns);
  auto close_at = [&](uint64_t now) {
    ledger.ChargeCpuUpTo(now);
    timeline.CloseWindow(now, ledger.ns);
  };
  close_at(10'000'000);            // Clean.
  close_at(20'000'000);            // Clean.
  shed->Increment(3);
  close_at(30'000'000);            // Shedding.
  shed->Increment(1);
  close_at(40'000'000);            // Shedding.
  close_at(50'000'000);            // Clean again.
  ledger.ChargeCpuUpTo(60'000'000);
  timeline.Finalize(60'000'000, ledger.ns);

  ASSERT_EQ(timeline.episodes().size(), 1u);
  const obs::Timeline::Episode& episode = timeline.episodes()[0];
  EXPECT_EQ(episode.kind, obs::Timeline::EpisodeKind::kOverload);
  EXPECT_EQ(episode.begin_ns, 20'000'000u);  // Begin of first shed window.
  EXPECT_EQ(episode.end_ns, 40'000'000u);    // End of last shed window.
  EXPECT_EQ(episode.window_count, 2u);
  EXPECT_NE(episode.cause.find("shed"), std::string::npos);
}

TEST(TimelineEpisodeTest, ShortBlipBelowMinWindowsIsNotAnEpisode) {
  obs::Registry registry;
  obs::Counter* shed = registry.GetCounter("server.shed");
  obs::Timeline timeline(&registry);  // overload_min_windows = 2.

  FakeLedger ledger;
  timeline.Start(0, ledger.ns);
  ledger.ChargeCpuUpTo(10'000'000);
  timeline.CloseWindow(10'000'000, ledger.ns);
  shed->Increment(1);  // One shedding window, then clean: below min_windows.
  ledger.ChargeCpuUpTo(20'000'000);
  timeline.CloseWindow(20'000'000, ledger.ns);
  ledger.ChargeCpuUpTo(30'000'000);
  timeline.Finalize(30'000'000, ledger.ns);
  EXPECT_TRUE(timeline.episodes().empty());
}

TEST(TimelineEpisodeTest, RetransmitStormAndStallRules) {
  obs::Registry registry;
  obs::Counter* retx = registry.GetCounter("link.retransmissions");
  obs::Gauge* dirty = registry.GetGauge("nfs.cache.dirty_bytes");
  obs::Timeline::Options options;
  options.storm_min_retransmits_per_sec = 100.0;
  options.storm_min_windows = 2;
  options.stall_dirty_bytes_limit = 1'000'000;
  options.stall_min_windows = 2;
  obs::Timeline timeline(&registry, options);

  FakeLedger ledger;
  timeline.Start(0, ledger.ns);
  auto close_at = [&](uint64_t now) {
    ledger.ChargeCpuUpTo(now);
    timeline.CloseWindow(now, ledger.ns);
  };
  close_at(10'000'000);
  // Two windows at 200/s retransmits (2 per 10 ms) with the dirty gauge
  // pinned at the limit: one storm episode and one stall episode.
  retx->Increment(2);
  dirty->Set(1'000'000);
  close_at(20'000'000);
  retx->Increment(2);
  close_at(30'000'000);
  dirty->Set(0);
  close_at(40'000'000);
  ledger.ChargeCpuUpTo(50'000'000);
  timeline.Finalize(50'000'000, ledger.ns);

  ASSERT_EQ(timeline.episodes().size(), 2u);
  bool saw_storm = false;
  bool saw_stall = false;
  for (const obs::Timeline::Episode& episode : timeline.episodes()) {
    if (episode.kind == obs::Timeline::EpisodeKind::kRetransmitStorm) {
      saw_storm = true;
      EXPECT_EQ(episode.begin_ns, 10'000'000u);
      EXPECT_EQ(episode.end_ns, 30'000'000u);
    }
    if (episode.kind == obs::Timeline::EpisodeKind::kStall) {
      saw_stall = true;
    }
  }
  EXPECT_TRUE(saw_storm);
  EXPECT_TRUE(saw_stall);
}

// --- Sampler over the discrete-event core ----------------------------------

TEST(SamplerTest, EdgesNeverMoveRealEvents) {
  sim::Clock clock;
  obs::Registry registry;
  obs::Timeline timeline(&registry);  // 10 ms windows.
  sim::TimelineSampler sampler(&clock, &timeline);
  sampler.Start();

  // Real events at times that do not land on window edges; each must
  // fire at exactly its scheduled instant even though sampler edges
  // interleave.
  std::vector<uint64_t> fired_at;
  for (uint64_t at : {3'000'000u, 17'500'000u, 44'999'999u}) {
    clock.events()->Schedule(at, TimeCategory::kCpu,
                             [&, at] { fired_at.push_back(clock.now_ns()); });
  }
  // Pump until only the sampler's recurring edge remains.
  while (clock.events()->size() > sampler.live_events()) {
    clock.events()->RunOne();
  }
  sampler.Finalize();

  EXPECT_EQ(fired_at,
            (std::vector<uint64_t>{3'000'000u, 17'500'000u, 44'999'999u}));
  // Four full windows elapsed before the last event.
  ASSERT_GE(timeline.windows().size(), 4u);
  EXPECT_EQ(timeline.windows()[0].end_ns, 10'000'000u);
  EXPECT_EQ(timeline.windows()[1].end_ns, 20'000'000u);
  // Every window's ledger diff sums exactly to its span.
  for (const auto& window : timeline.windows()) {
    uint64_t total = 0;
    for (uint64_t ns : window.util_ns) {
      total += ns;
    }
    EXPECT_EQ(total, window.span_ns());
  }
}

TEST(SamplerTest, LateEdgeClosesOneCatchUpWindow) {
  sim::Clock clock;
  obs::Registry registry;
  obs::Timeline timeline(&registry);  // 10 ms windows.
  sim::TimelineSampler sampler(&clock, &timeline);
  sampler.Start();

  // The clock jumps past several edges outside the event loop; the
  // pending edge dispatches late, the next time the loop runs, with no
  // clock advance, and closes one window for the whole jump.
  clock.Advance(47'000'000, TimeCategory::kDisk);
  EXPECT_TRUE(timeline.windows().empty());
  ASSERT_TRUE(clock.events()->RunOne());
  ASSERT_EQ(timeline.windows().size(), 1u);
  EXPECT_EQ(timeline.windows()[0].begin_ns, 0u);
  EXPECT_EQ(timeline.windows()[0].end_ns, 47'000'000u);
  EXPECT_EQ(clock.now_ns(), 47'000'000u);
  sampler.Finalize();
  EXPECT_EQ(timeline.windows().size(), 1u);  // Nothing new to close.
}

// The per-category ledger of 20 echo calls at `window` to a handler that
// charges disk and CPU, with a sampler of `sampler_window_ns` attached
// (0: none).
sim::Clock::CategorySnapshot SampledRunLedger(uint32_t window, uint64_t sampler_window_ns) {
  sim::Clock clock;
  obs::Registry registry;
  rpc::Dispatcher dispatcher(&registry, &clock);
  dispatcher.RegisterProgram(9, [&clock](uint32_t, const Bytes& args) {
    clock.Advance(1'700'003, TimeCategory::kDisk);
    clock.Advance(1'300'001, TimeCategory::kCpu);
    return util::Result<Bytes>(args);
  });
  sim::Link link(&clock, sim::LinkProfile::Udp(), &dispatcher, &registry);
  rpc::LinkTransport transport(&link);
  rpc::Client client(&transport, 9, &registry);
  client.set_window(window);
  obs::Timeline::Options options;
  if (sampler_window_ns != 0) {
    options.window_ns = sampler_window_ns;
  }
  obs::Timeline timeline(&registry, options);
  sim::TimelineSampler sampler(&clock, sampler_window_ns != 0 ? &timeline : nullptr);
  sampler.Start();
  uint64_t completions = 0;
  for (int i = 0; i < 20; ++i) {
    client.CallAsync(1, BytesOf("op " + std::to_string(i)),
                     [&completions](util::Result<Bytes> reply) {
                       EXPECT_TRUE(reply.ok()) << reply.status().ToString();
                       ++completions;
                     });
  }
  client.Drain();
  EXPECT_EQ(completions, 20u);
  if (sampler_window_ns != 0) {
    EXPECT_GT(timeline.windows().size(), 20u) << "edges must land inside the run";
  }
  return clock.categories();
}

TEST(SamplerTest, LedgerIsIdenticalWithAndWithoutASampler) {
  // An edge that lands inside a transit or a service frame charges the
  // piece of the gap before it as that gap's own event would, so the
  // observer takes no time from link, disk or CPU.
  for (const uint32_t window : {1u, 4u}) {
    const sim::Clock::CategorySnapshot bare = SampledRunLedger(window, 0);
    const sim::Clock::CategorySnapshot sampled = SampledRunLedger(window, 999'983);
    for (size_t i = 0; i < obs::kTimeCategoryCount; ++i) {
      EXPECT_EQ(sampled.ns[i], bare.ns[i])
          << "window " << window << ", "
          << obs::TimeCategoryName(static_cast<TimeCategory>(i));
    }
  }
}

// --- Episode detection against a real bounded-queue host -------------------

// Runs `calls` echo calls at the given pipeline window against a
// one-slot, one-queue-entry host, with a telemetry timeline attached.
// Returns the finalized timeline.
struct HostRunResult {
  std::vector<obs::Timeline::Episode> episodes;
  uint64_t burst_begin_ns = 0;
  uint64_t burst_end_ns = 0;
  uint64_t sheds = 0;
};

HostRunResult RunHostScenario(bool overload_burst) {
  sim::Clock clock;
  obs::Registry registry;
  rpc::Dispatcher dispatcher(&registry, &clock);
  dispatcher.RegisterProgram(9, [&](uint32_t, const Bytes& args) {
    clock.Advance(500'000, TimeCategory::kCpu);  // 500 us of service.
    return util::Result<Bytes>(args);
  });
  sim::Host::Options host_options;
  host_options.concurrency = 1;
  host_options.queue_depth = 1;
  sim::Host host(&clock, &dispatcher, &registry, host_options);
  sim::Link link(&clock, sim::LinkProfile::Udp(), &host, &registry);
  rpc::LinkTransport transport(&link);
  rpc::Client client(&transport, 9, &registry);

  // One whole phase per window keeps the qualifying windows of a burst
  // consecutive even across retransmission-timer lulls.
  obs::Timeline::Options timeline_options;
  timeline_options.window_ns = 1'000'000'000;
  timeline_options.overload_min_windows = 1;
  obs::Timeline timeline(&registry, timeline_options);
  sim::TimelineSampler sampler(&clock, &timeline);
  sampler.Start();

  auto run_calls = [&](uint64_t calls) {
    uint64_t completions = 0;
    for (uint64_t i = 0; i < calls; ++i) {
      client.CallAsync(1, BytesOf("op " + std::to_string(i)),
                       [&completions](util::Result<Bytes> reply) {
                         ASSERT_TRUE(reply.ok()) << reply.status().ToString();
                         ++completions;
                       });
    }
    client.Drain();
    EXPECT_EQ(completions, calls);
  };

  HostRunResult result;
  // Phase A: sequential, no contention, no sheds.
  client.set_window(1);
  run_calls(4);
  EXPECT_EQ(registry.CounterValue("server.shed"), 0u);

  result.burst_begin_ns = clock.now_ns();
  if (overload_burst) {
    // Phase B: four nearly simultaneous arrivals against one service
    // slot plus one queue slot must shed; retransmission recovers.
    client.set_window(4);
    run_calls(16);
    EXPECT_GT(registry.CounterValue("server.shed"), 0u);
  }
  result.burst_end_ns = clock.now_ns();

  // Phase C: sequential again; clean.
  client.set_window(1);
  run_calls(4);
  sampler.Finalize();

  result.episodes = timeline.episodes();
  result.sheds = registry.CounterValue("server.shed");
  return result;
}

TEST(TimelineHostTest, SheddingBurstYieldsExactlyOneOverloadEpisode) {
  const HostRunResult result = RunHostScenario(/*overload_burst=*/true);
  ASSERT_GT(result.sheds, 0u);
  ASSERT_EQ(result.episodes.size(), 1u);
  const obs::Timeline::Episode& episode = result.episodes[0];
  EXPECT_EQ(episode.kind, obs::Timeline::EpisodeKind::kOverload);
  // The episode brackets the burst: it starts at or before the first
  // shed (its window's begin) and ends at or after the burst settled.
  EXPECT_LE(episode.begin_ns, result.burst_begin_ns);
  EXPECT_GE(episode.end_ns, result.burst_end_ns);
  EXPECT_NE(episode.cause.find("shed"), std::string::npos);
}

TEST(TimelineHostTest, CleanRunHasNoEpisodes) {
  const HostRunResult result = RunHostScenario(/*overload_burst=*/false);
  EXPECT_EQ(result.sheds, 0u);
  EXPECT_TRUE(result.episodes.empty());
}

}  // namespace
