// Drives an obs::Timeline from the discrete-event loop.
//
// obs:: cannot see sim:: (layering), so the Timeline itself never
// schedules anything; this sampler owns a recurring EventQueue event
// that fires every timeline window (default 10 ms virtual) and feeds
// the timeline the current (now_ns, category-ledger) pair.
//
// Two properties worth spelling out:
//
//  - Sampler edges never perturb the run.  An edge is a zero-duration
//    observer event (GapAttribution::Observer): every completion,
//    delivery and timer still fires at exactly the virtual time it would
//    have without the sampler, and the gap an edge lands inside is
//    charged as the event that ends the gap would charge it, a measured
//    service frame split proportionally and cumulatively.  So the ledger
//    is the same to the nanosecond with or without a sampler, and
//    committed BENCH baselines keep their real_time_s
//    (docs/OBSERVABILITY.md §8).
//
//  - Edges dispatch only while someone runs the event loop, which every
//    RPC call does.  When the clock jumps past several edges outside the
//    loop (e.g. a workload's application-CPU phase), the pending edge
//    dispatches late with no clock advance, and the timeline closes one
//    variable-length catch-up window covering the whole gap.  Windows
//    therefore stay contiguous even across jumps.
#ifndef SFS_SRC_SIM_SAMPLER_H_
#define SFS_SRC_SIM_SAMPLER_H_

#include "src/obs/timeline.h"
#include "src/sim/event.h"

namespace sim {

class TimelineSampler {
 public:
  // Neither pointer is owned; both must outlive the sampler.
  TimelineSampler(Clock* clock, obs::Timeline* timeline)
      : clock_(clock), timeline_(timeline) {}
  ~TimelineSampler() { Stop(); }
  TimelineSampler(const TimelineSampler&) = delete;
  TimelineSampler& operator=(const TimelineSampler&) = delete;

  // Pins the timeline origin at the current virtual time and schedules
  // the first window edge.
  void Start() {
    if (armed_ || timeline_ == nullptr) {
      return;
    }
    const Clock::CategorySnapshot cats = clock_->categories();
    timeline_->Start(clock_->now_ns(), cats.ns);
    armed_ = true;
    ScheduleNext();
  }

  // Cancels the pending edge without closing the trailing window.
  void Stop() {
    if (pending_ != EventQueue::kInvalidId) {
      clock_->events()->Cancel(pending_);
      pending_ = EventQueue::kInvalidId;
    }
    armed_ = false;
  }

  // Closes the final (partial) window at the current virtual time, runs
  // the episode annotator, and disarms.
  void Finalize() {
    Stop();
    const Clock::CategorySnapshot cats = clock_->categories();
    timeline_->Finalize(clock_->now_ns(), cats.ns);
  }

  bool armed() const { return armed_; }

  // Number of queue entries that are the sampler's own (0 or 1): lets
  // run loops distinguish "only the sampler is left" from real pending
  // work when checking for deadlock.
  size_t live_events() const {
    return pending_ != EventQueue::kInvalidId ? 1 : 0;
  }

 private:
  void OnEdge() {
    pending_ = EventQueue::kInvalidId;
    const Clock::CategorySnapshot cats = clock_->categories();
    timeline_->CloseWindow(clock_->now_ns(), cats.ns);
    if (armed_) {
      ScheduleNext();
    }
  }

  void ScheduleNext() {
    // With nothing else pending, the gap up to the edge is idle time.
    pending_ = clock_->events()->Schedule(clock_->now_ns() + timeline_->window_ns(),
                                          GapAttribution::Observer(obs::TimeCategory::kWait),
                                          [this] { OnEdge(); });
  }

  Clock* clock_;
  obs::Timeline* timeline_;
  EventQueue::EventId pending_ = EventQueue::kInvalidId;
  bool armed_ = false;
};

}  // namespace sim

#endif  // SFS_SRC_SIM_SAMPLER_H_
