// Discrete-event core for the simulation.
//
// One EventQueue per timeline (owned by the sim::Clock) holds every
// scheduled future occurrence — message arrivals at a host, handler
// completions, reply deliveries, retransmission timers — as (virtual
// time, monotonic seq) keyed entries in a binary heap.  Links, hosts,
// disks and timers are all just event sources; nothing executes "inside"
// a submit call anymore (see DESIGN.md §"Discrete-event substitution"
// for how this replaced the inline-Handle-plus-watermark model).
//
// Ledger discipline: the loop is the only place virtual time advances
// between events.  Each event carries an attribution for the gap the
// loop bridges to reach it — either a single obs::TimeCategory (wire
// transit, timer wait) or a proportional per-category breakdown (a
// handler completion, whose service time was measured in a clock frame;
// see Clock::BeginMeasureFrame).  Because every bridged nanosecond is
// charged exactly once, the clock's per-category totals still sum to
// now_ns() no matter how many overlapping conversations share the
// timeline.
//
// Determinism: events with equal timestamps dispatch in schedule order
// (the seq tiebreak), so runs are bit-reproducible regardless of heap
// internals.  Cancellation (timers that no longer matter) marks the
// entry dead; dead entries are discarded on pop without advancing the
// clock or charging anything.
//
// Storage: scheduling, cancelling and dispatching allocate nothing in
// steady state.  Each pending event lives in a slot of a reused pool; its
// closure is an EventFn, stored inline when it fits kInlineBytes; and an
// owner that must cancel its events at destruction threads them through
// an EventGroup instead of keeping a set of ids.
#ifndef SFS_SRC_SIM_EVENT_H_
#define SFS_SRC_SIM_EVENT_H_

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/sim/clock.h"

namespace sim {

// A move-only callable with kInlineBytes of inline storage.  A callable
// that fits (and is no more than pointer-aligned) is stored in place and
// costs no allocation; a larger one costs one.  std::function keeps only
// 16 bytes inline and cannot hold a move-only capture.  Any callable with
// a matching signature converts implicitly, as it does to std::function.
template <typename Signature>
class InlineFn;

template <typename R, typename... Args>
class InlineFn<R(Args...)> {
 public:
  // Room for the hot-path closures: a link's arrival event (the link, a
  // 24-byte leg descriptor, the request bytes and a span context) and
  // its delivery event (the link, two tags and a Result<Bytes>).
  static constexpr size_t kInlineBytes = 80;

  InlineFn() = default;
  InlineFn(std::nullptr_t) {}  // NOLINT(runtime/explicit)
  template <typename F, typename D = std::decay_t<F>,
            typename = std::enable_if_t<!std::is_same_v<D, InlineFn> &&
                                        std::is_invocable_r_v<R, D&, Args...>>>
  InlineFn(F&& f) {  // NOLINT(runtime/explicit)
    if constexpr (kStoredInline<D>) {
      ::new (static_cast<void*>(storage_)) D(std::forward<F>(f));
      ops_ = &kInlineOps<D>;
    } else {
      ::new (static_cast<void*>(storage_)) D*(new D(std::forward<F>(f)));
      ops_ = &kBoxedOps<D>;
    }
  }
  InlineFn(InlineFn&& other) noexcept { MoveFrom(&other); }
  InlineFn& operator=(InlineFn&& other) noexcept {
    if (this != &other) {
      Reset();
      MoveFrom(&other);
    }
    return *this;
  }
  InlineFn(const InlineFn&) = delete;
  InlineFn& operator=(const InlineFn&) = delete;
  ~InlineFn() { Reset(); }

  explicit operator bool() const { return ops_ != nullptr; }
  R operator()(Args... args) { return ops_->invoke(storage_, std::forward<Args>(args)...); }

  // True when a callable of type F is stored without an allocation.
  template <typename F>
  static constexpr bool kStoredInline =
      sizeof(F) <= kInlineBytes && alignof(F) <= alignof(void*) &&
      std::is_nothrow_move_constructible_v<F>;

 private:
  struct Ops {
    R (*invoke)(void* storage, Args&&... args);
    // Move-constructs the callable at `to` from the one at `from`, then
    // destroys the one at `from`.
    void (*relocate)(void* to, void* from);
    void (*destroy)(void* storage);
  };

  template <typename F>
  static F* Inline(void* storage) {
    return std::launder(static_cast<F*>(storage));
  }
  template <typename F>
  static F* Boxed(void* storage) {
    return *std::launder(static_cast<F**>(storage));
  }
  template <typename F>
  static constexpr Ops kInlineOps = {
      [](void* s, Args&&... args) -> R {
        return std::invoke(*Inline<F>(s), std::forward<Args>(args)...);
      },
      [](void* to, void* from) {
        ::new (to) F(std::move(*Inline<F>(from)));
        Inline<F>(from)->~F();
      },
      [](void* s) { Inline<F>(s)->~F(); },
  };
  template <typename F>
  static constexpr Ops kBoxedOps = {
      [](void* s, Args&&... args) -> R {
        return std::invoke(*Boxed<F>(s), std::forward<Args>(args)...);
      },
      [](void* to, void* from) { ::new (to) F*(Boxed<F>(from)); },
      [](void* s) { delete Boxed<F>(s); },
  };

  void MoveFrom(InlineFn* other) {
    if (other->ops_ != nullptr) {
      other->ops_->relocate(storage_, other->storage_);
      ops_ = std::exchange(other->ops_, nullptr);
    }
  }
  void Reset() {
    if (ops_ != nullptr) {
      std::exchange(ops_, nullptr)->destroy(storage_);
    }
  }

  alignas(void*) unsigned char storage_[kInlineBytes];
  const Ops* ops_ = nullptr;
};

// What an event runs when it dispatches.
using EventFn = InlineFn<void()>;

// How the event loop charges the virtual-time gap it bridges when
// advancing to an event's timestamp.
struct GapAttribution {
  // Single-category form (breakdown_total == 0).
  obs::TimeCategory category = obs::TimeCategory::kWait;
  // Proportional form: the gap is split across `breakdown` in proportion
  // to its weights (a measured service frame); rounding remainders go to
  // the heaviest category so the charges sum exactly to the gap.
  Clock::CategorySnapshot breakdown;
  uint64_t breakdown_total = 0;
  // An observer's event (a timeline edge), which takes no time of its
  // own: the gap it ends is charged as the next pending event would
  // charge it, so the ledger reads the same with or without observers.
  // With nothing else pending, `category` applies.
  bool observer = false;

  static GapAttribution Category(obs::TimeCategory category) {
    GapAttribution a;
    a.category = category;
    return a;
  }
  static GapAttribution Proportional(const Clock::CategorySnapshot& breakdown);
  static GapAttribution Observer(obs::TimeCategory idle) {
    GapAttribution a = Category(idle);
    a.observer = true;
    return a;
  }

  // Charges the part [from_ns, to_ns) of a `gap_ns` gap.  The proportional
  // form lays the categories' shares of the whole gap end to end, so the
  // parts of a gap split by observer events sum per category to exactly
  // what the unsplit gap would charge.
  void Charge(Clock* clock, uint64_t gap_ns, uint64_t from_ns, uint64_t to_ns) const;
};

// One owner's pending events (a Link's transits, a Host's completions, a
// Client's timers), threaded through the queue's slots so the owner can
// cancel them all at destruction with EventQueue::CancelGroup instead of
// keeping their ids.  An event leaves its group when it dispatches or is
// cancelled.  Groups belong to one queue and must be empty (cancelled)
// before they are destroyed.
class EventGroup {
 public:
  EventGroup() = default;
  ~EventGroup() { assert(empty() && "cancel an owner's events before destroying it"); }
  EventGroup(const EventGroup&) = delete;
  EventGroup& operator=(const EventGroup&) = delete;

  bool empty() const { return head_ == kNoSlot; }

 private:
  friend class EventQueue;
  static constexpr uint32_t kNoSlot = UINT32_MAX;
  uint32_t head_ = kNoSlot;
};

class EventQueue {
 public:
  // Slot index in the low 32 bits, the slot's generation in the high 32:
  // an id goes stale when its event dispatches or is cancelled, and can
  // never name a later occupant of the same slot.  Generations start at
  // 1, so kInvalidId is never issued.
  using EventId = uint64_t;
  static constexpr EventId kInvalidId = 0;

  explicit EventQueue(Clock* clock) : clock_(clock) {}
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  // Schedules `fn` to run at `at_ns` (clamped forward to now: the past
  // cannot be scheduled).  The gap from the previous event to this one
  // is charged per `attr` when the loop reaches it.  With a `group`, the
  // event joins that owner's list until it dispatches or is cancelled.
  EventId Schedule(uint64_t at_ns, const GapAttribution& attr, EventFn fn,
                   EventGroup* group = nullptr);
  EventId Schedule(uint64_t at_ns, obs::TimeCategory category, EventFn fn,
                   EventGroup* group = nullptr) {
    return Schedule(at_ns, GapAttribution::Category(category), std::move(fn), group);
  }

  // Cancels a scheduled event.  Returns true if it had not yet run (or
  // been cancelled); a cancelled event is skipped on pop with no clock
  // advance and no charge.  Its closure is destroyed here.
  bool Cancel(EventId id);

  // Cancels every event still in `group`.
  void CancelGroup(EventGroup* group);

  // True when no live (non-cancelled) events remain.
  bool empty() const { return live_ == 0; }
  size_t size() const { return live_; }

  // Timestamp of the earliest live event; UINT64_MAX when empty.
  uint64_t next_time_ns();

  // Dispatches the earliest live event: advances the clock to its
  // timestamp (charging the gap per its attribution), then runs it.
  // Returns false when the queue is empty.  The dispatched function may
  // schedule further events; it must not call RunOne reentrantly.  Its
  // own id is already stale while it runs.
  bool RunOne();

  // Drains every event with timestamp <= until_ns.
  void RunUntil(uint64_t until_ns) {
    while (!empty() && next_time_ns() <= until_ns) {
      RunOne();
    }
  }

  Clock* clock() const { return clock_; }

  // Lifetime totals, exposed for tests.
  uint64_t dispatched() const { return dispatched_; }
  uint64_t cancelled() const { return cancelled_; }

 private:
  struct Entry {
    uint64_t at_ns = 0;
    uint64_t seq = 0;
    uint32_t slot = 0;
    // Min-heap on (at_ns, seq): seqs are monotonic, so equal timestamps
    // dispatch in schedule order.
    bool operator>(const Entry& other) const {
      return at_ns != other.at_ns ? at_ns > other.at_ns : seq > other.seq;
    }
  };
  // One pending event.  A slot holds at most one heap entry and returns
  // to the free list only when that entry is popped, dispatched or
  // discarded as cancelled.
  struct Slot {
    GapAttribution attr;
    EventFn fn;
    uint32_t generation = 1;
    bool live = false;  // Scheduled and neither dispatched nor cancelled.
    // Live: neighbours in the owner's group (kNoSlot at the ends).  Free:
    // `next` is the next free slot.
    EventGroup* group = nullptr;
    uint32_t prev = EventGroup::kNoSlot;
    uint32_t next = EventGroup::kNoSlot;
  };

  static EventId MakeId(uint32_t slot, uint32_t generation) {
    return uint64_t{generation} << 32 | slot;
  }
  uint32_t AllocateSlot();
  // Returns a popped slot to the free list; its id goes stale.
  void ReleaseSlot(uint32_t index);
  void Unlink(uint32_t index);
  // Charges [now, until_ns) as part of the gap of the event in `index`,
  // due at `at_ns`.
  void ChargeGap(uint32_t index, uint64_t at_ns, uint64_t until_ns);
  void PopHeap();
  void PushHeap(Entry entry);

  Clock* clock_;
  std::vector<Entry> heap_;
  std::vector<Slot> slots_;
  uint32_t free_head_ = EventGroup::kNoSlot;
  uint64_t next_seq_ = 0;
  size_t live_ = 0;
  // The last gap an observer event split: the event it leads to, where
  // it began, and how much of it is charged already.
  EventId split_event_ = kInvalidId;
  uint64_t split_origin_ns_ = 0;
  uint64_t split_charged_ns_ = 0;
  uint64_t dispatched_ = 0;
  uint64_t cancelled_ = 0;
};

}  // namespace sim

#endif  // SFS_SRC_SIM_EVENT_H_
