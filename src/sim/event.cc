#include "src/sim/event.h"

#include <algorithm>

namespace sim {

GapAttribution GapAttribution::Proportional(const Clock::CategorySnapshot& breakdown) {
  GapAttribution a;
  a.breakdown = breakdown;
  for (uint64_t ns : breakdown.ns) {
    a.breakdown_total += ns;
  }
  if (a.breakdown_total == 0) {
    // A zero-cost handler: the gap (if any) is pure scheduling artifact;
    // charge it as untracked rather than inventing a category.
    a.category = obs::TimeCategory::kUntracked;
  }
  return a;
}

void GapAttribution::Charge(Clock* clock, uint64_t gap_ns, uint64_t from_ns,
                            uint64_t to_ns) const {
  if (breakdown_total == 0) {
    clock->Advance(to_ns - from_ns, category);
    return;
  }
  // The categories' shares of the whole gap lie end to end, then the
  // rounding remainder on the heaviest category, so the charges sum to
  // the gap exactly and the ledger invariant (categories sum to now_ns)
  // survives every dispatch.  The part takes its overlap with each piece.
  auto charge = [&](uint64_t begin, uint64_t end, size_t i) {
    const uint64_t lo = std::max(begin, from_ns);
    const uint64_t hi = std::min(end, to_ns);
    if (hi > lo) {
      clock->Advance(hi - lo, static_cast<obs::TimeCategory>(i));
    }
  };
  uint64_t begin = 0;
  size_t heaviest = 0;
  for (size_t i = 0; i < obs::kTimeCategoryCount; ++i) {
    if (breakdown.ns[i] > breakdown.ns[heaviest]) {
      heaviest = i;
    }
    const uint64_t share = static_cast<uint64_t>(
        static_cast<unsigned __int128>(gap_ns) * breakdown.ns[i] / breakdown_total);
    charge(begin, begin + share, i);
    begin += share;
  }
  charge(begin, gap_ns, heaviest);
}

void EventQueue::ChargeGap(uint32_t index, uint64_t at_ns, uint64_t until_ns) {
  const Slot& slot = slots_[index];
  const EventId id = MakeId(index, slot.generation);
  const uint64_t now = clock_->now_ns();
  if (split_event_ != id || split_origin_ns_ + split_charged_ns_ != now) {
    // Not split by an observer, or the clock moved outside the loop since
    // it was: the gap begins now.
    split_event_ = id;
    split_origin_ns_ = now;
    split_charged_ns_ = 0;
  }
  const uint64_t from_ns = split_charged_ns_;
  split_charged_ns_ = until_ns - split_origin_ns_;
  slot.attr.Charge(clock_, at_ns - split_origin_ns_, from_ns, split_charged_ns_);
}

void EventQueue::PushHeap(Entry entry) {
  heap_.push_back(entry);
  std::push_heap(heap_.begin(), heap_.end(), std::greater<>());
}

void EventQueue::PopHeap() {
  std::pop_heap(heap_.begin(), heap_.end(), std::greater<>());
  heap_.pop_back();
}

uint32_t EventQueue::AllocateSlot() {
  if (free_head_ == EventGroup::kNoSlot) {
    slots_.emplace_back();
    return static_cast<uint32_t>(slots_.size() - 1);
  }
  const uint32_t index = free_head_;
  free_head_ = slots_[index].next;
  return index;
}

void EventQueue::ReleaseSlot(uint32_t index) {
  Slot& slot = slots_[index];
  if (++slot.generation == 0) {
    slot.generation = 1;  // Wrapped: 0 would make kInvalidId reachable.
  }
  slot.next = free_head_;
  free_head_ = index;
}

void EventQueue::Unlink(uint32_t index) {
  Slot& slot = slots_[index];
  if (slot.group == nullptr) {
    return;
  }
  if (slot.prev != EventGroup::kNoSlot) {
    slots_[slot.prev].next = slot.next;
  } else {
    slot.group->head_ = slot.next;
  }
  if (slot.next != EventGroup::kNoSlot) {
    slots_[slot.next].prev = slot.prev;
  }
  slot.group = nullptr;
  slot.prev = EventGroup::kNoSlot;
  slot.next = EventGroup::kNoSlot;
}

EventQueue::EventId EventQueue::Schedule(uint64_t at_ns, const GapAttribution& attr, EventFn fn,
                                         EventGroup* group) {
  at_ns = std::max(at_ns, clock_->now_ns());
  const uint32_t index = AllocateSlot();
  Slot& slot = slots_[index];
  slot.attr = attr;
  slot.fn = std::move(fn);
  slot.live = true;
  slot.prev = EventGroup::kNoSlot;
  slot.next = EventGroup::kNoSlot;
  slot.group = group;
  if (group != nullptr) {
    slot.next = group->head_;
    if (group->head_ != EventGroup::kNoSlot) {
      slots_[group->head_].prev = index;
    }
    group->head_ = index;
  }
  PushHeap(Entry{at_ns, next_seq_++, index});
  ++live_;
  return MakeId(index, slot.generation);
}

bool EventQueue::Cancel(EventId id) {
  const uint32_t index = static_cast<uint32_t>(id);
  if (index >= slots_.size()) {
    return false;
  }
  Slot& slot = slots_[index];
  if (!slot.live || slot.generation != id >> 32) {
    return false;
  }
  // The heap entry stays (lazily discarded on pop, which frees the slot).
  slot.live = false;
  Unlink(index);
  --live_;
  ++cancelled_;
  // Destroyed outside the pool: a closure's destructor may schedule.
  EventFn doomed = std::move(slot.fn);
  return true;
}

void EventQueue::CancelGroup(EventGroup* group) {
  while (!group->empty()) {
    const uint32_t index = group->head_;
    Cancel(MakeId(index, slots_[index].generation));
  }
}

uint64_t EventQueue::next_time_ns() {
  while (!heap_.empty() && !slots_[heap_.front().slot].live) {
    // Cancelled: discard without advancing time.
    ReleaseSlot(heap_.front().slot);
    PopHeap();
  }
  return heap_.empty() ? UINT64_MAX : heap_.front().at_ns;
}

bool EventQueue::RunOne() {
  if (next_time_ns() == UINT64_MAX) {
    return false;
  }
  const Entry entry = heap_.front();
  PopHeap();
  Slot& slot = slots_[entry.slot];
  slot.live = false;
  Unlink(entry.slot);
  --live_;
  ++dispatched_;

  if (entry.at_ns > clock_->now_ns()) {
    if (slot.attr.observer && next_time_ns() != UINT64_MAX) {
      ChargeGap(heap_.front().slot, heap_.front().at_ns, entry.at_ns);
    } else {
      ChargeGap(entry.slot, entry.at_ns, entry.at_ns);
    }
  }
  // Moved out and the slot freed before running: the closure may
  // schedule (reusing this very slot) or cancel its own, now stale, id.
  EventFn fn = std::move(slot.fn);
  ReleaseSlot(entry.slot);
  fn();
  return true;
}

}  // namespace sim
