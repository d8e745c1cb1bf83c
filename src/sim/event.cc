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

  const uint64_t now = clock_->now_ns();
  if (entry.at_ns > now) {
    const uint64_t gap = entry.at_ns - now;
    const GapAttribution& attr = slot.attr;
    if (attr.breakdown_total == 0) {
      clock_->Advance(gap, attr.category);
    } else {
      // Split the gap proportionally to the measured breakdown, exact to
      // the nanosecond: rounding remainders land on the heaviest
      // category so the charges sum to the gap and the ledger invariant
      // (categories sum to now_ns) survives every dispatch.
      uint64_t charged = 0;
      size_t heaviest = 0;
      for (size_t i = 0; i < obs::kTimeCategoryCount; ++i) {
        if (attr.breakdown.ns[i] > attr.breakdown.ns[heaviest]) {
          heaviest = i;
        }
        const uint64_t share = static_cast<uint64_t>(
            static_cast<unsigned __int128>(gap) * attr.breakdown.ns[i] /
            attr.breakdown_total);
        if (share != 0) {
          clock_->Advance(share, static_cast<obs::TimeCategory>(i));
          charged += share;
        }
      }
      if (charged < gap) {
        clock_->Advance(gap - charged, static_cast<obs::TimeCategory>(heaviest));
      }
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
