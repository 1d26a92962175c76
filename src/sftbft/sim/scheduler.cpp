#include "sftbft/sim/scheduler.hpp"

#include <algorithm>
#include <cassert>
#include <limits>
#include <utility>

namespace sftbft::sim {

TimerId Scheduler::schedule_at(SimTime t, Callback cb) {
  assert(t >= now_ && "cannot schedule into the past");
  if (free_ == slots_.size()) slots_.push_back(Slot{.id = free_ + 1});
  const std::size_t slot = free_;
  assert(slot <= kSlotMask);
  Slot& s = slots_[slot];
  free_ = s.id;
  s.id = (next_seq_++ << kSlotBits) | slot;
  s.cb = std::move(cb);
  ++live_;
  heap_.push_back(Event{.time = t < now_ ? now_ : t, .id = s.id});
  std::push_heap(heap_.begin(), heap_.end(), EventAfter{});
  return s.id;
}

TimerId Scheduler::schedule_after(SimDuration delay, Callback cb) {
  assert(delay >= 0);
  return schedule_at(now_ + delay, std::move(cb));
}

void Scheduler::release(std::size_t slot) {
  slots_[slot].id = free_;
  free_ = slot;
  --live_;
}

void Scheduler::cancel(TimerId id) {
  const std::size_t slot = id & kSlotMask;
  if (slot >= slots_.size() || slots_[slot].id != id) return;
  slots_[slot].cb = nullptr;
  release(slot);
}

bool Scheduler::step(SimTime deadline) {
  while (!heap_.empty() && heap_.front().time <= deadline) {
    const Event ev = heap_.front();
    std::pop_heap(heap_.begin(), heap_.end(), EventAfter{});
    heap_.pop_back();
    const std::size_t slot = ev.id & kSlotMask;
    if (slots_[slot].id != ev.id) continue;  // cancelled
    Callback cb = std::move(slots_[slot].cb);
    release(slot);
    now_ = ev.time;
    ++processed_;
    cb();
    return true;
  }
  return false;
}

bool Scheduler::run_one() {
  return step(std::numeric_limits<SimTime>::max());
}

void Scheduler::run_until(SimTime deadline) {
  while (step(deadline)) {
  }
  if (now_ < deadline) now_ = deadline;
}

void Scheduler::run_for(SimDuration duration) { run_until(now_ + duration); }

void Scheduler::run_until_idle(std::uint64_t max_events) {
  std::uint64_t count = 0;
  while (count < max_events && run_one()) ++count;
}

}  // namespace sftbft::sim
