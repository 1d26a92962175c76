// Deterministic discrete-event scheduler.
//
// The whole experiment — network delivery, pacemaker timers, client arrivals
// — runs as callbacks on one scheduler. Events fire in (time, insertion
// sequence) order, so two runs with the same seed produce byte-identical
// traces. This determinism is load-bearing: the liveness tests assert the
// paper's exact theorem bounds (e.g. "(2f−c)-strong committed within n + 2
// rounds", Theorem 2).
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "sftbft/common/types.hpp"

namespace sftbft::sim {

/// Identifies a scheduled event so it can be cancelled (timer semantics).
using TimerId = std::uint64_t;

inline constexpr TimerId kInvalidTimer = 0;

class Scheduler {
 public:
  using Callback = std::function<void()>;

  /// Current simulated time.
  [[nodiscard]] SimTime now() const { return now_; }

  /// Schedules `cb` at absolute time `t` (>= now). Returns a cancellable id.
  TimerId schedule_at(SimTime t, Callback cb);

  /// Schedules `cb` after `delay` from now.
  TimerId schedule_after(SimDuration delay, Callback cb);

  /// Cancels a pending event; a no-op if it already fired or was cancelled.
  void cancel(TimerId id);

  /// Runs the next event, if any. Returns false when the queue is empty.
  bool run_one();

  /// Runs events until simulated time reaches `deadline` (events at exactly
  /// `deadline` are executed). Time advances to `deadline` even if the queue
  /// drains earlier.
  void run_until(SimTime deadline);

  /// Runs for `duration` of simulated time from now.
  void run_for(SimDuration duration);

  /// Runs until no events remain or `max_events` were processed.
  void run_until_idle(std::uint64_t max_events = UINT64_MAX);

  /// Number of events executed since construction (a cheap progress proxy).
  [[nodiscard]] std::uint64_t events_processed() const { return processed_; }

  /// Number of events scheduled and neither fired nor cancelled.
  [[nodiscard]] std::size_t pending() const { return live_; }

 private:
  /// A queued event. Its id is `seq << kSlotBits | slot`: ids order like
  /// their sequence numbers, and `slot` holds the callback.
  struct Event {
    SimTime time = 0;
    TimerId id = kInvalidTimer;  // tie-break: FIFO among equal times
  };
  struct EventAfter {
    bool operator()(const Event& a, const Event& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.id > b.id;
    }
  };
  /// A callback slot: `id` is the id of the event holding it, or, while the
  /// slot is free, the index of the next free slot (no sequence bits, so it
  /// matches no event).
  struct Slot {
    Callback cb;
    TimerId id = kInvalidTimer;
  };
  static constexpr unsigned kSlotBits = 24;
  static constexpr TimerId kSlotMask = (TimerId{1} << kSlotBits) - 1;

  /// Runs the earliest live event if it is due by `deadline`, discarding
  /// cancelled ones on the way; advances the clock. Returns false when no
  /// live event is due.
  bool step(SimTime deadline);

  /// Frees a live slot (its callback already moved out or reset).
  void release(std::size_t slot);

  SimTime now_ = 0;
  std::uint64_t next_seq_ = 1;
  std::uint64_t processed_ = 0;
  std::size_t live_ = 0;
  /// Binary min-heap on (time, id). A cancelled event stays in it as a
  /// tombstone: its slot no longer carries its id.
  std::vector<Event> heap_;
  std::vector<Slot> slots_;
  /// First free slot; the chain ends at slots_.size().
  std::size_t free_ = 0;
};

}  // namespace sftbft::sim
