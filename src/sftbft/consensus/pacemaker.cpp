#include "sftbft/consensus/pacemaker.hpp"

#include <cassert>

#include "sftbft/obs/observer.hpp"

namespace sftbft::consensus {

Pacemaker::Pacemaker(sim::Scheduler& sched, PacemakerConfig config,
                     Callbacks callbacks)
    : sched_(sched), config_(config), callbacks_(std::move(callbacks)) {}

void Pacemaker::start() {
  assert(round_ == 0);
  enter(1);
}

void Pacemaker::stop() {
  stopped_ = true;
  sched_.cancel(timer_);
  timer_ = sim::kInvalidTimer;
}

void Pacemaker::resume(Round round) {
  stopped_ = false;
  timed_out_ = false;
  round_ = round > 0 ? round : 1;
  arm_timer();
  note_round_entered(round_);
  if (callbacks_.on_round_entered) callbacks_.on_round_entered(round_);
}

bool Pacemaker::advance_to(Round round) {
  if (stopped_ || round <= round_) return false;
  enter(round);
  return true;
}

void Pacemaker::enter(Round round) {
  round_ = round;
  timed_out_ = false;
  arm_timer();
  note_round_entered(round);
  if (callbacks_.on_round_entered) callbacks_.on_round_entered(round);
}

void Pacemaker::note_round_entered(Round round) {
  obs::Observer* obs = config_.observer;
  if (obs == nullptr) return;
  obs->count(config_.id, obs::Counter::kRoundsEntered);
  obs->gauge(config_.id, obs::Gauge::kRound,
             static_cast<std::int64_t>(round));
  if (obs->recording()) {
    obs->emit(obs::instant_event("pacemaker", "round_enter", config_.id,
                                 sched_.now(), {"round", round}));
  }
  if (obs->tracing()) {
    // Counter track: the round number as a per-replica time series (lagging
    // replicas show up as a visibly lower staircase in Perfetto).
    obs->emit_trace_only(obs::counter_event("pacemaker", "round", config_.id,
                                            sched_.now(), {"round", round}));
  }
}

void Pacemaker::arm_timer() {
  sched_.cancel(timer_);
  timer_ = sched_.schedule_after(config_.base_timeout, [this] {
    timer_ = sim::kInvalidTimer;
    if (stopped_) return;
    timed_out_ = true;
    const Round expired = round_;
    if (obs::Observer* obs = config_.observer) {
      obs->count(config_.id, obs::Counter::kTimeoutsLocal);
      if (obs->recording()) {
        obs->emit(obs::instant_event("pacemaker", "timeout", config_.id,
                                     sched_.now(), {"round", expired}));
      }
    }
    if (callbacks_.on_local_timeout) callbacks_.on_local_timeout(expired);
  });
}

}  // namespace sftbft::consensus
