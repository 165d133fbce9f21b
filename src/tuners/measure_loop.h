// AskTellSession: the propose/tell state every tuning loop runs its
// Tuner through — ask (Step 1), then the loop measures (Steps 2–4),
// then tell (Step 5).
#pragma once

#include <optional>
#include <span>
#include <vector>

#include "tuners/tuner.h"

namespace tvmbo::tuners {

/// The propose/tell state machine of a tuning session, with the driving
/// loop factored *out*: ask() hands the caller the next configuration(s)
/// to measure and tell() feeds completed measurements back, while the
/// session tracks budget, in-flight count, and space exhaustion. Both
/// AutotuningSession::run_strategy and the tvmbo_serve scheduler drive
/// their sessions through this class — the daemon's externally-ticked
/// multi-tenant loops and the single-tenant `--async` loop are the same
/// machine, which is what makes a fixed-seed serve job reproduce the
/// `--runner proc --async` trajectory bit-identically.
///
/// Not thread-safe: exactly one driver (the loop, or the serve scheduler
/// thread) may call ask()/tell().
class AskTellSession {
 public:
  /// The tuner must outlive the session. `max_evaluations` caps submitted
  /// trials (asked configurations), told or not.
  AskTellSession(Tuner& tuner, std::size_t max_evaluations);

  /// Proposes the next configuration, or nullopt once the budget is fully
  /// submitted or the tuner exhausts its space. Every returned
  /// configuration must eventually be tell()-ed (or abandon()-ed).
  ///
  /// Strict ask-one order: a liar-imputing tuner accounts for the
  /// configurations already in flight, so asking one at a time never
  /// re-proposes a pending point — and keeps the proposal sequence a pure
  /// function of (space, seed, tell history), independent of how many
  /// slots the caller happens to have free.
  std::optional<cs::Configuration> ask();

  /// Proposes up to `n` configurations in one Tuner::next_batch call (a
  /// measurement wave), capped by the remaining budget; empty once the
  /// budget is fully submitted or the space is exhausted.
  std::vector<cs::Configuration> ask(std::size_t n);

  /// Feeds one completed measurement back to the tuner (completion order;
  /// a liar-imputing tuner un-hallucinates the config on update).
  void tell(const cs::Configuration& config, double metric, bool valid);

  /// Feeds a whole wave back in one Tuner::update call: tuners that
  /// retrain per update (XGB, GA) see one refit per wave, as AutoTVM does.
  void tell(std::span<const Trial> trials);

  /// Drops one in-flight trial without telling the tuner (a cancelled or
  /// discarded measurement). The budget slot is *not* refunded.
  void abandon();

  /// True while ask() may still return a configuration.
  bool can_ask() const;
  /// True once every submitted trial has been told/abandoned and no more
  /// can be asked — the session's terminal state.
  bool done() const { return !can_ask() && in_flight() == 0; }

  std::size_t submitted() const { return submitted_; }
  std::size_t completed() const { return completed_; }
  std::size_t in_flight() const { return submitted_ - completed_; }
  std::size_t max_evaluations() const { return max_evaluations_; }
  Tuner& tuner() { return tuner_; }

 private:
  Tuner& tuner_;
  std::size_t max_evaluations_;
  std::size_t submitted_ = 0;
  std::size_t completed_ = 0;
  bool exhausted_ = false;
};

}  // namespace tvmbo::tuners
