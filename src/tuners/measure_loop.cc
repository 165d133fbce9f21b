#include "tuners/measure_loop.h"

#include <algorithm>

#include "common/logging.h"

namespace tvmbo::tuners {

AskTellSession::AskTellSession(Tuner& tuner, std::size_t max_evaluations)
    : tuner_(tuner), max_evaluations_(max_evaluations) {}

bool AskTellSession::can_ask() const {
  return !exhausted_ && submitted_ < max_evaluations_ && tuner_.has_next();
}

std::optional<cs::Configuration> AskTellSession::ask() {
  std::vector<cs::Configuration> next = ask(1);
  if (next.empty()) return std::nullopt;
  return std::move(next[0]);
}

std::vector<cs::Configuration> AskTellSession::ask(std::size_t n) {
  if (n == 0 || !can_ask()) return {};
  std::vector<cs::Configuration> next =
      tuner_.next_batch(std::min(n, max_evaluations_ - submitted_));
  if (next.empty()) exhausted_ = true;
  submitted_ += next.size();
  return next;
}

void AskTellSession::tell(const cs::Configuration& config, double metric,
                          bool valid) {
  const Trial trial{config, metric, valid};
  tell({&trial, 1});
}

void AskTellSession::tell(std::span<const Trial> trials) {
  TVMBO_CHECK_LE(trials.size(), in_flight())
      << "tell without a matching in-flight ask";
  tuner_.update(trials);
  completed_ += trials.size();
}

void AskTellSession::abandon() {
  TVMBO_CHECK_LT(completed_, submitted_)
      << "abandon without a matching in-flight ask";
  ++completed_;
}

}  // namespace tvmbo::tuners
