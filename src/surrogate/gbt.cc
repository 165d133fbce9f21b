#include "surrogate/gbt.h"

#include <cmath>
#include <numeric>

#include "common/logging.h"

namespace tvmbo::surrogate {

GradientBoostedTrees::GradientBoostedTrees(GbtOptions options)
    : options_(options) {
  TVMBO_CHECK_GT(options_.num_rounds, 0) << "num_rounds must be positive";
  TVMBO_CHECK(options_.learning_rate > 0.0 && options_.learning_rate <= 1.0)
      << "learning_rate must be in (0, 1]";
  TVMBO_CHECK(options_.subsample > 0.0 && options_.subsample <= 1.0)
      << "subsample must be in (0, 1]";
}

void GradientBoostedTrees::fit(const Dataset& data, Rng& rng) {
  TVMBO_CHECK(!data.x.empty()) << "fit on empty dataset";
  trees_.clear();
  const std::size_t n = data.size();

  base_score_ =
      std::accumulate(data.y.begin(), data.y.end(), 0.0) /
      static_cast<double>(n);

  // Current model output per training row. Every round's tree fits the
  // same features against new residuals, so the column-major copy is
  // built once.
  std::vector<double> prediction(n, base_score_);
  const FeatureColumns columns(data);
  std::vector<double> residuals(n);

  const std::size_t sample_size = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::llround(
             options_.subsample * static_cast<double>(n))));

  double previous_rmse = std::numeric_limits<double>::infinity();
  for (int round = 0; round < options_.num_rounds; ++round) {
    for (std::size_t i = 0; i < n; ++i) {
      residuals[i] = data.y[i] - prediction[i];
    }
    Rng round_rng = rng.split();
    std::vector<std::size_t> rows;
    if (sample_size < n) {
      rows = round_rng.sample_without_replacement(n, sample_size);
    }
    DecisionTree tree(options_.tree);
    tree.fit(columns, residuals, rows, &round_rng);

    double sq_error = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      prediction[i] += options_.learning_rate * tree.predict(data.x[i]);
      const double e = data.y[i] - prediction[i];
      sq_error += e * e;
    }
    trees_.push_back(std::move(tree));

    training_rmse_ = std::sqrt(sq_error / static_cast<double>(n));
    if (options_.early_stop_tolerance > 0.0 &&
        previous_rmse - training_rmse_ < options_.early_stop_tolerance) {
      break;
    }
    previous_rmse = training_rmse_;
  }
  fitted_ = true;
}

double GradientBoostedTrees::predict(
    std::span<const double> features) const {
  TVMBO_CHECK(fitted_) << "predict before fit";
  double value = base_score_;
  for (const DecisionTree& tree : trees_) {
    value += options_.learning_rate * tree.predict(features);
  }
  return value;
}

}  // namespace tvmbo::surrogate
