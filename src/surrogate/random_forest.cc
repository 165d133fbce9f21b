#include "surrogate/random_forest.h"

#include <cmath>

#include "common/logging.h"
#include "common/thread_pool.h"

namespace tvmbo::surrogate {

RandomForest::RandomForest(ForestOptions options) : options_(options) {
  TVMBO_CHECK_GT(options_.num_trees, 0) << "num_trees must be positive";
  TVMBO_CHECK(options_.bootstrap_fraction > 0.0 &&
              options_.bootstrap_fraction <= 1.0)
      << "bootstrap_fraction must be in (0, 1]";
}

void RandomForest::fit(const Dataset& data, Rng& rng) {
  TVMBO_CHECK(!data.x.empty()) << "fit on empty dataset";
  trees_.clear();

  TreeOptions tree_options = options_.tree;
  if (options_.max_features == 0) {
    tree_options.max_features = static_cast<int>(
        (data.num_features() + 2) / 3);  // ceil(p/3), regression default
  } else {
    tree_options.max_features = options_.max_features;
  }

  const std::size_t n = data.size();
  const std::size_t sample_size = std::max<std::size_t>(
      1, static_cast<std::size_t>(
             std::llround(options_.bootstrap_fraction *
                          static_cast<double>(n))));

  // Derive every tree's independent RNG stream up front so the fit is
  // deterministic however the pool schedules the trees.
  const auto num_trees = static_cast<std::size_t>(options_.num_trees);
  std::vector<Rng> streams;
  streams.reserve(num_trees);
  for (std::size_t t = 0; t < num_trees; ++t) streams.push_back(rng.split());

  // Trees are fit into a local vector so that a throwing fit leaves the
  // forest unfitted rather than partly fitted.
  const FeatureColumns columns(data);
  std::vector<DecisionTree> trees(num_trees, DecisionTree(tree_options));
  default_thread_pool().parallel_for(num_trees, [&](std::size_t t) {
    Rng& tree_rng = streams[t];
    std::vector<std::size_t> rows;
    if (options_.bootstrap) {
      rows.resize(sample_size);
      for (std::size_t i = 0; i < sample_size; ++i) {
        rows[i] = static_cast<std::size_t>(
            tree_rng.uniform_int(static_cast<std::int64_t>(n)));
      }
    }
    trees[t].fit(columns, data.y, rows, &tree_rng);
  });
  trees_ = std::move(trees);
}

double RandomForest::predict(std::span<const double> features) const {
  return predict_with_std(features).mean;
}

Prediction RandomForest::predict_with_std(
    std::span<const double> features) const {
  TVMBO_CHECK(fitted()) << "predict before fit";
  double sum = 0.0, sum_sq = 0.0;
  for (const DecisionTree& tree : trees_) {
    const double value = tree.predict(features);
    sum += value;
    sum_sq += value * value;
  }
  const double n = static_cast<double>(trees_.size());
  Prediction prediction;
  prediction.mean = sum / n;
  const double variance =
      std::max(0.0, sum_sq / n - prediction.mean * prediction.mean);
  prediction.std = std::sqrt(variance);
  return prediction;
}

}  // namespace tvmbo::surrogate
