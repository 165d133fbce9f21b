// Random-Forest regressor with predictive uncertainty — the surrogate
// model ytopt's Bayesian optimization uses (§2.2 of the paper: "a
// dynamically updated Random Forest surrogate model ... balance
// exploration and exploitation"). The per-tree spread provides the
// uncertainty the LCB acquisition needs.
#pragma once

#include <vector>

#include "common/rng.h"
#include "surrogate/decision_tree.h"

namespace tvmbo::surrogate {

struct ForestOptions {
  int num_trees = 100;
  /// Bootstrap sample fraction per tree (with replacement).
  double bootstrap_fraction = 1.0;
  bool bootstrap = true;
  TreeOptions tree{.max_depth = 16, .min_samples_split = 2,
                   .min_samples_leaf = 1};
  /// Per-split random feature count; 0 = ceil(num_features / 3)
  /// (the scikit-learn regression default).
  int max_features = 0;
};

struct Prediction {
  double mean = 0.0;
  double std = 0.0;
};

class RandomForest {
 public:
  explicit RandomForest(ForestOptions options = {});

  /// Trees are fit on the shared thread pool (inline when called from one
  /// of its workers). Every tree's RNG stream is derived up front, so the
  /// forest is bit-identical for any thread count.
  void fit(const Dataset& data, Rng& rng);

  bool fitted() const { return !trees_.empty(); }
  std::size_t num_trees() const { return trees_.size(); }

  double predict(std::span<const double> features) const;
  /// Mean and standard deviation across trees.
  Prediction predict_with_std(std::span<const double> features) const;

 private:
  ForestOptions options_;
  std::vector<DecisionTree> trees_;
};

}  // namespace tvmbo::surrogate
