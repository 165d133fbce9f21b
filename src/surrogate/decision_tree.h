// CART regression tree with exact variance-reduction splits.
//
// The building block for both the Random-Forest surrogate (ytopt) and the
// gradient-boosted model (AutoTVM's XGBTuner). Trees are fit on at most a
// few hundred observations here, so exact split scans (sort per feature
// per node) are the right tradeoff — no histograms needed.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "common/rng.h"
#include "surrogate/dataset.h"

namespace tvmbo::surrogate {

struct TreeOptions {
  int max_depth = 16;
  int min_samples_split = 2;
  int min_samples_leaf = 1;
  double min_variance_decrease = 0.0;
  /// Features examined per split: 0 = all (CART), otherwise a random
  /// subset of this size (random-forest style decorrelation).
  int max_features = 0;
};

class DecisionTree {
 public:
  explicit DecisionTree(TreeOptions options = {});

  /// Fits on `data` restricted to `rows` (all rows when empty). `rng` is
  /// required when options.max_features > 0.
  void fit(const Dataset& data, std::span<const std::size_t> rows = {},
           Rng* rng = nullptr);
  /// Same fit on a prebuilt column-major copy of the features, with
  /// targets `y` (one per row). Lets a forest or a boosting loop share one
  /// copy across all of its trees.
  void fit(const FeatureColumns& x, std::span<const double> y,
           std::span<const std::size_t> rows = {}, Rng* rng = nullptr);

  double predict(std::span<const double> features) const;

  bool fitted() const { return !nodes_.empty(); }
  std::size_t num_nodes() const { return nodes_.size(); }
  std::size_t num_leaves() const;
  std::size_t depth() const;

 private:
  struct Node {
    int feature = -1;      ///< -1 for leaves
    double threshold = 0;  ///< go left when x[feature] <= threshold
    double value = 0;      ///< leaf prediction (mean of its samples)
    int left = -1;
    int right = -1;
    bool is_leaf() const { return feature < 0; }
  };

  struct SplitScan;

  int build(SplitScan& scan, std::size_t begin, std::size_t end, int depth);
  std::size_t depth_below(int node) const;

  TreeOptions options_;
  std::vector<Node> nodes_;
  std::size_t num_features_ = 0;  ///< feature count seen by fit
};

}  // namespace tvmbo::surrogate
