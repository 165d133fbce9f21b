#include "surrogate/decision_tree.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "common/logging.h"

namespace tvmbo::surrogate {

DecisionTree::DecisionTree(TreeOptions options) : options_(options) {
  TVMBO_CHECK_GT(options_.max_depth, 0) << "max_depth must be positive";
  TVMBO_CHECK_GE(options_.min_samples_leaf, 1)
      << "min_samples_leaf must be >= 1";
}

/// Per-fit state of the recursive build. The scratch vectors are sized
/// once per fit and reused by every node: a node finishes its split scan
/// before it recurses, so one buffer of each serves the whole tree.
struct DecisionTree::SplitScan {
  /// One row of the node being scanned and its key under the current
  /// feature. Targets stay in `y`: keeping entries at 16 bytes makes the
  /// sort's moves cheaper than carrying the target along.
  struct Entry {
    double key;
    std::size_t row;
  };

  const FeatureColumns& x;
  std::span<const double> y;
  Rng* rng;
  std::vector<std::size_t> rows;  ///< partitioned in place per split
  std::vector<std::size_t> features;
  std::vector<Entry> sorted;
};

void DecisionTree::fit(const Dataset& data,
                       std::span<const std::size_t> rows, Rng* rng) {
  TVMBO_CHECK(!data.x.empty()) << "fit on empty dataset";
  fit(FeatureColumns(data), data.y, rows, rng);
}

void DecisionTree::fit(const FeatureColumns& x, std::span<const double> y,
                       std::span<const std::size_t> rows, Rng* rng) {
  TVMBO_CHECK_GT(x.rows, 0u) << "fit on empty dataset";
  TVMBO_CHECK_EQ(x.rows, y.size()) << "dataset size mismatch";
  nodes_.clear();
  num_features_ = x.features;
  SplitScan scan{x, y, rng, {}, {}, {}};
  if (rows.empty()) {
    scan.rows.resize(x.rows);
    std::iota(scan.rows.begin(), scan.rows.end(), std::size_t{0});
  } else {
    scan.rows.assign(rows.begin(), rows.end());
  }
  if (options_.max_features > 0) {
    TVMBO_CHECK(rng != nullptr)
        << "random feature subsetting requires an Rng";
  }
  scan.features.reserve(x.features);
  scan.sorted.resize(scan.rows.size());
  build(scan, 0, scan.rows.size(), 0);
}

int DecisionTree::build(SplitScan& scan, std::size_t begin, std::size_t end,
                        int depth) {
  TVMBO_CHECK_LT(begin, end) << "empty node range";
  const std::size_t count = end - begin;
  std::vector<std::size_t>& rows = scan.rows;

  double sum = 0.0, sum_sq = 0.0;
  for (std::size_t i = begin; i < end; ++i) {
    const double y = scan.y[rows[i]];
    sum += y;
    sum_sq += y * y;
  }
  const double node_mean = sum / static_cast<double>(count);
  const double node_var =
      sum_sq / static_cast<double>(count) - node_mean * node_mean;

  auto make_leaf = [&]() -> int {
    Node leaf;
    leaf.value = node_mean;
    nodes_.push_back(leaf);
    return static_cast<int>(nodes_.size()) - 1;
  };

  if (depth >= options_.max_depth ||
      count < static_cast<std::size_t>(options_.min_samples_split) ||
      node_var <= 1e-24) {
    return make_leaf();
  }

  // Candidate features: all, or a random subset.
  const std::size_t num_features = scan.x.features;
  std::vector<std::size_t>& features = scan.features;
  features.resize(num_features);
  std::iota(features.begin(), features.end(), std::size_t{0});
  if (options_.max_features > 0 &&
      static_cast<std::size_t>(options_.max_features) < num_features) {
    scan.rng->shuffle(features);
    features.resize(static_cast<std::size_t>(options_.max_features));
  }

  // Exact best split: for each candidate feature, sort this node's rows by
  // the feature and scan split points between distinct values. Each sort
  // starts from the order the previous feature's sort left, and compares
  // keys only, so its permutation (and with it the order in which
  // left_sum accumulates within runs of equal keys) is the one a sort of
  // bare row indices by the same keys would produce.
  double best_gain = options_.min_variance_decrease;
  int best_feature = -1;
  double best_threshold = 0.0;

  const std::span<SplitScan::Entry> sorted(scan.sorted.data(), count);
  for (std::size_t i = 0; i < count; ++i) sorted[i].row = rows[begin + i];
  const double total_sum = sum;
  for (std::size_t feature : features) {
    const double* column = scan.x.column(feature);
    for (SplitScan::Entry& entry : sorted) entry.key = column[entry.row];
    std::sort(sorted.begin(), sorted.end(),
              [](const SplitScan::Entry& a, const SplitScan::Entry& b) {
                return a.key < b.key;
              });
    double left_sum = 0.0;
    for (std::size_t i = 0; i + 1 < count; ++i) {
      left_sum += scan.y[sorted[i].row];
      const double v = sorted[i].key;
      const double v_next = sorted[i + 1].key;
      if (v == v_next) continue;
      const std::size_t left_n = i + 1;
      const std::size_t right_n = count - left_n;
      if (left_n < static_cast<std::size_t>(options_.min_samples_leaf) ||
          right_n < static_cast<std::size_t>(options_.min_samples_leaf)) {
        continue;
      }
      const double right_sum = total_sum - left_sum;
      // Variance reduction up to constants: sum^2/n terms.
      const double gain =
          left_sum * left_sum / static_cast<double>(left_n) +
          right_sum * right_sum / static_cast<double>(right_n) -
          total_sum * total_sum / static_cast<double>(count);
      if (gain / static_cast<double>(count) > best_gain) {
        best_gain = gain / static_cast<double>(count);
        best_feature = static_cast<int>(feature);
        // Midpoint, unless v and v_next are so close it rounds up to
        // v_next — then `x <= threshold` would send every row left and
        // produce an empty partition. v itself always splits cleanly
        // (no training value lies strictly between v and v_next).
        best_threshold = 0.5 * (v + v_next);
        if (best_threshold >= v_next) best_threshold = v;
      }
    }
  }

  if (best_feature < 0) return make_leaf();

  // Partition rows in place around the chosen split.
  const double* split_column =
      scan.x.column(static_cast<std::size_t>(best_feature));
  const auto middle = std::partition(
      rows.begin() + static_cast<std::ptrdiff_t>(begin),
      rows.begin() + static_cast<std::ptrdiff_t>(end),
      [&](std::size_t row) { return split_column[row] <= best_threshold; });
  const std::size_t split =
      static_cast<std::size_t>(middle - rows.begin());
  TVMBO_CHECK(split > begin && split < end)
      << "degenerate partition in tree build";

  const int node_index = static_cast<int>(nodes_.size());
  nodes_.emplace_back();
  nodes_[static_cast<std::size_t>(node_index)].feature = best_feature;
  nodes_[static_cast<std::size_t>(node_index)].threshold = best_threshold;
  nodes_[static_cast<std::size_t>(node_index)].value = node_mean;

  const int left = build(scan, begin, split, depth + 1);
  const int right = build(scan, split, end, depth + 1);
  nodes_[static_cast<std::size_t>(node_index)].left = left;
  nodes_[static_cast<std::size_t>(node_index)].right = right;
  return node_index;
}

double DecisionTree::predict(std::span<const double> features) const {
  TVMBO_CHECK(fitted()) << "predict before fit";
  // Every split feature is below the fitted feature count, so one check
  // here covers every node the walk visits.
  TVMBO_CHECK_GE(features.size(), num_features_)
      << "feature arity mismatch in predict";
  const Node* node = &nodes_[0];
  while (!node->is_leaf()) {
    node = features[static_cast<std::size_t>(node->feature)] <=
                   node->threshold
               ? &nodes_[static_cast<std::size_t>(node->left)]
               : &nodes_[static_cast<std::size_t>(node->right)];
  }
  return node->value;
}

std::size_t DecisionTree::num_leaves() const {
  std::size_t leaves = 0;
  for (const Node& node : nodes_) {
    if (node.is_leaf()) ++leaves;
  }
  return leaves;
}

std::size_t DecisionTree::depth_below(int node) const {
  const Node& n = nodes_[static_cast<std::size_t>(node)];
  if (n.is_leaf()) return 1;
  return 1 + std::max(depth_below(n.left), depth_below(n.right));
}

std::size_t DecisionTree::depth() const {
  if (nodes_.empty()) return 0;
  return depth_below(0);
}

}  // namespace tvmbo::surrogate
