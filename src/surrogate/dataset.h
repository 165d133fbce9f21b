// Feature matrices for the surrogate models, plus the encoder that turns
// ConfigSpace configurations into model features.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "configspace/configspace.h"

namespace tvmbo::surrogate {

/// Row-major regression dataset.
struct Dataset {
  std::vector<std::vector<double>> x;  ///< feature rows
  std::vector<double> y;               ///< targets

  std::size_t size() const { return x.size(); }
  std::size_t num_features() const { return x.empty() ? 0 : x[0].size(); }

  void add(std::vector<double> features, double target);
};

/// Column-major copy of a dataset's features, `values[f * rows + row]`:
/// the layout the trees' split scan reads. A forest builds it once per fit
/// and shares it, read-only, across all of its trees.
struct FeatureColumns {
  explicit FeatureColumns(const Dataset& data);

  std::size_t rows = 0;
  std::size_t features = 0;
  std::vector<double> values;

  const double* column(std::size_t feature) const {
    return values.data() + feature * rows;
  }
};

/// Encodes a configuration as surrogate features. Each parameter
/// contributes two features: its normalized position in the domain
/// (ordinal locality) and log2(1 + |value|) (magnitude, which is what
/// matters for tile sizes spanning 1..2400).
class FeatureEncoder {
 public:
  explicit FeatureEncoder(const cs::ConfigurationSpace* space);

  std::size_t num_features() const;
  std::vector<double> encode(const cs::Configuration& config) const;

 private:
  const cs::ConfigurationSpace* space_;
};

}  // namespace tvmbo::surrogate
