#include "surrogate/dataset.h"

#include <cmath>

#include "common/logging.h"

namespace tvmbo::surrogate {

void Dataset::add(std::vector<double> features, double target) {
  if (!x.empty()) {
    TVMBO_CHECK_EQ(features.size(), x[0].size())
        << "feature arity mismatch in dataset";
  }
  x.push_back(std::move(features));
  y.push_back(target);
}

FeatureColumns::FeatureColumns(const Dataset& data)
    : rows(data.size()), features(data.num_features()),
      values(rows * features) {
  for (std::size_t row = 0; row < rows; ++row) {
    for (std::size_t f = 0; f < features; ++f) {
      values[f * rows + row] = data.x[row][f];
    }
  }
}

FeatureEncoder::FeatureEncoder(const cs::ConfigurationSpace* space)
    : space_(space) {
  TVMBO_CHECK(space_ != nullptr) << "encoder requires a space";
}

std::size_t FeatureEncoder::num_features() const {
  return 2 * space_->num_params();
}

std::vector<double> FeatureEncoder::encode(
    const cs::Configuration& config) const {
  std::vector<double> features;
  features.reserve(num_features());
  const std::vector<double> values = space_->values(config);
  for (std::size_t i = 0; i < space_->num_params(); ++i) {
    const auto& param = space_->param(i);
    const std::uint64_t card = param.cardinality();
    double position;
    if (card > 1) {
      position = static_cast<double>(config.index(i)) /
                 static_cast<double>(card - 1);
    } else if (card == 1) {
      position = 0.0;
    } else {
      // Continuous: normalize the real value.
      const auto& f =
          static_cast<const cs::UniformFloatHyperparameter&>(param);
      position = (config.real(i) - f.lower()) / (f.upper() - f.lower());
    }
    features.push_back(position);
    features.push_back(std::log2(1.0 + std::fabs(values[i])));
  }
  return features;
}

}  // namespace tvmbo::surrogate
