// Bit-identity locks for the surrogate models and the ytopt loop.
//
// The tree split scan, the forest's column-major layout, its parallel fit
// and the parallel LCB scoring are all performance work that must not move
// a single bit of model output: fixed-seed trajectories and the simulated-
// device figure CSVs depend on it. These tests hash every output bit of
// tie-heavy forest and GBT fits and of a 200-ask ytopt trajectory and
// compare against hashes captured from the serial row-major implementation.
//
// The golden values depend on the standard library's std::sort and
// std::partition (the order of equal keys decides the last bits of each
// split's prefix sums) and on libm's log/exp, so they are only asserted for
// the toolchain they were captured with: x86-64 with libstdc++.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <deque>
#include <vector>

#include "configspace/divisors.h"
#include "surrogate/gbt.h"
#include "surrogate/random_forest.h"
#include "ytopt/bayes_opt.h"

namespace tvmbo {
namespace {

#if defined(__x86_64__) && defined(__GLIBCXX__)
constexpr bool kGoldenToolchain = true;
#else
constexpr bool kGoldenToolchain = false;
#endif

#define SKIP_OFF_GOLDEN_TOOLCHAIN()                                    \
  if (!kGoldenToolchain) {                                             \
    GTEST_SKIP() << "golden hashes were captured on x86-64/libstdc++"; \
  }

/// FNV-1a over the bit patterns of a sequence of doubles and integers.
class BitHash {
 public:
  void add(std::uint64_t word) {
    for (int byte = 0; byte < 8; ++byte) {
      hash_ ^= (word >> (8 * byte)) & 0xffu;
      hash_ *= 0x100000001b3ull;
    }
  }
  void add(double value) { add(std::bit_cast<std::uint64_t>(value)); }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ull;
};

constexpr std::size_t kFeatures = 12;
constexpr int kLevels = 8;

double quantized(Rng& rng) {
  return static_cast<double>(rng.uniform_int(kLevels)) / (kLevels - 1);
}

/// 12 features on an 8-level grid: every split candidate sits in long runs
/// of equal keys, and bootstrap resampling adds duplicate rows on top.
surrogate::Dataset tie_heavy_dataset(std::size_t n) {
  Rng rng(2024);
  surrogate::Dataset data;
  for (std::size_t i = 0; i < n; ++i) {
    std::vector<double> x(kFeatures);
    for (double& value : x) value = quantized(rng);
    const double y = (x[0] - 0.4) * (x[0] - 0.4) + 0.3 * x[3] * x[7] -
                     0.2 * x[11] + 0.05 * rng.normal(0.0, 1.0);
    data.add(std::move(x), y);
  }
  return data;
}

std::uint64_t forest_hash(const surrogate::ForestOptions& options) {
  const surrogate::Dataset data = tie_heavy_dataset(240);
  surrogate::RandomForest forest(options);
  Rng rng(77);
  forest.fit(data, rng);
  BitHash hash;
  Rng probe(78);
  for (int i = 0; i < 200; ++i) {
    std::vector<double> x(kFeatures);
    for (double& value : x) {
      value = i % 2 == 0 ? quantized(probe) : probe.uniform();
    }
    const surrogate::Prediction p = forest.predict_with_std(x);
    hash.add(p.mean);
    hash.add(p.std);
  }
  for (const auto& row : data.x) hash.add(forest.predict(row));
  return hash.value();
}

TEST(SurrogateGolden, ForestOnTieHeavyBootstrapData) {
  SKIP_OFF_GOLDEN_TOOLCHAIN();
  surrogate::ForestOptions options;
  options.num_trees = 40;
  EXPECT_EQ(forest_hash(options), 0xfabfab39dddc8111ull);
}

TEST(SurrogateGolden, ForestWithLargerLeaves) {
  SKIP_OFF_GOLDEN_TOOLCHAIN();
  surrogate::ForestOptions options;
  options.num_trees = 40;
  options.tree.min_samples_leaf = 3;
  options.tree.max_depth = 8;
  EXPECT_EQ(forest_hash(options), 0xb0cb205ff2762fe0ull);
}

TEST(SurrogateGolden, GradientBoostedTrees) {
  // GBT examines every feature at every split (max_features = 0).
  SKIP_OFF_GOLDEN_TOOLCHAIN();
  const surrogate::Dataset data = tie_heavy_dataset(240);
  surrogate::GradientBoostedTrees gbt;
  Rng rng(91);
  gbt.fit(data, rng);
  BitHash hash;
  hash.add(gbt.training_rmse());
  hash.add(static_cast<std::uint64_t>(gbt.num_rounds_used()));
  Rng probe(92);
  for (int i = 0; i < 200; ++i) {
    std::vector<double> x(kFeatures);
    for (double& value : x) value = quantized(probe);
    hash.add(gbt.predict(x));
  }
  EXPECT_EQ(hash.value(), 0xb9fac34ad24df717ull);
}

/// Six tile knobs: 12 encoded features, the shape of the paper's larger
/// kernels (3mm has six tile parameters).
cs::ConfigurationSpace six_knob_space() {
  cs::ConfigurationSpace space;
  const std::int64_t extents[] = {1800, 2000, 2200, 2400, 1600, 1200};
  for (int i = 0; i < 6; ++i) {
    space.add(cs::tile_factor_param("P" + std::to_string(i), extents[i]));
  }
  return space;
}

/// Smooth bowl over the tile indices with an invalid corner, so the
/// trajectory also exercises the failure penalty.
std::pair<double, bool> six_knob_runtime(const cs::Configuration& config) {
  const double centers[] = {7.0, 12.0, 5.0, 16.0, 9.0, 3.0};
  double cost = 1.0;
  for (std::size_t i = 0; i < 6; ++i) {
    const double d = static_cast<double>(config.index(i)) - centers[i];
    cost += 0.002 * d * d * static_cast<double>(i + 1);
  }
  const bool valid = config.index(0) + config.index(1) < 34;
  return {cost * 1e-3, valid};
}

TEST(SurrogateGolden, YtoptTrajectoryOnSixTileKnobs) {
  SKIP_OFF_GOLDEN_TOOLCHAIN();
  const cs::ConfigurationSpace space = six_knob_space();
  ytopt::BayesianOptimizer bo(&space, 12);
  BitHash hash;
  for (int i = 0; i < 200; ++i) {
    const cs::Configuration config = bo.ask();
    hash.add(space.to_flat_index(config));
    const auto [runtime, valid] = six_knob_runtime(config);
    bo.tell(config, runtime, valid);
  }
  ASSERT_NE(bo.best(), nullptr);
  hash.add(bo.best()->runtime_s);
  hash.add(bo.acquisition(bo.best()->config));
  EXPECT_EQ(hash.value(), 0xf8c47a904e319cb6ull);
}

TEST(SurrogateGolden, StreamingYtoptTrajectoryWithConstantLiar) {
  // Two trials in flight: every refit after the warmup carries a pending
  // configuration as a constant-liar row.
  SKIP_OFF_GOLDEN_TOOLCHAIN();
  const cs::ConfigurationSpace space = six_knob_space();
  ytopt::BayesianOptimizer bo(&space, 13);
  BitHash hash;
  std::deque<cs::Configuration> in_flight;
  for (int i = 0; i < 120; ++i) {
    in_flight.push_back(bo.ask());
    hash.add(space.to_flat_index(in_flight.back()));
    if (in_flight.size() == 2) {
      const auto [runtime, valid] = six_knob_runtime(in_flight.front());
      bo.tell(in_flight.front(), runtime, valid);
      in_flight.pop_front();
    }
  }
  ASSERT_NE(bo.best(), nullptr);
  hash.add(bo.best()->runtime_s);
  EXPECT_EQ(hash.value(), 0x70aa4a626d661a27ull);
}

}  // namespace
}  // namespace tvmbo
