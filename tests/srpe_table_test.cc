/// Pins the station-pair SRPE table behind the serving layouts: a layout
/// that copies its SRPE rows from the table is byte-for-byte the layout
/// that embeds its own rows, on the rainfall and the road travel-distance
/// networks; every weight mutation drops the table, so the next request
/// serves exactly what a fresh interpolator holding the same weights
/// serves; and configurations that embed per layout never build one.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/telemetry.h"
#include "core/inference_engine.h"
#include "core/ssin_interpolator.h"
#include "data/rainfall_generator.h"
#include "data/traffic_generator.h"
#include "nn/inference.h"

namespace ssin {
namespace {

int64_t TableBuilds() {
  return telemetry::GetCounter("serve.srpe_table.builds")->Value();
}

template <typename T>
bool SameBytes(const std::vector<T>& a, const std::vector<T>& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(),
                                   a.size() * sizeof(T)) == 0);
}

bool SameBytes(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         (a.numel() == 0 || std::memcmp(a.data(), b.data(),
                                        a.numel() * sizeof(double)) == 0);
}

bool SameBytes(const TensorF32& a, const TensorF32& b) {
  return a.shape() == b.shape() &&
         (a.numel() == 0 || std::memcmp(a.data(), b.data(),
                                        a.numel() * sizeof(float)) == 0);
}

/// The network's stations split into train (observed) and test (query)
/// ids, every `query_every`-th one a test id, plus outage patterns: the
/// full train set and subsets that drop a random share of it.
struct Patterns {
  std::vector<int> train_ids;
  std::vector<int> test_ids;
  std::vector<std::vector<int>> observed;
};

Patterns OutagePatterns(int num_stations, int query_every, uint64_t seed) {
  Patterns p;
  for (int i = 0; i < num_stations; ++i) {
    (i % query_every == query_every - 1 ? p.test_ids : p.train_ids)
        .push_back(i);
  }
  p.observed.push_back(p.train_ids);
  Rng rng(seed);
  for (double outage : {0.1, 0.3, 0.6, 0.9}) {
    std::vector<int> survivors;
    for (int id : p.train_ids) {
      if (rng.Uniform() >= outage) survivors.push_back(id);
    }
    if (survivors.empty()) survivors.push_back(p.train_ids.front());
    p.observed.push_back(std::move(survivors));
  }
  return p;
}

// ------------------------------------------- table rows == embedded rows

struct NetworkCase {
  const char* name;
  bool traffic;
};

void PrintTo(const NetworkCase& network, std::ostream* os) {
  *os << network.name;
}

class TableLayoutEquality : public ::testing::TestWithParam<NetworkCase> {};

TEST_P(TableLayoutEquality, GatheredLayoutsEqualPerLayoutEmbedding) {
  SpatialDataset data;
  if (GetParam().traffic) {
    TrafficNetworkConfig config;
    config.corridors_ew = 4;
    config.corridors_ns = 4;
    config.extent_km = 30.0;
    config.num_sensors = 80;
    data = TrafficGenerator(config).Generate(4, 5);
    ASSERT_TRUE(data.has_travel_distance());
  } else {
    data = RainfallGenerator(HkRegionConfig()).GenerateHours(4, 5);
  }
  const Patterns p = OutagePatterns(data.num_stations(), 4, 17);

  // The paper architecture, freshly initialized: the equality holds for
  // any weights, so no training is needed.
  SsinInterpolator ssin(SpaFormerConfig::Paper(), TrainConfig());
  ssin.Prepare(data, p.train_ids);
  SpatialContext context;
  context.Build(data, p.train_ids);
  ASSERT_TRUE(UsesStationPairSrpe(ssin.model()->config(),
                                  context.num_stations()));

  InferenceWorkspace ws;
  const Tensor table = BuildStationPairSrpe(ssin.model(), context, &ws);
  const int n = data.num_stations();
  EXPECT_EQ(table.dim(0), n * n);
  EXPECT_EQ(table.dim(1), ssin.model()->config().d_k);

  for (size_t k = 0; k < p.observed.size(); ++k) {
    SCOPED_TRACE("pattern " + std::to_string(k));
    const auto embedded = BuildSequenceLayout(
        ssin.model(), context, p.observed[k], p.test_ids, &ws);
    const auto gathered = BuildSequenceLayout(
        ssin.model(), context, p.observed[k], p.test_ids, &ws, &table);
    EXPECT_EQ(gathered->node_ids, embedded->node_ids);
    EXPECT_EQ(gathered->num_observed, embedded->num_observed);
    EXPECT_EQ(gathered->observed, embedded->observed);
    EXPECT_EQ(gathered->plan->offset, embedded->plan->offset);
    EXPECT_EQ(gathered->plan->key_index, embedded->plan->key_index);
    EXPECT_TRUE(SameBytes(gathered->plan->pair_rows,
                          embedded->plan->pair_rows));
    EXPECT_TRUE(SameBytes(gathered->abspos, embedded->abspos));
    EXPECT_TRUE(SameBytes(gathered->srpe, embedded->srpe));
    EXPECT_TRUE(SameBytes(gathered->srpe_f32, embedded->srpe_f32));
    EXPECT_EQ(gathered->sape.numel(), 0);
    EXPECT_EQ(gathered->sape_f32.numel(), 0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Networks, TableLayoutEquality,
    ::testing::Values(NetworkCase{"HkRainfall", false},
                      NetworkCase{"TrafficTravelDistance", true}),
    [](const ::testing::TestParamInfo<NetworkCase>& info) {
      return std::string(info.param.name);
    });

// -------------------------------------------------------- selection

TEST(StationPairSrpeSelection, OnlyUnlimitedPackedSrpeWithinDenseCap) {
  const SpaFormerConfig paper = SpaFormerConfig::Paper();
  EXPECT_TRUE(UsesStationPairSrpe(paper, 123));
  EXPECT_TRUE(UsesStationPairSrpe(paper, kMaxDenseRelposLength));
  EXPECT_FALSE(UsesStationPairSrpe(paper, kMaxDenseRelposLength + 1));

  SpaFormerConfig knn = paper;
  knn.neighbor_k = 8;
  EXPECT_FALSE(UsesStationPairSrpe(knn, 123));
  SpaFormerConfig radius = paper;
  radius.neighbor_radius_km = 10.0;
  EXPECT_FALSE(UsesStationPairSrpe(radius, 123));
  SpaFormerConfig dense = paper;
  dense.packed_srpe = false;
  EXPECT_FALSE(UsesStationPairSrpe(dense, 123));
  EXPECT_FALSE(UsesStationPairSrpe(SpaFormerConfig::WithSape(), 123));
}

// ------------------------------------------- lifecycle on the interpolator

RainfallRegionConfig TinyRegion() {
  RainfallRegionConfig config = HkRegionConfig();
  config.num_gauges = 24;
  config.width_km = 30.0;
  config.height_km = 24.0;
  return config;
}

SpaFormerConfig TinyModel() {
  SpaFormerConfig config;
  config.num_layers = 2;
  config.num_heads = 2;
  config.d_model = 8;
  config.d_k = 8;
  config.d_ff = 32;
  return config;
}

TrainConfig FastTraining(uint64_t seed) {
  TrainConfig config;
  config.epochs = 1;
  config.masks_per_sequence = 2;
  config.batch_size = 8;
  config.warmup_steps = 20;
  config.lr_factor = 0.2;
  config.seed = seed;
  return config;
}

class TableLifecycle : public ::testing::Test {
 protected:
  TableLifecycle()
      : data_(RainfallGenerator(TinyRegion()).GenerateHours(8, 7)),
        patterns_(OutagePatterns(data_.num_stations(), 4, 3)),
        ssin_(TinyModel(), FastTraining(13)) {
    ssin_.Fit(data_, patterns_.train_ids);
  }

  std::vector<std::vector<double>> Serve(SsinInterpolator* model) {
    std::vector<std::vector<double>> out;
    for (const std::vector<int>& observed : patterns_.observed) {
      for (int t = 0; t < 3; ++t) {
        out.push_back(model->InterpolateTimestamp(data_.Values(t), observed,
                                                  patterns_.test_ids));
      }
    }
    return out;
  }

  /// Serves every pattern, expecting `builds` table builds on the way, and
  /// compares with a fresh interpolator holding a copy of the weights (and
  /// the same neighbor settings).
  void ExpectServesLikeFresh(int64_t builds, const std::string& label) {
    SCOPED_TRACE(label);
    const int64_t before = TableBuilds();
    const std::vector<std::vector<double>> served = Serve(&ssin_);
    EXPECT_EQ(TableBuilds() - before, builds);

    SsinInterpolator fresh(TinyModel(), FastTraining(13));
    fresh.Prepare(data_, patterns_.train_ids);
    fresh.CopyParametersFrom(ssin_);
    fresh.SetNeighborK(ssin_.neighbor_k());
    fresh.SetNeighborRadius(ssin_.neighbor_radius_km());
    EXPECT_EQ(Serve(&fresh), served);  // Bit-identical.
  }

  std::string TempPath(const char* name) const {
    return ::testing::TempDir() + "srpe_table_test_" + name;
  }

  SpatialDataset data_;
  Patterns patterns_;
  SsinInterpolator ssin_;
};

TEST_F(TableLifecycle, BuiltOncePerWeightGeneration) {
  ExpectServesLikeFresh(1, "first requests after Fit");
  // Every layout is cached now; more requests build nothing.
  ExpectServesLikeFresh(0, "cache hits");

  ssin_.ContinueTraining(data_, patterns_.train_ids);
  ExpectServesLikeFresh(1, "after ContinueTraining");

  SsinInterpolator other(TinyModel(), FastTraining(99));
  other.Fit(data_, patterns_.train_ids);
  ssin_.CopyParametersFrom(other);
  ExpectServesLikeFresh(1, "after CopyParametersFrom");
}

TEST_F(TableLifecycle, RebuiltAfterCheckpointRestores) {
  const std::string weights = TempPath("weights.ckpt");
  const std::string trainer = TempPath("trainer.ckpt");
  ASSERT_TRUE(ssin_.Save(weights));
  ASSERT_TRUE(ssin_.SaveTrainerCheckpoint(trainer));
  const std::vector<std::vector<double>> saved = Serve(&ssin_);

  ssin_.ContinueTraining(data_, patterns_.train_ids);
  Serve(&ssin_);  // Caches the moved weights' table and layouts.
  ASSERT_TRUE(ssin_.Load(weights));
  ExpectServesLikeFresh(1, "after Load");
  EXPECT_EQ(Serve(&ssin_), saved);

  ssin_.ContinueTraining(data_, patterns_.train_ids);
  Serve(&ssin_);
  ASSERT_TRUE(ssin_.ResumeTrainerFrom(trainer));
  ExpectServesLikeFresh(1, "after ResumeTrainerFrom");
  EXPECT_EQ(Serve(&ssin_), saved);
  std::remove(weights.c_str());
  std::remove(trainer.c_str());
}

TEST_F(TableLifecycle, NeighborLimitsEmbedPerLayoutAndRestoreTheTable) {
  ExpectServesLikeFresh(1, "full shielding");

  // A cap at least the observed count keeps the plans (and predictions)
  // of full shielding, but the neighbor-limited path never uses a table.
  ssin_.SetNeighborK(static_cast<int>(patterns_.train_ids.size()));
  ExpectServesLikeFresh(0, "neighbor_k");
  ssin_.SetNeighborK(0);
  ExpectServesLikeFresh(1, "neighbor_k back to 0");

  ssin_.SetNeighborRadius(1000.0);
  ExpectServesLikeFresh(0, "neighbor_radius_km");
  ssin_.SetNeighborRadius(0.0);
  ExpectServesLikeFresh(1, "neighbor_radius_km back to 0");
}

TEST(StationPairSrpeSelection, NeighborLimitedInterpolatorBuildsNoTable) {
  const SpatialDataset data =
      RainfallGenerator(TinyRegion()).GenerateHours(8, 7);
  const Patterns p = OutagePatterns(data.num_stations(), 4, 5);
  SpaFormerConfig config = TinyModel();
  config.neighbor_k = 4;
  SsinInterpolator ssin(config, FastTraining(13));
  ssin.Fit(data, p.train_ids);

  const int64_t before = TableBuilds();
  for (const std::vector<int>& observed : p.observed) {
    ssin.InterpolateTimestamp(data.Values(0), observed, p.test_ids);
  }
  EXPECT_EQ(TableBuilds(), before);
  EXPECT_EQ(ssin.layout_cache().misses(),
            static_cast<int64_t>(p.observed.size()));
}

}  // namespace
}  // namespace ssin
