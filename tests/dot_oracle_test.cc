// Integration tests for the two-stage DOT oracle on a tiny simulated city.
// These verify the training/inference plumbing, checkpointing, stage-1
// sharing, and the conditioning ablation switches; accuracy at paper scale
// is exercised by the bench binaries.

#include "core/dot_oracle.h"

#include <cstdio>
#include <string>

#include <gtest/gtest.h>
#include <unistd.h>

#include "eval/metrics.h"

namespace dot {
namespace {

DotConfig TinyConfig() {
  DotConfig cfg;
  cfg.grid_size = 10;
  cfg.diffusion_steps = 50;
  cfg.sample_steps = 8;
  cfg.unet.base_channels = 8;
  cfg.unet.levels = 2;
  cfg.unet.cond_dim = 32;
  cfg.estimator.embed_dim = 32;
  cfg.estimator.layers = 1;
  cfg.stage1_epochs = 2;
  cfg.stage2_epochs = 3;
  cfg.batch_size = 16;
  cfg.val_samples = 16;
  // Keep the per-test fixture setup cheap: gtest runs each TEST_F in its
  // own process, so SetUpTestSuite re-runs per test.
  cfg.stage2_inferred_fraction = 0.0;
  return cfg;
}

class DotOracleFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    CityConfig cc = CityConfig::ChengduLike();
    cc.grid_nodes = 8;
    cc.spacing_meters = 1300;
    city_ = new City(cc, 3);
    TripConfig tc = TripConfig::ChengduLike();
    tc.num_trips = 420;
    dataset_ = new BenchmarkDataset(BuildDataset(*city_, tc, 9, "tiny"));
    grid_ = new Grid(dataset_->MakeGrid(10).ValueOrDie());
    oracle_ = new DotOracle(TinyConfig(), *grid_);
    ASSERT_TRUE(oracle_->TrainStage1(dataset_->split.train).ok());
    ASSERT_TRUE(
        oracle_->TrainStage2(dataset_->split.train, dataset_->split.val).ok());
  }
  static void TearDownTestSuite() {
    delete oracle_;
    delete grid_;
    delete dataset_;
    delete city_;
    oracle_ = nullptr;
    grid_ = nullptr;
    dataset_ = nullptr;
    city_ = nullptr;
  }

  static City* city_;
  static BenchmarkDataset* dataset_;
  static Grid* grid_;
  static DotOracle* oracle_;
};

City* DotOracleFixture::city_ = nullptr;
BenchmarkDataset* DotOracleFixture::dataset_ = nullptr;
Grid* DotOracleFixture::grid_ = nullptr;
DotOracle* DotOracleFixture::oracle_ = nullptr;

TEST_F(DotOracleFixture, TrainingReducesNoiseLoss) {
  // After two epochs the noise MSE must be well below the untrained level
  // (predicting zero gives MSE ~1 on standard-normal noise).
  EXPECT_LT(oracle_->last_stage1_loss(), 0.8);
}

TEST_F(DotOracleFixture, EstimateReturnsFiniteSensibleValues) {
  for (size_t i = 0; i < 5; ++i) {
    Result<DotEstimate> est = oracle_->Estimate(dataset_->split.test[i].odt);
    ASSERT_TRUE(est.ok());
    EXPECT_TRUE(std::isfinite(est->minutes));
    EXPECT_GT(est->minutes, 0);
    EXPECT_LT(est->minutes, 120);
    EXPECT_EQ(est->pit.grid_size(), 10);
  }
}

TEST_F(DotOracleFixture, InferredPitIsCanonical) {
  std::vector<Pit> pits = oracle_->InferPits({dataset_->split.test[0].odt});
  ASSERT_EQ(pits.size(), 1u);
  const Pit& pit = pits[0];
  for (int64_t r = 0; r < 10; ++r) {
    for (int64_t c = 0; c < 10; ++c) {
      float m = pit.At(kPitMask, r, c);
      EXPECT_TRUE(m == 1.0f || m == -1.0f);
      for (int64_t ch = 1; ch < kPitChannels; ++ch) {
        float v = pit.At(ch, r, c);
        EXPECT_GE(v, -1.0f);
        EXPECT_LE(v, 1.0f);
        if (m < 0) EXPECT_EQ(v, -1.0f);
      }
    }
  }
}

TEST_F(DotOracleFixture, BatchedInferenceMatchesCount) {
  std::vector<OdtInput> odts;
  for (size_t i = 0; i < 7; ++i) odts.push_back(dataset_->split.test[i].odt);
  EXPECT_EQ(oracle_->InferPits(odts).size(), 7u);
}

TEST_F(DotOracleFixture, EstimateFromPitsMatchesBatchSize) {
  std::vector<Pit> pits;
  std::vector<OdtInput> odts;
  for (size_t i = 0; i < 5; ++i) {
    pits.push_back(oracle_->GroundTruthPit(dataset_->split.test[i].trajectory));
    odts.push_back(dataset_->split.test[i].odt);
  }
  std::vector<double> est = oracle_->EstimateFromPits(pits, odts);
  EXPECT_EQ(est.size(), 5u);
  for (double v : est) EXPECT_TRUE(std::isfinite(v));
}

TEST_F(DotOracleFixture, SaveLoadReproducesEstimates) {
  std::string path = ::testing::TempDir() + "/dot_ckpt.bin";
  ASSERT_TRUE(oracle_->SaveFile(path).ok());
  DotOracle loaded(TinyConfig(), *grid_);
  ASSERT_TRUE(loaded.LoadFile(path).ok());
  std::vector<Pit> pits;
  std::vector<OdtInput> odts;
  for (size_t i = 0; i < 3; ++i) {
    pits.push_back(oracle_->GroundTruthPit(dataset_->split.test[i].trajectory));
    odts.push_back(dataset_->split.test[i].odt);
  }
  std::vector<double> a = oracle_->EstimateFromPits(pits, odts);
  std::vector<double> b = loaded.EstimateFromPits(pits, odts);
  for (size_t i = 0; i < a.size(); ++i) EXPECT_DOUBLE_EQ(a[i], b[i]);
  std::remove(path.c_str());
}

TEST_F(DotOracleFixture, AdoptStage1SharesDenoiser) {
  DotConfig vit_cfg = TinyConfig();
  vit_cfg.estimator_kind = EstimatorKind::kVit;
  DotOracle vit(vit_cfg, *grid_);
  ASSERT_TRUE(vit.AdoptStage1(*oracle_).ok());
  ASSERT_TRUE(vit.TrainStage2(dataset_->split.train, dataset_->split.val).ok());
  Result<DotEstimate> est = vit.Estimate(dataset_->split.test[0].odt);
  ASSERT_TRUE(est.ok());
  EXPECT_TRUE(std::isfinite(est->minutes));
}

TEST_F(DotOracleFixture, AdoptStage1RejectsMismatchedArchitecture) {
  DotConfig other = TinyConfig();
  other.unet.base_channels = 12;
  DotOracle mismatched(other, *grid_);
  EXPECT_FALSE(mismatched.AdoptStage1(*oracle_).ok());
}

TEST_F(DotOracleFixture, ConditionAblationsZeroFeatures) {
  DotConfig cfg = TinyConfig();
  cfg.use_od_condition = false;
  DotOracle no_od(cfg, *grid_);
  auto v = no_od.EncodeCondition(dataset_->split.test[0].odt);
  EXPECT_EQ(v[0], 0.0f);
  EXPECT_EQ(v[1], 0.0f);
  EXPECT_EQ(v[2], 0.0f);
  EXPECT_EQ(v[3], 0.0f);
  EXPECT_NE(v[4], 0.0f);  // time survives

  cfg = TinyConfig();
  cfg.use_time_condition = false;
  DotOracle no_t(cfg, *grid_);
  auto w = no_t.EncodeCondition(dataset_->split.test[0].odt);
  EXPECT_EQ(w[4], 0.0f);
}

TEST_F(DotOracleFixture, UntrainedOracleRefusesQueries) {
  DotOracle fresh(TinyConfig(), *grid_);
  Result<DotEstimate> est = fresh.Estimate(dataset_->split.test[0].odt);
  EXPECT_FALSE(est.ok());
  EXPECT_TRUE(est.status().IsFailedPrecondition());
  // A path inside a directory that does not exist: even a save that got
  // past the precondition could not leave a file behind.
  EXPECT_FALSE(fresh
                   .SaveFile(::testing::TempDir() + "/dot_missing_dir_" +
                             std::to_string(::getpid()) +
                             "/should_not_exist.bin")
                   .ok());
}

TEST_F(DotOracleFixture, Stage2RequiresStage1) {
  DotOracle fresh(TinyConfig(), *grid_);
  Status s = fresh.TrainStage2(dataset_->split.train, dataset_->split.val);
  EXPECT_TRUE(s.IsFailedPrecondition());
}

TEST_F(DotOracleFixture, ParameterCountsArePositiveAndSplit) {
  EXPECT_GT(oracle_->Stage1NumParams(), 10000);
  EXPECT_GT(oracle_->Stage2NumParams(), 1000);
  EXPECT_EQ(oracle_->NumParams(),
            oracle_->Stage1NumParams() + oracle_->Stage2NumParams());
}

}  // namespace
}  // namespace dot
