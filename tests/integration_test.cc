// Cross-module integration tests: the full Figure-1 pipeline on the
// synthetic IMDb at small scale, estimator comparisons on a labeled
// workload, and property sweeps across the whole stack.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <set>

#include "ds/datagen/imdb.h"
#include "ds/datagen/tpch.h"
#include "ds/est/hyper.h"
#include "ds/est/postgres.h"
#include "ds/est/truth.h"
#include "ds/exec/executor.h"
#include "ds/sketch/deep_sketch.h"
#include "ds/sketch/template.h"
#include "ds/util/stats.h"
#include "ds/workload/generator.h"
#include "ds/workload/io.h"
#include "ds/workload/joblight.h"
#include "ds/workload/labeler.h"

namespace ds {
namespace {

// Shared small IMDb + trained sketch for the whole suite.
class ImdbPipelineTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    datagen::ImdbOptions imdb;
    imdb.num_titles = 3'000;
    imdb.seed = 77;
    db_ = datagen::GenerateImdb(imdb).value().release();

    sketch::SketchConfig config;
    config.tables = {"title", "movie_keyword", "keyword", "cast_info"};
    config.num_samples = 64;
    config.num_training_queries = 1'500;
    config.num_epochs = 15;
    config.hidden_units = 32;
    config.seed = 78;
    sketch_ = new sketch::DeepSketch(
        sketch::DeepSketch::Train(*db_, config).value());
  }

  static void TearDownTestSuite() {
    delete sketch_;
    delete db_;
    sketch_ = nullptr;
    db_ = nullptr;
  }

  static storage::Catalog* db_;
  static sketch::DeepSketch* sketch_;
};

storage::Catalog* ImdbPipelineTest::db_ = nullptr;
sketch::DeepSketch* ImdbPipelineTest::sketch_ = nullptr;

TEST_F(ImdbPipelineTest, SketchBeatsConstantGuessInDistribution) {
  workload::GeneratorOptions gen_opts;
  gen_opts.tables = {"title", "movie_keyword", "keyword", "cast_info"};
  gen_opts.max_tables = 4;
  gen_opts.seed = 999;  // held out from training
  auto gen = workload::QueryGenerator::Create(db_, gen_opts).value();
  exec::Executor executor(db_);

  std::vector<double> q_sketch, q_const;
  for (const auto& spec : gen.GenerateMany(120)) {
    auto truth = executor.Count(spec);
    ASSERT_TRUE(truth.ok());
    auto est = sketch_->EstimateCardinality(spec);
    ASSERT_TRUE(est.ok()) << spec.ToSql();
    q_sketch.push_back(util::QError(static_cast<double>(*truth), *est));
    q_const.push_back(util::QError(static_cast<double>(*truth), 1000.0));
  }
  EXPECT_LT(util::Mean(q_sketch), 0.5 * util::Mean(q_const));
  EXPECT_LT(util::Median(q_sketch), 6.0);
}

TEST_F(ImdbPipelineTest, AllEstimatorsProduceSaneValuesOnJobLight) {
  // Restrict JOB-light to the sketch's table subset via the generator on
  // the full schema; just check every estimator returns >= 1 and is finite.
  workload::JobLightOptions jl;
  jl.num_queries = 15;
  jl.seed = 1234;
  auto workload = workload::MakeJobLight(*db_, jl).value();
  est::PostgresEstimator postgres(db_);
  auto samples = est::SampleSet::Build(*db_, 64, 5).value();
  est::HyperEstimator hyper(db_, &samples);
  for (const auto& spec : workload) {
    for (const est::CardinalityEstimator* e :
         std::initializer_list<const est::CardinalityEstimator*>{&postgres,
                                                                 &hyper}) {
      auto est = e->EstimateCardinality(spec);
      ASSERT_TRUE(est.ok()) << e->name() << ": " << spec.ToSql();
      EXPECT_GE(*est, 1.0);
      EXPECT_TRUE(std::isfinite(*est));
    }
  }
}

TEST_F(ImdbPipelineTest, EstimatesAreDeterministic) {
  const char* sql =
      "SELECT COUNT(*) FROM title t, movie_keyword mk "
      "WHERE mk.movie_id = t.id AND t.production_year > 2000";
  double first = sketch_->EstimateSql(sql).value();
  for (int i = 0; i < 5; ++i) {
    EXPECT_DOUBLE_EQ(sketch_->EstimateSql(sql).value(), first);
  }
}

TEST_F(ImdbPipelineTest, TemplateInstancesCoverSampledDomain) {
  auto bound = sketch_->BindSql(
      "SELECT COUNT(*) FROM title t, movie_keyword mk "
      "WHERE mk.movie_id = t.id AND t.production_year = ?");
  ASSERT_TRUE(bound.ok());
  sketch::TemplateOptions opts;
  opts.max_instances = 1000;  // no cap in practice
  auto instances =
      sketch::InstantiateTemplate(*bound, sketch_->samples(), opts).value();
  // Every sampled distinct year appears exactly once.
  const est::TableSample* ts = sketch_->samples().Get("title").value();
  const storage::Column* year = ts->rows->GetColumn("production_year").value();
  std::set<int64_t> sampled;
  for (size_t r = 0; r < year->size(); ++r) {
    if (!year->IsNull(r)) sampled.insert(year->GetInt(r));
  }
  EXPECT_EQ(instances.size(), sampled.size());
}

TEST_F(ImdbPipelineTest, WorkloadRoundTripThenTrainAgain) {
  // Label, persist, reload, and train a second sketch from the cached
  // workload — the "train new models while querying existing ones" flow.
  auto samples = est::SampleSet::Build(*db_, 64, 5).value();
  workload::GeneratorOptions gen_opts;
  gen_opts.tables = {"title", "movie_keyword"};
  gen_opts.max_tables = 2;
  gen_opts.seed = 444;
  auto gen = workload::QueryGenerator::Create(db_, gen_opts).value();
  auto labeled =
      workload::LabelQueries(*db_, &samples, gen.GenerateMany(300)).value();
  std::string path = testing::TempDir() + "/ds_integration_workload.bin";
  ASSERT_TRUE(workload::SaveWorkload(labeled, path).ok());
  auto reloaded = workload::LoadWorkload(path).value();

  sketch::SketchConfig config;
  config.tables = {"title", "movie_keyword"};
  config.num_samples = 64;
  config.num_epochs = 5;
  config.hidden_units = 16;
  config.seed = 5;
  auto second = sketch::DeepSketch::TrainOnWorkload(
      *db_, config, std::move(samples), reloaded);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_TRUE(second
                  ->EstimateSql("SELECT COUNT(*) FROM title "
                                "WHERE production_year > 1990")
                  .ok());
  std::remove(path.c_str());
}

// ---- Property sweep over both schemas ------------------------------------------

struct SchemaCase {
  const char* name;
  bool imdb;
};

class CrossSchemaTest : public ::testing::TestWithParam<bool> {};

TEST_P(CrossSchemaTest, ExecutorAgreesWithHyperOnFullSamples) {
  // With samples as large as the tables, the HyPer estimate of single-table
  // queries equals the exact count.
  std::unique_ptr<storage::Catalog> db;
  if (GetParam()) {
    datagen::ImdbOptions opts;
    opts.num_titles = 800;
    db = datagen::GenerateImdb(opts).value();
  } else {
    datagen::TpchOptions opts;
    opts.num_customers = 200;
    db = datagen::GenerateTpch(opts).value();
  }
  auto samples = est::SampleSet::Build(*db, 1 << 20, 9).value();
  est::HyperEstimator hyper(db.get(), &samples);
  exec::Executor executor(db.get());

  workload::GeneratorOptions gen_opts;
  gen_opts.max_tables = 1;
  gen_opts.seed = 31337;
  auto gen = workload::QueryGenerator::Create(db.get(), gen_opts).value();
  for (const auto& spec : gen.GenerateMany(60)) {
    uint64_t truth = executor.Count(spec).value();
    double est = hyper.EstimateCardinality(spec).value();
    if (truth == 0) {
      // A 0-tuple situation even on a full sample: the estimator cannot
      // know the sample is exhaustive and falls back to its educated guess,
      // which never reports "empty".
      EXPECT_GE(est, 1.0) << spec.ToSql();
      EXPECT_TRUE(std::isfinite(est));
    } else {
      EXPECT_NEAR(est, static_cast<double>(truth),
                  0.01 * static_cast<double>(truth) + 1.0)
          << spec.ToSql();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Schemas, CrossSchemaTest,
                         ::testing::Values(true, false));

}  // namespace
}  // namespace ds
