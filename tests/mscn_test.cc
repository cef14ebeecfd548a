// Tests for the MSCN stack: featurization (against the reference featurizer
// in test_util), dataset batching, the model (including an end-to-end
// gradient check), and trainer convergence.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>

#include "ds/est/sample.h"
#include "ds/mscn/logger.h"
#include "ds/mscn/dataset.h"
#include "ds/mscn/featurizer.h"
#include "ds/mscn/model.h"
#include "ds/mscn/trainer.h"
#include "ds/nn/gradcheck.h"
#include "ds/sql/binder.h"
#include "ds/workload/generator.h"
#include "ds/workload/labeler.h"
#include "test_util.h"

namespace ds {
namespace {

using mscn::Dataset;
using mscn::FeatureSpace;
using mscn::MscnModel;
using mscn::ModelConfig;
using mscn::SparseBatch;
using mscn::SparseQueryFeatures;
using workload::CompareOp;

class MscnTest : public ::testing::Test {
 protected:
  MscnTest()
      : catalog_(testutil::MakeTinyCatalog()),
        samples_(est::SampleSet::Build(*catalog_, 8, 3).value()),
        space_(FeatureSpace::Create(*catalog_, {}, 8).value()) {}

  workload::QuerySpec Q(const std::string& sql) {
    return sql::ParseAndBind(*catalog_, sql).value();
  }

  // The library featurizer's rows for `spec` (bitmaps on).
  Result<SparseQueryFeatures> Featurize(const workload::QuerySpec& spec,
                                        const FeatureSpace& space) {
    mscn::FeaturizeScratch scratch;
    SparseQueryFeatures rows;
    DS_RETURN_NOT_OK(
        space.FeaturizeSparse(spec, samples_, true, &scratch, &rows));
    return rows;
  }
  SparseQueryFeatures Featurize(const workload::QuerySpec& spec) {
    return Featurize(spec, space_).value();
  }

  // The reference featurizer's rows for `spec` over the whole catalog.
  Result<testutil::ReferenceFeatures> Reference(
      const workload::QuerySpec& spec,
      const std::vector<std::string>& tables = {}) {
    return testutil::ReferenceFeaturize(*catalog_, tables, 8, samples_,
                                        true, spec);
  }

  // Featurizes `spec`, checks every set against the reference bit for bit,
  // and returns the rows densified.
  testutil::ReferenceFeatures FeaturizeChecked(
      const workload::QuerySpec& spec) {
    const SparseQueryFeatures rows = Featurize(spec);
    testutil::ReferenceFeatures dense{rows.tables.ToDense(),
                                      rows.joins.ToDense(),
                                      rows.predicates.ToDense()};
    const testutil::ReferenceFeatures want = Reference(spec).value();
    EXPECT_TRUE(testutil::BitIdentical(dense.tables, want.tables));
    EXPECT_TRUE(testutil::BitIdentical(dense.joins, want.joins));
    EXPECT_TRUE(testutil::BitIdentical(dense.predicates, want.predicates));
    return dense;
  }

  SparseBatch Pack(const std::vector<SparseQueryFeatures>& queries) {
    std::vector<const SparseQueryFeatures*> ptrs;
    for (const auto& q : queries) ptrs.push_back(&q);
    SparseBatch batch;
    mscn::PackSparseBatch(ptrs, space_, &batch);
    return batch;
  }

  std::unique_ptr<storage::Catalog> catalog_;
  est::SampleSet samples_;
  FeatureSpace space_;
};

TEST_F(MscnTest, DimensionsAreConsistent) {
  // 3 tables, 2 FK edges, 9 columns total (2 + 3 + 4).
  EXPECT_EQ(space_.table_names().size(), 3u);
  EXPECT_EQ(space_.num_joins(), 2u);
  EXPECT_EQ(space_.num_columns(), 9u);
  EXPECT_EQ(space_.table_dim(), 3u + 8u);
  EXPECT_EQ(space_.join_dim(), 2u);
  EXPECT_EQ(space_.pred_dim(), 9u + 3u + 1u);
}

TEST_F(MscnTest, FeaturizeProducesOneHotsAndBitmap) {
  auto spec = Q("SELECT COUNT(*) FROM movie m, rating r "
                "WHERE r.movie_id = m.id AND m.year > 2004");
  const auto qf = FeaturizeChecked(spec);
  ASSERT_EQ(qf.tables.dim(0), 2u);
  ASSERT_EQ(qf.joins.dim(0), 1u);
  ASSERT_EQ(qf.predicates.dim(0), 1u);
  // Table element: exactly one one-hot bit among the first 3 entries; the
  // bitmap slots carry the sample's qualifying pattern (all ones for the
  // rating element, which has no predicate).
  for (size_t i = 0; i < 2; ++i) {
    EXPECT_FLOAT_EQ(qf.tables.at(i, 0) + qf.tables.at(i, 1) +
                        qf.tables.at(i, 2),
                    1.0f);
    const auto bm = samples_.Bitmap(spec.tables[i], spec.predicates).value();
    ASSERT_EQ(bm.size(), 8u);
    for (size_t j = 0; j < bm.size(); ++j) {
      EXPECT_EQ(qf.tables.at(i, 3 + j), bm[j] ? 1.0f : 0.0f) << i << "," << j;
    }
  }
  // Join one-hot sums to 1.
  EXPECT_FLOAT_EQ(qf.joins.at(0, 0) + qf.joins.at(0, 1), 1.0f);
  // Predicate: one column bit + one op bit + normalized value in [0,1].
  float colsum = 0;
  for (size_t i = 0; i < space_.num_columns(); ++i) {
    colsum += qf.predicates.at(0, i);
  }
  EXPECT_FLOAT_EQ(colsum, 1.0f);
  float opsum = 0;
  for (size_t i = 0; i < 3; ++i) {
    opsum += qf.predicates.at(0, space_.num_columns() + i);
  }
  EXPECT_FLOAT_EQ(opsum, 1.0f);
  EXPECT_FLOAT_EQ(qf.predicates.at(0, space_.num_columns() + 2), 1.0f);  // >
  // year 2004 in [2000, 2009] -> (2004-2000)/9.
  EXPECT_NEAR(qf.predicates.at(0, space_.num_columns() + 3), 4.0 / 9.0,
              1e-5);
}

TEST_F(MscnTest, LiteralNormalizationUsesColumnRange) {
  auto qlo = FeaturizeChecked(Q("SELECT COUNT(*) FROM movie WHERE year > 2000"));
  auto qhi = FeaturizeChecked(Q("SELECT COUNT(*) FROM movie WHERE year > 2009"));
  const size_t vi = space_.num_columns() + 3;
  EXPECT_FLOAT_EQ(qlo.predicates.at(0, vi), 0.0f);
  EXPECT_FLOAT_EQ(qhi.predicates.at(0, vi), 1.0f);
  // String literals normalize their dictionary code ("g3" is code 2 of
  // 0..4 in genre.name's dictionary).
  auto qstr = FeaturizeChecked(Q("SELECT COUNT(*) FROM genre WHERE name = 'g3'"));
  EXPECT_FLOAT_EQ(qstr.predicates.at(0, vi), 0.5f);
}

TEST_F(MscnTest, UnknownStringLiteralIsNotFound) {
  auto spec = Q("SELECT COUNT(*) FROM genre WHERE name = 'g3'");
  spec.predicates[0].literal = std::string("not-a-genre");
  EXPECT_EQ(Featurize(spec, space_).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(Reference(spec).status().code(), StatusCode::kNotFound);
}

TEST_F(MscnTest, OutOfSpaceQueryRejected) {
  FeatureSpace movie_only =
      FeatureSpace::Create(*catalog_, {"movie"}, 8).value();
  auto spec = Q("SELECT COUNT(*) FROM movie m, rating r "
                "WHERE r.movie_id = m.id");
  EXPECT_FALSE(Featurize(spec, movie_only).ok());
  EXPECT_FALSE(Reference(spec, {"movie"}).ok());
  // A query inside the subset featurizes like the reference over it.
  auto inside = Q("SELECT COUNT(*) FROM movie WHERE year < 2004");
  const SparseQueryFeatures rows = Featurize(inside, movie_only).value();
  const auto want = Reference(inside, {"movie"}).value();
  EXPECT_TRUE(testutil::BitIdentical(rows.tables.ToDense(), want.tables));
  EXPECT_TRUE(
      testutil::BitIdentical(rows.predicates.ToDense(), want.predicates));
}

TEST_F(MscnTest, FeatureSpaceSerializationRoundTrip) {
  util::BinaryWriter w;
  space_.Write(&w);
  util::BinaryReader r(w.buffer());
  auto loaded = FeatureSpace::Read(&r).value();
  EXPECT_EQ(loaded.table_dim(), space_.table_dim());
  EXPECT_EQ(loaded.join_dim(), space_.join_dim());
  EXPECT_EQ(loaded.pred_dim(), space_.pred_dim());
  // Featurization identical before/after.
  auto spec = Q("SELECT COUNT(*) FROM movie WHERE year = 2003");
  auto a = Featurize(spec, space_).value();
  auto b = Featurize(spec, loaded).value();
  EXPECT_TRUE(
      testutil::BitIdentical(a.predicates.ToDense(), b.predicates.ToDense()));
  EXPECT_TRUE(testutil::BitIdentical(a.tables.ToDense(), b.tables.ToDense()));
}

TEST_F(MscnTest, BatchStoresRealRowsWithOffsets) {
  // Query 0: 1 table, 0 joins, 0 predicates; query 1: 3 tables, 2 joins,
  // 2 predicates.
  SparseBatch batch = Pack(
      {Featurize(Q("SELECT COUNT(*) FROM movie")),
       Featurize(Q("SELECT COUNT(*) FROM movie m, rating r, genre g "
                   "WHERE r.movie_id = m.id AND m.genre_id = g.id AND "
                   "m.year > 2003 AND r.votes < 50"))});
  EXPECT_EQ(batch.batch_size(), 2u);
  // Only real rows are stored: 1 + 3 tables.
  ASSERT_EQ(batch.tables.rows.rows(), 4u);
  EXPECT_EQ(batch.tables.offsets, (std::vector<uint32_t>{0, 1, 4}));
  // Query 0 has no joins and no predicates: empty ranges.
  EXPECT_EQ(batch.joins.rows.rows(), 2u);
  EXPECT_EQ(batch.joins.offsets, (std::vector<uint32_t>{0, 0, 2}));
  EXPECT_EQ(batch.predicates.rows.rows(), 2u);
  EXPECT_EQ(batch.predicates.offsets, (std::vector<uint32_t>{0, 0, 2}));
  // Each query's rows are copied unchanged, in order.
  const SparseQueryFeatures q1 =
      Featurize(Q("SELECT COUNT(*) FROM movie m, rating r, genre g "
                  "WHERE r.movie_id = m.id AND m.genre_id = g.id AND "
                  "m.year > 2003 AND r.votes < 50"));
  for (size_t j = 0; j < 3; ++j) {
    const uint32_t b = batch.tables.rows.row_offsets[1 + j];
    const uint32_t e = batch.tables.rows.row_offsets[2 + j];
    const uint32_t qb = q1.tables.row_offsets[j];
    ASSERT_EQ(e - b, q1.tables.row_offsets[j + 1] - qb);
    for (uint32_t x = 0; x < e - b; ++x) {
      EXPECT_EQ(batch.tables.rows.cols[b + x], q1.tables.cols[qb + x]);
      EXPECT_EQ(batch.tables.rows.vals[b + x], q1.tables.vals[qb + x]);
    }
  }
}

TEST_F(MscnTest, ModelForwardShapeAndRange) {
  ModelConfig config;
  config.table_dim = space_.table_dim();
  config.join_dim = space_.join_dim();
  config.pred_dim = space_.pred_dim();
  config.hidden_units = 16;
  MscnModel model(config);
  util::Pcg32 rng(1);
  model.Initialize(&rng);

  SparseBatch batch = Pack(
      {Featurize(Q("SELECT COUNT(*) FROM movie WHERE year = 2003")),
       Featurize(Q("SELECT COUNT(*) FROM movie m, rating r "
                   "WHERE r.movie_id = m.id"))});
  nn::Tensor y = model.Forward(batch);
  ASSERT_EQ(y.dim(0), 2u);
  ASSERT_EQ(y.dim(1), 1u);
  for (size_t i = 0; i < 2; ++i) {
    EXPECT_GT(y.at(i), 0.0f);
    EXPECT_LT(y.at(i), 1.0f);
  }
}

TEST_F(MscnTest, ModelInferMatchesForward) {
  ModelConfig config;
  config.table_dim = space_.table_dim();
  config.join_dim = space_.join_dim();
  config.pred_dim = space_.pred_dim();
  config.hidden_units = 16;
  MscnModel model(config);
  util::Pcg32 rng(7);
  model.Initialize(&rng);

  SparseBatch batch = Pack(
      {Featurize(Q("SELECT COUNT(*) FROM movie WHERE year = 2003")),
       Featurize(Q("SELECT COUNT(*) FROM movie m, rating r "
                   "WHERE r.movie_id = m.id"))});
  nn::Tensor trained = model.Forward(batch);
  nn::Workspace ws;
  const nn::Tensor& inferred = *model.InferSparse(batch, &ws);
  ASSERT_EQ(inferred.size(), trained.size());
  for (size_t i = 0; i < trained.size(); ++i) {
    EXPECT_FLOAT_EQ(inferred.at(i), trained.at(i)) << i;
  }
}

TEST_F(MscnTest, ModelEndToEndGradientCheck) {
  ModelConfig config;
  config.table_dim = space_.table_dim();
  config.join_dim = space_.join_dim();
  config.pred_dim = space_.pred_dim();
  config.hidden_units = 6;
  MscnModel model(config);
  util::Pcg32 rng(2);
  model.Initialize(&rng);

  SparseBatch batch = Pack(
      {Featurize(Q("SELECT COUNT(*) FROM movie m, rating r, genre g "
                   "WHERE r.movie_id = m.id AND m.genre_id = g.id AND "
                   "m.year > 2003")),
       Featurize(Q("SELECT COUNT(*) FROM genre"))});
  const std::vector<double> labels = {10, 5};

  // MSE is used for the finite-difference check because the q-error loss
  // has a kink at est == truth that breaks central differences; the q-error
  // gradient itself is checked analytically in nn_test.
  nn::LogNormalizer norm;
  norm.max_log = std::log(100.0);
  auto loss_fn = [&]() {
    nn::Tensor y = model.Forward(batch);
    nn::Tensor dy(y.shape());
    return nn::MseLoss(y, labels, norm, &dy);
  };
  // Analytic gradients.
  {
    nn::Tensor y = model.Forward(batch);
    nn::Tensor dy(y.shape());
    nn::MseLoss(y, labels, norm, &dy);
    model.Backward(dy);
  }
  // Check a subset of parameters end to end (full sweep is slow).
  auto params = model.Parameters();
  ASSERT_FALSE(params.empty());
  size_t checked = 0;
  for (nn::Parameter* p : params) {
    if (p->name.find("bias") == std::string::npos) continue;  // small ones
    auto r = nn::CheckParameterGradient(p, loss_fn, 1e-3);
    // A bias entry sitting within epsilon of a ReLU kink produces a locally
    // wrong finite difference, so the relative bound is loose; the absolute
    // bound stays tight.
    EXPECT_LT(r.max_abs_error, 5e-2) << p->name;
    EXPECT_LT(r.max_rel_error, 0.5) << p->name;
    ++checked;
  }
  EXPECT_GE(checked, 4u);
}

TEST_F(MscnTest, ModelSerializationRoundTrip) {
  ModelConfig config;
  config.table_dim = space_.table_dim();
  config.join_dim = space_.join_dim();
  config.pred_dim = space_.pred_dim();
  config.hidden_units = 8;
  MscnModel model(config);
  util::Pcg32 rng(4);
  model.Initialize(&rng);

  util::BinaryWriter w;
  model.Write(&w);
  util::BinaryReader r(w.buffer());
  auto loaded = MscnModel::Read(&r);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

  SparseBatch batch =
      Pack({Featurize(Q("SELECT COUNT(*) FROM movie WHERE year < 2005"))});
  EXPECT_FLOAT_EQ(model.Forward(batch).at(0), loaded->Forward(batch).at(0));
}

TEST_F(MscnTest, TrainerLearnsTinyWorkload) {
  // Train on 300 queries over the tiny catalog; the mean q-error on the
  // training distribution must drop substantially from its initial value.
  workload::GeneratorOptions gopts;
  gopts.seed = 5;
  gopts.max_tables = 3;
  gopts.min_predicates = 0;
  auto gen = workload::QueryGenerator::Create(catalog_.get(), gopts).value();
  auto labeled =
      workload::LabelQueries(*catalog_, nullptr, gen.GenerateMany(300))
          .value();
  Dataset ds =
      Dataset::Build(space_, samples_, labeled, /*use_bitmaps=*/true).value();

  ModelConfig config;
  config.table_dim = space_.table_dim();
  config.join_dim = space_.join_dim();
  config.pred_dim = space_.pred_dim();
  config.hidden_units = 16;
  MscnModel model(config);
  util::Pcg32 rng(6);
  model.Initialize(&rng);

  mscn::TrainerOptions topts;
  topts.epochs = 25;
  topts.batch_size = 32;
  topts.validation_fraction = 0.15;
  size_t epochs_seen = 0;
  topts.on_epoch = [&](const mscn::EpochStats& e) {
    ++epochs_seen;
    EXPECT_EQ(e.epoch, epochs_seen);
  };
  mscn::Trainer trainer(topts);
  auto report = trainer.Train(&model, ds, space_);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_EQ(report->epochs.size(), 25u);
  EXPECT_EQ(epochs_seen, 25u);
  // Training loss decreased markedly.
  EXPECT_LT(report->epochs.back().train_loss,
            0.5 * report->epochs.front().train_loss);
  // Final validation q-error is sane for this trivial schema.
  EXPECT_LT(report->epochs.back().validation_median_q, 3.0);
  // The CSV log has one row per epoch plus a header.
  std::string csv = report->ToCsv();
  EXPECT_EQ(std::count(csv.begin(), csv.end(), '\n'), 26);
}

TEST_F(MscnTest, TrainingLoggerWritesCsv) {
  std::string path = testing::TempDir() + "/ds_training_log.csv";
  {
    auto logger = mscn::TrainingLogger::Open(path);
    ASSERT_TRUE(logger.ok());
    mscn::EpochStats e;
    e.epoch = 1;
    e.train_loss = 2.5;
    e.validation_mean_q = 3.25;
    e.validation_median_q = 1.5;
    e.seconds = 0.125;
    logger->LogEpoch(e);
    e.epoch = 2;
    logger->Callback()(e);
  }
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "epoch,train_loss,val_mean_q,val_median_q,seconds");
  size_t rows = 0;
  while (std::getline(in, line)) ++rows;
  EXPECT_EQ(rows, 2u);
  std::remove(path.c_str());
}

TEST_F(MscnTest, TrainingLoggerOpenFailure) {
  EXPECT_FALSE(mscn::TrainingLogger::Open("/nonexistent/dir/log.csv").ok());
}

TEST_F(MscnTest, DescribeArchitectureCountsParameters) {
  ModelConfig config;
  config.table_dim = 10;
  config.join_dim = 4;
  config.pred_dim = 12;
  config.hidden_units = 8;
  std::string desc = mscn::DescribeArchitecture(config);
  EXPECT_NE(desc.find("table module"), std::string::npos);
  // Total must match the live model.
  MscnModel model(config);
  size_t total = model.NumParameters();
  EXPECT_NE(desc.find(std::to_string(total)), std::string::npos) << desc;
}

TEST_F(MscnTest, TrainerRejectsBadInputs) {
  ModelConfig config;
  config.table_dim = space_.table_dim();
  config.join_dim = space_.join_dim();
  config.pred_dim = space_.pred_dim();
  MscnModel model(config);
  mscn::Trainer trainer({});
  Dataset empty;
  EXPECT_FALSE(trainer.Train(&model, empty, space_).ok());
  mscn::TrainerOptions zero;
  zero.epochs = 0;
  Dataset one;
  one.features.push_back(SparseQueryFeatures{});
  one.labels.push_back(1);
  EXPECT_FALSE(mscn::Trainer(zero).Train(&model, one, space_).ok());
}

}  // namespace
}  // namespace ds
