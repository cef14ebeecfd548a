// Tests for the Deep Sketch public API: end-to-end training, SQL
// estimation, persistence, templates, and the sketch manager.

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <iterator>

#include "ds/est/truth.h"
#include "ds/nn/kernels.h"
#include "ds/sketch/deep_sketch.h"
#include "ds/sketch/manager.h"
#include "ds/sketch/template.h"
#include "ds/util/alloc.h"
#include "ds/util/stats.h"
#include "test_util.h"

namespace ds {
namespace {

using sketch::DeepSketch;
using sketch::SketchConfig;
using sketch::TemplateOptions;

// One small sketch shared by the whole suite (training is the slow part).
class SketchTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    catalog_ = testutil::MakeTinyCatalog().release();
    SketchConfig config;
    config.num_samples = 16;
    config.num_training_queries = 400;
    config.num_epochs = 20;
    config.hidden_units = 16;
    config.batch_size = 32;
    config.max_tables_per_query = 3;
    config.seed = 31;
    sketch_ = new DeepSketch(DeepSketch::Train(*catalog_, config).value());
  }

  static void TearDownTestSuite() {
    delete sketch_;
    delete catalog_;
    sketch_ = nullptr;
    catalog_ = nullptr;
  }

  static storage::Catalog* catalog_;
  static DeepSketch* sketch_;
};

storage::Catalog* SketchTest::catalog_ = nullptr;
DeepSketch* SketchTest::sketch_ = nullptr;

TEST_F(SketchTest, EstimatesAreFiniteAndPositive) {
  const char* sqls[] = {
      "SELECT COUNT(*) FROM movie",
      "SELECT COUNT(*) FROM movie WHERE year = 2003",
      "SELECT COUNT(*) FROM movie m, rating r WHERE r.movie_id = m.id",
      "SELECT COUNT(*) FROM movie m, rating r, genre g "
      "WHERE r.movie_id = m.id AND m.genre_id = g.id AND g.name = 'g2'",
  };
  for (const char* sql : sqls) {
    auto est = sketch_->EstimateSql(sql);
    ASSERT_TRUE(est.ok()) << sql << ": " << est.status().ToString();
    EXPECT_GE(*est, 1.0) << sql;
    EXPECT_LT(*est, 1e7) << sql;
  }
}

TEST_F(SketchTest, LearnsTheTinyDistribution) {
  // Aggregate accuracy on in-distribution queries: mean q-error clearly
  // better than a constant guess.
  est::TrueCardinality truth(catalog_);
  const char* sqls[] = {
      "SELECT COUNT(*) FROM movie",
      "SELECT COUNT(*) FROM rating",
      "SELECT COUNT(*) FROM movie WHERE year > 2004",
      "SELECT COUNT(*) FROM movie m, rating r WHERE r.movie_id = m.id",
      "SELECT COUNT(*) FROM movie WHERE genre_id = 2",
      "SELECT COUNT(*) FROM rating WHERE votes > 50",
  };
  std::vector<double> q;
  for (const char* sql : sqls) {
    auto spec = sql::ParseAndBind(*catalog_, sql).value();
    double t = truth.EstimateCardinality(spec).value();
    double e = sketch_->EstimateSql(sql).value();
    q.push_back(util::QError(t, e));
  }
  EXPECT_LT(util::Mean(q), 4.0);
}

TEST_F(SketchTest, UnknownCategoricalStringEstimatesMinimum) {
  auto est = sketch_->EstimateSql(
      "SELECT COUNT(*) FROM genre WHERE name = 'definitely-not-a-genre'");
  ASSERT_TRUE(est.ok());
  EXPECT_DOUBLE_EQ(*est, 1.0);
}

TEST_F(SketchTest, RejectsUnparseableAndUnboundSql) {
  EXPECT_FALSE(sketch_->EstimateSql("SELECT * FROM movie").ok());
  EXPECT_FALSE(sketch_->EstimateSql("SELECT COUNT(*) FROM nope").ok());
  EXPECT_FALSE(
      sketch_->EstimateSql("SELECT COUNT(*) FROM movie WHERE year = ?").ok());
}

TEST_F(SketchTest, EstimatorInterface) {
  EXPECT_EQ(sketch_->name(), "Deep Sketch");
  auto spec = sql::ParseAndBind(*catalog_, "SELECT COUNT(*) FROM movie").value();
  EXPECT_TRUE(sketch_->EstimateCardinality(spec).ok());
}

TEST_F(SketchTest, SaveLoadPreservesEstimates) {
  std::string path = testing::TempDir() + "/ds_sketch_test.sketch";
  ASSERT_TRUE(sketch_->Save(path).ok());
  auto loaded = DeepSketch::Load(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const char* sqls[] = {
      "SELECT COUNT(*) FROM movie WHERE year = 2003",
      "SELECT COUNT(*) FROM movie m, rating r WHERE r.movie_id = m.id "
      "AND r.score < 2.5",
      "SELECT COUNT(*) FROM genre WHERE name = 'g4'",
  };
  for (const char* sql : sqls) {
    EXPECT_DOUBLE_EQ(sketch_->EstimateSql(sql).value(),
                     loaded->EstimateSql(sql).value())
        << sql;
  }
  EXPECT_EQ(loaded->tables().size(), 3u);
  EXPECT_EQ(loaded->SerializedSize(), sketch_->SerializedSize());
  std::remove(path.c_str());
}

TEST_F(SketchTest, LoadRejectsCorruptFiles) {
  std::string path = testing::TempDir() + "/ds_corrupt.sketch";
  util::BinaryWriter w;
  w.WriteU32(0x12345678);
  ASSERT_TRUE(w.WriteToFile(path).ok());
  EXPECT_FALSE(DeepSketch::Load(path).ok());
  // Truncated real sketch.
  util::BinaryWriter full;
  sketch_->Write(&full);
  std::vector<uint8_t> cut(full.buffer().begin(),
                           full.buffer().begin() + full.size() / 2);
  util::BinaryReader r(std::move(cut));
  EXPECT_FALSE(DeepSketch::Read(&r).ok());
  std::remove(path.c_str());
}

TEST_F(SketchTest, SerializedSizeDominatedBySamples) {
  // The footprint claim (§1): samples dominate, the model is small.
  size_t total = sketch_->SerializedSize();
  EXPECT_GT(total, 1000u);
  EXPECT_LT(total, 10u * 1024 * 1024);
}

TEST_F(SketchTest, TrainRejectsBadConfig) {
  SketchConfig config;
  config.num_training_queries = 0;
  EXPECT_FALSE(DeepSketch::Train(*catalog_, config).ok());
  SketchConfig bad_table;
  bad_table.tables = {"nope"};
  bad_table.num_training_queries = 10;
  EXPECT_FALSE(DeepSketch::Train(*catalog_, bad_table).ok());
}

TEST_F(SketchTest, EstimateManyMatchesSingleEstimates) {
  std::vector<workload::QuerySpec> specs;
  for (const char* sql :
       {"SELECT COUNT(*) FROM movie WHERE year = 2003",
        "SELECT COUNT(*) FROM movie m, rating r WHERE r.movie_id = m.id",
        "SELECT COUNT(*) FROM genre WHERE name = 'g1'"}) {
    specs.push_back(sql::ParseAndBind(*catalog_, sql).value());
  }
  // One spec with an unknown literal lands the minimum estimate.
  auto unknown = sql::ParseAndBind(
      *catalog_, "SELECT COUNT(*) FROM genre WHERE name = 'zzz'").value();
  specs.push_back(unknown);

  auto batch = sketch_->EstimateMany(specs);
  ASSERT_EQ(batch.size(), specs.size());
  for (size_t i = 0; i + 1 < specs.size(); ++i) {
    ASSERT_TRUE(batch[i].ok()) << batch[i].status().ToString();
    double single = sketch_->EstimateCardinality(specs[i]).value();
    EXPECT_DOUBLE_EQ(*batch[i], single) << i;
  }
  ASSERT_TRUE(batch.back().ok());
  EXPECT_DOUBLE_EQ(*batch.back(), 1.0);
}

TEST_F(SketchTest, EstimateManyBadSpecFailsOnlyItsSlot) {
  std::vector<workload::QuerySpec> specs;
  specs.push_back(sql::ParseAndBind(
      *catalog_, "SELECT COUNT(*) FROM movie WHERE year = 2003").value());
  // A string literal on a numeric column cannot featurize; it must fail its
  // own slot without poisoning the healthy queries next to it.
  workload::QuerySpec bogus;
  bogus.tables = {"movie"};
  bogus.predicates.push_back(
      {"movie", "year", workload::CompareOp::kEq, std::string("oops")});
  specs.push_back(bogus);
  specs.push_back(sql::ParseAndBind(
      *catalog_, "SELECT COUNT(*) FROM genre WHERE name = 'g1'").value());

  auto batch = sketch_->EstimateMany(specs);
  ASSERT_EQ(batch.size(), 3u);
  EXPECT_TRUE(batch[0].ok());
  EXPECT_FALSE(batch[1].ok());
  EXPECT_TRUE(batch[2].ok());
  EXPECT_NEAR(*batch[0],
              sketch_->EstimateCardinality(specs[0]).value(), 1e-6);
  EXPECT_NEAR(*batch[2],
              sketch_->EstimateCardinality(specs[2]).value(), 1e-6);
}

TEST_F(SketchTest, EstimateManyEmptyInput) {
  EXPECT_TRUE(sketch_->EstimateMany({}).empty());
}

TEST_F(SketchTest, WarmEstimateManyIntoAllocatesNothing) {
  if (!util::AllocCountingAvailable()) {
    GTEST_SKIP() << "allocation counting disabled under sanitizers";
  }
  const char* sqls[] = {
      "SELECT COUNT(*) FROM movie WHERE year = 2003",
      "SELECT COUNT(*) FROM movie m, rating r WHERE r.movie_id = m.id "
      "AND r.score > 1.5",
      "SELECT COUNT(*) FROM genre WHERE name = 'g1'",
      "SELECT COUNT(*) FROM movie m, rating r, genre g "
      "WHERE r.movie_id = m.id AND m.genre_id = g.id AND g.name = 'g2'",
  };
  for (size_t batch : {1u, 16u}) {
    SCOPED_TRACE(batch);
    std::vector<workload::QuerySpec> specs;
    for (size_t i = 0; i < batch; ++i) {
      specs.push_back(
          sql::ParseAndBind(*catalog_, sqls[i % std::size(sqls)]).value());
    }
    std::vector<Result<double>> out;
    sketch_->EstimateManyInto(specs, &out);  // warm-up: scratch may grow
    const uint64_t before = util::AllocCount();
    sketch_->EstimateManyInto(specs, &out);
    EXPECT_EQ(util::AllocCount(), before);
    ASSERT_EQ(out.size(), batch);
    for (const Result<double>& r : out) EXPECT_TRUE(r.ok());
  }
}

// ---- Templates --------------------------------------------------------------

int64_t YearOf(const sketch::TemplateInstance& inst) {
  return std::get<int64_t>(inst.spec.predicates[0].literal);
}

TEST_F(SketchTest, DistinctTemplateInstantiation) {
  auto bound = sketch_->BindSql(
      "SELECT COUNT(*) FROM movie m, rating r "
      "WHERE r.movie_id = m.id AND m.year = ?");
  ASSERT_TRUE(bound.ok()) << bound.status().ToString();
  auto instances =
      sketch::InstantiateTemplate(*bound, sketch_->samples()).value();
  ASSERT_GE(instances.size(), 3u);
  ASSERT_LE(instances.size(), 10u);  // at most 10 distinct years
  for (const auto& inst : instances) {
    // Each instance is a complete query with the placeholder filled.
    EXPECT_EQ(inst.spec.predicates.size(), 1u);
    EXPECT_EQ(inst.spec.predicates[0].column, "year");
    EXPECT_FALSE(inst.label.empty());
    EXPECT_TRUE(sketch_->EstimateCardinality(inst.spec).ok());
  }
  // Values ascend (sorted domain).
  EXPECT_LT(YearOf(instances.front()), YearOf(instances.back()));
}

TEST_F(SketchTest, TemplateMaxInstancesCap) {
  auto bound = sketch_->BindSql("SELECT COUNT(*) FROM movie WHERE year = ?");
  ASSERT_TRUE(bound.ok());
  TemplateOptions opts;
  opts.max_instances = 3;
  auto instances =
      sketch::InstantiateTemplate(*bound, sketch_->samples(), opts).value();
  EXPECT_LE(instances.size(), 3u);
}

TEST_F(SketchTest, BucketTemplateInstantiation) {
  auto bound = sketch_->BindSql("SELECT COUNT(*) FROM rating WHERE votes = ?");
  ASSERT_TRUE(bound.ok());
  TemplateOptions opts;
  opts.grouping = TemplateOptions::Grouping::kBuckets;
  opts.num_buckets = 4;
  auto instances =
      sketch::InstantiateTemplate(*bound, sketch_->samples(), opts).value();
  ASSERT_GE(instances.size(), 2u);
  for (const auto& inst : instances) {
    // Bucket instances are two-sided ranges.
    ASSERT_EQ(inst.spec.predicates.size(), 2u);
    EXPECT_EQ(inst.spec.predicates[0].op, workload::CompareOp::kGt);
    EXPECT_EQ(inst.spec.predicates[1].op, workload::CompareOp::kLt);
  }
}

TEST_F(SketchTest, TemplateErrors) {
  // No placeholder.
  auto no_ph = sketch_->BindSql("SELECT COUNT(*) FROM movie WHERE year = 3");
  ASSERT_TRUE(no_ph.ok());
  EXPECT_FALSE(sketch::InstantiateTemplate(*no_ph, sketch_->samples()).ok());
  // Bucket grouping on a categorical placeholder.
  auto cat = sketch_->BindSql("SELECT COUNT(*) FROM genre WHERE name = ?");
  ASSERT_TRUE(cat.ok());
  TemplateOptions opts;
  opts.grouping = TemplateOptions::Grouping::kBuckets;
  EXPECT_FALSE(
      sketch::InstantiateTemplate(*cat, sketch_->samples(), opts).ok());
}

// ---- Manager -------------------------------------------------------------------

TEST(SketchManagerTest, CreateListGetDrop) {
  auto catalog = testutil::MakeTinyCatalog();
  std::string dir = testing::TempDir() + "/ds_manager_test";
  std::filesystem::create_directories(dir);
  sketch::SketchManager manager(catalog.get(), dir);

  SketchConfig config;
  config.num_samples = 8;
  config.num_training_queries = 100;
  config.num_epochs = 4;
  config.hidden_units = 8;
  config.max_tables_per_query = 2;

  ASSERT_TRUE(manager.CreateSketch("tiny", config).ok());
  EXPECT_FALSE(manager.CreateSketch("tiny", config).ok());  // duplicate
  EXPECT_FALSE(manager.CreateSketch("bad/name", config).ok());

  auto names = manager.ListSketches();
  ASSERT_EQ(names.size(), 1u);
  EXPECT_EQ(names[0], "tiny");

  auto est = manager.Estimate("tiny", "SELECT COUNT(*) FROM movie");
  ASSERT_TRUE(est.ok()) << est.status().ToString();
  EXPECT_GE(*est, 1.0);

  // A second manager sees the persisted sketch (pre-built models, §3).
  sketch::SketchManager other(catalog.get(), dir);
  EXPECT_EQ(other.ListSketches().size(), 1u);
  EXPECT_TRUE(other.Estimate("tiny", "SELECT COUNT(*) FROM genre").ok());

  EXPECT_TRUE(manager.DropSketch("tiny").ok());
  EXPECT_FALSE(manager.GetSketch("tiny").ok());
  std::filesystem::remove_all(dir);
}

// ---- Training digests ------------------------------------------------------------

// FNV-1a 64 over a byte buffer.
uint64_t Fnv1a(const std::vector<uint8_t>& bytes) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (uint8_t b : bytes) {
    h ^= b;
    h *= 0x100000001b3ULL;
  }
  return h;
}

// golden_test pins the estimates of pre-trained fixtures, so only this test
// catches a change to training itself (featurization, batching, gradients,
// the optimizer). It trains small sketches of the tiny catalog with fixed
// seeds and checks a digest of their Save() bytes against constants
// recorded before training moved from dense feature batches to the CSR rows
// the serving path featurizes. DotRow reassociates its reduction per tier,
// so every tier has its own digests; the generic tier is always checked.
TEST(TrainingDigestTest, SavedBytesMatchRecordedDigests) {
  struct Variant {
    size_t threads;
    bool bitmaps;
    mscn::LossKind loss;
    uint64_t generic_digest;
    uint64_t avx2_digest;
  };
  const Variant variants[] = {
      {1, true, mscn::LossKind::kQError, 0x1057b85b44fa71f4ULL,
       0x31f03a57daa2af25ULL},
      {2, true, mscn::LossKind::kQError, 0xf2cd88699166d8fcULL,
       0x8cdbc9173559b5d1ULL},
      {1, false, mscn::LossKind::kQError, 0x7d56807ef2a03e7bULL,
       0xde17d7760942c879ULL},
      {2, false, mscn::LossKind::kQError, 0x7bdf8f2186a8f10eULL,
       0xb5efee6628f6a26dULL},
      {3, true, mscn::LossKind::kMse, 0x91d5d2871504ef0cULL,
       0x7619069d3dc53b39ULL},
  };
  auto catalog = testutil::MakeTinyCatalog();
  const nn::KernelTier restore = nn::ActiveKernelTier();
  for (nn::KernelTier tier : nn::AvailableKernelTiers()) {
    ASSERT_TRUE(nn::SetKernelTier(tier));
    for (const Variant& v : variants) {
      SCOPED_TRACE(std::string(nn::KernelTierName(tier)) +
                   " threads=" + std::to_string(v.threads) +
                   " bitmaps=" + std::to_string(v.bitmaps) +
                   " loss=" + std::to_string(static_cast<int>(v.loss)));
      SketchConfig config;
      config.num_samples = 16;
      config.num_training_queries = 300;
      config.num_epochs = 4;
      config.hidden_units = 16;
      config.batch_size = 32;
      config.max_tables_per_query = 3;
      config.use_sample_bitmaps = v.bitmaps;
      config.training_threads = v.threads;
      config.loss = v.loss;
      config.seed = 17;
      auto trained = DeepSketch::Train(*catalog, config);
      ASSERT_TRUE(trained.ok()) << trained.status().ToString();
      util::BinaryWriter w;
      trained->Write(&w);
      char digest[32];
      std::snprintf(digest, sizeof(digest), "0x%016llxULL",
                    static_cast<unsigned long long>(Fnv1a(w.buffer())));
      const uint64_t want = tier == nn::KernelTier::kGeneric
                                ? v.generic_digest
                                : v.avx2_digest;
      EXPECT_EQ(Fnv1a(w.buffer()), want) << "digest " << digest;
    }
  }
  ASSERT_TRUE(nn::SetKernelTier(restore));
}

}  // namespace
}  // namespace ds
