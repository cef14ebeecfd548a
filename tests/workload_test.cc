// Tests for workload generation, JOB-light, labeling, and workload I/O.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <set>

#include "ds/datagen/imdb.h"
#include "ds/exec/executor.h"
#include "ds/workload/generator.h"
#include "ds/workload/io.h"
#include "ds/workload/joblight.h"
#include "ds/workload/labeler.h"
#include "test_util.h"

namespace ds {
namespace {

using workload::CompareOp;
using workload::GeneratorOptions;
using workload::LabeledQuery;
using workload::QueryGenerator;
using workload::QuerySpec;

// ---- QuerySpec ------------------------------------------------------------

TEST(QuerySpecTest, ToSqlRendersAllClauses) {
  QuerySpec spec;
  spec.tables = {"movie", "rating"};
  spec.joins = {{"rating", "movie_id", "movie", "id"}};
  spec.predicates = {{"movie", "year", CompareOp::kGt, int64_t{2000}},
                     {"movie", "name", CompareOp::kEq, std::string("it's")}};
  EXPECT_EQ(spec.ToSql(),
            "SELECT COUNT(*) FROM movie, rating WHERE "
            "rating.movie_id=movie.id AND movie.year>2000 AND "
            "movie.name='it''s';");
}

TEST(QuerySpecTest, ValidateCatchesProblems) {
  auto catalog = testutil::MakeTinyCatalog();
  QuerySpec ok;
  ok.tables = {"movie"};
  EXPECT_TRUE(ok.Validate(*catalog).ok());

  QuerySpec dup = ok;
  dup.tables = {"movie", "movie"};
  EXPECT_FALSE(dup.Validate(*catalog).ok());

  QuerySpec cross;
  cross.tables = {"movie", "genre"};
  EXPECT_FALSE(cross.Validate(*catalog).ok());  // disconnected

  QuerySpec bad_join;
  bad_join.tables = {"movie", "genre"};
  bad_join.joins = {{"movie", "nope", "genre", "id"}};
  EXPECT_FALSE(bad_join.Validate(*catalog).ok());

  QuerySpec stray_pred;
  stray_pred.tables = {"movie"};
  stray_pred.predicates = {{"rating", "score", CompareOp::kGt, 1.0}};
  EXPECT_FALSE(stray_pred.Validate(*catalog).ok());
}

TEST(QuerySpecTest, JoinEdgeSameEdgeIsDirectionless) {
  workload::JoinEdge a{"t", "x", "u", "y"};
  workload::JoinEdge b{"u", "y", "t", "x"};
  workload::JoinEdge c{"t", "x", "u", "z"};
  EXPECT_TRUE(a.SameEdge(b));
  EXPECT_FALSE(a.SameEdge(c));
}

// ---- Generator -------------------------------------------------------------

class GeneratorTest : public ::testing::Test {
 protected:
  GeneratorTest() : catalog_(testutil::MakeTinyCatalog()) {}
  std::unique_ptr<storage::Catalog> catalog_;
};

TEST_F(GeneratorTest, AllGeneratedQueriesAreValid) {
  GeneratorOptions opts;
  opts.seed = 5;
  opts.max_tables = 3;
  auto gen = QueryGenerator::Create(catalog_.get(), opts).value();
  for (const auto& spec : gen.GenerateMany(200)) {
    EXPECT_TRUE(spec.Validate(*catalog_).ok()) << spec.ToSql();
  }
}

TEST_F(GeneratorTest, RespectsTableSubset) {
  GeneratorOptions opts;
  opts.tables = {"movie", "genre"};
  opts.max_tables = 2;
  auto gen = QueryGenerator::Create(catalog_.get(), opts).value();
  for (const auto& spec : gen.GenerateMany(100)) {
    for (const auto& t : spec.tables) {
      EXPECT_TRUE(t == "movie" || t == "genre") << t;
    }
  }
}

TEST_F(GeneratorTest, PredicateCountsInRange) {
  GeneratorOptions opts;
  opts.min_predicates = 1;
  opts.max_predicates = 2;
  auto gen = QueryGenerator::Create(catalog_.get(), opts).value();
  for (const auto& spec : gen.GenerateMany(100)) {
    EXPECT_GE(spec.predicates.size(), 1u);
    EXPECT_LE(spec.predicates.size(), 2u);
    // At most one predicate per column.
    std::set<std::string> cols;
    for (const auto& p : spec.predicates) {
      EXPECT_TRUE(cols.insert(p.table + "." + p.column).second);
    }
  }
}

TEST_F(GeneratorTest, PrimaryKeysAreNotPredicateColumns) {
  GeneratorOptions opts;
  auto gen = QueryGenerator::Create(catalog_.get(), opts).value();
  const auto& movie_cols = gen.PredicateColumns("movie");
  EXPECT_EQ(std::count(movie_cols.begin(), movie_cols.end(), "id"), 0);
  for (const auto& spec : gen.GenerateMany(200)) {
    for (const auto& p : spec.predicates) {
      EXPECT_NE(p.column, "id");
    }
  }
}

TEST_F(GeneratorTest, CategoricalPredicatesAreEquality) {
  GeneratorOptions opts;
  opts.seed = 11;
  auto gen = QueryGenerator::Create(catalog_.get(), opts).value();
  for (const auto& spec : gen.GenerateMany(300)) {
    for (const auto& p : spec.predicates) {
      if (std::holds_alternative<std::string>(p.literal)) {
        EXPECT_EQ(p.op, CompareOp::kEq) << p.ToString();
      }
    }
  }
}

TEST_F(GeneratorTest, OpsRoughlyUniformOnNumericColumns) {
  GeneratorOptions opts;
  opts.seed = 13;
  auto gen = QueryGenerator::Create(catalog_.get(), opts).value();
  size_t counts[3] = {0, 0, 0};
  for (const auto& spec : gen.GenerateMany(600)) {
    for (const auto& p : spec.predicates) {
      if (!std::holds_alternative<std::string>(p.literal)) {
        counts[static_cast<size_t>(p.op)]++;
      }
    }
  }
  const double total = static_cast<double>(counts[0] + counts[1] + counts[2]);
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_NEAR(static_cast<double>(counts[i]) / total, 1.0 / 3.0, 0.08);
  }
}

TEST_F(GeneratorTest, DeterministicForSeed) {
  GeneratorOptions opts;
  opts.seed = 21;
  auto a = QueryGenerator::Create(catalog_.get(), opts).value();
  auto b = QueryGenerator::Create(catalog_.get(), opts).value();
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(a.Generate().ToCompactString(), b.Generate().ToCompactString());
  }
}

TEST_F(GeneratorTest, RejectsBadOptions) {
  GeneratorOptions opts;
  opts.min_tables = 0;
  EXPECT_FALSE(QueryGenerator::Create(catalog_.get(), opts).ok());
  opts = {};
  opts.min_predicates = 5;
  opts.max_predicates = 2;
  EXPECT_FALSE(QueryGenerator::Create(catalog_.get(), opts).ok());
  opts = {};
  opts.tables = {"nope"};
  EXPECT_FALSE(QueryGenerator::Create(catalog_.get(), opts).ok());
}

// ---- JOB-light ---------------------------------------------------------------

TEST(JobLightTest, ShapeConstraintsHold) {
  datagen::ImdbOptions imdb;
  imdb.num_titles = 3000;
  auto catalog = datagen::GenerateImdb(imdb).value();
  workload::JobLightOptions opts;
  opts.num_queries = 40;
  auto queries = workload::MakeJobLight(*catalog, opts).value();
  ASSERT_EQ(queries.size(), 40u);
}

TEST(JobLightTest, EveryQueryMatchesThePaperShape) {
  datagen::ImdbOptions imdb;
  imdb.num_titles = 3000;
  auto catalog = datagen::GenerateImdb(imdb).value();
  workload::JobLightOptions opts;
  opts.num_queries = 50;
  auto queries = workload::MakeJobLight(*catalog, opts).value();
  exec::Executor executor(catalog.get());
  for (const auto& spec : queries) {
    // 1-4 joins, all to title.
    EXPECT_GE(spec.joins.size(), 1u);
    EXPECT_LE(spec.joins.size(), 4u);
    EXPECT_TRUE(spec.HasTable("title"));
    for (const auto& j : spec.joins) {
      EXPECT_EQ(j.right_table, "title");
      EXPECT_EQ(j.right_column, "id");
    }
    // Only production_year gets range predicates; everything else equality.
    EXPECT_FALSE(spec.predicates.empty());
    for (const auto& p : spec.predicates) {
      if (p.op != CompareOp::kEq) {
        EXPECT_EQ(p.column, "production_year");
      }
      // No string predicates in JOB-light.
      EXPECT_FALSE(std::holds_alternative<std::string>(p.literal));
    }
    // Non-degenerate: result is non-empty.
    EXPECT_GE(executor.Count(spec).value(), 1u);
  }
}

TEST(JobLightTest, RequiresImdbSchema) {
  auto tiny = testutil::MakeTinyCatalog();
  EXPECT_FALSE(workload::MakeJobLight(*tiny).ok());
}

// ---- Labeler -----------------------------------------------------------------

TEST(LabelerTest, LabelsMatchExecutorAndBitmapsMatchSamples) {
  auto catalog = testutil::MakeTinyCatalog();
  auto samples = est::SampleSet::Build(*catalog, 10, 3).value();
  GeneratorOptions opts;
  opts.seed = 33;
  opts.max_tables = 3;
  auto gen = QueryGenerator::Create(catalog.get(), opts).value();
  auto queries = gen.GenerateMany(30);
  workload::LabelerOptions lo;
  size_t calls = 0;
  lo.progress = [&](size_t done, size_t total) {
    ++calls;
    EXPECT_LE(done, total);
  };
  auto labeled = workload::LabelQueries(*catalog, &samples, queries, lo).value();
  ASSERT_EQ(labeled.size(), 30u);
  EXPECT_EQ(calls, 30u);
  exec::Executor executor(catalog.get());
  for (const auto& lq : labeled) {
    EXPECT_EQ(lq.cardinality, executor.Count(lq.spec).value());
    ASSERT_EQ(lq.bitmaps.size(), lq.spec.tables.size());
    for (size_t i = 0; i < lq.spec.tables.size(); ++i) {
      auto expect =
          samples.Bitmap(lq.spec.tables[i], lq.spec.predicates).value();
      EXPECT_EQ(lq.bitmaps[i], expect);
    }
  }
}

TEST(LabelerTest, WithoutSamplesNoBitmaps) {
  auto catalog = testutil::MakeTinyCatalog();
  GeneratorOptions opts;
  auto gen = QueryGenerator::Create(catalog.get(), opts).value();
  auto labeled =
      workload::LabelQueries(*catalog, nullptr, gen.GenerateMany(5)).value();
  for (const auto& lq : labeled) EXPECT_TRUE(lq.bitmaps.empty());
}

// LabelQueries fans the queries out over every hardware thread; these pin
// what the caller sees: the sequential results, in query order.
TEST(LabelerTest, ParallelLabelsMatchSequentialCountsInQueryOrder) {
  auto catalog = testutil::MakeTinyCatalog();
  auto samples = est::SampleSet::Build(*catalog, 10, 3).value();
  GeneratorOptions opts;
  opts.seed = 35;
  opts.max_tables = 3;
  auto gen = QueryGenerator::Create(catalog.get(), opts).value();
  const std::vector<QuerySpec> queries = gen.GenerateMany(400);
  std::vector<size_t> progress;
  workload::LabelerOptions lo;
  lo.progress = [&](size_t done, size_t total) {
    EXPECT_EQ(total, queries.size());
    progress.push_back(done);
  };
  auto labeled = workload::LabelQueries(*catalog, &samples, queries, lo);
  ASSERT_TRUE(labeled.ok()) << labeled.status().ToString();
  ASSERT_EQ(labeled->size(), queries.size());
  exec::Executor executor(catalog.get());
  for (size_t i = 0; i < queries.size(); ++i) {
    const LabeledQuery& lq = (*labeled)[i];
    EXPECT_EQ(lq.spec.ToCompactString(), queries[i].ToCompactString()) << i;
    EXPECT_EQ(lq.cardinality, executor.Count(queries[i]).value()) << i;
    ASSERT_EQ(lq.bitmaps.size(), lq.spec.tables.size()) << i;
    for (size_t t = 0; t < lq.spec.tables.size(); ++t) {
      EXPECT_EQ(lq.bitmaps[t],
                samples.Bitmap(lq.spec.tables[t], lq.spec.predicates).value())
          << i;
    }
  }
  // One call per query; `done` rises by one each time and ends at total.
  ASSERT_EQ(progress.size(), queries.size());
  for (size_t i = 0; i < progress.size(); ++i) EXPECT_EQ(progress[i], i + 1);
}

TEST(LabelerTest, ParallelLabelingReturnsTheLowestIndexError) {
  auto catalog = testutil::MakeTinyCatalog();
  GeneratorOptions opts;
  opts.seed = 36;
  auto gen = QueryGenerator::Create(catalog.get(), opts).value();
  // Repeated, so the threads finish the two failing queries in both orders.
  for (int rep = 0; rep < 20; ++rep) {
    std::vector<QuerySpec> queries = gen.GenerateMany(200);
    const size_t lo_idx = 3 + static_cast<size_t>(rep) * 7;
    const size_t hi_idx = lo_idx + 1 + static_cast<size_t>(rep) % 5;
    queries[lo_idx].tables = {"genre", "genre"};
    queries[hi_idx].tables = {"movie", "movie"};
    auto labeled = workload::LabelQueries(*catalog, nullptr, queries);
    ASSERT_FALSE(labeled.ok());
    EXPECT_NE(labeled.status().message().find("'genre'"), std::string::npos)
        << labeled.status().ToString();
  }
}

// ---- Workload I/O ---------------------------------------------------------------

TEST(WorkloadIoTest, RoundTripPreservesEverything) {
  auto catalog = testutil::MakeTinyCatalog();
  auto samples = est::SampleSet::Build(*catalog, 8, 3).value();
  GeneratorOptions opts;
  opts.seed = 44;
  auto gen = QueryGenerator::Create(catalog.get(), opts).value();
  auto labeled =
      workload::LabelQueries(*catalog, &samples, gen.GenerateMany(20)).value();

  std::string path = testing::TempDir() + "/ds_workload_test.bin";
  ASSERT_TRUE(workload::SaveWorkload(labeled, path).ok());
  auto loaded = workload::LoadWorkload(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded->size(), labeled.size());
  for (size_t i = 0; i < labeled.size(); ++i) {
    EXPECT_EQ((*loaded)[i].spec.ToCompactString(),
              labeled[i].spec.ToCompactString());
    EXPECT_EQ((*loaded)[i].cardinality, labeled[i].cardinality);
    EXPECT_EQ((*loaded)[i].bitmaps, labeled[i].bitmaps);
  }
  std::remove(path.c_str());
}

TEST(WorkloadIoTest, TextExportOneLinePerQuery) {
  auto catalog = testutil::MakeTinyCatalog();
  GeneratorOptions opts;
  opts.seed = 71;
  auto gen = QueryGenerator::Create(catalog.get(), opts).value();
  auto labeled =
      workload::LabelQueries(*catalog, nullptr, gen.GenerateMany(5)).value();
  std::string text = workload::WorkloadToText(labeled);
  EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 5);
  // Each line ends with the cardinality.
  auto first_line = text.substr(0, text.find('\n'));
  EXPECT_EQ(first_line, labeled[0].spec.ToCompactString() + "#" +
                            std::to_string(labeled[0].cardinality));
}

TEST(WorkloadIoTest, TextRoundTrip) {
  auto catalog = testutil::MakeTinyCatalog();
  GeneratorOptions opts;
  opts.seed = 81;
  opts.max_tables = 3;
  auto gen = QueryGenerator::Create(catalog.get(), opts).value();
  auto labeled =
      workload::LabelQueries(*catalog, nullptr, gen.GenerateMany(25)).value();
  std::string text = workload::WorkloadToText(labeled);
  auto parsed = workload::ParseWorkloadText(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString() << "\n" << text;
  ASSERT_EQ(parsed->size(), labeled.size());
  for (size_t i = 0; i < labeled.size(); ++i) {
    EXPECT_EQ((*parsed)[i].spec.ToCompactString(),
              labeled[i].spec.ToCompactString());
    EXPECT_EQ((*parsed)[i].cardinality, labeled[i].cardinality);
    // Parsed specs still validate against the catalog.
    EXPECT_TRUE((*parsed)[i].spec.Validate(*catalog).ok());
  }
}

TEST(WorkloadIoTest, TextParserHandlesQuotingAndComments) {
  auto parsed = workload::ParseWorkloadText(
      "-- a comment line\n"
      "\n"
      "genre##genre.name,=,'it''s, tricky'#7\n"
      "movie,rating#rating.movie_id=movie.id##42\n");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_EQ(parsed->size(), 2u);
  EXPECT_EQ(std::get<std::string>((*parsed)[0].spec.predicates[0].literal),
            "it's, tricky");
  EXPECT_EQ((*parsed)[0].cardinality, 7u);
  EXPECT_EQ((*parsed)[1].spec.joins.size(), 1u);
}

TEST(WorkloadIoTest, TextParserRejectsMalformed) {
  EXPECT_FALSE(workload::ParseWorkloadText("onlyonesection").ok());
  EXPECT_FALSE(workload::ParseWorkloadText("##,#,#5").ok());       // no tables
  EXPECT_FALSE(workload::ParseWorkloadText("t##t.c,?,3#5").ok());  // bad op
  EXPECT_FALSE(workload::ParseWorkloadText("t##t.c,=,3#x").ok());  // bad card
  EXPECT_FALSE(workload::ParseWorkloadText("t#badjoin##5").ok());
  EXPECT_FALSE(workload::ParseWorkloadText("t##t.c,=,'open#5").ok());
}

TEST(WorkloadIoTest, RejectsGarbage) {
  util::BinaryWriter w;
  w.WriteU32(0xdeadbeef);
  util::BinaryReader r(w.buffer());
  EXPECT_FALSE(workload::ReadWorkload(&r).ok());
}

}  // namespace
}  // namespace ds
