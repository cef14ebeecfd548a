// Tests for the executor: hand-checked cases plus a property sweep comparing
// the hash-join pipeline against brute-force enumeration on random queries.

#include <gtest/gtest.h>

#include "ds/exec/executor.h"
#include "ds/exec/predicate.h"
#include "ds/sql/binder.h"
#include "ds/util/random.h"
#include "test_util.h"

namespace ds {
namespace {

using exec::Executor;
using workload::ColumnPredicate;
using workload::CompareOp;
using workload::JoinEdge;
using workload::QuerySpec;

class ExecTest : public ::testing::Test {
 protected:
  ExecTest() : catalog_(testutil::MakeTinyCatalog()), executor_(catalog_.get()) {}

  uint64_t Count(const std::string& sql) {
    auto spec = sql::ParseAndBind(*catalog_, sql);
    DS_CHECK_OK(spec.status());
    auto n = executor_.Count(*spec);
    DS_CHECK_OK(n.status());
    return *n;
  }

  std::unique_ptr<storage::Catalog> catalog_;
  Executor executor_;
};

TEST_F(ExecTest, SingleTableNoPredicates) {
  EXPECT_EQ(Count("SELECT COUNT(*) FROM movie"), 40u);
  EXPECT_EQ(Count("SELECT COUNT(*) FROM genre"), 5u);
}

TEST_F(ExecTest, SingleTableEquality) {
  // year = 2000 + (id % 10); id 13 is NULL. year=2003 matches ids 3,13,23,33
  // minus the null id 13 => 3 rows.
  EXPECT_EQ(Count("SELECT COUNT(*) FROM movie WHERE year = 2003"), 3u);
}

TEST_F(ExecTest, SingleTableRange) {
  // year > 2007 matches id%10 in {8,9}: ids 8,9,18,19,28,29,38,39 => 8 rows.
  EXPECT_EQ(Count("SELECT COUNT(*) FROM movie WHERE year > 2007"), 8u);
  // NULL year never qualifies even for <.
  EXPECT_EQ(Count("SELECT COUNT(*) FROM movie WHERE year < 2100"), 39u);
}

TEST_F(ExecTest, FloatPredicate) {
  EXPECT_EQ(Count("SELECT COUNT(*) FROM rating WHERE score < 0.25"),
            testutil::BruteForceCount(
                *catalog_, *sql::ParseAndBind(
                               *catalog_,
                               "SELECT COUNT(*) FROM rating WHERE score < 0.25")));
}

TEST_F(ExecTest, CategoricalEquality) {
  EXPECT_EQ(Count("SELECT COUNT(*) FROM genre WHERE name = 'g3'"), 1u);
  // Unknown categorical literal: zero rows, not an error.
  EXPECT_EQ(Count("SELECT COUNT(*) FROM genre WHERE name = 'unknown'"), 0u);
}

TEST_F(ExecTest, PkFkJoinCountsMatchFanOut) {
  // Every movie m has m%3 ratings => total = sum over 1..40 of m%3 = 40
  // (13 full cycles of 1+2+0 plus 40%3 = 1).
  EXPECT_EQ(Count("SELECT COUNT(*) FROM movie m, rating r "
                  "WHERE r.movie_id = m.id"),
            40u);
}

TEST_F(ExecTest, ThreeWayJoin) {
  uint64_t got = Count(
      "SELECT COUNT(*) FROM movie m, rating r, genre g "
      "WHERE r.movie_id = m.id AND m.genre_id = g.id AND g.name = 'g2'");
  auto spec = sql::ParseAndBind(
      *catalog_,
      "SELECT COUNT(*) FROM movie m, rating r, genre g "
      "WHERE r.movie_id = m.id AND m.genre_id = g.id AND g.name = 'g2'");
  EXPECT_EQ(got, testutil::BruteForceCount(*catalog_, *spec));
  EXPECT_GT(got, 0u);
}

TEST_F(ExecTest, EmptyResult) {
  EXPECT_EQ(Count("SELECT COUNT(*) FROM movie WHERE year = 1800"), 0u);
  EXPECT_EQ(Count("SELECT COUNT(*) FROM movie m, rating r "
                  "WHERE r.movie_id = m.id AND m.year = 1800"),
            0u);
}

TEST_F(ExecTest, InvalidSpecRejected) {
  QuerySpec spec;
  spec.tables = {"movie", "rating"};  // no join => cross product
  EXPECT_FALSE(executor_.Count(spec).ok());
}

TEST_F(ExecTest, IntermediateGuardTrips) {
  exec::ExecutorOptions opts;
  opts.max_intermediate_tuples = 5;
  Executor small(catalog_.get(), opts);
  auto spec = sql::ParseAndBind(*catalog_,
                                "SELECT COUNT(*) FROM movie m, rating r "
                                "WHERE r.movie_id = m.id");
  ASSERT_TRUE(spec.ok());
  EXPECT_EQ(small.Count(*spec).status().code(), StatusCode::kOutOfRange);

  // A star around genre (5 rows, so the join starts there): genre joins its
  // 8 movies each (40 tuples) and the ratings whose movie_id equals the
  // genre id (1, 2, 0, 1, 2 for genres 1..5; 6 tuples), so the final step
  // yields 8 * 6 = 48 tuples whichever of the two is joined first.
  auto star = sql::ParseAndBind(*catalog_,
                                "SELECT COUNT(*) FROM genre g, movie m, "
                                "rating r WHERE m.genre_id = g.id "
                                "AND r.movie_id = g.id");
  ASSERT_TRUE(star.ok()) << star.status().ToString();
  ASSERT_EQ(testutil::BruteForceCount(*catalog_, *star), 48u);
  ASSERT_EQ(executor_.Count(*star).value(), 48u);

  // 40 admits either intermediate result, so only the final, counted step
  // can trip.
  opts.max_intermediate_tuples = 40;
  EXPECT_EQ(Executor(catalog_.get(), opts).Count(*star).status().code(),
            StatusCode::kOutOfRange);
  // The guard trips on more than the cap, so a count equal to it passes.
  opts.max_intermediate_tuples = 48;
  auto at_cap = Executor(catalog_.get(), opts).Count(*star);
  ASSERT_TRUE(at_cap.ok()) << at_cap.status().ToString();
  EXPECT_EQ(*at_cap, 48u);
  opts.max_intermediate_tuples = 47;
  EXPECT_EQ(Executor(catalog_.get(), opts).Count(*star).status().code(),
            StatusCode::kOutOfRange);
}

// ---- Property sweep: random queries vs brute force -------------------------

struct RandomQueryCase {
  uint64_t seed;
};

class ExecPropertyTest : public ::testing::TestWithParam<uint64_t> {};

// Generates a random valid query on the tiny catalog: subset of connected
// tables plus 0-3 random predicates.
QuerySpec RandomSpec(const storage::Catalog& /*catalog*/, util::Pcg32* rng) {
  QuerySpec spec;
  // Table subsets that are connected: {movie}, {genre}, {rating},
  // {movie,genre}, {movie,rating}, {movie,genre,rating}; plus two join graphs
  // that are not trees, so the last join step carries a residual edge: a
  // duplicated edge and a triangle closed by rating.id = genre.id.
  switch (rng->Bounded(8)) {
    case 0:
      spec.tables = {"movie"};
      break;
    case 1:
      spec.tables = {"genre"};
      break;
    case 2:
      spec.tables = {"rating"};
      break;
    case 3:
      spec.tables = {"movie", "genre"};
      spec.joins = {JoinEdge{"movie", "genre_id", "genre", "id"}};
      break;
    case 4:
      spec.tables = {"movie", "rating"};
      spec.joins = {JoinEdge{"rating", "movie_id", "movie", "id"}};
      break;
    case 5:
      spec.tables = {"movie", "genre", "rating"};
      spec.joins = {JoinEdge{"movie", "genre_id", "genre", "id"},
                    JoinEdge{"rating", "movie_id", "movie", "id"}};
      break;
    case 6:
      spec.tables = {"movie", "genre"};
      spec.joins = {JoinEdge{"movie", "genre_id", "genre", "id"},
                    JoinEdge{"movie", "genre_id", "genre", "id"}};
      break;
    default:
      spec.tables = {"movie", "genre", "rating"};
      spec.joins = {JoinEdge{"movie", "genre_id", "genre", "id"},
                    JoinEdge{"rating", "movie_id", "movie", "id"},
                    JoinEdge{"rating", "id", "genre", "id"}};
  }
  auto add_pred = [&](const std::string& table, const std::string& column,
                      storage::CellValue literal) {
    ColumnPredicate p;
    p.table = table;
    p.column = column;
    p.op = static_cast<CompareOp>(rng->Bounded(3));
    p.literal = std::move(literal);
    spec.predicates.push_back(std::move(p));
  };
  uint32_t num_preds = rng->Bounded(4);
  for (uint32_t i = 0; i < num_preds; ++i) {
    const std::string& t = spec.tables[rng->Bounded(
        static_cast<uint32_t>(spec.tables.size()))];
    if (t == "movie") {
      if (rng->Chance(0.5)) {
        add_pred("movie", "year", int64_t{2000 + rng->UniformInt(0, 9)});
      } else {
        add_pred("movie", "genre_id", rng->UniformInt(1, 5));
      }
    } else if (t == "genre") {
      add_pred("genre", "name",
               std::string("g") + std::to_string(rng->UniformInt(1, 6)));
    } else {
      if (rng->Chance(0.5)) {
        add_pred("rating", "score", rng->UniformDouble(0.0, 5.0));
      } else {
        add_pred("rating", "votes", rng->UniformInt(0, 99));
      }
    }
  }
  return spec;
}

TEST_P(ExecPropertyTest, MatchesBruteForce) {
  auto catalog = testutil::MakeTinyCatalog();
  Executor executor(catalog.get());
  util::Pcg32 rng(GetParam());
  for (int i = 0; i < 40; ++i) {
    QuerySpec spec = RandomSpec(*catalog, &rng);
    // "g6" does not exist in the genre dictionary; executor must return 0
    // for those rather than erroring, same as brute force which can't
    // match it either. BindPredicates handles this via never_matches.
    auto got = executor.Count(spec);
    ASSERT_TRUE(got.ok()) << got.status().ToString() << " for "
                          << spec.ToSql();
    uint64_t expected = testutil::BruteForceCount(*catalog, spec);
    EXPECT_EQ(*got, expected) << spec.ToSql();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExecPropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5, 11, 17, 23));

}  // namespace
}  // namespace ds
