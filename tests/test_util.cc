#include "test_util.h"

#include "ds/exec/predicate.h"
#include "ds/util/logging.h"

namespace ds::testutil {

using storage::Catalog;
using storage::Column;
using storage::ColumnType;
using storage::Table;

std::unique_ptr<Catalog> MakeTinyCatalog() {
  auto catalog = std::make_unique<Catalog>();

  Table* genre = catalog->CreateTable("genre").value();
  Column* gid = genre->AddColumn("id", ColumnType::kInt64).value();
  Column* gname = genre->AddColumn("name", ColumnType::kCategorical).value();
  for (int64_t i = 1; i <= 5; ++i) {
    gid->AppendInt(i);
    std::string genre_name = "g";
    genre_name += std::to_string(i);
    gname->AppendString(genre_name);
  }

  Table* movie = catalog->CreateTable("movie").value();
  Column* mid = movie->AddColumn("id", ColumnType::kInt64).value();
  Column* myear = movie->AddColumn("year", ColumnType::kInt64).value();
  Column* mgenre = movie->AddColumn("genre_id", ColumnType::kInt64).value();
  for (int64_t i = 1; i <= 40; ++i) {
    mid->AppendInt(i);
    if (i == 13) {
      myear->AppendNull();
    } else {
      myear->AppendInt(2000 + (i % 10));
    }
    mgenre->AppendInt(1 + (i % 5));
  }

  Table* rating = catalog->CreateTable("rating").value();
  Column* rid = rating->AddColumn("id", ColumnType::kInt64).value();
  Column* rmovie = rating->AddColumn("movie_id", ColumnType::kInt64).value();
  Column* rscore = rating->AddColumn("score", ColumnType::kFloat64).value();
  Column* rvotes = rating->AddColumn("votes", ColumnType::kInt64).value();
  int64_t next = 1;
  for (int64_t m = 1; m <= 40; ++m) {
    for (int64_t k = 0; k < m % 3; ++k) {
      rid->AppendInt(next++);
      rmovie->AppendInt(m);
      rscore->AppendDouble(static_cast<double>(m % 50) / 10.0);
      rvotes->AppendInt(m * 7 % 100);
    }
  }

  DS_CHECK_OK(catalog->SetPrimaryKey("genre", "id"));
  DS_CHECK_OK(catalog->SetPrimaryKey("movie", "id"));
  DS_CHECK_OK(catalog->SetPrimaryKey("rating", "id"));
  DS_CHECK_OK(catalog->AddForeignKey("movie", "genre_id", "genre", "id"));
  DS_CHECK_OK(catalog->AddForeignKey("rating", "movie_id", "movie", "id"));
  DS_CHECK_OK(catalog->Validate());
  return catalog;
}

namespace {

// Row-at-a-time predicate check, written independently of the library's
// column-at-a-time QualifyingBitmapInto so the oracle does not share the
// kernel it verifies. NULL never qualifies.
bool RowMatchesAll(const std::vector<exec::BoundPredicate>& preds,
                   size_t row) {
  for (const auto& p : preds) {
    if (p.never_matches || p.column->IsNull(row)) return false;
    const double v = p.column->GetNumeric(row);
    bool match = false;
    switch (p.op) {
      case workload::CompareOp::kEq:
        match = v == p.value;
        break;
      case workload::CompareOp::kLt:
        match = v < p.value;
        break;
      case workload::CompareOp::kGt:
        match = v > p.value;
        break;
    }
    if (!match) return false;
  }
  return true;
}

}  // namespace

uint64_t BruteForceCount(const Catalog& catalog,
                         const workload::QuerySpec& spec) {
  // Bind predicates per table once.
  std::vector<const Table*> tables;
  std::vector<std::vector<exec::BoundPredicate>> preds;
  for (const auto& name : spec.tables) {
    const Table* t = catalog.GetTable(name).value();
    tables.push_back(t);
    preds.push_back(exec::BindPredicates(*t, name, spec.predicates).value());
  }
  auto slot_of = [&](const std::string& name) {
    for (size_t i = 0; i < spec.tables.size(); ++i) {
      if (spec.tables[i] == name) return i;
    }
    DS_CHECK(false);
    return size_t{0};
  };
  struct JoinCols {
    size_t l_slot, r_slot;
    const Column* l_col;
    const Column* r_col;
  };
  std::vector<JoinCols> joins;
  for (const auto& j : spec.joins) {
    JoinCols jc;
    jc.l_slot = slot_of(j.left_table);
    jc.r_slot = slot_of(j.right_table);
    jc.l_col = tables[jc.l_slot]->GetColumn(j.left_column).value();
    jc.r_col = tables[jc.r_slot]->GetColumn(j.right_column).value();
    joins.push_back(jc);
  }

  std::vector<size_t> row(spec.tables.size(), 0);
  uint64_t count = 0;
  // Odometer over the cross product.
  for (;;) {
    bool ok = true;
    for (size_t i = 0; ok && i < tables.size(); ++i) {
      ok = RowMatchesAll(preds[i], row[i]);
    }
    for (size_t i = 0; ok && i < joins.size(); ++i) {
      const auto& jc = joins[i];
      if (jc.l_col->IsNull(row[jc.l_slot]) ||
          jc.r_col->IsNull(row[jc.r_slot])) {
        ok = false;
      } else {
        ok = jc.l_col->GetInt(row[jc.l_slot]) ==
             jc.r_col->GetInt(row[jc.r_slot]);
      }
    }
    if (ok) ++count;
    // Advance odometer.
    size_t d = 0;
    while (d < row.size()) {
      if (++row[d] < tables[d]->num_rows()) break;
      row[d] = 0;
      ++d;
    }
    if (d == row.size()) break;
  }
  return count;
}

}  // namespace ds::testutil
