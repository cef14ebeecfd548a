#include "ds/exec/predicate.h"

#include <algorithm>

#include "ds/util/contract.h"

namespace ds::exec {

Result<std::vector<BoundPredicate>> BindPredicates(
    const storage::Table& table, const std::string& table_name,
    const std::vector<workload::ColumnPredicate>& predicates) {
  std::vector<BoundPredicate> bound;
  DS_RETURN_NOT_OK(BindPredicatesInto(table, table_name, predicates, &bound));
  return bound;
}

Status BindPredicatesInto(
    const storage::Table& table, const std::string& table_name,
    const std::vector<workload::ColumnPredicate>& predicates,
    std::vector<BoundPredicate>* bound) {
  DS_REQUIRE(bound != nullptr, "BindPredicatesInto needs an output vector");
  bound->clear();
  for (const auto& p : predicates) {
    if (p.table != table_name) continue;
    DS_ASSIGN_OR_RETURN(const storage::Column* col, table.GetColumn(p.column));
    BoundPredicate bp;
    bp.column = col;
    bp.op = p.op;
    auto value = col->LiteralToNumeric(p.literal);
    if (!value.ok()) {
      if (value.status().code() == StatusCode::kNotFound) {
        // Unknown categorical string: present in the query, absent from the
        // data. No row can match it.
        bp.never_matches = true;
      } else {
        return value.status();
      }
    } else {
      bp.value = *value;
    }
    // Binding postcondition: every kept predicate carries a live column
    // borrowed from `table` — AndPredicateColumn dereferences it blind.
    DS_ENSURE(bp.column != nullptr, "bound predicate lost its column");
    bound->push_back(bp);
  }
  DS_ENSURE(bound->size() <= predicates.size(),
            "bound %zu predicates from %zu inputs", bound->size(),
            predicates.size());
  return Status::OK();
}

std::vector<uint8_t> QualifyingBitmap(
    const storage::Table& table, const std::vector<BoundPredicate>& preds) {
  std::vector<uint8_t> bitmap;
  QualifyingBitmapInto(table, preds, &bitmap);
  return bitmap;
}

namespace {

// Branch-free column-at-a-time pass for one predicate: out[r] &= match(r).
// The numeric value is widened to double and NULL never qualifies. This is
// the library's only predicate evaluator: the executor filters base tables
// with it, and per-sample bitmaps are recomputed with it on every
// featurization, so it is on the serving hot path.
void AndPredicateColumn(const BoundPredicate& p, uint8_t* out, size_t n) {
  if (p.never_matches) {
    std::fill(out, out + n, uint8_t{0});
    return;
  }
  const storage::Column& col = *p.column;
  const double t = p.value;
  auto apply = [&](auto get) {
    switch (p.op) {
      case workload::CompareOp::kEq:
        for (size_t r = 0; r < n; ++r) out[r] &= get(r) == t;
        break;
      case workload::CompareOp::kLt:
        for (size_t r = 0; r < n; ++r) out[r] &= get(r) < t;
        break;
      case workload::CompareOp::kGt:
        for (size_t r = 0; r < n; ++r) out[r] &= get(r) > t;
        break;
    }
  };
  if (col.type() == storage::ColumnType::kFloat64) {
    const double* v = col.doubles().data();
    apply([v](size_t r) { return v[r]; });
  } else {
    const int64_t* v = col.ints().data();
    apply([v](size_t r) { return static_cast<double>(v[r]); });
  }
  if (col.has_nulls()) {
    for (size_t r = 0; r < n; ++r) out[r] &= col.IsNull(r) ? 0 : 1;
  }
}

}  // namespace

void QualifyingBitmapInto(const storage::Table& table,
                          const std::vector<BoundPredicate>& preds,
                          std::vector<uint8_t>* bitmap) {
  DS_REQUIRE(bitmap != nullptr, "QualifyingBitmapInto needs an output bitmap");
  const size_t n = table.num_rows();
  for (const auto& p : preds) {
    // The column-at-a-time pass reads n values from each bound column; a
    // shorter column (a predicate bound against a different table's data)
    // would read out of bounds.
    DS_REQUIRE(p.never_matches || p.column->size() >= n,
               "bound column has %zu rows, table has %zu", p.column->size(),
               n);
  }
  bitmap->resize(n);
  std::fill(bitmap->begin(), bitmap->end(), uint8_t{1});
  for (const auto& p : preds) AndPredicateColumn(p, bitmap->data(), n);
  DS_ENSURE(bitmap->size() == n, "bitmap has %zu entries for %zu rows",
            bitmap->size(), n);
}

}  // namespace ds::exec
