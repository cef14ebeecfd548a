// Predicate binding and evaluation over base tables and samples.
//
// A BoundPredicate has resolved the column pointer and the literal to the
// column's numeric domain. A categorical equality literal that does not
// appear in the dictionary cannot match any row (the string does not exist
// in the data), which binding records as never_matches instead of an error —
// ad-hoc user queries may legitimately probe for absent values.

#ifndef DS_EXEC_PREDICATE_H_
#define DS_EXEC_PREDICATE_H_

#include <cstdint>
#include <vector>

#include "ds/storage/table.h"
#include "ds/workload/query_spec.h"

namespace ds::exec {

struct BoundPredicate {
  const storage::Column* column = nullptr;
  workload::CompareOp op = workload::CompareOp::kEq;
  double value = 0;
  bool never_matches = false;
};

/// Binds the subset of `predicates` that targets `table_name` against the
/// physical `table`. Fails on type mismatches or unknown columns.
Result<std::vector<BoundPredicate>> BindPredicates(
    const storage::Table& table, const std::string& table_name,
    const std::vector<workload::ColumnPredicate>& predicates);

/// BindPredicates into a caller-reused vector (cleared first; capacity is
/// retained, so a warm scratch vector binds with zero allocations).
Status BindPredicatesInto(const storage::Table& table,
                          const std::string& table_name,
                          const std::vector<workload::ColumnPredicate>& predicates,
                          std::vector<BoundPredicate>* bound);

/// Per-row qualification bytes (1/0), one per table row — the "bitmap"
/// the paper extracts from materialized samples, and the executor's
/// base-table filter.
std::vector<uint8_t> QualifyingBitmap(const storage::Table& table,
                                      const std::vector<BoundPredicate>& preds);

/// QualifyingBitmap into a caller-reused vector (resized; capacity is
/// retained across calls).
void QualifyingBitmapInto(const storage::Table& table,
                          const std::vector<BoundPredicate>& preds,
                          std::vector<uint8_t>* bitmap);

}  // namespace ds::exec

#endif  // DS_EXEC_PREDICATE_H_
