// Query featurization for the MSCN model (§2 of the paper):
//
//   "Based on the training data, we enumerate tables, columns, joins, and
//    predicate types (=, <, and >) and represent them as unique one-hot
//    vectors. We represent each literal as a value in [0,1], normalized
//    using the minimum and maximum values of the respective column."
//
// A query becomes three sets of feature vectors:
//   table element:     [table one-hot | sample bitmap]
//   join element:      [join one-hot]
//   predicate element: [column one-hot | op one-hot | normalized literal]
//
// The FeatureSpace fixes the enumerations and column ranges; it is part of
// a sketch's persistent state. FeaturizeSparse is the only featurizer:
// training (mscn::Dataset) and estimation both call it, so a query is
// featurized identically at training and estimation time by construction.

#ifndef DS_MSCN_FEATURIZER_H_
#define DS_MSCN_FEATURIZER_H_

#include <string>
#include <unordered_map>
#include <vector>

#include "ds/est/sample.h"
#include "ds/nn/kernels.h"
#include "ds/storage/catalog.h"
#include "ds/util/serialize.h"
#include "ds/workload/labeler.h"
#include "ds/workload/query_spec.h"

namespace ds::mscn {

/// One featurized query in CSR form: three sets of equal-width feature
/// rows, one sparse row per set element. The rows are overwhelmingly zero
/// (one-hots plus a sample bitmap), so only the nonzeros are stored, and
/// they feed the sparse first-layer kernels in training and inference.
struct SparseQueryFeatures {
  nn::SparseRows tables;      // width table_dim
  nn::SparseRows joins;       // width join_dim
  nn::SparseRows predicates;  // width pred_dim

  /// Resets all three row sets (keeping capacity) for the given widths.
  void Clear(size_t table_dim, size_t join_dim, size_t pred_dim) {
    tables.Clear(table_dim);
    joins.Clear(join_dim);
    predicates.Clear(pred_dim);
  }
};

/// Reusable scratch for the allocation-free featurization path. All members
/// keep their capacity across queries, so a warm scratch featurizes without
/// touching the allocator. Not thread-safe; use one per thread.
struct FeaturizeScratch {
  workload::QuerySpec resolved;             // string-literal resolution copy
  std::vector<exec::BoundPredicate> bound;  // predicate binding scratch
  std::vector<uint8_t> bitmap;              // per-table bitmap scratch
  std::string key;                          // column/join key lookup scratch
  std::string side_a, side_b;               // join-key side scratch
};

class FeatureSpace {
 public:
  /// Enumerates tables, joins (FK edges among `tables`), predicate columns,
  /// and records column min/max for literal normalization. `sample_size` is
  /// the bitmap width (tables one-hot + bitmap = table element width).
  /// `tables` empty means all catalog tables.
  static Result<FeatureSpace> Create(const storage::Catalog& catalog,
                                     const std::vector<std::string>& tables,
                                     size_t sample_size);

  size_t table_dim() const { return table_names_.size() + sample_size_; }
  size_t join_dim() const { return std::max<size_t>(join_keys_.size(), 1); }
  size_t pred_dim() const { return column_keys_.size() + 3 + 1; }
  size_t sample_size() const { return sample_size_; }

  const std::vector<std::string>& table_names() const { return table_names_; }
  size_t num_joins() const { return join_keys_.size(); }
  size_t num_columns() const { return column_keys_.size(); }

  /// Featurizes `spec` into CSR rows in `out`: resolves string literals
  /// through the samples' dictionaries (via a scratch copy only when the
  /// query has any), evaluates per-table bitmaps against `samples` when
  /// `use_bitmaps` (Figure 1b: the sketch evaluates base-table selections
  /// on its own materialized samples; bitmaps longer than sample_size are
  /// truncated), and emits rows with strictly increasing column indices and
  /// no explicit zeros. Fails on tables/joins/columns outside this feature
  /// space; unknown categorical strings surface as NotFound. With a warm
  /// scratch and output, featurizing touches no allocator.
  Status FeaturizeSparse(const workload::QuerySpec& spec,
                         const est::SampleSet& samples, bool use_bitmaps,
                         FeaturizeScratch* scratch,
                         SparseQueryFeatures* out) const;

  void Write(util::BinaryWriter* writer) const;
  static Result<FeatureSpace> Read(util::BinaryReader* reader);

 private:
  Result<size_t> TableIndex(const std::string& table) const;

  std::vector<std::string> table_names_;
  std::unordered_map<std::string, size_t> table_index_;

  // Canonical join key "t1.c1=t2.c2" (lexicographically ordered sides).
  static std::string JoinKey(const workload::JoinEdge& edge);
  std::vector<std::string> join_keys_;
  std::unordered_map<std::string, size_t> join_index_;

  // Column key "table.column" with normalization range.
  std::vector<std::string> column_keys_;
  std::unordered_map<std::string, size_t> column_index_;
  std::vector<double> column_min_;
  std::vector<double> column_max_;

  size_t sample_size_ = 0;
};

}  // namespace ds::mscn

#endif  // DS_MSCN_FEATURIZER_H_
