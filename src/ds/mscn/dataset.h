// Training datasets and padded mini-batches for the MSCN model.
//
// The three feature sets of a query have variable sizes (1-N tables, 0-N
// joins, 0-N predicates). A batch pads each set to the batch maximum and
// carries 0/1 masks so the masked set-average only pools real elements.
// Training and estimation featurize with the same FeaturizeSparse and pack
// with the same PackSparseBatch.

#ifndef DS_MSCN_DATASET_H_
#define DS_MSCN_DATASET_H_

#include <vector>

#include "ds/mscn/featurizer.h"
#include "ds/nn/tensor.h"
#include "ds/workload/labeler.h"

namespace ds::mscn {

/// Featurized queries with their true cardinalities.
struct Dataset {
  std::vector<SparseQueryFeatures> features;
  std::vector<double> labels;  // true cardinalities

  size_t size() const { return features.size(); }

  /// Featurizes a labeled workload with FeaturizeSparse against `samples`
  /// (bitmaps included when `use_bitmaps`), exactly as the sketch will
  /// featurize the same query at estimation time. The workload's own
  /// `bitmaps` are not read. Each query's rows are stored sized exactly.
  static Result<Dataset> Build(
      const FeatureSpace& space, const est::SampleSet& samples,
      const std::vector<workload::LabeledQuery>& workload, bool use_bitmaps);
};

/// A padded mini-batch with CSR feature rows: B*S sparse rows per set
/// (empty rows pad; pooling ignores them via the masks) plus dense [B, S]
/// masks. Designed for reuse — packing into a warm SparseBatch allocates
/// nothing.
struct SparseBatch {
  nn::SparseRows tables, joins, predicates;
  nn::Tensor table_mask, join_mask, predicate_mask;

  size_t batch_size() const { return table_mask.dim(0); }
};

/// Packs per-query sparse features into `out`, padding each set to the
/// per-batch maximum (at least 1) with empty rows.
void PackSparseBatch(const std::vector<const SparseQueryFeatures*>& queries,
                     const FeatureSpace& space, SparseBatch* out);

}  // namespace ds::mscn

#endif  // DS_MSCN_DATASET_H_
