// Training datasets and mini-batches for the MSCN model.
//
// The three feature sets of a query have variable sizes (1-N tables, 0-N
// joins, 0-N predicates). A batch stores each set's real rows only, with
// per-query row offsets, so the set MLPs never run on padding and the set
// average pools exactly the rows a query has. Training and estimation
// featurize with the same FeaturizeSparse and pack with the same
// PackSparseBatch.

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

/// One feature set of a mini-batch: every query's CSR rows back to back,
/// and per-query row offsets — query i owns rows [offsets[i],
/// offsets[i+1]), so offsets has one entry more than the batch has queries.
struct SparseSet {
  nn::SparseRows rows;
  std::vector<uint32_t> offsets;
};

/// A mini-batch with CSR feature rows, one SparseSet per feature set.
/// Designed for reuse — packing into a warm SparseBatch allocates nothing.
struct SparseBatch {
  SparseSet tables, joins, predicates;

  size_t batch_size() const { return tables.offsets.size() - 1; }
};

/// Packs per-query sparse features into `out`, each set's rows in query
/// order.
void PackSparseBatch(const std::vector<const SparseQueryFeatures*>& queries,
                     const FeatureSpace& space, SparseBatch* out);

}  // namespace ds::mscn

#endif  // DS_MSCN_DATASET_H_
