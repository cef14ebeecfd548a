#include "ds/mscn/dataset.h"

#include <algorithm>

namespace ds::mscn {

Result<Dataset> Dataset::Build(
    const FeatureSpace& space, const est::SampleSet& samples,
    const std::vector<workload::LabeledQuery>& workload, bool use_bitmaps) {
  Dataset ds;
  ds.features.reserve(workload.size());
  ds.labels.reserve(workload.size());
  FeaturizeScratch scratch;
  SparseQueryFeatures rows;
  for (const auto& lq : workload) {
    DS_RETURN_NOT_OK(
        space.FeaturizeSparse(lq.spec, samples, use_bitmaps, &scratch, &rows));
    // Copy-construct from the reused scratch rows: a copy is allocated at
    // exactly its size, where rows grown in place keep doubling slack.
    ds.features.push_back(rows);
    ds.labels.push_back(static_cast<double>(lq.cardinality));
  }
  return ds;
}

namespace {

// Concatenates each query's CSR rows into `flat`, padding every set to the
// per-batch max (at least 1) with empty rows, and marks real rows in `mask`.
void PackSparseSet(const std::vector<const SparseQueryFeatures*>& queries,
                   nn::SparseRows SparseQueryFeatures::* member, size_t dim,
                   nn::SparseRows* flat, nn::Tensor* mask) {
  const size_t b = queries.size();
  size_t s = 1;
  for (const auto* q : queries) s = std::max(s, (q->*member).rows());
  flat->Clear(dim);
  mask->ResizeInPlace({b, s});
  mask->Zero();
  for (size_t i = 0; i < b; ++i) {
    const nn::SparseRows& src = queries[i]->*member;
    const size_t n = src.rows();
    for (size_t j = 0; j < n; ++j) {
      flat->AppendRowFrom(src, j);
      mask->at(i, j) = 1.0f;
    }
    for (size_t j = n; j < s; ++j) flat->EndRow();
  }
}

}  // namespace

void PackSparseBatch(const std::vector<const SparseQueryFeatures*>& queries,
                     const FeatureSpace& space, SparseBatch* out) {
  PackSparseSet(queries, &SparseQueryFeatures::tables, space.table_dim(),
                &out->tables, &out->table_mask);
  PackSparseSet(queries, &SparseQueryFeatures::joins, space.join_dim(),
                &out->joins, &out->join_mask);
  PackSparseSet(queries, &SparseQueryFeatures::predicates, space.pred_dim(),
                &out->predicates, &out->predicate_mask);
}

}  // namespace ds::mscn
