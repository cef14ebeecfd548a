#include "ds/mscn/dataset.h"

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

// Concatenates each query's CSR rows of one feature set into `out`.
void PackSparseSet(const std::vector<const SparseQueryFeatures*>& queries,
                   nn::SparseRows SparseQueryFeatures::* member, size_t dim,
                   SparseSet* out) {
  out->rows.Clear(dim);
  out->offsets.clear();
  out->offsets.push_back(0);
  for (const SparseQueryFeatures* q : queries) {
    const nn::SparseRows& src = q->*member;
    for (size_t j = 0; j < src.rows(); ++j) out->rows.AppendRowFrom(src, j);
    out->offsets.push_back(static_cast<uint32_t>(out->rows.rows()));
  }
}

}  // namespace

void PackSparseBatch(const std::vector<const SparseQueryFeatures*>& queries,
                     const FeatureSpace& space, SparseBatch* out) {
  PackSparseSet(queries, &SparseQueryFeatures::tables, space.table_dim(),
                &out->tables);
  PackSparseSet(queries, &SparseQueryFeatures::joins, space.join_dim(),
                &out->joins);
  PackSparseSet(queries, &SparseQueryFeatures::predicates, space.pred_dim(),
                &out->predicates);
}

}  // namespace ds::mscn
