// Labeling — step 3 of Figure 1a: execute every training query against the
// database to obtain its true cardinality, and against the materialized
// samples to obtain per-table qualifying bitmaps.

#ifndef DS_WORKLOAD_LABELER_H_
#define DS_WORKLOAD_LABELER_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "ds/est/sample.h"
#include "ds/storage/catalog.h"
#include "ds/workload/query_spec.h"

namespace ds::workload {

/// A query with its ground-truth cardinality and sample bitmaps.
struct LabeledQuery {
  QuerySpec spec;
  uint64_t cardinality = 0;
  /// bitmaps[i] covers spec.tables[i]; empty when labeling ran without
  /// samples. Training does not read them: mscn::Dataset evaluates the
  /// bitmaps against the sketch's samples while featurizing.
  std::vector<std::vector<uint8_t>> bitmaps;
};

struct LabelerOptions {
  /// Invoked after every labeled query with (done, total); used by the demo
  /// UI flow to monitor training-data generation. Calls come from the
  /// labeling threads but never overlap (they run under a mutex ranked
  /// kWorkloadLabelProgress), and `done` strictly increases up to `total`.
  std::function<void(size_t, size_t)> progress;
};

/// Labels `queries` with true cardinalities (via the executor) and, when
/// `samples` is non-null, per-table sample bitmaps. The demo executes
/// training queries "in parallel on multiple HyPer instances"; this API is
/// the in-process equivalent: queries fan out over every hardware thread,
/// and the results come back in query order. On failure it returns the
/// error of the lowest-index failing query.
Result<std::vector<LabeledQuery>> LabelQueries(
    const storage::Catalog& catalog, const est::SampleSet* samples,
    const std::vector<QuerySpec>& queries, const LabelerOptions& options = {});

}  // namespace ds::workload

#endif  // DS_WORKLOAD_LABELER_H_
