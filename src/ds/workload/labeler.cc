#include "ds/workload/labeler.h"

#include <atomic>

#include "ds/exec/executor.h"
#include "ds/util/parallel.h"
#include "ds/util/thread_annotations.h"

namespace ds::workload {

namespace {

// Labels one query: its true cardinality and, with `samples`, its bitmaps.
Status LabelOne(const exec::Executor& executor, const est::SampleSet* samples,
                const QuerySpec& spec, LabeledQuery* out) {
  out->spec = spec;
  DS_ASSIGN_OR_RETURN(out->cardinality, executor.Count(out->spec));
  if (samples != nullptr) {
    out->bitmaps.reserve(out->spec.tables.size());
    for (const auto& table : out->spec.tables) {
      DS_ASSIGN_OR_RETURN(auto bitmap,
                          samples->Bitmap(table, out->spec.predicates));
      out->bitmaps.push_back(std::move(bitmap));
    }
  }
  return Status::OK();
}

}  // namespace

Result<std::vector<LabeledQuery>> LabelQueries(
    const storage::Catalog& catalog, const est::SampleSet* samples,
    const std::vector<QuerySpec>& queries, const LabelerOptions& options) {
  // Count is const and builds its working state per call, so one executor
  // serves every thread.
  const exec::Executor executor(&catalog);
  const size_t n = queries.size();
  std::vector<LabeledQuery> out(n);
  std::vector<Status> errors(n);
  // ParallelFor claims indices in ascending order, so once query i has
  // failed every lower index is already claimed: skipping the indices above
  // the lowest failure cannot hide a lower-index error.
  std::atomic<size_t> first_failed{n};
  util::Mutex progress_mu{util::LockRank::kWorkloadLabelProgress};
  size_t done = 0;  // guarded by progress_mu
  util::ParallelFor(n, util::HardwareThreads(), [&](size_t i) {
    if (i > first_failed.load(std::memory_order_relaxed)) return;
    errors[i] = LabelOne(executor, samples, queries[i], &out[i]);
    if (!errors[i].ok()) {
      size_t seen = first_failed.load(std::memory_order_relaxed);
      while (i < seen && !first_failed.compare_exchange_weak(
                             seen, i, std::memory_order_relaxed)) {
      }
      return;
    }
    if (options.progress) {
      util::MutexLock lock(progress_mu);
      options.progress(++done, n);
    }
  });
  const size_t failed = first_failed.load(std::memory_order_relaxed);
  if (failed < n) return errors[failed];
  return out;
}

}  // namespace ds::workload
