// Query execution: computes exact COUNT(*) results for QuerySpecs.
//
// This is the ground-truth oracle the paper obtains from HyPer (step 3 of
// Figure 1a): training labels, validation labels, and the "true cardinality"
// overlay all come from here. The engine is a columnar select (the
// QualifyingBitmapInto kernel) + left-deep hash-join pipeline whose last
// join step counts its matches instead of materializing them — it only
// needs to be correct and reasonably fast on the demo-scale datasets.

#ifndef DS_EXEC_EXECUTOR_H_
#define DS_EXEC_EXECUTOR_H_

#include <cstdint>

#include "ds/storage/catalog.h"
#include "ds/workload/query_spec.h"

namespace ds::exec {

struct ExecutorOptions {
  /// Abort with OutOfRange once a join step's result (intermediate, or the
  /// final count) exceeds this many tuples; guards against runaway joins on
  /// user-authored queries.
  uint64_t max_intermediate_tuples = 200'000'000;
};

/// Executes COUNT(*) queries against a catalog.
class Executor {
 public:
  explicit Executor(const storage::Catalog* catalog,
                    ExecutorOptions options = {})
      : catalog_(catalog), options_(options) {}

  /// Exact result size of `spec`. Validates the spec first.
  Result<uint64_t> Count(const workload::QuerySpec& spec) const;

 private:
  const storage::Catalog* catalog_;
  ExecutorOptions options_;
};

}  // namespace ds::exec

#endif  // DS_EXEC_EXECUTOR_H_
