// Deep Sketches: compact model-based representations of databases that
// estimate SQL COUNT(*) result sizes — the paper's headline artifact.
//
// "A Deep Sketch is essentially a wrapper for a (serialized) neural network
//  and a set of materialized samples." (§1)
//
// A sketch is fully standalone once trained: it carries the materialized
// samples (with their dictionaries), the feature space, the label
// normalizer, and the trained MSCN weights, plus just enough schema metadata
// to bind ad-hoc SQL. It does not reference the source database, which is
// what makes it deployable "in a web browser or within a cell phone" (§1).

#ifndef DS_SKETCH_DEEP_SKETCH_H_
#define DS_SKETCH_DEEP_SKETCH_H_

#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "ds/est/estimator.h"
#include "ds/est/sample.h"
#include "ds/mscn/featurizer.h"
#include "ds/mscn/model.h"
#include "ds/mscn/trainer.h"
#include "ds/sql/binder.h"
#include "ds/storage/catalog.h"

namespace ds::sketch {

/// Step 1 of Figure 1a: the user-facing knobs for creating a sketch.
struct SketchConfig {
  /// Table subset the sketch covers (empty = every table of the database).
  std::vector<std::string> tables;

  /// Materialized samples per base table (paper example: 1000).
  size_t num_samples = 1000;

  /// Uniformly generated training queries (paper: 10,000 "already
  /// sufficient" for small table subsets).
  size_t num_training_queries = 10'000;

  /// Training epochs (paper: "25 epochs are usually enough").
  size_t num_epochs = 25;

  size_t hidden_units = 64;
  size_t batch_size = 128;
  float learning_rate = 1e-3f;
  mscn::LossKind loss = mscn::LossKind::kQError;

  /// Query generator shape: up to (max_tables_per_query - 1) joins and up to
  /// max_predicates selections per training query.
  size_t max_tables_per_query = 5;
  size_t min_predicates = 0;
  size_t max_predicates = 4;

  /// When false, sample bitmaps are excluded from the featurization (the
  /// bitmap slots stay zero) — the ablation for the paper's "integration of
  /// (runtime) sampling" design decision. Samples are still materialized
  /// for templates and literal resolution.
  bool use_sample_bitmaps = true;

  /// Worker threads for data-parallel minibatch training (1 = the exact
  /// sequential path). See mscn::TrainerOptions::threads.
  size_t training_threads = 1;

  double validation_fraction = 0.1;
  uint64_t seed = 42;
};

/// Progress hooks for the demo's monitoring UI (labeling + epochs).
struct TrainingMonitor {
  /// Called from the labeling threads, one call at a time, with `done`
  /// strictly increasing (workload::LabelerOptions::progress).
  std::function<void(size_t done, size_t total)> on_labeling_progress;
  std::function<void(const mscn::EpochStats&)> on_epoch;
  /// Forwarded to mscn::TrainerOptions::obs_registry — per-epoch metrics
  /// (ds_train_*) land here when set.
  obs::Registry* obs_registry = nullptr;
};

class DeepSketch final : public est::CardinalityEstimator {
 public:
  /// Runs the full creation pipeline of Figure 1a against `db`:
  /// sample -> generate queries -> execute (labels) -> featurize (bitmaps
  /// on the samples) -> train.
  static Result<DeepSketch> Train(const storage::Catalog& db,
                                  const SketchConfig& config,
                                  const TrainingMonitor* monitor = nullptr);

  /// Trains from a pre-labeled workload (reusing cached labeling runs).
  /// Bitmaps are evaluated against `samples` while featurizing; the
  /// workload's own `bitmaps` are not read.
  static Result<DeepSketch> TrainOnWorkload(
      const storage::Catalog& db, const SketchConfig& config,
      est::SampleSet samples,
      const std::vector<workload::LabeledQuery>& workload,
      const TrainingMonitor* monitor = nullptr);

  // --- Figure 1b: SQL in, estimate out -------------------------------------
  //
  // Every estimate, single or batched, runs through EstimateManyInto and
  // MscnModel::InferSparse, so all entry points return identical doubles.
  //
  // Thread-safety: all estimation and binding methods are const and touch no
  // shared mutable state (scratch is thread-local), so a trained or loaded
  // sketch may be shared by any number of concurrently estimating threads
  // without external synchronization.

  /// Estimates the result size of a SQL COUNT(*) query. Unknown categorical
  /// literals (strings absent from the data) estimate 1 tuple.
  Result<double> EstimateSql(const std::string& sql) const;

  /// Estimator interface over pre-bound query specs: a one-element
  /// EstimateManyInto.
  Result<double> EstimateCardinality(
      const workload::QuerySpec& spec) const override;
  std::string name() const override { return "Deep Sketch"; }

  /// Batched estimation: featurizes all specs and runs a single padded
  /// forward pass — the serving layer's hot path and how the demo backend
  /// evaluates the many instances of a query template efficiently. Order of
  /// results matches `specs`. Failures are per query: a spec that cannot be
  /// featurized yields an errored Result in its slot without poisoning the
  /// rest of the batch (unknown categorical literals still estimate 1).
  std::vector<Result<double>> EstimateMany(
      const std::vector<workload::QuerySpec>& specs) const;

  /// EstimateMany into a caller-reused results vector — the serving hot
  /// path and the only inference path. Featurization runs sparse (CSR rows
  /// straight into the fused sparse kernels) and every intermediate lives
  /// in thread-local scratch that keeps its capacity, so steady-state
  /// batches perform zero heap allocations.
  void EstimateManyInto(std::span<const workload::QuerySpec> specs,
                        std::vector<Result<double>>* out) const;

  /// Parses and binds SQL against the sketch's embedded schema (the template
  /// engine uses this to extract placeholders).
  Result<sql::BoundQuery> BindSql(const std::string& sql) const;

  // --- Introspection ---------------------------------------------------------

  /// Embedded schema: the sampled tables plus key metadata. Suitable for
  /// binding queries; contains only sampled tuples.
  const storage::Catalog& schema() const { return *sample_catalog_; }

  const est::SampleSet& samples() const { return samples_; }
  const mscn::FeatureSpace& feature_space() const { return space_; }
  const std::vector<std::string>& tables() const { return tables_; }
  size_t num_model_parameters() const { return model_->NumParameters(); }

  /// Training curve of the run that produced this sketch (empty after
  /// loading from disk; the curve is not persisted).
  const mscn::TrainingReport& training_report() const { return report_; }

  // --- Persistence --------------------------------------------------------------
  //
  // Write emits format v1: config, samples, feature space, normalizer and
  // the fp32 model. Read also accepts v2, which appends a packed int8/fp16
  // weight section; it is validated and discarded, so a v2 sketch serves
  // its fp32 weights.

  void Write(util::BinaryWriter* writer) const;
  static Result<DeepSketch> Read(util::BinaryReader* reader);
  Status Save(const std::string& path) const;
  static Result<DeepSketch> Load(const std::string& path);

  /// Size of the serialized sketch in bytes (the paper's "few MiBs"
  /// footprint claim); dominated by the materialized samples.
  size_t SerializedSize() const;

 private:
  DeepSketch() = default;

  /// Rebuilds sample_catalog_ from samples_ + key metadata.
  Status BuildSampleCatalog();

  std::vector<std::string> tables_;
  bool use_sample_bitmaps_ = true;
  std::vector<storage::ForeignKey> fks_;
  std::vector<std::pair<std::string, std::string>> pks_;  // table -> column
  size_t num_samples_ = 0;

  est::SampleSet samples_;
  mscn::FeatureSpace space_;
  nn::LogNormalizer normalizer_;
  std::unique_ptr<mscn::MscnModel> model_;
  std::unique_ptr<storage::Catalog> sample_catalog_;
  mscn::TrainingReport report_;
};

}  // namespace ds::sketch

#endif  // DS_SKETCH_DEEP_SKETCH_H_
