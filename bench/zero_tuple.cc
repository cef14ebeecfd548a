// Reproduces claim C3 (§2): "One advantage of our approach over pure
// sampling-based cardinality estimators is that it addresses 0-tuple
// situations ... sampling-based approaches usually fall back to an
// 'educated' guess — causing large estimation errors. Our approach, in
// contrast, handles such situations reasonably well."
//
// The bench generates selective conjunctive queries, splits them by whether
// the HyPer baseline lands in a 0-tuple situation (no sampled tuple
// qualifies on some predicated table), and reports q-errors per group.
// It also compares HyPer's crude fallback against the smarter
// distinct-count fallback as a baseline-internal ablation.
//
// Usage: bench_zero_tuple [titles=15000] [queries=8000] [epochs=25]
//        [samples=128] [eval_queries=400]

#include <cstdio>

#include "bench_util.h"
#include "ds/datagen/imdb.h"
#include "ds/est/hyper.h"
#include "ds/est/postgres.h"
#include "ds/exec/executor.h"
#include "ds/sketch/deep_sketch.h"
#include "ds/workload/generator.h"

using namespace ds;

int main(int argc, char** argv) {
  bench::Args args(argc, argv, {"titles=N", "queries=N", "epochs=N",
                                "samples=N", "eval_queries=N", "seed=N",
                                "out=PATH"});
  const size_t titles = args.GetInt("titles", 15'000);
  const size_t queries = args.GetInt("queries", 8'000);
  const size_t epochs = args.GetInt("epochs", 25);
  const size_t samples = args.GetInt("samples", 128);
  const size_t eval_queries = args.GetInt("eval_queries", 400);
  const uint64_t seed = args.GetInt("seed", 42);

  std::printf("== 0-tuple situations (paper section 2) ==\n");
  datagen::ImdbOptions imdb;
  imdb.num_titles = titles;
  imdb.seed = seed;
  auto catalog = datagen::GenerateImdb(imdb);
  DS_CHECK_OK(catalog.status());
  const storage::Catalog& db = **catalog;
  const auto tables = bench::JobLightTables();

  sketch::SketchConfig config;
  config.tables = tables;
  config.num_samples = samples;
  config.num_training_queries = queries;
  config.num_epochs = epochs;
  config.seed = seed;
  auto sketch = sketch::DeepSketch::Train(db, config);
  DS_CHECK_OK(sketch.status());

  auto baseline_samples = est::SampleSet::Build(db, samples, seed + 7).value();
  est::HyperEstimator hyper(&db, &baseline_samples);
  est::HyperOptions smart_opts;
  smart_opts.fallback_uses_distinct_counts = true;
  est::HyperEstimator hyper_smart(&db, &baseline_samples, smart_opts);
  est::PostgresEstimator postgres(&db);

  // Selective evaluation workload: 2-3 predicates makes empty sample
  // intersections common.
  workload::GeneratorOptions gen_opts;
  gen_opts.tables = tables;
  gen_opts.max_tables = 4;
  gen_opts.min_predicates = 2;
  gen_opts.max_predicates = 3;
  gen_opts.seed = seed + 5000;
  auto generator = workload::QueryGenerator::Create(&db, gen_opts).value();
  exec::Executor executor(&db);

  std::vector<workload::QuerySpec> zero_q, rest_q;
  std::vector<uint64_t> zero_t, rest_t;
  while (zero_q.size() < eval_queries / 2 || rest_q.size() < eval_queries / 2) {
    auto spec = generator.Generate();
    auto truth = executor.Count(spec);
    if (!truth.ok() || *truth == 0) continue;  // non-degenerate only
    bool zero = hyper.HasZeroTupleSituation(spec).value();
    if (zero && zero_q.size() < eval_queries / 2) {
      zero_q.push_back(spec);
      zero_t.push_back(*truth);
    } else if (!zero && rest_q.size() < eval_queries / 2) {
      rest_q.push_back(spec);
      rest_t.push_back(*truth);
    }
  }
  std::printf("collected %zu 0-tuple and %zu regular queries "
              "(truth > 0 in both groups)\n",
              zero_q.size(), rest_q.size());

  const std::vector<std::pair<std::string, std::vector<double>>> zero_rows = {
      {"Deep Sketch", bench::QErrorsOn(*sketch, zero_q, zero_t)},
      {"HyPer (default fallback)", bench::QErrorsOn(hyper, zero_q, zero_t)},
      {"HyPer (1/ndistinct fallback)",
       bench::QErrorsOn(hyper_smart, zero_q, zero_t)},
      {"PostgreSQL", bench::QErrorsOn(postgres, zero_q, zero_t)}};
  const std::vector<std::pair<std::string, std::vector<double>>> rest_rows = {
      {"Deep Sketch", bench::QErrorsOn(*sketch, rest_q, rest_t)},
      {"HyPer", bench::QErrorsOn(hyper, rest_q, rest_t)},
      {"PostgreSQL", bench::QErrorsOn(postgres, rest_q, rest_t)}};
  bench::PrintQErrorTable("q-errors on queries WITH a 0-tuple situation",
                          zero_rows);
  bench::PrintQErrorTable("q-errors on queries WITHOUT a 0-tuple situation",
                          rest_rows);

  std::vector<bench::MetricRow> all_rows;
  for (auto& row : bench::QErrorMetricRows(zero_rows)) {
    row.name = "0-tuple: " + row.name;
    all_rows.push_back(std::move(row));
  }
  for (auto& row : bench::QErrorMetricRows(rest_rows)) {
    row.name = "regular: " + row.name;
    all_rows.push_back(std::move(row));
  }
  bench::WriteBenchMetricsJson(
      args.GetString("out", "bench_results/zero_tuple.json"), "zero_tuple",
      all_rows);

  std::printf(
      "\nshape: on the 0-tuple subset the sampling estimator's q-errors "
      "explode\n(educated-guess fallback) while the Deep Sketch stays "
      "moderate; without\n0-tuple situations sampling is competitive.\n");
  return 0;
}
