// Extension experiment P1: do better estimates buy better plans?
//
// The paper's motivation (§1): "Estimates of intermediate query result
// sizes are the core ingredient to cost-based query optimizers ... The
// estimates produced by Deep Sketches can directly be leveraged by
// existing, sophisticated join enumeration algorithms and cost models."
// This bench closes that loop with the methodology of "How Good Are Query
// Optimizers?" (Leis et al., PVLDB 2015): optimize every JOB-light query
// with each estimator plugged into the same left-deep C_out enumerator,
// then score the chosen join orders by their TRUE C_out cost relative to
// the true-optimal plan.
//
// Usage: bench_plan_quality [titles=10000] [queries=8000] [epochs=25]
//        [samples=256] [jl_queries=40]

#include <algorithm>
#include <cstdio>

#include "bench_util.h"
#include "ds/datagen/imdb.h"
#include "ds/est/hyper.h"
#include "ds/est/postgres.h"
#include "ds/est/truth.h"
#include "ds/exec/optimizer.h"
#include "ds/sketch/deep_sketch.h"
#include "ds/workload/joblight.h"

using namespace ds;

int main(int argc, char** argv) {
  bench::Args args(argc, argv, {"titles=N", "queries=N", "epochs=N",
                                "samples=N", "jl_queries=N", "seed=N",
                                "out=PATH"});
  const size_t titles = args.GetInt("titles", 10'000);
  const size_t queries = args.GetInt("queries", 8'000);
  const size_t epochs = args.GetInt("epochs", 25);
  const size_t samples = args.GetInt("samples", 256);
  const size_t jl_queries = args.GetInt("jl_queries", 40);
  const uint64_t seed = args.GetInt("seed", 42);

  std::printf("== Plan quality: estimates -> join orders (C_out) ==\n");
  datagen::ImdbOptions imdb;
  imdb.num_titles = titles;
  imdb.seed = seed;
  auto catalog = datagen::GenerateImdb(imdb);
  DS_CHECK_OK(catalog.status());
  const storage::Catalog& db = **catalog;

  sketch::SketchConfig config;
  config.tables = bench::JobLightTables();
  config.num_samples = samples;
  config.num_training_queries = queries;
  config.num_epochs = epochs;
  config.seed = seed;
  auto sketch = sketch::DeepSketch::Train(db, config);
  DS_CHECK_OK(sketch.status());

  est::TrueCardinality truth(&db);
  est::PostgresEstimator postgres(&db);
  auto baseline_samples = est::SampleSet::Build(db, samples, seed + 7).value();
  est::HyperEstimator hyper(&db, &baseline_samples);

  exec::JoinOrderOptimizer truth_opt(&db, &truth);
  std::vector<std::pair<std::string, const est::CardinalityEstimator*>>
      estimators = {{"Deep Sketch", &*sketch},
                    {"HyPer", &hyper},
                    {"PostgreSQL", &postgres}};

  workload::JobLightOptions jl;
  jl.num_queries = jl_queries;
  jl.seed = seed + 1000;
  auto workload = workload::MakeJobLight(db, jl).value();

  std::vector<std::vector<double>> ratios(estimators.size());
  std::vector<size_t> optimal_count(estimators.size(), 0);
  size_t evaluated = 0;
  for (const auto& spec : workload) {
    if (spec.tables.size() < 3) continue;  // join order only matters from 3
    auto best = truth_opt.Optimize(spec);
    DS_CHECK_OK(best.status());
    if (best->cost <= 0) continue;
    ++evaluated;
    for (size_t e = 0; e < estimators.size(); ++e) {
      auto plan = exec::JoinOrderOptimizer(&db, estimators[e].second)
                      .Optimize(spec);
      DS_CHECK_OK(plan.status());
      auto true_cost = truth_opt.CostOfOrder(spec, plan->order);
      DS_CHECK_OK(true_cost.status());
      const double ratio = *true_cost / best->cost;
      ratios[e].push_back(ratio);
      if (ratio <= 1.0 + 1e-9) ++optimal_count[e];
    }
  }

  std::printf("\n%zu queries with >= 2 joins; true-cost / optimal-cost "
              "ratios:\n\n",
              evaluated);
  std::printf("%-12s %10s %10s %10s %10s %12s\n", "estimator", "median",
              "90th", "max", "mean", "optimal-rate");
  std::vector<bench::MetricRow> rows;
  for (size_t e = 0; e < estimators.size(); ++e) {
    auto& r = ratios[e];
    const double optimal_rate = 100.0 *
                                static_cast<double>(optimal_count[e]) /
                                static_cast<double>(evaluated);
    std::printf("%-12s %10.3f %10.3f %10.2f %10.3f %11.0f%%\n",
                estimators[e].first.c_str(), util::Median(r),
                util::Percentile(r, 90), *std::max_element(r.begin(), r.end()),
                util::Mean(r), optimal_rate);
    rows.push_back({estimators[e].first,
                    {{"median", util::Median(r)},
                     {"p90", util::Percentile(r, 90)},
                     {"max", *std::max_element(r.begin(), r.end())},
                     {"mean", util::Mean(r)},
                     {"optimal_rate_pct", optimal_rate}}});
  }
  bench::WriteBenchMetricsJson(
      args.GetString("out", "bench_results/plan_quality.json"),
      "plan_quality", rows);
  std::printf(
      "\nreading: on JOB-light's star-shaped queries every estimator yields "
      "plans\nwithin a few percent of the true optimum — left-deep ordering "
      "around a\nsingle hub is forgiving of estimation error (consistent "
      "with Leis et al.,\nwhere large plan regressions appear at higher "
      "join counts and with cross\nproducts). The estimate-quality gap "
      "measured in Table 1 therefore shows up\nin the tail ratios here, "
      "not the medians.\n");
  return 0;
}
