// Ablation A1: the value of the sample bitmaps. §2 motivates MSCN as
// "builds on sampling-based estimation": in addition to static query
// features, qualifying-sample bitmaps are fed to the model. This bench
// trains two identically configured sketches — with and without bitmaps —
// on the same labeled workload and compares JOB-light q-errors.
//
// Usage: bench_ablation_bitmaps [titles=15000] [queries=8000] [epochs=25]
//        [samples=256]

#include <cstdio>

#include "bench_util.h"
#include "ds/datagen/imdb.h"
#include "ds/exec/executor.h"
#include "ds/sketch/deep_sketch.h"
#include "ds/workload/generator.h"
#include "ds/workload/joblight.h"
#include "ds/workload/labeler.h"

using namespace ds;

int main(int argc, char** argv) {
  bench::Args args(argc, argv, {"titles=N", "queries=N", "epochs=N",
                                "samples=N", "seed=N", "out=PATH"});
  const size_t titles = args.GetInt("titles", 15'000);
  const size_t queries = args.GetInt("queries", 8'000);
  const size_t epochs = args.GetInt("epochs", 25);
  const size_t samples = args.GetInt("samples", 256);
  const uint64_t seed = args.GetInt("seed", 42);

  std::printf("== Ablation: sample bitmaps on/off ==\n");
  datagen::ImdbOptions imdb;
  imdb.num_titles = titles;
  imdb.seed = seed;
  auto catalog = datagen::GenerateImdb(imdb);
  DS_CHECK_OK(catalog.status());
  const storage::Catalog& db = **catalog;
  const auto tables = bench::JobLightTables();

  // Label one workload; both variants train from it, each featurizing it
  // against its own sample set (with or without the bitmaps).
  workload::GeneratorOptions gen_opts;
  gen_opts.tables = tables;
  gen_opts.max_tables = 5;
  gen_opts.min_predicates = 0;
  gen_opts.seed = seed + 1;
  auto generator = workload::QueryGenerator::Create(&db, gen_opts).value();
  auto labeled = workload::LabelQueries(db, /*samples=*/nullptr,
                                        generator.GenerateMany(queries))
                     .value();

  sketch::SketchConfig config;
  config.tables = tables;
  config.num_samples = samples;
  config.num_training_queries = queries;
  config.num_epochs = epochs;
  config.seed = seed;

  auto with_samples = est::SampleSet::Build(db, samples, seed).value();
  auto with = sketch::DeepSketch::TrainOnWorkload(db, config,
                                                  std::move(with_samples),
                                                  labeled);
  DS_CHECK_OK(with.status());

  config.use_sample_bitmaps = false;
  auto without_samples = est::SampleSet::Build(db, samples, seed).value();
  auto without = sketch::DeepSketch::TrainOnWorkload(
      db, config, std::move(without_samples), labeled);
  DS_CHECK_OK(without.status());

  // JOB-light evaluation.
  workload::JobLightOptions jl;
  jl.seed = seed + 1000;
  auto workload = workload::MakeJobLight(db, jl).value();
  exec::Executor executor(&db);
  std::vector<uint64_t> truths;
  for (const auto& spec : workload) {
    truths.push_back(executor.Count(spec).value());
  }

  const std::vector<std::pair<std::string, std::vector<double>>> rows = {
      {"MSCN with bitmaps", bench::QErrorsOn(*with, workload, truths)},
      {"MSCN without bitmaps", bench::QErrorsOn(*without, workload, truths)}};
  bench::PrintQErrorTable("JOB-light q-errors, same training workload", rows);
  bench::WriteBenchMetricsJson(
      args.GetString("out", "bench_results/ablation_bitmaps.json"),
      "ablation_bitmaps", bench::QErrorMetricRows(rows));
  std::printf(
      "\nshape: bitmaps improve estimation quality, most visibly in the "
      "tail\n(the model can 'see' which sampled tuples qualify instead of "
      "relying on\nstatic features alone).\n");
  return 0;
}
