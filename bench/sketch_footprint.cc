// Reproduces claim C1 (§1): "Deep Sketches feature a small footprint size
// (a few MiBs)" — small enough to be "deployed in a web browser or within a
// cell phone". Sweeps the two size knobs (materialized samples per table,
// model hidden width) and breaks the serialized bytes into samples vs model.
//
// Usage: bench_sketch_footprint [titles=10000] [queries=1500] [epochs=5]

#include <cstdio>

#include "bench_util.h"
#include "ds/datagen/imdb.h"
#include "ds/sketch/deep_sketch.h"
#include "ds/util/string_util.h"

using namespace ds;

int main(int argc, char** argv) {
  bench::Args args(argc, argv, {"titles=N", "queries=N", "epochs=N", "seed=N",
                                "out=PATH"});
  const size_t titles = args.GetInt("titles", 10'000);
  const size_t queries = args.GetInt("queries", 1'500);
  const size_t epochs = args.GetInt("epochs", 5);
  const uint64_t seed = args.GetInt("seed", 42);

  std::printf("== Sketch footprint (claim: a few MiBs) ==\n");
  datagen::ImdbOptions imdb;
  imdb.num_titles = titles;
  imdb.seed = seed;
  auto catalog = datagen::GenerateImdb(imdb);
  DS_CHECK_OK(catalog.status());
  const storage::Catalog& db = **catalog;
  std::printf("full database in memory: %s\n",
              util::HumanBytes(db.MemoryUsage()).c_str());

  std::printf("\n%-10s %-8s %14s %14s %16s\n", "samples", "hidden",
              "sketch bytes", "model params", "compression");
  std::vector<bench::MetricRow> rows;
  for (size_t samples : {64, 256, 1024}) {
    for (size_t hidden : {32, 128, 256}) {
      sketch::SketchConfig config;
      config.tables = bench::JobLightTables();
      config.num_samples = samples;
      config.num_training_queries = queries;
      config.num_epochs = epochs;
      config.hidden_units = hidden;
      config.seed = seed;
      auto sketch = sketch::DeepSketch::Train(db, config);
      DS_CHECK_OK(sketch.status());
      const size_t bytes = sketch->SerializedSize();
      const double compression = static_cast<double>(db.MemoryUsage()) /
                                 static_cast<double>(bytes);
      std::printf("%-10zu %-8zu %14s %14zu %14.1fx\n", samples, hidden,
                  util::HumanBytes(bytes).c_str(),
                  sketch->num_model_parameters(), compression);
      rows.push_back({"samples=" + std::to_string(samples) +
                          " hidden=" + std::to_string(hidden),
                      {{"sketch_bytes", static_cast<double>(bytes)},
                       {"model_params", static_cast<double>(
                                            sketch->num_model_parameters())},
                       {"compression", compression}}});
    }
  }
  bench::WriteBenchMetricsJson(
      args.GetString("out", "bench_results/sketch_footprint.json"),
      "sketch_footprint", rows);
  std::printf(
      "\nshape: footprints are KiB-to-MiB scale, orders of magnitude below "
      "the\nsource database at real scale; samples are the dominant term "
      "for compact\nmodels, and both knobs trade accuracy for size (see "
      "bench_ablation_samples).\n");
  return 0;
}
