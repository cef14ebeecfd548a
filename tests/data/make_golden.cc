// Writes the golden-estimate fixtures in this directory: two small format-v2
// sketches that carry packed weights (int8 with sample bitmaps, fp16
// without), and for each a list of generated SQL statements with the fp32
// estimate the sketch gives on the default kernel tier.
//
// It needs the packed-weight API (DeepSketch::SetQuantMode), so it builds
// only against the commit named in README.md; see there for the command.
// golden_test.cc checks the recorded estimates against the current code.

#include <cstdio>
#include <string>
#include <vector>

#include "ds/datagen/imdb.h"
#include "ds/sketch/deep_sketch.h"
#include "ds/workload/generator.h"

namespace {

using ds::sketch::DeepSketch;

struct Fixture {
  const char* name;
  std::vector<std::string> tables;
  bool bitmaps;
  ds::nn::QuantMode mode;
  uint64_t seed;
};

int Make(const ds::storage::Catalog& db, const Fixture& f,
         const std::string& dir, size_t num_statements) {
  ds::sketch::SketchConfig config;
  config.tables = f.tables;
  config.num_samples = 12;
  config.num_training_queries = 600;
  config.num_epochs = 8;
  config.hidden_units = 16;
  config.batch_size = 64;
  config.max_tables_per_query = 3;
  config.use_sample_bitmaps = f.bitmaps;
  config.seed = f.seed;
  auto trained = DeepSketch::Train(db, config);
  if (!trained.ok()) {
    std::fprintf(stderr, "%s: %s\n", f.name,
                 trained.status().ToString().c_str());
    return 1;
  }
  trained->SetQuantMode(f.mode);
  const std::string sketch_path = dir + "/" + f.name + ".sketch";
  if (!trained->Save(sketch_path).ok()) return 1;

  // Record from the file, not the in-memory sketch, with the packed copy
  // dropped so the estimates are the fp32 weights'.
  auto loaded = DeepSketch::Load(sketch_path);
  if (!loaded.ok() || loaded->quant_mode() != f.mode) return 1;
  loaded->SetQuantMode(ds::nn::QuantMode::kFp32);

  ds::workload::GeneratorOptions gen;
  gen.tables = f.tables;
  gen.min_tables = 1;
  gen.max_tables = 3;
  gen.min_predicates = 0;
  gen.max_predicates = 3;
  gen.seed = f.seed + 1000;
  auto generator = ds::workload::QueryGenerator::Create(&db, gen);
  if (!generator.ok()) return 1;
  std::FILE* out = std::fopen((dir + "/" + f.name + ".tsv").c_str(), "w");
  if (out == nullptr) return 1;
  for (size_t i = 0; i < num_statements; ++i) {
    const std::string sql = generator->Generate().ToSql();
    auto est = loaded->EstimateSql(sql);
    if (!est.ok()) {
      std::fprintf(stderr, "%s: %s\n", sql.c_str(),
                   est.status().ToString().c_str());
      return 1;
    }
    std::fprintf(out, "%.17g\t%s\n", *est, sql.c_str());
  }
  std::fclose(out);
  std::printf("%s: %zu bytes, %zu statements\n", f.name,
              loaded->SerializedSize(), num_statements);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string dir = argc > 1 ? argv[1] : ".";
  ds::datagen::ImdbOptions imdb;
  imdb.num_titles = 2000;
  imdb.seed = 42;
  auto db = ds::datagen::GenerateImdb(imdb);
  if (!db.ok()) return 1;
  const Fixture fixtures[] = {
      {"golden_int8_bitmaps", {"title", "movie_keyword", "keyword"}, true,
       ds::nn::QuantMode::kInt8, 11},
      {"golden_fp16_nobitmaps", {"title", "movie_companies", "company_name"},
       false, ds::nn::QuantMode::kFp16, 23},
  };
  for (const Fixture& f : fixtures) {
    if (Make(**db, f, dir, 100) != 0) return 1;
  }
  return 0;
}
