// Golden estimates: two checked-in format-v2 sketches (tests/data, see the
// README.md there) and the fp32 estimate recorded for each of their
// generated SQL statements. Every public estimation path must reproduce the
// recorded doubles exactly on every available kernel tier; a refactor of
// inference, featurization or persistence that moves any estimate fails
// here.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "ds/nn/kernels.h"
#include "ds/serve/registry.h"
#include "ds/serve/server.h"
#include "ds/sketch/deep_sketch.h"

namespace ds {
namespace {

using sketch::DeepSketch;

struct Golden {
  double estimate = 0;
  std::string sql;
};

std::string DataPath(const std::string& file) {
  return std::string(DS_TEST_DATA_DIR) + "/" + file;
}

std::vector<Golden> ReadGoldens(const std::string& path) {
  std::vector<Golden> out;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    const size_t tab = line.find('\t');
    if (tab == std::string::npos) continue;
    out.push_back({std::strtod(line.c_str(), nullptr), line.substr(tab + 1)});
  }
  return out;
}

// The recorded estimates are the fp32 weights'. A build that can still
// serve a v2 file's packed int8/fp16 copy is switched to fp32 (mode 0), so
// one unchanged test checks that build and the builds after it.
template <typename Sketch>
void UseFp32Weights(Sketch* sketch) {
  if constexpr (requires { sketch->SetQuantMode(decltype(sketch->quant_mode()){}); }) {
    sketch->SetQuantMode(decltype(sketch->quant_mode()){});
  }
}

DeepSketch LoadFixture(const std::string& name) {
  auto loaded = DeepSketch::Load(DataPath(name + ".sketch"));
  EXPECT_TRUE(loaded.ok()) << name << ": " << loaded.status().ToString();
  UseFp32Weights(&loaded.value());
  return std::move(loaded).value();
}

void ExpectGolden(double got, const Golden& g, nn::KernelTier tier,
                  const char* path) {
  EXPECT_EQ(got, g.estimate) << path << " " << nn::KernelTierName(tier)
                             << ": " << g.sql;
}

class GoldenTest : public ::testing::TestWithParam<const char*> {};

TEST_P(GoldenTest, EveryEstimatePathReproducesTheRecordedEstimates) {
  const std::string name = GetParam();
  const std::vector<Golden> goldens = ReadGoldens(DataPath(name + ".tsv"));
  ASSERT_GE(goldens.size(), 100u);
  const DeepSketch sketch = LoadFixture(name);

  std::vector<workload::QuerySpec> specs;
  for (const Golden& g : goldens) {
    auto bound = sketch.BindSql(g.sql);
    ASSERT_TRUE(bound.ok()) << g.sql << ": " << bound.status().ToString();
    specs.push_back(bound->spec);
  }

  const nn::KernelTier default_tier = nn::ActiveKernelTier();
  for (nn::KernelTier tier : nn::AvailableKernelTiers()) {
    ASSERT_TRUE(nn::SetKernelTier(tier));
    const std::vector<Result<double>> all = sketch.EstimateMany(specs);
    ASSERT_EQ(all.size(), goldens.size());
    for (size_t i = 0; i < goldens.size(); ++i) {
      ASSERT_TRUE(all[i].ok()) << all[i].status().ToString();
      ExpectGolden(*all[i], goldens[i], tier, "EstimateMany(all)");
      ExpectGolden(sketch.EstimateSql(goldens[i].sql).value(), goldens[i],
                   tier, "EstimateSql");
      ExpectGolden(sketch.EstimateCardinality(specs[i]).value(), goldens[i],
                   tier, "EstimateCardinality");
      const std::vector<Result<double>> one = sketch.EstimateMany({specs[i]});
      ExpectGolden(one.at(0).value(), goldens[i], tier, "EstimateMany(1)");
    }
  }
  ASSERT_TRUE(nn::SetKernelTier(default_tier));

  // The in-process serving stack, on the default tier.
  serve::SketchRegistry registry(serve::RegistryOptions{});
  registry.Put("golden", LoadFixture(name));
  serve::SketchServer server(&registry);
  std::vector<serve::Submission> submissions;
  for (const Golden& g : goldens) {
    submissions.push_back(server.Submit("golden", g.sql));
    ASSERT_TRUE(submissions.back().accepted());
  }
  for (size_t i = 0; i < goldens.size(); ++i) {
    ExpectGolden(submissions[i].future.get().value(), goldens[i],
                 default_tier, "SketchServer");
  }
  server.Stop();

  // Save -> Load round trip serves the same estimates.
  const std::string path = testing::TempDir() + "/ds_golden_" + name + ".sketch";
  ASSERT_TRUE(sketch.Save(path).ok());
  auto reloaded = DeepSketch::Load(path);
  ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();
  const std::vector<Result<double>> again = reloaded->EstimateMany(specs);
  for (size_t i = 0; i < goldens.size(); ++i) {
    ExpectGolden(again.at(i).value(), goldens[i], default_tier, "reloaded");
  }
  std::remove(path.c_str());
}

TEST_P(GoldenTest, SaveWritesFormatV1WithoutThePackedSection) {
  const std::string name = GetParam();
  const DeepSketch sketch = LoadFixture(name);
  util::BinaryWriter w;
  sketch.Write(&w);
  util::BinaryReader r(w.buffer());
  uint32_t magic = 0, version = 0;
  ASSERT_TRUE(r.ReadU32(&magic).ok());
  ASSERT_TRUE(r.ReadU32(&version).ok());
  EXPECT_EQ(version, 1u);
  EXPECT_LT(w.size(), std::filesystem::file_size(DataPath(name + ".sketch")));
}

INSTANTIATE_TEST_SUITE_P(Fixtures, GoldenTest,
                         ::testing::Values("golden_int8_bitmaps",
                                           "golden_fp16_nobitmaps"));

}  // namespace
}  // namespace ds
