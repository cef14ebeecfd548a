// Fuzz target: featurization of any query the SQL front end accepts. For
// every input that parses and binds against the synthetic IMDb catalog,
// the library featurizer (FeaturizeSparse, the one training and estimation
// share) runs next to the reference featurizer in tests/test_util.cc, which
// derives its layout from the catalog alone. The harness enforces parity
// (same success/failure, bit-identical rows with and without bitmaps) and
// aborts on divergence — a libFuzzer-visible crash.

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "ds/datagen/imdb.h"
#include "ds/est/sample.h"
#include "ds/mscn/featurizer.h"
#include "ds/sql/binder.h"
#include "ds/storage/catalog.h"
#include "test_util.h"

namespace {

constexpr size_t kSampleSize = 64;

struct Fixture {
  const ds::storage::Catalog* catalog;
  ds::est::SampleSet samples;
  ds::mscn::FeatureSpace space;
};

Fixture* MakeFixture() {
  ds::datagen::ImdbOptions options;
  options.num_titles = 500;
  auto catalog = ds::datagen::GenerateImdb(options).value();
  auto samples = ds::est::SampleSet::Build(*catalog, kSampleSize, 7).value();
  auto space =
      ds::mscn::FeatureSpace::Create(*catalog, {}, kSampleSize).value();
  return new Fixture{catalog.release(), std::move(samples), std::move(space)};
}

[[noreturn]] void ParityFailure(const char* what, const std::string& sql) {
  std::fprintf(stderr,
               "featurizer/reference divergence (%s) for: %s\n", what,
               sql.c_str());
  std::abort();
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  static Fixture* fx = MakeFixture();
  if (size > 4096) return 0;
  const std::string sql(reinterpret_cast<const char*>(data), size);

  auto spec = ds::sql::ParseAndBind(*fx->catalog, sql);
  if (!spec.ok()) return 0;

  static thread_local ds::mscn::FeaturizeScratch scratch;
  static thread_local ds::mscn::SparseQueryFeatures sparse;
  for (bool use_bitmaps : {true, false}) {
    auto want = ds::testutil::ReferenceFeaturize(
        *fx->catalog, {}, kSampleSize, fx->samples, use_bitmaps, *spec);
    auto status = fx->space.FeaturizeSparse(*spec, fx->samples, use_bitmaps,
                                            &scratch, &sparse);
    if (want.ok() != status.ok()) ParityFailure("status", sql);
    if (!want.ok()) continue;
    if (!ds::testutil::BitIdentical(sparse.tables.ToDense(), want->tables)) {
      ParityFailure("tables", sql);
    }
    if (!ds::testutil::BitIdentical(sparse.joins.ToDense(), want->joins)) {
      ParityFailure("joins", sql);
    }
    if (!ds::testutil::BitIdentical(sparse.predicates.ToDense(),
                                    want->predicates)) {
      ParityFailure("predicates", sql);
    }
  }
  return 0;
}

#include "fuzz_driver.h"
