// Tests for the stress harness (src/ds/stress/): grammar determinism and
// semantic preservation, the torn-file corpus sweep (DeepSketch::Load must
// return a Status for any byte soup, never crash), and short end-to-end
// RunStress runs — the tier-1 slice of what the CI soak job runs for
// minutes under TSan.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "ds/sketch/deep_sketch.h"
#include "ds/stress/grammar.h"
#include "ds/stress/harness.h"
#include "ds/stress/oracles.h"
#include "ds/stress/torn.h"
#include "test_util.h"

namespace ds {
namespace {

namespace fs = std::filesystem;

using sketch::DeepSketch;
using stress::GeneratedQuery;
using stress::GrammarOptions;
using stress::QueryKind;
using stress::StressGrammar;
using stress::StressOptions;

// The trained corpus is the expensive part; build it once for the suite
// (and for repeated local runs — PrepareStressCorpus is idempotent on
// disk, so only the first-ever run trains).
class StressTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    dir_ = new std::string(testing::TempDir() + "/ds_stress_corpus");
    ASSERT_TRUE(stress::PrepareStressCorpus(*dir_).ok());
    stable_ = new DeepSketch(
        DeepSketch::Load(*dir_ + "/stable.sketch").value());
  }

  static void TearDownTestSuite() {
    delete stable_;
    delete dir_;
    stable_ = nullptr;
    dir_ = nullptr;
  }

  static GrammarOptions Options(uint64_t seed) {
    GrammarOptions options;
    options.seed = seed;
    options.spec.max_tables = 2;
    options.spec.min_predicates = 1;
    options.spec.max_predicates = 2;
    options.spec.seed = seed * 1000003 + 1;
    return options;
  }

  static StressGrammar MakeGrammar(uint64_t seed) {
    auto g = StressGrammar::Create(&stable_->schema(), Options(seed));
    EXPECT_TRUE(g.ok()) << g.status().ToString();
    return std::move(g).value();
  }

  static std::string* dir_;
  static DeepSketch* stable_;
};

std::string* StressTest::dir_ = nullptr;
DeepSketch* StressTest::stable_ = nullptr;

// ------------------------------------------------------------- grammar

TEST_F(StressTest, GrammarReplaysBitForBitFromItsSeed) {
  StressGrammar a = MakeGrammar(42);
  StressGrammar b = MakeGrammar(42);
  StressGrammar c = MakeGrammar(43);
  bool any_difference = false;
  for (int i = 0; i < 300; ++i) {
    GeneratedQuery qa = a.NextQuery();
    GeneratedQuery qb = b.NextQuery();
    ASSERT_EQ(qa.sql, qb.sql) << "draw " << i;
    ASSERT_EQ(qa.kind, qb.kind) << "draw " << i;
    if (qa.sql != c.NextQuery().sql) any_difference = true;
  }
  EXPECT_TRUE(any_difference) << "seed does not influence the stream";
}

TEST_F(StressTest, GrammarCoversAllQueryKinds) {
  StressGrammar g = MakeGrammar(7);
  int well_formed = 0;
  int placeholder = 0;
  int malformed = 0;
  for (int i = 0; i < 500; ++i) {
    switch (g.NextQuery().kind) {
      case QueryKind::kWellFormed: ++well_formed; break;
      case QueryKind::kPlaceholder: ++placeholder; break;
      case QueryKind::kMalformed: ++malformed; break;
    }
  }
  EXPECT_GT(well_formed, 300);
  EXPECT_GT(placeholder, 0);
  EXPECT_GT(malformed, 0);
}

TEST_F(StressTest, PlaceholderLandsOutsideStringLiterals) {
  // Regression: the literal-to-'?' substitution used to hit the first
  // textual occurrence, which for "4" could be inside 'keyword-47' —
  // producing 'keyword-?7', a legal string the parser rightly accepts.
  StressGrammar g = MakeGrammar(20260807);
  int placeholders = 0;
  for (int i = 0; i < 2000; ++i) {
    GeneratedQuery q = g.NextQuery();
    if (q.kind != QueryKind::kPlaceholder) continue;
    ++placeholders;
    bool inside = false;
    bool bare_placeholder = false;
    for (char c : q.sql) {
      if (c == '\'') inside = !inside;
      if (c == '?' && !inside) bare_placeholder = true;
    }
    EXPECT_TRUE(bare_placeholder)
        << "'?' only inside a string literal: " << q.sql;
  }
  EXPECT_GT(placeholders, 0);
}

TEST_F(StressTest, WellFormedQueriesEstimateAndPlaceholdersFail) {
  StressGrammar g = MakeGrammar(11);
  int checked = 0;
  for (int i = 0; i < 200; ++i) {
    GeneratedQuery q = g.NextQuery();
    auto est = stable_->EstimateSql(q.sql);
    switch (q.kind) {
      case QueryKind::kWellFormed:
        ASSERT_TRUE(est.ok())
            << est.status().ToString() << " for: " << q.sql;
        EXPECT_GE(*est, 0.0);
        ++checked;
        break;
      case QueryKind::kPlaceholder:
        EXPECT_FALSE(est.ok()) << "placeholder estimated: " << q.sql;
        break;
      case QueryKind::kMalformed:
        break;  // any Status (or even a lucky parse) is acceptable
    }
  }
  EXPECT_GT(checked, 100);
}

TEST_F(StressTest, RenderPreservesSemantics) {
  // A decorated rendering (casing, aliases, shuffles, flipped operands)
  // must estimate exactly like the canonical ToSql form — the property the
  // determinism oracle leans on.
  StressGrammar g = MakeGrammar(13);
  for (int i = 0; i < 60; ++i) {
    const workload::QuerySpec spec = g.NextSpec();
    auto canonical = stable_->EstimateSql(spec.ToSql());
    ASSERT_TRUE(canonical.ok()) << spec.ToSql();
    for (int r = 0; r < 3; ++r) {
      const std::string rendered = g.Render(spec);
      auto decorated = stable_->EstimateSql(rendered);
      ASSERT_TRUE(decorated.ok())
          << decorated.status().ToString() << " for: " << rendered;
      EXPECT_TRUE(stress::EstimatesAgree(*canonical, *decorated))
          << *canonical << " vs " << *decorated << " for: " << rendered;
    }
  }
}

TEST_F(StressTest, MetamorphicPairsTightenTheBase) {
  StressGrammar g = MakeGrammar(17);
  for (int i = 0; i < 40; ++i) {
    auto pair = g.NextPair();
    ASSERT_TRUE(pair.ok()) << pair.status().ToString();
    EXPECT_EQ(pair->tightened.predicates.size(),
              pair->base.predicates.size() + 1);
    EXPECT_TRUE(stable_->EstimateSql(pair->base.ToSql()).ok());
    EXPECT_TRUE(stable_->EstimateSql(pair->tightened.ToSql()).ok());
  }
}

// ---------------------------------------------------------- torn files

TEST_F(StressTest, TornSketchFilesNeverCrashLoad) {
  std::ifstream in(*dir_ + "/stable.sketch", std::ios::binary);
  ASSERT_TRUE(in.good());
  const std::vector<uint8_t> valid((std::istreambuf_iterator<char>(in)),
                                   std::istreambuf_iterator<char>());
  ASSERT_GT(valid.size(), 64u);

  stress::TornCorpusOptions options;
  options.seed = 1;  // dense header prefix + strided sweep crosses every
                     // section boundary; defaults per torn.h
  const auto corpus = stress::MakeTornCorpus(valid, options);
  ASSERT_GT(corpus.size(), 300u);

  const std::string path = testing::TempDir() + "/ds_stress_torn.sketch";
  size_t flip_survivors = 0;
  size_t flips = 0;
  for (const auto& c : corpus) {
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out.write(reinterpret_cast<const char*>(c.bytes.data()),
                static_cast<std::streamsize>(c.bytes.size()));
    }
    const bool truncated = c.bytes.size() < valid.size();
    if (!truncated) ++flips;
    auto loaded = DeepSketch::Load(path);  // must return, never crash
    if (!loaded.ok()) continue;
    // Every truncation strictly shrinks the file and every section encodes
    // its element counts, so a shortened file must never parse.
    EXPECT_FALSE(truncated) << "truncated file parsed: " << c.what;
    // A bit flip landing in value payload (weights, sample cells) is
    // indistinguishable from data and may legitimately survive — but then
    // the sketch must be structurally usable: schema intact and
    // estimation *returning* (possibly an error), never crashing.
    EXPECT_FALSE(loaded->schema().tables().empty()) << c.what;
    (void)loaded->EstimateSql(
        "SELECT COUNT(*) FROM title WHERE production_year > 1990");
    ++flip_survivors;
  }
  // Structural headers cover enough of the file that a seeded flip set
  // must trip validation at least sometimes (counts, magic, dims, modes).
  EXPECT_GT(flips, 0u);
  EXPECT_LT(flip_survivors, flips) << "no flip was ever detected";
  fs::remove(path);
}

// A format-v2 file ends in a quantization section: a mode byte, then per
// MLP (table, join, pred, out; two Linears each) a u64 layer count and one
// packed-weight record per layer: mode u8, in u64, out u64, then int8 codes,
// fp16 halves and fp32 scales as count-prefixed vectors. Returns the offsets
// of every header field (each must be validated) and of the payload bytes
// (plain data) in the int8 fixture.
struct QuantSectionLayout {
  size_t begin = 0;
  std::vector<std::pair<size_t, size_t>> headers;  // [offset, length)
  std::vector<std::pair<size_t, size_t>> payloads;
};

QuantSectionLayout Int8SectionLayout(const DeepSketch& sketch,
                                     size_t file_size) {
  const size_t h = 16;  // the fixture's hidden units (tests/data/README.md)
  const mscn::FeatureSpace& fs = sketch.feature_space();
  const std::vector<std::pair<size_t, size_t>> layers = {
      {fs.table_dim(), h}, {h, h}, {fs.join_dim(), h}, {h, h},
      {fs.pred_dim(), h},  {h, h}, {3 * h, h},         {h, 1}};
  size_t size = 1 + 4 * 8;
  for (const auto& [in, out] : layers) size += 1 + 5 * 8 + in * out + 4 * out;
  QuantSectionLayout l;
  l.begin = file_size - size;
  size_t at = l.begin;
  auto header = [&](size_t len) {
    l.headers.push_back({at, len});
    at += len;
  };
  auto payload = [&](size_t len) {
    l.payloads.push_back({at, len});
    at += len;
  };
  header(1);
  for (size_t i = 0; i < layers.size(); ++i) {
    if (i % 2 == 0) header(8);
    const auto [in, out] = layers[i];
    header(1 + 8 + 8 + 8);
    payload(in * out);
    header(8);  // empty fp16 vector
    header(8);
    payload(4 * out);
  }
  EXPECT_EQ(at, file_size);
  return l;
}

TEST_F(StressTest, TornV2QuantSectionFailsToLoad) {
  const std::string fixture =
      std::string(DS_TEST_DATA_DIR) + "/golden_int8_bitmaps.sketch";
  std::ifstream in(fixture, std::ios::binary);
  ASSERT_TRUE(in.good());
  const std::vector<uint8_t> valid((std::istreambuf_iterator<char>(in)),
                                   std::istreambuf_iterator<char>());
  auto sketch = DeepSketch::Load(fixture);
  ASSERT_TRUE(sketch.ok()) << sketch.status().ToString();
  const QuantSectionLayout layout = Int8SectionLayout(*sketch, valid.size());
  ASSERT_EQ(valid[layout.begin], 2u);  // the int8 mode byte

  auto load = [](std::vector<uint8_t> bytes) {
    util::BinaryReader reader(std::move(bytes));
    return DeepSketch::Read(&reader);
  };
  // Every truncation inside the section fails with a Status.
  for (size_t len = layout.begin; len < valid.size(); ++len) {
    auto loaded = load({valid.begin(), valid.begin() + len});
    EXPECT_FALSE(loaded.ok()) << "truncate@" << len;
  }
  // Every single-bit flip of a header field (mode, layer count, shape,
  // vector length) fails with a Status.
  for (const auto& [offset, len] : layout.headers) {
    for (size_t byte = offset; byte < offset + len; ++byte) {
      for (int bit = 0; bit < 8; ++bit) {
        std::vector<uint8_t> flipped = valid;
        flipped[byte] ^= static_cast<uint8_t>(1u << bit);
        auto loaded = load(std::move(flipped));
        EXPECT_FALSE(loaded.ok()) << "flip@" << byte << "." << bit;
      }
    }
  }
  // A flip in the packed payload is indistinguishable from data: the file
  // still loads and estimates.
  for (const auto& [offset, len] : layout.payloads) {
    std::vector<uint8_t> flipped = valid;
    flipped[offset + len / 2] ^= 0x10;
    auto loaded = load(std::move(flipped));
    ASSERT_TRUE(loaded.ok()) << "flip@" << offset + len / 2 << ": "
                             << loaded.status().ToString();
    EXPECT_TRUE(loaded->EstimateSql("SELECT COUNT(*) FROM title").ok());
  }
}

// ------------------------------------------------------------ end to end

TEST_F(StressTest, ShortServeModeRunHoldsEveryOracle) {
  StressOptions options;
  options.seed = 20260807;
  options.duration_ms = 1500;
  options.num_clients = 4;
  options.num_chaos = 2;
  options.run_killer = true;
  options.pool_pairs = 12;
  options.corpus_dir = *dir_;
  options.server_workers = 2;
  auto report = stress::RunStress(options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->Passed()) << report->ToString();
  EXPECT_GT(report->submitted, 0u);
  EXPECT_GT(report->ok, 0u);
  EXPECT_GT(report->oracle_checks, 0u);
  EXPECT_GT(report->republishes, 0u);
  EXPECT_GT(report->atomic_cycles + report->torn_loads, 0u);
  EXPECT_EQ(report->server_submitted,
            report->server_completed + report->server_failed);
}

#if defined(__linux__)
TEST_F(StressTest, ShortNetModeRunHoldsEveryOracle) {
  StressOptions options;
  options.seed = 20260808;
  options.duration_ms = 1200;
  options.num_clients = 3;
  options.num_chaos = 1;
  options.run_killer = true;
  options.pool_pairs = 8;
  options.corpus_dir = *dir_;
  options.server_workers = 2;
  options.use_net = true;
  auto report = stress::RunStress(options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->Passed()) << report->ToString();
  EXPECT_GT(report->submitted, 0u);
  EXPECT_GT(report->ok, 0u);
}
#endif  // __linux__

}  // namespace
}  // namespace ds
