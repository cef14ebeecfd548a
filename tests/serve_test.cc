// Tests for the serving layer: the sharded LRU registry, the batching
// SketchServer (including a multi-threaded submit storm checked against
// single-threaded estimates), and metrics-counter consistency.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "ds/obs/exposition.h"
#include "ds/obs/trace.h"
#include "ds/serve/registry.h"
#include "ds/serve/server.h"
#include "ds/sketch/deep_sketch.h"
#include "ds/util/contract.h"
#include "test_util.h"

namespace ds {
namespace {

namespace fs = std::filesystem;

using serve::RegistryOptions;
using serve::ServerOptions;
using serve::SketchRegistry;
using serve::SketchServer;
using sketch::DeepSketch;
using sketch::SketchConfig;

// One tiny sketch trained once and saved under several names, shared by the
// whole suite (training is the slow part; serving behavior does not depend
// on model quality).
class ServeTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    catalog_ = testutil::MakeTinyCatalog().release();
    dir_ = new std::string(testing::TempDir() + "/ds_serve_test");
    fs::create_directories(*dir_);
    SketchConfig config;
    config.num_samples = 8;
    config.num_training_queries = 150;
    config.num_epochs = 3;
    config.hidden_units = 8;
    config.batch_size = 32;
    config.max_tables_per_query = 2;
    config.seed = 7;
    sketch_ = new DeepSketch(DeepSketch::Train(*catalog_, config).value());
    for (const char* name : {"a", "b", "c"}) {
      ASSERT_TRUE(
          sketch_->Save(*dir_ + "/" + name + ".sketch").ok());
    }
  }

  static void TearDownTestSuite() {
    delete sketch_;
    delete catalog_;
    delete dir_;
    sketch_ = nullptr;
    catalog_ = nullptr;
    dir_ = nullptr;
  }

  static RegistryOptions DiskOptions() {
    RegistryOptions opts;
    opts.directory = *dir_;
    return opts;
  }

  static storage::Catalog* catalog_;
  static DeepSketch* sketch_;
  static std::string* dir_;
};

storage::Catalog* ServeTest::catalog_ = nullptr;
DeepSketch* ServeTest::sketch_ = nullptr;
std::string* ServeTest::dir_ = nullptr;

const char* const kQueries[] = {
    "SELECT COUNT(*) FROM movie WHERE year = 2003",
    "SELECT COUNT(*) FROM movie m, rating r WHERE r.movie_id = m.id",
    "SELECT COUNT(*) FROM genre WHERE name = 'g1'",
    "SELECT COUNT(*) FROM movie WHERE year > 2005",
};

// ---- Registry ---------------------------------------------------------------

TEST_F(ServeTest, RegistryLoadsCachesAndInvalidates) {
  SketchRegistry registry(DiskOptions());
  EXPECT_FALSE(registry.Contains("a"));
  auto first = registry.Get("a");
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_TRUE(registry.Contains("a"));
  auto second = registry.Get("a");
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(first->get(), second->get());  // cached, not reloaded

  auto stats = registry.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.loads, 1u);
  EXPECT_EQ(stats.sketches_loaded, 1u);
  EXPECT_EQ(stats.bytes_in_use, (*first)->SerializedSize());

  EXPECT_FALSE(registry.Get("nope").ok());
  EXPECT_TRUE(registry.Invalidate("a"));
  EXPECT_FALSE(registry.Contains("a"));
  EXPECT_FALSE(registry.Invalidate("a"));
  // Handles from before the invalidation stay usable.
  EXPECT_TRUE((*first)->EstimateSql(kQueries[0]).ok());
}

TEST_F(ServeTest, RegistryEvictsLruUnderByteBudget) {
  const size_t sketch_bytes = sketch_->SerializedSize();
  RegistryOptions opts = DiskOptions();
  opts.num_shards = 1;  // deterministic eviction order
  opts.byte_budget = 2 * sketch_bytes + sketch_bytes / 2;
  SketchRegistry registry(opts);

  ASSERT_TRUE(registry.Get("a").ok());
  ASSERT_TRUE(registry.Get("b").ok());
  EXPECT_EQ(registry.CachedSketches().size(), 2u);
  EXPECT_EQ(registry.stats().evictions, 0u);

  // Third sketch exceeds the budget: the least recently used ("a") goes.
  ASSERT_TRUE(registry.Get("c").ok());
  EXPECT_EQ(registry.stats().evictions, 1u);
  EXPECT_FALSE(registry.Contains("a"));
  EXPECT_TRUE(registry.Contains("b"));
  EXPECT_TRUE(registry.Contains("c"));
  EXPECT_LE(registry.bytes_in_use(), opts.byte_budget);

  // Touching "b" makes "c" the eviction victim when "a" reloads.
  ASSERT_TRUE(registry.Get("b").ok());
  ASSERT_TRUE(registry.Get("a").ok());
  EXPECT_FALSE(registry.Contains("c"));
  EXPECT_TRUE(registry.Contains("b"));
  EXPECT_EQ(registry.stats().loads, 4u);  // a, b, c, a again
}

TEST_F(ServeTest, RegistryAdmitsOversizedSketch) {
  RegistryOptions opts = DiskOptions();
  opts.num_shards = 1;
  opts.byte_budget = 1;  // smaller than any sketch
  SketchRegistry registry(opts);
  ASSERT_TRUE(registry.Get("a").ok());
  EXPECT_TRUE(registry.Contains("a"));  // sole resident entry
  ASSERT_TRUE(registry.Get("b").ok());
  EXPECT_EQ(registry.CachedSketches().size(), 1u);
  EXPECT_TRUE(registry.Contains("b"));
}

// ---- Server -----------------------------------------------------------------

TEST_F(ServeTest, SubmitStormMatchesSingleThreadedEstimates) {
  // Reference answers from the plain single-threaded path.
  std::vector<double> expected;
  for (const char* sql : kQueries) {
    expected.push_back(sketch_->EstimateSql(sql).value());
  }

  SketchRegistry registry(DiskOptions());
  ServerOptions options;
  options.num_workers = 4;
  options.max_batch = 16;
  options.max_wait_us = 100;
  SketchServer server(&registry, options);

  constexpr size_t kThreads = 4;
  constexpr size_t kPerThread = 200;
  std::vector<std::vector<serve::Submission>> futures(kThreads);
  std::vector<std::thread> clients;
  clients.reserve(kThreads);
  for (size_t t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t] {
      futures[t].reserve(kPerThread);
      for (size_t i = 0; i < kPerThread; ++i) {
        futures[t].push_back(
            server.Submit("a", kQueries[(t + i) % std::size(kQueries)]));
      }
    });
  }
  for (std::thread& c : clients) c.join();

  for (size_t t = 0; t < kThreads; ++t) {
    for (size_t i = 0; i < kPerThread; ++i) {
      auto result = futures[t][i].future.get();
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      const double want = expected[(t + i) % std::size(kQueries)];
      EXPECT_NEAR(*result, want, 1e-6 * want + 1e-9) << t << "," << i;
    }
  }

  server.Stop();
  auto m = server.Metrics();
  EXPECT_EQ(m.submitted, kThreads * kPerThread);
  EXPECT_EQ(m.completed, kThreads * kPerThread);
  EXPECT_EQ(m.failed, 0u);
  EXPECT_EQ(m.rejected, 0u);
  EXPECT_GE(m.batches, 1u);
  EXPECT_EQ(m.batch_size.sum, kThreads * kPerThread);
}

TEST_F(ServeTest, MetricsCountersAreConsistent) {
  SketchRegistry registry(DiskOptions());
  ServerOptions options;
  options.num_workers = 2;
  SketchServer server(&registry, options);

  constexpr size_t kGood = 40;
  constexpr size_t kBad = 7;       // SQL that does not parse
  constexpr size_t kUnknown = 5;   // sketch that does not exist
  std::vector<serve::Submission> futures;
  for (size_t i = 0; i < kGood; ++i) {
    futures.push_back(server.Submit("a", kQueries[i % std::size(kQueries)]));
  }
  for (size_t i = 0; i < kBad; ++i) {
    futures.push_back(server.Submit("a", "SELECT COUNT(*) FROM"));
  }
  for (size_t i = 0; i < kUnknown; ++i) {
    futures.push_back(server.Submit("ghost", kQueries[0]));
  }
  size_t ok = 0, errored = 0;
  for (auto& f : futures) {
    if (f.future.get().ok()) {
      ++ok;
    } else {
      ++errored;
    }
  }
  EXPECT_EQ(ok, kGood);
  EXPECT_EQ(errored, kBad + kUnknown);

  server.Stop();
  auto m = server.Metrics();
  EXPECT_EQ(m.submitted, kGood + kBad + kUnknown);
  EXPECT_EQ(m.submitted, m.completed + m.failed);
  EXPECT_EQ(m.completed, kGood);
  EXPECT_EQ(m.failed, kBad + kUnknown);
  EXPECT_EQ(m.bind_errors, kBad);
  EXPECT_EQ(m.queue_wait_us.count, m.submitted);
  EXPECT_EQ(m.batch_size.count, m.batches);
  EXPECT_EQ(m.batch_size.sum, m.submitted);
  EXPECT_GT(m.cache.hits + m.cache.misses, 0u);
  // Every request that reached a worker with a resolvable sketch did one
  // estimate-cache lookup; only its misses proceed to the statement cache.
  // Bad SQL never enters either cache, so it misses every time.
  EXPECT_EQ(m.result_cache_hits + m.result_cache_misses, kGood + kBad);
  EXPECT_EQ(m.stmt_cache_hits + m.stmt_cache_misses, m.result_cache_misses);
  EXPECT_GE(m.result_cache_misses, std::size(kQueries) + kBad);
  EXPECT_GE(m.stmt_cache_misses, std::size(kQueries) + kBad);
}

TEST_F(ServeTest, ResultCacheServesRepeatedStatements) {
  SketchRegistry registry(DiskOptions());
  SketchServer server(&registry);
  auto first = server.Submit("a", kQueries[0]).future.get();
  ASSERT_TRUE(first.ok());
  auto second = server.Submit("a", kQueries[0]).future.get();
  ASSERT_TRUE(second.ok());
  EXPECT_DOUBLE_EQ(*first, *second);
  auto m = server.Metrics();
  EXPECT_EQ(m.result_cache_misses, 1u);  // the ResultCachePut precedes the
  EXPECT_EQ(m.result_cache_hits, 1u);    // first promise resolution

  // With both caches disabled every request runs the full path.
  ServerOptions raw_options;
  raw_options.result_cache_capacity = 0;
  raw_options.stmt_cache_capacity = 0;
  SketchServer raw(&registry, raw_options);
  EXPECT_TRUE(raw.Submit("a", kQueries[0]).future.get().ok());
  EXPECT_TRUE(raw.Submit("a", kQueries[0]).future.get().ok());
  auto m2 = raw.Metrics();
  EXPECT_EQ(m2.result_cache_hits + m2.result_cache_misses, 0u);
  EXPECT_EQ(m2.stmt_cache_hits + m2.stmt_cache_misses, 0u);
  EXPECT_EQ(m2.completed, 2u);
}

TEST_F(ServeTest, PlaceholderQueryFailsItsRequestOnly) {
  SketchRegistry registry(DiskOptions());
  SketchServer server(&registry);
  auto good = server.Submit("a", kQueries[0]);
  auto bad =
      server.Submit("a", "SELECT COUNT(*) FROM movie WHERE year = ?");
  EXPECT_TRUE(good.future.get().ok());
  auto result = bad.future.get();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(ServeTest, BackpressureRejectsButResolvesEveryFuture) {
  SketchRegistry registry(DiskOptions());
  ServerOptions options;
  options.num_workers = 1;
  options.queue_capacity = 1;
  options.enable_batching = false;
  SketchServer server(&registry, options);

  constexpr size_t kBurst = 2000;
  std::vector<serve::Submission> futures;
  futures.reserve(kBurst);
  for (size_t i = 0; i < kBurst; ++i) {
    futures.push_back(server.Submit("a", kQueries[0]));
  }
  size_t served = 0, rejected = 0;
  for (auto& f : futures) {
    auto result = f.future.get();  // every future must resolve
    if (result.ok()) {
      ++served;
      EXPECT_EQ(f.status, serve::SubmitStatus::kOk);
    } else {
      ASSERT_EQ(result.status().code(), StatusCode::kOutOfRange);
      EXPECT_EQ(f.status, serve::SubmitStatus::kQueueFull);
      ++rejected;
    }
  }
  EXPECT_EQ(served + rejected, kBurst);

  server.Stop();
  auto m = server.Metrics();
  EXPECT_EQ(m.submitted, served);
  EXPECT_EQ(m.rejected, rejected);
  // Backpressure refusals carry the queue_full reason, nothing else.
  EXPECT_EQ(m.rejected_queue_full, rejected);
  EXPECT_EQ(m.rejected_shedding + m.rejected_shutdown, 0u);
  // A 1-deep queue against a burst of 2000 must shed load at some point.
  EXPECT_GT(rejected, 0u);
}

TEST_F(ServeTest, SubmitAfterStopRejects) {
  SketchRegistry registry(DiskOptions());
  SketchServer server(&registry);
  server.Stop();
  auto submission = server.Submit("a", kQueries[0]);
  EXPECT_EQ(submission.status, serve::SubmitStatus::kShuttingDown);
  auto result = submission.future.get();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kOutOfRange);
  EXPECT_EQ(server.Metrics().rejected, 1u);
  EXPECT_EQ(server.Metrics().rejected_shutdown, 1u);
}

// ---- Observability ----------------------------------------------------------

TEST_F(ServeTest, TracingOffByDefault) {
  SketchRegistry registry(DiskOptions());
  SketchServer server(&registry);
  EXPECT_EQ(server.tracer(), nullptr);
  EXPECT_TRUE(server.Submit("a", kQueries[0]).future.get().ok());
}

TEST_F(ServeTest, TracingProducesPlausibleSpanTree) {
  SketchRegistry registry(DiskOptions());
  ServerOptions options;
  options.num_workers = 1;
  options.trace_sample_every = 1;
  // Caches off so the sampled query runs the full parse/bind/infer path.
  options.stmt_cache_capacity = 0;
  options.result_cache_capacity = 0;
  SketchServer server(&registry, options);
  ASSERT_NE(server.tracer(), nullptr);

  ASSERT_TRUE(server.Submit("a", kQueries[1]).future.get().ok());
  server.Stop();

  std::vector<uint64_t> ids = server.tracer()->TraceIds();
  ASSERT_EQ(ids.size(), 1u);
  std::vector<obs::SpanRecord> spans = server.tracer()->Trace(ids[0]);

  auto find = [&](const char* name) -> const obs::SpanRecord* {
    for (const obs::SpanRecord& s : spans) {
      if (std::string(s.name) == name) return &s;
    }
    return nullptr;
  };
  const obs::SpanRecord* estimate = find("estimate");
  const obs::SpanRecord* queue_wait = find("queue_wait");
  const obs::SpanRecord* parse = find("parse");
  const obs::SpanRecord* bind = find("bind");
  const obs::SpanRecord* infer = find("infer");
  const obs::SpanRecord* featurize = find("featurize");
  const obs::SpanRecord* forward = find("forward");
  ASSERT_NE(estimate, nullptr);
  ASSERT_NE(queue_wait, nullptr);
  ASSERT_NE(parse, nullptr);
  ASSERT_NE(bind, nullptr);
  ASSERT_NE(infer, nullptr);
  ASSERT_NE(featurize, nullptr);
  ASSERT_NE(forward, nullptr);

  // Nesting: estimate is the root; queue_wait / parse / bind / infer hang
  // off it; featurize and forward nest under infer.
  EXPECT_EQ(estimate->parent_id, 0u);
  EXPECT_EQ(queue_wait->parent_id, estimate->span_id);
  EXPECT_EQ(parse->parent_id, estimate->span_id);
  EXPECT_EQ(bind->parent_id, estimate->span_id);
  EXPECT_EQ(infer->parent_id, estimate->span_id);
  EXPECT_EQ(featurize->parent_id, infer->span_id);
  EXPECT_EQ(forward->parent_id, infer->span_id);
  EXPECT_EQ(infer->value, 1u);  // batch of one

  // Time plausibility: children start at or after the root and fit inside
  // its duration (1ms slack for clock rounding).
  for (const obs::SpanRecord& s : spans) {
    EXPECT_GE(s.start_us, estimate->start_us - 1000) << s.name;
    EXPECT_LE(s.start_us + s.duration_us,
              estimate->start_us + estimate->duration_us + 1000)
        << s.name;
  }

  const std::string tree = obs::FormatTrace(spans);
  EXPECT_NE(tree.find("estimate"), std::string::npos);
  EXPECT_NE(tree.find("forward"), std::string::npos);
}

TEST_F(ServeTest, TracingRecordsCacheHits) {
  SketchRegistry registry(DiskOptions());
  ServerOptions options;
  options.num_workers = 1;
  options.trace_sample_every = 1;
  SketchServer server(&registry, options);
  ASSERT_TRUE(server.Submit("a", kQueries[0]).future.get().ok());
  ASSERT_TRUE(server.Submit("a", kQueries[0]).future.get().ok());  // result-cache hit
  server.Stop();
  bool saw_hit = false;
  for (const obs::SpanRecord& s : server.tracer()->Snapshot()) {
    if (std::string(s.name) == "result_cache_hit") saw_hit = true;
  }
  EXPECT_TRUE(saw_hit);
}

TEST_F(ServeTest, TracingSamplesOneInN) {
  SketchRegistry registry(DiskOptions());
  ServerOptions options;
  options.trace_sample_every = 4;
  SketchServer server(&registry, options);
  std::vector<serve::Submission> futures;
  for (int i = 0; i < 16; ++i) {
    futures.push_back(server.Submit("a", kQueries[0]));
  }
  for (auto& f : futures) ASSERT_TRUE(f.future.get().ok());
  server.Stop();
  EXPECT_EQ(server.tracer()->sampled(), 4u);
}

TEST_F(ServeTest, ObsSnapshotAndExposition) {
  SketchRegistry registry(DiskOptions());
  SketchServer server(&registry);
  ASSERT_TRUE(server.Submit("a", kQueries[0]).future.get().ok());
  server.Stop();

  obs::RegistrySnapshot snap = server.ObsSnapshot();
  const obs::MetricSnapshot* submitted =
      snap.Find("ds_serve_submitted_total");
  ASSERT_NE(submitted, nullptr);
  EXPECT_EQ(submitted->value, 1.0);
  // The sketch-cache gauges ride along in the same snapshot.
  ASSERT_NE(snap.Find("ds_sketch_cache_resident"), nullptr);
  // Every snapshot mirrors the process-wide contract violation counter so
  // release builds running policy=count can alert on contract pressure.
  const obs::MetricSnapshot* violations =
      snap.Find("ds_contract_violations_total");
  ASSERT_NE(violations, nullptr);
  EXPECT_EQ(violations->value,
            static_cast<double>(util::ContractViolationCount()));

  const std::string prom = obs::ToPrometheusText(snap);
  EXPECT_NE(prom.find("ds_serve_submitted_total 1\n"), std::string::npos);
  EXPECT_NE(prom.find("# TYPE ds_serve_queue_wait_us histogram"),
            std::string::npos);
  const std::string json = server.MetricsJson();
  EXPECT_EQ(json.rfind("{\"metrics\":[", 0), 0u);
  EXPECT_NE(json.find("ds_serve_completed_total"), std::string::npos);
}

TEST_F(ServeTest, KernelTotalsAreExportedAsMonotoneCounters) {
  const char* names[] = {
      "ds_nn_kernel_dense_calls_total", "ds_nn_kernel_fused_calls_total",
      "ds_nn_kernel_sparse_calls_total", "ds_nn_kernel_flops_total",
      "ds_nn_kernel_bytes_total",
  };
  SketchRegistry registry(DiskOptions());
  SketchServer server(&registry);
  const obs::RegistrySnapshot before = server.ObsSnapshot();
  ASSERT_TRUE(server.Submit("a", kQueries[0]).future.get().ok());
  const obs::RegistrySnapshot after = server.ObsSnapshot();
  server.Stop();

  const std::string prom = obs::ToPrometheusText(after);
  for (const char* name : names) {
    SCOPED_TRACE(name);
    const obs::MetricSnapshot* b = before.Find(name);
    const obs::MetricSnapshot* a = after.Find(name);
    ASSERT_NE(b, nullptr);
    ASSERT_NE(a, nullptr);
    EXPECT_EQ(a->kind, obs::MetricKind::kCounter);
    EXPECT_GE(a->value, b->value);
    EXPECT_NE(prom.find("# TYPE " + std::string(name) + " counter\n"),
              std::string::npos);
  }
  // The estimate ran the sparse first layers, so that total moved.
  EXPECT_GT(after.Find("ds_nn_kernel_sparse_calls_total")->value,
            before.Find("ds_nn_kernel_sparse_calls_total")->value);
}

TEST_F(ServeTest, PrivateRegistriesKeepServersApart) {
  SketchRegistry registry(DiskOptions());
  SketchServer one(&registry);
  SketchServer two(&registry);
  ASSERT_TRUE(one.Submit("a", kQueries[0]).future.get().ok());
  EXPECT_EQ(one.Metrics().submitted, 1u);
  EXPECT_EQ(two.Metrics().submitted, 0u);
  EXPECT_NE(one.obs_registry(), two.obs_registry());

  // An injected shared registry is also honored.
  obs::Registry shared;
  ServerOptions options;
  options.metrics_registry = &shared;
  SketchServer three(&registry, options);
  EXPECT_EQ(three.obs_registry(), &shared);
  ASSERT_TRUE(three.Submit("a", kQueries[0]).future.get().ok());
  EXPECT_EQ(shared.GetCounter("ds_serve_submitted_total")->value(), 1u);
}

TEST_F(ServeTest, PeriodicStatsDumpEmitsJson) {
  SketchRegistry registry(DiskOptions());
  ServerOptions options;
  options.stats_dump_period_ms = 5;
  std::mutex mu;
  std::vector<std::string> dumps;
  options.stats_dump_sink = [&](const std::string& json) {
    std::lock_guard<std::mutex> lock(mu);
    dumps.push_back(json);
  };
  SketchServer server(&registry, options);
  ASSERT_TRUE(server.Submit("a", kQueries[0]).future.get().ok());
  // Wait (bounded) for at least two periodic dumps.
  for (int i = 0; i < 400; ++i) {
    {
      std::lock_guard<std::mutex> lock(mu);
      if (dumps.size() >= 2) break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  server.Stop();
  std::lock_guard<std::mutex> lock(mu);
  ASSERT_GE(dumps.size(), 2u);
  for (const std::string& d : dumps) {
    EXPECT_EQ(d.rfind("{\"metrics\":[", 0), 0u);
  }
  EXPECT_NE(dumps.back().find("ds_serve_completed_total"),
            std::string::npos);
}

TEST_F(ServeTest, ConcurrentStopIsSafe) {
  // Regression: two racing Stop() calls (or Stop racing shutdown elsewhere)
  // used to double-join the worker threads. stop_mu_ now serializes
  // shutdown; every caller must return with the server fully stopped.
  SketchRegistry registry(DiskOptions());
  ServerOptions options;
  options.num_workers = 2;
  SketchServer server(&registry, options);
  std::vector<serve::Submission> futures;
  for (size_t i = 0; i < 16; ++i) {
    futures.push_back(server.Submit("a", kQueries[i % std::size(kQueries)]));
  }
  std::vector<std::thread> stoppers;
  for (int i = 0; i < 4; ++i) {
    stoppers.emplace_back([&server] { server.Stop(); });
  }
  for (auto& t : stoppers) t.join();
  server.Stop();  // idempotent after the race
  for (auto& f : futures) {
    EXPECT_TRUE(f.future.get().ok());
  }
}

// ---- SubmitStatus / sharding / async ---------------------------------------

TEST(SubmitStatusTest, NamesAreStable) {
  // These strings are the `reason` label values of
  // ds_serve_rejected_total; changing one breaks dashboards.
  EXPECT_STREQ(serve::SubmitStatusName(serve::SubmitStatus::kOk), "ok");
  EXPECT_STREQ(serve::SubmitStatusName(serve::SubmitStatus::kQueueFull),
               "queue_full");
  EXPECT_STREQ(serve::SubmitStatusName(serve::SubmitStatus::kShedding),
               "shedding");
  EXPECT_STREQ(serve::SubmitStatusName(serve::SubmitStatus::kShuttingDown),
               "shutting_down");
}

TEST_F(ServeTest, ShardedQueuesServeEveryRequest) {
  SketchRegistry registry(DiskOptions());
  ServerOptions options;
  options.num_workers = 4;
  options.num_queue_shards = 4;
  SketchServer server(&registry, options);
  EXPECT_EQ(server.num_queue_shards(), 4u);
  std::vector<serve::Submission> futures;
  for (size_t i = 0; i < 256; ++i) {
    futures.push_back(server.Submit("a", kQueries[i % std::size(kQueries)]));
  }
  for (auto& f : futures) {
    EXPECT_TRUE(f.future.get().ok());
  }
  server.Stop();
  auto m = server.Metrics();
  EXPECT_EQ(m.submitted, 256u);
  EXPECT_EQ(m.completed, 256u);
  EXPECT_EQ(m.rejected, 0u);
}

TEST_F(ServeTest, ShardCountClampsToWorkers) {
  SketchRegistry registry(DiskOptions());
  ServerOptions options;
  options.num_workers = 2;
  options.num_queue_shards = 8;  // more shards than workers would starve
  SketchServer server(&registry, options);
  EXPECT_EQ(server.num_queue_shards(), 2u);
  EXPECT_TRUE(server.Submit("a", kQueries[0]).future.get().ok());
}

TEST_F(ServeTest, SubmitAsyncDeliversResultViaCallback) {
  SketchRegistry registry(DiskOptions());
  SketchServer server(&registry);
  std::promise<Result<double>> got;
  auto status = server.SubmitAsync(
      "a", kQueries[0],
      [&got](Result<double> r) { got.set_value(std::move(r)); },
      /*shard_hint=*/0);
  ASSERT_EQ(status, serve::SubmitStatus::kOk);
  auto result = got.get_future().get();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_DOUBLE_EQ(*result, sketch_->EstimateSql(kQueries[0]).value());
  server.Stop();
  EXPECT_EQ(server.Metrics().completed, 1u);
}

TEST_F(ServeTest, SubmitAsyncAfterStopDoesNotInvokeCallback) {
  SketchRegistry registry(DiskOptions());
  SketchServer server(&registry);
  server.Stop();
  std::atomic<bool> called{false};
  auto status = server.SubmitAsync("a", kQueries[0],
                                   [&called](Result<double>) { called = true; });
  EXPECT_EQ(status, serve::SubmitStatus::kShuttingDown);
  // The caller answers from the returned status; the callback stays silent.
  EXPECT_FALSE(called.load());
  EXPECT_EQ(server.Metrics().rejected_shutdown, 1u);
}

TEST_F(ServeTest, SubmitManyAsyncIndexesCallbacks) {
  SketchRegistry registry(DiskOptions());
  SketchServer server(&registry);
  constexpr size_t kN = 8;
  std::mutex mu;
  std::vector<bool> seen(kN, false);
  std::atomic<size_t> done{0};
  std::promise<void> all_done;
  std::vector<std::string> sqls;
  for (size_t i = 0; i < kN; ++i) {
    sqls.push_back(kQueries[i % std::size(kQueries)]);
  }
  auto statuses = server.SubmitManyAsync(
      "a", std::move(sqls),
      [&](size_t index, Result<double> result) {
        EXPECT_TRUE(result.ok());
        {
          std::lock_guard<std::mutex> lock(mu);
          EXPECT_LT(index, kN);
          EXPECT_FALSE(seen[index]);
          seen[index] = true;
        }
        if (done.fetch_add(1) + 1 == kN) all_done.set_value();
      },
      /*shard_hint=*/1);
  ASSERT_EQ(statuses.size(), kN);
  for (auto s : statuses) EXPECT_EQ(s, serve::SubmitStatus::kOk);
  all_done.get_future().wait();
  server.Stop();
  std::lock_guard<std::mutex> lock(mu);
  for (size_t i = 0; i < kN; ++i) EXPECT_TRUE(seen[i]) << i;
}

TEST_F(ServeTest, RejectionReasonsAreLabeledInExposition) {
  SketchRegistry registry(DiskOptions());
  SketchServer server(&registry);
  server.CountShed(3);  // what the net front-end's admission control calls
  server.Stop();
  (void)server.Submit("a", kQueries[0]).future.get();  // shutting_down
  auto m = server.Metrics();
  EXPECT_EQ(m.rejected_shedding, 3u);
  EXPECT_EQ(m.rejected_shutdown, 1u);
  EXPECT_EQ(m.rejected, 4u);
  const std::string prom = obs::ToPrometheusText(server.ObsSnapshot());
  EXPECT_NE(prom.find("ds_serve_rejected_total{reason=\"shedding\"} 3"),
            std::string::npos);
  EXPECT_NE(prom.find("ds_serve_rejected_total{reason=\"shutting_down\"} 1"),
            std::string::npos);
}

TEST_F(ServeTest, StopDrainsPendingRequests) {
  SketchRegistry registry(DiskOptions());
  ServerOptions options;
  options.num_workers = 1;
  options.max_wait_us = 0;  // serve one sweep at a time
  SketchServer server(&registry, options);
  std::vector<serve::Submission> futures;
  for (size_t i = 0; i < 64; ++i) {
    futures.push_back(server.Submit("a", kQueries[i % std::size(kQueries)]));
  }
  server.Stop();  // must serve everything accepted before joining
  for (auto& f : futures) {
    EXPECT_TRUE(f.future.get().ok());
  }
}

// Regression (stale result cache): the server's statement and estimate
// caches used to be keyed on (sketch name, SQL) alone, so republishing a
// sketch under the same registry name kept serving the *previous* model's
// estimates forever. Keys now include the registry epoch, which every Put
// bumps.
TEST_F(ServeTest, RepublishedSketchServesFreshEstimates) {
  SketchRegistry registry(DiskOptions());
  SketchServer server(&registry, ServerOptions{});

  // Two models that answer differently: the suite sketch and a retrain
  // with different init/workload seeds.
  SketchConfig config;
  config.num_samples = 8;
  config.num_training_queries = 150;
  config.num_epochs = 3;
  config.hidden_units = 8;
  config.batch_size = 32;
  config.max_tables_per_query = 2;
  config.seed = 99;
  DeepSketch retrained = DeepSketch::Train(*catalog_, config).value();
  const double old_direct = sketch_->EstimateSql(kQueries[0]).value();
  const double new_direct = retrained.EstimateSql(kQueries[0]).value();
  ASSERT_NE(old_direct, new_direct);  // otherwise the test proves nothing

  registry.Put("rep", DeepSketch::Load(*dir_ + "/a.sketch").value());
  // Ask twice so the answer is definitely resident in the result cache.
  for (int i = 0; i < 2; ++i) {
    auto first = server.Submit("rep", kQueries[0]).future.get();
    ASSERT_TRUE(first.ok());
    EXPECT_NEAR(*first, old_direct, 1e-6 * old_direct + 1e-9);
  }

  registry.Put("rep", std::move(retrained));  // republish under the same name
  auto second = server.Submit("rep", kQueries[0]).future.get();
  ASSERT_TRUE(second.ok());
  EXPECT_NEAR(*second, new_direct, 1e-6 * new_direct + 1e-9)
      << "server kept serving the pre-republish sketch's cached estimate";
  server.Stop();
}

TEST_F(ServeTest, RegistryEpochsBumpOnPutAndInvalidate) {
  SketchRegistry registry(DiskOptions());
  EXPECT_EQ(registry.Epoch("a"), 0u);
  uint64_t epoch = 0;
  ASSERT_TRUE(registry.Get("a", &epoch).ok());  // disk load: no publication
  EXPECT_EQ(epoch, 0u);
  registry.Put("a", DeepSketch::Load(*dir_ + "/a.sketch").value());
  EXPECT_EQ(registry.Epoch("a"), 1u);
  EXPECT_TRUE(registry.Invalidate("a"));
  EXPECT_EQ(registry.Epoch("a"), 2u);
  // Invalidate of a non-resident name still bumps: the "rewrite the file,
  // then Invalidate" protocol must retire stale cache keys even when the
  // entry was already evicted.
  EXPECT_FALSE(registry.Invalidate("a"));
  EXPECT_EQ(registry.Epoch("a"), 3u);
  ASSERT_TRUE(registry.Get("a", &epoch).ok());
  EXPECT_EQ(epoch, 3u);
}

// Regression (path traversal): registry names come straight off the wire
// and used to be joined into a filesystem path unvalidated, so
// "../decoy" read a sketch file OUTSIDE the registry directory. The decoy
// really exists — the proof is that the load *fails anyway*.
TEST_F(ServeTest, RegistryRejectsPathTraversalNames) {
  const std::string parent = testing::TempDir() + "/ds_serve_traversal";
  fs::create_directories(parent + "/inner");
  ASSERT_TRUE(sketch_->Save(parent + "/decoy.sketch").ok());
  RegistryOptions options;
  options.directory = parent + "/inner";
  SketchRegistry registry(options);

  for (const char* name :
       {"../decoy", "..", "a/../../decoy", "a\\b", "", "./decoy", "/etc"}) {
    auto got = registry.Get(name);
    ASSERT_FALSE(got.ok()) << "hostile name resolved: " << name;
    EXPECT_EQ(got.status().code(), StatusCode::kInvalidArgument) << name;
    EXPECT_FALSE(registry.Contains(name));
  }
  // Ordinary names still work through the same boundary.
  EXPECT_TRUE(SketchRegistry::ValidateName("movies_2024.v2").ok());
  // A well-formed name passes validation and then simply misses — the
  // decoy is only reachable by escaping the directory.
  auto miss = registry.Get("decoy");
  ASSERT_FALSE(miss.ok());
  EXPECT_NE(miss.status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace ds
