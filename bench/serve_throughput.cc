// Closed-loop throughput benchmark for the serving layer (ds::serve).
//
// Trains a small sketch once, then drives a SketchServer with closed-loop
// clients at 1/2/4/8 threads, batching off and on, in two regimes:
//
//   cold:    statement + estimate caches disabled — every request pays
//            parse/bind + featurize + forward. Per-query inference is the
//            floor, so batching mostly shows its queueing overhead here
//            (it cannot amortize per-query model compute).
//   serving: production defaults — repeated statements hit the estimate
//            cache, so per-request synchronization dominates, which is
//            exactly the cost micro-batching amortizes.
//
// The cached headline compares the serving regime's best batched
// multi-threaded configuration (result-cache hits, not inference) against
// the single-threaded unbatched loop the repo had before this subsystem
// existed: direct EstimateSql calls in a loop (one query at a time, one
// thread, no caches — caching is part of the serving layer). Each regime also prints its own server-relative baseline — 1
// client, 1 worker, pipeline depth 1, batching off — so the speedup
// attributable to batching/pipelining alone (as opposed to the caches) is
// visible and nothing hides in the headline.
//
// The best serving-regime configuration's final metric registry is also
// written as JSON exposition to bench_results/serve_throughput_metrics.json
// (override with json=path, json= to disable), and its client-side latency
// percentile table is printed.
//
// mode=net runs the wire-protocol variant instead: a NetServer on
// loopback, `connections` concurrent pipelined TCP clients (default 100),
// first at steady state and then under ~2x overload (the tenant's token
// bucket is set to half the measured steady throughput, so roughly half
// the offered load is shed with explicit REJECTED responses). The run
// fails if any request errors, if p99 latency of admitted requests blows
// up under overload (> 10x steady p99), or if the server's
// requests/responses counters do not balance after shutdown. Its summary
// goes to bench_results/serve_throughput_net.json, so it never overwrites
// the in-process summary in bench_results/serve_throughput.json (override
// either with summary_json=path).
//
// Usage: bench_serve_throughput [titles=N] [queries=N] [epochs=N]
//                               [seconds=S] [depth=N] [workers=N]
//                               [max_batch=N] [wait_us=N] [json=path]
//                               [mode=inproc|net] [connections=N]

#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "ds/datagen/imdb.h"
#include "ds/net/server.h"
#include "ds/obs/exposition.h"
#include "ds/serve/loadgen.h"
#include "ds/serve/registry.h"
#include "ds/serve/server.h"
#include "ds/sketch/deep_sketch.h"
#include "ds/sql/binder.h"
#include "ds/util/logging.h"
#include "ds/util/timer.h"

using namespace ds;

namespace {

const std::vector<std::string>& BenchQueries() {
  static const std::vector<std::string>* queries =
      new std::vector<std::string>{
          "SELECT COUNT(*) FROM title t WHERE t.production_year > 2000",
          "SELECT COUNT(*) FROM title t, movie_keyword mk "
          "WHERE mk.movie_id = t.id AND t.production_year < 1990",
          "SELECT COUNT(*) FROM title t, movie_keyword mk, keyword k "
          "WHERE mk.movie_id = t.id AND mk.keyword_id = k.id "
          "AND t.production_year > 1980",
          "SELECT COUNT(*) FROM title t WHERE t.kind_id = 1",
      };
  return *queries;
}

struct Row {
  size_t clients;
  bool batching;
  size_t depth;
  serve::LoadReport load;
  serve::MetricsSnapshot metrics;
  obs::RegistrySnapshot obs;  // full registry, for the JSON dump
};

Row RunConfig(serve::SketchRegistry* registry,
              const serve::ServerOptions& server_options, size_t clients,
              size_t depth, double seconds) {
  serve::SketchServer server(registry, server_options);
  serve::LoadOptions load;
  load.threads = clients;
  load.pipeline_depth = depth;
  load.seconds = seconds;
  Row row;
  row.clients = clients;
  row.batching = server_options.enable_batching;
  row.depth = depth;
  row.load = serve::RunClosedLoop(&server, "bench", BenchQueries(), load);
  server.Stop();
  row.metrics = server.Metrics();
  row.obs = server.ObsSnapshot();
  return row;
}

/// Runs one regime (a server-options template) over the client matrix and
/// returns {baseline qps, best batched qps}. When `best_row` is non-null it
/// receives the best batched configuration's full Row.
std::pair<double, double> RunRegime(serve::SketchRegistry* registry,
                                    const serve::ServerOptions& base,
                                    size_t depth, double seconds,
                                    Row* best_row = nullptr) {
  serve::ServerOptions unbatched = base;
  unbatched.enable_batching = false;
  serve::ServerOptions baseline_options = unbatched;
  baseline_options.num_workers = 1;

  Row baseline =
      RunConfig(registry, baseline_options, /*clients=*/1, /*depth=*/1,
                seconds);
  const double baseline_qps = baseline.load.Qps();

  std::printf("%-8s %-9s %-6s %10s %9s %11s %13s\n", "clients", "batching",
              "depth", "qps", "speedup", "mean batch", "p95 wait us");
  auto print_row = [&](const Row& row) {
    std::printf("%-8zu %-9s %-6zu %10.0f %8.2fx %11.1f %13llu\n",
                row.clients, row.batching ? "on" : "off", row.depth,
                row.load.Qps(), row.load.Qps() / baseline_qps,
                row.metrics.batch_size.Mean(),
                static_cast<unsigned long long>(
                    row.metrics.queue_wait_us.ApproxPercentile(0.95)));
  };
  print_row(baseline);

  double best_batched_qps = 0;
  for (size_t clients : {1, 2, 4, 8}) {
    print_row(RunConfig(registry, unbatched, clients, /*depth=*/1, seconds));
    Row on = RunConfig(registry, base, clients, depth, seconds);
    print_row(on);
    if (on.load.Qps() > best_batched_qps) {
      best_batched_qps = on.load.Qps();
      if (best_row != nullptr) *best_row = std::move(on);
    }
  }
  return {baseline_qps, best_batched_qps};
}

/// The wire-mode benchmark: steady state, then ~2x overload with
/// admission-control shedding. Returns the process exit code.
int RunNetMode(const bench::Args& args, serve::SketchRegistry* registry,
               double seconds) {
  const size_t connections =
      static_cast<size_t>(args.GetInt("connections", 100));
  const size_t depth = static_cast<size_t>(args.GetInt("depth", 4));

  serve::ServerOptions serve_options;
  serve_options.num_workers =
      static_cast<size_t>(args.GetInt("workers", 2));
  serve_options.num_queue_shards = serve_options.num_workers;
  serve_options.max_batch =
      static_cast<size_t>(args.GetInt("max_batch", 64));
  serve_options.max_wait_us =
      static_cast<uint64_t>(args.GetInt("wait_us", 100));
  serve::SketchServer backend(registry, serve_options);

  net::NetServerOptions net_options;
  net_options.num_workers =
      static_cast<size_t>(args.GetInt("net_workers", 0));
  net::NetServer front(&backend, net_options);
  if (auto st = front.Start(); !st.ok()) {
    std::fprintf(stderr, "net mode: %s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("\n== net mode: %zu connections x depth %zu on 127.0.0.1:%u "
              "(%zu net workers) ==\n",
              connections, depth, front.port(), front.num_workers());

  serve::LoadOptions load;
  load.threads = connections;
  load.pipeline_depth = depth;
  load.seconds = seconds;

  std::printf("\n-- steady state --\n");
  const serve::LoadReport steady = serve::RunNetClosedLoop(
      "127.0.0.1", front.port(), "bench", BenchQueries(), load);
  const uint64_t steady_p99 = steady.latency_us.ApproxPercentile(0.99);
  std::printf("%8.0f q/s, %llu errors, %llu rejected\n", steady.Qps(),
              static_cast<unsigned long long>(steady.errors),
              static_cast<unsigned long long>(steady.rejected));
  std::printf("%s", steady.LatencyTable().c_str());

  // Overload: cap the default tenant at half the measured steady
  // throughput. The same closed-loop clients now offer ~2x what admission
  // lets through, so roughly half the requests must come back REJECTED —
  // immediately, without queueing behind admitted work.
  const double cap = steady.Qps() / 2;
  front.admission()->SetTenantLimit("default", cap, cap / 4);
  std::printf("\n-- 2x overload: tenant capped at %.0f q/s --\n", cap);
  const serve::LoadReport overload = serve::RunNetClosedLoop(
      "127.0.0.1", front.port(), "bench", BenchQueries(), load);
  const uint64_t overload_p99 = overload.latency_us.ApproxPercentile(0.99);
  std::printf("%8.0f q/s admitted, %llu errors, %llu rejected (%.0f%% of "
              "offered)\n",
              overload.Qps(),
              static_cast<unsigned long long>(overload.errors),
              static_cast<unsigned long long>(overload.rejected),
              100.0 * static_cast<double>(overload.rejected) /
                  static_cast<double>(std::max<uint64_t>(
                      1, overload.ok + overload.errors +
                             overload.rejected)));
  std::printf("%s", overload.LatencyTable().c_str());

  front.Stop();
  backend.Stop();

  const uint64_t requests =
      front.registry()->GetCounter("ds_net_requests_total")->value();
  uint64_t responses = 0;
  for (net::WireStatus s : {net::WireStatus::kOk, net::WireStatus::kError,
                            net::WireStatus::kRejected}) {
    responses += front.registry()
                     ->GetCounter("ds_net_responses_total", "",
                                  {{"status", net::WireStatusName(s)}})
                     ->value();
  }
  std::printf("\nwire balance: %llu requests, %llu responses (%s)\n",
              static_cast<unsigned long long>(requests),
              static_cast<unsigned long long>(responses),
              requests == responses ? "balanced" : "UNBALANCED");

  const std::string summary_path =
      args.GetString("summary_json", "bench_results/serve_throughput_net.json");
  if (!summary_path.empty()) {
    auto row = [](const char* op, const serve::LoadReport& r) {
      bench::OpResult out;
      out.op = op;
      out.qps = r.Qps();
      out.p50_us =
          static_cast<double>(r.latency_us.ApproxPercentile(0.50));
      out.p95_us =
          static_cast<double>(r.latency_us.ApproxPercentile(0.95));
      out.allocations_per_query = -1;
      return out;
    };
    bench::WriteBenchResultsJson(
        summary_path, "serve_throughput_net",
        {row("net_steady", steady), row("net_overload_admitted", overload)},
        /*mode=*/"net");
  }

  // Bounded-p99 acceptance: overload must shed, not queue. A generous 10x
  // margin keeps 1-core CI boxes from flaking while still catching
  // unbounded queue growth (which shows up as orders of magnitude).
  const bool p99_bounded =
      overload_p99 <= steady_p99 * 10 + 1000;  // +1ms absolute floor
  const bool shed_happened = overload.rejected > 0;
  const bool clean = steady.errors == 0 && overload.errors == 0;
  std::printf(
      "net headline: steady p99 %llu us, overload p99 %llu us (%s), "
      "%llu shed\n",
      static_cast<unsigned long long>(steady_p99),
      static_cast<unsigned long long>(overload_p99),
      p99_bounded ? "bounded" : "UNBOUNDED",
      static_cast<unsigned long long>(overload.rejected));
  if (!clean || !p99_bounded || !shed_happened || requests != responses) {
    std::fprintf(stderr, "net mode FAILED acceptance checks\n");
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Args args(argc, argv, {"titles=N", "queries=N", "epochs=N",
                                "seconds=S", "depth=N", "workers=N",
                                "max_batch=N", "wait_us=N", "json=PATH",
                                "summary_json=PATH", "mode=inproc|net",
                                "connections=N", "net_workers=N"});
  const double seconds = args.GetDouble("seconds", 0.5);
  const size_t depth = static_cast<size_t>(args.GetInt("depth", 16));
  const size_t workers = static_cast<size_t>(args.GetInt("workers", 1));
  const size_t max_batch = static_cast<size_t>(args.GetInt("max_batch", 64));
  const uint64_t wait_us =
      static_cast<uint64_t>(args.GetInt("wait_us", 100));

  std::printf("== serve throughput: training the bench sketch ==\n");
  datagen::ImdbOptions imdb;
  imdb.num_titles = static_cast<size_t>(args.GetInt("titles", 10'000));
  auto db = datagen::GenerateImdb(imdb).value();
  sketch::SketchConfig config;
  config.tables = {"title", "movie_keyword", "keyword"};
  config.num_samples = 256;
  config.num_training_queries =
      static_cast<size_t>(args.GetInt("queries", 1'500));
  config.num_epochs = static_cast<size_t>(args.GetInt("epochs", 5));
  config.hidden_units = 32;
  auto sketch = sketch::DeepSketch::Train(*db, config).value();

  serve::SketchRegistry registry(serve::RegistryOptions{});
  registry.Put("bench", std::move(sketch));
  auto handle = registry.Get("bench").value();

  if (args.GetString("mode", "inproc") == "net") {
    return RunNetMode(args, &registry, seconds);
  }

  // The pre-serving-layer status quo: direct EstimateSql calls in a loop,
  // one query at a time from a single thread. This is the headline's
  // baseline.
  double direct_qps = 0;
  {
    const auto& queries = BenchQueries();
    util::WallTimer timer;
    size_t n = 0;
    while (timer.ElapsedSeconds() < seconds) {
      DS_CHECK_OK(handle->EstimateSql(queries[n % queries.size()]).status());
      ++n;
    }
    direct_qps = static_cast<double>(n) / timer.ElapsedSeconds();
    std::printf(
        "\nsingle-threaded unbatched loop (direct EstimateSql, no server): "
        "%8.0f q/s  (%.1f us/q)\n",
        direct_qps, timer.ElapsedSeconds() * 1e6 / static_cast<double>(n));
  }

  // The kernel layer's single-worker hot path: bound specs through
  // EstimateManyInto with reused thread-local scratch — no parse/bind, no
  // queueing, no caches. This is the estimates/sec number the vectorized
  // zero-allocation kernels are accountable for.
  bench::OpResult batched_op;
  {
    std::vector<workload::QuerySpec> specs;
    for (size_t i = 0; i < max_batch; ++i) {
      specs.push_back(
          sql::ParseAndBind(handle->schema(),
                            BenchQueries()[i % BenchQueries().size()])
              .value());
    }
    std::vector<Result<double>> results;
    batched_op = bench::MeasureOp(
        "estimate_many_into_single_worker", /*warmup=*/10, /*iters=*/300,
        /*queries_per_call=*/specs.size(), [&] {
          handle->EstimateManyInto(specs, &results);
        });
    std::printf(
        "single-worker batched EstimateManyInto (batch=%zu):      %8.0f "
        "estimates/s  (%.2fx the unbatched loop, %.1f allocs/query)\n",
        specs.size(), batched_op.qps, batched_op.qps / direct_qps,
        batched_op.allocations_per_query);
  }

  serve::ServerOptions options;
  options.num_workers = workers;
  options.max_batch = max_batch;
  options.max_wait_us = wait_us;

  std::printf("\n-- cold: caches off, every request runs inference --\n");
  serve::ServerOptions cold = options;
  cold.stmt_cache_capacity = 0;
  cold.result_cache_capacity = 0;
  auto [cold_base, cold_best] = RunRegime(&registry, cold, depth, seconds);
  std::printf("cold peak: %.2fx the server's own unbatched baseline "
              "(per-query inference is the floor)\n",
              cold_best / cold_base);

  std::printf(
      "\n-- serving: production defaults, repeated-statement workload --\n");
  Row best;
  auto [serve_base, serve_best] =
      RunRegime(&registry, options, depth, seconds, &best);
  std::printf("serving peak: %.2fx the server's own unbatched baseline "
              "(batching/pipelining alone, caches identical)\n",
              serve_best / serve_base);

  std::printf("\nbest serving config (%zu clients x depth %zu) client-side ",
              best.clients, best.depth);
  std::printf("%s", best.load.LatencyTable().c_str());

  const std::string json_path = args.GetString(
      "json", "bench_results/serve_throughput_metrics.json");
  if (!json_path.empty()) {
    std::error_code ec;
    const auto parent = std::filesystem::path(json_path).parent_path();
    if (!parent.empty()) std::filesystem::create_directories(parent, ec);
    std::FILE* f = std::fopen(json_path.c_str(), "w");
    if (f != nullptr) {
      const std::string json = obs::ToJson(best.obs);
      std::fwrite(json.data(), 1, json.size(), f);
      std::fputc('\n', f);
      std::fclose(f);
      std::printf("\nwrote final metrics snapshot -> %s\n",
                  json_path.c_str());
    } else {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
    }
  }

  // Machine-readable summary alongside the metrics dump: one row per op.
  const std::string summary_path =
      args.GetString("summary_json", "bench_results/serve_throughput.json");
  if (!summary_path.empty()) {
    std::vector<bench::OpResult> ops;
    {
      const auto& queries = BenchQueries();
      size_t n = 0;
      ops.push_back(bench::MeasureOp(
          "direct_estimate_sql", /*warmup=*/50, /*iters=*/1000,
          /*queries_per_call=*/1, [&] {
            DS_CHECK_OK(
                handle->EstimateSql(queries[n++ % queries.size()]).status());
          }));
    }
    ops.push_back(batched_op);
    bench::OpResult serve_op;
    serve_op.op = "serve_best_batched";
    serve_op.qps = best.load.Qps();
    serve_op.p50_us =
        static_cast<double>(best.load.latency_us.ApproxPercentile(0.50));
    serve_op.p95_us =
        static_cast<double>(best.load.latency_us.ApproxPercentile(0.95));
    const obs::MetricSnapshot* allocs =
        best.obs.Find("ds_serve_batch_allocations");
    const double mean_batch = best.metrics.batch_size.Mean();
    serve_op.allocations_per_query =
        allocs != nullptr && mean_batch > 0 ? allocs->value / mean_batch : -1;
    ops.push_back(serve_op);
    bench::WriteBenchResultsJson(summary_path, "serve_throughput", ops);
  }

  // The serving regime answers repeated statements from the result cache,
  // so this is a cached figure, not an inference one (see "cold peak").
  std::printf(
      "\ncached headline (result-cache hits): batched multi-threaded serving "
      "peaks at %.2fx the single-threaded unbatched EstimateSql loop "
      "(%.0f vs %.0f q/s)\n",
      serve_best / direct_qps, serve_best, direct_qps);
  std::printf(
      "kernel headline: single-worker batched EstimateManyInto runs %.2fx "
      "the pre-serving-layer EstimateSql loop (%.0f vs %.0f estimates/s)\n",
      batched_op.qps / direct_qps, batched_op.qps, direct_qps);
  return 0;
}
