// dsctl — command-line interface to the deepsketch library.
//
//   dsctl gen <imdb|tpch> <out-dir> [titles=N] [customers=N] [seed=N]
//       Generate a synthetic dataset and export every table as CSV.
//
//   dsctl train <imdb|tpch> <sketch-file> [titles=N] [customers=N]
//               [tables=t1,t2,...] [queries=N] [epochs=N] [samples=N]
//               [hidden=N] [seed=N] [threads=N] [log=curve.csv]
//               [verbose=0|1]
//       Generate the dataset in memory, train a Deep Sketch, persist it.
//       Prints one machine-parseable key=value record per epoch; verbose=1
//       adds the human-readable progress line.
//
//   dsctl info <sketch-file>
//       Print a sketch's tables, feature-space dimensions, architecture,
//       and footprint.
//
//   dsctl estimate <sketch-file> <SQL>
//       Estimate a COUNT(*) query using only the sketch file (no database).
//
//   dsctl template <sketch-file> <SQL-with-?> [buckets=N] [max=N]
//       Expand a '?' template from the sketch's column sample and estimate
//       every instance.
//
//   dsctl serve-bench <sketch-file> <SQL> [threads=N] [depth=N] [workers=N]
//               [seconds=S] [max_batch=N] [wait_us=N]
//       Closed-loop throughput of the serving layer on this sketch:
//       unbatched baseline vs. micro-batched, plus the server's metrics
//       and the client-side latency percentile table.
//
//   dsctl serve <sketch-file> [--listen=host:port] [name=N] [workers=N]
//               [net_workers=N] [rate=R] [burst=B] [seconds=S]
//       Serve the sketch over TCP (binary protocol + HTTP; see
//       src/ds/net/protocol.h) until Ctrl-C. listen defaults to
//       127.0.0.1:0 — the bound port is printed. rate/burst enable
//       per-tenant token-bucket admission control.
//
//   dsctl netload <host:port> <sketch-name> [SQL...] [threads=N] [depth=N]
//                 [trace=N]  -- sample 1 in N requests for wire tracing
//               [seconds=S] [tenant=T]
//       Closed-loop networked load against a running ds_served / dsctl
//       serve: each thread keeps `depth` pipelined ESTIMATE frames in
//       flight. With no SQL arguments a demo-imdb corpus is used. Exits
//       nonzero if any request errored (rejections are reported but OK).
//
//   dsctl metrics <sketch-file> <SQL> [requests=N] [format=prom|json]
//       Serve N copies of the query through a SketchServer and print the
//       resulting metric registry in Prometheus text (default) or JSON
//       exposition format.
//
//   dsctl trace <sketch-file> <SQL> [requests=N]
//       Serve N copies of the query with tracing at sample_every=1 and
//       print each recorded span tree (parse -> bind -> featurize -> queue
//       wait -> batched inference -> cache hit/miss).
//
//   dsctl trace export <host:port> [out=FILE]
//   dsctl trace export <sketch-file> <SQL> [requests=N] [out=FILE]
//       Export the span ring as Chrome trace-event JSON (loadable in
//       about:tracing / Perfetto). The host:port form pulls a live
//       server's /tracez?format=chrome; the sketch-file form serves the
//       query locally at sample_every=1 first. The output is validated
//       for JSON well-formedness before it is written.
//
//   dsctl top <host:port> [interval=S] [iters=N]
//       Live serving dashboard: repaints /statusz?format=text (build,
//       uptime, per-tenant ledger with p50/p99) every `interval` seconds.
//       iters=N exits after N refreshes (iters=1 prints once, no clear).
//
//   dsctl jsoncheck [<file>]
//       Validate JSON well-formedness of a file (or stdin). Exits nonzero
//       with the first syntax error and its byte offset — the CI check
//       behind `dsctl trace export`.
//
// Generation is deterministic per seed, so a sketch trained via `dsctl
// train imdb ... seed=42` answers queries about exactly the dataset that
// `dsctl gen imdb ... seed=42` exports.
//
// Every subcommand accepts only the key=value flags listed for it: any
// other argument prints the subcommand's usage line and exits 2.

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "ds/datagen/imdb.h"
#include "ds/net/client.h"
#include "ds/net/server.h"
#include "ds/datagen/tpch.h"
#include "ds/mscn/logger.h"
#include "ds/obs/export.h"
#include "ds/obs/exposition.h"
#include "ds/obs/trace.h"
#include "ds/util/json_check.h"
#include "ds/serve/loadgen.h"
#include "ds/serve/registry.h"
#include "ds/serve/server.h"
#include "ds/sketch/deep_sketch.h"
#include "ds/sketch/template.h"
#include "ds/storage/csv.h"
#include "ds/util/string_util.h"

using namespace ds;

namespace {

struct Flags {
  std::map<std::string, std::string> values;

  int64_t GetInt(const std::string& name, int64_t def) const {
    auto it = values.find(name);
    return it == values.end() ? def
                              : std::strtoll(it->second.c_str(), nullptr, 10);
  }
  std::string GetString(const std::string& name,
                        const std::string& def) const {
    auto it = values.find(name);
    return it == values.end() ? def : it->second;
  }
};

/// One subcommand's command line: its positional arguments and the flags
/// it reads, each written "key=HINT". The flag list is both the usage line
/// and the set of keys ParseFlags accepts, so the two cannot drift apart.
struct Usage {
  const char* command;  // e.g. "train <imdb|tpch> <sketch-file>"
  std::vector<std::string_view> flags;

  bool Knows(std::string_view key) const {
    for (std::string_view f : flags) {
      if (f.substr(0, f.find('=')) == key) return true;
    }
    return false;
  }

  /// Prints the usage line to stderr; returns the usage exit code.
  int Print() const {
    std::string line = std::string("usage: dsctl ") + command;
    for (std::string_view f : flags) {
      line += " [";
      line += f;
      line += "]";
    }
    std::fprintf(stderr, "%s\n", line.c_str());
    return 2;
  }
};

/// Reports an argument `usage` does not accept; returns the usage exit code.
int RejectArgument(const std::string& arg, const Usage& usage) {
  std::fprintf(stderr, "dsctl: unknown argument '%s'\n", arg.c_str());
  return usage.Print();
}

/// Parses the key=value arguments from argv[first] on into `flags`. An
/// argument that is not key=value, or whose key the command does not read,
/// prints the usage line and returns false: a misspelled flag fails the run
/// instead of silently leaving its default in place.
bool ParseFlags(int argc, char** argv, int first, const Usage& usage,
                Flags* flags) {
  for (int i = first; i < argc; ++i) {
    const std::string arg(argv[i]);
    const auto eq = arg.find('=');
    if (eq == std::string::npos || !usage.Knows(arg.substr(0, eq))) {
      RejectArgument(arg, usage);
      return false;
    }
    flags->values[arg.substr(0, eq)] = arg.substr(eq + 1);
  }
  return true;
}

Result<std::unique_ptr<storage::Catalog>> MakeDataset(
    const std::string& name, const Flags& flags) {
  if (name == "imdb") {
    datagen::ImdbOptions opts;
    opts.num_titles = static_cast<size_t>(flags.GetInt("titles", 15'000));
    opts.seed = static_cast<uint64_t>(flags.GetInt("seed", 42));
    return datagen::GenerateImdb(opts);
  }
  if (name == "tpch") {
    datagen::TpchOptions opts;
    opts.num_customers =
        static_cast<size_t>(flags.GetInt("customers", 3'000));
    opts.seed = static_cast<uint64_t>(flags.GetInt("seed", 42));
    return datagen::GenerateTpch(opts);
  }
  return Status::InvalidArgument("unknown dataset '" + name +
                                 "' (imdb|tpch)");
}

int Fail(const Status& status) {
  std::fprintf(stderr, "dsctl: %s\n", status.ToString().c_str());
  return 1;
}

int CmdGen(int argc, char** argv) {
  const Usage usage{"gen <imdb|tpch> <out-dir>",
                    {"titles=N", "customers=N", "seed=N"}};
  Flags flags;
  if (argc < 4) return usage.Print();
  if (!ParseFlags(argc, argv, 4, usage, &flags)) return 2;
  auto catalog = MakeDataset(argv[2], flags);
  if (!catalog.ok()) return Fail(catalog.status());
  const std::string dir = argv[3];
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  for (const auto* table : (*catalog)->tables()) {
    const std::string path = dir + "/" + table->name() + ".csv";
    if (auto st = storage::WriteTableCsv(*table, path); !st.ok()) {
      return Fail(st);
    }
    std::printf("wrote %-18s (%zu rows) -> %s\n", table->name().c_str(),
                table->num_rows(), path.c_str());
  }
  return 0;
}

int CmdTrain(int argc, char** argv) {
  const Usage usage{"train <imdb|tpch> <sketch-file>",
                    {"titles=N", "customers=N", "tables=t1,t2,...",
                     "queries=N", "epochs=N", "samples=N", "hidden=N",
                     "seed=N", "threads=N", "log=FILE", "verbose=0|1"}};
  Flags flags;
  if (argc < 4) return usage.Print();
  if (!ParseFlags(argc, argv, 4, usage, &flags)) return 2;
  auto catalog = MakeDataset(argv[2], flags);
  if (!catalog.ok()) return Fail(catalog.status());

  sketch::SketchConfig config;
  const std::string tables_csv = flags.GetString("tables", "");
  if (!tables_csv.empty()) config.tables = util::Split(tables_csv, ',');
  config.num_training_queries =
      static_cast<size_t>(flags.GetInt("queries", 8'000));
  config.num_epochs = static_cast<size_t>(flags.GetInt("epochs", 25));
  config.num_samples = static_cast<size_t>(flags.GetInt("samples", 256));
  config.hidden_units = static_cast<size_t>(flags.GetInt("hidden", 64));
  config.seed = static_cast<uint64_t>(flags.GetInt("seed", 42));
  config.training_threads = static_cast<size_t>(flags.GetInt("threads", 1));

  sketch::TrainingMonitor monitor;
  monitor.on_labeling_progress = [](size_t done, size_t total) {
    if (done % 2000 == 0 || done == total) {
      std::printf("labeling %zu/%zu\r", done, total);
      std::fflush(stdout);
    }
  };
  std::unique_ptr<mscn::TrainingLogger> logger;
  const std::string log_path = flags.GetString("log", "");
  if (!log_path.empty()) {
    auto opened = mscn::TrainingLogger::Open(log_path);
    if (!opened.ok()) return Fail(opened.status());
    logger = std::make_unique<mscn::TrainingLogger>(std::move(opened).value());
  }
  const bool verbose = flags.GetInt("verbose", 0) != 0;
  monitor.on_epoch = [&](const mscn::EpochStats& e) {
    if (logger != nullptr) logger->LogEpoch(e);
    std::printf("%s\n", mscn::FormatEpochRecord(e).c_str());
    if (verbose) {
      std::printf(
          "  epoch %3zu  loss %8.3f  val mean-q %7.2f  median-q %6.2f\n",
          e.epoch, e.train_loss, e.validation_mean_q,
          e.validation_median_q);
    }
  };

  auto sketch = sketch::DeepSketch::Train(**catalog, config, &monitor);
  if (!sketch.ok()) return Fail(sketch.status());
  if (auto st = sketch->Save(argv[3]); !st.ok()) return Fail(st);
  std::printf("sketch saved to %s (%s)\n", argv[3],
              util::HumanBytes(sketch->SerializedSize()).c_str());
  return 0;
}

int CmdInfo(int argc, char** argv) {
  if (argc < 3) {
    std::fprintf(stderr, "usage: dsctl info <sketch-file>\n");
    return 2;
  }
  auto sketch = sketch::DeepSketch::Load(argv[2]);
  if (!sketch.ok()) return Fail(sketch.status());
  std::printf("tables:");
  for (const auto& t : sketch->tables()) std::printf(" %s", t.c_str());
  std::printf("\nsamples per table: %zu\n",
              sketch->feature_space().sample_size());
  const auto& space = sketch->feature_space();
  std::printf("feature space: %zu tables, %zu joins, %zu columns\n",
              space.table_names().size(), space.num_joins(),
              space.num_columns());
  std::printf("model parameters: %zu\n", sketch->num_model_parameters());
  std::printf("serialized size: %s\n",
              util::HumanBytes(sketch->SerializedSize()).c_str());
  return 0;
}

int CmdEstimate(int argc, char** argv) {
  if (argc < 4) {
    std::fprintf(stderr, "usage: dsctl estimate <sketch-file> <SQL>\n");
    return 2;
  }
  auto sketch = sketch::DeepSketch::Load(argv[2]);
  if (!sketch.ok()) return Fail(sketch.status());
  auto est = sketch->EstimateSql(argv[3]);
  if (!est.ok()) return Fail(est.status());
  std::printf("%.0f\n", *est);
  return 0;
}

int CmdTemplate(int argc, char** argv) {
  const Usage usage{"template <sketch-file> <SQL-with-?>",
                    {"buckets=N", "max=N"}};
  Flags flags;
  if (argc < 4) return usage.Print();
  if (!ParseFlags(argc, argv, 4, usage, &flags)) return 2;
  auto sketch = sketch::DeepSketch::Load(argv[2]);
  if (!sketch.ok()) return Fail(sketch.status());
  auto bound = sketch->BindSql(argv[3]);
  if (!bound.ok()) return Fail(bound.status());
  sketch::TemplateOptions opts;
  const int64_t buckets = flags.GetInt("buckets", 0);
  if (buckets > 0) {
    opts.grouping = sketch::TemplateOptions::Grouping::kBuckets;
    opts.num_buckets = static_cast<size_t>(buckets);
  }
  opts.max_instances = static_cast<size_t>(flags.GetInt("max", 64));
  auto instances = sketch::InstantiateTemplate(*bound, sketch->samples(), opts);
  if (!instances.ok()) return Fail(instances.status());
  for (const auto& inst : *instances) {
    auto est = sketch->EstimateCardinality(inst.spec);
    if (!est.ok()) return Fail(est.status());
    std::printf("%-28s %12.0f\n", inst.label.c_str(), *est);
  }
  return 0;
}

int CmdServeBench(int argc, char** argv) {
  const Usage usage{"serve-bench <sketch-file> <SQL>",
                    {"threads=N", "depth=N", "workers=N", "seconds=S",
                     "max_batch=N", "wait_us=N"}};
  Flags flags;
  if (argc < 4) return usage.Print();
  if (!ParseFlags(argc, argv, 4, usage, &flags)) return 2;
  auto sketch = sketch::DeepSketch::Load(argv[2]);
  if (!sketch.ok()) return Fail(sketch.status());
  // Fail fast on SQL the sketch cannot answer, before spinning up threads.
  if (auto probe = sketch->EstimateSql(argv[3]); !probe.ok()) {
    return Fail(probe.status());
  }

  serve::SketchRegistry registry(serve::RegistryOptions{});
  registry.Put("sketch", std::move(sketch).value());
  const std::vector<std::string> sqls = {argv[3]};

  serve::LoadOptions load;
  load.threads = static_cast<size_t>(flags.GetInt("threads", 4));
  load.seconds = 1.0;
  if (auto s = flags.GetString("seconds", ""); !s.empty()) {
    load.seconds = std::strtod(s.c_str(), nullptr);
  }

  serve::ServerOptions options;
  options.num_workers = static_cast<size_t>(flags.GetInt("workers", 2));
  options.max_batch = static_cast<size_t>(flags.GetInt("max_batch", 32));
  options.max_wait_us = static_cast<uint64_t>(flags.GetInt("wait_us", 200));

  // Baseline: strict single-threaded unbatched request/response loop.
  double baseline_qps = 0;
  {
    serve::ServerOptions base = options;
    base.num_workers = 1;
    base.enable_batching = false;
    serve::SketchServer server(&registry, base);
    serve::LoadOptions one;
    one.seconds = load.seconds;
    baseline_qps = serve::RunClosedLoop(&server, "sketch", sqls, one).Qps();
    std::printf("unbatched 1-thread baseline: %8.0f q/s\n", baseline_qps);
  }

  load.pipeline_depth = static_cast<size_t>(flags.GetInt("depth", 8));
  serve::SketchServer server(&registry, options);
  auto report = serve::RunClosedLoop(&server, "sketch", sqls, load);
  server.Stop();
  std::printf(
      "batched, %zu threads x depth %zu: %8.0f q/s (%.2fx baseline, "
      "%llu errors)\n\n",
      load.threads, load.pipeline_depth, report.Qps(),
      report.Qps() / baseline_qps,
      static_cast<unsigned long long>(report.errors));
  std::printf("%s", server.Metrics().ToString().c_str());
  std::printf("%s", report.LatencyTable().c_str());
  return 0;
}

std::atomic<bool> g_serve_stop{false};

void HandleServeSignal(int) {
  g_serve_stop.store(true, std::memory_order_relaxed);
}

int CmdServe(int argc, char** argv) {
  const Usage usage{"serve <sketch-file>",
                    {"--listen=host:port", "listen=host:port", "name=NAME",
                     "workers=N", "net_workers=N", "rate=R", "burst=B",
                     "seconds=S"}};
  Flags flags;
  if (argc < 3) return usage.Print();
  if (!ParseFlags(argc, argv, 3, usage, &flags)) return 2;
  auto sketch = sketch::DeepSketch::Load(argv[2]);
  if (!sketch.ok()) return Fail(sketch.status());
  const std::string default_name =
      std::filesystem::path(argv[2]).stem().string();
  const std::string name = flags.GetString("name", default_name);
  serve::SketchRegistry registry{serve::RegistryOptions{}};
  registry.Put(name, std::move(sketch).value());

  serve::ServerOptions serve_options;
  serve_options.num_workers =
      static_cast<size_t>(flags.GetInt("workers", 2));
  serve_options.num_queue_shards = serve_options.num_workers;
  serve::SketchServer backend(&registry, serve_options);

  net::NetServerOptions net_options;
  const std::string listen = flags.GetString(
      "--listen", flags.GetString("listen", "127.0.0.1:0"));
  const auto colon = listen.rfind(':');
  if (colon == std::string::npos) {
    std::fprintf(stderr, "dsctl: listen must be host:port, got '%s'\n",
                 listen.c_str());
    return 2;
  }
  net_options.host = listen.substr(0, colon);
  net_options.port = static_cast<uint16_t>(
      std::strtoul(listen.c_str() + colon + 1, nullptr, 10));
  net_options.num_workers =
      static_cast<size_t>(flags.GetInt("net_workers", 0));
  net_options.admission.tenant_rate =
      static_cast<double>(flags.GetInt("rate", 0));
  net_options.admission.tenant_burst =
      static_cast<double>(flags.GetInt("burst", 0));
  net::NetServer front(&backend, net_options);
  if (auto st = front.Start(); !st.ok()) return Fail(st);
  std::printf("dsctl: serving '%s' on %s:%u (%zu net workers)\n",
              name.c_str(), net_options.host.c_str(), front.port(),
              front.num_workers());
  std::fflush(stdout);

  std::signal(SIGINT, HandleServeSignal);
  std::signal(SIGTERM, HandleServeSignal);
  const double seconds =
      std::strtod(flags.GetString("seconds", "0").c_str(), nullptr);
  const auto start = std::chrono::steady_clock::now();
  while (!g_serve_stop.load(std::memory_order_relaxed)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    if (seconds > 0 &&
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
                .count() >= seconds) {
      break;
    }
  }
  front.Stop();
  backend.Stop();
  std::printf("%s", backend.Metrics().ToString().c_str());
  return 0;
}

int CmdNetLoad(int argc, char** argv) {
  const Usage usage{"netload <host:port> <sketch-name> [SQL...]",
                    {"threads=N", "depth=N", "seconds=S", "tenant=T",
                     "trace=N"}};
  if (argc < 4) return usage.Print();
  const std::string target = argv[2];
  const auto colon = target.rfind(':');
  if (colon == std::string::npos) {
    std::fprintf(stderr, "dsctl: target must be host:port, got '%s'\n",
                 target.c_str());
    return 2;
  }
  const std::string host = target.substr(0, colon);
  const auto port = static_cast<uint16_t>(
      std::strtoul(target.c_str() + colon + 1, nullptr, 10));
  Flags flags;
  std::vector<std::string> sqls;
  for (int i = 4; i < argc; ++i) {
    std::string arg(argv[i]);
    const auto eq = arg.find('=');
    // Query text contains spaces but never '=' before a space-free prefix
    // that looks like a flag name; anything with '=' in its first token is
    // a flag, the rest are SQL statements.
    if (eq != std::string::npos && arg.find(' ') > eq) {
      if (!usage.Knows(arg.substr(0, eq))) return RejectArgument(arg, usage);
      flags.values[arg.substr(0, eq)] = arg.substr(eq + 1);
    } else {
      sqls.push_back(std::move(arg));
    }
  }
  if (sqls.empty()) {
    // The built-in demo corpus: valid against `ds_served demo=imdb`.
    sqls = {
        "SELECT COUNT(*) FROM title t WHERE t.production_year > 2000",
        "SELECT COUNT(*) FROM title t, movie_keyword mk "
        "WHERE mk.movie_id = t.id",
        "SELECT COUNT(*) FROM title t WHERE t.kind_id = 1",
    };
  }

  serve::LoadOptions load;
  load.threads = static_cast<size_t>(flags.GetInt("threads", 4));
  load.pipeline_depth = static_cast<size_t>(flags.GetInt("depth", 4));
  load.seconds = std::strtod(flags.GetString("seconds", "5").c_str(), nullptr);
  load.trace_sample_every =
      static_cast<uint64_t>(flags.GetInt("trace", 0));
  const std::string tenant = flags.GetString("tenant", "");

  auto report = serve::RunNetClosedLoop(host, port, argv[3], sqls, load,
                                        tenant);
  std::printf(
      "netload %s sketch '%s': %zu threads x depth %zu for %.1fs\n"
      "  %8.0f q/s  ok=%llu errors=%llu rejected=%llu\n",
      target.c_str(), argv[3], load.threads, load.pipeline_depth,
      load.seconds, report.Qps(),
      static_cast<unsigned long long>(report.ok),
      static_cast<unsigned long long>(report.errors),
      static_cast<unsigned long long>(report.rejected));
  std::printf("%s", report.LatencyTable().c_str());
  // Errors mean the server answered with failures or dropped connections;
  // rejections are an expected overload outcome and do not fail the run.
  return report.errors == 0 && report.ok > 0 ? 0 : 1;
}

/// Shared by CmdMetrics / CmdTrace: loads the sketch, serves `requests`
/// copies of `sql` through a fresh server (configured by the caller), and
/// leaves the server stopped so its instruments are final.
Result<std::unique_ptr<serve::SketchServer>> ServeQueries(
    serve::SketchRegistry* registry, const char* sketch_file, const char* sql,
    size_t requests, serve::ServerOptions options) {
  auto sketch = sketch::DeepSketch::Load(sketch_file);
  if (!sketch.ok()) return sketch.status();
  if (auto probe = sketch->EstimateSql(sql); !probe.ok()) {
    return probe.status();
  }
  registry->Put("sketch", std::move(sketch).value());
  auto server = std::make_unique<serve::SketchServer>(registry, options);
  std::vector<std::string> sqls(requests, sql);
  for (auto& s : server->SubmitMany("sketch", std::move(sqls))) {
    (void)s.future.get();
  }
  server->Stop();
  return server;
}

int CmdMetrics(int argc, char** argv) {
  const Usage usage{"metrics <sketch-file> <SQL>",
                    {"requests=N", "format=prom|json"}};
  Flags flags;
  if (argc < 4) return usage.Print();
  if (!ParseFlags(argc, argv, 4, usage, &flags)) return 2;
  const std::string format = flags.GetString("format", "prom");
  if (format != "prom" && format != "json") {
    std::fprintf(stderr, "dsctl: unknown format '%s' (prom|json)\n",
                 format.c_str());
    return 2;
  }
  serve::SketchRegistry registry(serve::RegistryOptions{});
  auto server = ServeQueries(
      &registry, argv[2], argv[3],
      static_cast<size_t>(flags.GetInt("requests", 64)),
      serve::ServerOptions{});
  if (!server.ok()) return Fail(server.status());
  if (format == "json") {
    std::printf("%s\n", (*server)->MetricsJson().c_str());
  } else {
    std::printf("%s", obs::ToPrometheusText((*server)->ObsSnapshot()).c_str());
  }
  return 0;
}

/// Parses "host:port" into its parts; false (with a message printed) when
/// the argument has no colon.
bool ParseHostPort(const std::string& target, std::string* host,
                   uint16_t* port) {
  const auto colon = target.rfind(':');
  if (colon == std::string::npos) {
    std::fprintf(stderr, "dsctl: expected host:port, got '%s'\n",
                 target.c_str());
    return false;
  }
  *host = target.substr(0, colon);
  *port = static_cast<uint16_t>(
      std::strtoul(target.c_str() + colon + 1, nullptr, 10));
  return true;
}

int WriteOutput(const std::string& out_path, const std::string& body) {
  if (out_path.empty()) {
    std::printf("%s\n", body.c_str());
    return 0;
  }
  std::FILE* f = std::fopen(out_path.c_str(), "wb");
  if (f == nullptr) {
    std::fprintf(stderr, "dsctl: cannot open %s for writing\n",
                 out_path.c_str());
    return 1;
  }
  const size_t written = std::fwrite(body.data(), 1, body.size(), f);
  std::fclose(f);
  if (written != body.size()) {
    std::fprintf(stderr, "dsctl: short write to %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(stderr, "dsctl: wrote %zu bytes to %s\n", body.size(),
               out_path.c_str());
  return 0;
}

int CmdTraceExport(int argc, char** argv) {
  // argv: dsctl trace export <host:port | sketch-file SQL> [flags...]
  const Usage remote_usage{"trace export <host:port>", {"out=FILE"}};
  const Usage local_usage{"trace export <sketch-file> <SQL>",
                          {"requests=N", "out=FILE"}};
  if (argc < 4) {
    remote_usage.Print();
    return local_usage.Print();
  }
  const std::string target = argv[3];
  // A host:port target has a colon and names no existing file; anything
  // else is treated as the local sketch-file form.
  const bool remote = target.rfind(':') != std::string::npos &&
                      !std::filesystem::exists(target);
  std::string json;
  Flags flags;
  if (remote) {
    if (!ParseFlags(argc, argv, 4, remote_usage, &flags)) return 2;
    std::string host;
    uint16_t port = 0;
    if (!ParseHostPort(target, &host, &port)) return 2;
    auto body = net::HttpGet(host, port, "/tracez?format=chrome");
    if (!body.ok()) return Fail(body.status());
    json = std::move(body).value();
  } else {
    if (argc < 5) return local_usage.Print();
    if (!ParseFlags(argc, argv, 5, local_usage, &flags)) return 2;
    serve::ServerOptions options;
    options.trace_sample_every = 1;
    options.stmt_cache_capacity = 0;
    options.result_cache_capacity = 0;
    serve::SketchRegistry registry(serve::RegistryOptions{});
    auto server = ServeQueries(
        &registry, argv[3], argv[4],
        static_cast<size_t>(flags.GetInt("requests", 4)), options);
    if (!server.ok()) return Fail(server.status());
    json = obs::ToChromeTraceJson((*server)->tracer()->Snapshot());
  }
  std::string error;
  if (!util::JsonWellFormed(json, &error)) {
    std::fprintf(stderr, "dsctl: exporter produced malformed JSON: %s\n",
                 error.c_str());
    return 1;
  }
  return WriteOutput(flags.GetString("out", ""), json);
}

int CmdTop(int argc, char** argv) {
  const Usage usage{"top <host:port>", {"interval=S", "iters=N"}};
  Flags flags;
  if (argc < 3) return usage.Print();
  std::string host;
  uint16_t port = 0;
  if (!ParseHostPort(argv[2], &host, &port)) return 2;
  if (!ParseFlags(argc, argv, 3, usage, &flags)) return 2;
  const double interval =
      std::strtod(flags.GetString("interval", "2").c_str(), nullptr);
  const int64_t iters = flags.GetInt("iters", 0);
  for (int64_t i = 0; iters <= 0 || i < iters; ++i) {
    auto body = net::HttpGet(host, port, "/statusz?format=text");
    if (!body.ok()) return Fail(body.status());
    // A single fetch (iters=1) is the scriptable mode — no screen clear.
    if (iters != 1) std::printf("\x1b[H\x1b[2J");
    std::printf("%s", body->c_str());
    std::fflush(stdout);
    if (iters > 0 && i + 1 >= iters) break;
    std::this_thread::sleep_for(std::chrono::duration<double>(
        interval > 0 ? interval : 2.0));
  }
  return 0;
}

int CmdJsonCheck(int argc, char** argv) {
  std::string input;
  const bool from_stdin =
      argc < 3 || std::string_view(argv[2]) == "-";
  std::FILE* f = from_stdin ? stdin : std::fopen(argv[2], "rb");
  if (f == nullptr) {
    std::fprintf(stderr, "dsctl: cannot open %s\n", argv[2]);
    return 1;
  }
  char buf[4096];
  size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    input.append(buf, n);
  }
  if (!from_stdin) std::fclose(f);
  std::string error;
  if (!util::JsonWellFormed(input, &error)) {
    std::fprintf(stderr, "dsctl: %s\n", error.c_str());
    return 1;
  }
  std::printf("ok (%zu bytes)\n", input.size());
  return 0;
}

int CmdTrace(int argc, char** argv) {
  if (argc >= 3 && std::string_view(argv[2]) == "export") {
    return CmdTraceExport(argc, argv);
  }
  const Usage usage{"trace <sketch-file> <SQL>", {"requests=N"}};
  Flags flags;
  if (argc < 4) return usage.Print();
  if (!ParseFlags(argc, argv, 4, usage, &flags)) return 2;
  serve::ServerOptions options;
  options.trace_sample_every = 1;
  // Traces should show real parse/bind/infer work, not cache hits.
  options.stmt_cache_capacity = 0;
  options.result_cache_capacity = 0;
  serve::SketchRegistry registry(serve::RegistryOptions{});
  auto server = ServeQueries(
      &registry, argv[2], argv[3],
      static_cast<size_t>(flags.GetInt("requests", 4)), options);
  if (!server.ok()) return Fail(server.status());
  const obs::TraceRecorder* tracer = (*server)->tracer();
  for (uint64_t id : tracer->TraceIds()) {
    std::printf("%s\n", obs::FormatTrace(tracer->Trace(id)).c_str());
  }
  std::printf("sampled %llu trace(s), dropped %llu span(s)\n",
              static_cast<unsigned long long>(tracer->sampled()),
              static_cast<unsigned long long>(tracer->dropped()));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: dsctl "
                 "<gen|train|info|estimate|template|serve|netload|"
                 "serve-bench|metrics|trace|top|jsoncheck> ...\n");
    return 2;
  }
  const std::string cmd = argv[1];
  if (cmd == "gen") return CmdGen(argc, argv);
  if (cmd == "train") return CmdTrain(argc, argv);
  if (cmd == "info") return CmdInfo(argc, argv);
  if (cmd == "estimate") return CmdEstimate(argc, argv);
  if (cmd == "template") return CmdTemplate(argc, argv);
  if (cmd == "serve") return CmdServe(argc, argv);
  if (cmd == "netload") return CmdNetLoad(argc, argv);
  if (cmd == "serve-bench") return CmdServeBench(argc, argv);
  if (cmd == "metrics") return CmdMetrics(argc, argv);
  if (cmd == "trace") return CmdTrace(argc, argv);
  if (cmd == "top") return CmdTop(argc, argv);
  if (cmd == "jsoncheck") return CmdJsonCheck(argc, argv);
  std::fprintf(stderr, "dsctl: unknown command '%s'\n", cmd.c_str());
  return 2;
}
