// ds_served — the standalone serving daemon: a SketchServer behind the
// ds::net front-end, run until SIGINT/SIGTERM (or a fixed duration).
//
//   ds_served [<sketch-file>...] [listen=host:port] [demo=imdb|tpch]
//             [workers=N] [net_workers=N] [max_batch=N] [wait_us=N]
//             [queue=N] [rate=R] [burst=B] [seconds=S] [pin=0|1]
//             [pin_workers=0|1] [trace=N] [drain_ms=M]
//
// Every positional argument is a sketch file, registered under its file
// stem (queries name it via the wire protocol's sketch field). A key=value
// argument whose key is not listed above prints the usage line and exits
// 2, so a misspelled flag fails instead of keeping its default. demo=imdb
// trains a small in-memory sketch named "demo" instead — no files needed,
// which is what the CI integration smoke uses.
//
//   listen       bind address, default 127.0.0.1:0 (ephemeral; the chosen
//                port is printed — scripts parse the "listening on" line)
//   workers      SketchServer batching workers (default 2)
//   net_workers  event-loop threads, 0 = one per physical core
//   rate/burst   per-tenant token-bucket admission (0 = admit everything)
//   pin_workers  pin the batching workers one per core, so each worker's
//                inference scratch stays in its core's caches (default 0)
//   seconds      exit after S seconds instead of waiting for a signal
//   trace        sample 1 in N requests for tracing (default 64, 0 = off;
//                wire-propagated trace contexts always record)
//   drain_ms     after SIGTERM/SIGINT, keep serving for M ms with /readyz
//                reporting "draining" before the actual shutdown — the
//                load-balancer grace window
//
// Observability: SIGUSR1 dumps the flight recorder (slowest + most recent
// requests) to stderr without disturbing serving; SIGSEGV/SIGBUS/SIGABRT
// write a crash flight report to stderr before re-raising. /statusz,
// /tracez, /healthz, /readyz are served on the listen port.
//
// On shutdown the daemon stops the front-end first (drains in-flight
// requests), then the batching core, and prints the request/response
// balance — after a clean drain ds_net_requests_total equals the sum of
// ds_net_responses_total over all statuses.

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "ds/datagen/imdb.h"
#include "ds/datagen/tpch.h"
#include "ds/net/server.h"
#include "ds/obs/flight_recorder.h"
#include "ds/serve/registry.h"
#include "ds/serve/server.h"
#include "ds/sketch/deep_sketch.h"

using namespace ds;

namespace {

std::atomic<bool> g_stop{false};
std::atomic<bool> g_dump_flight{false};

void HandleSignal(int) { g_stop.store(true, std::memory_order_relaxed); }

void HandleDumpSignal(int) {
  // Only a flag flip here; the poll loop renders the report outside
  // signal context where locks and allocation are safe.
  g_dump_flight.store(true, std::memory_order_relaxed);
}

int Fail(const Status& status) {
  std::fprintf(stderr, "ds_served: %s\n", status.ToString().c_str());
  return 1;
}

// The key=value flags ds_served reads; also its usage line.
constexpr std::string_view kFlags[] = {
    "listen=host:port", "demo=imdb|tpch", "workers=N",    "net_workers=N",
    "max_batch=N",      "wait_us=N",      "queue=N",      "rate=R",
    "burst=B",          "seconds=S",      "pin=0|1",      "pin_workers=0|1",
    "trace=N",          "drain_ms=M"};

bool KnownFlag(std::string_view key) {
  for (std::string_view f : kFlags) {
    if (f.substr(0, f.find('=')) == key) return true;
  }
  return false;
}

void PrintUsage() {
  std::string line = "usage: ds_served [<sketch-file>...]";
  for (std::string_view f : kFlags) {
    line += " [";
    line += f;
    line += "]";
  }
  std::fprintf(stderr, "%s\n", line.c_str());
}

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

/// Trains the small built-in demo sketch (deterministic, a few seconds) so
/// the daemon can serve without any sketch file on disk.
Result<sketch::DeepSketch> TrainDemoSketch(const std::string& dataset) {
  Result<std::unique_ptr<storage::Catalog>> catalog =
      Status::InvalidArgument("unknown demo dataset '" + dataset +
                              "' (imdb|tpch)");
  if (dataset == "imdb") {
    datagen::ImdbOptions opts;
    opts.num_titles = 4'000;
    opts.seed = 42;
    catalog = datagen::GenerateImdb(opts);
  } else if (dataset == "tpch") {
    datagen::TpchOptions opts;
    opts.num_customers = 1'000;
    opts.seed = 42;
    catalog = datagen::GenerateTpch(opts);
  }
  if (!catalog.ok()) return catalog.status();
  sketch::SketchConfig config;
  config.num_training_queries = 600;
  config.num_epochs = 3;
  config.num_samples = 32;
  config.hidden_units = 16;
  config.max_tables_per_query = 2;
  config.seed = 42;
  return sketch::DeepSketch::Train(**catalog, config);
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags;
  std::vector<std::string> sketch_files;
  for (int i = 1; i < argc; ++i) {
    std::string arg(argv[i]);
    if (arg == "--help") {
      PrintUsage();
      return 0;
    }
    const auto eq = arg.find('=');
    if (eq == std::string::npos) {
      sketch_files.push_back(arg);
    } else if (KnownFlag(arg.substr(0, eq))) {
      flags.values[arg.substr(0, eq)] = arg.substr(eq + 1);
    } else {
      std::fprintf(stderr, "ds_served: unknown argument '%s'\n", arg.c_str());
      PrintUsage();
      return 2;
    }
  }

  const std::string demo = flags.GetString("demo", "");
  if (sketch_files.empty() && demo.empty()) {
    std::fprintf(stderr,
                 "ds_served: nothing to serve (pass sketch files or "
                 "demo=imdb|tpch; see --help)\n");
    return 2;
  }

  serve::SketchRegistry registry{serve::RegistryOptions{}};
  if (!demo.empty()) {
    std::fprintf(stderr, "ds_served: training demo sketch (%s)...\n",
                 demo.c_str());
    auto sketch = TrainDemoSketch(demo);
    if (!sketch.ok()) return Fail(sketch.status());
    registry.Put("demo", std::move(sketch).value());
    std::fprintf(stderr, "ds_served: sketch 'demo' ready\n");
  }
  for (const std::string& file : sketch_files) {
    auto sketch = sketch::DeepSketch::Load(file);
    if (!sketch.ok()) return Fail(sketch.status());
    const std::string name = std::filesystem::path(file).stem().string();
    registry.Put(name, std::move(sketch).value());
    std::fprintf(stderr, "ds_served: sketch '%s' <- %s\n", name.c_str(),
                 file.c_str());
  }

  serve::ServerOptions serve_options;
  serve_options.num_workers =
      static_cast<size_t>(flags.GetInt("workers", 2));
  serve_options.num_queue_shards = serve_options.num_workers;
  serve_options.max_batch = static_cast<size_t>(flags.GetInt("max_batch", 32));
  serve_options.max_wait_us =
      static_cast<uint64_t>(flags.GetInt("wait_us", 200));
  serve_options.queue_capacity =
      static_cast<size_t>(flags.GetInt("queue", 4096));
  serve_options.trace_sample_every =
      static_cast<uint64_t>(flags.GetInt("trace", 64));
  serve_options.pin_workers = flags.GetInt("pin_workers", 0) != 0;
  serve::SketchServer backend(&registry, serve_options);

  // Crash-path observability: a fatal signal dumps the flight recorder's
  // retained requests to stderr before the default handler re-raises.
  obs::SetCrashFlightRecorder(backend.flight());

  net::NetServerOptions net_options;
  const std::string listen = flags.GetString("listen", "127.0.0.1:0");
  const auto colon = listen.rfind(':');
  if (colon == std::string::npos) {
    std::fprintf(stderr, "ds_served: listen must be host:port, got '%s'\n",
                 listen.c_str());
    return 2;
  }
  net_options.host = listen.substr(0, colon);
  net_options.port = static_cast<uint16_t>(
      std::strtoul(listen.c_str() + colon + 1, nullptr, 10));
  net_options.num_workers =
      static_cast<size_t>(flags.GetInt("net_workers", 0));
  net_options.pin_threads = flags.GetInt("pin", 1) != 0;
  net_options.admission.tenant_rate =
      static_cast<double>(flags.GetInt("rate", 0));
  net_options.admission.tenant_burst =
      static_cast<double>(flags.GetInt("burst", 0));
  net::NetServer front(&backend, net_options);
  if (auto st = front.Start(); !st.ok()) return Fail(st);

  // Scripts wait for this exact line and parse the port out of it.
  std::printf("ds_served: listening on %s:%u (%zu net workers)\n",
              net_options.host.c_str(), front.port(), front.num_workers());
  std::fflush(stdout);

  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);
  std::signal(SIGUSR1, HandleDumpSignal);

  const double seconds =
      std::strtod(flags.GetString("seconds", "0").c_str(), nullptr);
  const auto start = std::chrono::steady_clock::now();
  while (!g_stop.load(std::memory_order_relaxed)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    if (g_dump_flight.exchange(false, std::memory_order_relaxed)) {
      std::fprintf(stderr, "%s", backend.flight()->ReportText().c_str());
      std::fflush(stderr);
    }
    if (seconds > 0 &&
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
                .count() >= seconds) {
      break;
    }
  }

  const int64_t drain_ms = flags.GetInt("drain_ms", 0);
  if (drain_ms > 0) {
    // Grace window: /readyz flips to "draining" immediately, but the
    // listener keeps serving so load balancers can observe the flip and
    // route away before connections start failing.
    front.BeginDrain();
    std::fprintf(stderr, "ds_served: draining for %lld ms\n",
                 static_cast<long long>(drain_ms));
    const auto drain_deadline = std::chrono::steady_clock::now() +
                                std::chrono::milliseconds(drain_ms);
    while (std::chrono::steady_clock::now() < drain_deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }

  std::fprintf(stderr, "ds_served: shutting down\n");
  front.Stop();    // drains in-flight requests first
  backend.Stop();  // then the batching core
  const uint64_t requests = front.registry()
                                ->GetCounter("ds_net_requests_total")
                                ->value();
  uint64_t responses = 0;
  for (net::WireStatus s : {net::WireStatus::kOk, net::WireStatus::kError,
                            net::WireStatus::kRejected}) {
    responses += front.registry()
                     ->GetCounter("ds_net_responses_total", "",
                                  {{"status", net::WireStatusName(s)}})
                     ->value();
  }
  std::printf("ds_served: %llu requests, %llu responses (%s)\n",
              static_cast<unsigned long long>(requests),
              static_cast<unsigned long long>(responses),
              requests == responses ? "balanced" : "UNBALANCED");
  return requests == responses ? 0 : 1;
}
