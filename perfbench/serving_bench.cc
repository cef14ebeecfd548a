// Serving-path benchmark for Deep Sketches: one process drives the real
// stack over the binary wire protocol,
//
//   net::NetClient -> net::NetServer -> serve::SketchServer
//                  -> sketch::DeepSketch (sql -> mscn featurizer -> nn)
//
// and reports what an optimizer calling the sketch would see: estimates per
// second, per-frame latency, failures, and the q-error of the estimates it
// gets back. perfbench/README.md says why each workload exists and which
// per-layer metric should move which end-to-end metric.
//
//   ds_perfbench --workload=cold_wire|cached_wire|template_batch
//                --seed=N --seconds=S --trace=0|1
//                [--git-sha=SHA] [--src-digest=HEX]
//
// --trace=0 runs the untraced closed loop and prints the end-to-end
// metrics. --trace=1 runs the same loop for half the time, then times calls
// into each layer's public functions from here (nothing inside the library
// is instrumented for this) and prints the per-layer metrics.
//
// The last line of stdout is one JSON object: {"correct", "attempted",
// "failed", "metrics"}. The lines above it are a readable table (with the
// sample count behind every percentile) and a provenance stamp. The run
// fails (correct=false, exit 1) when a served estimate differs from the
// in-process estimate for the same statement, when the wire ledger does not
// balance after Stop, or when a held-out query cannot be served.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "ds/datagen/imdb.h"
#include "ds/net/client.h"
#include "ds/net/http.h"
#include "ds/net/server.h"
#include "ds/nn/kernels.h"
#include "ds/serve/registry.h"
#include "ds/serve/server.h"
#include "ds/sketch/deep_sketch.h"
#include "ds/sketch/template.h"
#include "ds/sql/binder.h"
#include "ds/util/alloc.h"
#include "ds/util/build_info.h"
#include "ds/util/random.h"
#include "ds/util/stats.h"
#include "ds/util/timer.h"
#include "ds/workload/generator.h"
#include "ds/workload/labeler.h"

using namespace ds;

namespace {

using Clock = std::chrono::steady_clock;

// ---- Fixed configuration ------------------------------------------------------
//
// Thread budget: 2 client threads + 1 event loop + 1 serve worker = 4, the
// core count of the box the budget in README.md was taken on. Everything
// else follows ds_served's defaults, with pinning off.
constexpr size_t kClients = 2;
constexpr size_t kNetWorkers = 1;
constexpr size_t kServeWorkers = 1;
constexpr size_t kMaxBatch = 32;
constexpr uint64_t kMaxWaitUs = 200;
constexpr size_t kQueueCapacity = 4096;
constexpr uint64_t kTraceSampleEvery = 64;

constexpr char kSketchName[] = "imdb";
constexpr size_t kTitles = 10'000;
constexpr uint64_t kDataSeed = 42;
constexpr size_t kTrainingQueries = 3'000;
constexpr size_t kEpochs = 10;
// The held-out set is part of the set-up, so it is the same for every
// workload and every --seed.
constexpr size_t kHeldOutQueries = 240;
constexpr uint64_t kHeldOutSeed = 7;

// Set-up runs this many times per process; setup_s is the median.
constexpr size_t kSetupReps = 3;

// Statement streams. The cold streams hold 5x more distinct statements than
// the server's result cache (4096 entries) or statement cache (1024), so
// cycling through them never repeats a statement within one cache capacity.
constexpr size_t kColdStatements = 20'480;
constexpr size_t kCachedStatements = 32;
constexpr size_t kFrameSize = 64;  // template_batch instances per frame
static_assert(kColdStatements % kFrameSize == 0, "frames must be whole");

constexpr double kWarmupSeconds = 1.0;
constexpr double kSliceSeconds = 0.5;  // see WindowStats
constexpr double kQuietShare = 0.25;
constexpr size_t kLayerSamples = 2'000;
constexpr size_t kBatch64Samples = 64;

const std::vector<std::string>& SketchTables() {
  static const std::vector<std::string> tables = {"title", "movie_keyword",
                                                  "keyword"};
  return tables;
}

// ---- Small helpers ----------------------------------------------------------------

double Us(Clock::duration d) {
  return std::chrono::duration<double, std::micro>(d).count();
}

/// Exact percentile over kept raw samples (linear interpolation between
/// closest ranks), never a histogram bucket edge.
double Pct(const std::vector<double>& samples, double p) {
  return samples.empty() ? 0.0 : util::Percentile(samples, p);
}

bool SameBits(double a, double b) {
  return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

[[noreturn]] void Die(const std::string& what) {
  std::fprintf(stderr, "ds_perfbench: %s\n", what.c_str());
  std::exit(1);
}

template <typename T>
T Must(Result<T> r, const char* what) {
  if (!r.ok()) Die(std::string(what) + ": " + r.status().ToString());
  return std::move(r).value();
}

/// One reported metric. `samples` is the number of raw observations behind
/// a percentile or mean (0 for counts, sizes and set-up times).
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  size_t samples = 0;
};

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  std::string git_sha;
  std::string src_digest = "unknown";
};

Args ParseArgs(int argc, char** argv) {
  Args args;
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto eq = arg.find('=');
    if (arg.rfind("--", 0) != 0 || eq == std::string::npos) {
      Die("bad argument '" + arg + "' (expected --name=value)");
    }
    const std::string name = arg.substr(2, eq - 2);
    const std::string value = arg.substr(eq + 1);
    char* end = nullptr;
    if (name == "workload") {
      args.workload = value;
      have_workload = true;
    } else if (name == "seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end != value.c_str() && *end == '\0';
    } else if (name == "seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      have_seconds = end != value.c_str() && *end == '\0' && args.seconds > 0;
    } else if (name == "trace") {
      args.trace = value == "1";
      have_trace = value == "0" || value == "1";
    } else if (name == "git-sha") {
      args.git_sha = value;
    } else if (name == "src-digest") {
      args.src_digest = value;
    } else {
      Die("unknown argument '" + arg + "'");
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace) {
    Die("usage: ds_perfbench --workload=cold_wire|cached_wire|template_batch "
        "--seed=N --seconds=S --trace=0|1");
  }
  if (args.workload != "cold_wire" && args.workload != "cached_wire" &&
      args.workload != "template_batch") {
    Die("unknown workload '" + args.workload + "'");
  }
  if (args.git_sha.empty() || args.git_sha == "unknown") {
    args.git_sha = util::GetBuildInfo().git_sha;
  }
  return args;
}

// ---- Set-up --------------------------------------------------------------------

/// The serving stack, torn down front to back.
struct Stack {
  std::unique_ptr<serve::SketchRegistry> registry;
  std::unique_ptr<serve::SketchServer> backend;
  std::unique_ptr<net::NetServer> front;

  ~Stack() { Stop(); }

  void Stop() {
    if (front) front->Stop();
    if (backend) backend->Stop();
  }
};

struct SetupTimes {
  double datagen_s = 0, train_s = 0, label_s = 0, server_start_s = 0;
  double total() const { return datagen_s + train_s + label_s + server_start_s; }
};

struct Setup {
  std::unique_ptr<storage::Catalog> db;
  std::shared_ptr<const sketch::DeepSketch> sketch;  // the served object
  std::vector<workload::LabeledQuery> heldout;
  std::vector<std::string> heldout_sql;
  std::vector<double> heldout_ref;  // in-process estimates, batch 1
  std::unique_ptr<Stack> stack;
  SetupTimes times;
};

sketch::SketchConfig MakeSketchConfig() {
  sketch::SketchConfig config;  // hidden_units=64, num_samples=1000
  config.tables = SketchTables();
  config.num_training_queries = kTrainingQueries;
  config.num_epochs = kEpochs;
  config.max_tables_per_query = SketchTables().size();
  config.training_threads = 1;
  config.seed = kDataSeed;
  return config;
}

workload::GeneratorOptions StatementShape(uint64_t seed) {
  workload::GeneratorOptions gen;
  gen.tables = SketchTables();
  gen.min_tables = 1;
  gen.max_tables = 3;
  gen.min_predicates = 1;
  gen.max_predicates = 4;
  gen.seed = seed;
  return gen;
}

/// The in-process reference: DeepSketch::EstimateManyInto at batch 1 on the
/// statement bound against the sketch's own schema (what the server binds).
double ReferenceEstimate(const sketch::DeepSketch& sketch,
                         const std::string& sql) {
  sql::BoundQuery bound = Must(sketch.BindSql(sql), "bind reference statement");
  std::vector<workload::QuerySpec> one{std::move(bound.spec)};
  std::vector<Result<double>> out;
  sketch.EstimateManyInto(one, &out);
  return Must(std::move(out.front()), "reference estimate");
}

std::unique_ptr<Stack> StartStack(sketch::DeepSketch sketch,
                                  std::shared_ptr<const sketch::DeepSketch>* published) {
  auto stack = std::make_unique<Stack>();
  stack->registry =
      std::make_unique<serve::SketchRegistry>(serve::RegistryOptions{});
  *published = stack->registry->Put(kSketchName, std::move(sketch));

  serve::ServerOptions serve_options;
  serve_options.num_workers = kServeWorkers;
  serve_options.num_queue_shards = kServeWorkers;
  serve_options.max_batch = kMaxBatch;
  serve_options.max_wait_us = kMaxWaitUs;
  serve_options.queue_capacity = kQueueCapacity;
  serve_options.trace_sample_every = kTraceSampleEvery;
  serve_options.pin_workers = false;
  stack->backend = std::make_unique<serve::SketchServer>(stack->registry.get(),
                                                         serve_options);

  net::NetServerOptions net_options;
  net_options.host = "127.0.0.1";
  net_options.port = 0;
  net_options.num_workers = kNetWorkers;
  net_options.pin_threads = false;
  stack->front =
      std::make_unique<net::NetServer>(stack->backend.get(), net_options);
  if (Status st = stack->front->Start(); !st.ok()) {
    Die("net server start: " + st.ToString());
  }
  return stack;
}

Setup RunSetupOnce() {
  Setup s;
  util::WallTimer timer;
  datagen::ImdbOptions imdb;
  imdb.num_titles = kTitles;
  imdb.seed = kDataSeed;
  s.db = Must(datagen::GenerateImdb(imdb), "generate imdb");
  s.times.datagen_s = timer.ElapsedSeconds();

  timer.Restart();
  sketch::DeepSketch trained =
      Must(sketch::DeepSketch::Train(*s.db, MakeSketchConfig()), "train");
  s.times.train_s = timer.ElapsedSeconds();

  timer.Restart();
  auto gen = Must(workload::QueryGenerator::Create(
                      s.db.get(), StatementShape(kHeldOutSeed)),
                  "held-out generator");
  s.heldout = Must(workload::LabelQueries(*s.db, nullptr,
                                          gen.GenerateMany(kHeldOutQueries)),
                   "label held-out");
  s.times.label_s = timer.ElapsedSeconds();

  timer.Restart();
  s.stack = StartStack(std::move(trained), &s.sketch);
  s.times.server_start_s = timer.ElapsedSeconds();

  for (const auto& q : s.heldout) {
    s.heldout_sql.push_back(q.spec.ToSql());
    s.heldout_ref.push_back(ReferenceEstimate(*s.sketch, s.heldout_sql.back()));
  }
  return s;
}

// ---- Workloads -------------------------------------------------------------------

/// The statement stream one workload cycles through, in order, and how many
/// consecutive statements go into one wire frame.
struct Workload {
  std::string name;
  std::vector<std::string> sqls;
  size_t frame = 1;
  std::vector<std::vector<std::string>> frames;  // frame > 1 only
  size_t templates = 0;          // template_batch: templates expanded
  size_t templates_skipped = 0;  // template_batch: no predicate or values
};

/// Generated statements (1-3 tables, 1-4 predicates), distinct by SQL text.
std::vector<std::string> DistinctStatements(const storage::Catalog& db,
                                            uint64_t seed, size_t count) {
  auto gen = Must(workload::QueryGenerator::Create(&db, StatementShape(seed)),
                  "statement generator");
  std::vector<std::string> out;
  std::unordered_set<std::string> seen;
  for (size_t tries = 0; out.size() < count; ++tries) {
    if (tries > 20 * count) Die("generator ran out of distinct statements");
    std::string sql = gen.Generate().ToSql();
    if (seen.insert(sql).second) out.push_back(std::move(sql));
  }
  return out;
}

/// Template instances: each generated statement loses one predicate, which
/// becomes a '?' placeholder expanded over the sketch's sampled values
/// (at most kFrameSize instances per template).
Workload TemplateWorkload(const storage::Catalog& db,
                          const sketch::DeepSketch& sketch, uint64_t seed) {
  Workload w;
  w.name = "template_batch";
  w.frame = kFrameSize;
  auto gen = Must(workload::QueryGenerator::Create(&db, StatementShape(seed)),
                  "template generator");
  util::Pcg32 rng(seed ^ 0x9e3779b97f4a7c15ULL);
  sketch::TemplateOptions options;
  options.max_instances = kFrameSize;
  std::unordered_set<std::string> seen;
  for (size_t tries = 0; w.sqls.size() < kColdStatements; ++tries) {
    if (tries > kColdStatements) Die("template generator stalled");
    workload::QuerySpec spec = gen.Generate();
    if (spec.predicates.empty()) {  // nothing to turn into a placeholder
      ++w.templates_skipped;
      continue;
    }
    const size_t pick = rng.Bounded(static_cast<uint32_t>(spec.predicates.size()));
    sql::BoundQuery bound;
    const workload::ColumnPredicate& hole = spec.predicates[pick];
    bound.placeholder =
        sql::PlaceholderRef{hole.table, hole.column, hole.op};
    spec.predicates.erase(spec.predicates.begin() + pick);
    bound.spec = std::move(spec);
    auto instances = sketch::InstantiateTemplate(bound, sketch.samples(), options);
    if (!instances.ok()) {
      ++w.templates_skipped;
      continue;
    }
    ++w.templates;
    for (const sketch::TemplateInstance& inst : *instances) {
      std::string sql = inst.spec.ToSql();
      if (w.sqls.size() < kColdStatements && seen.insert(sql).second) {
        w.sqls.push_back(std::move(sql));
      }
    }
  }
  for (size_t i = 0; i < w.sqls.size(); i += kFrameSize) {
    w.frames.emplace_back(w.sqls.begin() + i, w.sqls.begin() + i + kFrameSize);
  }
  return w;
}

Workload MakeWorkload(const Args& args, const Setup& setup) {
  Workload w;
  if (args.workload == "template_batch") {
    w = TemplateWorkload(*setup.db, *setup.sketch, args.seed);
  } else {
    w.name = args.workload;
    w.sqls = DistinctStatements(
        *setup.db, args.seed,
        args.workload == "cold_wire" ? kColdStatements : kCachedStatements);
  }
  // Input properties, checked on the generated stream itself: statements
  // are pairwise distinct, so a frame holds distinct instances and a cold
  // stream repeats a statement only after sqls.size() requests, which must
  // exceed both server caches.
  std::unordered_set<std::string> distinct(w.sqls.begin(), w.sqls.end());
  if (distinct.size() != w.sqls.size()) Die("workload statements repeat");
  const serve::ServerOptions& served = setup.stack->backend->options();
  if (w.name != "cached_wire" &&
      w.sqls.size() <= std::max(served.result_cache_capacity,
                                served.stmt_cache_capacity)) {
    Die("cold stream does not exceed the server's cache capacity");
  }
  // Every statement must be servable; a bind failure here is a generator
  // or binder defect, not something to filter out.
  for (const std::string& sql : w.sqls) {
    auto bound = setup.sketch->BindSql(sql);
    if (!bound.ok() || bound->placeholder.has_value()) {
      Die("generated statement does not bind: " + sql);
    }
  }
  return w;
}

// ---- Closed-loop traffic -----------------------------------------------------------

/// What one client thread saw in the timed window.
struct ClientLog {
  std::vector<double> send_s;      // send time, seconds since window start
  std::vector<uint32_t> frame_ok;  // estimates served ok per frame
  std::vector<double> latency_us;  // per frame, send -> response
  std::vector<std::pair<uint32_t, double>> served;  // (statement, estimate)
  uint64_t attempted = 0;  // estimates
  uint64_t ok = 0;
  uint64_t errors = 0;
  uint64_t rejected = 0;
  std::string first_error;
};

struct TrafficResult {
  std::vector<ClientLog> logs;
  double window_s = 0;
};

void CountFailure(const Status& st, ClientLog* log) {
  if (st.code() == StatusCode::kOutOfRange) {
    ++log->rejected;
  } else {
    ++log->errors;
  }
  if (log->first_error.empty()) log->first_error = st.ToString();
}

/// Runs kClients closed-loop clients (one connection each, one frame in
/// flight) from now until warmup + window seconds have passed. Only frames
/// sent inside the window are logged. `cursor` hands out frame numbers in
/// stream order across all clients.
TrafficResult RunTraffic(uint16_t port, const Workload& w,
                         std::atomic<uint64_t>* cursor, double window_s) {
  TrafficResult result;
  result.logs.resize(kClients);
  result.window_s = window_s;
  const auto window_start =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(kWarmupSeconds));
  const auto window_end =
      window_start + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(window_s));
  const size_t n = w.sqls.size();
  const size_t num_frames = w.frame > 1 ? w.frames.size() : n;
  std::vector<std::thread> threads;
  for (size_t c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      ClientLog& log = result.logs[c];
      auto client = net::NetClient::Connect("127.0.0.1", port);
      if (!client.ok()) {
        CountFailure(client.status(), &log);
        return;
      }
      std::vector<Result<double>> out;
      while (client->connected()) {
        const auto t0 = Clock::now();
        if (t0 >= window_end) break;
        const size_t f = cursor->fetch_add(1) % num_frames;
        Status st;
        if (w.frame == 1) {
          out.assign(1, client->Estimate(kSketchName, w.sqls[f]));
        } else {
          st = client->EstimateBatch(kSketchName, w.frames[f], &out);
        }
        const auto t1 = Clock::now();
        if (t0 < window_start) continue;
        log.attempted += w.frame;
        log.send_s.push_back(
            std::chrono::duration<double>(t0 - window_start).count());
        log.latency_us.push_back(Us(t1 - t0));
        log.frame_ok.push_back(0);
        for (size_t i = 0; i < w.frame; ++i) {
          const Result<double>& r = st.ok() ? out[i] : Result<double>(st);
          if (r.ok()) {
            ++log.ok;
            ++log.frame_ok.back();
            log.served.emplace_back(static_cast<uint32_t>(f * w.frame + i), *r);
          } else {
            CountFailure(r.status(), &log);
          }
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  return result;
}

/// The timed window, cut by send time into slices of about kSliceSeconds.
///
/// The headline figures come from the quiet slices: the kQuietShare of
/// slices with the most estimates served. On a shared host, interference
/// from outside the process comes in phases of seconds and only ever slows
/// a slice, so the fastest slices are the ones that measure the program.
/// Throughput is the median rate of the quiet slices; the latency
/// percentiles are exact over every frame sent in them. The whole-window
/// figures are kept beside them for the readable table.
struct WindowStats {
  uint64_t attempted = 0, ok = 0, errors = 0, rejected = 0;
  std::string first_error;
  size_t slices = 0, quiet_slices = 0;
  double slice_s = 0;
  double quiet_qps = 0;
  std::vector<double> quiet_latency_us;  // frames sent in quiet slices
  std::vector<double> latency_us;        // every frame in the window
};

WindowStats Summarize(const TrafficResult& traffic) {
  WindowStats stats;
  stats.slices = std::max<size_t>(
      1, static_cast<size_t>(traffic.window_s / kSliceSeconds + 0.5));
  stats.slice_s = traffic.window_s / stats.slices;
  std::vector<std::vector<double>> slice_latency(stats.slices);
  std::vector<double> slice_ok(stats.slices, 0.0);
  for (const ClientLog& log : traffic.logs) {
    stats.attempted += log.attempted;
    stats.ok += log.ok;
    stats.errors += log.errors;
    stats.rejected += log.rejected;
    if (stats.first_error.empty()) stats.first_error = log.first_error;
    stats.latency_us.insert(stats.latency_us.end(), log.latency_us.begin(),
                            log.latency_us.end());
    for (size_t i = 0; i < log.send_s.size(); ++i) {
      const size_t k = std::min(
          stats.slices - 1, static_cast<size_t>(log.send_s[i] / stats.slice_s));
      slice_latency[k].push_back(log.latency_us[i]);
      slice_ok[k] += log.frame_ok[i];
    }
  }
  std::vector<size_t> order(stats.slices);
  for (size_t k = 0; k < order.size(); ++k) order[k] = k;
  std::sort(order.begin(), order.end(),
            [&](size_t a, size_t b) { return slice_ok[a] > slice_ok[b]; });
  stats.quiet_slices = std::max<size_t>(
      1, static_cast<size_t>(std::ceil(stats.slices * kQuietShare)));
  std::vector<double> quiet_qps;
  for (size_t q = 0; q < stats.quiet_slices; ++q) {
    const size_t k = order[q];
    quiet_qps.push_back(slice_ok[k] / stats.slice_s);
    stats.quiet_latency_us.insert(stats.quiet_latency_us.end(),
                                  slice_latency[k].begin(),
                                  slice_latency[k].end());
  }
  stats.quiet_qps = Pct(quiet_qps, 50);
  return stats;
}

// ---- Output checks -------------------------------------------------------------------

struct Checks {
  uint64_t compared = 0;
  uint64_t mismatches = 0;
  std::string first_mismatch;
  bool ledger_balanced = false;
  uint64_t net_requests = 0;
  uint64_t net_responses = 0;
  uint64_t heldout_failed = 0;

  void Compare(const std::string& what, double served, double reference) {
    ++compared;
    if (SameBits(served, reference)) return;
    ++mismatches;
    if (first_mismatch.empty()) {
      char buf[96];
      std::snprintf(buf, sizeof(buf), " served %.17g, in-process %.17g",
                    served, reference);
      first_mismatch = what + buf;
    }
  }
};

/// Every estimate served during the traffic must equal the in-process
/// batch-1 estimate for the same statement, bit for bit.
void CheckServed(const TrafficResult& traffic, const Workload& w,
                 const sketch::DeepSketch& sketch, Checks* checks) {
  std::unordered_map<uint32_t, double> reference;
  for (const ClientLog& log : traffic.logs) {
    for (const auto& [idx, value] : log.served) {
      auto it = reference.find(idx);
      if (it == reference.end()) {
        it = reference.emplace(idx, ReferenceEstimate(sketch, w.sqls[idx])).first;
      }
      checks->Compare(w.sqls[idx], value, it->second);
    }
  }
}

/// Serves the held-out set over the workload's transport and returns the
/// q-errors against the labeled truth.
std::vector<double> ServeHeldOut(uint16_t port, const Workload& w,
                                 const Setup& setup, Checks* checks) {
  auto client = Must(net::NetClient::Connect("127.0.0.1", port),
                     "held-out client");
  std::vector<Result<double>> served;
  if (w.frame == 1) {
    for (const std::string& sql : setup.heldout_sql) {
      served.push_back(client.Estimate(kSketchName, sql));
    }
  } else {
    std::vector<Result<double>> out;
    for (size_t i = 0; i < setup.heldout_sql.size(); i += w.frame) {
      const size_t end = std::min(setup.heldout_sql.size(), i + w.frame);
      std::vector<std::string> frame(setup.heldout_sql.begin() + i,
                                     setup.heldout_sql.begin() + end);
      Status st = client.EstimateBatch(kSketchName, frame, &out);
      for (size_t k = 0; k < frame.size(); ++k) {
        served.push_back(st.ok() ? out[k] : Result<double>(st));
      }
    }
  }
  std::vector<double> qerrors;
  for (size_t i = 0; i < served.size(); ++i) {
    if (!served[i].ok()) {
      ++checks->heldout_failed;
      continue;
    }
    checks->Compare(setup.heldout_sql[i], *served[i], setup.heldout_ref[i]);
    qerrors.push_back(util::QError(
        static_cast<double>(setup.heldout[i].cardinality), *served[i]));
  }
  return qerrors;
}

/// After Stop: every estimate request the front-end counted got exactly
/// one response.
void CheckLedger(const net::NetServer& front, Checks* checks) {
  const obs::RegistrySnapshot snap = front.registry()->Snapshot();
  auto value = [&](const std::string& name, const obs::Labels& labels) {
    const obs::MetricSnapshot* m = snap.Find(name, labels);
    return m == nullptr ? uint64_t{0} : static_cast<uint64_t>(m->value);
  };
  checks->net_requests = value("ds_net_requests_total", {});
  checks->net_responses = 0;
  for (const char* status : {"ok", "error", "rejected"}) {
    checks->net_responses +=
        value("ds_net_responses_total", {{"status", status}});
  }
  checks->ledger_balanced = checks->net_requests == checks->net_responses;
}

// ---- Layer timings (traced run) --------------------------------------------------------

/// Serve-layer counters between two Metrics() snapshots. The histogram
/// sums and counts are exact, unlike their power-of-two buckets.
struct ServeDelta {
  double queue_wait_us_mean = 0;
  double infer_us_mean = 0;
  double batch_size_mean = 0;
  uint64_t queue_wait_count = 0;
  uint64_t batches = 0;
  uint64_t result_hits = 0, result_lookups = 0;
  uint64_t stmt_hits = 0, stmt_lookups = 0;
  uint64_t rejected = 0;

  ServeDelta(const serve::MetricsSnapshot& a, const serve::MetricsSnapshot& b) {
    auto mean = [](const obs::HistogramSnapshot& x,
                   const obs::HistogramSnapshot& y) {
      const uint64_t n = y.count - x.count;
      return n == 0 ? 0.0 : static_cast<double>(y.sum - x.sum) / n;
    };
    queue_wait_us_mean = mean(a.queue_wait_us, b.queue_wait_us);
    infer_us_mean = mean(a.infer_us, b.infer_us);
    batch_size_mean = mean(a.batch_size, b.batch_size);
    queue_wait_count = b.queue_wait_us.count - a.queue_wait_us.count;
    batches = b.batch_size.count - a.batch_size.count;
    result_hits = b.result_cache_hits - a.result_cache_hits;
    result_lookups = result_hits + b.result_cache_misses - a.result_cache_misses;
    stmt_hits = b.stmt_cache_hits - a.stmt_cache_hits;
    stmt_lookups = stmt_hits + b.stmt_cache_misses - a.stmt_cache_misses;
    rejected = b.rejected - a.rejected;
  }

  static double Ratio(uint64_t num, uint64_t den) {
    return den == 0 ? 0.0 : static_cast<double>(num) / den;
  }
};

/// Times `fn(i)` for i in [0, n) one call at a time; returns microseconds.
template <typename Fn>
std::vector<double> TimeEach(size_t n, Fn&& fn) {
  std::vector<double> us;
  us.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const auto t0 = Clock::now();
    fn(i);
    us.push_back(Us(Clock::now() - t0));
  }
  return us;
}

void AddP50(std::vector<Metric>* out, const std::string& name,
            const std::vector<double>& us) {
  out->push_back({name, Pct(us, 50), "us", us.size()});
}

/// The one-client budget and the in-process layer timings, on the
/// workload's own statements. The server is otherwise idle.
void MeasureLayers(const Setup& setup, const Workload& w, size_t first,
                   std::vector<Metric>* out) {
  const sketch::DeepSketch& sketch = *setup.sketch;
  serve::SketchServer& backend = *setup.stack->backend;
  const uint16_t port = setup.stack->front->port();
  const size_t n = w.sqls.size();
  // Consecutive stream positions, so cold statements stay cold: the wire
  // and Submit phases each take fresh ones.
  auto stmt = [&](size_t i) -> const std::string& {
    return w.sqls[(first + i) % n];
  };

  auto client = Must(net::NetClient::Connect("127.0.0.1", port), "budget client");
  for (size_t i = 0; i < 50; ++i) DS_CHECK_OK(client.Ping());
  const std::vector<double> ping_us =
      TimeEach(kLayerSamples, [&](size_t) { DS_CHECK_OK(client.Ping()); });

  const serve::MetricsSnapshot before_wire = backend.Metrics();
  const std::vector<double> wire_us = TimeEach(kLayerSamples, [&](size_t i) {
    Must(client.Estimate(kSketchName, stmt(i)), "budget wire estimate");
  });
  const ServeDelta wire_delta(before_wire, backend.Metrics());

  const std::vector<double> submit_us = TimeEach(kLayerSamples, [&](size_t i) {
    serve::Submission sub = backend.Submit(kSketchName, stmt(kLayerSamples + i));
    Must(sub.future.get(), "budget submit");
  });

  // In-process layers, no server involved.
  std::vector<std::string> sqls;
  std::vector<workload::QuerySpec> specs;
  for (size_t i = 0; i < kLayerSamples; ++i) {
    sqls.push_back(stmt(2 * kLayerSamples + i));
    specs.push_back(Must(sql::ParseAndBind(sketch.schema(), sqls.back()),
                         "parse and bind"));
  }
  const std::vector<double> parse_us = TimeEach(kLayerSamples, [&](size_t i) {
    Must(sql::ParseAndBind(sketch.schema(), sqls[i]), "parse and bind");
  });

  mscn::FeaturizeScratch scratch;
  mscn::SparseQueryFeatures features;
  auto featurize = [&](const workload::QuerySpec& spec) {
    Status st = sketch.feature_space().FeaturizeSparse(
        spec, sketch.samples(), /*use_bitmaps=*/true, &scratch, &features);
    // NotFound is an unknown literal, which the estimate path maps to 1.
    if (!st.ok() && st.code() != StatusCode::kNotFound) Die(st.ToString());
  };
  for (const auto& spec : specs) featurize(spec);  // warm the scratch
  const std::vector<double> featurize_us =
      TimeEach(kLayerSamples, [&](size_t i) { featurize(specs[i]); });

  std::vector<std::vector<workload::QuerySpec>> singles;
  for (const auto& spec : specs) singles.push_back({spec});
  std::vector<Result<double>> results;
  for (const auto& one : singles) sketch.EstimateManyInto(one, &results);
  uint64_t allocs = 0;
  const std::vector<double> estimate_us = TimeEach(kLayerSamples, [&](size_t i) {
    const uint64_t a0 = util::AllocCount();
    sketch.EstimateManyInto(singles[i], &results);
    allocs += util::AllocCount() - a0;
  });

  const std::vector<double> estimate_sql_us = TimeEach(kLayerSamples, [&](size_t i) {
    Must(sketch.EstimateSql(sqls[i]), "estimate sql");
  });

  // Batch 64: per query, EstimateManyInto minus featurizing the same batch.
  std::vector<std::vector<workload::QuerySpec>> batches(kBatch64Samples);
  for (size_t b = 0; b < kBatch64Samples; ++b) {
    for (size_t k = 0; k < kFrameSize; ++k) {
      batches[b].push_back(specs[(b * kFrameSize + k) % specs.size()]);
    }
  }
  for (const auto& batch : batches) sketch.EstimateManyInto(batch, &results);
  std::vector<double> forward64_us;
  for (const auto& batch : batches) {
    const auto t0 = Clock::now();
    sketch.EstimateManyInto(batch, &results);
    const auto t1 = Clock::now();
    for (const auto& spec : batch) featurize(spec);
    const auto t2 = Clock::now();
    forward64_us.push_back((Us(t1 - t0) - Us(t2 - t1)) / kFrameSize);
  }

  const double wire_p50 = Pct(wire_us, 50);
  const double net_wire = wire_p50 - Pct(submit_us, 50);
  const double parse = Pct(parse_us, 50);
  const double feat = Pct(featurize_us, 50);
  const double forward = Pct(estimate_us, 50) - feat;
  AddP50(out, "net.ping_rtt_us", ping_us);
  out->push_back({"net.wire_us", net_wire, "us", wire_us.size()});
  AddP50(out, "serve.submit_us", submit_us);
  AddP50(out, "sql.parse_bind_us", parse_us);
  AddP50(out, "mscn.featurize_us", featurize_us);
  AddP50(out, "sketch.estimate_us", estimate_us);
  out->push_back({"nn.forward_us", forward, "us", estimate_us.size()});
  AddP50(out, "nn.forward_batch64_us", forward64_us);
  AddP50(out, "sketch.estimate_sql_us", estimate_sql_us);
  out->push_back({"sketch.allocs_per_query",
                  static_cast<double>(allocs) / kLayerSamples, "count",
                  kLayerSamples});
  AddP50(out, "budget.wire_estimate_us", wire_us);
  out->push_back({"budget.queue_wait_us_mean", wire_delta.queue_wait_us_mean,
                  "us", wire_delta.queue_wait_count});
  out->push_back({"budget.unattributed_us",
                  wire_p50 - (net_wire + wire_delta.queue_wait_us_mean + parse +
                              feat + forward),
                  "us", wire_us.size()});
}

// ---- Reporting -----------------------------------------------------------------------

std::string JsonString(const std::string& s) {
  return "\"" + net::JsonEscape(s) + "\"";
}

std::string JsonNumber(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void PrintTable(const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    if (m.samples > 0) {
      std::printf("  %-28s %16.4f %-6s n=%zu\n", m.name.c_str(), m.value,
                  m.unit.c_str(), m.samples);
    } else {
      std::printf("  %-28s %16.4f %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    }
  }
}

size_t Nproc() {
  const long n = sysconf(_SC_NPROCESSORS_ONLN);
  return n > 0 ? static_cast<size_t>(n) : 0;
}

void PrintStamp(const Args& args, const Setup& setup, const Workload& w,
                const ServeDelta& traffic_serve) {
  const util::BuildInfo& build = util::GetBuildInfo();
  const sketch::SketchConfig config = MakeSketchConfig();
  std::string tables;
  for (const std::string& t : config.tables) {
    tables += (tables.empty() ? "" : ",") + t;
  }
  std::printf(
      "stamp {\"git_sha\":%s,\"src_digest\":%s,\"build_type\":%s,"
      "\"compiler\":%s,\"kernel_tier\":%s,\"nproc\":%zu,\"workload\":%s,"
      "\"seed\":%" PRIu64 ",\"seconds\":%s,\"trace\":%d,"
      "\"threads\":{\"clients\":%zu,\"net_workers\":%zu,"
      "\"serve_workers\":%zu,\"pinned\":false},"
      "\"server\":{\"max_batch\":%zu,\"max_wait_us\":%" PRIu64
      ",\"queue_capacity\":%zu,\"trace_sample_every\":%" PRIu64 "},"
      "\"sketch\":{\"tables\":%s,\"hidden_units\":%zu,\"num_samples\":%zu,"
      "\"training_queries\":%zu,\"epochs\":%zu,\"training_threads\":%zu,"
      "\"seed\":%" PRIu64 ",\"bytes\":%zu},"
      "\"data\":{\"titles\":%zu,\"seed\":%" PRIu64 ",\"heldout\":%zu,"
      "\"heldout_seed\":%" PRIu64 "},"
      "\"input\":{\"distinct_statements\":%zu,\"frame\":%zu,"
      "\"templates\":%zu,\"templates_skipped\":%zu},"
      "\"measured\":{\"result_cache_hit_ratio\":%s,"
      "\"stmt_cache_hit_ratio\":%s,\"batch_size_mean\":%s}}\n",
      JsonString(args.git_sha).c_str(), JsonString(args.src_digest).c_str(),
      JsonString(build.build_type).c_str(), JsonString(build.compiler).c_str(),
      JsonString(nn::KernelTierName(nn::ActiveKernelTier())).c_str(), Nproc(),
      JsonString(args.workload).c_str(), args.seed,
      JsonNumber(args.seconds).c_str(), args.trace ? 1 : 0, kClients,
      kNetWorkers, kServeWorkers, kMaxBatch, kMaxWaitUs, kQueueCapacity,
      kTraceSampleEvery, JsonString(tables).c_str(), config.hidden_units,
      config.num_samples, config.num_training_queries, config.num_epochs,
      config.training_threads, config.seed, setup.sketch->SerializedSize(),
      kTitles, kDataSeed, setup.heldout.size(), kHeldOutSeed, w.sqls.size(),
      w.frame, w.templates, w.templates_skipped,
      JsonNumber(ServeDelta::Ratio(traffic_serve.result_hits,
                                   traffic_serve.result_lookups)).c_str(),
      JsonNumber(ServeDelta::Ratio(traffic_serve.stmt_hits,
                                   traffic_serve.stmt_lookups)).c_str(),
      JsonNumber(traffic_serve.batch_size_mean).c_str());
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);

  // Set-up, kSetupReps times. Every repetition must train the same sketch
  // (checked on the held-out estimates); the last one is kept and served.
  std::vector<SetupTimes> times;
  std::vector<double> first_ref;
  Setup setup;
  for (size_t r = 0; r < kSetupReps; ++r) {
    setup = Setup();  // tear the previous stack down before timing again
    setup = RunSetupOnce();
    times.push_back(setup.times);
    if (r == 0) {
      first_ref = setup.heldout_ref;
    } else if (setup.heldout_ref.size() != first_ref.size() ||
               !std::equal(first_ref.begin(), first_ref.end(),
                           setup.heldout_ref.begin(), SameBits)) {
      Die("repeated set-up trained a different sketch");
    }
  }
  std::vector<SetupTimes> by_total = times;
  std::sort(by_total.begin(), by_total.end(),
            [](const SetupTimes& a, const SetupTimes& b) {
              return a.total() < b.total();
            });
  const SetupTimes median_setup = by_total[by_total.size() / 2];

  const Workload w = MakeWorkload(args, setup);
  const uint16_t port = setup.stack->front->port();
  serve::SketchServer& backend = *setup.stack->backend;

  // Closed loop. The traced run spends half its time here and the rest on
  // the layer timings.
  std::atomic<uint64_t> cursor{0};
  const serve::MetricsSnapshot before = backend.Metrics();
  const TrafficResult traffic =
      RunTraffic(port, w, &cursor, args.trace ? args.seconds / 2 : args.seconds);
  const ServeDelta traffic_serve(before, backend.Metrics());

  std::vector<Metric> layers;
  if (args.trace) {
    const size_t first = static_cast<size_t>(cursor.load()) * w.frame;
    MeasureLayers(setup, w, first, &layers);
  }

  Checks checks;
  const std::vector<double> qerrors = ServeHeldOut(port, w, setup, &checks);
  CheckServed(traffic, w, *setup.sketch, &checks);
  setup.stack->Stop();
  CheckLedger(*setup.stack->front, &checks);

  const WindowStats window = Summarize(traffic);
  const uint64_t attempted = window.attempted, ok = window.ok,
                 errors = window.errors, rejected = window.rejected;
  const double success_share =
      attempted == 0 ? 0.0 : static_cast<double>(ok) / attempted;
  const double failed_share =
      attempted == 0 ? 1.0 : static_cast<double>(errors + rejected) / attempted;

  const bool correct = attempted > 0 && checks.mismatches == 0 &&
                       checks.ledger_balanced && checks.heldout_failed == 0 &&
                       !qerrors.empty();

  std::vector<Metric> metrics;
  if (!args.trace) {
    metrics.push_back({"throughput_qps", window.quiet_qps, "1/s",
                       window.quiet_slices});
    metrics.push_back({"latency_p50_us", Pct(window.quiet_latency_us, 50),
                       "us", window.quiet_latency_us.size()});
    // The gated tail is p90: on a shared VM the host's own stalls move p99
    // by 2x between runs. The window line prints p99.
    metrics.push_back({"latency_p90_us", Pct(window.quiet_latency_us, 90),
                       "us", window.quiet_latency_us.size()});
    metrics.push_back({"success_share", success_share, "share", attempted});
    metrics.push_back({"qerror_p50", Pct(qerrors, 50), "ratio", qerrors.size()});
    metrics.push_back({"qerror_p95", Pct(qerrors, 95), "ratio", qerrors.size()});
    metrics.push_back({"setup_s", median_setup.total(), "s", kSetupReps});
    metrics.push_back({"sketch_bytes",
                       static_cast<double>(setup.sketch->SerializedSize()),
                       "bytes", 0});
    metrics.push_back({"peak_rss_mb", PeakRssMb(), "MB", 0});
  } else {
    metrics = std::move(layers);
    metrics.push_back({"net.requests_total",
                       static_cast<double>(checks.net_requests), "count", 0});
    metrics.push_back({"net.responses_total",
                       static_cast<double>(checks.net_responses), "count", 0});
    metrics.push_back({"serve.queue_wait_us_mean",
                       traffic_serve.queue_wait_us_mean, "us",
                       traffic_serve.queue_wait_count});
    metrics.push_back({"serve.infer_us_mean", traffic_serve.infer_us_mean,
                       "us", traffic_serve.batches});
    metrics.push_back({"serve.batch_size_mean", traffic_serve.batch_size_mean,
                       "count", traffic_serve.batches});
    metrics.push_back({"serve.result_cache_hit_ratio",
                       ServeDelta::Ratio(traffic_serve.result_hits,
                                         traffic_serve.result_lookups),
                       "share", traffic_serve.result_lookups});
    metrics.push_back({"serve.stmt_cache_hit_ratio",
                       ServeDelta::Ratio(traffic_serve.stmt_hits,
                                         traffic_serve.stmt_lookups),
                       "share", traffic_serve.stmt_lookups});
    metrics.push_back({"serve.rejected_total",
                       static_cast<double>(traffic_serve.rejected), "count", 0});
    metrics.push_back({"setup.datagen_s", median_setup.datagen_s, "s", 0});
    metrics.push_back({"setup.train_s", median_setup.train_s, "s", 0});
    metrics.push_back({"setup.label_s", median_setup.label_s, "s", 0});
    metrics.push_back({"setup.server_start_s", median_setup.server_start_s,
                       "s", 0});
  }

  PrintStamp(args, setup, w, traffic_serve);
  std::printf("workload %s (%s): attempted=%" PRIu64 " ok=%" PRIu64
              " errors=%" PRIu64 " rejected=%" PRIu64 " failed_share=%.6f\n",
              w.name.c_str(), args.trace ? "traced" : "untraced", attempted, ok,
              errors, rejected, failed_share);
  std::printf("checks: estimates compared=%" PRIu64 " mismatches=%" PRIu64
              " heldout_failed=%" PRIu64 " ledger requests=%" PRIu64
              " responses=%" PRIu64 " (%s)\n",
              checks.compared, checks.mismatches, checks.heldout_failed,
              checks.net_requests, checks.net_responses,
              checks.ledger_balanced ? "balanced" : "UNBALANCED");
  std::printf("window: %zu quiet of %zu slices of %.2f s, %zu quiet frames:"
              " p90 %.1f us, p95 %.1f us, p99 %.1f us\n",
              window.quiet_slices, window.slices, window.slice_s,
              window.quiet_latency_us.size(), Pct(window.quiet_latency_us, 90),
              Pct(window.quiet_latency_us, 95),
              Pct(window.quiet_latency_us, 99));
  std::printf("whole window: %.1f estimates/s, %zu frames: p50 %.1f us,"
              " p90 %.1f us, p99 %.1f us\n",
              static_cast<double>(ok) / traffic.window_s,
              window.latency_us.size(), Pct(window.latency_us, 50),
              Pct(window.latency_us, 90), Pct(window.latency_us, 99));
  if (!window.first_error.empty()) {
    std::printf("first error: %s\n", window.first_error.c_str());
  }
  if (!checks.first_mismatch.empty()) {
    std::printf("first mismatch: %s\n", checks.first_mismatch.c_str());
  }
  PrintTable(metrics);

  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(errors + rejected);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) json += ", ";
    json += JsonString(metrics[i].name) + ": {\"value\": " +
            JsonNumber(metrics[i].value) +
            ", \"unit\": " + JsonString(metrics[i].unit) + "}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
