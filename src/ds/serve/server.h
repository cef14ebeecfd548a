// SketchServer: a concurrent, micro-batching front end over a SketchRegistry.
//
// Callers Submit(sketch, sql) and get a future back; a fixed pool of worker
// threads drains bounded queues, coalescing requests against the same
// sketch (up to max_batch, waiting at most max_wait_us for stragglers) into
// one EstimateMany forward pass. Batching amortizes the per-request
// synchronization — queue handoff, worker wakeup, promise fulfillment — that
// dominates a request/response loop at sketch-inference latencies; the
// padded forward pass itself stays one inference per query.
//
// Queue sharding: the pending queue is split into num_queue_shards
// independent (mutex, condvar, deque) shards, each drained by its own
// subset of workers. A submitter that passes a shard hint (the network
// front-end passes its event-loop index, so one core's traffic stays on one
// shard) never contends with other cores' submissions; hint-less Submit
// round-robins. One shard (the default) is exactly the old single-queue
// behavior.
//
// Backpressure: Submit rejects (SubmitStatus != kOk, ready errored future,
// per-reason ds_serve_rejected_total{reason=...} counter) once a shard's
// share of queue_capacity is pending, instead of buffering without bound.
// Accepted requests are never dropped: Stop() drains the queues before
// joining the workers.
//
// Observability: metrics live in an obs::Registry (private to the server by
// default, injectable for shared exposition); sampled queries additionally
// record a span tree — estimate > {queue_wait, cache lookups, parse, bind,
// infer > {featurize, forward}} — into an obs::TraceRecorder. With
// trace_sample_every == 0 the tracing hooks reduce to a relaxed load and a
// thread-local check, which is not measurable in bench_serve_throughput.
//
// Locking order (audited; enforced by the DS_EXCLUDES annotations below):
//   stop_mu_  >  shard.mu        Stop() serializes shutdown under stop_mu_
//   stop_mu_  >  dump_mu_        and flips each shard's stopping under its
//                                own mutex.
//   shard.mu  ∥  stmt_mu_        The statement and result cache mutexes are
//   shard.mu  ∥  result_mu_      leaf locks: the cache helpers are called
//                                only from ServeBatch, which runs strictly
//                                outside any shard mutex, and they never
//                                take another lock — so no cycle is
//                                possible. Shard mutexes are never held two
//                                at a time (every code path touches exactly
//                                the one shard it was routed to).

#ifndef DS_SERVE_SERVER_H_
#define DS_SERVE_SERVER_H_

#include <atomic>
#include <chrono>
#include <deque>
#include <functional>
#include <future>
#include <list>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "ds/util/thread_annotations.h"

#include "ds/obs/flight_recorder.h"
#include "ds/obs/metrics.h"
#include "ds/obs/trace.h"
#include "ds/serve/metrics.h"
#include "ds/serve/registry.h"
#include "ds/workload/query_spec.h"

namespace ds::serve {

struct ServerOptions {
  /// Worker threads draining the request queues.
  size_t num_workers = 2;

  /// Independent submission-queue shards (clamped to [1, num_workers]).
  /// Workers are assigned to shards round-robin; capacity and batching are
  /// per shard. More shards, less submit-side contention — the network
  /// front-end uses one shard per event-loop thread.
  size_t num_queue_shards = 1;

  /// Most requests coalesced into one EstimateMany call.
  size_t max_batch = 32;

  /// How long a worker holding a non-full batch waits for more same-sketch
  /// requests before running it. 0 (or enable_batching=false) means run
  /// whatever one queue sweep found.
  uint64_t max_wait_us = 200;

  /// Pending-request bound across all shards; Submit rejects above a
  /// shard's even share of this.
  size_t queue_capacity = 4096;

  /// Bound-statement cache entries, keyed by (sketch name, registry epoch,
  /// SQL). A hit skips parse+bind entirely — the serving analogue of a
  /// prepared-statement cache, sized for the "few distinct statements, many
  /// submissions" workloads a sketch endpoint sees. 0 disables; LRU beyond
  /// capacity.
  size_t stmt_cache_capacity = 1024;

  /// Estimate (result) cache entries, keyed like the statement cache. A
  /// sketch estimate is a deterministic pure function of (sketch, SQL), so
  /// repeated statements — dashboards, template sweeps — are answered
  /// without re-running inference. 0 disables; LRU beyond capacity.
  /// Republishing a sketch under the same registry name is safe: the key
  /// carries the registry's publication epoch, which Put/Invalidate bump,
  /// so a retrained sketch never serves its predecessor's cached entries
  /// (the old-epoch entries just age out of the LRU).
  size_t result_cache_capacity = 4096;

  /// When false, workers never wait for stragglers: each request is served
  /// as soon as a worker picks it up (the bench's unbatched baseline).
  bool enable_batching = true;

  /// Pin each worker thread to its own CPU (one per physical core first,
  /// see util::PlanWorkerCpus) before it serves its first batch, so the
  /// worker's thread-local inference scratch stays in that core's caches.
  /// Best-effort: a failed pin (shrunk cgroup mask, unsupported platform)
  /// is ignored.
  bool pin_workers = false;

  /// Metric registry to register the ds_serve_* instruments in. Null (the
  /// default) gives the server a private registry, so concurrently running
  /// servers (benches, tests) never mix counts; pass a shared registry to
  /// expose several components through one scrape.
  obs::Registry* metrics_registry = nullptr;

  /// Trace recorder for sampled queries. Null with trace_sample_every > 0
  /// gives the server a private recorder (see tracer()).
  obs::TraceRecorder* tracer = nullptr;

  /// Sample 1 in N queries for tracing; 0 disables *local* sampling (a
  /// wire-adopted trace in RequestContext still records spans as long as a
  /// tracer exists).
  uint64_t trace_sample_every = 0;

  /// Flight recorder for the always-on per-request summaries. Null gives
  /// the server a private recorder (see flight()); the front-end passes a
  /// shared one so /tracez covers every backend it owns.
  obs::FlightRecorder* flight_recorder = nullptr;

  /// When > 0, a background thread emits a JSON metrics snapshot (see
  /// MetricsJson) every period. The snapshot goes to stats_dump_sink, or to
  /// stderr when no sink is set.
  uint64_t stats_dump_period_ms = 0;
  std::function<void(const std::string& json)> stats_dump_sink;
};

/// Completion hook for the callback submission path. Invoked exactly once,
/// from a server worker thread (or from the submitting thread when the
/// request is rejected). Must not call back into Submit* synchronously.
using EstimateCallback = std::function<void(Result<double>)>;

/// Per-request context the transport layer knows and the serve layer
/// should carry: a wire-adopted trace (one coherent trace across client →
/// net → serve → nn), when the bytes first arrived (for the pre-queue
/// stage of the flight record), and the admitting tenant. Default
/// constructed = local request with no wire context.
struct RequestContext {
  obs::WireTraceContext trace;  // adopted when trace.sampled()
  int64_t received_us = 0;      // TraceRecorder::NowUs at transport read
  std::string tenant;           // empty = untagged
};

/// What Submit hands back: the typed admission outcome plus a future that
/// is always valid — ready with an error when status != kOk.
struct Submission {
  SubmitStatus status = SubmitStatus::kOk;
  std::future<Result<double>> future;

  bool accepted() const { return status == SubmitStatus::kOk; }
};

class SketchServer {
 public:
  /// `registry` is borrowed and must outlive the server. Workers start
  /// immediately.
  SketchServer(SketchRegistry* registry, ServerOptions options = {});

  /// Stops the server (drains pending requests first).
  ~SketchServer();

  SketchServer(const SketchServer&) = delete;
  SketchServer& operator=(const SketchServer&) = delete;

  /// Enqueues one estimation request. The future resolves to the estimated
  /// cardinality, or to an error Status if the sketch cannot be resolved,
  /// the SQL does not bind, or the request was rejected (status != kOk, in
  /// which case the future is ready immediately and the request is counted
  /// under ds_serve_rejected_total, not submitted). `ctx` carries the
  /// transport-level trace/tenant context; the default means "local".
  Submission Submit(std::string sketch_name, std::string sql,
                    RequestContext ctx = {});

  /// Bulk Submit: one queue-lock acquisition and at most one worker wakeup
  /// for the whole group — how a pipelining client should refill its
  /// window. Per-request semantics (including backpressure rejection once
  /// the shard fills mid-group) match Submit; the returned submissions line
  /// up with `sqls`.
  std::vector<Submission> SubmitMany(const std::string& sketch_name,
                                     std::vector<std::string> sqls,
                                     RequestContext ctx = {});

  /// Callback-based Submit for event-loop callers that must not block on a
  /// future. On kOk, `callback` fires exactly once from a worker thread; on
  /// rejection the callback is NOT invoked (the caller already knows the
  /// typed reason and answers the client itself). `shard_hint` routes the
  /// request to shard hint % num_queue_shards — pass a stable per-thread
  /// value to keep one event loop's traffic on one shard.
  SubmitStatus SubmitAsync(std::string sketch_name, std::string sql,
                           EstimateCallback callback,
                           std::optional<size_t> shard_hint = std::nullopt,
                           RequestContext ctx = {});

  /// Bulk SubmitAsync: `callback(index, result)` fires once per accepted
  /// request; the returned statuses line up with `sqls` and rejected
  /// entries never invoke the callback.
  std::vector<SubmitStatus> SubmitManyAsync(
      const std::string& sketch_name, std::vector<std::string> sqls,
      std::function<void(size_t, Result<double>)> callback,
      std::optional<size_t> shard_hint = std::nullopt,
      RequestContext ctx = {});

  /// Records `n` admission-control sheds (requests turned away before the
  /// queue, e.g. by the network front-end's token buckets) under
  /// ds_serve_rejected_total{reason="shedding"}, so the wire-visible
  /// rejection total and the server's metrics stay reconcilable.
  void CountShed(uint64_t n = 1) {
    metrics_.Rejected(SubmitStatus::kShedding).Add(n);
  }

  /// Serves every accepted request, then joins the workers. Idempotent and
  /// safe to call concurrently; Submit after Stop rejects.
  void Stop() DS_EXCLUDES(stop_mu_);

  MetricsSnapshot Metrics() const {
    return metrics_.Snapshot(registry_->stats());
  }

  /// Registry snapshot with the sketch-cache gauges refreshed — the input
  /// to obs::ToPrometheusText / obs::ToJson.
  obs::RegistrySnapshot ObsSnapshot() const;

  /// JSON rendering of ObsSnapshot() (what the periodic stats dump emits).
  std::string MetricsJson() const;

  /// The registry holding this server's instruments (the injected one, or
  /// the private default).
  obs::Registry* obs_registry() const { return obs_registry_; }

  /// The trace recorder (the injected one, or the private default); null
  /// only if tracing was disabled at construction and no recorder given.
  obs::TraceRecorder* tracer() const { return tracer_; }

  /// The always-on flight recorder (the injected one, or the private
  /// default); never null.
  obs::FlightRecorder* flight() const { return flight_; }

  const ServerOptions& options() const { return options_; }

  size_t num_queue_shards() const { return shards_.size(); }

 private:
  struct Request {
    std::string sketch;
    std::string sql;
    std::promise<Result<double>> promise;   // unused when callback is set
    EstimateCallback callback;              // empty = promise path
    std::chrono::steady_clock::time_point enqueue_time;
    uint64_t trace_id = 0;     // 0 = unsampled
    uint64_t root_span = 0;    // pre-allocated "estimate" span id
    uint64_t parent_span = 0;  // wire-adopted parent (0 = local root)
    int64_t received_us = 0;   // transport read time; 0 = local submit
    std::string tenant;        // carried into the flight record
  };

  /// One independent submission queue. Workers are bound to exactly one
  /// shard; submitters pick one by hint or round-robin.
  struct Shard {
    util::Mutex mu{util::LockRank::kServeServerShard};
    util::CondVar cv;
    std::deque<Request> queue DS_GUARDED_BY(mu);
    bool stopping DS_GUARDED_BY(mu) = false;
  };

  void WorkerLoop(Shard* shard) DS_EXCLUDES(shard->mu);
  void StatsDumpLoop() DS_EXCLUDES(dump_mu_);

  Shard* PickShard(std::optional<size_t> hint);

  /// Pushes `req` onto the shard's queue if it has room and the server is
  /// not stopping. Never resolves the request: on a non-kOk return the
  /// caller rejects it outside the lock (see RejectRequest). The caller is
  /// responsible for waking a worker.
  SubmitStatus TryEnqueueLocked(Shard* shard, Request* req)
      DS_REQUIRES(shard->mu);

  /// Counts the rejection and resolves the request with the matching error
  /// Status. Runs outside any shard mutex (callbacks may take locks).
  void RejectRequest(Request* req, SubmitStatus status);

  /// Resolves a request through its callback or promise.
  static void ResolveRequest(Request* req, Result<double> result);

  /// Applies the transport context to a fresh request (adopting a wire
  /// trace when present) and samples it for local tracing otherwise.
  void ApplyContext(Request* req, const RequestContext& ctx);

  /// Samples the request for tracing (fills trace_id / root_span). A
  /// wire-adopted trace id set by ApplyContext is kept as-is.
  void MaybeTrace(Request* req);

  /// Closes a sampled request's root span (Submit -> promise resolution).
  void FinishTrace(const Request& req);

  /// Appends the request's summary to the flight recorder. `status_code`
  /// is 0 for ok, 1 for a failed estimate; stage timings are on the
  /// TraceRecorder::NowUs base and 0 when the stage was skipped.
  void RecordFlight(const Request& req, double estimate, uint8_t status_code,
                    int64_t queue_us, int64_t bind_us, int64_t infer_us);

  /// Moves queued requests for `sketch` into `batch` (up to max_batch).
  void TakeMatchingLocked(Shard* shard, const std::string& sketch,
                          std::vector<Request>* batch)
      DS_REQUIRES(shard->mu);

  /// Resolves the sketch, binds each request's SQL (through the statement
  /// cache), runs one EstimateMany, and fulfills every promise/callback.
  /// Runs outside the shard mutexes (the cache mutexes it takes are leaf
  /// locks, see the locking-order note in the file comment).
  void ServeBatch(std::vector<Request> batch);

  std::shared_ptr<const workload::QuerySpec> StmtCacheGet(
      const std::string& key) DS_EXCLUDES(stmt_mu_);
  void StmtCachePut(const std::string& key,
                    std::shared_ptr<const workload::QuerySpec> spec)
      DS_EXCLUDES(stmt_mu_);
  std::optional<double> ResultCacheGet(const std::string& key)
      DS_EXCLUDES(result_mu_);
  void ResultCachePut(const std::string& key, double value)
      DS_EXCLUDES(result_mu_);

  SketchRegistry* registry_;  // not owned
  ServerOptions options_;

  // Observability plumbing; declared before metrics_ (which registers its
  // instruments in *obs_registry_ during construction).
  std::unique_ptr<obs::Registry> owned_registry_;
  obs::Registry* obs_registry_ = nullptr;
  std::unique_ptr<obs::TraceRecorder> owned_tracer_;
  obs::TraceRecorder* tracer_ = nullptr;
  std::unique_ptr<obs::FlightRecorder> owned_flight_;
  obs::FlightRecorder* flight_ = nullptr;  // never null (always-on)

  // Shards are created once in the constructor and never resized; the
  // vector itself is immutable after construction (only shard contents are
  // mutated, under each shard's own mutex).
  std::vector<std::unique_ptr<Shard>> shards_;
  size_t shard_capacity_ = 0;        // per-shard share of queue_capacity
  std::atomic<uint64_t> next_shard_{0};  // hint-less round-robin cursor

  // Stats-dump thread coordination (separate from the shard mutexes so the
  // dump period never contends with the hot path).
  util::Mutex dump_mu_{util::LockRank::kServeServerDump};
  util::CondVar dump_cv_;
  bool dump_stopping_ DS_GUARDED_BY(dump_mu_) = false;

  // Shutdown serialization: joining and clearing the worker threads happens
  // under stop_mu_, so concurrent Stop() calls (or Stop() racing the
  // destructor) never join the same std::thread twice. Only the
  // constructor (exclusive access) and Stop() touch these members.
  util::Mutex stop_mu_{util::LockRank::kServeServerStop};
  std::vector<std::thread> workers_ DS_GUARDED_BY(stop_mu_);
  std::thread stats_dump_thread_ DS_GUARDED_BY(stop_mu_);
  ServerMetrics metrics_;

  // Bound-statement cache: (sketch name, registry epoch, SQL) ->
  // placeholder-free spec (key layout built in ServeBatch).
  struct StmtEntry {
    std::shared_ptr<const workload::QuerySpec> spec;
    std::list<std::string>::iterator lru_it;
  };
  util::Mutex stmt_mu_{util::LockRank::kServeServerStmtCache};
  std::list<std::string> stmt_lru_ DS_GUARDED_BY(stmt_mu_);  // front = MRU
  std::unordered_map<std::string, StmtEntry> stmt_cache_
      DS_GUARDED_BY(stmt_mu_);

  // Estimate cache: (sketch name, registry epoch, SQL) -> cardinality.
  struct ResultEntry {
    double value = 0;
    std::list<std::string>::iterator lru_it;
  };
  util::Mutex result_mu_{util::LockRank::kServeServerResultCache};
  std::list<std::string> result_lru_ DS_GUARDED_BY(result_mu_);  // front = MRU
  std::unordered_map<std::string, ResultEntry> result_cache_
      DS_GUARDED_BY(result_mu_);
};

}  // namespace ds::serve

#endif  // DS_SERVE_SERVER_H_
