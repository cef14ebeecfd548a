#include "ds/serve/server.h"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "ds/nn/kernels.h"
#include "ds/obs/exposition.h"
#include "ds/sql/binder.h"
#include "ds/util/alloc.h"
#include "ds/util/contract.h"
#include "ds/util/cpu_topology.h"
#include "ds/workload/query_spec.h"

namespace ds::serve {

namespace {

uint64_t MicrosSince(std::chrono::steady_clock::time_point start) {
  const auto now = std::chrono::steady_clock::now();
  const auto us =
      std::chrono::duration_cast<std::chrono::microseconds>(now - start)
          .count();
  return us < 0 ? 0 : static_cast<uint64_t>(us);
}

/// A time_point on the SpanRecord time base (steady-clock microseconds).
int64_t ToTraceUs(std::chrono::steady_clock::time_point tp) {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             tp.time_since_epoch())
      .count();
}

}  // namespace

SketchServer::SketchServer(SketchRegistry* registry, ServerOptions options)
    : registry_(registry),
      options_(options),
      owned_registry_(options.metrics_registry == nullptr
                          ? std::make_unique<obs::Registry>()
                          : nullptr),
      obs_registry_(options.metrics_registry != nullptr
                        ? options.metrics_registry
                        : owned_registry_.get()),
      owned_tracer_(options.tracer == nullptr && options.trace_sample_every > 0
                        ? std::make_unique<obs::TraceRecorder>(
                              obs::TraceRecorder::Options{
                                  4096, options.trace_sample_every})
                        : nullptr),
      tracer_(options.tracer != nullptr ? options.tracer
                                        : owned_tracer_.get()),
      owned_flight_(options.flight_recorder == nullptr
                        ? std::make_unique<obs::FlightRecorder>()
                        : nullptr),
      flight_(options.flight_recorder != nullptr ? options.flight_recorder
                                                 : owned_flight_.get()),
      metrics_(obs_registry_) {
  options_.num_workers = std::max<size_t>(options_.num_workers, 1);
  options_.max_batch = std::max<size_t>(options_.max_batch, 1);
  options_.queue_capacity = std::max<size_t>(options_.queue_capacity, 1);
  options_.num_queue_shards = std::clamp<size_t>(options_.num_queue_shards, 1,
                                                 options_.num_workers);
  if (options_.tracer != nullptr && options_.trace_sample_every > 0) {
    tracer_->set_sample_every(options_.trace_sample_every);
  }
  shards_.reserve(options_.num_queue_shards);
  for (size_t i = 0; i < options_.num_queue_shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
  shard_capacity_ =
      std::max<size_t>(options_.queue_capacity / shards_.size(), 1);
  std::vector<int> worker_cpus;
  if (options_.pin_workers) {
    worker_cpus =
        util::PlanWorkerCpus(util::DetectCpuTopology(), options_.num_workers);
  }
  workers_.reserve(options_.num_workers);
  for (size_t i = 0; i < options_.num_workers; ++i) {
    // Workers are distributed round-robin over the shards; with the default
    // single shard every worker drains the one queue, exactly the
    // pre-sharding behavior.
    Shard* shard = shards_[i % shards_.size()].get();
    const int cpu = options_.pin_workers ? worker_cpus[i] : -1;
    workers_.emplace_back([this, shard, cpu] {
      // Pin before the first batch, which warms the thread-local estimate
      // scratch. Pinning is best-effort.
      if (cpu >= 0) (void)util::PinCurrentThreadToCpu(cpu);
      WorkerLoop(shard);
    });
  }
  if (options_.stats_dump_period_ms > 0) {
    stats_dump_thread_ = std::thread([this] { StatsDumpLoop(); });
  }
}

SketchServer::~SketchServer() { Stop(); }

obs::RegistrySnapshot SketchServer::ObsSnapshot() const {
  ExportCacheStats(obs_registry_, registry_->stats());
  obs_registry_
      ->GetGauge("ds_nn_kernels_vectorized",
                 "1 when the AVX2 intrinsic kernel path is compiled in")
      ->Set(nn::KernelsVectorized() ? 1.0 : 0.0);
  // Mirror process-wide monotone totals into counters, advanced by the
  // delta since the last snapshot: the NN kernel counters show how
  // inference work is being executed, and the contract counter
  // (ds/util/contract.h) lets fleets alert on contract pressure under the
  // count-and-continue policy.
  auto mirror = [this](const char* name, const char* help, uint64_t total) {
    obs_registry_->GetCounter(name, help)->AdvanceTo(total);
  };
  const nn::KernelStats& k = nn::GlobalKernelStats();
  mirror("ds_nn_kernel_dense_calls_total", "Dense matmul kernel invocations",
         k.dense_calls.load(std::memory_order_relaxed));
  mirror("ds_nn_kernel_fused_calls_total",
         "Fused linear+bias(+ReLU) invocations",
         k.fused_calls.load(std::memory_order_relaxed));
  mirror("ds_nn_kernel_sparse_calls_total",
         "Kernel invocations on CSR feature rows",
         k.sparse_calls.load(std::memory_order_relaxed));
  mirror("ds_nn_kernel_flops_total",
         "Multiply-accumulate flops issued by kernels",
         k.flops.load(std::memory_order_relaxed));
  mirror("ds_nn_kernel_bytes_total",
         "Operand and result bytes touched by kernels",
         k.bytes.load(std::memory_order_relaxed));
  mirror("ds_contract_violations_total",
         "DS_REQUIRE/DS_ENSURE/DS_INVARIANT violations since process start",
         util::ContractViolationCount());
  return obs_registry_->Snapshot();
}

std::string SketchServer::MetricsJson() const {
  return obs::ToJson(ObsSnapshot());
}

void SketchServer::StatsDumpLoop() {
  const auto period =
      std::chrono::milliseconds(options_.stats_dump_period_ms);
  util::MutexLock lock(dump_mu_);
  while (!dump_stopping_) {
    // Explicit wait loop (not a predicate overload): the thread-safety
    // analysis cannot see through a wait lambda, and the deadline keeps
    // spurious wakeups from shortening the dump period.
    const auto deadline = std::chrono::steady_clock::now() + period;
    while (!dump_stopping_ &&
           dump_cv_.WaitUntil(lock, deadline) == std::cv_status::no_timeout) {
    }
    if (dump_stopping_) break;
    lock.Unlock();
    const std::string json = MetricsJson();
    if (options_.stats_dump_sink) {
      options_.stats_dump_sink(json);
    } else {
      std::fprintf(stderr, "%s\n", json.c_str());
    }
    lock.Lock();
  }
}

void SketchServer::ApplyContext(Request* req, const RequestContext& ctx) {
  req->received_us = ctx.received_us;
  req->tenant = ctx.tenant;
  // Adopting a wire trace needs a recorder to write the spans into; with
  // no tracer configured the context is dropped (the client still has its
  // own spans), never half-recorded.
  if (ctx.trace.sampled() && tracer_ != nullptr) {
    req->trace_id = ctx.trace.trace_id;
    req->parent_span = ctx.trace.parent_span;
  }
  MaybeTrace(req);
}

void SketchServer::MaybeTrace(Request* req) {
  if (tracer_ == nullptr) return;
  if (req->trace_id == 0) req->trace_id = tracer_->StartTrace();
  if (req->trace_id != 0) req->root_span = tracer_->NextSpanId();
}

void SketchServer::FinishTrace(const Request& req) {
  if (req.trace_id == 0) return;
  // The root span is recorded with its pre-allocated id so the children
  // recorded earlier (queue_wait, parse, ...) already point at it. A
  // wire-adopted request nests under the transport's span instead of being
  // the trace root.
  obs::SpanRecord record;
  record.trace_id = req.trace_id;
  record.span_id = req.root_span;
  record.parent_id = req.parent_span;
  record.start_us = ToTraceUs(req.enqueue_time);
  record.duration_us = obs::TraceRecorder::NowUs() - record.start_us;
  record.SetName("estimate");
  tracer_->Record(record);
}

void SketchServer::RecordFlight(const Request& req, double estimate,
                                uint8_t status_code, int64_t queue_us,
                                int64_t bind_us, int64_t infer_us) {
  obs::FlightRecord r;
  r.trace_id = req.trace_id;
  r.sql_digest = obs::FlightRecorder::DigestSql(req.sql);
  // The request's clock starts when the transport read its bytes (wire
  // requests) or at Submit (local ones).
  const int64_t enqueue_us = ToTraceUs(req.enqueue_time);
  r.start_us = req.received_us != 0 ? req.received_us : enqueue_us;
  r.total_us = obs::TraceRecorder::NowUs() - r.start_us;
  r.stage_us[obs::kStagePre] =
      req.received_us != 0 ? enqueue_us - req.received_us : 0;
  r.stage_us[obs::kStageQueue] = queue_us;
  r.stage_us[obs::kStageBind] = bind_us;
  // The batched forward pass's wall time is attributed to every member of
  // the batch: it is the latency each of them experienced.
  r.stage_us[obs::kStageInfer] = infer_us;
  r.estimate = estimate;
  r.status = status_code;
  r.SetTenant(req.tenant);
  r.SetSketch(req.sketch);
  flight_->Record(r);
}

SketchServer::Shard* SketchServer::PickShard(std::optional<size_t> hint) {
  if (hint.has_value()) return shards_[*hint % shards_.size()].get();
  return shards_[next_shard_.fetch_add(1, std::memory_order_relaxed) %
                 shards_.size()]
      .get();
}

SubmitStatus SketchServer::TryEnqueueLocked(Shard* shard, Request* req) {
  if (shard->stopping) return SubmitStatus::kShuttingDown;
  if (shard->queue.size() >= shard_capacity_) return SubmitStatus::kQueueFull;
  shard->queue.push_back(std::move(*req));
  metrics_.submitted.Add();
  // Backpressure state machine: the capacity check above must keep each
  // shard bounded — a violation here means rejection logic regressed.
  DS_INVARIANT(shard->queue.size() <= shard_capacity_,
               "shard queue grew to %zu past capacity %zu",
               shard->queue.size(), shard_capacity_);
  return SubmitStatus::kOk;
}

void SketchServer::ResolveRequest(Request* req, Result<double> result) {
  if (req->callback) {
    req->callback(std::move(result));
  } else {
    req->promise.set_value(std::move(result));
  }
}

void SketchServer::RejectRequest(Request* req, SubmitStatus status) {
  metrics_.Rejected(status).Add();
  Status error =
      status == SubmitStatus::kShuttingDown
          ? Status::OutOfRange("server is stopped")
          : Status::OutOfRange("serve queue is full (" +
                               std::to_string(shard_capacity_) + " pending)");
  // Callback submissions are answered by the caller from the returned
  // SubmitStatus; only the future path needs its promise resolved.
  if (!req->callback) req->promise.set_value(std::move(error));
}

Submission SketchServer::Submit(std::string sketch_name, std::string sql,
                                RequestContext ctx) {
  Request req;
  req.sketch = std::move(sketch_name);
  req.sql = std::move(sql);
  req.enqueue_time = std::chrono::steady_clock::now();
  ApplyContext(&req, ctx);
  Submission submission;
  submission.future = req.promise.get_future();
  Shard* shard = PickShard(std::nullopt);
  bool wake = false;
  {
    util::MutexLock lock(shard->mu);
    // Waking a worker costs a futex syscall; it is only needed on the
    // empty -> non-empty transition (a non-empty queue means a worker was
    // already woken for it and will sweep these requests up too).
    const bool was_empty = shard->queue.empty();
    submission.status = TryEnqueueLocked(shard, &req);
    wake = submission.accepted() && was_empty;
  }
  if (wake) shard->cv.NotifyOne();
  if (!submission.accepted()) RejectRequest(&req, submission.status);
  return submission;
}

std::vector<Submission> SketchServer::SubmitMany(
    const std::string& sketch_name, std::vector<std::string> sqls,
    RequestContext ctx) {
  std::vector<Submission> submissions;
  submissions.reserve(sqls.size());
  std::vector<Request> rejected;  // resolved outside the shard lock
  const auto now = std::chrono::steady_clock::now();
  Shard* shard = PickShard(std::nullopt);
  bool wake = false;
  {
    util::MutexLock lock(shard->mu);
    const bool was_empty = shard->queue.empty();
    bool accepted_any = false;
    for (std::string& sql : sqls) {
      Request req;
      req.sketch = sketch_name;
      req.sql = std::move(sql);
      req.enqueue_time = now;
      ApplyContext(&req, ctx);
      Submission submission;
      submission.future = req.promise.get_future();
      submission.status = TryEnqueueLocked(shard, &req);
      if (submission.accepted()) {
        accepted_any = true;
      } else {
        rejected.push_back(std::move(req));
      }
      submissions.push_back(std::move(submission));
    }
    wake = accepted_any && was_empty;
  }
  if (wake) shard->cv.NotifyOne();
  size_t r = 0;
  for (Submission& s : submissions) {
    if (!s.accepted()) RejectRequest(&rejected[r++], s.status);
  }
  DS_ENSURE(submissions.size() == sqls.size(),
            "SubmitMany produced %zu submissions for %zu statements",
            submissions.size(), sqls.size());
  return submissions;
}

SubmitStatus SketchServer::SubmitAsync(std::string sketch_name,
                                       std::string sql,
                                       EstimateCallback callback,
                                       std::optional<size_t> shard_hint,
                                       RequestContext ctx) {
  DS_REQUIRE(static_cast<bool>(callback),
             "SubmitAsync requires a completion callback");
  Request req;
  req.sketch = std::move(sketch_name);
  req.sql = std::move(sql);
  req.callback = std::move(callback);
  req.enqueue_time = std::chrono::steady_clock::now();
  ApplyContext(&req, ctx);
  Shard* shard = PickShard(shard_hint);
  SubmitStatus status;
  bool wake = false;
  {
    util::MutexLock lock(shard->mu);
    const bool was_empty = shard->queue.empty();
    status = TryEnqueueLocked(shard, &req);
    wake = status == SubmitStatus::kOk && was_empty;
  }
  if (wake) shard->cv.NotifyOne();
  if (status != SubmitStatus::kOk) RejectRequest(&req, status);
  return status;
}

std::vector<SubmitStatus> SketchServer::SubmitManyAsync(
    const std::string& sketch_name, std::vector<std::string> sqls,
    std::function<void(size_t, Result<double>)> callback,
    std::optional<size_t> shard_hint, RequestContext ctx) {
  DS_REQUIRE(static_cast<bool>(callback),
             "SubmitManyAsync requires a completion callback");
  std::vector<SubmitStatus> statuses;
  statuses.reserve(sqls.size());
  std::vector<Request> rejected;
  const auto now = std::chrono::steady_clock::now();
  Shard* shard = PickShard(shard_hint);
  bool wake = false;
  {
    util::MutexLock lock(shard->mu);
    const bool was_empty = shard->queue.empty();
    bool accepted_any = false;
    for (size_t i = 0; i < sqls.size(); ++i) {
      Request req;
      req.sketch = sketch_name;
      req.sql = std::move(sqls[i]);
      req.callback = [callback, i](Result<double> result) {
        callback(i, std::move(result));
      };
      req.enqueue_time = now;
      ApplyContext(&req, ctx);
      const SubmitStatus status = TryEnqueueLocked(shard, &req);
      if (status == SubmitStatus::kOk) {
        accepted_any = true;
      } else {
        rejected.push_back(std::move(req));
      }
      statuses.push_back(status);
    }
    wake = accepted_any && was_empty;
  }
  if (wake) shard->cv.NotifyOne();
  size_t r = 0;
  for (SubmitStatus status : statuses) {
    if (status != SubmitStatus::kOk) RejectRequest(&rejected[r++], status);
  }
  return statuses;
}

void SketchServer::Stop() {
  // stop_mu_ serializes shutdown: without it two concurrent Stop() calls
  // (or Stop() racing the destructor) would race on workers_ and could
  // join the same std::thread twice. The losing caller blocks here until
  // the winner has fully joined, so Stop() returning always means the
  // workers are gone.
  util::MutexLock stop_lock(stop_mu_);
  for (auto& shard : shards_) {
    {
      util::MutexLock lock(shard->mu);
      shard->stopping = true;
    }
    shard->cv.NotifyAll();
  }
  for (std::thread& w : workers_) {
    if (w.joinable()) w.join();
  }
  workers_.clear();
  {
    util::MutexLock lock(dump_mu_);
    dump_stopping_ = true;
  }
  dump_cv_.NotifyAll();
  if (stats_dump_thread_.joinable()) stats_dump_thread_.join();
}

void SketchServer::TakeMatchingLocked(Shard* shard, const std::string& sketch,
                                      std::vector<Request>* batch) {
  for (auto it = shard->queue.begin();
       it != shard->queue.end() && batch->size() < options_.max_batch;) {
    if (it->sketch == sketch) {
      batch->push_back(std::move(*it));
      it = shard->queue.erase(it);
    } else {
      ++it;
    }
  }
}

void SketchServer::WorkerLoop(Shard* shard) {
  util::MutexLock lock(shard->mu);
  while (true) {
    // Explicit wait loop: the thread-safety analysis cannot see through a
    // predicate lambda passed to a wait overload.
    while (!shard->stopping && shard->queue.empty()) shard->cv.Wait(lock);
    if (shard->queue.empty()) {
      if (shard->stopping) return;
      continue;
    }
    std::vector<Request> batch;
    batch.reserve(options_.max_batch);
    batch.push_back(std::move(shard->queue.front()));
    shard->queue.pop_front();
    const std::string sketch = batch.front().sketch;
    TakeMatchingLocked(shard, sketch, &batch);
    if (options_.enable_batching && options_.max_wait_us > 0 &&
        batch.size() < options_.max_batch && !shard->stopping) {
      // Hold the batch open briefly so concurrent submitters can join it.
      const auto deadline = std::chrono::steady_clock::now() +
                            std::chrono::microseconds(options_.max_wait_us);
      while (batch.size() < options_.max_batch && !shard->stopping &&
             shard->cv.WaitUntil(lock, deadline) ==
                 std::cv_status::no_timeout) {
        TakeMatchingLocked(shard, sketch, &batch);
      }
      TakeMatchingLocked(shard, sketch, &batch);
    }
    DS_INVARIANT(batch.size() <= options_.max_batch,
                 "batch grew to %zu past max_batch %zu", batch.size(),
                 options_.max_batch);
    // Submitters only wake a worker on the empty -> non-empty transition,
    // so if other-sketch requests remain, hand them to a sibling worker
    // before going off to serve this batch.
    if (!shard->queue.empty()) shard->cv.NotifyOne();
    lock.Unlock();
    ServeBatch(std::move(batch));
    lock.Lock();
  }
}

void SketchServer::ServeBatch(std::vector<Request> batch) {
  DS_REQUIRE(!batch.empty(), "ServeBatch called with an empty batch");
  const auto batch_start = std::chrono::steady_clock::now();
  const int64_t batch_start_us = ToTraceUs(batch_start);
  auto queue_us_of = [batch_start_us](const Request& r) {
    const int64_t us = batch_start_us - ToTraceUs(r.enqueue_time);
    return us < 0 ? int64_t{0} : us;
  };
  for (const Request& req : batch) {
    metrics_.queue_wait_us.Record(static_cast<uint64_t>(queue_us_of(req)));
    if (req.trace_id != 0) {
      obs::RecordSpan(tracer_, req.trace_id, req.root_span, "queue_wait",
                      ToTraceUs(req.enqueue_time), batch_start_us);
    }
  }
  metrics_.batches.Add();
  metrics_.batch_size.Record(batch.size());

  // The epoch is read under the same registry lock as the sketch handle:
  // every cache key below is scoped to this publication generation, so a
  // Put/Invalidate replacing the sketch can never serve pre-replacement
  // cached results (old-epoch entries just age out of the LRU).
  uint64_t epoch = 0;
  auto sketch = registry_->Get(batch.front().sketch, &epoch);
  if (!sketch.ok()) {
    for (Request& req : batch) {
      ResolveRequest(&req, sketch.status());
      FinishTrace(req);
      RecordFlight(req, 0.0, 1, queue_us_of(req), 0, 0);
    }
    metrics_.failed.Add(batch.size());
    return;
  }

  // Answer repeated statements from the estimate cache, bind the rest
  // (statement-cache hits skip parse+bind); a request that fails to bind
  // is answered immediately and excluded from the forward pass.
  std::vector<workload::QuerySpec> specs;
  std::vector<size_t> spec_owner;   // index into `batch` per spec
  std::vector<std::string> keys(batch.size());
  std::vector<int64_t> bind_us(batch.size(), 0);  // per-request bind stage
  specs.reserve(batch.size());
  spec_owner.reserve(batch.size());
  // All requests in a batch target the same sketch (TakeMatchingLocked
  // groups by name), so the (name, epoch) prefix is shared. The name is
  // length-prefixed because wire names may contain any byte, including the
  // separators — with the length the key is injective over
  // (name, epoch, sql) triples.
  const std::string key_prefix = std::to_string(batch.front().sketch.size()) +
                                 ':' + batch.front().sketch + '\x1f' +
                                 std::to_string(epoch) + '\n';
  const auto infer_start = std::chrono::steady_clock::now();
  for (size_t i = 0; i < batch.size(); ++i) {
    // Sampled requests get a thread-local trace context here, so the cache
    // lookups and the parse/bind spans inside DeepSketch::BindSql attach
    // under this request's root span.
    obs::ScopedTraceContext trace_scope(tracer_, batch[i].trace_id,
                                        batch[i].root_span);
    const int64_t iter_start_us = obs::TraceRecorder::NowUs();
    keys[i] = key_prefix + batch[i].sql;
    if (options_.result_cache_capacity > 0) {
      if (auto cached = ResultCacheGet(keys[i]); cached.has_value()) {
        metrics_.result_cache_hits.Add();
        metrics_.completed.Add();
        { obs::Span span("result_cache_hit"); }
        ResolveRequest(&batch[i], *cached);
        FinishTrace(batch[i]);
        RecordFlight(batch[i], *cached, 0, queue_us_of(batch[i]),
                     obs::TraceRecorder::NowUs() - iter_start_us, 0);
        continue;
      }
      metrics_.result_cache_misses.Add();
    }
    if (options_.stmt_cache_capacity > 0) {
      if (auto cached = StmtCacheGet(keys[i]); cached != nullptr) {
        metrics_.stmt_cache_hits.Add();
        { obs::Span span("stmt_cache_hit"); }
        specs.push_back(*cached);
        spec_owner.push_back(i);
        bind_us[i] = obs::TraceRecorder::NowUs() - iter_start_us;
        continue;
      }
      metrics_.stmt_cache_misses.Add();
    }
    auto bound = (*sketch)->BindSql(batch[i].sql);
    if (!bound.ok()) {
      metrics_.bind_errors.Add();
      metrics_.failed.Add();
      ResolveRequest(&batch[i], bound.status());
      FinishTrace(batch[i]);
      RecordFlight(batch[i], 0.0, 1, queue_us_of(batch[i]),
                   obs::TraceRecorder::NowUs() - iter_start_us, 0);
      continue;
    }
    if (bound->placeholder.has_value()) {
      metrics_.bind_errors.Add();
      metrics_.failed.Add();
      ResolveRequest(&batch[i],
                     Status::InvalidArgument(
                         "query contains an uninstantiated '?' placeholder"));
      FinishTrace(batch[i]);
      RecordFlight(batch[i], 0.0, 1, queue_us_of(batch[i]),
                   obs::TraceRecorder::NowUs() - iter_start_us, 0);
      continue;
    }
    StmtCachePut(keys[i],
                 std::make_shared<const workload::QuerySpec>(bound->spec));
    specs.push_back(std::move(bound->spec));
    spec_owner.push_back(i);
    bind_us[i] = obs::TraceRecorder::NowUs() - iter_start_us;
  }

  if (!specs.empty()) {
    // The padded forward pass serves the whole batch at once; its span
    // (with the featurize/forward children recorded inside EstimateMany)
    // is attached to the first sampled request in the batch.
    const Request* traced = nullptr;
    for (size_t s : spec_owner) {
      if (batch[s].trace_id != 0) {
        traced = &batch[s];
        break;
      }
    }
    // Reused per worker thread: EstimateManyInto keeps all featurization
    // and inference state in warm thread-local scratch, so steady-state
    // batches allocate nothing. The AllocCount delta around the call is
    // exported as a gauge to watch exactly that.
    static thread_local std::vector<Result<double>> results;
    const uint64_t allocs_before = util::AllocCount();
    const int64_t fwd_start_us = obs::TraceRecorder::NowUs();
    {
      obs::ScopedTraceContext trace_scope(
          tracer_, traced != nullptr ? traced->trace_id : 0,
          traced != nullptr ? traced->root_span : 0);
      obs::Span infer_span("infer", specs.size());
      (*sketch)->EstimateManyInto(specs, &results);
    }
    const int64_t fwd_us = obs::TraceRecorder::NowUs() - fwd_start_us;
    // The fulfillment loop below indexes spec_owner with the result index,
    // so the forward pass must answer exactly the specs it was given.
    DS_ENSURE(results.size() == specs.size(),
              "EstimateManyInto returned %zu results for %zu specs",
              results.size(), specs.size());
    metrics_.batch_allocations.Set(
        static_cast<double>(util::AllocCount() - allocs_before));
    for (size_t s = 0; s < results.size(); ++s) {
      if (results[s].ok()) {
        metrics_.completed.Add();
        ResultCachePut(keys[spec_owner[s]], *results[s]);
      } else {
        metrics_.failed.Add();
      }
      Request& req = batch[spec_owner[s]];
      const double estimate = results[s].ok() ? *results[s] : 0.0;
      const uint8_t code = results[s].ok() ? 0 : 1;
      ResolveRequest(&req, std::move(results[s]));
      FinishTrace(req);
      RecordFlight(req, estimate, code, queue_us_of(req),
                   bind_us[spec_owner[s]], fwd_us);
    }
  }
  metrics_.infer_us.Record(MicrosSince(infer_start));
}

std::shared_ptr<const workload::QuerySpec> SketchServer::StmtCacheGet(
    const std::string& key) {
  if (options_.stmt_cache_capacity == 0) return nullptr;
  util::MutexLock lock(stmt_mu_);
  auto it = stmt_cache_.find(key);
  if (it == stmt_cache_.end()) return nullptr;
  stmt_lru_.splice(stmt_lru_.begin(), stmt_lru_, it->second.lru_it);
  return it->second.spec;
}

std::optional<double> SketchServer::ResultCacheGet(const std::string& key) {
  if (options_.result_cache_capacity == 0) return std::nullopt;
  util::MutexLock lock(result_mu_);
  auto it = result_cache_.find(key);
  if (it == result_cache_.end()) return std::nullopt;
  result_lru_.splice(result_lru_.begin(), result_lru_, it->second.lru_it);
  return it->second.value;
}

void SketchServer::ResultCachePut(const std::string& key, double value) {
  if (options_.result_cache_capacity == 0) return;
  util::MutexLock lock(result_mu_);
  if (result_cache_.count(key) > 0) return;
  result_lru_.push_front(key);
  result_cache_.emplace(key, ResultEntry{value, result_lru_.begin()});
  while (result_cache_.size() > options_.result_cache_capacity) {
    result_cache_.erase(result_lru_.back());
    result_lru_.pop_back();
  }
}

void SketchServer::StmtCachePut(
    const std::string& key,
    std::shared_ptr<const workload::QuerySpec> spec) {
  if (options_.stmt_cache_capacity == 0) return;
  util::MutexLock lock(stmt_mu_);
  if (stmt_cache_.count(key) > 0) return;  // a concurrent worker bound it too
  stmt_lru_.push_front(key);
  stmt_cache_.emplace(key, StmtEntry{std::move(spec), stmt_lru_.begin()});
  while (stmt_cache_.size() > options_.stmt_cache_capacity) {
    stmt_cache_.erase(stmt_lru_.back());
    stmt_lru_.pop_back();
  }
}

}  // namespace ds::serve
