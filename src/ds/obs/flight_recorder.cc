#include "ds/obs/flight_recorder.h"

#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>

#include "ds/obs/trace.h"

namespace ds::obs {

namespace {

// One formatted line of a flight record, shared by ReportText and the crash
// handler. Returns the number of characters written (snprintf semantics).
int FormatRecordLine(char* buf, size_t n, const FlightRecord& r) {
  return std::snprintf(
      buf, n,
      "%-10s sketch=%-14s trace=%016llx sql=%016llx total=%8lldus "
      "pre=%lld queue=%lld bind=%lld infer=%lld est=%.3g q=%.3g status=%u\n",
      r.tenant[0] ? r.tenant : "-", r.sketch[0] ? r.sketch : "-",
      static_cast<unsigned long long>(r.trace_id),
      static_cast<unsigned long long>(r.sql_digest),
      static_cast<long long>(r.total_us),
      static_cast<long long>(r.stage_us[kStagePre]),
      static_cast<long long>(r.stage_us[kStageQueue]),
      static_cast<long long>(r.stage_us[kStageBind]),
      static_cast<long long>(r.stage_us[kStageInfer]), r.estimate, r.q_error,
      static_cast<unsigned>(r.status));
}

}  // namespace

FlightRecorder::FlightRecorder(Options options)
    : recent_(std::max<size_t>(options.recent_capacity, 1)),
      window_end_us_(TraceRecorder::NowUs() +
                     std::max<int64_t>(options.window_us, 1000)),
      slowest_capacity_(std::max<size_t>(options.slowest_capacity, 1)),
      window_us_(std::max<int64_t>(options.window_us, 1000)) {
  slow_current_.reserve(slowest_capacity_);
  slow_previous_.reserve(slowest_capacity_);
}

void FlightRecorder::Record(const FlightRecord& record) {
  FlightRecord r = record;
  r.seq = seq_.fetch_add(1, std::memory_order_relaxed);

  // Recent ring: claim a slot, copy under its spinlock, drop on contention.
  // Each request counts once, as recorded or as dropped.
  const uint64_t idx = head_.fetch_add(1, std::memory_order_relaxed);
  Slot& slot = recent_[idx % recent_.size()];
  if (slot.locked.exchange(true, std::memory_order_acquire)) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
  } else {
    slot.record = r;
    slot.locked.store(false, std::memory_order_release);
    recorded_.fetch_add(1, std::memory_order_relaxed);
  }

  // Exemplar: remember the latest *traced* request per latency bucket so a
  // histogram tail bucket links to a full span tree in the trace ring.
  if (r.trace_id != 0) {
    ExemplarSlot& ex = exemplars_[LatencyBucket(r.total_us)];
    if (!ex.locked.exchange(true, std::memory_order_acquire)) {
      ex.trace_id = r.trace_id;
      ex.latency_us = r.total_us;
      ex.locked.store(false, std::memory_order_release);
    }
  }

  // Slowest-per-window: gate on the atomic threshold first so the common
  // (fast) request never touches the mutex.
  const int64_t now_us = TraceRecorder::NowUs();
  if (r.total_us >= slow_threshold_us_.load(std::memory_order_relaxed) ||
      now_us >= window_end_us_.load(std::memory_order_relaxed)) {
    RecordSlow(r, now_us);
  }
}

void FlightRecorder::RecordSlow(const FlightRecord& record, int64_t now_us) {
  util::MutexLock lock(slow_mu_);
  if (now_us >= window_end_us_.load(std::memory_order_relaxed)) {
    slow_previous_ = std::move(slow_current_);
    slow_current_.clear();
    slow_current_.reserve(slowest_capacity_);
    slow_threshold_us_.store(0, std::memory_order_relaxed);
    // Advance in whole windows so a long idle gap does not rotate per call.
    int64_t end = window_end_us_.load(std::memory_order_relaxed);
    while (end <= now_us) end += window_us_;
    window_end_us_.store(end, std::memory_order_relaxed);
  }
  if (record.total_us < slow_threshold_us_.load(std::memory_order_relaxed) &&
      slow_current_.size() >= slowest_capacity_) {
    return;  // raced with a concurrent slow insert; no longer qualifies
  }
  slow_current_.push_back(record);
  std::sort(slow_current_.begin(), slow_current_.end(),
            [](const FlightRecord& a, const FlightRecord& b) {
              return a.total_us > b.total_us;
            });
  if (slow_current_.size() > slowest_capacity_) {
    slow_current_.resize(slowest_capacity_);
  }
  if (slow_current_.size() == slowest_capacity_) {
    slow_threshold_us_.store(slow_current_.back().total_us,
                             std::memory_order_relaxed);
  }
}

void FlightRecorder::AnnotateQError(uint64_t trace_id, double q_error) {
  if (trace_id == 0) return;
  for (Slot& slot : recent_) {
    if (slot.locked.exchange(true, std::memory_order_acquire)) continue;
    if (slot.record.trace_id == trace_id) slot.record.q_error = q_error;
    slot.locked.store(false, std::memory_order_release);
  }
  util::MutexLock lock(slow_mu_);
  for (auto* v : {&slow_current_, &slow_previous_}) {
    for (FlightRecord& r : *v) {
      if (r.trace_id == trace_id) r.q_error = q_error;
    }
  }
}

std::vector<FlightRecord> FlightRecorder::Recent() const {
  std::vector<FlightRecord> out;
  out.reserve(recent_.size());
  for (Slot& slot : recent_) {
    if (slot.locked.exchange(true, std::memory_order_acquire)) continue;
    if (slot.record.total_us != 0 || slot.record.sql_digest != 0) {
      out.push_back(slot.record);
    }
    slot.locked.store(false, std::memory_order_release);
  }
  std::sort(out.begin(), out.end(),
            [](const FlightRecord& a, const FlightRecord& b) {
              // seq wraps at 2^32; the ring is far smaller, so a plain
              // unsigned difference compare handles the wrap correctly.
              return static_cast<int32_t>(b.seq - a.seq) < 0;
            });
  return out;
}

std::vector<FlightRecord> FlightRecorder::Slowest() const {
  std::vector<FlightRecord> out;
  {
    util::MutexLock lock(slow_mu_);
    out = slow_current_;
    out.insert(out.end(), slow_previous_.begin(), slow_previous_.end());
  }
  std::sort(out.begin(), out.end(),
            [](const FlightRecord& a, const FlightRecord& b) {
              return a.total_us > b.total_us;
            });
  if (out.size() > slowest_capacity_) out.resize(slowest_capacity_);
  return out;
}

std::vector<Exemplar> FlightRecorder::Exemplars() const {
  std::vector<Exemplar> out;
  for (int i = 0; i < kExemplarBuckets; ++i) {
    ExemplarSlot& ex = exemplars_[i];
    if (ex.locked.exchange(true, std::memory_order_acquire)) continue;
    if (ex.trace_id != 0) {
      out.push_back(Exemplar{i, ex.trace_id, ex.latency_us});
    }
    ex.locked.store(false, std::memory_order_release);
  }
  return out;
}

std::string FlightRecorder::ReportText() const {
  std::string out = "== flight recorder\n";
  char line[256];
  std::snprintf(line, sizeof(line), "recorded=%llu dropped=%llu\n",
                static_cast<unsigned long long>(recorded()),
                static_cast<unsigned long long>(dropped()));
  out += line;
  out += "-- slowest (current + previous window)\n";
  for (const FlightRecord& r : Slowest()) {
    FormatRecordLine(line, sizeof(line), r);
    out += line;
  }
  out += "-- most recent\n";
  for (const FlightRecord& r : Recent()) {
    FormatRecordLine(line, sizeof(line), r);
    out += line;
  }
  out += "-- exemplars (latency bucket -> retained trace)\n";
  for (const Exemplar& e : Exemplars()) {
    std::snprintf(line, sizeof(line),
                  "bucket<=%lldus trace=%016llx latency=%lldus\n",
                  static_cast<long long>((int64_t{1} << e.bucket) - 1),
                  static_cast<unsigned long long>(e.trace_id),
                  static_cast<long long>(e.latency_us));
    out += line;
  }
  return out;
}

void FlightRecorder::WriteCrashReport(int fd) const {
  char line[256];
  int n = std::snprintf(line, sizeof(line),
                        "== flight recorder crash dump (recorded=%llu)\n",
                        static_cast<unsigned long long>(recorded()));
  if (n > 0) (void)!write(fd, line, static_cast<size_t>(n));
  // No locks taken: try-lock each slot once; skip what is contended. The
  // crashing thread may itself hold a slot lock, so waiting could hang.
  for (const Slot& slot : recent_) {
    if (slot.locked.load(std::memory_order_acquire)) continue;
    const FlightRecord& r = slot.record;
    if (r.total_us == 0 && r.sql_digest == 0) continue;
    n = FormatRecordLine(line, sizeof(line), r);
    if (n > 0) (void)!write(fd, line, static_cast<size_t>(n));
  }
}

uint64_t FlightRecorder::DigestSql(std::string_view sql) {
  uint64_t h = 0xcbf29ce484222325ULL;  // FNV-1a 64
  for (char c : sql) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h != 0 ? h : 1;
}

int FlightRecorder::LatencyBucket(int64_t us) {
  if (us <= 0) return 0;
  int bucket = 0;
  uint64_t v = static_cast<uint64_t>(us);
  while (v > 0 && bucket < kExemplarBuckets - 1) {
    v >>= 1;
    ++bucket;
  }
  return bucket;
}

namespace {

std::atomic<FlightRecorder*> g_crash_recorder{nullptr};

extern "C" void DsFlightCrashHandler(int sig) {
  FlightRecorder* fr = g_crash_recorder.load(std::memory_order_acquire);
  if (fr != nullptr) {
    char head[64];
    int n = std::snprintf(head, sizeof(head),
                          "ds: fatal signal %d, dumping flight recorder\n",
                          sig);
    if (n > 0) (void)!write(2, head, static_cast<size_t>(n));
    fr->WriteCrashReport(2);
  }
  // Handlers are installed with SA_RESETHAND, so re-raising runs the
  // default disposition (core dump / abort) for the original signal.
  raise(sig);
}

}  // namespace

void SetCrashFlightRecorder(FlightRecorder* recorder) {
  g_crash_recorder.store(recorder, std::memory_order_release);
  if (recorder == nullptr) return;
  struct sigaction sa;
  std::memset(&sa, 0, sizeof(sa));
  sa.sa_handler = &DsFlightCrashHandler;
  sa.sa_flags = SA_RESETHAND;
  sigemptyset(&sa.sa_mask);
  for (int sig : {SIGSEGV, SIGBUS, SIGABRT}) {
    sigaction(sig, &sa, nullptr);
  }
}

FlightRecorder* CrashFlightRecorder() {
  return g_crash_recorder.load(std::memory_order_acquire);
}

}  // namespace ds::obs
