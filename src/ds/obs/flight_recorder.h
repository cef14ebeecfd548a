// Flight recorder: an always-on, lock-cheap record of recently served
// requests for tail-latency forensics.
//
// Unlike the sampled TraceRecorder (which keeps full span trees for 1-in-N
// requests), the flight recorder keeps one compact POD summary per request
// — tenant, SQL digest, per-stage latency breakdown, q-error when the truth
// is known — for EVERY request, and retains two views:
//
//   * the K most recent requests (a ring with per-slot spinlocks, same
//     drop-on-contention discipline as TraceRecorder), and
//   * the K slowest requests per rotating time window (current + previous
//     window are retained, so a dump right after rotation still shows the
//     last window's tail). The slow path behind an atomic threshold gate:
//     the common case is one relaxed load and a compare.
//
// It also maintains latency-histogram *exemplars*: for each power-of-two
// latency bucket, the most recent traced request that landed in it, linking
// p99 buckets back to retained trace ids in the TraceRecorder ring.
//
// Dumps happen on demand (/tracez, dsctl), on SIGUSR1, and from the crash
// handler (WriteCrashReport is best-effort async-signal-safe: it formats
// from already-written slot memory with snprintf + write only).

#ifndef DS_OBS_FLIGHT_RECORDER_H_
#define DS_OBS_FLIGHT_RECORDER_H_

#include <atomic>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "ds/util/thread_annotations.h"

namespace ds::obs {

/// Stage slots of a served request's latency breakdown. The documented
/// stage names (DESIGN.md §7) are the span names used on the serving path.
enum FlightStage : int {
  kStagePre = 0,    // net read/decode/admission before Submit
  kStageQueue = 1,  // queue wait inside SketchServer
  kStageBind = 2,   // parse/bind/featurize
  kStageInfer = 3,  // batched forward pass share
  kNumFlightStages = 4
};

/// One served request, POD so ring slots copy without allocation.
struct FlightRecord {
  uint64_t trace_id = 0;    // 0 when the request was not trace-sampled
  uint64_t sql_digest = 0;  // DigestSql() of the statement text
  int64_t start_us = 0;     // steady clock (TraceRecorder::NowUs base)
  int64_t total_us = 0;     // submit -> resolve
  int64_t stage_us[kNumFlightStages] = {};
  double estimate = 0.0;
  double q_error = 0.0;  // 0 = truth unknown
  uint32_t seq = 0;      // recorder-assigned, for "most recent" ordering
  uint8_t status = 0;    // 0 = ok, else SubmitStatus-style failure code
  char tenant[12] = {};  // truncated NUL-terminated
  char sketch[16] = {};  // truncated NUL-terminated sketch name

  void SetTenant(std::string_view t) {
    const size_t n = t.size() < sizeof(tenant) - 1 ? t.size() : sizeof(tenant) - 1;
    std::memcpy(tenant, t.data(), n);
    tenant[n] = '\0';
  }
  void SetSketch(std::string_view s) {
    const size_t n = s.size() < sizeof(sketch) - 1 ? s.size() : sizeof(sketch) - 1;
    std::memcpy(sketch, s.data(), n);
    sketch[n] = '\0';
  }
};

/// One latency-histogram exemplar: the most recent traced request that fell
/// into a given power-of-two latency bucket.
struct Exemplar {
  int bucket = 0;  // index into HistogramSnapshot buckets
  uint64_t trace_id = 0;
  int64_t latency_us = 0;
};

class FlightRecorder {
 public:
  struct Options {
    size_t recent_capacity = 128;  // ring of most recent requests
    size_t slowest_capacity = 32;  // top-K per window
    int64_t window_us = 60 * 1000 * 1000;  // top-K rotation period
  };

  FlightRecorder() : FlightRecorder(Options()) {}
  explicit FlightRecorder(Options options);

  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  /// Records one served request. Hot path: a ring-slot copy (drop on
  /// contention) plus one relaxed threshold load; the top-K mutex is taken
  /// only for requests slower than the current K'th-slowest.
  void Record(const FlightRecord& record) DS_EXCLUDES(slow_mu_);

  /// Attaches a q-error to an already-recorded request (truth often arrives
  /// after the estimate resolves). Best-effort: updates every retained copy
  /// whose trace id matches; a record already evicted is silently missed.
  void AnnotateQError(uint64_t trace_id, double q_error)
      DS_EXCLUDES(slow_mu_);

  /// Most recent retained requests, newest first.
  std::vector<FlightRecord> Recent() const DS_EXCLUDES(slow_mu_);

  /// Slowest retained requests (current + previous window), slowest first.
  std::vector<FlightRecord> Slowest() const DS_EXCLUDES(slow_mu_);

  /// Exemplars for every latency bucket that has one, ascending bucket.
  std::vector<Exemplar> Exemplars() const;

  /// Requests written to the recent ring / dropped to ring contention;
  /// every Record call counts in exactly one of the two.
  uint64_t recorded() const {
    return recorded_.load(std::memory_order_relaxed);
  }
  uint64_t dropped() const { return dropped_.load(std::memory_order_relaxed); }

  /// Human-readable dump (SIGUSR1, dsctl): recent tail + slowest table.
  std::string ReportText() const DS_EXCLUDES(slow_mu_);

  /// Crash-handler dump to a raw fd. Takes no locks (skips contended
  /// slots), allocates nothing, and uses only snprintf + write; best-effort
  /// by design — a torn record is better than a hung crash handler.
  void WriteCrashReport(int fd) const;

  /// FNV-1a digest of a SQL statement for grouping without retaining text.
  static uint64_t DigestSql(std::string_view sql);

  /// Power-of-two latency bucket (matches HistogramSnapshot layout).
  static int LatencyBucket(int64_t us);

 private:
  struct Slot {
    std::atomic<bool> locked{false};
    FlightRecord record;
  };
  struct ExemplarSlot {
    std::atomic<bool> locked{false};
    uint64_t trace_id = 0;
    int64_t latency_us = 0;
  };

  void RecordSlow(const FlightRecord& record, int64_t now_us)
      DS_EXCLUDES(slow_mu_);

  static constexpr int kExemplarBuckets = 28;  // HistogramSnapshot::kBuckets

  mutable std::vector<Slot> recent_;
  std::atomic<uint64_t> head_{0};
  std::atomic<uint32_t> seq_{0};
  std::atomic<uint64_t> recorded_{0};
  std::atomic<uint64_t> dropped_{0};

  // Gate for the slow path: requests faster than this never take slow_mu_.
  // Reset to 0 on window rotation so the new window refills.
  std::atomic<int64_t> slow_threshold_us_{0};
  std::atomic<int64_t> window_end_us_;

  const size_t slowest_capacity_;
  const int64_t window_us_;
  mutable util::Mutex slow_mu_{util::LockRank::kObsFlightSlow};
  std::vector<FlightRecord> slow_current_ DS_GUARDED_BY(slow_mu_);
  std::vector<FlightRecord> slow_previous_ DS_GUARDED_BY(slow_mu_);

  mutable ExemplarSlot exemplars_[kExemplarBuckets];
};

/// Registers `recorder` as the process's crash-dump flight recorder and
/// installs SIGSEGV/SIGBUS/SIGABRT handlers (once) that write its crash
/// report to stderr before re-raising. Passing nullptr detaches.
void SetCrashFlightRecorder(FlightRecorder* recorder);

/// The recorder registered via SetCrashFlightRecorder (for SIGUSR1-style
/// on-demand dumps from signal-aware daemons).
FlightRecorder* CrashFlightRecorder();

}  // namespace ds::obs

#endif  // DS_OBS_FLIGHT_RECORDER_H_
