// ds::obs — process-wide observability: named metric instruments.
//
// A Registry maps (name, labels) to instruments — monotonic Counters,
// last-value Gauges, and power-of-two-bucket Histograms. Registration takes
// a mutex once; the returned pointer is stable for the registry's lifetime,
// and every write through it is a relaxed atomic, so instrumented hot paths
// (the serving layer's request loop, inference batches) never serialize on
// a metrics lock. Readers take a Snapshot() in which each cell is read
// atomically; cross-cell skew is bounded by in-flight requests — the
// standard tradeoff production metric libraries make.
//
// Naming follows Prometheus conventions (snake_case, unit suffix, _total
// for counters) so exposition.h can emit the text format directly. The
// exported-name reference table lives in README.md.

#ifndef DS_OBS_METRICS_H_
#define DS_OBS_METRICS_H_

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <deque>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "ds/util/thread_annotations.h"

namespace ds::obs {

/// Metric labels as ordered key/value pairs ({{"sketch", "imdb"}}).
using Labels = std::vector<std::pair<std::string, std::string>>;

/// A monotonically increasing event counter.
class Counter {
 public:
  void Add(uint64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }

  /// Raises the value to `total` if it is below it (never lowers it). Used
  /// to mirror a monotone total kept elsewhere; concurrent callers cannot
  /// double-count the same delta.
  void AdvanceTo(uint64_t total) {
    uint64_t cur = value_.load(std::memory_order_relaxed);
    while (cur < total && !value_.compare_exchange_weak(
                              cur, total, std::memory_order_relaxed)) {
    }
  }

 private:
  std::atomic<uint64_t> value_{0};
};

/// A last-value instrument (resident bytes, current loss, ...). Stored as a
/// double so one type covers sizes, ratios, and losses.
class Gauge {
 public:
  void Set(double v) { value_.store(v, std::memory_order_relaxed); }
  void Add(double delta) {
    double cur = value_.load(std::memory_order_relaxed);
    while (!value_.compare_exchange_weak(cur, cur + delta,
                                         std::memory_order_relaxed)) {
    }
  }
  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Read-only copy of a Histogram. Bucket i counts values v with
/// 2^(i-1) <= v < 2^i (bucket 0: v == 0 or v == 1... see UpperBound).
struct HistogramSnapshot {
  static constexpr size_t kBuckets = 28;  // covers up to ~2^27 (134s in us)

  uint64_t count = 0;
  uint64_t sum = 0;
  uint64_t max = 0;
  std::array<uint64_t, kBuckets> buckets{};

  double Mean() const {
    return count == 0 ? 0.0 : static_cast<double>(sum) / count;
  }

  /// Inclusive upper bound of bucket i (2^i - 1; the last bucket absorbs
  /// everything larger).
  static uint64_t UpperBound(size_t i) { return (uint64_t{1} << i) - 1; }

  /// Value at or below which a fraction `p` in [0,1] of observations fall,
  /// resolved to its bucket upper bound (capped at the observed max).
  uint64_t ApproxPercentile(double p) const;
};

/// Lock-free power-of-two histogram for microsecond latencies and sizes.
class Histogram {
 public:
  void Record(uint64_t value) {
    // Bucket b ends at 2^b - 1, so a value's bucket is its bit width.
    const size_t b = std::min<size_t>(std::bit_width(value),
                                      HistogramSnapshot::kBuckets - 1);
    buckets_[b].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(value, std::memory_order_relaxed);
    uint64_t prev = max_.load(std::memory_order_relaxed);
    while (prev < value &&
           !max_.compare_exchange_weak(prev, value,
                                       std::memory_order_relaxed)) {
    }
  }

  /// Prometheus-style alias for Record.
  void Observe(uint64_t value) { Record(value); }

  HistogramSnapshot Snapshot() const {
    HistogramSnapshot s;
    s.count = count_.load(std::memory_order_relaxed);
    s.sum = sum_.load(std::memory_order_relaxed);
    s.max = max_.load(std::memory_order_relaxed);
    for (size_t i = 0; i < HistogramSnapshot::kBuckets; ++i) {
      s.buckets[i] = buckets_[i].load(std::memory_order_relaxed);
    }
    return s;
  }

 private:
  std::array<std::atomic<uint64_t>, HistogramSnapshot::kBuckets> buckets_{};
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_{0};
  std::atomic<uint64_t> max_{0};
};

enum class MetricKind : uint8_t { kCounter, kGauge, kHistogram };

/// One instrument's identity and value at snapshot time.
struct MetricSnapshot {
  std::string name;
  std::string help;
  Labels labels;
  MetricKind kind = MetricKind::kCounter;
  double value = 0;              // counter / gauge
  HistogramSnapshot histogram;   // kind == kHistogram
};

/// A consistent-enough copy of every registered instrument, ordered by name
/// (ties broken by label string) so exposition groups families together.
struct RegistrySnapshot {
  std::vector<MetricSnapshot> metrics;

  /// The metric with exactly this name and labels, or nullptr.
  const MetricSnapshot* Find(const std::string& name,
                             const Labels& labels = {}) const;
};

/// Owns instruments; hands out stable pointers. Get* registers on first use
/// and returns the existing instrument on every later call with the same
/// (name, labels) — callers cache the pointer and write lock-free. A (name,
/// labels) pair is permanently bound to its first kind; re-requesting it as
/// another kind is an invariant violation (DS_CHECK).
class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  Counter* GetCounter(const std::string& name, const std::string& help = "",
                      const Labels& labels = {});
  Gauge* GetGauge(const std::string& name, const std::string& help = "",
                  const Labels& labels = {});
  Histogram* GetHistogram(const std::string& name,
                          const std::string& help = "",
                          const Labels& labels = {});

  RegistrySnapshot Snapshot() const;

  size_t size() const;

  /// The process-wide registry (for code without an obvious owner; the
  /// serving layer defaults to a private registry per server so concurrent
  /// servers do not mix counts).
  static Registry& Default();

 private:
  struct Entry {
    std::string name;
    std::string help;
    Labels labels;
    MetricKind kind = MetricKind::kCounter;
    // Exactly one is engaged, per `kind`. Instruments live in the deque's
    // nodes, so pointers survive rehashing and later registrations.
    Counter counter;
    Gauge gauge;
    Histogram histogram;
  };

  Entry* GetEntry(const std::string& name, const std::string& help,
                  const Labels& labels, MetricKind kind)
      DS_EXCLUDES(mu_);

  mutable util::Mutex mu_{util::LockRank::kObsRegistry};
  std::deque<Entry> entries_ DS_GUARDED_BY(mu_);
  std::unordered_map<std::string, size_t> index_
      DS_GUARDED_BY(mu_);  // key -> entries_ index
};

}  // namespace ds::obs

#endif  // DS_OBS_METRICS_H_
