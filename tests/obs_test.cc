// Tests for ds::obs — metric registry, exposition formats, the trace ring
// buffer (including under concurrent writers, which the TSan CI job runs),
// and the q-error drift monitor.

#include <algorithm>
#include <cctype>
#include <string>
#include <thread>
#include <vector>

#include "ds/datagen/imdb.h"
#include "ds/obs/drift.h"
#include "ds/obs/export.h"
#include "ds/sketch/deep_sketch.h"
#include "ds/obs/exposition.h"
#include "ds/obs/flight_recorder.h"
#include "ds/obs/metrics.h"
#include "ds/obs/trace.h"
#include "ds/util/json_check.h"
#include "gtest/gtest.h"

#if !defined(_WIN32)
#include <unistd.h>
#endif

namespace ds::obs {
namespace {

// ---------------------------------------------------------------- histogram

TEST(HistogramSnapshotTest, EmptyPercentileIsZero) {
  HistogramSnapshot h;
  EXPECT_EQ(h.ApproxPercentile(0.0), 0u);
  EXPECT_EQ(h.ApproxPercentile(0.5), 0u);
  EXPECT_EQ(h.ApproxPercentile(1.0), 0u);
  EXPECT_EQ(h.Mean(), 0.0);
}

TEST(HistogramSnapshotTest, BucketBoundaries) {
  // Bucket i holds values in (2^(i-1) - 1, 2^i - 1]; UpperBound(i) is the
  // inclusive upper edge the percentile resolves to.
  EXPECT_EQ(HistogramSnapshot::UpperBound(0), 0u);
  EXPECT_EQ(HistogramSnapshot::UpperBound(1), 1u);
  EXPECT_EQ(HistogramSnapshot::UpperBound(4), 15u);
  EXPECT_EQ(HistogramSnapshot::UpperBound(10), 1023u);

  Histogram h;
  h.Record(0);     // bucket 0
  h.Record(1);     // bucket 1
  h.Record(2);     // bucket 2 (first value above UpperBound(1))
  h.Record(15);    // bucket 4 (== UpperBound(4))
  h.Record(16);    // bucket 5
  HistogramSnapshot s = h.Snapshot();
  EXPECT_EQ(s.count, 5u);
  EXPECT_EQ(s.sum, 34u);
  EXPECT_EQ(s.max, 16u);
  EXPECT_EQ(s.buckets[0], 1u);
  EXPECT_EQ(s.buckets[1], 1u);
  EXPECT_EQ(s.buckets[2], 1u);
  EXPECT_EQ(s.buckets[4], 1u);
  EXPECT_EQ(s.buckets[5], 1u);

  // The lowest percentile resolves to the first bucket's upper bound, the
  // highest to the observed max (not the bucket edge above it).
  EXPECT_EQ(s.ApproxPercentile(0.0), 0u);
  EXPECT_EQ(s.ApproxPercentile(1.0), 16u);

  // Every edge: 2^b - 1 is the last value of bucket b and 2^b the first of
  // bucket b + 1; the last bucket absorbs everything larger.
  const size_t last = HistogramSnapshot::kBuckets - 1;
  auto bucket_of = [](uint64_t v) {
    Histogram one;
    one.Record(v);
    const HistogramSnapshot snap = one.Snapshot();
    for (size_t i = 0; i < HistogramSnapshot::kBuckets; ++i) {
      if (snap.buckets[i] == 1) return i;
    }
    return HistogramSnapshot::kBuckets;
  };
  for (size_t b = 0; b < 64; ++b) {
    const uint64_t edge = uint64_t{1} << b;
    EXPECT_EQ(bucket_of(edge - 1), std::min(b, last)) << "2^" << b << "-1";
    EXPECT_EQ(bucket_of(edge), std::min(b + 1, last)) << "2^" << b;
  }
  EXPECT_EQ(bucket_of(UINT64_MAX), last);
}

TEST(HistogramSnapshotTest, PercentileCappedAtObservedMax) {
  Histogram h;
  for (int i = 0; i < 100; ++i) h.Record(10);  // bucket 4, UpperBound 15
  HistogramSnapshot s = h.Snapshot();
  // Every percentile lands in bucket 4 but must report <= max == 10.
  EXPECT_EQ(s.ApproxPercentile(0.50), 10u);
  EXPECT_EQ(s.ApproxPercentile(0.99), 10u);
}

TEST(HistogramSnapshotTest, MonotoneInP) {
  Histogram h;
  for (uint64_t v = 0; v < 2000; v += 7) h.Record(v);
  HistogramSnapshot s = h.Snapshot();
  uint64_t prev = 0;
  for (double p = 0.0; p <= 1.0; p += 0.01) {
    uint64_t cur = s.ApproxPercentile(p);
    EXPECT_GE(cur, prev) << "p=" << p;
    prev = cur;
  }
  EXPECT_EQ(s.ApproxPercentile(1.0), s.max);
}

TEST(HistogramSnapshotTest, HugeValuesLandInLastBucket) {
  Histogram h;
  h.Record(uint64_t{1} << 40);  // beyond the last bucket's range
  HistogramSnapshot s = h.Snapshot();
  EXPECT_EQ(s.buckets[HistogramSnapshot::kBuckets - 1], 1u);
  EXPECT_EQ(s.ApproxPercentile(0.5), s.max);
}

// ----------------------------------------------------------------- registry

TEST(RegistryTest, SameNameSameInstrument) {
  Registry r;
  Counter* a = r.GetCounter("requests_total", "help");
  Counter* b = r.GetCounter("requests_total");
  EXPECT_EQ(a, b);
  a->Add(2);
  b->Add(3);
  EXPECT_EQ(a->value(), 5u);
  EXPECT_EQ(r.size(), 1u);
}

TEST(RegistryTest, LabelsDistinguishInstruments) {
  Registry r;
  Counter* a = r.GetCounter("obs_total", "", {{"sketch", "imdb"}});
  Counter* b = r.GetCounter("obs_total", "", {{"sketch", "tpch"}});
  EXPECT_NE(a, b);
  a->Add(1);
  RegistrySnapshot snap = r.Snapshot();
  const MetricSnapshot* m = snap.Find("obs_total", {{"sketch", "imdb"}});
  ASSERT_NE(m, nullptr);
  EXPECT_EQ(m->value, 1.0);
  EXPECT_EQ(snap.Find("obs_total", {{"sketch", "none"}}), nullptr);
}

TEST(RegistryTest, PointersSurviveManyRegistrations) {
  Registry r;
  Counter* first = r.GetCounter("first_total");
  for (int i = 0; i < 500; ++i) {
    r.GetCounter("c" + std::to_string(i));
  }
  first->Add(1);  // must still be valid
  EXPECT_EQ(r.GetCounter("first_total")->value(), 1u);
}

TEST(RegistryTest, SnapshotSortedByName) {
  Registry r;
  r.GetCounter("zz_total");
  r.GetGauge("aa_gauge");
  r.GetHistogram("mm_hist");
  RegistrySnapshot snap = r.Snapshot();
  ASSERT_EQ(snap.metrics.size(), 3u);
  EXPECT_TRUE(std::is_sorted(
      snap.metrics.begin(), snap.metrics.end(),
      [](const MetricSnapshot& a, const MetricSnapshot& b) {
        return a.name < b.name;
      }));
}

TEST(RegistryTest, ConcurrentRegistrationAndWrites) {
  Registry r;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 10'000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&r] {
      Counter* c = r.GetCounter("shared_total");
      Histogram* h = r.GetHistogram("shared_us");
      for (int i = 0; i < kPerThread; ++i) {
        c->Add(1);
        h->Record(static_cast<uint64_t>(i));
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(r.GetCounter("shared_total")->value(),
            static_cast<uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(r.GetHistogram("shared_us")->Snapshot().count,
            static_cast<uint64_t>(kThreads) * kPerThread);
}

// ----------------------------------------------------------- prometheus fmt

bool IsMetricNameChar(char c, bool first) {
  if (std::isalpha(static_cast<unsigned char>(c)) || c == '_' || c == ':') {
    return true;
  }
  return !first && std::isdigit(static_cast<unsigned char>(c));
}

/// Validates one sample line: name[{labels}] value
void CheckSampleLine(const std::string& line) {
  size_t i = 0;
  ASSERT_FALSE(line.empty());
  ASSERT_TRUE(IsMetricNameChar(line[0], true)) << line;
  while (i < line.size() && IsMetricNameChar(line[i], false)) ++i;
  if (i < line.size() && line[i] == '{') {
    size_t close = line.find('}', i);
    ASSERT_NE(close, std::string::npos) << line;
    i = close + 1;
  }
  ASSERT_LT(i, line.size()) << line;
  ASSERT_EQ(line[i], ' ') << line;
  const char* begin = line.c_str() + i + 1;
  char* end = nullptr;
  std::strtod(begin, &end);
  EXPECT_EQ(*end, '\0') << "unparsed value suffix in: " << line;
  EXPECT_NE(end, begin) << line;
}

std::vector<std::string> SplitLines(const std::string& text) {
  std::vector<std::string> lines;
  size_t start = 0;
  while (start < text.size()) {
    size_t nl = text.find('\n', start);
    if (nl == std::string::npos) nl = text.size();
    lines.push_back(text.substr(start, nl - start));
    start = nl + 1;
  }
  return lines;
}

TEST(PrometheusTest, WellFormedOutput) {
  Registry r;
  r.GetCounter("ds_requests_total", "Requests served")->Add(42);
  r.GetGauge("ds_resident_bytes", "Bytes resident")->Set(12.5);
  Histogram* h = r.GetHistogram("ds_latency_us", "Latency");
  h->Record(3);
  h->Record(70);
  h->Record(70);
  r.GetCounter("ds_obs_total", "Labeled", {{"sketch", "imdb"}})->Add(7);

  const std::string text = ToPrometheusText(r.Snapshot());
  for (const std::string& line : SplitLines(text)) {
    if (line.rfind("# HELP ", 0) == 0 || line.rfind("# TYPE ", 0) == 0) {
      continue;
    }
    CheckSampleLine(line);
  }
  EXPECT_NE(text.find("# TYPE ds_requests_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE ds_latency_us histogram"), std::string::npos);
  EXPECT_NE(text.find("ds_requests_total 42\n"), std::string::npos);
  EXPECT_NE(text.find("ds_resident_bytes 12.5\n"), std::string::npos);
  EXPECT_NE(text.find("ds_obs_total{sketch=\"imdb\"} 7\n"),
            std::string::npos);
}

TEST(PrometheusTest, HistogramBucketsAreCumulativeAndCloseAtCount) {
  Registry r;
  Histogram* h = r.GetHistogram("lat_us", "Latency");
  for (uint64_t v : {1u, 1u, 5u, 100u, 5000u}) h->Record(v);
  const std::string text = ToPrometheusText(r.Snapshot());

  uint64_t prev = 0;
  uint64_t inf_value = 0;
  size_t bucket_lines = 0;
  for (const std::string& line : SplitLines(text)) {
    if (line.rfind("lat_us_bucket", 0) != 0) continue;
    ++bucket_lines;
    const uint64_t v =
        std::strtoull(line.substr(line.rfind(' ') + 1).c_str(), nullptr, 10);
    EXPECT_GE(v, prev) << "non-cumulative bucket: " << line;
    prev = v;
    if (line.find("le=\"+Inf\"") != std::string::npos) inf_value = v;
  }
  EXPECT_GE(bucket_lines, 4u);
  EXPECT_EQ(inf_value, 5u);  // +Inf bucket == _count
  EXPECT_NE(text.find("lat_us_count 5\n"), std::string::npos);
  EXPECT_NE(text.find("lat_us_sum 5107\n"), std::string::npos);
}

TEST(PrometheusTest, LabelValuesEscaped) {
  Registry r;
  r.GetCounter("esc_total", "", {{"q", "a\"b\\c\nd"}})->Add(1);
  const std::string text = ToPrometheusText(r.Snapshot());
  EXPECT_NE(text.find("esc_total{q=\"a\\\"b\\\\c\\nd\"} 1"),
            std::string::npos);
}

TEST(PrometheusTest, ContentTypeIsTextFormatV004) {
  // The exact string HTTP endpoints must send (GET /metrics in ds::net
  // uses it verbatim); scrapers negotiate the format from it, so any
  // drift here breaks ingestion even when the body is fine.
  EXPECT_STREQ(kPrometheusContentType,
               "text/plain; version=0.0.4; charset=utf-8");
  const std::string ct = kPrometheusContentType;
  EXPECT_NE(ct.find("text/plain"), std::string::npos);
  EXPECT_NE(ct.find("version=0.0.4"), std::string::npos);
}

// ------------------------------------------------------------------- json

/// Minimal recursive-descent JSON validity checker (structure only).
class JsonChecker {
 public:
  explicit JsonChecker(const std::string& text) : text_(text) {}

  bool Valid() {
    SkipWs();
    if (!Value()) return false;
    SkipWs();
    return pos_ == text_.size();
  }

 private:
  bool Value() {
    if (pos_ >= text_.size()) return false;
    switch (text_[pos_]) {
      case '{':
        return Object();
      case '[':
        return Array();
      case '"':
        return String();
      case 't':
        return Literal("true");
      case 'f':
        return Literal("false");
      case 'n':
        return Literal("null");
      default:
        return Number();
    }
  }
  bool Object() {
    ++pos_;  // '{'
    SkipWs();
    if (Peek('}')) return true;
    while (true) {
      SkipWs();
      if (!String()) return false;
      SkipWs();
      if (!Expect(':')) return false;
      SkipWs();
      if (!Value()) return false;
      SkipWs();
      if (Peek('}')) return true;
      if (!Expect(',')) return false;
    }
  }
  bool Array() {
    ++pos_;  // '['
    SkipWs();
    if (Peek(']')) return true;
    while (true) {
      SkipWs();
      if (!Value()) return false;
      SkipWs();
      if (Peek(']')) return true;
      if (!Expect(',')) return false;
    }
  }
  bool String() {
    if (pos_ >= text_.size() || text_[pos_] != '"') return false;
    ++pos_;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      if (text_[pos_] == '\\') ++pos_;
      ++pos_;
    }
    if (pos_ >= text_.size()) return false;
    ++pos_;  // closing quote
    return true;
  }
  bool Number() {
    const char* begin = text_.c_str() + pos_;
    char* end = nullptr;
    std::strtod(begin, &end);
    if (end == begin) return false;
    pos_ += static_cast<size_t>(end - begin);
    return true;
  }
  bool Literal(const char* word) {
    const size_t n = std::strlen(word);
    if (text_.compare(pos_, n, word) != 0) return false;
    pos_ += n;
    return true;
  }
  bool Peek(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }
  bool Expect(char c) { return Peek(c); }
  void SkipWs() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  const std::string& text_;
  size_t pos_ = 0;
};

TEST(JsonTest, OutputIsValidJson) {
  Registry r;
  r.GetCounter("ds_requests_total", "Requests")->Add(3);
  r.GetGauge("ds_loss", "Loss")->Set(0.125);
  Histogram* h = r.GetHistogram("ds_latency_us", "Latency");
  h->Record(9);
  h->Record(90);
  r.GetCounter("esc_total", "", {{"q", "a\"b\\c\nd"}})->Add(1);

  const std::string json = ToJson(r.Snapshot());
  EXPECT_TRUE(JsonChecker(json).Valid()) << json;
  EXPECT_NE(json.find("\"name\":\"ds_requests_total\""), std::string::npos);
  EXPECT_NE(json.find("\"kind\":\"histogram\""), std::string::npos);
  EXPECT_NE(json.find("\"p95\":"), std::string::npos);
}

TEST(JsonTest, EmptyRegistry) {
  Registry r;
  const std::string json = ToJson(r.Snapshot());
  EXPECT_EQ(json, "{\"metrics\":[]}");
  EXPECT_TRUE(JsonChecker(json).Valid());
}

// ------------------------------------------------------------------- trace

TEST(TraceTest, DisabledSamplingRecordsNothing) {
  TraceRecorder rec({.capacity = 16, .sample_every = 0});
  EXPECT_EQ(rec.StartTrace(), 0u);
  EXPECT_EQ(rec.sampled(), 0u);
  // A Span with no installed context is inert.
  Span span("noop");
  EXPECT_FALSE(span.active());
  EXPECT_TRUE(rec.Snapshot().empty());
}

TEST(TraceTest, SamplesOneInN) {
  TraceRecorder rec({.capacity = 64, .sample_every = 3});
  int sampled = 0;
  for (int i = 0; i < 9; ++i) {
    if (rec.StartTrace() != 0) ++sampled;
  }
  EXPECT_EQ(sampled, 3);
  EXPECT_EQ(rec.sampled(), 3u);
}

TEST(TraceTest, SpanNestingViaContext) {
  TraceRecorder rec({.capacity = 64, .sample_every = 1});
  const uint64_t trace = rec.StartTrace();
  ASSERT_NE(trace, 0u);
  {
    ScopedTraceContext scope(&rec, trace);
    Span outer("outer");
    {
      Span inner("inner", /*value=*/5);
    }
  }
  std::vector<SpanRecord> spans = rec.Trace(trace);
  ASSERT_EQ(spans.size(), 2u);
  const SpanRecord* outer = nullptr;
  const SpanRecord* inner = nullptr;
  for (const SpanRecord& s : spans) {
    if (std::string(s.name) == "outer") outer = &s;
    if (std::string(s.name) == "inner") inner = &s;
  }
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(inner, nullptr);
  EXPECT_EQ(outer->parent_id, 0u);
  EXPECT_EQ(inner->parent_id, outer->span_id);
  EXPECT_EQ(inner->value, 5u);

  const std::string tree = FormatTrace(spans);
  EXPECT_NE(tree.find("outer"), std::string::npos);
  EXPECT_NE(tree.find("inner (n=5)"), std::string::npos);
}

TEST(TraceTest, ContextRestoredAfterScope) {
  TraceRecorder rec({.capacity = 16, .sample_every = 1});
  EXPECT_EQ(CurrentTraceContext(), nullptr);
  {
    ScopedTraceContext scope(&rec, rec.StartTrace());
    EXPECT_NE(CurrentTraceContext(), nullptr);
  }
  EXPECT_EQ(CurrentTraceContext(), nullptr);
}

TEST(TraceTest, ManualSpanWithExplicitEndpoints) {
  TraceRecorder rec({.capacity = 16, .sample_every = 1});
  const uint64_t trace = rec.StartTrace();
  const uint64_t root =
      RecordSpan(&rec, trace, 0, "root", 1000, 1500, /*value=*/2);
  ASSERT_NE(root, 0u);
  RecordSpan(&rec, trace, root, "child", 1100, 1200);
  std::vector<SpanRecord> spans = rec.Trace(trace);
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].duration_us, 500);
  EXPECT_EQ(spans[1].parent_id, root);
  // No-op without a recorder or a sampled trace.
  EXPECT_EQ(RecordSpan(nullptr, trace, 0, "x", 0, 1), 0u);
  EXPECT_EQ(RecordSpan(&rec, 0, 0, "x", 0, 1), 0u);
}

TEST(TraceTest, RingWrapKeepsLastSpans) {
  TraceRecorder rec({.capacity = 8, .sample_every = 1});
  const uint64_t trace = rec.StartTrace();
  for (int i = 0; i < 50; ++i) {
    RecordSpan(&rec, trace, 0, "s", i, i + 1);
  }
  std::vector<SpanRecord> spans = rec.Snapshot();
  EXPECT_EQ(spans.size(), 8u);
  // The ring holds the newest spans (the oldest were overwritten).
  for (const SpanRecord& s : spans) EXPECT_GE(s.start_us, 42);
  EXPECT_EQ(rec.dropped(), 0u);  // overwriting is not dropping
}

TEST(TraceTest, ConcurrentWriters) {
  TraceRecorder rec({.capacity = 128, .sample_every = 1});
  constexpr int kThreads = 4;
  constexpr int kSpansPerThread = 2'000;
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&rec, t] {
      const uint64_t trace = rec.StartTrace();
      ScopedTraceContext scope(&rec, trace);
      for (int i = 0; i < kSpansPerThread; ++i) {
        Span span("worker", static_cast<uint64_t>(t));
      }
    });
  }
  // A concurrent reader stresses the per-slot locks the way a live scrape
  // would.
  std::thread reader([&rec] {
    for (int i = 0; i < 50; ++i) {
      (void)rec.Snapshot();
    }
  });
  for (auto& w : writers) w.join();
  reader.join();

  std::vector<SpanRecord> spans = rec.Snapshot();
  EXPECT_LE(spans.size(), 128u);
  EXPECT_FALSE(spans.empty());
  for (const SpanRecord& s : spans) {
    EXPECT_NE(s.trace_id, 0u);
    EXPECT_STREQ(s.name, "worker");
    EXPECT_LT(s.value, static_cast<uint64_t>(kThreads));
  }
  // Dropping under contention is allowed; losing the whole ring is not.
  EXPECT_LT(rec.dropped(),
            static_cast<uint64_t>(kThreads) * kSpansPerThread);
}

// -------------------------------------------------------------- wire trace

TEST(WireTraceTest, HeaderRoundTrip) {
  WireTraceContext ctx;
  ctx.trace_id = 0xdeadbeefcafef00dull;
  ctx.parent_span = 0x1122334455667788ull;
  ASSERT_TRUE(ctx.sampled());
  const std::string header = FormatTraceHeader(ctx);
  WireTraceContext out;
  ASSERT_TRUE(ParseTraceHeader(header, &out));
  EXPECT_EQ(out.trace_id, ctx.trace_id);
  EXPECT_EQ(out.parent_span, ctx.parent_span);
}

TEST(WireTraceTest, MalformedHeaderRejected) {
  WireTraceContext out;
  out.trace_id = 42;  // must stay untouched on failure
  EXPECT_FALSE(ParseTraceHeader("", &out));
  EXPECT_FALSE(ParseTraceHeader("not-a-trace", &out));
  EXPECT_FALSE(ParseTraceHeader("12345", &out));
  // A zero trace id means "unsampled" and is not a valid wire context.
  EXPECT_FALSE(
      ParseTraceHeader("0000000000000000-0000000000000001", &out));
  EXPECT_EQ(out.trace_id, 42u);
}

// --------------------------------------------------------- flight recorder

FlightRecord MakeFlight(uint64_t trace_id, int64_t total_us,
                        const char* tenant = "t") {
  FlightRecord r;
  r.trace_id = trace_id;
  r.sql_digest = FlightRecorder::DigestSql("SELECT COUNT(*) FROM t");
  r.start_us = TraceRecorder::NowUs();
  r.total_us = total_us;
  r.stage_us[kStageQueue] = total_us / 4;
  r.stage_us[kStageInfer] = total_us / 2;
  r.estimate = 123.0;
  r.SetTenant(tenant);
  r.SetSketch("tiny");
  return r;
}

TEST(FlightRecorderTest, RecentRingBoundedNewestFirst) {
  FlightRecorder::Options options;
  options.recent_capacity = 8;
  FlightRecorder flight(options);
  for (int i = 0; i < 50; ++i) {
    flight.Record(MakeFlight(0, /*total_us=*/i + 1));
  }
  const std::vector<FlightRecord> recent = flight.Recent();
  ASSERT_EQ(recent.size(), 8u);
  for (size_t i = 1; i < recent.size(); ++i) {
    EXPECT_GT(recent[i - 1].seq, recent[i].seq);  // newest first
  }
  EXPECT_EQ(recent.front().total_us, 50);
  EXPECT_EQ(flight.recorded(), 50u);
}

TEST(FlightRecorderTest, SlowestKeepsTopK) {
  FlightRecorder::Options options;
  options.slowest_capacity = 4;
  FlightRecorder flight(options);
  // Ascending latencies: the gate admits each new slowest; then a flood of
  // fast requests must not dislodge the retained tail.
  for (int i = 1; i <= 20; ++i) {
    flight.Record(MakeFlight(0, /*total_us=*/i * 1000));
  }
  for (int i = 0; i < 100; ++i) {
    flight.Record(MakeFlight(0, /*total_us=*/1));
  }
  const std::vector<FlightRecord> slowest = flight.Slowest();
  ASSERT_GE(slowest.size(), 4u);
  EXPECT_EQ(slowest.front().total_us, 20'000);
  for (size_t i = 1; i < slowest.size(); ++i) {
    EXPECT_GE(slowest[i - 1].total_us, slowest[i].total_us);
  }
}

TEST(FlightRecorderTest, AnnotateQErrorUpdatesRetainedCopies) {
  FlightRecorder flight;
  flight.Record(MakeFlight(/*trace_id=*/777, /*total_us=*/5'000));
  flight.AnnotateQError(777, 3.5);
  bool found = false;
  for (const FlightRecord& r : flight.Recent()) {
    if (r.trace_id == 777) {
      EXPECT_DOUBLE_EQ(r.q_error, 3.5);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(FlightRecorderTest, ExemplarsResolveToRetainedTraces) {
  // The exemplar contract: a latency bucket's trace id points at a trace
  // that is actually retained in the TraceRecorder ring, so a p99 bucket
  // can be expanded into its span tree.
  TraceRecorder tracer({.capacity = 64, .sample_every = 1});
  FlightRecorder flight;
  const uint64_t trace = tracer.StartTrace();
  ASSERT_NE(trace, 0u);
  RecordSpan(&tracer, trace, 0, "estimate", 1000, 9000);
  flight.Record(MakeFlight(trace, /*total_us=*/8'000));
  const std::vector<Exemplar> exemplars = flight.Exemplars();
  ASSERT_FALSE(exemplars.empty());
  bool resolved = false;
  for (const Exemplar& e : exemplars) {
    if (e.trace_id == trace) {
      EXPECT_EQ(e.bucket, FlightRecorder::LatencyBucket(8'000));
      EXPECT_FALSE(tracer.Trace(e.trace_id).empty());
      resolved = true;
    }
  }
  EXPECT_TRUE(resolved);
}

TEST(FlightRecorderTest, ConcurrentWriters) {
  // The TSan job runs this: per-slot spinlocks under writer contention
  // plus a concurrent reader, the live-scrape interleaving.
  FlightRecorder::Options options;
  options.recent_capacity = 32;
  options.slowest_capacity = 8;
  FlightRecorder flight(options);
  constexpr int kThreads = 4;
  constexpr int kPerThread = 2'000;
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&flight, t] {
      for (int i = 0; i < kPerThread; ++i) {
        flight.Record(MakeFlight(static_cast<uint64_t>(t + 1),
                                 /*total_us=*/(t + 1) * 100 + i % 50));
      }
    });
  }
  std::thread reader([&flight] {
    for (int i = 0; i < 50; ++i) {
      (void)flight.Recent();
      (void)flight.Slowest();
      (void)flight.Exemplars();
      (void)flight.ReportText();
    }
  });
  for (auto& w : writers) w.join();
  reader.join();
  EXPECT_EQ(flight.recorded() + flight.dropped(),
            static_cast<uint64_t>(kThreads) * kPerThread);
  EXPECT_LE(flight.Recent().size(), 32u);
}

TEST(FlightRecorderTest, ReportTextShowsTenantAndSketch) {
  FlightRecorder flight;
  flight.Record(MakeFlight(1, 5'000, "acme"));
  const std::string report = flight.ReportText();
  EXPECT_NE(report.find("acme"), std::string::npos);
  EXPECT_NE(report.find("tiny"), std::string::npos);
}

#if !defined(_WIN32)
TEST(FlightRecorderTest, CrashReportWritesToFd) {
  FlightRecorder flight;
  flight.Record(MakeFlight(1, 5'000, "acme"));
  int fds[2];
  ASSERT_EQ(pipe(fds), 0);
  flight.WriteCrashReport(fds[1]);
  close(fds[1]);
  std::string report;
  char buf[4096];
  ssize_t n;
  while ((n = read(fds[0], buf, sizeof(buf))) > 0) {
    report.append(buf, static_cast<size_t>(n));
  }
  close(fds[0]);
  EXPECT_FALSE(report.empty());
  EXPECT_NE(report.find("acme"), std::string::npos);
}
#endif  // !_WIN32

TEST(FlightRecorderTest, DigestIsStableAndDiscriminates) {
  const uint64_t a = FlightRecorder::DigestSql("SELECT COUNT(*) FROM a");
  EXPECT_EQ(a, FlightRecorder::DigestSql("SELECT COUNT(*) FROM a"));
  EXPECT_NE(a, FlightRecorder::DigestSql("SELECT COUNT(*) FROM b"));
}

// ----------------------------------------------------------------- export

TEST(ExportTest, ChromeTraceJsonWellFormed) {
  TraceRecorder rec({.capacity = 64, .sample_every = 1});
  const uint64_t trace = rec.StartTrace();
  const uint64_t root = RecordSpan(&rec, trace, 0, "estimate", 1000, 5000);
  RecordSpan(&rec, trace, root, "queue_wait", 1100, 1400, /*value=*/2);
  const std::string json = ToChromeTraceJson(rec.Snapshot());
  std::string error;
  EXPECT_TRUE(util::JsonWellFormed(json, &error)) << error;
  EXPECT_NE(json.find("traceEvents"), std::string::npos);
  EXPECT_NE(json.find("queue_wait"), std::string::npos);
}

TEST(ExportTest, ChromeTraceJsonEmptyDumpStillWellFormed) {
  std::string error;
  EXPECT_TRUE(util::JsonWellFormed(ToChromeTraceJson({}), &error)) << error;
}

TEST(ExportTest, TracezJsonWellFormed) {
  TraceRecorder rec({.capacity = 64, .sample_every = 1});
  FlightRecorder flight;
  const uint64_t trace = rec.StartTrace();
  RecordSpan(&rec, trace, 0, "estimate", 1000, 9000);
  flight.Record(MakeFlight(trace, 8'000));
  const std::string json = TracezJson(flight, &rec);
  std::string error;
  EXPECT_TRUE(util::JsonWellFormed(json, &error)) << error;
  // Null tracer is a documented degenerate form, not a crash.
  EXPECT_TRUE(util::JsonWellFormed(TracezJson(flight, nullptr), &error))
      << error;
}

// ------------------------------------------------------------------- drift

DriftOptions SmallDrift(Registry* registry = nullptr) {
  DriftOptions o;
  o.baseline_window = 50;
  o.window = 50;
  o.min_window = 20;
  o.audit_capacity = 10;
  o.registry = registry;
  return o;
}

TEST(DriftTest, QuietOnStationaryWorkload) {
  QErrorDriftMonitor mon("imdb", SmallDrift());
  // Stationary q-error ~ alternating 1.1 / 1.5 (over- and under-estimates).
  for (int i = 0; i < 400; ++i) {
    const double truth = 1000;
    mon.Observe(truth, i % 2 == 0 ? truth * 1.1 : truth / 1.5);
  }
  DriftReport rep = mon.Report();
  EXPECT_TRUE(rep.baseline_ready);
  EXPECT_FALSE(rep.drifted);
  EXPECT_FALSE(mon.drifted());
  EXPECT_EQ(rep.observations, 400u);
  EXPECT_GT(rep.baseline_median, 1.0);
}

TEST(DriftTest, FlagsInjectedDriftAndRecovers) {
  QErrorDriftMonitor mon("imdb", SmallDrift());
  auto feed_good = [&](int n) {
    for (int i = 0; i < n; ++i) {
      mon.Observe(1000, i % 2 == 0 ? 1100 : 800);  // q in [1.1, 1.25]
    }
  };
  feed_good(60);  // fills the baseline
  ASSERT_TRUE(mon.Report().baseline_ready);
  ASSERT_FALSE(mon.drifted());

  // Inject 10x worse estimates: q-error jumps to ~10.
  for (int i = 0; i < 60; ++i) mon.Observe(1000, 10'000);
  DriftReport rep = mon.Report();
  EXPECT_TRUE(rep.drifted) << rep.ToString();
  EXPECT_GT(rep.window_median, rep.baseline_median * 2);

  // Back to the trained distribution: the flag clears once the window
  // slides past the bad stretch.
  feed_good(60);
  EXPECT_FALSE(mon.drifted()) << mon.Report().ToString();
}

TEST(DriftTest, NeedsMinWindowBeforeFlagging) {
  QErrorDriftMonitor mon("imdb", SmallDrift());
  for (int i = 0; i < 60; ++i) mon.Observe(1000, 1100);
  // A handful of terrible estimates is below min_window: no flag yet.
  for (int i = 0; i < 5; ++i) mon.Observe(1000, 100'000);
  EXPECT_FALSE(mon.drifted());
}

TEST(DriftTest, AuditRingBounded) {
  QErrorDriftMonitor mon("imdb", SmallDrift());
  for (int i = 0; i < 100; ++i) {
    mon.Observe(1000, 1000 + i);
  }
  std::vector<AuditRecord> audits = mon.RecentAudits();
  ASSERT_EQ(audits.size(), 10u);  // audit_capacity
  // Oldest first; the newest estimate is the last one fed.
  EXPECT_EQ(audits.back().estimate, 1099.0);
  EXPECT_GE(audits.back().q_error, 1.0);
}

TEST(DriftTest, ExportsGaugesWhenRegistryGiven) {
  Registry registry;
  QErrorDriftMonitor mon("imdb", SmallDrift(&registry));
  for (int i = 0; i < 80; ++i) mon.Observe(1000, 1500);
  RegistrySnapshot snap = registry.Snapshot();
  const Labels labels = {{"sketch", "imdb"}};
  const MetricSnapshot* median = snap.Find("ds_qerror_window_median", labels);
  ASSERT_NE(median, nullptr);
  EXPECT_NEAR(median->value, 1.5, 0.01);
  const MetricSnapshot* obs = snap.Find("ds_qerror_observations_total", labels);
  ASSERT_NE(obs, nullptr);
  EXPECT_EQ(obs->value, 80.0);
  const MetricSnapshot* drifted = snap.Find("ds_qerror_drifted", labels);
  ASSERT_NE(drifted, nullptr);
  EXPECT_EQ(drifted->value, 0.0);
}

TEST(DriftTest, ImdbGeneratorShiftRaisesFlagAndRecoveryClears) {
  // End-to-end drift scenario on the real pipeline: train a tiny sketch on
  // the synthetic IMDb, then shift the generator (4x data scale, so every
  // per-year truth grows ~4x while the frozen sketch keeps answering from
  // the old distribution), and finally restore the original data.
  datagen::ImdbOptions base_opts;
  base_opts.num_titles = 3'000;
  base_opts.seed = 11;
  auto base = datagen::GenerateImdb(base_opts);
  ASSERT_TRUE(base.ok());
  datagen::ImdbOptions shifted_opts = base_opts;
  shifted_opts.num_titles = 12'000;  // the shift: 4x the fact data
  auto shifted = datagen::GenerateImdb(shifted_opts);
  ASSERT_TRUE(shifted.ok());

  sketch::SketchConfig config;
  config.tables = {"title"};
  config.num_samples = 16;
  config.num_training_queries = 250;
  config.num_epochs = 3;
  config.hidden_units = 8;
  config.batch_size = 32;
  config.max_tables_per_query = 1;
  config.seed = 7;
  auto sketch = sketch::DeepSketch::Train(**base, config);
  ASSERT_TRUE(sketch.ok()) << sketch.status().ToString();

  auto count_year = [](const storage::Catalog& db, int64_t year) {
    const storage::Table* title = db.GetTable("title").value();
    const storage::Column* col = title->GetColumn("production_year").value();
    double n = 0;
    for (size_t r = 0; r < title->num_rows(); ++r) {
      if (col->GetInt(r) == year) ++n;
    }
    return n;
  };

  // Per-year probes with their truths under both generators and the
  // sketch's (fixed) estimate. Years too rare to be stable are skipped.
  struct Probe {
    double truth_base;
    double truth_shifted;
    double estimate;
  };
  std::vector<Probe> probes;
  for (int64_t year = 1980; year <= 2015; ++year) {
    const double t0 = count_year(**base, year);
    const double t1 = count_year(**shifted, year);
    if (t0 < 3 || t1 < 3) continue;
    auto est = sketch->EstimateSql(
        "SELECT COUNT(*) FROM title WHERE production_year = " +
        std::to_string(year));
    ASSERT_TRUE(est.ok()) << est.status().ToString();
    probes.push_back({t0, t1, *est});
  }
  ASSERT_GE(probes.size(), 10u);

  QErrorDriftMonitor mon("imdb", SmallDrift());
  auto feed = [&](bool use_shifted, int rounds) {
    for (int i = 0; i < rounds; ++i) {
      for (const Probe& p : probes) {
        mon.Observe(use_shifted ? p.truth_shifted : p.truth_base,
                    p.estimate);
      }
    }
  };

  feed(/*use_shifted=*/false, 1 + 60 / static_cast<int>(probes.size()));
  ASSERT_TRUE(mon.Report().baseline_ready);
  ASSERT_FALSE(mon.drifted()) << mon.Report().ToString();

  feed(/*use_shifted=*/true, 1 + 60 / static_cast<int>(probes.size()));
  EXPECT_TRUE(mon.drifted()) << mon.Report().ToString();

  feed(/*use_shifted=*/false, 1 + 60 / static_cast<int>(probes.size()));
  EXPECT_FALSE(mon.drifted()) << mon.Report().ToString();

  // The audit ring stayed bounded across the whole episode.
  EXPECT_EQ(mon.RecentAudits().size(), SmallDrift().audit_capacity);
}

TEST(DriftTest, MonitorSetTracksSketchesIndependently) {
  DriftMonitorSet set(SmallDrift());
  for (int i = 0; i < 80; ++i) {
    set.Observe("good", 1000, 1100);
    set.Observe("bad", 1000, 1100);
  }
  // Only "bad" degrades.
  for (int i = 0; i < 60; ++i) {
    set.Observe("good", 1000, 1100);
    set.Observe("bad", 1000, 50'000);
  }
  EXPECT_FALSE(set.ForSketch("good")->drifted());
  EXPECT_TRUE(set.ForSketch("bad")->drifted());
  ASSERT_EQ(set.Reports().size(), 2u);
  ASSERT_EQ(set.Drifted().size(), 1u);
  EXPECT_EQ(set.Drifted()[0].sketch, "bad");
}

}  // namespace
}  // namespace ds::obs
