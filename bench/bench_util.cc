#include "bench_util.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <filesystem>

#include "ds/util/alloc.h"
#include "ds/util/logging.h"
#include "ds/util/timer.h"

namespace ds::bench {

Args::Args(int argc, char** argv, std::vector<std::string_view> flags)
    : flags_(std::move(flags)) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg(argv[i]);
    const auto eq = arg.find('=');
    if (eq == std::string::npos || !Knows(arg.substr(0, eq))) {
      const std::string program =
          std::filesystem::path(argv[0]).filename().string();
      std::string usage = "usage: " + program;
      for (std::string_view f : flags_) {
        usage += " [";
        usage += f;
        usage += "]";
      }
      std::fprintf(stderr, "%s: unknown argument '%s'\n%s\n",
                   program.c_str(), arg.c_str(), usage.c_str());
      std::exit(2);
    }
    values_[arg.substr(0, eq)] = arg.substr(eq + 1);
  }
}

bool Args::Knows(std::string_view key) const {
  for (std::string_view f : flags_) {
    if (f.substr(0, f.find('=')) == key) return true;
  }
  return false;
}

const std::string* Args::Find(const std::string& name) const {
  DS_CHECK(Knows(name));
  auto it = values_.find(name);
  return it == values_.end() ? nullptr : &it->second;
}

int64_t Args::GetInt(const std::string& name, int64_t def) const {
  const std::string* v = Find(name);
  return v == nullptr ? def : std::strtoll(v->c_str(), nullptr, 10);
}

double Args::GetDouble(const std::string& name, double def) const {
  const std::string* v = Find(name);
  return v == nullptr ? def : std::strtod(v->c_str(), nullptr);
}

std::string Args::GetString(const std::string& name,
                            const std::string& def) const {
  const std::string* v = Find(name);
  return v == nullptr ? def : *v;
}

std::vector<std::string> JobLightTables() {
  return {"title",      "movie_keyword", "movie_companies",
          "cast_info",  "movie_info",    "movie_info_idx"};
}

std::vector<double> QErrorsOn(const est::CardinalityEstimator& estimator,
                              const std::vector<workload::QuerySpec>& queries,
                              const std::vector<uint64_t>& true_cards) {
  DS_CHECK_EQ(queries.size(), true_cards.size());
  std::vector<double> q;
  q.reserve(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    auto est = estimator.EstimateCardinality(queries[i]);
    DS_CHECK_OK(est.status());
    q.push_back(util::QError(static_cast<double>(true_cards[i]), *est));
  }
  return q;
}

void PrintQErrorTable(
    const std::string& title,
    const std::vector<std::pair<std::string, std::vector<double>>>& rows) {
  std::vector<std::vector<std::string>> cells;
  for (const auto& [name, qerrors] : rows) {
    auto s = util::QErrorSummary::FromQErrors(qerrors);
    cells.push_back({name, util::FormatQ(s.median), util::FormatQ(s.p90),
                     util::FormatQ(s.p95), util::FormatQ(s.p99),
                     util::FormatQ(s.max), util::FormatQ(s.mean)});
  }
  std::printf("\n%s\n", title.c_str());
  std::printf("%s", util::FormatTable({"estimator", "median", "90th", "95th",
                                       "99th", "max", "mean"},
                                      cells)
                        .c_str());
}

OpResult MeasureOp(const std::string& op, size_t warmup, size_t iters,
                   size_t queries_per_call, const std::function<void()>& fn) {
  for (size_t i = 0; i < warmup; ++i) fn();
  std::vector<double> latencies_us;
  latencies_us.reserve(iters);
  const uint64_t allocs_before = util::AllocCount();
  util::WallTimer total;
  for (size_t i = 0; i < iters; ++i) {
    util::WallTimer t;
    fn();
    latencies_us.push_back(t.ElapsedSeconds() * 1e6);
  }
  const double elapsed = total.ElapsedSeconds();
  const uint64_t allocs = util::AllocCount() - allocs_before;
  const double queries =
      static_cast<double>(iters) * static_cast<double>(queries_per_call);
  OpResult r;
  r.op = op;
  r.p50_us = util::Percentile(latencies_us, 50);
  r.p95_us = util::Percentile(std::move(latencies_us), 95);
  r.qps = elapsed > 0 ? queries / elapsed : 0;
  r.allocations_per_query = util::AllocCountingAvailable()
                                ? static_cast<double>(allocs) / queries
                                : -1;
  return r;
}

std::string GitSha() {
#if defined(_WIN32)
  std::FILE* pipe = nullptr;
#else
  std::FILE* pipe = popen("git rev-parse --short HEAD 2>/dev/null", "r");
#endif
  if (pipe != nullptr) {
    char buf[64] = {};
    const size_t n = std::fread(buf, 1, sizeof(buf) - 1, pipe);
#if !defined(_WIN32)
    pclose(pipe);
#endif
    std::string sha(buf, n);
    while (!sha.empty() && (sha.back() == '\n' || sha.back() == '\r')) {
      sha.pop_back();
    }
    if (!sha.empty()) return sha;
  }
  const char* env = std::getenv("DS_GIT_SHA");
  return env != nullptr && *env != '\0' ? env : "unknown";
}

namespace {

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

std::string UtcTimestamp() {
  std::time_t now = std::time(nullptr);
  std::tm tm{};
#if defined(_WIN32)
  gmtime_s(&tm, &now);
#else
  gmtime_r(&now, &tm);
#endif
  char buf[32];
  std::strftime(buf, sizeof(buf), "%Y-%m-%dT%H:%M:%SZ", &tm);
  return buf;
}

}  // namespace

void WriteBenchResultsJson(
    const std::string& path, const std::string& name,
    const std::vector<OpResult>& ops, const std::string& mode,
    const std::vector<std::pair<std::string, std::string>>& extras) {
  std::error_code ec;
  const auto parent = std::filesystem::path(path).parent_path();
  if (!parent.empty()) std::filesystem::create_directories(parent, ec);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f,
               "{\n  \"benchmark\": \"%s\",\n  \"git_sha\": \"%s\",\n"
               "  \"timestamp\": \"%s\",\n  \"mode\": \"%s\",\n",
               name.c_str(), GitSha().c_str(), UtcTimestamp().c_str(),
               mode.c_str());
  for (const auto& [key, value] : extras) {
    std::fprintf(f, "  \"%s\": \"%s\",\n", JsonEscape(key).c_str(),
                 JsonEscape(value).c_str());
  }
  std::fprintf(f, "  \"ops\": [\n");
  for (size_t i = 0; i < ops.size(); ++i) {
    const OpResult& r = ops[i];
    std::fprintf(f,
                 "    {\"op\": \"%s\", \"p50_us\": %.3f, \"p95_us\": %.3f, "
                 "\"qps\": %.1f, \"allocations_per_query\": %.3f}%s\n",
                 r.op.c_str(), r.p50_us, r.p95_us, r.qps,
                 r.allocations_per_query, i + 1 < ops.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote bench results -> %s\n", path.c_str());
}

void WriteBenchMetricsJson(const std::string& path, const std::string& name,
                           const std::vector<MetricRow>& rows,
                           const std::string& mode) {
  std::error_code ec;
  const auto parent = std::filesystem::path(path).parent_path();
  if (!parent.empty()) std::filesystem::create_directories(parent, ec);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f,
               "{\n  \"benchmark\": \"%s\",\n  \"git_sha\": \"%s\",\n"
               "  \"timestamp\": \"%s\",\n  \"mode\": \"%s\",\n"
               "  \"rows\": [\n",
               JsonEscape(name).c_str(), JsonEscape(GitSha()).c_str(),
               UtcTimestamp().c_str(), JsonEscape(mode).c_str());
  for (size_t i = 0; i < rows.size(); ++i) {
    std::fprintf(f, "    {\"name\": \"%s\"", JsonEscape(rows[i].name).c_str());
    for (const auto& [key, value] : rows[i].values) {
      std::fprintf(f, ", \"%s\": %.6g", JsonEscape(key).c_str(), value);
    }
    std::fprintf(f, "}%s\n", i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote bench results -> %s\n", path.c_str());
}

std::vector<MetricRow> QErrorMetricRows(
    const std::vector<std::pair<std::string, std::vector<double>>>& rows) {
  std::vector<MetricRow> out;
  out.reserve(rows.size());
  for (const auto& [name, qerrors] : rows) {
    const auto s = util::QErrorSummary::FromQErrors(qerrors);
    out.push_back({name,
                   {{"median", s.median},
                    {"p90", s.p90},
                    {"p95", s.p95},
                    {"p99", s.p99},
                    {"max", s.max},
                    {"mean", s.mean}}});
  }
  return out;
}

}  // namespace ds::bench
