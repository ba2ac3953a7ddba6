#include "common.h"

#include <sys/resource.h>
#include <sys/stat.h>

#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>
#include <thread>

namespace moqo {
namespace perfbench {
namespace {

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) return "null";
  std::ostringstream out;
  out.imbue(std::locale::classic());
  out.precision(std::numeric_limits<double>::max_digits10);
  out << value;
  return out.str();
}

}  // namespace

void PrintResult(const RunResult& result) {
  for (const std::string& problem : result.problems) {
    std::fprintf(stderr, "perfbench: check failed: %s\n", problem.c_str());
  }
  std::string line = "{\"correct\": ";
  line += result.correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(result.attempted);
  line += ", \"failed\": " + std::to_string(result.failed);
  line += ", \"metrics\": {";
  for (size_t i = 0; i < result.metrics.size(); ++i) {
    const MetricValue& m = result.metrics[i];
    if (i > 0) line += ", ";
    line += JsonString(m.name) + ": {\"value\": " + JsonNumber(m.value) +
            ", \"unit\": " + JsonString(m.unit) + "}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

void PrintEnvironment(const Options& options) {
  std::string line = "env: {";
  line += "\"nproc\": " +
          std::to_string(std::thread::hardware_concurrency());
#if defined(__VERSION__)
  line += ", \"compiler\": " + JsonString(__VERSION__);
#endif
  line += ", \"build_type\": " + JsonString(PERFBENCH_BUILD_TYPE);
  line += ", \"commit\": " + JsonString(options.commit);
  line += ", \"source_digest\": " + JsonString(options.source_digest);
  line += ", \"workload\": " + JsonString(options.workload);
  line += ", \"seed\": " + std::to_string(options.seed);
  line += ", \"seconds\": " + std::to_string(options.seconds);
  line += ", \"trace\": ";
  line += options.trace ? "1" : "0";
  line += "}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

bool OptimizedBuild(std::string* why) {
#if !defined(NDEBUG)
  *why = "assertions are enabled (NDEBUG unset)";
  return false;
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  *why = "built with a sanitizer";
  return false;
#endif
  const std::string build_type = PERFBENCH_BUILD_TYPE;
  if (build_type != "Release" && build_type != "RelWithDebInfo") {
    *why = "build type '" + build_type + "' is not Release/RelWithDebInfo";
    return false;
  }
  return true;
}

int64_t NowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double GeoMean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double log_sum = 0.0;
  for (double v : values) log_sum += std::log(v);
  return std::exp(log_sum / static_cast<double>(values.size()));
}

ProcUsage ReadProcUsage() {
  ProcUsage usage;
  struct rusage self;
  struct rusage children;
  std::memset(&self, 0, sizeof(self));
  std::memset(&children, 0, sizeof(children));
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &children);
  usage.user_s = static_cast<double>(self.ru_utime.tv_sec) +
                 static_cast<double>(self.ru_utime.tv_usec) / 1e6;
  usage.sys_s = static_cast<double>(self.ru_stime.tv_sec) +
                static_cast<double>(self.ru_stime.tv_usec) / 1e6;
  usage.minor_faults = self.ru_minflt;
  // ru_maxrss is in kilobytes on Linux.
  usage.self_peak_mb = static_cast<double>(self.ru_maxrss) / 1024.0;
  usage.children_peak_mb = static_cast<double>(children.ru_maxrss) / 1024.0;
  return usage;
}

int32_t Tracer::Begin(const char* name, int32_t parent, int64_t id) {
  return BeginAt(name, parent, id, NowNanos());
}

int32_t Tracer::BeginAt(const char* name, int32_t parent, int64_t id,
                        int64_t start_ns) {
  Span span;
  span.name = name;
  span.parent = parent;
  span.id = id;
  span.start_ns = start_ns;
  spans_.push_back(span);
  return static_cast<int32_t>(spans_.size() - 1);
}

void Tracer::End(int32_t span) {
  spans_[static_cast<size_t>(span)].end_ns = NowNanos();
}

std::map<std::string, std::vector<double>> Tracer::SelfMicros() const {
  // Children of one span never overlap (one recording thread), so the
  // covered part of a parent is the sum of its children's durations.
  std::vector<int64_t> child_ns(spans_.size(), 0);
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      child_ns[static_cast<size_t>(span.parent)] += span.end_ns - span.start_ns;
    }
  }
  std::map<std::string, std::vector<double>> self;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    self[span.name].push_back(
        static_cast<double>(span.end_ns - span.start_ns - child_ns[i]) /
        1000.0);
  }
  return self;
}

double SpanCostMicros() {
  constexpr int kSpans = 20000;
  Tracer tracer;
  const int64_t start = NowNanos();
  for (int i = 0; i < kSpans; ++i) {
    tracer.End(tracer.Begin("calibrate", -1, i));
  }
  return static_cast<double>(NowNanos() - start) / 1e3 / kSpans;
}

bool Tracer::WriteJsonLines(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "{\"span\": " << i << ", \"name\": " << JsonString(s.name)
        << ", \"id\": " << s.id << ", \"parent\": " << s.parent
        << ", \"start_ns\": " << s.start_ns << ", \"end_ns\": " << s.end_ns
        << "}\n";
  }
  return static_cast<bool>(out);
}

bool MakeDirs(const std::string& dir) {
  std::string partial;
  std::stringstream parts(dir);
  std::string part;
  if (!dir.empty() && dir[0] == '/') partial = "/";
  while (std::getline(parts, part, '/')) {
    if (part.empty()) continue;
    partial += part;
    if (mkdir(partial.c_str(), 0755) != 0 && errno != EEXIST) return false;
    partial += "/";
  }
  return true;
}

}  // namespace perfbench
}  // namespace moqo
