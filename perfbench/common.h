// Shared plumbing of the repository benchmark: run options, the result
// line, run environment, set-up timing, process counters, and the
// in-memory span recorder behind the traced run.
#ifndef MOQO_PERFBENCH_COMMON_H_
#define MOQO_PERFBENCH_COMMON_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace moqo {
namespace perfbench {

/// Command line of one benchmark run.
struct Options {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  /// Checkout-relative paths (the benchmark only touches its checkout).
  std::string references = "perfbench/references.txt";
  std::string out_dir = ".bench_build/out";
  /// Provenance recorded with the run (see PrintEnvironment).
  std::string commit = "unknown";
  std::string source_digest = "unknown";
};

/// One reported number.
struct MetricValue {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Outcome of one workload run: the fields of the final result line.
struct RunResult {
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<MetricValue> metrics;
  /// Operations that failed a check, one line each (printed to stderr).
  std::vector<std::string> problems;

  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back(MetricValue{name, value, unit});
  }
  /// Records a failed check; the run then reports correct = false.
  void Fail(const std::string& what) {
    correct = false;
    problems.push_back(what);
  }
};

/// Prints the result object as one JSON line on stdout (the last line the
/// benchmark writes there).
void PrintResult(const RunResult& result);

/// Prints one "env: {...}" line: nproc, compiler, build type, commit and
/// source digest, workload, seed, trace flag.
void PrintEnvironment(const Options& options);

/// False (with a reason) for builds whose timings must not be reported:
/// assertions enabled, a sanitizer, or a Debug build type.
bool OptimizedBuild(std::string* why);

/// Nanoseconds on the steady clock.
int64_t NowNanos();

/// Geometric mean of positive values (0 when empty).
double GeoMean(const std::vector<double>& values);

/// Process counters from getrusage.
struct ProcUsage {
  double user_s = 0.0;
  double sys_s = 0.0;
  int64_t minor_faults = 0;
  /// Peak resident set of this process and of its reaped children, MB.
  double self_peak_mb = 0.0;
  double children_peak_mb = 0.0;
};
ProcUsage ReadProcUsage();

/// One traced interval. Spans of one request or query share `id`; the
/// parent is an index into the recorder's span list (-1 for a root).
struct Span {
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int32_t parent = -1;
  int64_t id = 0;
};

/// Keeps spans in memory; written out once when the run ends. Single
/// threaded: every span of the benchmark is recorded by its driving thread.
class Tracer {
 public:
  int32_t Begin(const char* name, int32_t parent, int64_t id);
  /// As Begin, with an explicit start (e.g. a request's due time).
  int32_t BeginAt(const char* name, int32_t parent, int64_t id,
                  int64_t start_ns);
  void End(int32_t span);
  const std::vector<Span>& spans() const { return spans_; }
  /// Self time of every span (duration minus the part covered by its
  /// children), in microseconds, grouped by span name.
  std::map<std::string, std::vector<double>> SelfMicros() const;
  /// Writes one JSON object per span. Returns false on I/O failure.
  bool WriteJsonLines(const std::string& path) const;

 private:
  std::vector<Span> spans_;
};

/// Mean cost of recording one span (Begin and End) in microseconds,
/// measured on a scratch tracer.
double SpanCostMicros();

/// RAII span; a null tracer records nothing.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, int32_t parent, int64_t id)
      : tracer_(tracer),
        index_(tracer != nullptr ? tracer->Begin(name, parent, id) : -1) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->End(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int32_t index() const { return index_; }

 private:
  Tracer* tracer_;
  int32_t index_;
};

/// Creates `dir` (and parents) if missing. Returns false on failure.
bool MakeDirs(const std::string& dir);

}  // namespace perfbench
}  // namespace moqo

#endif  // MOQO_PERFBENCH_COMMON_H_
