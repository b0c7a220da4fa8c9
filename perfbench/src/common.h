// Shared plumbing of the sspar benchmark: clocks, seeded randomness,
// order statistics, the result record every workload fills, and the span
// recorder behind the traced run.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

// Wall-clock time in ms: spans, trace timestamps and the `wall_*` notes.
double now_ms();

// CPU time in ms that this process has used (all its threads) plus that of
// the child processes it has waited for: the clock of set-up and of the
// analysis workloads' ops. On a shared VM the host takes vCPUs away for
// stretches of milliseconds to seconds: wall time counts those stretches
// (the same single-threaded loop measured 47 to 76 ms of wall time within
// one minute while its CPU time stayed within 46.5 to 50.1 ms) and CPU time
// does not.
double cpu_ms();

// CPU time in ms that the calling thread has used.
double thread_cpu_ms();

// SplitMix64: small, seedable, identical on every platform.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t next();
  // Uniform in [lo, hi] (inclusive).
  int64_t range(int64_t lo, int64_t hi);
  // Uniform in [0, 1).
  double uniform();
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (size_t i = v.size(); i > 1; --i) std::swap(v[i - 1], v[next() % i]);
  }

 private:
  uint64_t state_;
};

// Linear-interpolated percentile, p in [0, 100].
double percentile(std::vector<double> samples, double p);
double median(const std::vector<double>& samples);
double geomean(const std::vector<double>& values);

// Throughput: `ops` over the summed time of the timed samples (ms), in 1/s.
double ops_per_second(double ops, const std::vector<double>& sample_ms);

// The "tail" percentile of n samples: the highest of 80/90/95/99/99.9 that
// leaves at least ten samples beyond it (50 when n < 50).
double tail_rank(size_t n);

double peak_rss_mb();

// FNV-1a, used to fingerprint generated inputs.
uint64_t fnv1a(const std::string& bytes, uint64_t h = 1469598103934665603ull);

// Options every workload receives from the command line.
struct Context {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  unsigned threads = 1;   // min(nproc, 4): analysis lanes and OpenMP threads
  std::string work_dir;   // scratch directory inside the checkout
  std::string trace_dir;  // where the traced run writes its Chrome trace
};

// What one run reports. Failures are printed as they are found, with the
// program they concern.
class Report {
 public:
  void op_ok() { ++attempted_; }
  // One attempted op that failed. `wrong_output` also clears `correct`; a
  // build failure of a known-unsupported program does not.
  void op_failed(const std::string& program, const std::string& why, bool wrong_output);
  // A check outside the op count (e.g. a verdict-count check).
  void check(bool ok, const std::string& program, const std::string& why);

  // A metric of the manifest: printed in the table and in the result JSON.
  void metric(const std::string& name, double value, const std::string& unit);
  // A workload-specific figure outside the manifest: printed in the table
  // only, because every workload's result line holds the same metric names.
  void detail(const std::string& name, double value, const std::string& unit);
  void unmeasured(const std::string& name, const std::string& reason);
  void note(const std::string& key, const std::string& value);

  double ok_pct() const;

  // Human-readable table (stdout), then the result JSON as the last line.
  void print(const Context& ctx) const;

 private:
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
  bool correct_ = true;
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics_;
  std::vector<std::pair<std::string, std::pair<double, std::string>>> details_;
  std::vector<std::pair<std::string, std::string>> unmeasured_;
  std::vector<std::pair<std::string, std::string>> notes_;
};

// ---------------------------------------------------------------------------
// Tracing. Spans are recorded only while tracing is enabled; otherwise a
// Span is two branch-predicted loads. Spans live in memory and are written
// as Chrome trace-event JSON at the end of the traced run.

struct SpanRecord {
  std::string name;
  double start_us = 0.0;
  double end_us = 0.0;
  int64_t id = 0;
  int64_t parent = -1;  // -1: root
  uint64_t tid = 0;
};

class Tracer {
 public:
  static void set_enabled(bool on);
  static bool enabled();
  // Spans recorded so far (all threads), in completion order.
  static std::vector<SpanRecord> spans();
  // Self time of each span (duration minus the time its children cover),
  // grouped by span name, in ms.
  static std::map<std::string, std::vector<double>> self_ms();
  // Total (inclusive) durations grouped by name, in ms.
  static std::map<std::string, std::vector<double>> total_ms();
  static bool write_chrome(const std::string& path);
};

class Span {
 public:
  explicit Span(const char* name);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  const char* name_;
  int64_t id_ = -1;
  int64_t parent_ = -1;
  double start_us_ = 0.0;
};

// Median of a per-layer series (0 when empty).
double median_of(const std::map<std::string, std::vector<double>>& series,
                 const std::string& name);

// Runs `setup` `times` times and returns the median CPU time in seconds.
// Each call must rebuild the workload state from nothing; the last call's
// state is the one the timed loop uses.
template <typename F>
double timed_setup(int times, F&& setup) {
  std::vector<double> seconds;
  for (int i = 0; i < times; ++i) {
    const double t0 = cpu_ms();
    setup();
    seconds.push_back((cpu_ms() - t0) / 1000.0);
  }
  return median(seconds);
}

// Creates `path` (and parents); false on failure.
bool make_dirs(const std::string& path);
bool write_file(const std::string& path, const std::string& bytes);
std::string read_file(const std::string& path);

}  // namespace perfbench
