#include "common.h"

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <mutex>
#include <sstream>
#include <thread>
#include <unordered_map>

namespace perfbench {

double now_ms() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double cpu_ms() {
  timespec self{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &self);
  rusage children{};
  getrusage(RUSAGE_CHILDREN, &children);
  auto ms = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) * 1e3 + static_cast<double>(t.tv_usec) / 1e3;
  };
  return static_cast<double>(self.tv_sec) * 1e3 + static_cast<double>(self.tv_nsec) / 1e6 +
         ms(children.ru_utime) + ms(children.ru_stime);
}

double thread_cpu_ms() {
  timespec t{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &t);
  return static_cast<double>(t.tv_sec) * 1e3 + static_cast<double>(t.tv_nsec) / 1e6;
}

uint64_t Rng::next() {
  uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

int64_t Rng::range(int64_t lo, int64_t hi) {
  return lo + static_cast<int64_t>(next() % static_cast<uint64_t>(hi - lo + 1));
}

double Rng::uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

double percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double pos = p / 100.0 * static_cast<double>(samples.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, samples.size() - 1);
  return samples[lo] + (samples[hi] - samples[lo]) * (pos - static_cast<double>(lo));
}

double median(const std::vector<double>& samples) { return percentile(samples, 50.0); }

double geomean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double log_sum = 0.0;
  for (double v : values) log_sum += std::log(v);
  return std::exp(log_sum / static_cast<double>(values.size()));
}

double ops_per_second(double ops, const std::vector<double>& sample_ms) {
  double ms = 0.0;
  for (double v : sample_ms) ms += v;
  return ms > 0.0 ? ops * 1000.0 / ms : 0.0;
}

double tail_rank(size_t n) {
  double best = 50.0;
  for (double p : {80.0, 90.0, 95.0, 99.0, 99.9}) {
    if (static_cast<double>(n) * (100.0 - p) / 100.0 >= 10.0 - 1e-9) best = p;
  }
  return best;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

uint64_t fnv1a(const std::string& bytes, uint64_t h) {
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

// ---------------------------------------------------------------------------

void Report::op_failed(const std::string& program, const std::string& why, bool wrong_output) {
  ++attempted_;
  ++failed_;
  if (wrong_output) correct_ = false;
  std::printf("FAIL %s: %s\n", program.c_str(), why.c_str());
  std::fflush(stdout);
}

void Report::check(bool ok, const std::string& program, const std::string& why) {
  if (ok) return;
  correct_ = false;
  std::printf("FAIL %s: %s\n", program.c_str(), why.c_str());
  std::fflush(stdout);
}

void Report::metric(const std::string& name, double value, const std::string& unit) {
  metrics_.push_back({name, {value, unit}});
}

void Report::detail(const std::string& name, double value, const std::string& unit) {
  details_.push_back({name, {value, unit}});
}

void Report::unmeasured(const std::string& name, const std::string& reason) {
  unmeasured_.push_back({name, reason});
}

void Report::note(const std::string& key, const std::string& value) {
  notes_.push_back({key, value});
}

double Report::ok_pct() const {
  if (attempted_ == 0) return 0.0;
  return 100.0 * static_cast<double>(attempted_ - failed_) / static_cast<double>(attempted_);
}

namespace {

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

void Report::print(const Context& ctx) const {
  std::printf("== %s seed=%llu seconds=%d trace=%d\n", ctx.workload.c_str(),
              static_cast<unsigned long long>(ctx.seed), ctx.seconds, ctx.trace ? 1 : 0);
  std::string env = "{";
  for (size_t i = 0; i < notes_.size(); ++i) {
    if (i) env += ",";
    env += json_string(notes_[i].first) + ":" + json_string(notes_[i].second);
  }
  std::printf("env %s}\n", env.c_str());
  for (const auto& [name, value] : metrics_) {
    std::printf("  %-40s %16.6f %s\n", name.c_str(), value.first, value.second.c_str());
  }
  for (const auto& [name, value] : details_) {
    std::printf("  %-40s %16.6f %s (detail)\n", name.c_str(), value.first, value.second.c_str());
  }
  for (const auto& [name, reason] : unmeasured_) {
    std::printf("  %-40s %16s (%s)\n", name.c_str(), "unmeasured", reason.c_str());
  }
  std::string out = "{\"correct\": ";
  out += correct_ ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted_);
  out += ", \"failed\": " + std::to_string(failed_);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    if (i) out += ", ";
    out += json_string(metrics_[i].first) + ": {\"value\": " +
           json_number(metrics_[i].second.first) +
           ", \"unit\": " + json_string(metrics_[i].second.second) + "}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

// ---------------------------------------------------------------------------

namespace {

struct TraceState {
  std::atomic<bool> enabled{false};
  std::atomic<int64_t> next_id{0};
  std::mutex mutex;
  std::vector<SpanRecord> spans;  // guarded by mutex
};

TraceState& trace_state() {
  static TraceState state;
  return state;
}

thread_local std::vector<int64_t> open_spans;

double now_us() { return now_ms() * 1000.0; }

uint64_t thread_tag() {
  return std::hash<std::thread::id>{}(std::this_thread::get_id()) & 0xffff;
}

}  // namespace

void Tracer::set_enabled(bool on) { trace_state().enabled.store(on); }
bool Tracer::enabled() { return trace_state().enabled.load(std::memory_order_relaxed); }

std::vector<SpanRecord> Tracer::spans() {
  std::lock_guard<std::mutex> lock(trace_state().mutex);
  return trace_state().spans;
}

std::map<std::string, std::vector<double>> Tracer::total_ms() {
  std::map<std::string, std::vector<double>> out;
  for (const SpanRecord& s : spans()) out[s.name].push_back((s.end_us - s.start_us) / 1000.0);
  return out;
}

std::map<std::string, std::vector<double>> Tracer::self_ms() {
  const std::vector<SpanRecord> all = spans();
  // Children of one span run on its thread, one after another, inside its
  // interval, so the time they cover is the sum of their durations.
  std::unordered_map<int64_t, double> child_us;
  for (const SpanRecord& s : all) {
    if (s.parent >= 0) child_us[s.parent] += s.end_us - s.start_us;
  }
  std::map<std::string, std::vector<double>> out;
  for (const SpanRecord& s : all) {
    const double self = (s.end_us - s.start_us) - child_us[s.id];
    out[s.name].push_back(std::max(0.0, self) / 1000.0);
  }
  return out;
}

bool Tracer::write_chrome(const std::string& path) {
  const std::vector<SpanRecord> all = spans();
  std::string out = "{\"traceEvents\":[\n";
  for (size_t i = 0; i < all.size(); ++i) {
    const SpanRecord& s = all[i];
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "{\"ph\":\"X\",\"pid\":1,\"tid\":%llu,\"ts\":%.3f,\"dur\":%.3f,",
                  static_cast<unsigned long long>(s.tid), s.start_us, s.end_us - s.start_us);
    out += buf;
    out += "\"name\":" + json_string(s.name) + ",\"args\":{\"id\":" + std::to_string(s.id) +
           ",\"parent\":" + std::to_string(s.parent) + "}}";
    out += i + 1 < all.size() ? ",\n" : "\n";
  }
  out += "]}\n";
  return write_file(path, out);
}

Span::Span(const char* name) : name_(name) {
  if (!Tracer::enabled()) return;
  id_ = trace_state().next_id.fetch_add(1);
  parent_ = open_spans.empty() ? -1 : open_spans.back();
  open_spans.push_back(id_);
  start_us_ = now_us();
}

Span::~Span() {
  if (id_ < 0) return;
  const double end = now_us();
  open_spans.pop_back();
  std::lock_guard<std::mutex> lock(trace_state().mutex);
  trace_state().spans.push_back({name_, start_us_, end, id_, parent_, thread_tag()});
}

double median_of(const std::map<std::string, std::vector<double>>& series,
                 const std::string& name) {
  auto it = series.find(name);
  return it == series.end() ? 0.0 : median(it->second);
}

bool make_dirs(const std::string& path) {
  std::error_code ec;
  std::filesystem::create_directories(path, ec);
  return std::filesystem::is_directory(path, ec);
}

bool write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << bytes;
  return static_cast<bool>(out);
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

}  // namespace perfbench
