// daemon_edit: an in-process analysis daemon (server::AnalysisServer) with
// a pre-populated persistent store, driven by one closed-loop client
// (server::Client) through a fixed, seeded request sequence: single-function
// edits of a three-level call hierarchy sent as `update`s of one warm
// session, interleaved with `analyze` requests for small programs — most of
// them already in the store, some new, so store writes sit beside store
// reads. Protocol, incremental dirty-cone, store preload/absorb/commit and
// per-request cache-rebuild costs dominate.
//
// Every run restores the store from the setup snapshot, starts a fresh
// daemon and session, and plays the same sequence, so the drift of a
// long-lived session is part of the workload, not of the run-to-run noise.
//
// One such daemon and client runs on each lane, side by side, each with its
// own copy of the store; every request goes to all of them at once, and its
// time is the mean over the lanes. A shared VM's vCPUs change speed one at
// a time, for seconds: with a single daemon, the update p50 of ten runs
// spread by 27% (interquartile range over the median).
#include <unistd.h>

#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "driver/batch_analyzer.h"
#include "driver/json_report.h"
#include "driver/store_session.h"
#include "incremental/incremental_engine.h"
#include "ipa/cross_cache.h"
#include "pipeline/session.h"
#include "server/analysis_server.h"
#include "server/client.h"
#include "server/protocol.h"
#include "store/summary_store.h"
#include "support/json.h"
#include "support/text.h"
#include "workloads.h"

using namespace sspar;

namespace perfbench {

namespace {

using support::format;
namespace json = support::json;

constexpr int kBlocks = 128;
constexpr int kGroupSize = 4;
constexpr int kPoolPrograms = 300;  // pre-populated store: one helper record each
constexpr int kSetupRepeats = 5;
constexpr const char* kSession = "edit";

// The request pattern, repeated three times per two seconds of run time
// (four lanes take about 0.6 s of wall time per pattern): ten updates,
// four analyze requests for programs already in the store, one for a new
// program. The pattern is fixed, so every seed puts the same kind of request
// at the same position and sees the same store size there.
constexpr char kPattern[] = "UUWUUWUUWUUWUUN";
constexpr int kPatternsPer2Seconds = 3;

std::string block_function(int b, const std::string& factor) {
  return format(R"(
void block%d(void) {
  for (int i = 0; i < N; i++) {
    size%d[i] = (i %% 4 == 0) ? 2 : 1;
  }
  ptr%d[0] = 0;
  for (int i = 1; i < N + 1; i++) {
    if (size%d[i-1] > 1) {
      ptr%d[i] = ptr%d[i-1] + size%d[i-1];
    } else {
      ptr%d[i] = ptr%d[i-1] + 1;
    }
  }
  for (int p = 0; p < N; p++) {
    for (int q = 0; q < N; q++) {
      for (int i = 0; i < N; i++) {
        for (int k = ptr%d[i]; k < ptr%d[i+1]; k++) {
          data%d[k] = data%d[k] * %s;
        }
      }
    }
  }
}
)",
                b, b, b, b, b, b, b, b, b, b, b, b, b, factor.c_str());
}

// driver() -> super drivers -> group drivers -> blocks: the dirty cone of a
// one-block edit is {block, its group, its super group, driver}.
std::string hierarchy(const std::vector<std::string>& factors) {
  std::string src = "int N;\n";
  for (int b = 0; b < kBlocks; ++b) {
    src += format("int size%d[1024];\nint ptr%d[1025];\ndouble data%d[8192];\n", b, b, b);
  }
  for (int b = 0; b < kBlocks; ++b) src += block_function(b, factors[b]);
  const int groups = kBlocks / kGroupSize;
  for (int g = 0; g < groups; ++g) {
    src += format("void group%d(void) {\n", g);
    for (int b = g * kGroupSize; b < (g + 1) * kGroupSize; ++b) src += format("  block%d();\n", b);
    src += "}\n";
  }
  const int supers = groups / kGroupSize;
  for (int s = 0; s < supers; ++s) {
    src += format("void super%d(void) {\n", s);
    for (int g = s * kGroupSize; g < (s + 1) * kGroupSize; ++g) src += format("  group%d();\n", g);
    src += "}\n";
  }
  src += "void driver(void) {\n";
  for (int s = 0; s < supers; ++s) src += format("  super%d();\n", s);
  return src + "}\n";
}

// A small CSR program whose helper is unique to `id` (one store record).
driver::ProgramInput small_program(int id, Rng& rng) {
  driver::ProgramInput p;
  p.name = format("small%d", id);
  p.source = format(R"(int n;
int sz[256];
int pt[257];
double d[4096];
void fill%d(void) {
  for (int i = 0; i < n; i++) {
    sz[i] = (i %% %d == 0) ? %d : 1;
  }
}
void f(void) {
  fill%d();
  pt[0] = 0;
  for (int i = 1; i < n + 1; i++) {
    pt[i] = pt[i-1] + sz[i-1];
  }
  for (int i = 0; i < n; i++) {
    for (int k = pt[i]; k < pt[i+1]; k++) {
      d[k] = d[k] * %.3f;
    }
  }
}
)",
                    id, static_cast<int>(rng.range(2, 9)), static_cast<int>(rng.range(2, 5)), id,
                    0.125 + 0.001 * static_cast<double>(rng.range(1, 874)));
  p.assumptions = {{"n", 1}};
  return p;
}

// One request. Update sources are rebuilt from `factors` when needed, so
// the benchmark does not hold hundreds of 100 KB sources next to the daemon
// whose memory it measures.
struct Request {
  bool update = false;
  std::vector<std::string> factors;  // update: each block's scaling constant
  driver::ProgramInput program;      // analyze
  bool timed = true;                 // warm-up requests are not

  std::string source() const { return hierarchy(factors); }
  std::string line() const {
    return update ? server::make_update_request(kSession, source())
                  : server::make_analyze_request({program}, false, 0);
  }
};

struct Workload {
  std::vector<driver::ProgramInput> pool;  // pre-populated into the store
  std::vector<Request> requests;           // open_session excluded
  std::string start_store;                 // store file bytes after pre-population
};

Workload generate(uint64_t seed, int seconds, const std::string& store_path) {
  Rng rng(seed);
  Workload w;
  const int patterns = std::max(1, kPatternsPer2Seconds * seconds / 2);
  const int warm = 4 * patterns;
  const int pool_size = std::max(kPoolPrograms, warm);
  for (int i = 0; i < pool_size; ++i) w.pool.push_back(small_program(i, rng));
  // Warm requests take distinct pool programs in a seeded order.
  std::vector<int> warm_order(pool_size);
  for (int i = 0; i < pool_size; ++i) warm_order[i] = i;
  rng.shuffle(warm_order);

  std::vector<std::string> factors(kBlocks, "0.5");
  auto add_update = [&](bool timed) {
    Request r;
    r.update = true;
    r.factors = factors;
    r.timed = timed;
    w.requests.push_back(std::move(r));
  };
  auto add_analyze = [&](driver::ProgramInput program, bool timed) {
    Request r;
    r.program = std::move(program);
    r.timed = timed;
    w.requests.push_back(std::move(r));
  };
  // Warm-up: the session's first (cold, full) analysis plus one edit.
  add_update(false);
  factors[0] = "0.25";
  add_update(false);

  int edits = 0, warm_used = 0, fresh = 0;
  for (int rep = 0; rep < patterns; ++rep) {
    for (const char* kind = kPattern; *kind; ++kind) {
      if (*kind == 'U') {
        // A constant the session has never seen, in a seeded block.
        factors[rng.range(0, kBlocks - 1)] = format("%.4f", 0.5 + 0.0001 * ++edits);
        add_update(true);
      } else if (*kind == 'W') {
        add_analyze(w.pool[warm_order[warm_used++]], true);
      } else {
        add_analyze(small_program(pool_size + fresh++, rng), true);
      }
    }
  }

  // Pre-populate the store and keep its bytes as the start state.
  ::unlink(store_path.c_str());
  store::SummaryStore store(store_path);
  store.open();
  driver::BatchOptions options;
  options.threads = 1;
  driver::run_with_store(w.pool, options, &store);
  w.start_store = read_file(store_path);
  return w;
}

// Drops wall-clock fields, which are the only part of a response allowed to
// differ from the one-shot result.
void strip_timings(json::Value& v) {
  if (v.is_object()) {
    json::Object& o = v.as_object();
    for (const char* key : {"last_ms", "total_ms", "update_ms"}) o.erase(key);
    for (auto& [key, child] : o) strip_timings(child);
  } else if (v.is_array()) {
    for (json::Value& child : v.as_array()) strip_timings(child);
  }
}

std::string canonical(const std::string& response) {
  auto parsed = json::parse(response);
  if (!parsed) return "<invalid json>";
  strip_timings(*parsed);
  return parsed->dump();
}

// The daemon's `update` response for `result`, built as the server builds
// it.
std::string update_response(const incremental::UpdateResult& result) {
  json::Object update;
  update.emplace("ok", result.ok);
  if (!result.ok) {
    update.emplace("error", result.error);
  } else {
    update.emplace("annotated", result.annotated);
    int parallel = 0;
    for (const core::LoopVerdict& v : result.verdicts) parallel += v.parallel ? 1 : 0;
    update.emplace("loops", static_cast<int64_t>(result.verdicts.size()));
    update.emplace("parallel", parallel);
    update.emplace("stats", incremental::to_json(result.stats));
    update.emplace("delta", incremental::to_json(result.delta));
  }
  json::Array diagnostics;
  for (const auto& d : result.diagnostics) diagnostics.emplace_back(incremental::diagnostic_to_json(d));
  update.emplace("diagnostics", std::move(diagnostics));
  json::Object o;
  o.emplace("ok", true);
  o.emplace("method", "update");
  o.emplace("session", kSession);
  o.emplace("update", std::move(update));
  return json::Value(std::move(o)).dump();
}

std::string analyze_response(const driver::BatchReport& report) {
  json::Object o;
  o.emplace("ok", true);
  o.emplace("report", driver::batch_report_to_json(report, 1, false));
  return json::Value(std::move(o)).dump();
}

// Writes `bytes` as the store file at `path`, drops any journal or temp
// file a previous run left, and returns the (unopened) store. Stores run
// with the crash-safe journal (`--journal`): a request appends its new
// records to a write-ahead log and fsyncs that, and the whole file is
// rewritten only at checkpoints. Without it every request rewrites the
// whole store, which reaches 8 MB within a run, so a run would write
// gigabytes and the daemon's latencies would measure the disk.
std::unique_ptr<store::SummaryStore> restore_store(const std::string& path, const std::string& bytes) {
  ::unlink((path + ".journal").c_str());
  ::unlink((path + ".tmp").c_str());
  write_file(path, bytes);
  store::StoreOptions options;
  options.journal = true;
  return std::make_unique<store::SummaryStore>(path, options);
}

// One daemon lifetime: store restored from the snapshot, server started,
// client connected and its session opened.
class Daemon {
 public:
  Daemon(const std::string& dir, const std::string& start_store)
      : store_path_(dir + "/store.bin"), socket_path_(dir + "/daemon.sock") {
    if (!make_dirs(dir)) throw std::runtime_error("cannot create " + dir);
    store_ = restore_store(store_path_, start_store);
    store_->open();
    server::ServerOptions options;
    options.socket_path = socket_path_;
    options.threads = 1;
    options.store = store_.get();
    server_ = std::make_unique<server::AnalysisServer>(options);
    std::string error;
    if (!server_->start(&error) || !client_.connect(socket_path_, &error)) {
      throw std::runtime_error("daemon start failed: " + error);
    }
    auto opened = client_.request(server::make_open_session_request(kSession, {{"N", 1}}));
    if (!opened) throw std::runtime_error("open_session failed");
  }
  ~Daemon() {
    client_.close();
    server_->stop();
  }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  server::Client& client() { return client_; }

 private:
  std::string store_path_;
  std::string socket_path_;
  std::unique_ptr<store::SummaryStore> store_;
  std::unique_ptr<server::AnalysisServer> server_;
  server::Client client_;
};

using Lanes = std::vector<std::unique_ptr<Daemon>>;

// Sends `line` to every lane's daemon at the same time; appends each lane's
// response to responses[lane] and returns the process's CPU time for the
// round, per lane, in ms. Each client waits while its daemon works, so that
// CPU time is the clients' and the daemons' work for the request; the wait
// for the store journal's fsync is not CPU time, so the disk under the
// checkout does not enter the figures.
double send_round(Lanes& lanes, const std::string& line,
                  std::vector<std::vector<std::string>>& responses) {
  std::vector<std::optional<json::Value>> got(lanes.size());
  const double t0 = cpu_ms();
  std::vector<std::thread> threads;
  for (size_t l = 0; l < lanes.size(); ++l) {
    threads.emplace_back([&, l] { got[l] = lanes[l]->client().request(line); });
  }
  for (std::thread& t : threads) t.join();
  const double ms = (cpu_ms() - t0) / static_cast<double>(lanes.size());
  responses.resize(lanes.size());
  for (size_t l = 0; l < lanes.size(); ++l) {
    responses[l].push_back(got[l] ? got[l]->dump() : std::string("<no response>"));
  }
  return ms;
}

struct Played {
  std::vector<std::vector<std::string>> responses;  // per lane: every request, warm-up included
  std::vector<double> update_ms, analyze_ms;
  std::vector<double> request_ms;  // both kinds, in sequence order
  double ops_per_s = 0.0;
  double wall_ops_per_s = 0.0;
};

// Warm-up requests run before the clock starts; the rest are timed one
// round at a time, client send to parsed response.
Played play(Lanes& lanes, const Workload& w) {
  Played out;
  std::vector<double>& request_ms = out.request_ms;
  double wall_ms = 0.0;
  for (const Request& r : w.requests) {
    const std::string line = r.line();
    const double w0 = now_ms();
    double ms = 0.0;
    {
      Span s(r.update ? "server.update_request" : "server.analyze_request");
      ms = send_round(lanes, line, out.responses);
    }
    const double wall = now_ms() - w0;
    if (!r.timed) continue;
    (r.update ? out.update_ms : out.analyze_ms).push_back(ms);
    request_ms.push_back(ms);
    wall_ms += wall;
  }
  out.ops_per_s = ops_per_second(static_cast<double>(request_ms.size()), request_ms);
  out.wall_ops_per_s = static_cast<double>(request_ms.size()) * 1000.0 / wall_ms;
  return out;
}

struct Replay {
  Coverage coverage;
  std::vector<incremental::UpdateStats> update_stats;
  std::vector<int64_t> update_loops;
  std::vector<driver::BatchReport> analyze_reports;
};

// Plays the same requests directly on an engine and run_with_store over a
// fresh copy of the start-state store, and checks every lane's recorded
// responses against the result (timings excepted).
Replay replay_and_check(const Workload& w, const Played& played, const std::string& dir,
                        const std::string& workload_name, Report& report) {
  Replay out;
  const auto store = restore_store(dir + "/replay.bin", w.start_store);
  store->open();
  incremental::EngineOptions engine_options;
  engine_options.assumptions = {{"N", 1}};
  engine_options.store = store.get();
  incremental::IncrementalEngine engine(engine_options);
  driver::BatchOptions options;
  options.threads = 1;
  std::string last_update_response, last_update_source;
  for (size_t i = 0; i < w.requests.size(); ++i) {
    const Request& r = w.requests[i];
    std::string expected;
    std::string program;
    if (r.update) {
      incremental::UpdateResult result;
      {
        Span s("incremental.update");
        result = engine.update(r.source());
      }
      if (result.ok) engine.flush_store();
      expected = update_response(result);
      out.coverage.add(result.verdicts);
      out.update_stats.push_back(result.stats);
      out.update_loops.push_back(static_cast<int64_t>(result.verdicts.size()));
      program = format("%s/update#%zu", workload_name.c_str(), i);
      last_update_response = played.responses[0][i];
      last_update_source = r.source();
    } else {
      driver::BatchReport batch = driver::run_with_store({r.program}, options, store.get());
      expected = analyze_response(batch);
      for (const auto& p : batch.programs) out.coverage.add(p.result.verdicts);
      out.analyze_reports.push_back(std::move(batch));
      program = format("%s/%s", workload_name.c_str(), r.program.name.c_str());
    }
    const std::string want = canonical(expected);
    for (size_t l = 0; l < played.responses.size(); ++l) {
      const bool same = canonical(played.responses[l][i]) == want;
      const std::string why = format("lane %zu: response differs from the direct replay", l);
      if (!r.timed) {
        report.check(same, program, "warm-up " + why);
      } else if (!same) {
        report.op_failed(program, why, true);
      } else {
        report.op_ok();
      }
    }
  }
  // The last update also equals a cold analysis of its source.
  incremental::IncrementalEngine cold(incremental::EngineOptions{{}, {{"N", 1}}, nullptr});
  const incremental::UpdateResult fresh = cold.update(last_update_source);
  auto verdict_fields = [](const std::string& response) {
    auto v = json::parse(response);
    const json::Value* u = v ? v->find("update") : nullptr;
    if (!u) return std::string("<none>");
    std::string s;
    for (const char* key : {"annotated", "loops", "parallel", "diagnostics"}) {
      if (const json::Value* f = u->find(key)) s += f->dump() + "|";
    }
    return s;
  };
  report.check(verdict_fields(last_update_response) == verdict_fields(update_response(fresh)),
               workload_name + "/last-update", "differs from a cold engine on the same source");
  return out;
}

}  // namespace

void run_daemon_edit(const Context& ctx, Report& report) {
  const std::string name = format("daemon_edit[seed=%llu]", static_cast<unsigned long long>(ctx.seed));
  Workload w;
  Lanes lanes;
  // Set-up: generation, store pre-population, the daemons' start and their
  // session's warm-up requests.
  std::vector<std::vector<std::string>> warmup_responses;
  size_t warmups = 0;
  auto start = [&] {
    lanes.clear();
    for (unsigned l = 0; l < ctx.threads; ++l) {
      lanes.push_back(std::make_unique<Daemon>(ctx.work_dir + format("/lane%u", l), w.start_store));
    }
    warmup_responses.clear();
    warmups = 0;
    for (const Request& r : w.requests) {
      if (r.timed) break;
      send_round(lanes, r.line(), warmup_responses);
      ++warmups;
    }
  };
  const double setup_s = timed_setup(kSetupRepeats, [&] {
    lanes.clear();
    w = generate(ctx.seed, ctx.seconds, ctx.work_dir + "/populate.bin");
    start();
  });
  uint64_t input_fnv = fnv1a("");
  for (const Request& r : w.requests) input_fnv = fnv1a(r.line(), input_fnv);
  report.note("input_fnv", std::to_string(input_fnv));
  report.note("requests", std::to_string(w.requests.size()));
  report.note("lanes", std::to_string(ctx.threads));

  // The timed loop skips the warm-up requests already sent in set-up.
  Workload timed_part = w;
  timed_part.requests.erase(
      timed_part.requests.begin(),
      timed_part.requests.begin() + static_cast<long>(warmups));
  // Each lane's responses continue its warm-up ones.
  auto with_warmups = [&](Played played) {
    for (size_t l = 0; l < played.responses.size(); ++l) {
      played.responses[l].insert(played.responses[l].begin(), warmup_responses[l].begin(),
                                 warmup_responses[l].end());
    }
    return played;
  };
  const Played played = with_warmups(play(lanes, timed_part));
  lanes.clear();
  // Before the check replay, whose engine and store copies are the
  // benchmark's, not the daemon's.
  const double rss_mb = peak_rss_mb();
  report.note("wall_ops_per_s", format("%.3f", played.wall_ops_per_s));

  if (!ctx.trace) {
    const Replay replay = replay_and_check(w, played, ctx.work_dir, name, report);
    report.metric("setup_s", setup_s, "s");
    report.metric("ops_per_s", played.ops_per_s, "ops/s");
    report_latency(report, "op", played.request_ms);
    report.metric("peak_rss_mb", rss_mb, "MB");
    report.metric("ok_pct", report.ok_pct(), "%");
    report_coverage(report, replay.coverage);
    report_latency(report, "analyze", played.analyze_ms, false);
    report_latency(report, "update", played.update_ms, false);
    return;
  }

  // Traced run: the same sequence on a fresh daemon, with spans around each
  // request, then the layer replays.
  Tracer::set_enabled(true);
  start();
  const Played traced = with_warmups(play(lanes, timed_part));
  std::vector<double> ping_ms;
  for (int i = 0; i < 50; ++i) {
    const double t0 = now_ms();
    Span s("server.ping");
    lanes[0]->client().request(server::make_simple_request(server::Method::Ping));
    ping_ms.push_back(now_ms() - t0);
  }
  lanes.clear();
  const Replay replay = replay_and_check(w, traced, ctx.work_dir, name, report);

  // protocol::parse_request on every request line; batch_report_to_json on
  // every analyze report.
  for (const Request& r : w.requests) {
    std::string error;
    const std::string line = r.line();
    Span s("server.parse_request");
    server::parse_request(line, &error);
  }
  for (const driver::BatchReport& batch : replay.analyze_reports) {
    Span s("server.report_json");
    driver::batch_report_to_json(batch, 1, false);
  }
  // A fresh engine on the final source: the cold cost an update avoids.
  std::string final_source;
  for (const Request& r : w.requests) if (r.update) final_source = r.source();
  for (int i = 0; i < 3; ++i) {
    incremental::IncrementalEngine cold(incremental::EngineOptions{{}, {{"N", 1}}, nullptr});
    Span s("incremental.cold");
    cold.update(final_source);
  }
  // The pipeline layers on the program the updates carry: its final
  // version through a cold Session, stage by stage.
  StagedRun staged;
  for (int i = 0; i < 5; ++i) {
    ipa::CrossProgramCache cache;
    staged = staged_session(final_source, {{"N", 1}}, cache);
  }
  // One analyze request's store steps, replayed on a copy of the start-state
  // store for each of the first twenty analyze requests.
  double store_hits = 0, store_lookups = 0;
  size_t records = 0;
  int replayed = 0;
  for (const Request& r : w.requests) {
    if (r.update) continue;
    if (replayed++ == 20) break;
    const auto store = restore_store(ctx.work_dir + "/store-copy.bin", w.start_store);
    {
      Span s("store.open");
      store->open();
    }
    records = store->size();
    ipa::CrossProgramCache cache;
    {
      Span s("store.preload");
      store->preload(cache);
    }
    driver::BatchOptions options;
    options.threads = 1;
    options.share_with = &cache;
    const driver::BatchReport batch = driver::BatchAnalyzer(options).run({r.program});
    store_hits += batch.stats.store_hits;
    store_lookups += batch.stats.store_hits + batch.stats.store_misses;
    {
      Span s("store.absorb");
      store->absorb(cache);
    }
    {
      Span s("store.commit");
      store->commit();
    }
  }
  Tracer::set_enabled(false);
  Tracer::write_chrome(ctx.trace_dir + format("/daemon_edit-%llu.json",
                                              static_cast<unsigned long long>(ctx.seed)));
  const auto self = Tracer::self_ms();

  report.metric("frontend.parse_ms", median_of(self, "frontend.parse"), "ms");
  report.metric("frontend.parse_mb_per_s",
                static_cast<double>(final_source.size()) / 1e3 / median_of(self, "frontend.parse"),
                "MB/s");
  report.metric("core.analyze_ms", median_of(self, "core.analyze"), "ms");
  report.metric("core.range_test_ms", median_of(self, "core.range_test"), "ms");
  report_core_counts(report, replay.coverage);
  report.metric("pipeline.teardown_ms", median_of(self, "pipeline.teardown"), "ms");
  report.metric("transform.emit_ms", median_of(self, "transform.emit"), "ms");
  report.metric("transform.pragmas", static_cast<double>(staged.pragmas), "count");
  size_t computed = 0, hits = 0, lookups = 0, cross_hits = 0;
  for (const driver::BatchReport& batch : replay.analyze_reports) {
    for (const auto& p : batch.programs) {
      computed += p.summary_cache.computed;
      hits += p.summary_cache.hits + p.summary_cache.shared_hits;
    }
    lookups += batch.shared_cache.lookups;
    cross_hits += batch.shared_cache.hits;
  }
  report_ipa(report, computed, hits, lookups, cross_hits);

  // Updates after the two warm-up ones.
  std::vector<double> update_ms = self.count("incremental.update")
                                      ? self.at("incremental.update")
                                      : std::vector<double>{};
  if (update_ms.size() > 2) update_ms.erase(update_ms.begin(), update_ms.begin() + 2);
  report.detail("incremental.update_ms", median(update_ms), "ms");
  report.detail("incremental.cold_ms", median_of(self, "incremental.cold"), "ms");
  int64_t functions = 0, dirty = 0, reused = 0, loops = 0;
  for (size_t i = 2; i < replay.update_stats.size(); ++i) {
    functions += replay.update_stats[i].functions_total;
    dirty += replay.update_stats[i].dirty;
    reused += replay.update_stats[i].reused_verdicts;
    loops += replay.update_loops[i];
  }
  report.detail("incremental.dirty_ratio",
                functions ? static_cast<double>(dirty) / static_cast<double>(functions) : 0.0,
                "ratio");
  report.detail("incremental.reuse_ratio",
                loops ? static_cast<double>(reused) / static_cast<double>(loops) : 0.0, "ratio");
  const size_t tenth = std::max<size_t>(1, traced.update_ms.size() / 10);
  const std::vector<double> first(traced.update_ms.begin(), traced.update_ms.begin() + tenth);
  const std::vector<double> last(traced.update_ms.end() - tenth, traced.update_ms.end());
  report.detail("incremental.drift_pct", 100.0 * (median(last) / median(first) - 1.0), "%");

  report.detail("store.records", static_cast<double>(records), "count");
  report.detail("store.file_kb", static_cast<double>(w.start_store.size()) / 1024.0, "KiB");
  report.detail("store.open_ms", median_of(self, "store.open"), "ms");
  report.detail("store.preload_ms", median_of(self, "store.preload"), "ms");
  report.detail("store.absorb_ms", median_of(self, "store.absorb"), "ms");
  report.detail("store.commit_ms", median_of(self, "store.commit"), "ms");
  report.detail("store.hit_rate", store_lookups ? store_hits / store_lookups : 0.0, "ratio");

  report.detail("server.ping_rtt_ms", median(ping_ms), "ms");
  report.detail("server.parse_request_ms", median_of(self, "server.parse_request"), "ms");
  report.detail("server.report_json_ms", median_of(self, "server.report_json"), "ms");
  report_trace_overhead(report, played.ops_per_s, traced.ops_per_s);
  report.unmeasured("store.fsync_ms",
                    "the journal append's fsync runs inside SummaryStore::absorb; no span "
                    "reaches into src/");
  report.unmeasured("server.queue_ms",
                    "time a request waits inside the daemon's connection thread is not visible "
                    "to the client");
}

}  // namespace perfbench
