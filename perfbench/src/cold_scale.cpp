// cold_scale: one large generated single-function program, analyzed cold
// over and over — Session construction to destruction, on the stages
// `sspar-analyze --json` runs for one file — on every lane at once, as a
// parallel build runs it on several files. No store, server or incremental
// code runs here, so this workload is the no-change control for store and
// server optimizations; fact aggregation, the range test and Session
// teardown dominate it.
#include <string>
#include <thread>
#include <vector>

#include "ipa/cross_cache.h"
#include "support/text.h"
#include "workloads.h"

using namespace sspar;

namespace perfbench {

namespace {

using support::format;

constexpr int kBlocks = 512;  // 128 blocks of each of the four idioms
constexpr int kWarmupRounds = 2;
constexpr int kSetupRepeats = 5;

// Verdict counts each idiom's block contributes. The generator picks
// constants that never change these, so they are the known answer for any
// seed.
struct Counts {
  Coverage coverage;
  int64_t pragmas = 0;
  bool operator==(const Counts&) const = default;
};
const Counts kCsr{{4, 3, 0, 1}, 2};        // size fill, prefix sum, segment walk (nest)
const Counts kMonotonic{{2, 1, 0, 1}, 1};  // strictly increasing recurrence + scatter
const Counts kPermute{{2, 2, 0, 0}, 2};    // reversal permutation + scatter
const Counts kAffine{{2, 2, 0, 0}, 2};     // symbolic-stride affine fill + scatter

struct Program {
  std::string source;
  Counts expected;
};

std::string double_literal(Rng& rng) { return format("%.3f", 0.125 + 0.001 * rng.range(1, 874)); }

Program generate(uint64_t seed) {
  Rng rng(seed);
  std::vector<int> kinds;
  for (int b = 0; b < kBlocks; ++b) kinds.push_back(b % 4);
  rng.shuffle(kinds);
  Program p;
  std::string decls = "int N;\nint M;\n";
  std::string body;
  for (int b = 0; b < kBlocks; ++b) {
    const Counts* idiom = nullptr;
    const std::string c = double_literal(rng);
    switch (kinds[b]) {
      case 0:
        idiom = &kCsr;
        decls += format("int sz%d[1024];\nint pt%d[1025];\ndouble dv%d[8192];\n", b, b, b);
        body += format(R"(
  for (int i = 0; i < N; i++) {
    sz%d[i] = (i %% %d == 0) ? %d : 1;
  }
  pt%d[0] = 0;
  for (int i = 1; i < N + 1; i++) {
    pt%d[i] = pt%d[i-1] + sz%d[i-1];
  }
  for (int i = 0; i < N; i++) {
    for (int k = pt%d[i]; k < pt%d[i+1]; k++) {
      dv%d[k] = dv%d[k] * %s;
    }
  }
)",
                       b, static_cast<int>(rng.range(2, 7)), static_cast<int>(rng.range(2, 4)),
                       b, b, b, b, b, b, b, b, c.c_str());
        break;
      case 1:
        idiom = &kMonotonic;
        decls += format("int mo%d[1024];\ndouble ov%d[8192];\ndouble iv%d[1024];\n", b, b, b);
        body += format(R"(
  mo%d[0] = 0;
  for (int i = 1; i < N; i++) {
    mo%d[i] = mo%d[i-1] + %d;
  }
  for (int i = 0; i < N; i++) {
    ov%d[mo%d[i]] = iv%d[i] * %s;
  }
)",
                       b, b, b, static_cast<int>(rng.range(1, 5)), b, b, b, c.c_str());
        break;
      case 2:
        idiom = &kPermute;
        decls += format("int pm%d[1024];\ndouble pv%d[1024];\ndouble pw%d[1024];\n", b, b, b);
        body += format(R"(
  for (int i = 0; i < N; i++) {
    pm%d[i] = N - 1 - i;
  }
  for (int i = 0; i < N; i++) {
    pv%d[pm%d[i]] = pw%d[i] + %s;
  }
)",
                       b, b, b, b, c.c_str());
        break;
      default:
        idiom = &kAffine;
        decls += format("int ix%d[1024];\ndouble ay%d[8192];\ndouble ax%d[1024];\n", b, b, b);
        body += format(R"(
  for (int i = 0; i < N; i++) {
    ix%d[i] = M * i + %d;
  }
  for (int i = 0; i < N; i++) {
    ay%d[ix%d[i]] = ax%d[i] + %s;
  }
)",
                       b, static_cast<int>(rng.range(0, 9)), b, b, b, c.c_str());
        break;
    }
    p.expected.coverage.merge(idiom->coverage);
    p.expected.pragmas += idiom->pragmas;
  }
  p.source = decls + "void f(void) {\n" + body + "}\n";
  return p;
}

struct OpResult {
  Counts counts;
  bool ok = false;
  ipa::SummaryDB::Stats summaries;
  ipa::CrossProgramCache::Stats cross;
};

// One cold analysis, as the batch driver runs it for a single program:
// share a fresh cross-program cache, parse, analyze, range-test, annotate,
// emit, destroy.
OpResult cold_op(const std::string& source) {
  Span op("op.cold_analysis");
  ipa::CrossProgramCache cache;
  const StagedRun run = staged_session(source, {{"N", 1}, {"M", 1}}, cache);
  OpResult r;
  r.ok = run.ok;
  r.counts = {run.coverage, run.pragmas};
  r.summaries = run.summaries;
  r.cross = cache.stats();
  return r;
}

// One round: `source` analyzed cold once on each of `lanes` threads at the
// same time. Returns each analysis with its thread's CPU time.
std::vector<std::pair<OpResult, double>> cold_round(const std::string& source, unsigned lanes) {
  std::vector<std::pair<OpResult, double>> out(lanes);
  std::vector<std::thread> threads;
  for (unsigned l = 0; l < lanes; ++l) {
    threads.emplace_back([&, l] {
      const double s = thread_cpu_ms();
      out[l].first = cold_op(source);
      out[l].second = thread_cpu_ms() - s;
    });
  }
  for (std::thread& t : threads) t.join();
  return out;
}

std::string describe(const Counts& c) {
  return format("loops=%lld static=%lld hybrid=%lld serial=%lld pragmas=%lld",
                static_cast<long long>(c.coverage.loops),
                static_cast<long long>(c.coverage.static_parallel),
                static_cast<long long>(c.coverage.hybrid), static_cast<long long>(c.coverage.serial),
                static_cast<long long>(c.pragmas));
}

}  // namespace

void run_cold_scale(const Context& ctx, Report& report) {
  Program program;
  const double setup_s = timed_setup(kSetupRepeats, [&] {
    program = generate(ctx.seed);
    for (int i = 0; i < kWarmupRounds; ++i) cold_round(program.source, ctx.threads);
  });
  const std::string name = format("cold_scale[seed=%llu]", static_cast<unsigned long long>(ctx.seed));
  report.note("input_fnv", std::to_string(fnv1a(program.source)));
  report.note("program_bytes", std::to_string(program.source.size()));

  // Each round analyzes the program once on every lane at the same time,
  // as a parallel build runs sspar on several files. A round's sample is
  // the mean of its analyses' CPU times. A shared VM's vCPUs change speed
  // one at a time, for seconds: four pinned copies of a 128-block analysis,
  // side by side, took 9 ms per op on one vCPU and 14 ms on another. A mean
  // over every vCPU moves less than any one analysis.
  const int rounds = 5 * ctx.seconds;
  const unsigned lanes = ctx.threads;
  const int ops = rounds * static_cast<int>(lanes);
  OpResult last;
  double wall_ms = 0.0;
  auto timed_loop = [&](std::vector<double>& round_ms) {
    const double wall0 = now_ms();
    double total_ms = 0.0;
    for (int i = 0; i < rounds; ++i) {
      double sum = 0.0;
      for (const auto& [result, ms] : cold_round(program.source, lanes)) {
        sum += ms;
        last = result;
        if (!last.ok) {
          report.op_failed(name, "frontend or emit failed", true);
        } else if (last.counts != program.expected) {
          report.op_failed(name, "verdicts " + describe(last.counts) + ", generator expects " +
                                     describe(program.expected), true);
        } else {
          report.op_ok();
        }
      }
      round_ms.push_back(sum / lanes);
      total_ms += sum;
    }
    wall_ms = now_ms() - wall0;
    return ops * 1000.0 / total_ms;
  };

  std::vector<double> op_ms;
  const double ops_per_s = timed_loop(op_ms);
  report.note("wall_ops_per_s", format("%.3f", ops * 1000.0 / wall_ms));
  if (!ctx.trace) {
    report.metric("setup_s", setup_s, "s");
    report.metric("ops_per_s", ops_per_s, "ops/s");
    report_latency(report, "op", op_ms);
    report.metric("peak_rss_mb", peak_rss_mb(), "MB");
    report.metric("ok_pct", report.ok_pct(), "%");
    report_coverage(report, last.counts.coverage);
    return;
  }

  Tracer::set_enabled(true);
  std::vector<double> traced_ms;
  const double traced_ops_per_s = timed_loop(traced_ms);
  Tracer::set_enabled(false);
  Tracer::write_chrome(ctx.trace_dir + format("/cold_scale-%llu.json",
                                              static_cast<unsigned long long>(ctx.seed)));
  const auto self = Tracer::self_ms();
  const double parse_ms = median_of(self, "frontend.parse");
  report.metric("frontend.parse_ms", parse_ms, "ms");
  report.metric("frontend.parse_mb_per_s",
                static_cast<double>(program.source.size()) / 1e6 / (parse_ms / 1000.0), "MB/s");
  report.metric("core.analyze_ms", median_of(self, "core.analyze"), "ms");
  report.metric("core.range_test_ms", median_of(self, "core.range_test"), "ms");
  report_core_counts(report, last.counts.coverage);
  report.metric("pipeline.teardown_ms", median_of(self, "pipeline.teardown"), "ms");
  report.metric("transform.emit_ms", median_of(self, "transform.emit"), "ms");
  report.metric("transform.pragmas", static_cast<double>(last.counts.pragmas), "count");
  report_ipa(report, last.summaries.computed, last.summaries.hits, last.cross.lookups,
             last.cross.hits);
  report_trace_overhead(report, ops_per_s, traced_ops_per_s);
  const char* inside = "runs inside one Session call; no span reaches into src/ from here";
  report.unmeasured("ipa.callgraph_ms", inside);
  report.unmeasured("core.aggregate_ms", inside);
  report.unmeasured("core.prover_ms", inside);
}

}  // namespace perfbench
