// batch_corpus: ~1k small programs in one BatchAnalyzer run with a shared
// cross-program summary cache, at most four lanes. The programs are the 37
// corpus entries plus seeded variants of each: some keep the entry's
// globals and helpers byte-for-byte (only floating-point constants in f()
// change), so the cache gets hits; the rest rename every global as well.
// Per-program overhead in the frontend, the driver pool and ipa sharing
// dominates; each analysis is tiny, so a fix to the analysis core's scaling
// should not move this workload.
#include <cctype>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "corpus/analysis.h"
#include "corpus/corpus.h"
#include "driver/batch_analyzer.h"
#include "ipa/cross_cache.h"
#include "pipeline/session.h"
#include "support/text.h"
#include "workloads.h"

using namespace sspar;

namespace perfbench {

namespace {

using support::format;

constexpr int kVariantsPerEntry = 26;  // 37 * 27 = 999 programs
constexpr int kSetupRepeats = 5;
constexpr int kWarmupBatches = 3;

struct Workload {
  std::vector<driver::ProgramInput> inputs;
  std::vector<size_t> origin;    // corpus entry each input derives from
  std::vector<bool> original;    // the unmodified corpus entry itself
  size_t bytes = 0;
};

bool ident_start(char c) { return std::isalpha(static_cast<unsigned char>(c)) || c == '_'; }
bool ident_char(char c) { return std::isalnum(static_cast<unsigned char>(c)) || c == '_'; }

// Renames every identifier in `names` to name + suffix (whole tokens only).
std::string rename_identifiers(const std::string& source,
                               const std::unordered_set<std::string>& names,
                               const std::string& suffix) {
  std::string out;
  out.reserve(source.size() + 64);
  for (size_t i = 0; i < source.size();) {
    if (ident_start(source[i]) && (i == 0 || !ident_char(source[i - 1]))) {
      size_t j = i;
      while (j < source.size() && ident_char(source[j])) ++j;
      std::string word = source.substr(i, j - i);
      out += word;
      if (names.count(word)) out += suffix;
      i = j;
    } else {
      out += source[i++];
    }
  }
  return out;
}

// Replaces every floating-point literal (digits '.' digits) in
// source[begin, end) with a seeded one. Index analysis never depends on
// floating-point values, so verdicts stay the same (the checks confirm it).
std::string perturb_doubles(const std::string& source, size_t begin, size_t end, Rng& rng) {
  std::string out = source.substr(0, begin);
  for (size_t i = begin; i < end;) {
    const bool starts_number = std::isdigit(static_cast<unsigned char>(source[i])) &&
                               (i == 0 || !ident_char(source[i - 1]));
    if (starts_number) {
      size_t j = i;
      while (j < end && std::isdigit(static_cast<unsigned char>(source[j]))) ++j;
      if (j + 1 < end && source[j] == '.' && std::isdigit(static_cast<unsigned char>(source[j + 1]))) {
        ++j;
        while (j < end && std::isdigit(static_cast<unsigned char>(source[j]))) ++j;
        out += format("%.3f", 0.125 + 0.001 * static_cast<double>(rng.range(1, 874)));
      } else {
        out.append(source, i, j - i);
      }
      i = j;
    } else {
      out += source[i++];
    }
  }
  out.append(source, end, std::string::npos);
  return out;
}

// Names of the global variables declared at the top level of `source`.
std::unordered_set<std::string> global_names(const std::string& source) {
  std::unordered_set<std::string> names;
  int depth = 0;
  for (const std::string& line : support::split_lines(source)) {
    const bool top = depth == 0;
    for (char c : line) depth += c == '{' ? 1 : c == '}' ? -1 : 0;
    if (!top || line.find('(') != std::string::npos) continue;
    size_t pos;
    if (line.rfind("int ", 0) == 0) {
      pos = 4;
    } else if (line.rfind("double ", 0) == 0) {
      pos = 7;
    } else {
      continue;
    }
    // "int a[4], b;" -> a, b
    while (pos < line.size()) {
      while (pos < line.size() && !ident_start(line[pos])) ++pos;
      size_t end = pos;
      while (end < line.size() && ident_char(line[end])) ++end;
      if (end > pos) names.insert(line.substr(pos, end - pos));
      pos = line.find(',', end);
      if (pos == std::string::npos) break;
    }
  }
  return names;
}

// [begin, end) of f()'s definition, braces included.
std::pair<size_t, size_t> entry_function_span(const std::string& source) {
  size_t begin = source.find("void f(");
  if (begin == std::string::npos) return {source.size(), source.size()};
  size_t pos = source.find('{', begin);
  int depth = 0;
  for (; pos < source.size(); ++pos) {
    if (source[pos] == '{') ++depth;
    if (source[pos] == '}' && --depth == 0) return {begin, pos + 1};
  }
  return {begin, source.size()};
}

Workload generate(uint64_t seed) {
  Rng rng(seed);
  const auto& entries = corpus::all_entries();
  Workload w;
  auto add = [&](driver::ProgramInput input, size_t origin, bool original) {
    w.bytes += input.source.size();
    w.inputs.push_back(std::move(input));
    w.origin.push_back(origin);
    w.original.push_back(original);
  };
  for (size_t e = 0; e < entries.size(); ++e) {
    add({entries[e].name, entries[e].source, corpus::analyzer_assumptions(entries[e])}, e, true);
  }
  for (int v = 0; v < kVariantsPerEntry; ++v) {
    for (size_t e = 0; e < entries.size(); ++e) {
      const corpus::Entry& entry = entries[e];
      driver::ProgramInput input;
      input.name = format("%s~v%d", entry.name.c_str(), v);
      if (v % 2 == 0) {
        // Helpers and globals stay byte-identical: shared-cache hits.
        const auto [begin, end] = entry_function_span(entry.source);
        input.source = perturb_doubles(entry.source, begin, end, rng);
        input.assumptions = corpus::analyzer_assumptions(entry);
      } else {
        const std::string suffix = format("_r%d", static_cast<int>(rng.range(0, 9999)));
        const std::string renamed =
            rename_identifiers(entry.source, global_names(entry.source), suffix);
        input.source = perturb_doubles(renamed, 0, renamed.size(), rng);
        for (const auto& param : entry.params) {
          input.assumptions.add(param.name + suffix, param.assume_min);
        }
      }
      add(std::move(input), e, false);
    }
  }
  // Shuffle the batch order (the pool hands out contiguous index ranges).
  std::vector<size_t> order(w.inputs.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  rng.shuffle(order);
  Workload shuffled;
  shuffled.bytes = w.bytes;
  for (size_t i : order) {
    shuffled.inputs.push_back(std::move(w.inputs[i]));
    shuffled.origin.push_back(w.origin[i]);
    shuffled.original.push_back(w.original[i]);
  }
  return shuffled;
}

// Verdict shape that must not change under renaming or constant
// perturbation: per loop, its classification and enabling property.
std::string verdict_shape(const std::vector<core::LoopVerdict>& verdicts) {
  std::string s;
  for (const core::LoopVerdict& v : verdicts) {
    s += v.parallel ? 'P' : v.hybrid ? 'H' : 'S';
    s += v.uses_subscripted_subscripts ? '+' : '-';
    s += core::property_name(v.parallel ? v.property : v.hybrid_property);
    s += ';';
  }
  return s;
}

// Checks every program of one batch report: one op each.
void check_batch(const Workload& w, const driver::BatchReport& batch, Report& report) {
  const auto& entries = corpus::all_entries();
  std::vector<std::string> origin_shape(entries.size());
  for (size_t i = 0; i < w.inputs.size(); ++i) {
    if (w.original[i] && batch.programs[i].ok) {
      origin_shape[w.origin[i]] = verdict_shape(batch.programs[i].result.verdicts);
    }
  }
  for (size_t i = 0; i < w.inputs.size(); ++i) {
    const driver::ProgramReport& p = batch.programs[i];
    const corpus::Entry& entry = entries[w.origin[i]];
    if (!p.ok) {
      report.op_failed(p.name, "analysis failed: " + p.error, true);
    } else if (w.original[i] &&
               (p.loops != entry.expected_loops || p.subscripted != entry.expected_subscripted ||
                p.parallel != entry.expected_parallel ||
                p.parallel_subscripted != entry.expected_parallel_subscripted)) {
      report.op_failed(p.name,
                       format("counts loops/subscripted/parallel/parallel+subscripted = "
                              "%d/%d/%d/%d, corpus expects %d/%d/%d/%d",
                              p.loops, p.subscripted, p.parallel, p.parallel_subscripted,
                              entry.expected_loops, entry.expected_subscripted,
                              entry.expected_parallel, entry.expected_parallel_subscripted),
                       true);
    } else if (!w.original[i] && verdict_shape(p.result.verdicts) != origin_shape[w.origin[i]]) {
      report.op_failed(p.name, "verdicts differ from origin entry " + entry.name, true);
    } else {
      report.op_ok();
    }
  }
}

}  // namespace

void run_batch_corpus(const Context& ctx, Report& report) {
  Workload w;
  driver::BatchOptions options;
  options.threads = ctx.threads;
  const driver::BatchAnalyzer analyzer(options);
  const double setup_s = timed_setup(kSetupRepeats, [&] {
    w = generate(ctx.seed);
    for (int i = 0; i < kWarmupBatches; ++i) analyzer.run(w.inputs);
  });
  std::string all_sources;
  for (const auto& input : w.inputs) all_sources += input.source;
  report.note("input_fnv", std::to_string(fnv1a(all_sources)));
  report.note("programs", std::to_string(w.inputs.size()));
  report.note("batch_threads", std::to_string(analyzer.threads()));

  const int batches = 12 * ctx.seconds;
  Coverage coverage;
  size_t computed = 0, hits = 0;
  ipa::CrossProgramCache::Stats cross;
  // Per-stage times BatchAnalyzer records for each program of the last
  // batch, summed over the batch, and the wall time of that batch.
  double parse_ms = 0.0, analyze_ms = 0.0, range_test_ms = 0.0, emit_ms = 0.0, stages_ms = 0.0;
  double last_wall_ms = 0.0;
  int64_t pragmas = 0;
  double wall_ms = 0.0;
  // An op's latency: one program's time in its lane, the sum of the stage
  // times BatchAnalyzer records for it. One sample per program and batch.
  std::vector<double> program_ms;
  auto timed_loop = [&](std::vector<double>& batch_ms) {
    wall_ms = 0.0;
    program_ms.clear();
    for (int b = 0; b < batches; ++b) {
      // Timed: the run and the report's destruction (it owns every AST);
      // not timed: the output checks.
      const double t0 = cpu_ms();
      const double w0 = now_ms();
      auto batch = std::make_unique<driver::BatchReport>();
      {
        Span s("driver.batch");
        *batch = analyzer.run(w.inputs);
      }
      double ms = cpu_ms() - t0;
      double wall = now_ms() - w0;
      check_batch(w, *batch, report);
      for (const driver::ProgramReport& p : batch->programs) {
        const pipeline::SessionStats& st = p.stages;
        program_ms.push_back(st.parse.total_ms + st.analyze.total_ms + st.parallelize.total_ms +
                             st.annotate.total_ms + st.emit.total_ms);
      }
      if (b + 1 == batches) {
        coverage = {};
        computed = hits = 0;
        pragmas = 0;
        parse_ms = analyze_ms = range_test_ms = emit_ms = 0.0;
        for (const driver::ProgramReport& p : batch->programs) {
          coverage.add(p.result.verdicts);
          pragmas += p.result.parallelized;
          computed += p.summary_cache.computed;
          hits += p.summary_cache.hits + p.summary_cache.shared_hits;
          const pipeline::SessionStats& st = p.stages;
          parse_ms += st.parse.total_ms;
          analyze_ms += st.analyze.total_ms;
          range_test_ms += st.parallelize.total_ms;
          emit_ms += st.annotate.total_ms + st.emit.total_ms;
        }
        stages_ms = parse_ms + analyze_ms + range_test_ms + emit_ms;
        cross = batch->shared_cache;
        last_wall_ms = wall;
      }
      const double d0 = cpu_ms();
      const double dw0 = now_ms();
      batch.reset();
      ms += cpu_ms() - d0;
      wall += now_ms() - dw0;
      batch_ms.push_back(ms);
      wall_ms += wall;
    }
    return ops_per_second(static_cast<double>(batches * w.inputs.size()), batch_ms);
  };
  std::vector<double> batch_ms;
  const double ops_per_s = timed_loop(batch_ms);
  report.note("wall_ops_per_s",
              format("%.1f", static_cast<double>(batches * w.inputs.size()) * 1000.0 / wall_ms));

  if (!ctx.trace) {
    report.metric("setup_s", setup_s, "s");
    report.metric("ops_per_s", ops_per_s, "ops/s");
    report_latency(report, "op", program_ms);
    report.metric("peak_rss_mb", peak_rss_mb(), "MB");
    report.metric("ok_pct", report.ok_pct(), "%");
    report_coverage(report, coverage);
    return;
  }

  Tracer::set_enabled(true);
  std::vector<double> traced_batch_ms;
  const double traced_ops_per_s = timed_loop(traced_batch_ms);
  // BatchAnalyzer destroys each program's Session inside run() and does not
  // time it, so teardown comes from the same programs run once more, one at
  // a time, through staged_session with a cache shared across them.
  double teardown_ms = 0.0;
  {
    ipa::CrossProgramCache cache;
    for (const driver::ProgramInput& input : w.inputs) {
      staged_session(input.source, input.assumptions, cache);
    }
    const auto teardown = Tracer::total_ms();
    if (teardown.count("pipeline.teardown")) {
      for (double ms : teardown.at("pipeline.teardown")) teardown_ms += ms;
    }
  }
  Tracer::set_enabled(false);
  Tracer::write_chrome(ctx.trace_dir + format("/batch_corpus-%llu.json",
                                              static_cast<unsigned long long>(ctx.seed)));
  // Stage times are sums over the programs of one batch: the ones
  // BatchAnalyzer timed inside its lanes during the last traced batch.
  report.metric("frontend.parse_ms", parse_ms, "ms");
  report.metric("frontend.parse_mb_per_s",
                static_cast<double>(w.bytes) / 1e6 / (parse_ms / 1000.0), "MB/s");
  report.metric("core.analyze_ms", analyze_ms, "ms");
  report.metric("core.range_test_ms", range_test_ms, "ms");
  report_core_counts(report, coverage);
  report.metric("pipeline.teardown_ms", teardown_ms, "ms");
  report.metric("transform.emit_ms", emit_ms, "ms");
  report.metric("transform.pragmas", static_cast<double>(pragmas), "count");
  report_ipa(report, computed, hits, cross.lookups, cross.hits);
  report.detail("driver.batch_ms", median_of(Tracer::total_ms(), "driver.batch"), "ms");
  report.detail("driver.lane_busy_pct", 100.0 * stages_ms / (last_wall_ms * analyzer.threads()),
                "%");
  report_trace_overhead(report, ops_per_s, traced_ops_per_s);
}

}  // namespace perfbench
