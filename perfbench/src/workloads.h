// The four benchmark workloads. Each builds its inputs from ctx.seed, runs a
// fixed amount of work (scaled by ctx.seconds), checks every output, and
// fills `report` with the end-to-end metrics (untraced run) or the per-layer
// metrics (traced run). See README.md for what each one is for.
#pragma once

#include <string>
#include <vector>

#include "common.h"
#include "core/parallelizer.h"
#include "ipa/cross_cache.h"
#include "ipa/summary.h"
#include "pipeline/session.h"

namespace perfbench {

void run_cold_scale(const Context& ctx, Report& report);
void run_batch_corpus(const Context& ctx, Report& report);
void run_daemon_edit(const Context& ctx, Report& report);
void run_emitted_run(const Context& ctx, Report& report);

// Coverage classification of a verdict list: every loop is statically
// parallel, hybrid (dual-version with a runtime check) or serial.
struct Coverage {
  int64_t loops = 0, static_parallel = 0, hybrid = 0, serial = 0;
  void add(const std::vector<sspar::core::LoopVerdict>& verdicts);
  void merge(const Coverage& other);
  bool operator==(const Coverage&) const = default;
};

// What one Session run, stage by stage, produced.
struct StagedRun {
  bool ok = false;  // parsed and emitted
  Coverage coverage;
  int64_t pragmas = 0;
  sspar::ipa::SummaryDB::Stats summaries;
};

// Runs `source` through one Session on the stages `sspar-analyze --json`
// runs for one file: parse, analyze, range test, annotate + emit, destroy.
// Each stage runs inside a span (frontend.parse, core.analyze,
// core.range_test, transform.emit, pipeline.teardown), so a traced run
// gets its per-layer times. The session shares `cache`.
StagedRun staged_session(const std::string& source, const sspar::pipeline::Assumptions& assumptions,
                         sspar::ipa::CrossProgramCache& cache);

// Reports static_parallel_pct and serial_loop_pct of `c`.
void report_coverage(Report& report, const Coverage& c);

// Reports the core.* verdict counts of `c`.
void report_core_counts(Report& report, const Coverage& c);

// Reports the ipa.* counters: summaries computed and served from a cache,
// and the cross-program cache's lookups and hit rate.
void report_ipa(Report& report, size_t computed, size_t hits, size_t cross_lookups,
                size_t cross_hits);

// Traced ops/s against untraced ops/s, in percent of the untraced rate.
void report_trace_overhead(Report& report, double untraced_ops_per_s, double traced_ops_per_s);

// Reports `samples` as <prefix>_p50_ms and <prefix>_tail_ms, and notes which
// percentile the tail is and over how many samples. With `manifest` false
// they are table-only details.
void report_latency(Report& report, const std::string& prefix, const std::vector<double>& samples,
                    bool manifest = true);

}  // namespace perfbench
