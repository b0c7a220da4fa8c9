// Helpers the workloads share: the staged Session run, and coverage, ipa,
// latency and overhead reporting.

#include <memory>

#include "support/text.h"
#include "workloads.h"

using namespace sspar;

namespace perfbench {

void Coverage::add(const std::vector<sspar::core::LoopVerdict>& verdicts) {
  for (const sspar::core::LoopVerdict& v : verdicts) {
    ++loops;
    if (v.parallel) {
      ++static_parallel;
    } else if (v.hybrid) {
      ++hybrid;
    } else {
      ++serial;
    }
  }
}

void Coverage::merge(const Coverage& other) {
  loops += other.loops;
  static_parallel += other.static_parallel;
  hybrid += other.hybrid;
  serial += other.serial;
}

StagedRun staged_session(const std::string& source, const pipeline::Assumptions& assumptions,
                         ipa::CrossProgramCache& cache) {
  StagedRun r;
  auto session = std::make_unique<pipeline::Session>(source, assumptions);
  session->share_summaries(&cache);
  bool parsed = false;
  {
    Span s("frontend.parse");
    parsed = session->parse();
  }
  if (parsed) {
    {
      Span s("core.analyze");
      session->analyze();
    }
    const std::vector<core::LoopVerdict>* verdicts = nullptr;
    {
      Span s("core.range_test");
      verdicts = session->parallelize();
    }
    {
      Span s("transform.emit");
      r.pragmas = session->annotate();
      r.ok = session->emit().ok;
    }
    if (verdicts) r.coverage.add(*verdicts);
    r.summaries = session->summaries().stats();
  }
  {
    Span s("pipeline.teardown");
    session.reset();
  }
  return r;
}

void report_coverage(Report& report, const Coverage& c) {
  const double loops = static_cast<double>(c.loops > 0 ? c.loops : 1);
  report.metric("static_parallel_pct", 100.0 * static_cast<double>(c.static_parallel) / loops, "%");
  report.metric("serial_loop_pct", 100.0 * static_cast<double>(c.serial) / loops, "%");
}

void report_core_counts(Report& report, const Coverage& c) {
  report.metric("core.loops", static_cast<double>(c.loops), "count");
  report.metric("core.static_parallel", static_cast<double>(c.static_parallel), "count");
  report.metric("core.hybrid", static_cast<double>(c.hybrid), "count");
  report.metric("core.serial", static_cast<double>(c.serial), "count");
}

void report_ipa(Report& report, size_t computed, size_t hits, size_t cross_lookups,
                size_t cross_hits) {
  report.metric("ipa.summaries_computed", static_cast<double>(computed), "count");
  report.metric("ipa.summary_hits", static_cast<double>(hits), "count");
  report.metric("ipa.cross_lookups", static_cast<double>(cross_lookups), "count");
  report.metric("ipa.cross_hit_rate",
                cross_lookups ? static_cast<double>(cross_hits) / static_cast<double>(cross_lookups)
                              : 0.0,
                "ratio");
}

void report_trace_overhead(Report& report, double untraced_ops_per_s, double traced_ops_per_s) {
  report.metric("trace.overhead_pct", 100.0 * (untraced_ops_per_s / traced_ops_per_s - 1.0), "%");
}

void report_latency(Report& report, const std::string& prefix, const std::vector<double>& samples,
                    bool manifest) {
  const double tail = tail_rank(samples.size());
  if (manifest) {
    report.metric(prefix + "_p50_ms", median(samples), "ms");
    report.metric(prefix + "_tail_ms", percentile(samples, tail), "ms");
  } else {
    report.detail(prefix + "_p50_ms", median(samples), "ms");
    report.detail(prefix + "_tail_ms", percentile(samples, tail), "ms");
  }
  report.note(prefix + "_tail", sspar::support::format("p%g of %zu samples", tail, samples.size()));
}

}  // namespace perfbench
