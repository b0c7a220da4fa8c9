// Experiment E6 — cost of the compile-time analysis itself: wall time of the
// pipeline stages (parse vs Phase 1/2 analysis vs Range Test) as a function
// of program size. Programs are synthesized by repeating the Fig. 9 pattern
// block. A second analyze() on the same pipeline::Session demonstrates the
// staged API's re-run-without-reparse win (the ablation loop's inner step).
#include <cstdio>

#include "pipeline/session.h"
#include "support/text.h"

using namespace sspar;

namespace {

std::string synthesize(int blocks) {
  std::string src = "int N;\n";
  for (int b = 0; b < blocks; ++b) {
    src += support::format("int size%d[1024];\nint ptr%d[1025];\ndouble data%d[8192];\n", b, b, b);
  }
  src += "void f(void) {\n";
  for (int b = 0; b < blocks; ++b) {
    src += support::format(R"(
  for (int i = 0; i < N; i++) {
    size%d[i] = (i %% 4 == 0) ? 2 : 1;
  }
  ptr%d[0] = 0;
  for (int i = 1; i < N + 1; i++) {
    ptr%d[i] = ptr%d[i-1] + size%d[i-1];
  }
  for (int i = 0; i < N; i++) {
    for (int k = ptr%d[i]; k < ptr%d[i+1]; k++) {
      data%d[k] = data%d[k] * 0.5;
    }
  }
)",
                           b, b, b, b, b, b, b, b, b);
  }
  src += "}\n";
  return src;
}

}  // namespace

int main() {
  std::printf("Compile-time cost of the analysis (synthetic Fig. 9 pattern blocks)\n\n");
  std::vector<std::vector<std::string>> rows;
  rows.push_back({"blocks", "loops", "source lines", "parse[ms]", "analyze[ms]",
                  "range test[ms]", "re-analyze[ms]", "parallel loops"});
  for (int blocks : {1, 4, 16, 64, 128, 256, 512, 1024}) {
    std::string src = synthesize(blocks);
    size_t lines = support::split_lines(src).size();

    pipeline::Session session(src, {{"N", 1}});
    if (!session.parse()) {
      std::fprintf(stderr, "synthesis broken:\n%s\n", session.diagnostics().dump().c_str());
      return 1;
    }
    session.analyze();
    const auto* verdicts = session.parallelize();
    size_t total_loops = verdicts->size();
    int parallel = 0;
    for (const auto& v : *verdicts) parallel += v.parallel ? 1 : 0;
    double first_analyze_ms = session.stats().analyze.last_ms;

    // Re-analyze under different options on the SAME session: the parse is
    // cached, so this pays only the analysis cost again.
    core::AnalyzerOptions no_recurrence;
    no_recurrence.enable_recurrence_rule = false;
    session.analyze(no_recurrence);

    const pipeline::SessionStats& stats = session.stats();
    rows.push_back({std::to_string(blocks), std::to_string(total_loops),
                    std::to_string(lines), support::format("%.2f", stats.parse.total_ms),
                    support::format("%.2f", first_analyze_ms),
                    support::format("%.2f", stats.parallelize.total_ms),
                    support::format("%.2f", stats.analyze.last_ms),
                    std::to_string(parallel)});
  }
  std::printf("%s\n", support::render_table(rows).c_str());
  return 0;
}
