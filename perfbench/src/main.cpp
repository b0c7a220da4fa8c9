// sspar benchmark driver.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 --work-dir DIR
//
// Prints a per-metric table and, as the last line, one JSON object with the
// keys correct, attempted, failed and metrics. --trace 0 reports the
// end-to-end metrics; --trace 1 reruns the workload with spans around every
// call into sspar and reports the per-layer metrics instead.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "common.h"
#include "workloads.h"

using namespace perfbench;

namespace {

std::string command_output(const char* command) {
  std::string out;
  if (FILE* pipe = ::popen(command, "r")) {
    char buf[256];
    while (std::fgets(buf, sizeof buf, pipe)) out += buf;
    ::pclose(pipe);
  }
  while (!out.empty() && (out.back() == '\n' || out.back() == '\r')) out.pop_back();
  return out;
}

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "cold_scale|batch_corpus|daemon_edit|emitted_run --seed N --seconds S "
               "--trace 0|1 --work-dir DIR\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Context ctx;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      ctx.workload = value;
    } else if (flag == "--seed") {
      ctx.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      ctx.seconds = std::max(1, std::atoi(value.c_str()));
    } else if (flag == "--trace") {
      ctx.trace = value == "1";
    } else if (flag == "--work-dir") {
      ctx.work_dir = value;
    } else {
      return usage(("unknown flag " + flag).c_str());
    }
  }
  if (argc % 2 == 0) return usage("flags take one value each");
  if (ctx.work_dir.empty()) return usage("--work-dir is required");
  // A traced run times the workload twice, untraced and traced, so each
  // pass gets half the run time and the run takes about as long as an
  // untraced one.
  if (ctx.trace) ctx.seconds = std::max(1, ctx.seconds / 2);

  void (*run)(const Context&, Report&) = nullptr;
  if (ctx.workload == "cold_scale") run = run_cold_scale;
  if (ctx.workload == "batch_corpus") run = run_batch_corpus;
  if (ctx.workload == "daemon_edit") run = run_daemon_edit;
  if (ctx.workload == "emitted_run") run = run_emitted_run;
  if (!run) return usage(("unknown workload '" + ctx.workload + "'").c_str());

  const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
  // At most four lanes, so hosts with more cores run the same configuration.
  ctx.threads = std::min(nproc, 4u);
  ctx.trace_dir = ctx.work_dir + "/traces";
  ctx.work_dir += "/" + ctx.workload;
  if (!make_dirs(ctx.work_dir) || !make_dirs(ctx.trace_dir)) {
    std::fprintf(stderr, "perfbench: cannot create %s\n", ctx.work_dir.c_str());
    return 1;
  }
  const std::string omp_threads = std::to_string(ctx.threads);
  ::setenv("OMP_NUM_THREADS", omp_threads.c_str(), 1);
  // The emitted binaries run under libgomp's default wait policy, as a
  // user's build of sspar's output does.
  ::unsetenv("OMP_WAIT_POLICY");
  ::unsetenv("GOMP_SPINCOUNT");

  Report report;
  report.note("workload", ctx.workload);
  report.note("seed", std::to_string(ctx.seed));
  report.note("nproc", std::to_string(nproc));
  report.note("threads", std::to_string(ctx.threads));
  report.note("OMP_NUM_THREADS", omp_threads);
  report.note("OMP_WAIT_POLICY", "unset (libgomp default)");
  report.note("gcc", command_output("gcc -dumpfullversion"));
  report.note("build_type", PERFBENCH_BUILD_TYPE);
#ifdef SSPAR_FAULTPOINTS
  report.note("faultpoints", "on");
#else
  report.note("faultpoints", "off");
#endif
  const bool release = std::strcmp(PERFBENCH_BUILD_TYPE, "Release") == 0;
  if (!release) std::printf("WARNING: non-Release build; timings are not comparable\n");
  report.note("flagged", release ? "no" : "non-Release build");

  run(ctx, report);
  report.print(ctx);
  return 0;
}
