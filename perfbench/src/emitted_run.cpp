// emitted_run: what sspar's output is worth. For each corpus entry, the
// Session::emit() output plus a generated main() is built twice with gcc —
// serial, and with -fopenmp at OMP_NUM_THREADS = the benchmark's lane count
// — and both binaries run on the same seeded inputs. Their checksums of all
// globals must equal each other and a reference from interp::Interpreter
// on the original source. Analysis and compilation happen in set-up; the
// quality of the transform output and the OpenMP runtime decide the result.
//
// Sizes: each entry's size parameters and its global array extents are
// scaled together (see kMaxScale); loop bodies and pragmas are left as emitted.
// Entries whose emission does not build (the hybrid dual-version loops call
// sspar_check_* helpers that have no C definition) count as failed ops and
// enter the speedup mean at 1.0x: the user falls back to the serial program.
#include <fcntl.h>
#include <spawn.h>
#include <sys/wait.h>

#include <atomic>
#include <cctype>
#include <cerrno>
#include <cstring>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "corpus/analysis.h"
#include "corpus/corpus.h"
#include "interp/interpreter.h"
#include "pipeline/session.h"
#include "support/text.h"
#include "workloads.h"

extern char** environ;

using namespace sspar;

namespace perfbench {

namespace {

using support::format;

// Each entry grows by the largest power of two up to kMaxScale that keeps
// its globals within kMaxBytes (see Scale for how extents grow).
constexpr int64_t kMaxScale = 64;
constexpr size_t kMaxBytes = size_t{32} << 20;
constexpr int kRepsPerBinary = 15;  // f() calls per binary run; it reports the fastest
constexpr int kSetupRepeats = 3;

// ---------------------------------------------------------------------------
// Processes

pid_t spawn(const std::vector<std::string>& argv, const std::string& out_path,
            const std::string& err_path) {
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_addopen(&actions, 1, out_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  posix_spawn_file_actions_addopen(&actions, 2, err_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  std::vector<char*> args;
  for (const std::string& a : argv) args.push_back(const_cast<char*>(a.c_str()));
  args.push_back(nullptr);
  pid_t pid = -1;
  if (posix_spawnp(&pid, args[0], &actions, nullptr, args.data(), environ) != 0) pid = -1;
  posix_spawn_file_actions_destroy(&actions);
  return pid;
}

bool wait_ok(pid_t pid) {
  if (pid < 0) return false;
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0) {
    if (errno != EINTR) return false;
  }
  return WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

// ---------------------------------------------------------------------------
// Programs

struct Global {
  std::string name;
  bool is_double = false;
  bool is_array = false;
  size_t elements = 1;
  int rank = 0;
  double init = 0.0;  // scalar initializer, if a literal
};

// How an entry grows: size parameters times `factor`; every array's element
// count times factor^rank, where rank is the program's highest array rank
// (an array of rank r gets factor^(rank-r+1) on its first extent and
// `factor` on the others), so index arrays filled from a 2-D scan still fit.
struct Scale {
  int64_t factor = 1;
  int rank = 1;
};

struct EntryRun {
  std::string name;
  std::string emitted;      // annotated C source with main() appended
  std::vector<Global> globals;
  std::set<std::string> privatized;  // global scalars named in a private clause
  std::string inputs;       // initial values of every global, native layout
  uint64_t reference = 0;   // interpreter checksum
  bool reference_ok = false;
  std::string reference_error;
  Coverage coverage;
  int pragmas = 0;
  bool built = false;
  std::string build_error;
  std::vector<double> serial_ms, parallel_ms;
  std::vector<double> compile_ms;
  Scale scale;
  size_t source_bytes = 0;  // of the scaled source the Session analyzed
  sspar::ipa::SummaryDB::Stats summaries;
};

int64_t power(int64_t base, int exp) {
  int64_t v = 1;
  while (exp-- > 0) v *= base;
  return v;
}

std::string scale_source(const std::string& source, const Scale& scale) {
  std::string out;
  int depth = 0;
  for (const std::string& line : support::split_lines(source)) {
    const bool decl = depth == 0 && line.find('(') == std::string::npos &&
                      (line.rfind("int ", 0) == 0 || line.rfind("double ", 0) == 0);
    for (char c : line) depth += c == '{' ? 1 : c == '}' ? -1 : 0;
    if (!decl) {
      out += line + "\n";
      continue;
    }
    int rank = 0;
    for (char c : line) rank += c == '[' ? 1 : 0;
    std::string scaled;
    int dim = 0;
    for (size_t i = 0; i < line.size(); ++i) {
      scaled += line[i];
      if (line[i] != '[') continue;
      size_t j = i + 1;
      while (j < line.size() && std::isdigit(static_cast<unsigned char>(line[j]))) ++j;
      if (j > i + 1 && j < line.size() && line[j] == ']') {
        const int64_t grow = power(scale.factor, dim++ == 0 ? scale.rank - rank + 1 : 1);
        scaled += std::to_string(std::stoll(line.substr(i + 1, j - i - 1)) * grow);
        i = j - 1;
      }
    }
    out += scaled + "\n";
  }
  return out;
}

// Size parameters (values of at least 32) grow with the extents; small
// parameters such as strides and offsets keep their value.
pipeline::Assumptions scaled_params(const corpus::Entry& entry, const Scale& scale) {
  pipeline::Assumptions params;
  for (const auto& p : entry.params) {
    params.add(p.name, p.interp_value >= 32 ? p.interp_value * scale.factor : p.interp_value);
  }
  return params;
}

// Value ranges of the integer arrays a kernel reads without filling them
// (the corpus's own dynamic tests seed the same ranges); every other
// integer array starts at zero, every double array at seeded values.
struct IntInput {
  const char* array;
  int64_t lo, hi;
  double zero_share;  // probability of a 0 instead of a value in [lo, hi]
};
const std::map<std::string, std::vector<IntInput>>& int_inputs() {
  static const std::map<std::string, std::vector<IntInput>> table = {
      {"fig3", {{"cols", -1, 1, 0.0}}},
      {"CG", {{"cols", -1, 1, 0.0}}},
      {"ipa_cg", {{"cols", -1, 1, 0.0}}},
      {"fig4", {{"w1", 0, 1, 0.0}, {"w2", -1, 1, 0.0}, {"iv", 0, 28, 0.0}}},
      {"fig8", {{"ich", 0, 4, 0.0}}},
      {"fig9", {{"a", 1, 7, 0.67}}},
      {"ipa_csr", {{"a", 1, 7, 0.67}}},
      {"hybrid_csr", {{"rowcnt", 0, 3, 0.0}}},
      {"hybrid_scatter", {{"match", 0, 0, 0.0}}},
      {"hybrid_perm", {{"perm", 0, 0, 0.0}}},
  };
  return table;
}

std::vector<Global> collect_globals(const ast::Program& program) {
  std::vector<Global> out;
  for (const auto& decl : program.globals) {
    Global g;
    g.name = decl->name;
    g.is_double = decl->elem_type == ast::TypeKind::Double;
    g.is_array = decl->is_array();
    for (const auto& dim : decl->dims) {
      const ast::IntLit* lit = dim ? dim->as<ast::IntLit>() : nullptr;
      g.elements *= lit ? static_cast<size_t>(lit->value) : 0;
      ++g.rank;
    }
    if (decl->init) {
      if (const auto* i = decl->init->as<ast::IntLit>()) g.init = static_cast<double>(i->value);
      if (const auto* f = decl->init->as<ast::FloatLit>()) g.init = f->value;
    }
    out.push_back(g);
  }
  return out;
}

// Seeded initial state of every global, as int64 / double per element.
struct State {
  std::map<std::string, std::vector<int64_t>> ints;
  std::map<std::string, std::vector<double>> doubles;
};

State make_inputs(const std::string& entry, const std::vector<Global>& globals,
                  const pipeline::Assumptions& params, Rng& rng) {
  State s;
  for (const Global& g : globals) {
    if (g.is_double) {
      std::vector<double>& v = s.doubles[g.name];
      v.assign(g.elements, g.init);
      if (g.is_array) for (double& x : v) x = 0.5 + rng.uniform();
      continue;
    }
    std::vector<int64_t>& v = s.ints[g.name];
    v.assign(g.elements, static_cast<int64_t>(g.init));
    for (const auto& a : params.items()) {
      if (a.name == g.name && !g.is_array) v[0] = a.value;
    }
    auto it = int_inputs().find(entry);
    if (it == int_inputs().end()) continue;
    for (const IntInput& in : it->second) {
      if (g.name != in.array) continue;
      if (g.name == "perm") {
        for (size_t i = 0; i < v.size(); ++i) v[i] = static_cast<int64_t>(i);
        rng.shuffle(v);
      } else if (g.name == "match") {
        // Distinct where non-negative: subset-injective.
        for (size_t i = 0; i < v.size(); ++i) v[i] = rng.range(0, 2) == 0 ? static_cast<int64_t>(2 * i) : -1;
      } else {
        for (int64_t& x : v) x = rng.uniform() < in.zero_share ? 0 : rng.range(in.lo, in.hi);
      }
    }
  }
  return s;
}

// Native layout of the state: 4-byte ints, 8-byte doubles, declaration order.
std::string serialize(const std::vector<Global>& globals, const State& s) {
  std::string out;
  for (const Global& g : globals) {
    if (g.is_double) {
      const auto& v = s.doubles.at(g.name);
      out.append(reinterpret_cast<const char*>(v.data()), v.size() * sizeof(double));
    } else {
      for (int64_t x : s.ints.at(g.name)) {
        const int32_t narrow = static_cast<int32_t>(x);
        out.append(reinterpret_cast<const char*>(&narrow), sizeof narrow);
      }
    }
  }
  return out;
}

// FNV-style hash over one 64-bit word per element (int as int64, double as
// its bits),
// declaration order, privatized scalars skipped — the same in main() below.
class Checksum {
 public:
  void mix(uint64_t v) {
    h_ ^= v;
    h_ *= 1099511628211ull;
  }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 1469598103934665603ull;
};

uint64_t interpreter_checksum(const ast::Program& program, const std::vector<Global>& globals,
                              const std::set<std::string>& privatized, const State& inputs) {
  interp::Interpreter interp(program);
  for (const Global& g : globals) {
    if (g.is_array && g.is_double) interp.set_array_double(g.name, inputs.doubles.at(g.name));
    if (g.is_array && !g.is_double) interp.set_array_int(g.name, inputs.ints.at(g.name));
    if (!g.is_array && g.is_double) interp.set_scalar(g.name, inputs.doubles.at(g.name)[0]);
    if (!g.is_array && !g.is_double) interp.set_scalar(g.name, inputs.ints.at(g.name)[0]);
  }
  interp.run("f");
  Checksum sum;
  for (const Global& g : globals) {
    if (!g.is_array && privatized.count(g.name)) continue;
    if (g.is_array && g.is_double) {
      for (double x : interp.array_double(g.name)) {
        uint64_t bits;
        std::memcpy(&bits, &x, sizeof bits);
        sum.mix(bits);
      }
    } else if (g.is_array) {
      for (int64_t x : interp.array_int(g.name)) sum.mix(static_cast<uint64_t>(x));
    } else if (g.is_double) {
      const double x = interp.scalar_double(g.name);
      uint64_t bits;
      std::memcpy(&bits, &x, sizeof bits);
      sum.mix(bits);
    } else {
      sum.mix(static_cast<uint64_t>(interp.scalar_int(g.name)));
    }
  }
  return sum.value();
}

// main(): read the inputs, then run f() kRepsPerBinary times from the same
// initial state; print the checksum after the first call, whether every
// call ended in the same state, and the fastest f() time in ns.
std::string harness(const std::vector<Global>& globals, const std::set<std::string>& privatized) {
  // Every name the harness declares carries the sspar_bench_ prefix, so it
  // cannot shadow a program global.
  std::string load, save, restore, sum;
  for (const Global& g : globals) {
    const char* n = g.name.c_str();
    const char* addr = g.is_array ? "" : "&";
    load += format("  if (fread(%s%s, sizeof(%s), 1, sspar_bench_in) != 1) return 2;\n", addr, n, n);
    save += format("  static unsigned char sspar_bench_init_%s[sizeof(%s)];\n"
                   "  memcpy(sspar_bench_init_%s, %s%s, sizeof(%s));\n",
                   n, n, n, addr, n, n);
    restore += format("    memcpy(%s%s, sspar_bench_init_%s, sizeof(%s));\n", addr, n, n, n);
    if (!g.is_array && privatized.count(g.name)) continue;
    const char* mix = g.is_double ? "sspar_bench_mix_d" : "sspar_bench_mix_i";
    const char* type = g.is_double ? "double" : "int";
    if (g.is_array) {
      sum += format("  { const %s* sspar_bench_p = (const %s*)%s;\n"
                    "    for (size_t sspar_bench_i = 0; sspar_bench_i < sizeof(%s) / sizeof(%s); "
                    "sspar_bench_i++) %s(sspar_bench_p[sspar_bench_i]); }\n",
                    type, type, n, n, type, mix);
    } else {
      sum += format("  %s(%s);\n", mix, n);
    }
  }
  return format(R"(
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <time.h>

static uint64_t sspar_bench_h;
static void sspar_bench_mix_u(uint64_t v) { sspar_bench_h ^= v; sspar_bench_h *= 1099511628211ull; }
static void sspar_bench_mix_i(int v) { sspar_bench_mix_u((uint64_t)(int64_t)v); }
static void sspar_bench_mix_d(double v) { uint64_t b; memcpy(&b, &v, sizeof b); sspar_bench_mix_u(b); }
static uint64_t sspar_bench_checksum(void) {
  sspar_bench_h = 1469598103934665603ull;
%s  return sspar_bench_h;
}
static int sspar_bench_cmp(const void* a, const void* b) {
  double x = *(const double*)a, y = *(const double*)b;
  return x < y ? -1 : x > y;
}
int main(int argc, char** argv) {
  if (argc != 3) return 2;
  FILE* sspar_bench_in = fopen(argv[1], "rb");
  if (!sspar_bench_in) return 2;
%s  fclose(sspar_bench_in);
%s  int sspar_bench_reps = atoi(argv[2]);
  double sspar_bench_ns[64];
  if (sspar_bench_reps < 1 || sspar_bench_reps > 64) return 2;
  uint64_t sspar_bench_first = 0;
  int sspar_bench_consistent = 1;
  for (int sspar_bench_r = 0; sspar_bench_r < sspar_bench_reps; sspar_bench_r++) {
%s    struct timespec sspar_bench_t0, sspar_bench_t1;
    clock_gettime(CLOCK_MONOTONIC, &sspar_bench_t0);
    f();
    clock_gettime(CLOCK_MONOTONIC, &sspar_bench_t1);
    sspar_bench_ns[sspar_bench_r] = (sspar_bench_t1.tv_sec - sspar_bench_t0.tv_sec) * 1e9 +
                                    (sspar_bench_t1.tv_nsec - sspar_bench_t0.tv_nsec);
    uint64_t sspar_bench_sum = sspar_bench_checksum();
    if (sspar_bench_r == 0) sspar_bench_first = sspar_bench_sum;
    else if (sspar_bench_sum != sspar_bench_first) sspar_bench_consistent = 0;
  }
  qsort(sspar_bench_ns, sspar_bench_reps, sizeof *sspar_bench_ns, sspar_bench_cmp);
  printf("%%llu %%d %%.1f\n", (unsigned long long)sspar_bench_first, sspar_bench_consistent,
         sspar_bench_ns[0]);
  return 0;
}
)",
                sum.c_str(), load.c_str(), save.c_str(), restore.c_str());
}

Scale entry_scale(const corpus::Entry& entry) {
  Scale scale;
  pipeline::Session session(entry.source);
  if (!session.parse()) return scale;
  const std::vector<Global> globals = collect_globals(*session.program());
  double bytes = 0.0;
  for (const Global& g : globals) {
    bytes += static_cast<double>(g.elements) * (g.is_double ? 8 : 4);
    scale.rank = std::max(scale.rank, g.rank);
  }
  for (scale.factor = kMaxScale; scale.factor > 1; scale.factor /= 2) {
    if (bytes * static_cast<double>(power(scale.factor, scale.rank)) <= static_cast<double>(kMaxBytes)) break;
  }
  return scale;
}

struct BinaryResult {
  bool ok = false;
  uint64_t checksum = 0;
  bool consistent = false;
  double ms = 0.0;
};

BinaryResult run_binary(const std::string& binary, const std::string& inputs,
                        const std::string& out) {
  BinaryResult r;
  if (!wait_ok(spawn({binary, inputs, std::to_string(kRepsPerBinary)}, out, out + ".err"))) return r;
  std::istringstream in(read_file(out));
  unsigned long long sum = 0;
  int consistent = 0;
  double ns = 0.0;
  if (!(in >> sum >> consistent >> ns)) return r;
  r.ok = true;
  r.checksum = sum;
  r.consistent = consistent == 1;
  r.ms = ns / 1e6;
  return r;
}

// Set-up of one entry: scale, analyze, emit, seed inputs, interpreter
// reference, write sources. Compilation is separate (build_all).
EntryRun prepare_entry(const corpus::Entry& entry, uint64_t seed, const std::string& dir) {
  Rng rng(fnv1a(entry.name, seed));
  EntryRun run;
  run.name = entry.name;
  run.scale = entry_scale(entry);
  const std::string source = scale_source(entry.source, run.scale);
  run.source_bytes = source.size();
  // Stage by stage, with the spans staged_session records, but the
  // session stays alive until the AST has been read.
  auto session = std::make_unique<pipeline::Session>(source, corpus::analyzer_assumptions(entry));
  auto teardown = [&] {
    Span s("pipeline.teardown");
    session.reset();
  };
  bool parsed = false;
  {
    Span s("frontend.parse");
    parsed = session->parse();
  }
  const std::vector<core::LoopVerdict>* verdicts = nullptr;
  if (parsed) {
    {
      Span s("core.analyze");
      session->analyze();
    }
    Span s("core.range_test");
    verdicts = session->parallelize();
  }
  if (!verdicts) {
    run.reference_error = "analysis failed: " + session->diagnostics().dump();
    teardown();
    return run;
  }
  run.coverage.add(*verdicts);
  const ast::Program& program = *session->program();
  for (const core::LoopVerdict& v : *verdicts) {
    for (const ast::VarDecl* p : v.privates) {
      if (program.find_global(p->name) == p) run.privatized.insert(p->name);
    }
  }
  std::string emitted;
  {
    Span s("transform.emit");
    run.pragmas = session->annotate();
    emitted = session->emit().output;
  }
  run.globals = collect_globals(program);
  run.summaries = session->summaries().stats();
  teardown();
  const pipeline::Assumptions params = scaled_params(entry, run.scale);
  const State inputs = make_inputs(entry.name, run.globals, params, rng);
  run.inputs = dir + "/" + entry.name + ".in";
  write_file(run.inputs, serialize(run.globals, inputs));
  run.emitted = emitted + harness(run.globals, run.privatized);
  write_file(dir + "/" + entry.name + ".c", run.emitted);
  // The reference runs the original (unannotated) source.
  pipeline::Session original(source, {});
  if (!original.parse()) {
    run.reference_error = "reference parse failed";
  } else {
    try {
      run.reference = interpreter_checksum(*original.program(), run.globals, run.privatized, inputs);
      run.reference_ok = true;
    } catch (const std::exception& e) {
      run.reference_error = std::string("interpreter: ") + e.what();
    }
  }
  return run;
}

// Every entry's set-up, `threads` entries at a time.
std::vector<EntryRun> prepare(uint64_t seed, const std::string& dir, unsigned threads) {
  const auto& entries = corpus::all_entries();
  std::vector<EntryRun> runs(entries.size());
  std::atomic<size_t> next{0};
  std::vector<std::thread> workers;
  for (unsigned t = 0; t < threads; ++t) {
    workers.emplace_back([&] {
      for (size_t i = next++; i < entries.size(); i = next++) runs[i] = prepare_entry(entries[i], seed, dir);
    });
  }
  for (std::thread& w : workers) w.join();
  return runs;
}

// gcc -O2, serial and -fopenmp, at most `jobs` compilers at a time.
void build_all(std::vector<EntryRun>& runs, const std::string& dir, unsigned jobs) {
  struct Job {
    size_t entry;
    bool parallel;
  };
  std::vector<Job> queue;
  for (size_t i = 0; i < runs.size(); ++i) {
    runs[i].compile_ms.clear();
    runs[i].built = !runs[i].emitted.empty();
    if (!runs[i].built) {
      runs[i].build_error = runs[i].reference_error;
      continue;
    }
    queue.push_back({i, false});
    queue.push_back({i, true});
  }
  struct Running {
    pid_t pid;
    Job job;
    double start;
  };
  std::vector<Running> running;
  size_t next = 0;
  while (next < queue.size() || !running.empty()) {
    while (next < queue.size() && running.size() < jobs) {
      const Job job = queue[next++];
      const std::string base = dir + "/" + runs[job.entry].name;
      std::vector<std::string> argv = {"gcc", "-O2", "-std=c11", "-D_POSIX_C_SOURCE=200809L", "-o",
                                       base + (job.parallel ? ".omp" : ".serial"), base + ".c"};
      if (job.parallel) argv.insert(argv.begin() + 1, "-fopenmp");
      const std::string log = base + (job.parallel ? ".omp" : ".serial") + ".log";
      running.push_back({spawn(argv, log + ".stdout", log), job, now_ms()});
    }
    // Wait for the oldest compiler.
    Running r = running.front();
    running.erase(running.begin());
    EntryRun& run = runs[r.job.entry];
    if (!wait_ok(r.pid)) {
      if (run.built) {
        const std::string log = read_file(dir + "/" + run.name + (r.job.parallel ? ".omp" : ".serial") + ".log");
        size_t err = log.find("undefined reference");
        if (err == std::string::npos) err = log.find("error");
        run.build_error = "gcc failed: " + log.substr(err == std::string::npos ? 0 : err, 160);
        for (char& c : run.build_error) if (c == '\n') c = ' ';
      }
      run.built = false;
    }
    run.compile_ms.push_back(now_ms() - r.start);
  }
}

}  // namespace

void run_emitted_run(const Context& ctx, Report& report) {
  const std::string dir = ctx.work_dir;
  std::vector<EntryRun> runs;
  // In the traced run, set-up records the analysis and emit spans.
  if (ctx.trace) Tracer::set_enabled(true);
  const double setup_s = timed_setup(kSetupRepeats, [&] {
    runs = prepare(ctx.seed, dir, ctx.threads);
    build_all(runs, dir, ctx.threads);
  });
  std::string all_inputs;
  for (const EntryRun& r : runs) all_inputs += read_file(r.inputs);
  report.note("input_fnv", std::to_string(fnv1a(all_inputs)));
  std::string scales;
  for (const EntryRun& r : runs) scales += r.name + "=" + std::to_string(r.scale.factor) + " ";
  report.note("scale", scales);
  report.note("entries", std::to_string(runs.size()));

  const int rounds = std::max(2, ctx.seconds / 2);
  // An entry's pair time is what its two kernels take: the fastest f() call
  // of each binary, medians over the rounds. Process start-up and input
  // loading are not the emitted code's work. Entries that failed do not
  // count.
  auto pairs_per_second = [&] {
    double ok = 0.0, ms = 0.0;
    for (const EntryRun& run : runs) {
      if (run.serial_ms.empty()) continue;
      ok += 1.0;
      ms += median(run.serial_ms) + median(run.parallel_ms);
    }
    return ms > 0.0 ? ok * 1000.0 / ms : 0.0;
  };
  // An op's latency: one entry's pair time in one round.
  std::vector<double> pair_ms;
  auto timed_loop = [&] {
    pair_ms.clear();
    for (int round = 0; round < rounds; ++round) {
      for (EntryRun& run : runs) {
        if (!run.built) {
          report.op_failed(run.name, run.build_error, false);
          continue;
        }
        BinaryResult serial, parallel;
        {
          Span s("runtime.serial");
          serial = run_binary(dir + "/" + run.name + ".serial", run.inputs, dir + "/" + run.name + ".serial.out");
        }
        {
          Span s("runtime.parallel");
          parallel = run_binary(dir + "/" + run.name + ".omp", run.inputs, dir + "/" + run.name + ".omp.out");
        }
        std::string why;
        if (!serial.ok || !parallel.ok) {
          why = "binary did not run to completion";
        } else if (!run.reference_ok) {
          why = "no interpreter reference: " + run.reference_error;
        } else if (!serial.consistent || !parallel.consistent) {
          why = "repeated f() calls ended in different states";
        } else if (serial.checksum != run.reference) {
          why = format("serial checksum %016llx != interpreter %016llx",
                       static_cast<unsigned long long>(serial.checksum),
                       static_cast<unsigned long long>(run.reference));
        } else if (parallel.checksum != serial.checksum) {
          why = format("parallel checksum %016llx != serial %016llx",
                       static_cast<unsigned long long>(parallel.checksum),
                       static_cast<unsigned long long>(serial.checksum));
        }
        if (!why.empty()) {
          report.op_failed(run.name, why, true);
          continue;
        }
        report.op_ok();
        run.serial_ms.push_back(serial.ms);
        run.parallel_ms.push_back(parallel.ms);
        pair_ms.push_back(serial.ms + parallel.ms);
      }
    }
    return pairs_per_second();
  };
  if (ctx.trace) Tracer::set_enabled(false);
  const double ops_per_s = timed_loop();

  Coverage coverage;
  int pragmas = 0;
  std::vector<double> speedups, compile_ms;
  for (const EntryRun& run : runs) {
    coverage.merge(run.coverage);
    pragmas += run.pragmas;
    compile_ms.insert(compile_ms.end(), run.compile_ms.begin(), run.compile_ms.end());
    // A program that did not build or failed its check counts as 1.0x:
    // the user keeps the serial program.
    speedups.push_back(run.serial_ms.empty() ? 1.0 : median(run.serial_ms) / median(run.parallel_ms));
  }
  std::printf("  %-24s %10s %12s %12s %8s\n", "entry", "status", "serial[ms]", "parallel[ms]",
              "speedup");
  for (size_t i = 0; i < runs.size(); ++i) {
    const EntryRun& run = runs[i];
    const bool ran = !run.serial_ms.empty();
    std::printf("  %-24s %10s %12.4f %12.4f %7.3fx\n", run.name.c_str(),
                !run.built ? "no-build" : ran ? "ok" : "wrong", ran ? median(run.serial_ms) : 0.0,
                ran ? median(run.parallel_ms) : 0.0, speedups[i]);
  }
  if (!ctx.trace) {
    report.metric("setup_s", setup_s, "s");
    report.metric("ops_per_s", ops_per_s, "ops/s");
    report_latency(report, "op", pair_ms);
    report.metric("peak_rss_mb", peak_rss_mb(), "MB");
    report.metric("ok_pct", report.ok_pct(), "%");
    report_coverage(report, coverage);
    report.detail("emitted_speedup", geomean(speedups), "x");
    return;
  }

  for (EntryRun& run : runs) {
    run.serial_ms.clear();
    run.parallel_ms.clear();
  }
  Tracer::set_enabled(true);
  const double traced_ops_per_s = timed_loop();
  Tracer::set_enabled(false);
  Tracer::write_chrome(ctx.trace_dir + format("/emitted_run-%llu.json",
                                              static_cast<unsigned long long>(ctx.seed)));
  // The pipeline layers ran in set-up (every entry, kSetupRepeats times):
  // medians over entries and repeats, and parse throughput over all of them.
  const auto self = Tracer::self_ms();
  size_t bytes = 0;
  size_t computed = 0, hits = 0;
  for (const EntryRun& run : runs) {
    bytes += run.source_bytes;
    computed += run.summaries.computed;
    hits += run.summaries.hits;
  }
  double parse_total_ms = 0.0;
  if (self.count("frontend.parse")) {
    for (double ms : self.at("frontend.parse")) parse_total_ms += ms;
  }
  report.metric("frontend.parse_ms", median_of(self, "frontend.parse"), "ms");
  report.metric("frontend.parse_mb_per_s",
                static_cast<double>(bytes) * kSetupRepeats / 1e6 / (parse_total_ms / 1000.0), "MB/s");
  report.metric("core.analyze_ms", median_of(self, "core.analyze"), "ms");
  report.metric("core.range_test_ms", median_of(self, "core.range_test"), "ms");
  report_core_counts(report, coverage);
  report.metric("pipeline.teardown_ms", median_of(self, "pipeline.teardown"), "ms");
  report.metric("transform.emit_ms", median_of(self, "transform.emit"), "ms");
  report.metric("transform.pragmas", pragmas, "count");
  // Each entry is analyzed alone, without a shared cross-program cache.
  report_ipa(report, computed, hits, 0, 0);
  report.detail("runtime.compile_ms", median(compile_ms), "ms");
  double serial_total = 0.0, parallel_total = 0.0;
  for (const EntryRun& run : runs) {
    if (run.serial_ms.empty()) {
      const char* why = run.built ? "output check failed" : "emitted source does not build";
      report.unmeasured("runtime.serial_ms." + run.name, why);
      report.unmeasured("runtime.parallel_ms." + run.name, why);
      continue;
    }
    serial_total += median(run.serial_ms);
    parallel_total += median(run.parallel_ms);
  }
  report.detail("runtime.serial_ms", serial_total, "ms");
  report.detail("runtime.parallel_ms", parallel_total, "ms");
  for (const EntryRun& run : runs) {
    if (run.serial_ms.empty()) continue;
    report.detail("runtime.serial_ms." + run.name, median(run.serial_ms), "ms");
    report.detail("runtime.parallel_ms." + run.name, median(run.parallel_ms), "ms");
  }
  report_trace_overhead(report, ops_per_s, traced_ops_per_s);
}

}  // namespace perfbench
