// Parallelizer tests: each of the paper's figures must get the right verdict
// with the right enabling property.
#include <gtest/gtest.h>

#include "core/body_interp.h"
#include "core/parallelizer.h"
#include "frontend/frontend.h"
#include "support/diagnostics.h"
#include "support/text.h"

namespace sspar::core {
namespace {

struct Pipeline {
  ast::ParseResult parsed;
  std::unique_ptr<Analyzer> analyzer;
  std::unique_ptr<Parallelizer> parallelizer;

  LoopVerdict verdict_of(const char* func, int loop_id) {
    const auto* f = parsed.program->find_function(func);
    EXPECT_NE(f, nullptr);
    for (const ast::For* loop : ast::collect_loops(f->body.get())) {
      if (loop->loop_id == loop_id) return parallelizer->analyze(*loop);
    }
    ADD_FAILURE() << "no loop with id " << loop_id;
    return {};
  }
};

Pipeline build(const char* source,
               const std::vector<std::pair<const char*, int64_t>>& assumptions = {},
               AnalyzerOptions options = {}) {
  Pipeline p;
  support::DiagnosticEngine diags;
  p.parsed = ast::parse_and_resolve(source, diags);
  EXPECT_TRUE(p.parsed.ok) << diags.dump();
  p.analyzer = std::make_unique<Analyzer>(*p.parsed.program, *p.parsed.symbols, options);
  for (const auto& [name, lo] : assumptions) {
    p.analyzer->assume_ge(p.parsed.program->find_global(name), lo);
  }
  p.analyzer->run();
  p.parallelizer = std::make_unique<Parallelizer>(*p.analyzer);
  return p;
}

std::string blockers(const LoopVerdict& v) { return support::join(v.blockers, "; "); }

// --------------------------------------------------------------------------
// Affine baseline cases
// --------------------------------------------------------------------------

TEST(Parallelizer, SimpleAffineLoopIsParallel) {
  auto p = build(R"(
    int n; int a[100]; int b[100];
    void f() {
      for (int i = 0; i < n; i++) {
        a[i] = b[i] + 1;
      }
    }
  )", {{"n", 1}});
  auto v = p.verdict_of("f", 0);
  EXPECT_TRUE(v.parallel) << blockers(v);
  EXPECT_EQ(v.reason, "affine disjoint accesses");
  EXPECT_FALSE(v.uses_subscripted_subscripts);
}

TEST(Parallelizer, LoopCarriedFlowDependenceBlocks) {
  auto p = build(R"(
    int n; int a[100];
    void f() {
      for (int i = 1; i < n; i++) {
        a[i] = a[i-1] + 1;
      }
    }
  )", {{"n", 2}});
  auto v = p.verdict_of("f", 0);
  EXPECT_FALSE(v.parallel);
}

TEST(Parallelizer, ScalarRecurrenceBlocks) {
  auto p = build(R"(
    int n; int s; int a[100];
    void f() {
      s = 0;
      for (int i = 0; i < n; i++) {
        s = s + a[i];
      }
    }
  )", {{"n", 1}});
  auto v = p.verdict_of("f", 0);
  EXPECT_FALSE(v.parallel);
  EXPECT_NE(blockers(v).find("loop-carried scalar"), std::string::npos);
}

TEST(Parallelizer, PrivatizableScalarIsFine) {
  auto p = build(R"(
    int n; int t; int a[100]; int b[100];
    void f() {
      for (int i = 0; i < n; i++) {
        t = b[i] * 2;
        a[i] = t + 1;
      }
    }
  )", {{"n", 1}});
  auto v = p.verdict_of("f", 0);
  EXPECT_TRUE(v.parallel) << blockers(v);
  ASSERT_EQ(v.privates.size(), 1u);
  EXPECT_EQ(v.privates[0]->name, "t");
}

TEST(Parallelizer, StridedWriteIsParallel) {
  auto p = build(R"(
    int n; int a[1000];
    void f() {
      for (int i = 0; i < n; i++) {
        a[3*i + 1] = i;
      }
    }
  )", {{"n", 1}});
  auto v = p.verdict_of("f", 0);
  EXPECT_TRUE(v.parallel) << blockers(v);
}

TEST(Parallelizer, OverlappingWindowsBlock) {
  auto p = build(R"(
    int n; int a[1000];
    void f() {
      for (int i = 0; i < n; i++) {
        a[2*i] = 1;
        a[2*i + 2] = 2;
      }
    }
  )", {{"n", 1}});
  auto v = p.verdict_of("f", 0);
  EXPECT_FALSE(v.parallel);  // a[2i+2] collides with a[2(i+1)]
}

// --------------------------------------------------------------------------
// Fig. 2 — injectivity of mt_to_id makes the loop parallel
// --------------------------------------------------------------------------

TEST(Parallelizer, Fig2InjectiveSubscript) {
  auto p = build(R"(
    int nelt;
    int mt_to_id[100];
    int id_to_mt[100];
    void setup() {
      for (int i = 0; i < nelt; i++) {
        mt_to_id[i] = nelt - 1 - i;
      }
    }
    void f() {
      for (int miel = 0; miel < nelt; miel++) {
        int iel = mt_to_id[miel];
        id_to_mt[iel] = miel;
      }
    }
  )", {{"nelt", 1}});
  // NOTE: both functions see the same globals; the analyzer runs per function
  // in program order, and facts survive at function end only per function.
  // Use a single function for the end-to-end check:
  auto p2 = build(R"(
    int nelt;
    int mt_to_id[100];
    int id_to_mt[100];
    void f() {
      for (int i = 0; i < nelt; i++) {
        mt_to_id[i] = nelt - 1 - i;
      }
      for (int miel = 0; miel < nelt; miel++) {
        int iel = mt_to_id[miel];
        id_to_mt[iel] = miel;
      }
    }
  )", {{"nelt", 1}});
  auto v = p2.verdict_of("f", 1);
  EXPECT_TRUE(v.parallel) << blockers(v);
  EXPECT_TRUE(v.uses_subscripted_subscripts);
}

// --------------------------------------------------------------------------
// Fig. 3 — monotonic rowstr ranges (CG)
// --------------------------------------------------------------------------

TEST(Parallelizer, Fig3MonotonicRanges) {
  auto p = build(R"(
    int nrows;
    int firstcol;
    int nzz[100];
    int rowstr[101];
    int colidx[10000];
    void f() {
      rowstr[0] = 0;
      for (int i = 1; i < nrows + 1; i++) {
        rowstr[i] = rowstr[i-1] + nzz[i-1];
      }
      for (int j = 0; j < nrows; j++) {
        for (int k = rowstr[j]; k < rowstr[j+1]; k++) {
          colidx[k] = colidx[k] - firstcol;
        }
      }
    }
  )", {{"nrows", 1}});
  // nzz values unknown => step could be negative; the loop is NOT provably
  // parallel without a non-negativity fact on nzz.
  auto v = p.verdict_of("f", 1);
  EXPECT_FALSE(v.parallel);

  // With the fill code for nzz present (as the paper argues, the information
  // is in the program), the proof goes through.
  auto p2 = build(R"(
    int nrows;
    int firstcol;
    int cols[100];
    int nzz[100];
    int rowstr[101];
    int colidx[10000];
    void f() {
      for (int i = 0; i < nrows; i++) {
        nzz[i] = cols[i] > 0 ? 1 : 0;
      }
      rowstr[0] = 0;
      for (int i = 1; i < nrows + 1; i++) {
        rowstr[i] = rowstr[i-1] + nzz[i-1];
      }
      for (int j = 0; j < nrows; j++) {
        for (int k = rowstr[j]; k < rowstr[j+1]; k++) {
          colidx[k] = colidx[k] - firstcol;
        }
      }
    }
  )", {{"nrows", 1}});
  auto v2 = p2.verdict_of("f", 2);
  EXPECT_TRUE(v2.parallel) << blockers(v2);
  EXPECT_NE(v2.reason.find("monotonic"), std::string::npos) << v2.reason;
  EXPECT_TRUE(v2.uses_subscripted_subscripts);
}

// --------------------------------------------------------------------------
// Fig. 5 — injective subset with guard (CSparse)
// --------------------------------------------------------------------------

TEST(Parallelizer, Fig5SubsetInjectiveGuarded) {
  auto p = build(R"(
    int m;
    int flag[100];
    int jmatch[100];
    int imatch[100];
    void f() {
      for (int i = 0; i < m; i++) {
        if (flag[i] > 0) {
          jmatch[i] = 2 * i;
        } else {
          jmatch[i] = -1;
        }
      }
      for (int i = 0; i < m; i++) {
        if (jmatch[i] >= 0) {
          imatch[jmatch[i]] = i;
        }
      }
    }
  )", {{"m", 1}});
  auto v = p.verdict_of("f", 1);
  EXPECT_TRUE(v.parallel) << blockers(v);
  EXPECT_NE(v.reason.find("subset-injective"), std::string::npos) << v.reason;

  // Without the guard the same loop must NOT be parallel.
  auto p2 = build(R"(
    int m;
    int flag[100];
    int jmatch[100];
    int imatch[100];
    void f() {
      for (int i = 0; i < m; i++) {
        if (flag[i] > 0) {
          jmatch[i] = 2 * i;
        } else {
          jmatch[i] = -1;
        }
      }
      for (int i = 0; i < m; i++) {
        imatch[jmatch[i]] = i;
      }
    }
  )", {{"m", 1}});
  auto v2 = p2.verdict_of("f", 1);
  EXPECT_FALSE(v2.parallel);
}

// --------------------------------------------------------------------------
// Fig. 6 — simultaneous monotonicity (r) and injectivity (p)
// --------------------------------------------------------------------------

TEST(Parallelizer, Fig6SimultaneousMonotonicAndInjective) {
  auto p = build(R"(
    int nb;
    int nsz[100];
    int r[101];
    int pvec[1000];
    int Blk[1000];
    void f() {
      for (int i = 0; i < nb + 1; i++) {
        nsz[i] = i < nb ? 2 : 0;
      }
      r[0] = 0;
      for (int i = 1; i < nb + 1; i++) {
        r[i] = r[i-1] + nsz[i-1];
      }
      for (int i = 0; i < 2 * nb; i++) {
        pvec[i] = 2 * nb - 1 - i;
      }
      for (int b = 0; b < nb; b++) {
        for (int k = r[b]; k < r[b+1]; k++) {
          Blk[pvec[k]] = b;
        }
      }
    }
  )", {{"nb", 1}});
  auto v = p.verdict_of("f", 3);
  EXPECT_TRUE(v.parallel) << blockers(v);
  EXPECT_TRUE(v.uses_subscripted_subscripts);
}

// --------------------------------------------------------------------------
// Fig. 7-style — strided windows over a strictly monotonic base
// --------------------------------------------------------------------------

TEST(Parallelizer, Fig7StridedWindows) {
  auto p = build(R"(
    int nref;
    int nelttemp;
    int front[100];
    int tree[10000];
    int ntemp;
    void f() {
      for (int i = 0; i < nref; i++) {
        front[i] = i + 1;
      }
      for (int index = 0; index < nref; index++) {
        int nelt = nelttemp + front[index] * 7;
        for (int i = 0; i < 7; i++) {
          tree[nelt + i] = ntemp + (i + 1) % 8;
        }
      }
    }
  )", {{"nref", 1}});
  auto v = p.verdict_of("f", 1);
  EXPECT_TRUE(v.parallel) << blockers(v);
  EXPECT_NE(v.reason.find("monotonic"), std::string::npos) << v.reason;
}

// --------------------------------------------------------------------------
// Fig. 8-style — branch-dependent disjoint windows
// --------------------------------------------------------------------------

TEST(Parallelizer, Fig8DisjointBranchWindows) {
  auto p = build(R"(
    int nelt;
    int ich[100];
    int front[100];
    int mt_to_id_old[100];
    int mt_to_id[10000];
    int ref_front_id[10000];
    void f() {
      for (int i = 0; i < nelt; i++) {
        front[i] = i + 1;
      }
      for (int i = 0; i < nelt; i++) {
        mt_to_id_old[i] = nelt - 1 - i;
      }
      for (int miel = 0; miel < nelt; miel++) {
        int iel = mt_to_id_old[miel];
        int ntemp;
        int mielnew;
        if (ich[iel] == 4) {
          ntemp = (front[miel] - 1) * 7;
          mielnew = miel + ntemp;
        } else {
          ntemp = front[miel] * 7;
          mielnew = miel + ntemp;
        }
        mt_to_id[mielnew] = iel;
        ref_front_id[iel] = nelt + ntemp;
      }
    }
  )", {{"nelt", 1}});
  auto v = p.verdict_of("f", 2);
  EXPECT_TRUE(v.parallel) << blockers(v);
  EXPECT_TRUE(v.uses_subscripted_subscripts);
}

// --------------------------------------------------------------------------
// Fig. 9 — the paper's running example, end to end
// --------------------------------------------------------------------------

const char* kFig9Full = R"(
  int ROWLEN;
  int COLUMNLEN;
  int ind;
  int index;
  int j1;
  int a[100][100];
  int column_number[10000];
  double value[10000];
  double vector[10000];
  double product_array[10000];
  int rowsize[100];
  int rowptr[101];
  void f() {
    for (int i = 0; i < ROWLEN; i++) {
      int count = 0;
      for (int j = 0; j < COLUMNLEN; j++) {
        if (a[i][j] != 0) {
          count++;
          column_number[index++] = j;
          value[ind++] = a[i][j];
        }
      }
      rowsize[i] = count;
    }
    rowptr[0] = 0;
    for (int i = 1; i < ROWLEN + 1; i++) {
      rowptr[i] = rowptr[i-1] + rowsize[i-1];
    }
    for (int i = 0; i < ROWLEN + 1; i++) {
      if (i == 0) {
        j1 = i;
      } else {
        j1 = rowptr[i-1];
      }
      for (int j = j1; j < rowptr[i]; j++) {
        product_array[j] = value[j] * vector[j];
      }
    }
  }
)";

TEST(Parallelizer, Fig9ProductLoopParallel) {
  auto p = build(kFig9Full, {{"ROWLEN", 1}, {"COLUMNLEN", 1}});
  // Loop ids: 0 = outer fill, 1 = inner fill, 2 = rowptr recurrence,
  // 3 = product outer, 4 = product inner.
  auto v = p.verdict_of("f", 3);
  EXPECT_TRUE(v.parallel) << blockers(v);
  EXPECT_NE(v.reason.find("monotonic"), std::string::npos) << v.reason;
  EXPECT_NE(v.reason.find("peeled"), std::string::npos) << v.reason;
  EXPECT_TRUE(v.uses_subscripted_subscripts);
  // j1 (and possibly j) must be privatized; j is declared inside the loop.
  bool has_j1 = false;
  for (const auto* d : v.privates) has_j1 = has_j1 || d->name == "j1";
  EXPECT_TRUE(has_j1);
}

TEST(Parallelizer, Fig9FillLoopNotParallel) {
  auto p = build(kFig9Full, {{"ROWLEN", 1}, {"COLUMNLEN", 1}});
  // The fill loop carries `index`/`ind` across iterations: not parallel.
  auto v = p.verdict_of("f", 0);
  EXPECT_FALSE(v.parallel);
  EXPECT_NE(blockers(v).find("loop-carried scalar"), std::string::npos) << blockers(v);
}

TEST(Parallelizer, Fig9RecurrenceLoopNotParallel) {
  auto p = build(kFig9Full, {{"ROWLEN", 1}, {"COLUMNLEN", 1}});
  auto v = p.verdict_of("f", 2);
  EXPECT_FALSE(v.parallel);  // rowptr[i] depends on rowptr[i-1]
}

// --------------------------------------------------------------------------
// Fig. 4 — monotonic difference of two arrays (CG)
// --------------------------------------------------------------------------

TEST(Parallelizer, Fig4MonotonicDifference) {
  // rowstr grows by [2:5] per row, nzloc by [0:2]: the difference
  // rowstr[j+1]-nzloc[j] advances at least as fast as rowstr[j]-nzloc[j-1].
  auto p = build(R"(
    int nrows;
    int w1[100];
    int w2[100];
    int rowstr[101];
    int nzloc[101];
    double a[10000];
    double v[10000];
    int colidx[10000];
    int iv[10000];
    void f() {
      rowstr[0] = 0;
      nzloc[0] = 0;
      for (int i = 1; i < nrows + 1; i++) {
        rowstr[i] = rowstr[i-1] + 3 + (w1[i] > 0 ? 2 : 0);
      }
      for (int i = 1; i < nrows + 1; i++) {
        nzloc[i] = nzloc[i-1] + (w2[i] > 0 ? 2 : 0);
      }
      for (int j = 0; j < nrows; j++) {
        int j1;
        if (j > 0) {
          j1 = rowstr[j] - nzloc[j-1];
        } else {
          j1 = 0;
        }
        int j2 = rowstr[j+1] - nzloc[j];
        int nza = rowstr[j];
        for (int k = j1; k < j2; k++) {
          a[k] = v[nza];
          colidx[k] = iv[nza];
          nza = nza + 1;
        }
      }
    }
  )", {{"nrows", 1}});
  auto v = p.verdict_of("f", 2);
  EXPECT_TRUE(v.parallel) << blockers(v);
  EXPECT_NE(v.reason.find("monotonic"), std::string::npos) << v.reason;
}

// --------------------------------------------------------------------------
// BodyInterp::force_branches vs branch-write pairs
// --------------------------------------------------------------------------

TEST(BodyInterpForceBranches, ForcedIfDropsItsPairButKeepsTheOthers) {
  // Two top-level if/else statements: the first is a peel candidate
  // (i == 0), the second a branch-write pair (same array, same subscript).
  auto p = build(R"(
    int n; int flag[1024]; int a[1024]; int b[4096];
    void f() {
      for (int i = 0; i < n; i++) {
        if (i == 0) {
          a[i] = 5;
        } else {
          a[i] = 7;
        }
        if (flag[i] > 0) {
          b[i] = 2 * i;
        } else {
          b[i] = -1;
        }
      }
    }
  )", {{"n", 1}});
  const auto* f = p.parsed.program->find_function("f");
  const ast::For* loop = ast::collect_loops(f->body.get())[0];
  const LoopSnapshot* snap = p.analyzer->snapshot(loop);
  ASSERT_NE(snap, nullptr);
  ASSERT_TRUE(snap->info.has_value());
  const auto* body = loop->body->as<ast::Compound>();
  const auto* peel_if = body->body[0]->as<ast::If>();
  ASSERT_NE(peel_if, nullptr);

  // Unforced: both if/else statements contribute a branch-write pair.
  BodyInterp unforced(*p.analyzer, *loop->body, snap->info->index,
                      snap->scalars_at_entry, snap->facts_at_entry);
  ASSERT_TRUE(unforced.run());
  ASSERT_EQ(unforced.branch_pairs.size(), 2u);
  EXPECT_EQ(unforced.branch_pairs[0].array->name, "a");
  EXPECT_EQ(unforced.branch_pairs[1].array->name, "b");

  // Forcing the peel candidate executes exactly one of its branches, so it
  // cannot pair any more — the guarded pair must survive untouched.
  std::map<const ast::If*, bool> forced{{peel_if, false}};
  BodyInterp general(*p.analyzer, *loop->body, snap->info->index,
                     snap->scalars_at_entry, snap->facts_at_entry);
  general.force_branches(&forced);
  ASSERT_TRUE(general.run());
  ASSERT_EQ(general.branch_pairs.size(), 1u);
  EXPECT_EQ(general.branch_pairs[0].array->name, "b");
  // The forced branch's write is unconditional now (single path taken).
  bool saw_a_write = false;
  for (const auto& w : general.writes) {
    if (w.array && w.array->name == "a") {
      saw_a_write = true;
      EXPECT_FALSE(w.conditional);
    }
  }
  EXPECT_TRUE(saw_a_write);
}

TEST(BodyInterpForceBranches, PeeledFirstIterationCoexistsWithGuardedPairs) {
  // One loop mixes the Fig. 9 peel idiom (if (i == 0)) with the Fig. 5
  // guarded branch-write pair; the peel must not stop the subset-injective
  // fact from reaching the scatter loop.
  auto p = build(R"(
    int n; int flag[2048]; int jm[2048]; int imatch[8192]; int first;
    void f() {
      for (int i = 0; i < n; i++) {
        flag[i] = (i % 2 == 0) ? 1 : 0;
      }
      for (int i = 0; i < n; i++) {
        if (i == 0) {
          first = 1;
        } else {
          first = 0;
        }
        if (flag[i] > 0) {
          jm[i] = 2 * i;
        } else {
          jm[i] = -1;
        }
      }
      for (int i = 0; i < n; i++) {
        if (jm[i] >= 0) {
          imatch[jm[i]] = i;
        }
      }
    }
  )", {{"n", 1}});
  auto producer = p.verdict_of("f", 1);
  EXPECT_TRUE(producer.parallel) << blockers(producer);
  EXPECT_TRUE(producer.peeled);
  ASSERT_EQ(producer.privates.size(), 1u);
  EXPECT_EQ(producer.privates[0]->name, "first");
  auto scatter = p.verdict_of("f", 2);
  EXPECT_TRUE(scatter.parallel) << blockers(scatter);
  EXPECT_EQ(scatter.property, EnablingProperty::SubsetInjective);
}

// --------------------------------------------------------------------------
// Chain injectivity (recurrence layer)
// --------------------------------------------------------------------------

constexpr const char* kSymbolicStrideScatter = R"(
  int n; int m; int idx[4096]; double x[4096]; double y[4096];
  void f() {
    for (int i = 0; i < n; i++) {
      idx[i] = m * i + 2;
    }
    for (int i = 0; i < n; i++) {
      y[idx[i]] = x[i] + 1.0;
    }
  }
)";

TEST(Parallelizer, SymbolicStrideFillProvesChainInjectivity) {
  auto p = build(kSymbolicStrideScatter, {{"n", 1}, {"m", 1}});
  auto v = p.verdict_of("f", 1);
  EXPECT_TRUE(v.parallel) << blockers(v);
  EXPECT_EQ(v.property, EnablingProperty::AffineInjective);
  EXPECT_EQ(v.reason, "affine-injective index array (provably nonzero chain stride)");
  EXPECT_TRUE(v.uses_subscripted_subscripts);
}

TEST(Parallelizer, ChainInjectivityIsLoadBearing) {
  // The symbolic stride m*i is invisible to the integer-coefficient affine
  // rule, so with the chain rule disabled the scatter must not be statically
  // parallel — the entry parallelizes only via the new proof.
  AnalyzerOptions options;
  options.enable_chain_injectivity_rule = false;
  auto p = build(kSymbolicStrideScatter, {{"n", 1}, {"m", 1}}, options);
  auto v = p.verdict_of("f", 1);
  EXPECT_FALSE(v.parallel);
  // It stays a hybrid candidate: injectivity of idx is the single unproven
  // property, discharged at runtime instead.
  EXPECT_TRUE(v.hybrid);
  EXPECT_EQ(v.hybrid_property, EnablingProperty::Injective);
}

TEST(Parallelizer, AffineValueAndChainKnobsAreIndependent) {
  // One chain lookup serves both rules: a constant stride goes to the
  // affine-value rule, a symbolic stride to the chain-injectivity rule.
  // Switching either knob off must leave the other rule's proofs intact.
  AnalyzerOptions no_affine_value;
  no_affine_value.enable_affine_value_rule = false;
  auto symbolic = build(kSymbolicStrideScatter, {{"n", 1}, {"m", 1}}, no_affine_value);
  auto v = symbolic.verdict_of("f", 1);
  EXPECT_TRUE(v.parallel) << blockers(v);
  EXPECT_EQ(v.property, EnablingProperty::AffineInjective);

  AnalyzerOptions no_chain;
  no_chain.enable_chain_injectivity_rule = false;
  auto constant = build(R"(
    int n; int q; int idx[4096]; double x[4096]; double y[4096];
    void f() {
      for (int i = 0; i < n; i++) {
        idx[i] = 3 * i + q;
      }
      for (int i = 0; i < n; i++) {
        y[idx[i]] = x[i] + 1.0;
      }
    }
  )", {{"n", 1}, {"q", 0}}, no_chain);
  v = constant.verdict_of("f", 1);
  EXPECT_TRUE(v.parallel) << blockers(v);
  // The affine-value rule's step fact orders the subscripts.
  EXPECT_EQ(v.property, EnablingProperty::Monotonic);
}

TEST(Parallelizer, ChainInjectivityUnprovableStrideSignStaysSerial) {
  // Without the m >= 1 assumption the stride could be zero, so the chain
  // rule must not fire (idx could be constant and the scatter colliding).
  auto p = build(kSymbolicStrideScatter, {{"n", 1}});
  auto v = p.verdict_of("f", 1);
  EXPECT_FALSE(v.parallel);
}

TEST(Parallelizer, DecreasingSymbolicStrideChainInjectivity) {
  auto p = build(R"(
    int n; int m; int q; int idx[4096]; double x[4096]; double y[4096];
    void f() {
      for (int i = 0; i < n; i++) {
        idx[i] = q - m * i;
      }
      for (int i = 0; i < n; i++) {
        y[idx[i]] = x[i] * 2.0;
      }
    }
  )", {{"n", 1}, {"m", 1}, {"q", 200}});
  auto v = p.verdict_of("f", 1);
  EXPECT_TRUE(v.parallel) << blockers(v);
  EXPECT_EQ(v.property, EnablingProperty::AffineInjective);
}

TEST(Parallelizer, ScheduleHintStaticForConstantStrideChains) {
  auto p = build(R"(
    int n; int a[100]; int b[100];
    void f() {
      for (int i = 0; i < n; i++) {
        a[i] = b[i] + 1;
      }
    }
  )", {{"n", 1}});
  auto v = p.verdict_of("f", 0);
  ASSERT_TRUE(v.parallel) << blockers(v);
  EXPECT_EQ(v.schedule, LoopVerdict::ScheduleHint::Static);
  EXPECT_FALSE(v.schedule_reason.empty());
}

TEST(Parallelizer, ScheduleHintDynamicForIndexArrayDependentRanges) {
  // CSR-style traversal: per-iteration work is rowstr[i+1] - rowstr[i],
  // which varies with index-array contents.
  auto p = build(R"(
    int n; int rowstr[100]; int colidx[1000]; double a[1000];
    double x[100]; double y[100];
    void f() {
      for (int i = 0; i < n; i++) {
        double sum = 0.0;
        for (int k = rowstr[i]; k < rowstr[i+1]; k++) {
          sum = sum + a[k] * x[colidx[k]];
        }
        y[i] = sum;
      }
    }
  )", {{"n", 1}});
  auto v = p.verdict_of("f", 0);
  ASSERT_TRUE(v.parallel) << blockers(v);
  EXPECT_EQ(v.schedule, LoopVerdict::ScheduleHint::Dynamic);
}

}  // namespace
}  // namespace sspar::core
