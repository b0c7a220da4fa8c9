// Direct unit tests for the fact database (sections, kills, queries) and the
// canonical-loop recognizer.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <random>
#include <string>
#include <vector>

#include "core/facts.h"
#include "core/loop_info.h"
#include "frontend/frontend.h"
#include "support/diagnostics.h"

namespace sspar::core {
namespace {

class FactDbTest : public ::testing::Test {
 protected:
  sym::SymbolTable syms;
  sym::SymbolId arr = syms.intern("arr");
  sym::SymbolId n = syms.intern("n");
  sym::AssumptionContext ctx;

  void SetUp() override { ctx.assume_ge(n, 10); }

  sym::ExprPtr c(int64_t v) { return sym::make_const(v); }
  sym::ExprPtr N() { return sym::make_sym(n); }
};

TEST_F(FactDbTest, ValueFactCoverage) {
  FactDB db;
  db.add_value(arr, ValueFact{c(0), sym::sub(N(), c(1)), sym::Range::of_consts(0, 9)});
  EXPECT_TRUE(db.elem_value(arr, c(0), ctx).has_value());
  // Index n is outside [0 : n-1].
  EXPECT_FALSE(db.elem_value(arr, N(), ctx).has_value());
  // Unknown array.
  EXPECT_FALSE(db.elem_value(syms.intern("other"), c(0), ctx).has_value());
}

TEST_F(FactDbTest, StepFactScalesWithDistance) {
  FactDB db;
  db.add_step(arr, StepFact{c(1), N(), sym::Range::of_consts(2, 5)});
  auto diff = db.elem_diff(arr, c(3), c(1), ctx);
  ASSERT_TRUE(diff.has_value());
  EXPECT_EQ(sym::to_string(diff->lo(), syms), "4");   // 2 * 2
  EXPECT_EQ(sym::to_string(diff->hi(), syms), "10");  // 2 * 5
  // Reverse order negates.
  auto rev = db.elem_diff(arr, c(1), c(3), ctx);
  ASSERT_TRUE(rev.has_value());
  EXPECT_EQ(sym::to_string(rev->lo(), syms), "-10");
  // Zero distance.
  auto zero = db.elem_diff(arr, c(2), c(2), ctx);
  ASSERT_TRUE(zero.has_value());
  EXPECT_TRUE(zero->is_exact());
}

TEST_F(FactDbTest, StepFactRejectsUncoveredLinks) {
  FactDB db;
  db.add_step(arr, StepFact{c(1), c(5), sym::Range::of_consts(1, 1)});
  // Links (5, 6] are outside the fact.
  EXPECT_FALSE(db.elem_diff(arr, c(6), c(4), ctx).has_value());
  // Symbolic distance is rejected.
  EXPECT_FALSE(db.elem_diff(arr, N(), c(0), ctx).has_value());
}

TEST_F(FactDbTest, AnchoredValueDerivation) {
  FactDB db;
  // arr[0] = 0 and non-negative steps: arr[k] >= 0 for covered k.
  db.add_value(arr, ValueFact{c(0), c(0), sym::Range::of_consts(0, 0)});
  db.add_step(arr, StepFact{c(1), N(), sym::Range::of_consts(0, 3)});
  sym::AssumptionContext q = ctx;
  sym::SymbolId b = syms.intern("b");
  q.assume(b, sym::Range::of(c(0), sym::sub(N(), c(1))));
  auto value = db.elem_value(arr, sym::make_sym(b), q);
  ASSERT_TRUE(value.has_value());
  ASSERT_TRUE(value->lo_bounded());
  EXPECT_EQ(sym::to_string(value->lo(), syms), "0");
  EXPECT_EQ(sym::to_string(value->hi(), syms), "3*b");
}

TEST_F(FactDbTest, KillOverlappingDropsOnlyIntersecting) {
  FactDB db;
  db.add_value(arr, ValueFact{c(0), c(9), sym::Range::of_consts(1, 1)});
  db.add_value(arr, ValueFact{c(20), c(29), sym::Range::of_consts(2, 2)});
  db.kill_overlapping(arr, c(5), c(12), ctx);
  EXPECT_FALSE(db.elem_value(arr, c(0), ctx).has_value());   // overlapped
  EXPECT_TRUE(db.elem_value(arr, c(25), ctx).has_value());   // disjoint
}

TEST_F(FactDbTest, KillWithUnboundedSectionDropsAll) {
  FactDB db;
  db.add_value(arr, ValueFact{c(0), c(9), sym::Range::of_consts(1, 1)});
  db.kill_overlapping(arr, nullptr, nullptr, ctx);
  EXPECT_FALSE(db.elem_value(arr, c(0), ctx).has_value());
}

TEST_F(FactDbTest, KillSparesFactsProvablyDisjointUnderSymbolicBounds) {
  FactDB db;
  // Fact about [0 : n-1]; write to [n : n+9]. Disjointness needs the symbol
  // bound n >= 10 from the context — a purely constant comparison cannot
  // decide it.
  db.add_value(arr, ValueFact{c(0), sym::sub(N(), c(1)), sym::Range::of_consts(1, 1)});
  db.add_injective(arr, InjectiveFact{c(0), sym::sub(N(), c(1)), std::nullopt});
  db.kill_overlapping(arr, N(), sym::add(N(), c(9)), ctx);
  EXPECT_TRUE(db.elem_value(arr, c(0), ctx).has_value());
  EXPECT_TRUE(db.injective_over(arr, c(0), sym::sub(N(), c(1)), ctx));

  // The same write kills a fact whose section reaches index n.
  db.add_value(arr, ValueFact{c(0), N(), sym::Range::of_consts(2, 2)});
  db.kill_overlapping(arr, N(), sym::add(N(), c(9)), ctx);
  EXPECT_TRUE(db.elem_value(arr, c(0), ctx).has_value());  // [0:n-1] fact survives
  EXPECT_FALSE(db.elem_value(arr, N(), ctx).has_value());  // [0:n] fact is gone
}

TEST_F(FactDbTest, HalfUnboundedWriteKillsOnlyFactsItMayReach) {
  FactDB db;
  // Fact entirely below the write's lower bound: still provably disjoint.
  db.add_value(arr, ValueFact{c(0), c(9), sym::Range::of_consts(1, 1)});
  // Fact whose section reaches into [100 : ∞): must die.
  db.add_value(arr, ValueFact{c(50), c(200), sym::Range::of_consts(2, 2)});
  db.kill_overlapping(arr, c(100), nullptr, ctx);
  EXPECT_TRUE(db.elem_value(arr, c(0), ctx).has_value());
  EXPECT_FALSE(db.elem_value(arr, c(150), ctx).has_value());
  EXPECT_FALSE(db.elem_value(arr, c(60), ctx).has_value());  // whole fact gone
}

TEST_F(FactDbTest, FullyUnboundedWriteDropsEveryFactKind) {
  FactDB db;
  db.add_value(arr, ValueFact{c(0), c(9), sym::Range::of_consts(1, 1)});
  db.add_step(arr, StepFact{c(1), c(9), sym::Range::of_consts(1, 1)});
  db.add_injective(arr, InjectiveFact{c(0), c(9), std::nullopt});
  db.add_identity(arr, IdentityFact{c(0), c(9)});
  // Both bounds unknown: no disjointness proof can succeed for any fact.
  db.kill_overlapping(arr, nullptr, nullptr, ctx);
  EXPECT_FALSE(db.elem_value(arr, c(0), ctx).has_value());
  EXPECT_FALSE(db.elem_diff(arr, c(2), c(1), ctx).has_value());
  EXPECT_FALSE(db.injective_over(arr, c(0), c(9), ctx));
  EXPECT_FALSE(db.identity_over(arr, c(0), c(9), ctx));
}

TEST_F(FactDbTest, WithFactsContextObservesPostKillState) {
  FactDB db;
  db.add_value(arr, ValueFact{c(0), c(9), sym::Range::of_consts(0, 5)});
  db.add_step(arr, StepFact{c(1), c(9), sym::Range::of_consts(1, 1)});

  // Before the kill, the derived context answers element queries.
  sym::AssumptionContext with = db.with_facts(ctx);
  ASSERT_TRUE(with.elem_value());
  ASSERT_TRUE(with.elem_diff());
  EXPECT_TRUE(with.elem_value()(arr, c(3)).has_value());
  EXPECT_TRUE(with.elem_diff()(arr, c(5), c(2)).has_value());

  // Kill overlapping facts. The context references the FactDB (not a copy),
  // so the same context object must stop answering.
  db.kill_overlapping(arr, c(3), c(3), ctx);
  EXPECT_FALSE(with.elem_value()(arr, c(3)).has_value());
  EXPECT_FALSE(with.elem_diff()(arr, c(5), c(2)).has_value());

  // A context rebuilt after the kill agrees.
  sym::AssumptionContext rebuilt = db.with_facts(ctx);
  EXPECT_FALSE(rebuilt.elem_value()(arr, c(3)).has_value());
}

TEST_F(FactDbTest, StepFactKilledByWriteToBaseElement) {
  FactDB db;
  // Links [1:9] read element 0; writing element 0 must kill the fact.
  db.add_step(arr, StepFact{c(1), c(9), sym::Range::of_consts(1, 1)});
  db.kill_overlapping(arr, c(0), c(0), ctx);
  EXPECT_FALSE(db.elem_diff(arr, c(2), c(1), ctx).has_value());
}

TEST_F(FactDbTest, IdentityImpliesEverything) {
  FactDB db;
  db.add_identity(arr, IdentityFact{c(0), sym::sub(N(), c(1))});
  EXPECT_TRUE(db.identity_over(arr, c(0), sym::sub(N(), c(1)), ctx));
  EXPECT_TRUE(db.injective_over(arr, c(0), sym::sub(N(), c(1)), ctx));
  auto value = db.elem_value(arr, c(3), ctx);
  ASSERT_TRUE(value.has_value());
  EXPECT_TRUE(sym::equal(value->exact_value(), c(3)));
  auto diff = db.elem_diff(arr, c(5), c(2), ctx);
  ASSERT_TRUE(diff.has_value());
  EXPECT_EQ(sym::to_string(diff->lo(), syms), "3");
}

TEST_F(FactDbTest, StrictStepImpliesInjectivity) {
  FactDB db;
  db.add_step(arr, StepFact{c(1), c(9), sym::Range::of_consts(1, 4)});
  EXPECT_TRUE(db.injective_over(arr, c(0), c(9), ctx));
  FactDB loose;
  loose.add_step(arr, StepFact{c(1), c(9), sym::Range::of_consts(0, 4)});
  EXPECT_FALSE(loose.injective_over(arr, c(0), c(9), ctx));
  FactDB dec;
  dec.add_step(arr, StepFact{c(1), c(9), sym::Range::of_consts(-3, -1)});
  EXPECT_TRUE(dec.injective_over(arr, c(0), c(9), ctx));
}

TEST_F(FactDbTest, SubsetInjectivityReportsThreshold) {
  FactDB db;
  db.add_injective(arr, InjectiveFact{c(0), c(9), 0});
  std::optional<int64_t> min_value;
  EXPECT_TRUE(db.injective_over(arr, c(0), c(9), ctx, &min_value));
  ASSERT_TRUE(min_value.has_value());
  EXPECT_EQ(*min_value, 0);
}

TEST_F(FactDbTest, ToStringListsFacts) {
  FactDB db;
  db.add_value(arr, ValueFact{c(0), c(9), sym::Range::of_consts(0, 5)});
  db.add_step(arr, StepFact{c(1), c(9), sym::Range::of_consts(0, 2)});
  std::string dump = db.to_string(syms);
  EXPECT_NE(dump.find("arr"), std::string::npos);
  EXPECT_NE(dump.find("step"), std::string::npos);
}

// --------------------------------------------------------------------------
// Persistence: copies share structure, never state
// --------------------------------------------------------------------------

TEST_F(FactDbTest, CopiesAreIsolatedInBothDirections) {
  sym::SymbolId other = syms.intern("other");
  FactDB db;
  db.add_value(arr, ValueFact{c(0), c(9), sym::Range::of_consts(0, 5)});
  db.add_step(arr, StepFact{c(1), c(9), sym::Range::of_consts(1, 1)});
  db.add_value(other, ValueFact{c(0), c(3), sym::Range::of_consts(7, 7)});
  const std::string original = db.to_string(syms);

  using Mutation = std::function<void(FactDB&)>;
  const std::vector<std::pair<const char*, Mutation>> mutations = {
      {"add_value",
       [&](FactDB& d) { d.add_value(arr, ValueFact{c(20), c(29), sym::Range::of_consts(1, 1)}); }},
      {"add_step",
       [&](FactDB& d) { d.add_step(other, StepFact{c(1), c(3), sym::Range::of_consts(0, 2)}); }},
      {"add_injective",
       [&](FactDB& d) { d.add_injective(arr, InjectiveFact{c(0), c(9), std::nullopt}); }},
      {"add_identity", [&](FactDB& d) { d.add_identity(syms.intern("fresh"), {c(0), c(4)}); }},
      {"kill_overlapping", [&](FactDB& d) { d.kill_overlapping(arr, c(5), c(5), ctx); }},
      {"kill_all", [&](FactDB& d) { d.kill_all(other); }},
      {"restore", [&](FactDB& d) {
         ArrayFacts facts;
         facts.injectives.push_back(InjectiveFact{c(0), c(1), 0});
         d.restore(arr, std::move(facts));
       }},
  };
  for (const auto& [name, mutate] : mutations) {
    // The copy changes; the source does not.
    FactDB copy = db;
    mutate(copy);
    EXPECT_NE(copy.to_string(syms), original) << name;
    EXPECT_EQ(db.to_string(syms), original) << name;
    // The source changes; an earlier copy does not.
    FactDB source = db;
    FactDB snapshot = source;
    mutate(source);
    EXPECT_EQ(snapshot.to_string(syms), original) << name;
  }
}

TEST_F(FactDbTest, UntouchedArraysKeepTheirFactsAcrossCopies) {
  sym::SymbolId other = syms.intern("other");
  FactDB db;
  db.add_value(arr, ValueFact{c(0), c(9), sym::Range::of_consts(0, 5)});
  db.add_value(other, ValueFact{c(0), c(3), sym::Range::of_consts(7, 7)});
  FactDB copy = db;
  EXPECT_EQ(copy.find(arr), db.find(arr));
  EXPECT_EQ(copy.find(other), db.find(other));

  // A duplicate fact and a kill that provably misses every fact are no-ops:
  // neither clones the array's facts.
  copy.add_value(arr, ValueFact{c(0), c(9), sym::Range::of_consts(0, 5)});
  copy.kill_overlapping(arr, c(100), c(200), ctx);
  EXPECT_EQ(copy.find(arr), db.find(arr));

  // A real mutation clones only the array it lands on.
  copy.add_value(arr, ValueFact{c(20), c(29), sym::Range::of_consts(1, 1)});
  EXPECT_NE(copy.find(arr), db.find(arr));
  EXPECT_EQ(copy.find(other), db.find(other));
  ASSERT_NE(db.find(arr), nullptr);
  EXPECT_EQ(db.find(arr)->values.size(), 1u);
  EXPECT_EQ(copy.find(arr)->values.size(), 2u);
}

TEST_F(FactDbTest, IteratesInAscendingSymbolOrderAcrossCapacityGrowth) {
  // Keys beyond every smaller trie height, inserted out of order: the first
  // key fits a one-level trie, later ones force the root to grow.
  const std::vector<sym::SymbolId> keys = {5,    1u << 20, 31, 32,         0,
                                           1023, 1024,     70, 0xFFFFFFFEu, 1u << 25};
  FactDB db;
  EXPECT_TRUE(db.empty());
  EXPECT_EQ(db.begin(), db.end());
  for (sym::SymbolId key : keys) {
    db.add_value(key, ValueFact{c(key % 7), c(key % 7), sym::Range::of_consts(1, 1)});
  }
  EXPECT_FALSE(db.empty());
  std::vector<sym::SymbolId> seen;
  for (const auto& [array, facts] : db) {
    seen.push_back(array);
    EXPECT_EQ(&facts, db.find(array));
  }
  std::vector<sym::SymbolId> sorted = keys;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(seen, sorted);
  EXPECT_EQ(db.find(1u << 21), nullptr);
  EXPECT_EQ(db.find(6), nullptr);

  for (sym::SymbolId key : keys) {
    ASSERT_NE(db.find(key), nullptr) << key;
    db.kill_all(key);
    EXPECT_EQ(db.find(key), nullptr) << key;
  }
  EXPECT_TRUE(db.empty());
  EXPECT_EQ(db.begin(), db.end());
}

// Reference model: a plain ordered map with the FactDB mutation rules
// (duplicates are dropped; kills keep the array's now-empty entry).
class ModelDb {
 public:
  template <typename Fact, typename Same>
  static void add(std::vector<Fact>& list, const Fact& fact, Same same) {
    for (const Fact& f : list) {
      if (same(f, fact)) return;
    }
    list.push_back(fact);
  }
  static bool same_section(const sym::ExprPtr& alo, const sym::ExprPtr& ahi,
                           const sym::ExprPtr& blo, const sym::ExprPtr& bhi) {
    return sym::equal(alo, blo) && sym::equal(ahi, bhi);
  }

  void add_value(sym::SymbolId a, const ValueFact& fact) {
    add(facts[a].values, fact, [](const ValueFact& x, const ValueFact& y) {
      return same_section(x.lo, x.hi, y.lo, y.hi) && x.value == y.value;
    });
  }
  void add_step(sym::SymbolId a, const StepFact& fact) {
    add(facts[a].steps, fact, [](const StepFact& x, const StepFact& y) {
      return same_section(x.lo, x.hi, y.lo, y.hi) && x.step == y.step;
    });
  }
  void add_injective(sym::SymbolId a, const InjectiveFact& fact) {
    add(facts[a].injectives, fact, [](const InjectiveFact& x, const InjectiveFact& y) {
      return same_section(x.lo, x.hi, y.lo, y.hi) && x.min_value == y.min_value;
    });
  }
  void add_identity(sym::SymbolId a, const IdentityFact& fact) {
    for (const IdentityFact& f : facts[a].identities) {
      if (same_section(f.lo, f.hi, fact.lo, fact.hi)) return;
    }
    add_value(a, ValueFact{fact.lo, fact.hi, sym::Range::of(fact.lo, fact.hi)});
    add_step(a, StepFact{sym::add(fact.lo, sym::make_const(1)), fact.hi,
                         sym::Range::of_consts(1, 1)});
    add_injective(a, InjectiveFact{fact.lo, fact.hi, std::nullopt});
    facts[a].identities.push_back(fact);
  }
  // Constant sections only: overlap is plain interval intersection.
  void kill_overlapping(sym::SymbolId a, int64_t lo, int64_t hi) {
    auto it = facts.find(a);
    if (it == facts.end()) return;
    auto hits = [&](const sym::ExprPtr& flo, const sym::ExprPtr& fhi, int64_t shift) {
      return !(*sym::const_value(fhi) < lo || hi < *sym::const_value(flo) - shift);
    };
    ArrayFacts& f = it->second;
    std::erase_if(f.values, [&](const ValueFact& v) { return hits(v.lo, v.hi, 0); });
    std::erase_if(f.steps, [&](const StepFact& v) { return hits(v.lo, v.hi, 1); });
    std::erase_if(f.injectives, [&](const InjectiveFact& v) { return hits(v.lo, v.hi, 0); });
    std::erase_if(f.identities, [&](const IdentityFact& v) { return hits(v.lo, v.hi, 0); });
  }
  void kill_all(sym::SymbolId a) { facts.erase(a); }
  void restore(sym::SymbolId a, const ArrayFacts& f) {
    if (f.empty()) {
      facts.erase(a);
    } else {
      facts[a] = f;
    }
  }

  std::map<sym::SymbolId, ArrayFacts> facts;
};

TEST_F(FactDbTest, RandomizedDifferentialAgainstOrderedMapModel) {
  std::mt19937 rng(20261019);
  auto pick = [&rng](uint32_t n) { return static_cast<uint32_t>(rng() % n); };
  // Small ids share one leaf node; the large ones force multi-level paths.
  const std::vector<sym::SymbolId> key_pool = {0,    1,    2,        7,          31,
                                               32,   33,   600,      1024,       40000,
                                               1u << 20, (1u << 20) + 1, 0xFFFFFFF0u};
  auto render = [this](const ArrayFacts& f) {
    auto e = [this](const sym::ExprPtr& x) { return sym::to_string(x, syms); };
    std::string out;
    for (const auto& v : f.values) out += "V" + e(v.lo) + ":" + e(v.hi) + v.value.to_string(syms);
    for (const auto& v : f.steps) out += "S" + e(v.lo) + ":" + e(v.hi) + v.step.to_string(syms);
    for (const auto& v : f.injectives) {
      out += "I" + e(v.lo) + ":" + e(v.hi) + (v.min_value ? std::to_string(*v.min_value) : "-");
    }
    for (const auto& v : f.identities) out += "D" + e(v.lo) + ":" + e(v.hi);
    return out;
  };
  auto check = [&](const FactDB& db, const ModelDb& model) {
    std::vector<std::pair<sym::SymbolId, std::string>> got, want;
    for (const auto& [array, facts] : db) got.emplace_back(array, render(facts));
    for (const auto& [array, facts] : model.facts) want.emplace_back(array, render(facts));
    EXPECT_EQ(got, want);
    EXPECT_EQ(db.empty(), model.facts.empty());
    for (sym::SymbolId key : key_pool) {
      EXPECT_EQ(db.find(key) != nullptr, model.facts.count(key) > 0) << key;
    }
  };

  std::vector<FactDB> dbs(1);
  std::vector<ModelDb> models(1);
  for (int step = 0; step < 4000; ++step) {
    const size_t v = pick(static_cast<uint32_t>(dbs.size()));
    const sym::SymbolId key = key_pool[pick(static_cast<uint32_t>(key_pool.size()))];
    const int64_t lo = pick(16), hi = lo + pick(8);
    FactDB& db = dbs[v];
    ModelDb& model = models[v];
    switch (pick(9)) {
      case 0: {
        ValueFact f{c(lo), c(hi), sym::Range::of_consts(pick(3), 3)};
        db.add_value(key, f);
        model.add_value(key, f);
        break;
      }
      case 1: {
        StepFact f{c(lo + 1), c(hi + 1), sym::Range::of_consts(pick(2), 2)};
        db.add_step(key, f);
        model.add_step(key, f);
        break;
      }
      case 2: {
        InjectiveFact f{c(lo), c(hi), pick(2) ? std::optional<int64_t>(0) : std::nullopt};
        f.from_chain = pick(2) == 0;
        db.add_injective(key, f);
        model.add_injective(key, f);
        break;
      }
      case 3:
        db.add_identity(key, IdentityFact{c(lo), c(hi)});
        model.add_identity(key, IdentityFact{c(lo), c(hi)});
        break;
      case 4:
        db.kill_overlapping(key, c(lo), c(hi), ctx);
        model.kill_overlapping(key, lo, hi);
        break;
      case 5:
        db.kill_all(key);
        model.kill_all(key);
        break;
      case 6: {
        ArrayFacts f;
        if (pick(3)) f.values.push_back(ValueFact{c(lo), c(hi), sym::Range::of_consts(9, 9)});
        db.restore(key, f);
        model.restore(key, f);
        break;
      }
      case 7:
        // Snapshot: a new version sharing everything with version v.
        if (dbs.size() < 8) {
          dbs.push_back(dbs[v]);
          models.push_back(models[v]);
          for (const auto& [array, facts] : dbs.back()) {
            EXPECT_EQ(&facts, dbs[v].find(array));
          }
        }
        break;
      default: {
        // Overwrite one version with another (copy assignment).
        const size_t from = pick(static_cast<uint32_t>(dbs.size()));
        dbs[v] = dbs[from];
        models[v] = models[from];
        break;
      }
    }
    // Every version must still match its model, not just the mutated one.
    for (size_t i = 0; i < dbs.size(); ++i) check(dbs[i], models[i]);
    if (HasFailure()) FAIL() << "diverged at step " << step;
  }
}

// --------------------------------------------------------------------------
// Canonical loop recognition
// --------------------------------------------------------------------------

const ast::For* first_loop(const ast::ParseResult& r) {
  return ast::collect_loops(r.program->functions[0]->body.get())[0];
}

ast::ParseResult parse(const char* src) {
  support::DiagnosticEngine diags;
  auto result = ast::parse_and_resolve(src, diags);
  EXPECT_TRUE(result.ok) << diags.dump();
  return result;
}

TEST(LoopInfo, RecognizesCanonicalForms) {
  for (const char* step : {"i++", "++i", "i += 1", "i = i + 1", "i = 1 + i"}) {
    std::string src = std::string("void f(int n, int a[]) { for (int i = 0; i < n; ") + step +
                      ") { a[i] = i; } }";
    auto r = parse(src.c_str());
    auto info = recognize_loop(*first_loop(r));
    ASSERT_TRUE(info.has_value()) << step;
    EXPECT_EQ(info->index->name, "i");
    EXPECT_FALSE(info->ub_inclusive);
  }
}

TEST(LoopInfo, InclusiveUpperBound) {
  auto r = parse("void f(int n, int a[]) { for (int i = 0; i <= n; i++) { a[i] = i; } }");
  auto info = recognize_loop(*first_loop(r));
  ASSERT_TRUE(info.has_value());
  EXPECT_TRUE(info->ub_inclusive);
}

TEST(LoopInfo, AssignmentInitOutsideDecl) {
  auto r = parse("void f(int n, int a[]) { int i; for (i = 2; i < n; i++) { a[i] = i; } }");
  EXPECT_TRUE(recognize_loop(*first_loop(r)).has_value());
}

TEST(LoopInfo, RejectsNonCanonical) {
  for (const char* loop : {
           "for (int i = 0; i < n; i += 2) { a[i] = i; }",
           "for (int i = n; i > 0; i--) { a[i] = i; }",
           "for (int i = 0; n > i; i++) { a[i] = i; }",
           "for (int i = 0; i != n; i++) { a[i] = i; }",
           "for (int i = 0; ; i++) { a[i] = i; break; }",
       }) {
    std::string src = std::string("void f(int n, int a[]) { ") + loop + " }";
    auto r = parse(src.c_str());
    EXPECT_FALSE(recognize_loop(*first_loop(r)).has_value()) << loop;
  }
}

TEST(LoopInfo, WrittenCollectorsFindAllTargets) {
  auto r = parse(R"(
    void f(int n, int s, int a[], int b[]) {
      for (int i = 0; i < n; i++) {
        s += 1;
        a[i] = i;
        b[a[i]]++;
      }
    }
  )");
  const ast::For* loop = first_loop(r);
  auto scalars = written_scalars(*loop);
  auto arrays = written_arrays(*loop);
  ASSERT_EQ(scalars.size(), 2u);  // s and i (step)
  EXPECT_EQ(arrays.size(), 2u);   // a and b
}

}  // namespace
}  // namespace sspar::core
