// Chains-of-recurrences canonicalization (symbolic/recurrence.h): randomized
// differential checks against brute-force substitution, pointer-equality
// stability within a builder, the integer-coefficient view anchored at 0, and
// the relocated-loop regression.
#include "symbolic/recurrence.h"

#include <gtest/gtest.h>

#include <random>

#include "symbolic/arena.h"
#include "symbolic/expr.h"

namespace sspar::sym {
namespace {

constexpr SymbolId kI = 1;   // loop index
constexpr SymbolId kJ = 2;   // outer loop index
constexpr SymbolId kM = 3;   // symbolic stride
constexpr SymbolId kQ = 4;   // symbolic offset
constexpr SymbolId kArr = 9;

// A random expression affine in kI: c1*i + c2*m*i + c3*j + c4*q + c5.
ExprPtr random_affine(std::mt19937& rng) {
  std::uniform_int_distribution<int64_t> coeff(-5, 5);
  ExprPtr i = make_sym(kI);
  ExprPtr e = make_const(coeff(rng));
  e = add(e, mul_const(i, coeff(rng)));
  e = add(e, mul_const(mul(make_sym(kM), i), coeff(rng)));
  e = add(e, mul_const(make_sym(kJ), coeff(rng)));
  e = add(e, mul_const(make_sym(kQ), coeff(rng)));
  return e;
}

TEST(RecurrenceTest, DifferentialAgainstSubstitution) {
  // value_at(chain, k) must be pointer-equal to substituting k for the index:
  // both canonicalize through the same interning arena.
  std::mt19937 rng(20260808);
  std::uniform_int_distribution<int64_t> first_dist(-3, 3);
  RecurrenceBuilder& rec = ExprArena::current().recurrences();
  for (int trial = 0; trial < 200; ++trial) {
    ExprPtr e = random_affine(rng);
    ExprPtr first = make_const(first_dist(rng));
    const RecChain* chain = rec.chain_for(e, kI, first);
    ASSERT_NE(chain, nullptr);
    for (int64_t k = -4; k <= 8; ++k) {
      ExprPtr at_k = RecurrenceBuilder::value_at(*chain, make_const(k));
      ExprPtr brute = subst_sym(e, kI, make_const(k));
      EXPECT_EQ(at_k, brute) << "trial " << trial << " k " << k;
    }
  }
}

TEST(RecurrenceTest, DifferentialNumericOnRandomizedNests) {
  // Concretize every free symbol and compare numeric evaluation of the chain
  // against the original expression across a simulated loop nest
  // (j outer, i inner) — the interpreter's-eye view of the subscripts.
  std::mt19937 rng(7);
  std::uniform_int_distribution<int64_t> val(-7, 7);
  RecurrenceBuilder& rec = ExprArena::current().recurrences();
  for (int trial = 0; trial < 100; ++trial) {
    ExprPtr e = random_affine(rng);
    int64_t m = val(rng), q = val(rng);
    for (int64_t j = 0; j < 3; ++j) {
      auto concretize = [&](ExprPtr x) {
        x = subst_sym(x, kM, make_const(m));
        x = subst_sym(x, kQ, make_const(q));
        return subst_sym(x, kJ, make_const(j));
      };
      const RecChain* chain = rec.chain_for(e, kI, make_const(0));
      ASSERT_NE(chain, nullptr);
      for (int64_t i = 0; i < 6; ++i) {
        auto expect = const_value(concretize(subst_sym(e, kI, make_const(i))));
        ExprPtr base = concretize(chain->base);
        ExprPtr stride = concretize(chain->stride);
        auto got = const_value(add(base, mul_const(stride, i)));
        ASSERT_TRUE(expect.has_value());
        ASSERT_TRUE(got.has_value());
        EXPECT_EQ(*got, *expect) << "trial " << trial << " j " << j << " i " << i;
      }
    }
  }
}

TEST(RecurrenceTest, ChainsArePointerEqualWithinBuilder) {
  RecurrenceBuilder& rec = ExprArena::current().recurrences();
  ExprPtr e1 = add(mul_const(make_sym(kI), 3), make_sym(kQ));
  const RecChain* a = rec.chain_for(e1, kI, make_const(0));
  // Rebuild the structurally identical expression through different factory
  // paths; interning makes it the same node, and the chain memo the same chain.
  ExprPtr e2 = add(make_sym(kQ), mul(make_sym(kI), make_const(3)));
  const RecChain* b = rec.chain_for(e2, kI, make_const(0));
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a, b);
  EXPECT_EQ(RecurrenceBuilder::const_stride(*a), std::optional<int64_t>(3));
}

TEST(RecurrenceTest, RelocatedIdenticalLoopProducesIdenticalChain) {
  // Regression: a loop that moved in the source (same bounds, same body)
  // re-derives its subscript expressions later and in a different creation
  // order; the chain must come back pointer-identical, not merely equal.
  RecurrenceBuilder& rec = ExprArena::current().recurrences();
  ExprPtr subscript = add(mul(make_sym(kM), make_sym(kI)), make_const(2));
  const RecChain* before = rec.chain_for(subscript, kI, make_const(0));
  ASSERT_NE(before, nullptr);
  // Unrelated interning traffic between the two "locations".
  for (int64_t v = 100; v < 140; ++v) {
    (void)add(make_sym(kQ), make_const(v));
    (void)make_array_elem(kArr, make_const(v));
  }
  ExprPtr relocated = add(make_const(2), mul(make_sym(kI), make_sym(kM)));
  const RecChain* after = rec.chain_for(relocated, kI, make_const(0));
  EXPECT_EQ(before, after);
}

TEST(RecurrenceTest, AnchoredAtZeroGivesIntegerCoefficientAndRest) {
  // Anchored at 0, a chain reads as e == stride * i + base: the view the
  // aggregation rules and the injectivity test take of subscripts and values.
  RecurrenceBuilder& rec = ExprArena::current().recurrences();
  ExprPtr i = make_sym(kI);
  const RecChain* affine = rec.chain_for(add(mul_const(i, 7), make_const(5)), kI, make_const(0));
  ASSERT_NE(affine, nullptr);
  EXPECT_EQ(RecurrenceBuilder::const_stride(*affine), std::optional<int64_t>(7));
  EXPECT_EQ(const_value(affine->base), std::optional<int64_t>(5));

  const RecChain* constant = rec.chain_for(make_const(4), kI, make_const(0));
  ASSERT_NE(constant, nullptr);
  EXPECT_EQ(RecurrenceBuilder::const_stride(*constant), std::optional<int64_t>(0));
  EXPECT_EQ(const_value(constant->base), std::optional<int64_t>(4));

  // i + n: unit stride, but the rest is symbolic, not an integer offset.
  const RecChain* offset = rec.chain_for(add(i, make_sym(kQ)), kI, make_const(0));
  ASSERT_NE(offset, nullptr);
  EXPECT_EQ(RecurrenceBuilder::const_stride(*offset), std::optional<int64_t>(1));
  EXPECT_FALSE(is_const(offset->base));
  EXPECT_EQ(offset->base, make_sym(kQ));
}

TEST(RecurrenceTest, NestedChainOverOuterIndex) {
  // e = 4*j + i: the inner chain's base (over i, anchored at i = 0) is 4*j,
  // itself a chain over the outer index j.
  RecurrenceBuilder& rec = ExprArena::current().recurrences();
  ExprPtr e = add(mul_const(make_sym(kJ), 4), make_sym(kI));
  const RecChain* inner = rec.chain_for(e, kI, make_const(0));
  ASSERT_NE(inner, nullptr);
  EXPECT_EQ(RecurrenceBuilder::const_stride(*inner), std::optional<int64_t>(1));
  const RecChain* outer = rec.chain_for(inner->base, kJ, make_const(0));
  ASSERT_NE(outer, nullptr);
  EXPECT_EQ(RecurrenceBuilder::const_stride(*outer), std::optional<int64_t>(4));
  EXPECT_EQ(const_value(outer->base), std::optional<int64_t>(0));
}

TEST(RecurrenceTest, RejectsNonAffineAndLambdaDependence) {
  RecurrenceBuilder& rec = ExprArena::current().recurrences();
  ExprPtr i = make_sym(kI);
  // i*i: the index appears twice in one product.
  EXPECT_EQ(rec.chain_for(mul(i, i), kI, make_const(0)), nullptr);
  // a[i]: the index inside a subscript.
  EXPECT_EQ(rec.chain_for(make_array_elem(kArr, i), kI, make_const(0)), nullptr);
  // λ(x) + i: per-iteration state with no closed form over i.
  EXPECT_EQ(rec.chain_for(add(make_iter_start(kQ), i), kI, make_const(0)), nullptr);
  // div(i, 2): non-linear in the index.
  EXPECT_EQ(rec.chain_for(div_floor(i, make_const(2)), kI, make_const(0)), nullptr);
  // Index-free expressions are the degenerate {e, +, 0} chain.
  const RecChain* inv = rec.chain_for(make_sym(kQ), kI, make_const(0));
  ASSERT_NE(inv, nullptr);
  EXPECT_EQ(RecurrenceBuilder::const_stride(*inv), std::optional<int64_t>(0));
  // Failures are memoized too (second query answers from the memo).
  size_t hits = rec.stats().memo_hits;
  EXPECT_EQ(rec.chain_for(mul(i, i), kI, make_const(0)), nullptr);
  EXPECT_GT(rec.stats().memo_hits, hits);
}

}  // namespace
}  // namespace sspar::sym
