#include <gtest/gtest.h>

#include "symbolic/expr.h"

namespace sspar::sym {
namespace {

class ExprTest : public ::testing::Test {
 protected:
  SymbolTable syms;
  SymbolId i = syms.intern("i");
  SymbolId n = syms.intern("n");
  SymbolId a = syms.intern("a");

  ExprPtr I() { return make_sym(i); }
  ExprPtr N() { return make_sym(n); }
  std::string str(const ExprPtr& e) { return to_string(e, syms); }
};

TEST_F(ExprTest, ConstFolding) {
  EXPECT_EQ(str(add(make_const(2), make_const(3))), "5");
  EXPECT_EQ(str(sub(make_const(2), make_const(3))), "-1");
  EXPECT_EQ(str(mul(make_const(4), make_const(-3))), "-12");
}

TEST_F(ExprTest, AdditionCanonicalizes) {
  // i + i == 2*i
  EXPECT_EQ(str(add(I(), I())), "2*i");
  // i - i == 0
  EXPECT_EQ(str(sub(I(), I())), "0");
  // (i + 2) + (n - 2) == i + n
  auto e = add(add(I(), make_const(2)), sub(N(), make_const(2)));
  EXPECT_EQ(str(e), "i + n");
}

TEST_F(ExprTest, StructuralEqualityIsSemanticForAffine) {
  auto e1 = add(mul_const(I(), 3), sub(N(), make_const(1)));
  auto e2 = sub(add(N(), mul_const(I(), 3)), make_const(1));
  EXPECT_TRUE(equal(e1, e2));
  EXPECT_EQ(compare(e1, e2), 0);
  EXPECT_EQ(hash(e1), hash(e2));
}

TEST_F(ExprTest, MulDistributesOverAdd) {
  // (i + 1) * 3 == 3*i + 3
  EXPECT_EQ(str(mul(add(I(), make_const(1)), make_const(3))), "3*i + 3");
  // (i + 1) * (i - 1) == i*i - 1
  auto e = mul(add(I(), make_const(1)), sub(I(), make_const(1)));
  EXPECT_EQ(str(e), "i*i - 1");
}

TEST_F(ExprTest, MulProductsAreSorted) {
  auto e1 = mul(N(), I());
  auto e2 = mul(I(), N());
  EXPECT_TRUE(equal(e1, e2));
}

TEST_F(ExprTest, BottomAbsorbs) {
  EXPECT_TRUE(is_bottom(add(make_bottom(), I())));
  EXPECT_TRUE(is_bottom(mul(I(), make_bottom())));
  EXPECT_TRUE(is_bottom(smin(make_bottom(), I())));
  EXPECT_TRUE(is_bottom(make_array_elem(a, make_bottom())));
}

TEST_F(ExprTest, DivFloorFolding) {
  EXPECT_EQ(str(div_floor(make_const(7), make_const(2))), "3");
  EXPECT_EQ(str(div_floor(make_const(-7), make_const(2))), "-4");
  EXPECT_EQ(str(div_floor(I(), make_const(1))), "i");
  EXPECT_TRUE(is_bottom(div_floor(I(), make_const(0))));
}

TEST_F(ExprTest, ModFolding) {
  EXPECT_EQ(str(mod(make_const(7), make_const(3))), "1");
  EXPECT_EQ(str(mod(make_const(-1), make_const(8))), "7");  // floor-mod
  EXPECT_EQ(str(mod(I(), make_const(1))), "0");
}

TEST_F(ExprTest, MinMaxFolding) {
  EXPECT_EQ(str(smin(make_const(3), make_const(5))), "3");
  EXPECT_EQ(str(smax(make_const(3), make_const(5))), "5");
  EXPECT_EQ(str(smin(I(), I())), "i");
  // min(i, i+3) folds to i via constant difference.
  EXPECT_EQ(str(smin(I(), add(I(), make_const(3)))), "i");
  EXPECT_EQ(str(smax(I(), add(I(), make_const(3)))), "i + 3");
}

TEST_F(ExprTest, MinMaxFlattenAndDedup) {
  auto e = smin(smin(I(), N()), I());
  EXPECT_EQ(str(e), "min(i, n)");
}

TEST_F(ExprTest, ArrayElemPrinting) {
  auto e = make_array_elem(a, sub(I(), make_const(1)));
  EXPECT_EQ(str(e), "a[i - 1]");
}

TEST_F(ExprTest, LambdaPrinting) {
  EXPECT_EQ(str(make_iter_start(i)), "lam.i");
  EXPECT_EQ(str(make_loop_start(i)), "LAM.i");
  EXPECT_EQ(str(make_bottom()), "_|_");
}

TEST_F(ExprTest, LinearFormRoundTrip) {
  auto e = add(mul_const(I(), 3), add(mul_const(make_array_elem(a, I()), -2), make_const(7)));
  LinearForm lf = to_linear(e);
  EXPECT_FALSE(lf.bottom);
  EXPECT_EQ(lf.constant, 7);
  EXPECT_EQ(lf.terms.size(), 2u);
  EXPECT_EQ(lf.coeff_of(I()), 3);
  EXPECT_EQ(lf.coeff_of(make_array_elem(a, I())), -2);
  EXPECT_TRUE(equal(from_linear(lf), e));
}

TEST_F(ExprTest, SubstSym) {
  auto e = add(mul_const(I(), 2), N());
  auto r = subst_sym(e, i, make_const(5));
  EXPECT_EQ(str(r), "n + 10");
}

TEST_F(ExprTest, SubstIterAndLoopStart) {
  SymbolId x = syms.intern("x");
  auto e = add(make_iter_start(x), make_const(1));
  auto r = subst_iter_start(e, x, make_loop_start(x));
  EXPECT_EQ(str(r), "LAM.x + 1");
  r = subst_loop_start(r, x, make_const(0));
  EXPECT_EQ(str(r), "1");
}

TEST_F(ExprTest, SubstInsideArrayElem) {
  auto e = make_array_elem(a, sub(I(), make_const(1)));
  auto r = subst_sym(e, i, add(I(), make_const(1)));
  EXPECT_EQ(str(r), "a[i]");
}

TEST_F(ExprTest, ContainsQueries) {
  auto e = make_array_elem(a, add(I(), make_const(1)));
  EXPECT_TRUE(contains_sym(e, i));
  EXPECT_FALSE(contains_sym(e, n));
  EXPECT_TRUE(contains_kind(e, ExprKind::ArrayElem));
  EXPECT_FALSE(contains_kind(e, ExprKind::Min));
}

TEST_F(ExprTest, CollectArrayElems) {
  SymbolId b = syms.intern("b");
  auto e = add(make_array_elem(a, I()), make_array_elem(b, N()));
  EXPECT_EQ(collect_array_elems(e).size(), 2u);
  EXPECT_EQ(collect_array_elems(e, a).size(), 1u);
  EXPECT_EQ(collect_array_elems(e, a)[0]->symbol, a);
}

TEST_F(ExprTest, PrintingOfNegativeTerms) {
  auto e = sub(make_const(3), mul_const(I(), 2));
  EXPECT_EQ(str(e), "-2*i + 3");
}

// Property-style sweep: add/sub/mul_const agree with direct integer math for
// constant expressions across a parameter grid.
class ExprArithSweep : public ::testing::TestWithParam<std::tuple<int64_t, int64_t>> {};

TEST_P(ExprArithSweep, ConstantsBehaveLikeIntegers) {
  auto [x, y] = GetParam();
  auto ex = make_const(x);
  auto ey = make_const(y);
  EXPECT_EQ(const_value(add(ex, ey)), x + y);
  EXPECT_EQ(const_value(sub(ex, ey)), x - y);
  EXPECT_EQ(const_value(mul(ex, ey)), x * y);
  EXPECT_EQ(const_value(smin(ex, ey)), std::min(x, y));
  EXPECT_EQ(const_value(smax(ex, ey)), std::max(x, y));
  if (y != 0) {
    int64_t q = *const_value(div_floor(ex, ey));
    int64_t r = *const_value(mod(ex, ey));
    EXPECT_EQ(q * y + r, x) << "floor div/mod identity";
    if (y > 0) {
      EXPECT_GE(r, 0);
      EXPECT_LT(r, y);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, ExprArithSweep,
    ::testing::Combine(::testing::Values(-7, -2, -1, 0, 1, 3, 10),
                       ::testing::Values(-5, -1, 0, 1, 2, 8)));

}  // namespace
}  // namespace sspar::sym
