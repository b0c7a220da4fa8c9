// Canonical loop recognition.
//
// The analysis handles loops of the form
//     for (i = lb; i < ub; i++)        (also <=, and declarations in init)
// which covers every loop in the paper's figures. Anything else is treated
// conservatively (the analyzer havocs whatever the loop writes).
#pragma once

#include <optional>
#include <set>

#include "frontend/ast.h"
#include "symbolic/expr.h"

namespace sspar::core {

struct LoopInfo {
  const ast::For* node = nullptr;
  const ast::VarDecl* index = nullptr;  // the loop variable
  const ast::Expr* lb_expr = nullptr;   // first value of the index
  const ast::Expr* ub_expr = nullptr;   // condition bound (see inclusive flag)
  bool ub_inclusive = false;            // true for `i <= ub`
};

// Recognizes the canonical form; nullopt otherwise.
std::optional<LoopInfo> recognize_loop(const ast::For& loop);

// The scalar declarations assigned anywhere in `stmt` (array writes excluded);
// includes increments and compound assignments.
std::vector<const ast::VarDecl*> written_scalars(const ast::Stmt& stmt);

// Arrays written anywhere in `stmt`.
std::vector<const ast::VarDecl*> written_arrays(const ast::Stmt& stmt);

// Declarations anywhere inside `stmt`, for-inits included (a loop's own
// too): storage whose scope ends with `stmt`.
std::set<const ast::VarDecl*> declared_in(const ast::Stmt& stmt);

}  // namespace sspar::core
