#include "core/loop_info.h"

#include <set>

namespace sspar::core {

namespace {

// The VarDecl assigned by `for`-init of the form `i = e` / `int i = e`;
// returns the initial-value expression through `lb`.
const ast::VarDecl* init_target(const ast::Stmt& init, const ast::Expr** lb) {
  if (const auto* es = init.as<ast::ExprStmt>()) {
    const auto* assign = es->expr->as<ast::Assign>();
    if (!assign || assign->op != ast::AssignOp::Assign) return nullptr;
    const auto* var = assign->target->as<ast::VarRef>();
    if (!var || !var->decl) return nullptr;
    *lb = assign->value.get();
    return var->decl;
  }
  if (const auto* ds = init.as<ast::DeclStmt>()) {
    if (ds->decls.size() != 1 || !ds->decls[0]->init) return nullptr;
    *lb = ds->decls[0]->init.get();
    return ds->decls[0].get();
  }
  return nullptr;
}

// True if `step` is i++ / ++i / i += 1 / i = i + 1.
bool is_unit_increment(const ast::Expr& step, const ast::VarDecl* index) {
  auto is_index_ref = [index](const ast::Expr& e) {
    const auto* var = e.as<ast::VarRef>();
    return var && var->decl == index;
  };
  if (const auto* inc = step.as<ast::IncDec>()) {
    return inc->is_increment() && is_index_ref(*inc->target);
  }
  if (const auto* assign = step.as<ast::Assign>()) {
    if (!is_index_ref(*assign->target)) return false;
    if (assign->op == ast::AssignOp::Add) {
      const auto* lit = assign->value->as<ast::IntLit>();
      return lit && lit->value == 1;
    }
    if (assign->op == ast::AssignOp::Assign) {
      const auto* bin = assign->value->as<ast::Binary>();
      if (!bin || bin->op != ast::BinaryOp::Add) return false;
      const auto* lit = bin->rhs->as<ast::IntLit>();
      if (lit && lit->value == 1 && is_index_ref(*bin->lhs)) return true;
      lit = bin->lhs->as<ast::IntLit>();
      return lit && lit->value == 1 && is_index_ref(*bin->rhs);
    }
  }
  return false;
}

}  // namespace

std::optional<LoopInfo> recognize_loop(const ast::For& loop) {
  LoopInfo info;
  info.node = &loop;
  if (!loop.init || !loop.cond || !loop.step) return std::nullopt;

  const ast::Expr* lb = nullptr;
  info.index = init_target(*loop.init, &lb);
  if (!info.index || info.index->is_array()) return std::nullopt;
  info.lb_expr = lb;

  const auto* cond = loop.cond->as<ast::Binary>();
  if (!cond) return std::nullopt;
  const auto* cond_var = cond->lhs->as<ast::VarRef>();
  if (!cond_var || cond_var->decl != info.index) return std::nullopt;
  if (cond->op == ast::BinaryOp::Lt) {
    info.ub_inclusive = false;
  } else if (cond->op == ast::BinaryOp::Le) {
    info.ub_inclusive = true;
  } else {
    return std::nullopt;
  }
  info.ub_expr = cond->rhs.get();

  if (!is_unit_increment(*loop.step, info.index)) return std::nullopt;
  return info;
}

namespace {
void collect_written(const ast::Stmt& stmt, std::vector<const ast::VarDecl*>& scalars,
                     std::vector<const ast::VarDecl*>& arrays) {
  std::set<const ast::VarDecl*> seen_scalars, seen_arrays;
  ast::walk_exprs(&stmt, [&](const ast::Expr* e) {
    const ast::Expr* target = nullptr;
    if (const auto* assign = e->as<ast::Assign>()) {
      target = assign->target.get();
    } else if (const auto* inc = e->as<ast::IncDec>()) {
      target = inc->target.get();
    }
    if (!target) return;
    if (const auto* var = target->as<ast::VarRef>()) {
      if (var->decl && seen_scalars.insert(var->decl).second) scalars.push_back(var->decl);
    } else if (const auto* arr = target->as<ast::ArrayRef>()) {
      const ast::VarRef* root = arr->root();
      if (root && root->decl && seen_arrays.insert(root->decl).second) {
        arrays.push_back(root->decl);
      }
    }
  });
}
}  // namespace

std::vector<const ast::VarDecl*> written_scalars(const ast::Stmt& stmt) {
  std::vector<const ast::VarDecl*> scalars, arrays;
  collect_written(stmt, scalars, arrays);
  return scalars;
}

std::vector<const ast::VarDecl*> written_arrays(const ast::Stmt& stmt) {
  std::vector<const ast::VarDecl*> scalars, arrays;
  collect_written(stmt, scalars, arrays);
  return arrays;
}

std::set<const ast::VarDecl*> declared_in(const ast::Stmt& stmt) {
  std::set<const ast::VarDecl*> declared;
  ast::walk_stmts(&stmt, [&](const ast::Stmt* s) {
    if (const auto* ds = s->as<ast::DeclStmt>()) {
      for (const auto& d : ds->decls) declared.insert(d.get());
    }
    if (const auto* f = s->as<ast::For>()) {
      if (const auto* ds = f->init->as<ast::DeclStmt>()) {
        for (const auto& d : ds->decls) declared.insert(d.get());
      }
    }
    return true;
  });
  return declared;
}

}  // namespace sspar::core
