#include "core/body_interp.h"

#include "ipa/summary.h"
#include "support/text.h"

namespace sspar::core {

using sym::ExprPtr;
using sym::Range;

namespace {

// Expressions evaluated unconditionally within `expr` (excludes ?:-branches
// and the right-hand sides of && / ||).
void walk_unconditional(const ast::Expr* e, const std::function<void(const ast::Expr*)>& fn) {
  if (!e) return;
  fn(e);
  switch (e->kind) {
    case ast::ExprNodeKind::ArrayRef: {
      const auto* a = e->as<ast::ArrayRef>();
      walk_unconditional(a->base.get(), fn);
      walk_unconditional(a->index.get(), fn);
      break;
    }
    case ast::ExprNodeKind::Binary: {
      const auto* b = e->as<ast::Binary>();
      walk_unconditional(b->lhs.get(), fn);
      if (b->op != ast::BinaryOp::LAnd && b->op != ast::BinaryOp::LOr) {
        walk_unconditional(b->rhs.get(), fn);
      }
      break;
    }
    case ast::ExprNodeKind::Unary:
      walk_unconditional(e->as<ast::Unary>()->operand.get(), fn);
      break;
    case ast::ExprNodeKind::Assign: {
      const auto* a = e->as<ast::Assign>();
      walk_unconditional(a->target.get(), fn);
      walk_unconditional(a->value.get(), fn);
      break;
    }
    case ast::ExprNodeKind::IncDec:
      walk_unconditional(e->as<ast::IncDec>()->target.get(), fn);
      break;
    case ast::ExprNodeKind::Conditional:
      walk_unconditional(e->as<ast::Conditional>()->cond.get(), fn);
      break;
    case ast::ExprNodeKind::Call:
      for (const auto& a : e->as<ast::Call>()->args) walk_unconditional(a.get(), fn);
      break;
    default:
      break;
  }
}

bool expr_definitely_assigns(const ast::Expr* e, const ast::VarDecl* decl) {
  bool found = false;
  walk_unconditional(e, [&](const ast::Expr* n) {
    if (const auto* a = n->as<ast::Assign>()) {
      const auto* var = a->target->as<ast::VarRef>();
      if (var && var->decl == decl) found = true;
    } else if (const auto* i = n->as<ast::IncDec>()) {
      const auto* var = i->target->as<ast::VarRef>();
      if (var && var->decl == decl) found = true;
    }
  });
  return found;
}

bool contains_abrupt_exit(const ast::Stmt& stmt) {
  bool found = false;
  ast::walk_stmts(&stmt, [&found](const ast::Stmt* s) {
    if (s->kind == ast::StmtNodeKind::Break || s->kind == ast::StmtNodeKind::Continue ||
        s->kind == ast::StmtNodeKind::Return) {
      found = true;
    }
    return !found;
  });
  return found;
}

}  // namespace

std::optional<AccessGuard> match_guard(
    const ast::Expr& cond, const std::function<sym::Range(const ast::Expr&)>& eval) {
  const auto* bin = cond.as<ast::Binary>();
  if (!bin) return std::nullopt;
  const ast::Expr* array_side = nullptr;
  const ast::Expr* const_side = nullptr;
  bool array_on_left = false;
  if (bin->lhs->kind == ast::ExprNodeKind::ArrayRef &&
      bin->rhs->kind == ast::ExprNodeKind::IntLit) {
    array_side = bin->lhs.get();
    const_side = bin->rhs.get();
    array_on_left = true;
  } else if (bin->rhs->kind == ast::ExprNodeKind::ArrayRef &&
             bin->lhs->kind == ast::ExprNodeKind::IntLit) {
    array_side = bin->rhs.get();
    const_side = bin->lhs.get();
  } else {
    return std::nullopt;
  }
  int64_t c = const_side->as<ast::IntLit>()->value;
  // Normalize to array[e] >= min.
  std::optional<int64_t> min;
  switch (bin->op) {
    case ast::BinaryOp::Ge:
      if (array_on_left) min = c;
      break;
    case ast::BinaryOp::Gt:
      if (array_on_left) min = c + 1;
      break;
    case ast::BinaryOp::Le:
      if (!array_on_left) min = c;  // c <= a[e]
      break;
    case ast::BinaryOp::Lt:
      if (!array_on_left) min = c + 1;  // c < a[e]
      break;
    default:
      break;
  }
  if (!min) return std::nullopt;
  const auto* arr = array_side->as<ast::ArrayRef>();
  const ast::VarRef* root = arr->root();
  if (!root || !root->decl || arr->subscripts().size() != 1) return std::nullopt;
  sym::Range idx = eval(*arr->subscripts()[0]);
  if (!idx.is_exact()) return std::nullopt;
  return AccessGuard{root->decl, idx.exact_value(), *min};
}

bool definitely_assigns(const ast::Stmt& stmt, const ast::VarDecl* decl) {
  switch (stmt.kind) {
    case ast::StmtNodeKind::ExprStmt:
      return expr_definitely_assigns(stmt.as<ast::ExprStmt>()->expr.get(), decl);
    case ast::StmtNodeKind::Compound: {
      for (const auto& s : stmt.as<ast::Compound>()->body) {
        if (contains_abrupt_exit(*s)) return false;
        if (definitely_assigns(*s, decl)) return true;
      }
      return false;
    }
    case ast::StmtNodeKind::If: {
      const auto* s = stmt.as<ast::If>();
      if (expr_definitely_assigns(s->cond.get(), decl)) return true;
      if (!s->else_branch) return false;
      return definitely_assigns(*s->then_branch, decl) &&
             definitely_assigns(*s->else_branch, decl);
    }
    case ast::StmtNodeKind::For: {
      // Only the init runs unconditionally (the body may run zero times).
      const auto* s = stmt.as<ast::For>();
      return s->init && definitely_assigns(*s->init, decl);
    }
    default:
      return false;
  }
}

BodyInterp::BodyInterp(Analyzer& analyzer, const ast::Stmt& body, const ast::VarDecl* index,
                       const ScalarEnv& entry_env, const FactDB& entry_facts)
    : analyzer_(analyzer), body_(body), index_(index), entry_env_(entry_env),
      entry_facts_(entry_facts) {
  // Track every scalar (doubles too: their values are not modeled, but the
  // dependence analysis must still see read-before-write patterns such as a
  // floating-point reduction).
  for (const ast::VarDecl* decl : written_scalars(body)) {
    if (decl->is_array()) continue;
    written.insert(decl);
    if (definitely_assigns(body, decl)) definitely_written.insert(decl);
  }
  // Global scalars written only inside called functions evolve per iteration
  // too; without them in `written`, reads would miss λ semantics.
  if (analyzer_.summaries_ && analyzer_.program_has_calls_) {
    ast::walk_exprs(&body, [this](const ast::Expr* e) {
      const auto* call = e->as<ast::Call>();
      if (!call) return;
      const ipa::FunctionSummary* s = analyzer_.call_summary(*call);
      if (!s || !s->analyzable) return;
      for (const ast::VarDecl* decl : s->may_write_scalars) written.insert(decl);
    });
  }
}

bool BodyInterp::run() {
  // Every call must be coverable by a callee summary (without a SummaryDB the
  // analysis stays intraprocedural and any call rejects the body, as in the
  // paper).
  if (!prescan_calls()) return false;
  return exec(body_);
}

std::optional<BodyInterp::Failure> BodyInterp::vet_call(const Analyzer& analyzer,
                                                        const ast::Call& call) {
  auto fail = [&call](std::string message) {
    return Failure{support::DiagCode::AnalysisLoopCall, call.location, std::move(message),
                   call.callee};
  };
  if (!analyzer.summaries_) {
    return fail(support::format("call to '%s' (interprocedural analysis disabled)",
                                call.callee.c_str()));
  }
  if (!call.decl) {
    return fail(support::format("call to undefined function '%s'", call.callee.c_str()));
  }
  const ipa::FunctionSummary* s = analyzer.call_summary(call);
  if (!s) {
    return fail(support::format("call to '%s' has no function summary", call.callee.c_str()));
  }
  if (!s->analyzable) {
    return fail(support::format("call to '%s' is not summarizable (%s)",
                                call.callee.c_str(), s->failure.c_str()));
  }
  if (call.args.size() != call.decl->params.size()) {
    return fail(support::format("call to '%s' passes %zu arguments for %zu parameters",
                                call.callee.c_str(), call.args.size(),
                                call.decl->params.size()));
  }
  for (size_t i = 0; i < call.args.size(); ++i) {
    const ast::VarDecl* param = call.decl->params[i].get();
    if (!param->is_array()) continue;
    const auto* var = call.args[i]->as<ast::VarRef>();
    if (!var || !var->decl || !var->decl->is_array()) {
      return fail(support::format("call to '%s': argument %zu must be a plain array variable",
                                  call.callee.c_str(), i + 1));
    }
  }
  return std::nullopt;
}

bool BodyInterp::prescan_calls() {
  if (!analyzer_.program_has_calls_) return true;
  // Collect every distinct failing callee (not just the first): the W0301
  // report names each one, keyed per callee.
  std::set<std::string> seen;
  ast::walk_exprs(&body_, [this, &seen](const ast::Expr* e) {
    const auto* call = e->as<ast::Call>();
    if (!call) return;
    if (auto vetoed = vet_call(analyzer_, *call)) {
      if (seen.insert(vetoed->callee).second) failures.push_back(*vetoed);
      if (!failure) failure = std::move(vetoed);
    }
  });
  return failures.empty();
}

bool BodyInterp::array_written(const ast::VarDecl* array) const {
  for (const auto& w : writes) {
    if (w.array == array) return true;
  }
  return false;
}

Range BodyInterp::read_scalar(const ast::VarDecl* decl) {
  if (index_ && decl == index_) return Range::exact(sym::make_sym(decl->symbol));
  if (const Range* r = env.find(decl)) return *r;
  Range initial;
  if (index_ && written.count(decl)) {
    // Written somewhere in the body: its start-of-iteration value is λ(x).
    lambda_reads.insert(decl);
    initial = Range::exact(sym::make_iter_start(decl->symbol));
  } else if (const Range* entry = entry_env_.find(decl)) {
    initial = *entry;
  } else {
    initial = Range::exact(sym::make_sym(decl->symbol));
  }
  env.set(decl, initial);
  return initial;
}

void BodyInterp::write_scalar(const ast::VarDecl* decl, Range value) {
  if (decl->elem_type != ast::TypeKind::Int) {
    double_assigned_.insert(decl);
    return;
  }
  env.set(decl, std::move(value));
}

void BodyInterp::record_array_write(const ast::ArrayRef& target, Range value, bool also_read) {
  const ast::VarRef* root = target.root();
  if (!root || !root->decl) return;
  ArrayWriteEffect effect;
  effect.array = root->decl;
  auto subs = target.subscripts();
  effect.dims = subs.size();
  // Evaluate subscripts in order (they may carry side effects, e.g. x++).
  Range innermost;
  for (size_t s = 0; s < subs.size(); ++s) {
    Range r = eval(*subs[s]);
    if (s + 1 == subs.size()) innermost = r;
  }
  effect.index_range = innermost;
  if (innermost.is_exact()) effect.index = innermost.exact_value();
  if (effect.index && effect.index->kind == sym::ExprKind::ArrayElem) {
    const ast::VarDecl* via = nullptr;
    // Map the symbol back to a declaration via the subscript AST.
    ast::walk_subexprs(subs.back(), [&](const ast::Expr* e) {
      if (const auto* ar = e->as<ast::ArrayRef>()) {
        const ast::VarRef* r = ar->root();
        if (r && r->decl && r->decl->symbol == effect.index->symbol) via = r->decl;
      }
    });
    if (via) {
      effect.via_array = via;
      effect.via_domain = Range::exact(effect.index->operands[0]);
    }
  }
  effect.value = std::move(value);
  effect.conditional = cond_depth_ > 0;
  effect.guards = guard_stack_;
  if (effect.dims == 1) {
    if (const auto* inc = subs[0]->as<ast::IncDec>()) {
      if (inc->op == ast::IncDecOp::PostInc) {
        if (const auto* var = inc->target->as<ast::VarRef>()) {
          effect.post_inc_subscript = var->decl;
        }
      }
    }
  }
  if (also_read) reads.push_back(effect);  // read-modify-write: same location
  writes.push_back(std::move(effect));
}

Range BodyInterp::eval(const ast::Expr& expr) {
  switch (expr.kind) {
    case ast::ExprNodeKind::IntLit:
      return Range::exact(sym::make_const(expr.as<ast::IntLit>()->value));
    case ast::ExprNodeKind::FloatLit:
      return Range::bottom();
    case ast::ExprNodeKind::VarRef: {
      const auto* decl = expr.as<ast::VarRef>()->decl;
      if (!decl || decl->is_array()) return Range::bottom();
      if (decl->elem_type != ast::TypeKind::Int) {
        // Value not modeled, but a read before any write in this iteration is
        // still a loop-carried use.
        if (index_ && written.count(decl) && !double_assigned_.count(decl)) {
          lambda_reads.insert(decl);
        }
        return Range::bottom();
      }
      return read_scalar(decl);
    }
    case ast::ExprNodeKind::ArrayRef: {
      const auto* a = expr.as<ast::ArrayRef>();
      auto subs = a->subscripts();
      Range innermost;
      for (size_t s = 0; s < subs.size(); ++s) {
        Range r = eval(*subs[s]);
        if (s + 1 == subs.size()) innermost = r;
      }
      const ast::VarRef* root = a->root();
      if (!root || !root->decl) return Range::bottom();
      // Record the read reference (for the dependence test), whatever its
      // element type.
      ArrayWriteEffect effect;
      effect.array = root->decl;
      effect.dims = subs.size();
      effect.index_range = innermost;
      if (innermost.is_exact()) effect.index = innermost.exact_value();
      effect.value = Range::bottom();
      effect.conditional = cond_depth_ > 0;
      effect.guards = guard_stack_;
      reads.push_back(std::move(effect));
      if (subs.size() != 1 || !innermost.is_exact() ||
          root->decl->elem_type != ast::TypeKind::Int) {
        return Range::bottom();
      }
      // Reads of arrays already written in this body would see stale symbolic
      // values; degrade them.
      if (array_written(root->decl)) return Range::bottom();
      return Range::exact(sym::make_array_elem(root->decl->symbol, innermost.exact_value()));
    }
    case ast::ExprNodeKind::Binary: {
      const auto* b = expr.as<ast::Binary>();
      Range lhs = eval(*b->lhs);
      return range_binary(b->op, lhs, eval(*b->rhs));
    }
    case ast::ExprNodeKind::Unary: {
      const auto* u = expr.as<ast::Unary>();
      return range_unary(u->op, eval(*u->operand));
    }
    case ast::ExprNodeKind::Assign: {
      const auto* a = expr.as<ast::Assign>();
      Range value = eval(*a->value);
      bool rmw = a->op != ast::AssignOp::Assign;
      if (rmw) {
        // Compound assignment reads the target first.
        Range old;
        if (const auto* var = a->target->as<ast::VarRef>()) {
          old = var->decl ? read_scalar(var->decl) : Range::bottom();
        } else {
          old = Range::bottom();  // a[i] += v handled as unknown-valued store
        }
        switch (a->op) {
          case ast::AssignOp::Add: value = range_add(old, value); break;
          case ast::AssignOp::Sub: value = range_sub(old, value); break;
          default: value = Range::bottom(); break;
        }
      }
      if (const auto* var = a->target->as<ast::VarRef>()) {
        if (var->decl) write_scalar(var->decl, value);
      } else if (const auto* arr = a->target->as<ast::ArrayRef>()) {
        record_array_write(*arr, value, /*also_read=*/rmw);
      }
      return value;
    }
    case ast::ExprNodeKind::IncDec: {
      const auto* i = expr.as<ast::IncDec>();
      if (const auto* var = i->target->as<ast::VarRef>()) {
        if (!var->decl) return Range::bottom();
        Range old = read_scalar(var->decl);
        Range neu = i->is_increment() ? range_add(old, Range::of_consts(1, 1))
                                      : range_sub(old, Range::of_consts(1, 1));
        write_scalar(var->decl, neu);
        return i->is_post() ? old : neu;
      }
      if (const auto* arr = i->target->as<ast::ArrayRef>()) {
        record_array_write(*arr, Range::bottom(), /*also_read=*/true);
      }
      return Range::bottom();
    }
    case ast::ExprNodeKind::Conditional: {
      const auto* c = expr.as<ast::Conditional>();
      eval(*c->cond);
      ++cond_depth_;
      Range t = eval(*c->then_expr);
      Range f = eval(*c->else_expr);
      --cond_depth_;
      return range_join(t, f);
    }
    case ast::ExprNodeKind::Call:
      // prescan_calls() vetted every call site; apply the callee's summary.
      return apply_call(*expr.as<ast::Call>());
  }
  return Range::bottom();
}

Range BodyInterp::apply_call(const ast::Call& call) {
  const ipa::FunctionSummary* s = analyzer_.call_summary(call);
  // Evaluate the arguments in order regardless (they may carry side effects).
  std::vector<Range> arg_values;
  arg_values.reserve(call.args.size());
  for (const auto& a : call.args) arg_values.push_back(eval(*a));
  if (!s || !s->analyzable || !call.decl ||
      call.args.size() != call.decl->params.size()) {
    return Range::bottom();  // prescan rejected the body already
  }

  // Context sensitivity (straight-line mode only, matching exit-fact
  // propagation): when the caller's facts describe arrays the callee reads,
  // apply the summary specialized to those entry facts — that is how a
  // helper that only finishes a fact chain (build_rowstr over an nzz filled
  // by a different helper) keeps the enabling property. Arrays this body
  // already wrote are stale: their statement-entry facts no longer describe
  // what the callee observes.
  if (!index_) {
    std::set<sym::SymbolId> stale;
    for (const auto& w : writes) {
      if (w.array) stale.insert(w.array->symbol);
    }
    // A global scalar mentioned by a projected fact must still hold its
    // caller-entry value at the call: its current state (this statement's
    // env over the flow entry env) must read as exactly its own symbol.
    auto scalar_unchanged = [this](sym::SymbolId id) {
      const ast::VarDecl* decl = analyzer_.global_by_symbol(id);
      if (!decl || !decl->is_integer_scalar()) return false;
      const Range* r = env.find(decl);
      if (!r) r = entry_env_.find(decl);
      if (!r) return true;  // never touched: still its entry symbol
      return r->is_exact() && sym::equal(r->exact_value(), sym::make_sym(id));
    };
    s = analyzer_.context_summary(call, entry_facts_, stale, scalar_unchanged);
  }

  ipa::SummaryApplier applier;
  for (size_t i = 0; i < call.decl->params.size(); ++i) {
    const ast::VarDecl* param = call.decl->params[i].get();
    if (param->is_array()) {
      if (const auto* var = call.args[i]->as<ast::VarRef>()) {
        if (var->decl) applier.bind_array(param, var->decl);
      }
    } else if (param->is_integer_scalar()) {
      applier.bind(param->symbol, arg_values[i]);
    }
  }
  // The callee observes the caller's *current* values of the globals it may
  // read; read_scalar registers the λ-dependence when this body writes them.
  for (const ast::VarDecl* g : s->exposed_scalar_reads) {
    if (g->is_integer_scalar()) {
      applier.bind(g->symbol, read_scalar(g));
    } else if (index_ && written.count(g) && !double_assigned_.count(g)) {
      lambda_reads.insert(g);
    }
  }
  // Summary expressions read array elements at call-entry; elements of arrays
  // this body already wrote are stale and must degrade.
  for (const auto& w : writes) {
    if (w.array) applier.mark_stale(w.array->symbol);
  }

  // Scalar effects. A scalar the callee assigns only on some paths keeps its
  // pre-call value on the others — join with it, exactly like merge_branches
  // does for an inlined conditional assignment (read_scalar registers the
  // λ-dependence in loop mode).
  for (const auto& [decl, final] : s->scalar_finals) {
    Range value = applier.apply(final);
    if (!s->definite_scalar_writes.count(decl)) {
      value = range_join(value, read_scalar(decl));
    }
    write_scalar(decl, value);
  }
  for (const ast::VarDecl* g : s->may_write_scalars) {
    if (g->is_array() || g->elem_type == ast::TypeKind::Int) continue;
    // Only a definitely assigned double counts as assigned — a later read of
    // a conditionally assigned one must still register its λ-dependence
    // (mirrors the both-branches rule in exec's If merge).
    if (s->definite_scalar_writes.count(g)) double_assigned_.insert(g);
  }

  // Array effects, instantiated for this call site.
  auto instantiate = [this, s, &applier](const ArrayWriteEffect& e) {
    ArrayWriteEffect out = e;
    out.array = applier.remap_array(e.array);
    out.index = applier.apply(e.index);
    out.index_range = applier.apply(e.index_range);
    out.value = applier.apply(e.value);
    out.conditional = e.conditional || cond_depth_ > 0;
    out.guards.clear();
    for (const AccessGuard& g : e.guards) {
      AccessGuard mapped{applier.remap_array(g.array), applier.apply(g.index), g.min};
      if (mapped.array && mapped.index) out.guards.push_back(std::move(mapped));
    }
    for (const AccessGuard& g : guard_stack_) out.guards.push_back(g);
    out.via_array = e.via_array ? applier.remap_array(e.via_array) : nullptr;
    out.via_domain = applier.apply(e.via_domain);
    if (e.post_inc_subscript && !analyzer_.is_global(e.post_inc_subscript)) {
      out.post_inc_subscript = nullptr;
    }
    out.summary_origin = s->function;
    return out;
  };
  for (const auto& w : s->writes) writes.push_back(instantiate(w));
  for (const auto& r : s->reads) reads.push_back(instantiate(r));

  // Exit facts: propagated only from unconditional straight-line call sites
  // (the analyzer's flow applies them after the statement's kills). Facts
  // from calls inside a loop iteration or branch are dropped, like
  // inner-loop facts.
  if (!index_ && cond_depth_ == 0) {
    for (const auto& [array, facts] : s->end_facts) {
      const sym::SymbolId mapped = applier.remap_array_symbol(array);
      auto push = [this, s](LoopEffect::ProducedFact fact) {
        pending_facts.push_back(PendingFact{std::move(fact), s->function, writes.size()});
      };
      for (const auto& f : facts.identities) {
        sym::ExprPtr lo = applier.apply(f.lo), hi = applier.apply(f.hi);
        if (!lo || !hi) continue;
        LoopEffect::ProducedFact fact;
        fact.array = mapped;
        fact.identity = IdentityFact{lo, hi};
        push(std::move(fact));
      }
      for (const auto& f : facts.values) {
        sym::ExprPtr lo = applier.apply(f.lo), hi = applier.apply(f.hi);
        Range value = applier.apply(f.value);
        if (!lo || !hi || value.is_bottom()) continue;
        LoopEffect::ProducedFact fact;
        fact.array = mapped;
        fact.value = ValueFact{lo, hi, std::move(value)};
        push(std::move(fact));
      }
      for (const auto& f : facts.steps) {
        sym::ExprPtr lo = applier.apply(f.lo), hi = applier.apply(f.hi);
        Range step = applier.apply(f.step);
        if (!lo || !hi || step.is_bottom()) continue;
        LoopEffect::ProducedFact fact;
        fact.array = mapped;
        fact.step = StepFact{lo, hi, std::move(step)};
        push(std::move(fact));
      }
      for (const auto& f : facts.injectives) {
        sym::ExprPtr lo = applier.apply(f.lo), hi = applier.apply(f.hi);
        if (!lo || !hi) continue;
        LoopEffect::ProducedFact fact;
        fact.array = mapped;
        fact.injective = InjectiveFact{lo, hi, f.min_value, f.from_chain};
        push(std::move(fact));
      }
    }
  }

  applied_summaries.insert(s->function);
  analyzer_.summaries_->note_application();
  return s->return_value ? applier.apply(*s->return_value) : Range::bottom();
}

void BodyInterp::merge_branches(const ScalarEnv& before, ScalarEnv then_env,
                                ScalarEnv else_env) {
  // The value a variable has on a path that never touched it: its λ (loop
  // mode, written somewhere in the body), its entry value, or its own symbol.
  auto initial_value = [&](const ast::VarDecl* decl) -> Range {
    if (index_ && decl == index_) return Range::exact(sym::make_sym(decl->symbol));
    if (index_ && written.count(decl)) {
      lambda_reads.insert(decl);  // the merged value depends on the λ value
      return Range::exact(sym::make_iter_start(decl->symbol));
    }
    if (const Range* entry = entry_env_.find(decl)) return *entry;
    return Range::exact(sym::make_sym(decl->symbol));
  };
  ScalarEnv merged = before;
  std::set<const ast::VarDecl*> touched;
  for (const auto& [decl, r] : then_env.values) touched.insert(decl);
  for (const auto& [decl, r] : else_env.values) touched.insert(decl);
  for (const ast::VarDecl* decl : touched) {
    const Range* t = then_env.find(decl);
    const Range* f = else_env.find(decl);
    const Range* pre = before.find(decl);
    Range tr = t ? *t : (pre ? *pre : initial_value(decl));
    Range fr = f ? *f : (pre ? *pre : initial_value(decl));
    merged.set(decl, range_join(tr, fr));
  }
  env = std::move(merged);
}

bool BodyInterp::exec(const ast::Stmt& stmt) {
  switch (stmt.kind) {
    case ast::StmtNodeKind::Empty:
      return true;
    case ast::StmtNodeKind::ExprStmt:
      eval(*stmt.as<ast::ExprStmt>()->expr);
      return true;
    case ast::StmtNodeKind::DeclStmt: {
      for (const auto& d : stmt.as<ast::DeclStmt>()->decls) {
        body_locals.insert(d.get());
        if (d->is_array()) continue;
        Range init = d->init ? eval(*d->init) : Range::bottom();
        if (d->elem_type == ast::TypeKind::Int) env.set(d.get(), init);
      }
      return true;
    }
    case ast::StmtNodeKind::Compound: {
      for (const auto& s : stmt.as<ast::Compound>()->body) {
        if (!exec(*s)) return false;
      }
      return true;
    }
    case ast::StmtNodeKind::If: {
      const auto* s = stmt.as<ast::If>();
      // Forced branch (parallelizer's first-iteration peeling): execute only
      // the selected branch, unconditionally.
      if (forced_) {
        auto it = forced_->find(s);
        if (it != forced_->end()) {
          eval(*s->cond);
          if (it->second) return exec(*s->then_branch);
          return s->else_branch ? exec(*s->else_branch) : true;
        }
      }
      eval(*s->cond);
      auto eval_fn = [this](const ast::Expr& e) { return eval(e); };
      std::optional<AccessGuard> guard = match_guard(*s->cond, eval_fn);
      ScalarEnv before = env;
      std::set<const ast::VarDecl*> doubles_before = double_assigned_;
      size_t writes_before = writes.size();
      ++cond_depth_;
      if (guard) guard_stack_.push_back(*guard);
      bool then_ok = exec(*s->then_branch);
      if (guard) guard_stack_.pop_back();
      if (!then_ok) return false;
      ScalarEnv then_env = std::move(env);
      std::set<const ast::VarDecl*> doubles_then = std::move(double_assigned_);
      size_t then_write_end = writes.size();
      env = before;
      double_assigned_ = doubles_before;
      if (s->else_branch && !exec(*s->else_branch)) return false;
      ScalarEnv else_env = std::move(env);
      --cond_depth_;
      // A double counts as definitely-assigned only if both branches assign.
      std::set<const ast::VarDecl*> doubles_merged = doubles_before;
      for (const auto* d : doubles_then) {
        if (double_assigned_.count(d)) doubles_merged.insert(d);
      }
      double_assigned_ = std::move(doubles_merged);
      merge_branches(before, std::move(then_env), std::move(else_env));
      // Branch-write pairing for the subset-injective / disjoint-strided
      // rules: one write per branch, same array, same exact subscript.
      if (s->else_branch && then_write_end - writes_before == 1 &&
          writes.size() - then_write_end == 1) {
        const ArrayWriteEffect& tw = writes[writes_before];
        const ArrayWriteEffect& ew = writes[then_write_end];
        if (tw.array == ew.array && tw.index && ew.index && sym::equal(tw.index, ew.index)) {
          BranchWritePair pair;
          pair.array = tw.array;
          pair.index = tw.index;
          pair.then_value = tw.value.is_exact() ? tw.value.exact_value() : nullptr;
          pair.else_value = ew.value.is_exact() ? ew.value.exact_value() : nullptr;
          branch_pairs.push_back(std::move(pair));
        }
      }
      return true;
    }
    case ast::StmtNodeKind::For: {
      const auto* inner = stmt.as<ast::For>();
      // Scalars of the enclosing body read by the inner loop must see their
      // λ value if they have not been assigned yet in this iteration. The
      // inner loop's own index is defined by its init and excluded.
      auto inner_info = recognize_loop(*inner);
      const ast::VarDecl* inner_index = inner_info ? inner_info->index : nullptr;
      ast::walk_exprs(inner, [this, inner_index](const ast::Expr* e) {
        if (const auto* var = e->as<ast::VarRef>()) {
          if (var->decl && var->decl != inner_index && written.count(var->decl) &&
              !env.find(var->decl)) {
            read_scalar(var->decl);
          }
        }
      });
      LoopEffect effect = analyzer_.analyze_loop(*inner, env, entry_facts_);
      if (!effect.analyzable) return false;
      for (const auto& [decl, final] : effect.scalar_finals) {
        written.insert(decl);
        env.set(decl, final);
      }
      auto adopt = [this](std::vector<ArrayWriteEffect>& sink, const ArrayWriteEffect& src) {
        ArrayWriteEffect w = src;
        w.conditional = true;  // the inner loop may run zero iterations
        w.index = nullptr;     // aggregated: no longer a per-iteration subscript
        w.post_inc_subscript = nullptr;
        w.from_inner = true;
        for (const auto& g : guard_stack_) w.guards.push_back(g);
        sink.push_back(std::move(w));
      };
      for (const auto& w : effect.writes) adopt(writes, w);
      for (const auto& r : effect.reads) adopt(reads, r);
      // Facts produced by an inner loop depend on the outer iteration; they
      // are not propagated (documented limitation).
      return true;
    }
    case ast::StmtNodeKind::While:
      if (!failure) {
        failure = Failure{support::DiagCode::AnalysisLoopWhile, stmt.location,
                          "inner while loop", ""};
      }
      return false;
    case ast::StmtNodeKind::Break:
    case ast::StmtNodeKind::Continue:
    case ast::StmtNodeKind::Return:
      if (!failure) {
        failure = Failure{support::DiagCode::AnalysisLoopAbruptExit, stmt.location,
                          "break/continue/return statement", ""};
      }
      return false;
  }
  return false;
}

}  // namespace sspar::core
