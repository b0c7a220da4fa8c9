#include "symbolic/recurrence.h"

namespace sspar::sym {

namespace {

inline size_t mix_hash(size_t seed, size_t v) {
  return seed ^ (v + 0x9e3779b97f4a7c15ull + (seed << 6) + (seed >> 2));
}

}  // namespace

size_t RecurrenceBuilder::ChainKeyHash::operator()(const ChainKey& k) const {
  size_t h = std::hash<uint32_t>{}(k.index);
  h = mix_hash(h, hash(k.first));
  h = mix_hash(h, hash(k.base));
  h = mix_hash(h, hash(k.stride));
  return h;
}

size_t RecurrenceBuilder::QueryKeyHash::operator()(const QueryKey& k) const {
  size_t h = std::hash<const void*>{}(k.expr);
  h = mix_hash(h, std::hash<uint32_t>{}(k.index));
  h = mix_hash(h, std::hash<const void*>{}(k.first));
  return h;
}

RecChainPtr RecurrenceBuilder::intern(SymbolId index, ExprPtr first, ExprPtr base,
                                      ExprPtr stride) {
  ChainKey key{index, first, base, stride};
  auto it = interned_.find(key);
  if (it != interned_.end()) return it->second;
  auto chain = std::make_unique<RecChain>();
  chain->index = index;
  chain->first = first;
  chain->base = base;
  chain->stride = stride;
  RecChainPtr out = chain.get();
  chains_.push_back(std::move(chain));
  interned_.emplace(key, out);
  ++stats_.chains;
  return out;
}

RecChainPtr RecurrenceBuilder::chain_for(ExprPtr e, SymbolId index, ExprPtr first) {
  ++stats_.queries;
  if (!e || !first || is_bottom(e) || is_bottom(first) || contains_sym(first, index)) {
    return nullptr;
  }
  QueryKey key{e, index, first};
  if (auto it = memo_.find(key); it != memo_.end()) {
    ++stats_.memo_hits;
    return it->second;
  }

  RecChainPtr result = nullptr;
  // λ markers evolve per iteration on their own; no closed form over the
  // index. Index-free expressions are the degenerate chain {e, +, 0}.
  if (!contains_kind(e, ExprKind::IterStart)) {
    if (!contains_sym(e, index)) {
      result = intern(index, first, e, make_const(0));
    } else {
      LinearForm lf = to_linear(e);
      ExprPtr stride = make_const(0);
      ExprPtr rest = make_const(lf.constant);
      bool ok = !lf.bottom;
      for (const auto& [atom, coeff] : lf.terms) {
        if (!ok) break;
        if (atom->kind == ExprKind::Sym && atom->symbol == index) {
          stride = add(stride, make_const(coeff));
          continue;
        }
        if (!contains_sym(atom, index)) {
          rest = add(rest, mul_const(atom, coeff));
          continue;
        }
        // The only index-carrying atom with a linear closed form is a product
        // with the index as a direct factor exactly once and every other
        // factor index-free: coeff * m1 * ... * i * ... * mk contributes
        // coeff * Π m to the stride.
        if (atom->kind != ExprKind::Mul) {
          ok = false;
          break;
        }
        ExprPtr others = make_const(1);
        int index_factors = 0;
        for (const ExprPtr& factor : atom->operands) {
          if (factor->kind == ExprKind::Sym && factor->symbol == index) {
            ++index_factors;
          } else if (contains_sym(factor, index)) {
            index_factors = -1;
            break;
          } else {
            others = mul(others, factor);
          }
        }
        if (index_factors != 1) {
          ok = false;
          break;
        }
        stride = add(stride, mul_const(others, coeff));
      }
      if (ok) {
        // base == e evaluated at index == first: stride * first + rest.
        ExprPtr base = add(mul(stride, first), rest);
        result = intern(index, first, base, stride);
      }
    }
  }
  memo_.emplace(key, result);
  return result;
}

ExprPtr RecurrenceBuilder::value_at(const RecChain& chain, ExprPtr k) {
  return add(chain.base, mul(chain.stride, sub(k, chain.first)));
}

std::optional<int64_t> RecurrenceBuilder::const_stride(const RecChain& chain) {
  return const_value(chain.stride);
}

}  // namespace sspar::sym
