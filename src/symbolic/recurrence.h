// Chains of recurrences (SCEV-style add-recs) over the hash-consed arena.
//
// A loop-varying expression that is affine in a loop index i decomposes into
// the add-rec {base, +, stride}_i anchored at the loop's first index value:
//
//     e(i) == base + stride * (i - first)       for i >= first
//
// where `base` (the value at i == first) and `stride` (the per-iteration
// increment) are index-free. The decomposition answers the questions the
// paper's enabling properties reduce to in O(1):
//
//  * stride / direction    -> monotonicity of the subscript sequence,
//  * |stride| == 1         -> consecutiveness (coalesced accesses),
//  * provably nonzero      -> injectivity of the filled section, even when
//    stride                   the stride is *symbolic* (e.g. m*i + q with
//                             m >= 1).
//
// This is the analysis core's only affine form: subscripts, written values
// and λ deltas are all read through chain_for. Anchored at first == 0, `base`
// is the index-free rest of e and a constant `stride` its integer coefficient.
//
// Chains are hash-consed like expressions: within one RecurrenceBuilder, two
// structurally equal chains are the same RecChain object, so a relocated but
// otherwise identical loop yields the pointer-identical chain. Queries are
// memoized per (expr, index, first) — the builder walks each distinct
// subscript once per loop, not once per iteration.
//
// Lifetime: a builder's chains hold ExprPtrs and live exactly as long as the
// owning arena. The canonical instance is reached through
// ExprArena::recurrences(), which aligns the two lifetimes by construction.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "symbolic/expr.h"

namespace sspar::sym {

struct RecChain {
  SymbolId index = kInvalidSymbol;  // loop index the chain varies over
  ExprPtr first = nullptr;          // index value of the first iteration
  ExprPtr base = nullptr;           // chain value at index == first (index-free)
  ExprPtr stride = nullptr;         // per-iteration increment (index-free)
};
using RecChainPtr = const RecChain*;

class RecurrenceBuilder {
 public:
  RecurrenceBuilder() = default;
  RecurrenceBuilder(const RecurrenceBuilder&) = delete;
  RecurrenceBuilder& operator=(const RecurrenceBuilder&) = delete;

  // Canonicalizes `e` into an add-rec over `index` anchored at `first`.
  // Returns null when `e` is not affine in the index: the index appears under
  // Div/Mod/Min/Max, inside an array subscript, more than linearly in a
  // product, or the expression depends on a λ (IterStart) marker — λ values
  // change per iteration independently of the index, so no closed form over
  // the index exists. Both successes and failures are memoized.
  RecChainPtr chain_for(ExprPtr e, SymbolId index, ExprPtr first);

  // Closed form at iteration k: base + stride * (k - first). Folds through
  // the interning factories, so for the canonical affine fragment this is
  // pointer-equal to substituting k for the index in the original expression.
  static ExprPtr value_at(const RecChain& chain, ExprPtr k);

  // The stride as a compile-time constant, if it folds to one.
  static std::optional<int64_t> const_stride(const RecChain& chain);

  struct Stats {
    size_t chains = 0;       // unique chains interned
    size_t queries = 0;      // chain_for calls
    size_t memo_hits = 0;    // answered from the per-expression memo
  };
  Stats stats() const { return stats_; }

 private:
  struct ChainKey {
    SymbolId index;
    ExprPtr first;
    ExprPtr base;
    ExprPtr stride;
    bool operator==(const ChainKey&) const = default;
  };
  struct ChainKeyHash {
    size_t operator()(const ChainKey& k) const;
  };
  struct QueryKey {
    ExprPtr expr;
    SymbolId index;
    ExprPtr first;
    bool operator==(const QueryKey&) const = default;
  };
  struct QueryKeyHash {
    size_t operator()(const QueryKey& k) const;
  };

  RecChainPtr intern(SymbolId index, ExprPtr first, ExprPtr base, ExprPtr stride);

  // Nodes never move once created (pointers are handed out).
  std::vector<std::unique_ptr<RecChain>> chains_;
  std::unordered_map<ChainKey, RecChainPtr, ChainKeyHash> interned_;
  std::unordered_map<QueryKey, RecChainPtr, QueryKeyHash> memo_;  // null = known failure
  Stats stats_;
};

}  // namespace sspar::sym
