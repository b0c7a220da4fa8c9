#include "core/facts.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <new>
#include <utility>

#include "support/text.h"

namespace sspar::core {

using sym::AssumptionContext;
using sym::ExprPtr;
using sym::Range;
using sym::Truth;

namespace {

// fact section [flo:fhi] covers query section [qlo:qhi]?
bool covers(const ExprPtr& flo, const ExprPtr& fhi, const ExprPtr& qlo, const ExprPtr& qhi,
            const AssumptionContext& ctx) {
  if (!flo || !fhi || !qlo || !qhi) return false;
  return prove_le(flo, qlo, ctx) == Truth::True && prove_le(qhi, fhi, ctx) == Truth::True;
}

// Sections [alo:ahi] and [blo:bhi] provably disjoint?
bool provably_disjoint(const ExprPtr& alo, const ExprPtr& ahi, const ExprPtr& blo,
                       const ExprPtr& bhi, const AssumptionContext& ctx) {
  if (ahi && blo && prove_lt(ahi, blo, ctx) == Truth::True) return true;
  if (bhi && alo && prove_lt(bhi, alo, ctx) == Truth::True) return true;
  return false;
}

}  // namespace

// ---------------------------------------------------------------------------
// Persistent trie
// ---------------------------------------------------------------------------
//
// A key's 32 bits are read five at a time, most significant digit first, so
// a node at level L branches on bits [5L, 5L+5) and in-order traversal visits
// keys in ascending order. Level-0 nodes hold Boxes (one array's facts);
// higher levels hold Nodes. A node stores only the children whose digit is
// set in its bitmap, packed in digit order right after the header, so small
// databases stay small. Nodes and boxes are immutable while shared
// (refs > 1): a mutation first makes its whole root-to-leaf path uniquely
// owned, cloning the shared nodes on it, and clones a shared box before
// writing it.

struct FactDB::Counted {
  std::atomic<uint32_t> refs{1};
};

struct alignas(alignof(void*)) FactDB::Node : Counted {
  uint32_t bitmap = 0;

  Counted** slots() {
    return reinterpret_cast<Counted**>(reinterpret_cast<char*>(this) + sizeof(Node));
  }
  Counted* const* slots() const {
    return reinterpret_cast<Counted* const*>(reinterpret_cast<const char*>(this) +
                                             sizeof(Node));
  }
  int count() const { return std::popcount(bitmap); }
  // Position in slots() of the child for digit bit `bit`, present or not.
  int index_of(uint32_t bit) const { return std::popcount(bitmap & (bit - 1)); }
};

struct FactDB::Box : Counted {
  ArrayFacts facts;
};

namespace {

constexpr int kDigitBits = 5;
constexpr uint32_t kDigitMask = (1u << kDigitBits) - 1;

uint32_t digit_bit(sym::SymbolId key, int level) {
  return 1u << ((key >> (kDigitBits * level)) & kDigitMask);
}

}  // namespace

struct FactDB::Trie {
  // True if a node at `level` covers `key` (key < 2^(5 * (level + 1))).
  static bool covers(int level, sym::SymbolId key) {
    return level + 1 >= kLevels || (key >> (kDigitBits * (level + 1))) == 0;
  }

  static Node* alloc(uint32_t bitmap) {
    const int n = std::popcount(bitmap);
    void* raw = ::operator new(sizeof(Node) + n * sizeof(Counted*));
    Node* node = new (raw) Node;
    node->bitmap = bitmap;
    for (int i = 0; i < n; ++i) new (node->slots() + i) Counted*(nullptr);
    return node;
  }

  // Frees a node's storage without touching its children.
  static void free_shell(Node* node) {
    node->~Node();
    ::operator delete(node);
  }

  static void retain(Counted* c) { c->refs.fetch_add(1); }

  // Drops one reference to `c`, a node at `level` or a box when level < 0.
  static void release(Counted* c, int level) {
    if (c->refs.fetch_sub(1) != 1) return;
    if (level < 0) {
      delete static_cast<Box*>(c);
      return;
    }
    Node* node = static_cast<Node*>(c);
    for (int i = 0, n = node->count(); i < n; ++i) release(node->slots()[i], level - 1);
    free_shell(node);
  }

  static bool shared(const Counted* c) { return c->refs.load() > 1; }

  // Makes the node in `slot` (at `level`) uniquely owned, cloning it if shared.
  static Node* own(Counted*& slot, int level) {
    Node* node = static_cast<Node*>(slot);
    if (!shared(node)) return node;
    Node* copy = alloc(node->bitmap);
    for (int i = 0, n = node->count(); i < n; ++i) {
      copy->slots()[i] = node->slots()[i];
      retain(copy->slots()[i]);
    }
    release(node, level);
    slot = copy;
    return copy;
  }

  // Replaces the uniquely owned `node` by one that also holds `child` under
  // digit bit `bit`.
  static Node* insert(Node* node, uint32_t bit, Counted* child) {
    Node* grown = alloc(node->bitmap | bit);
    const int at = node->index_of(bit);
    std::copy(node->slots(), node->slots() + at, grown->slots());
    grown->slots()[at] = child;
    std::copy(node->slots() + at, node->slots() + node->count(), grown->slots() + at + 1);
    free_shell(node);
    return grown;
  }

  // Replaces the uniquely owned `node` by one without the child under `bit`
  // (already released by the caller); null when no child remains.
  static Node* remove(Node* node, uint32_t bit) {
    Node* shrunk = nullptr;
    if (node->bitmap != bit) {
      shrunk = alloc(node->bitmap & ~bit);
      const int at = node->index_of(bit);
      std::copy(node->slots(), node->slots() + at, shrunk->slots());
      std::copy(node->slots() + at + 1, node->slots() + node->count(), shrunk->slots() + at);
    }
    free_shell(node);
    return shrunk;
  }

  // A fresh empty box for `key` under single-child nodes for levels
  // 0..top_level; returns the topmost node (the box itself when top_level is
  // negative). `leaf` receives the slot holding the box when a node holds it.
  static Counted* chain(sym::SymbolId key, int top_level, Counted**& leaf) {
    Counted* sub = new Box;
    for (int level = 0; level <= top_level; ++level) {
      Node* node = alloc(digit_bit(key, level));
      node->slots()[0] = sub;
      if (level == 0) leaf = &node->slots()[0];
      sub = node;
    }
    return sub;
  }

  // Removes the present `key` from the subtrie in `slot` (a node at `level`),
  // nulling the slot if the subtrie becomes empty.
  static void erase(Counted*& slot, int level, sym::SymbolId key) {
    Node* node = own(slot, level);
    const uint32_t bit = digit_bit(key, level);
    Counted*& child = node->slots()[node->index_of(bit)];
    if (level == 0) {
      release(child, -1);
    } else {
      erase(child, level - 1, key);
      if (child) return;
    }
    slot = remove(node, bit);
  }
};

FactDB::FactDB(const FactDB& other) : root_(other.root_), root_level_(other.root_level_) {
  if (root_) Trie::retain(root_);
}

FactDB::FactDB(FactDB&& other) noexcept
    : root_(std::exchange(other.root_, nullptr)), root_level_(std::exchange(other.root_level_, 0)) {}

FactDB& FactDB::operator=(FactDB other) noexcept {
  std::swap(root_, other.root_);
  std::swap(root_level_, other.root_level_);
  return *this;
}

FactDB::~FactDB() {
  if (root_) Trie::release(root_, root_level_);
}

const ArrayFacts* FactDB::find(sym::SymbolId array) const {
  if (!root_ || !Trie::covers(root_level_, array)) return nullptr;
  const Counted* c = root_;
  for (int level = root_level_; level >= 0; --level) {
    const Node* node = static_cast<const Node*>(c);
    const uint32_t bit = digit_bit(array, level);
    if (!(node->bitmap & bit)) return nullptr;
    c = node->slots()[node->index_of(bit)];
  }
  return &static_cast<const Box*>(c)->facts;
}

FactDB::Counted*& FactDB::leaf_slot(sym::SymbolId array) {
  if (!root_) {
    root_level_ = 0;
    while (!Trie::covers(root_level_, array)) ++root_level_;
    Counted** leaf = nullptr;
    root_ = Trie::chain(array, root_level_, leaf);
    return *leaf;
  }
  // Grow upward until the root covers `array`; existing keys all sit under
  // digit 0 of each new root.
  while (!Trie::covers(root_level_, array)) {
    Node* top = Trie::alloc(1u);
    top->slots()[0] = root_;
    root_ = top;
    ++root_level_;
  }
  Counted** slot = &root_;
  for (int level = root_level_;; --level) {
    Node* node = Trie::own(*slot, level);
    const uint32_t bit = digit_bit(array, level);
    if (!(node->bitmap & bit)) {
      Counted** leaf = nullptr;
      Counted* child = Trie::chain(array, level - 1, leaf);
      node = Trie::insert(node, bit, child);
      *slot = node;
      return leaf ? *leaf : node->slots()[node->index_of(bit)];
    }
    Counted*& child = node->slots()[node->index_of(bit)];
    if (level == 0) return child;
    slot = &child;
  }
}

ArrayFacts& FactDB::mutate(sym::SymbolId array) {
  Counted*& slot = leaf_slot(array);
  if (Trie::shared(slot)) {
    Box* copy = new Box;
    copy->facts = static_cast<Box*>(slot)->facts;
    Trie::release(slot, -1);
    slot = copy;
  }
  return static_cast<Box*>(slot)->facts;
}

void FactDB::restore(sym::SymbolId array, ArrayFacts facts) {
  if (facts.empty()) {
    kill_all(array);
    return;
  }
  Counted*& slot = leaf_slot(array);
  if (Trie::shared(slot)) {
    Trie::release(slot, -1);
    slot = new Box;
  }
  static_cast<Box*>(slot)->facts = std::move(facts);
}

void FactDB::kill_all(sym::SymbolId array) {
  if (!find(array)) return;  // no path copy when there is nothing to drop
  Trie::erase(root_, root_level_, array);
  if (!root_) root_level_ = 0;
}

FactDB::Iterator FactDB::begin() const {
  Iterator it;
  if (!root_) return it;
  it.top_ = root_level_;
  it.nodes_[root_level_] = static_cast<const Node*>(root_);
  it.descend(root_level_);
  return it;
}

void FactDB::Iterator::descend(int level) {
  for (;; --level) {
    const Node* node = nodes_[level];
    digits_[level] = static_cast<uint8_t>(std::countr_zero(node->bitmap));
    slots_[level] = 0;
    if (level == 0) return;
    nodes_[level - 1] = static_cast<const Node*>(node->slots()[0]);
  }
}

FactDB::Iterator& FactDB::Iterator::operator++() {
  for (int level = 0; level <= top_; ++level) {
    const Node* node = nodes_[level];
    // Digits above the current one (2u << 31 wraps to 0: none remain).
    const uint32_t rest = node->bitmap & ~((2u << digits_[level]) - 1);
    if (rest == 0) continue;
    digits_[level] = static_cast<uint8_t>(std::countr_zero(rest));
    ++slots_[level];
    if (level > 0) {
      nodes_[level - 1] = static_cast<const Node*>(node->slots()[slots_[level]]);
      descend(level - 1);
    }
    return *this;
  }
  *this = Iterator();
  return *this;
}

FactDB::Entry FactDB::Iterator::operator*() const {
  sym::SymbolId key = 0;
  for (int level = top_; level >= 0; --level) {
    key = (key << kDigitBits) | digits_[level];
  }
  return Entry{key, static_cast<const Box*>(nodes_[0]->slots()[slots_[0]])->facts};
}

bool FactDB::Iterator::operator==(const Iterator& other) const {
  if (top_ < 0 || other.top_ < 0) return top_ == other.top_;
  return nodes_[0] == other.nodes_[0] && slots_[0] == other.slots_[0];
}

void FactDB::add_value(sym::SymbolId array, ValueFact fact) {
  if (!fact.lo || !fact.hi || fact.value.is_bottom()) return;
  // Exact duplicates arise when a callee's exit facts re-state entry facts
  // the caller still holds; admitting them would bloat the database and
  // perturb entry-fact fingerprints. Checked before mutate(): a duplicate
  // must not trigger a copy-on-write clone.
  if (const ArrayFacts* existing = find(array)) {
    for (const ValueFact& f : existing->values) {
      if (sym::equal(f.lo, fact.lo) && sym::equal(f.hi, fact.hi) && f.value == fact.value) {
        return;
      }
    }
  }
  mutate(array).values.push_back(std::move(fact));
}

void FactDB::add_step(sym::SymbolId array, StepFact fact) {
  if (!fact.lo || !fact.hi || fact.step.is_bottom()) return;
  if (const ArrayFacts* existing = find(array)) {
    for (const StepFact& f : existing->steps) {
      if (sym::equal(f.lo, fact.lo) && sym::equal(f.hi, fact.hi) && f.step == fact.step) {
        return;
      }
    }
  }
  mutate(array).steps.push_back(std::move(fact));
}

void FactDB::add_injective(sym::SymbolId array, InjectiveFact fact) {
  if (!fact.lo || !fact.hi) return;
  // Dedup ignores from_chain: the first-added fact wins, deterministically.
  if (const ArrayFacts* existing = find(array)) {
    for (const InjectiveFact& f : existing->injectives) {
      if (sym::equal(f.lo, fact.lo) && sym::equal(f.hi, fact.hi) &&
          f.min_value == fact.min_value) {
        return;
      }
    }
  }
  mutate(array).injectives.push_back(std::move(fact));
}

void FactDB::add_identity(sym::SymbolId array, IdentityFact fact) {
  if (!fact.lo || !fact.hi) return;
  if (const ArrayFacts* existing = find(array)) {
    for (const IdentityFact& f : existing->identities) {
      if (sym::equal(f.lo, fact.lo) && sym::equal(f.hi, fact.hi)) return;
    }
  }
  // Identity implies value == index, unit step, and injectivity.
  add_value(array, ValueFact{fact.lo, fact.hi, Range::of(fact.lo, fact.hi)});
  add_step(array, StepFact{sym::add(fact.lo, sym::make_const(1)), fact.hi,
                           Range::of_consts(1, 1)});
  add_injective(array, InjectiveFact{fact.lo, fact.hi, std::nullopt});
  mutate(array).identities.push_back(std::move(fact));
}

void FactDB::kill_overlapping(sym::SymbolId array, const ExprPtr& lo, const ExprPtr& hi,
                              const AssumptionContext& ctx) {
  const ArrayFacts* existing = find(array);
  if (!existing) return;
  const ArrayFacts& facts = *existing;
  auto survives = [&](const ExprPtr& flo, const ExprPtr& fhi) {
    return provably_disjoint(flo, fhi, lo, hi, ctx);
  };
  auto step_survives = [&](const StepFact& f) {
    // A step fact about links [lo:hi] reads elements [lo-1:hi].
    return survives(sym::sub(f.lo, sym::make_const(1)), f.hi);
  };
  bool any_killed =
      std::any_of(facts.values.begin(), facts.values.end(),
                  [&](const ValueFact& f) { return !survives(f.lo, f.hi); }) ||
      std::any_of(facts.steps.begin(), facts.steps.end(),
                  [&](const StepFact& f) { return !step_survives(f); }) ||
      std::any_of(facts.injectives.begin(), facts.injectives.end(),
                  [&](const InjectiveFact& f) { return !survives(f.lo, f.hi); }) ||
      std::any_of(facts.identities.begin(), facts.identities.end(),
                  [&](const IdentityFact& f) { return !survives(f.lo, f.hi); });
  if (!any_killed) return;  // no clone when every fact survives
  ArrayFacts& own = mutate(array);
  std::erase_if(own.values, [&](const ValueFact& f) { return !survives(f.lo, f.hi); });
  std::erase_if(own.steps, [&](const StepFact& f) { return !step_survives(f); });
  std::erase_if(own.injectives, [&](const InjectiveFact& f) { return !survives(f.lo, f.hi); });
  std::erase_if(own.identities, [&](const IdentityFact& f) { return !survives(f.lo, f.hi); });
}

std::optional<Range> FactDB::elem_diff(sym::SymbolId array, const ExprPtr& hi_idx,
                                       const ExprPtr& lo_idx,
                                       const AssumptionContext& ctx) const {
  auto d = sym::const_value(sym::sub(hi_idx, lo_idx));
  if (!d) return std::nullopt;
  if (*d == 0) return Range::of_consts(0, 0);
  if (*d < 0) {
    auto r = elem_diff(array, lo_idx, hi_idx, ctx);
    if (!r) return std::nullopt;
    return sym::range_negate(*r);
  }
  const ArrayFacts* facts = find(array);
  if (!facts) return std::nullopt;
  // a[hi] - a[lo] = Σ_{idx=lo+1}^{hi} (a[idx] - a[idx-1]); a covering step
  // fact bounds every term, so the sum lies in d * step.
  ExprPtr link_lo = sym::add(lo_idx, sym::make_const(1));
  for (const StepFact& f : facts->steps) {
    if (covers(f.lo, f.hi, link_lo, hi_idx, ctx)) {
      return sym::range_mul_const(f.step, *d);
    }
  }
  return std::nullopt;
}

std::optional<Range> FactDB::elem_value(sym::SymbolId array, const ExprPtr& idx,
                                        const AssumptionContext& ctx) const {
  const ArrayFacts* facts = find(array);
  if (!facts) return std::nullopt;
  for (const IdentityFact& f : facts->identities) {
    if (covers(f.lo, f.hi, idx, idx, ctx)) return Range::exact(idx);
  }
  for (const ValueFact& f : facts->values) {
    if (covers(f.lo, f.hi, idx, idx, ctx)) return f.value;
  }
  // Anchored derivation: a point value fact a[p] plus a step fact covering the
  // links (p, idx] bounds a[idx] by a[p] + (idx - p) * step (e.g. the prefix
  // sum r[0] = 0 with step in [0 : 2] gives r[b] ∈ [0 : 2b]).
  for (const ValueFact& anchor : facts->values) {
    if (!sym::equal(anchor.lo, anchor.hi)) continue;
    const ExprPtr& p = anchor.lo;
    if (prove_ge(idx, p, ctx) != Truth::True) continue;
    ExprPtr link_lo = sym::add(p, sym::make_const(1));
    for (const StepFact& f : facts->steps) {
      if (!covers(f.lo, f.hi, link_lo, idx, ctx)) continue;
      ExprPtr dist = sym::sub(idx, p);
      Range walk = sym::range_mul_nonneg(f.step, dist);
      // Only meaningful when the step has a definite sign; otherwise the
      // product bound above is not valid for a symbolic distance.
      bool nonneg = sym::prove_nonneg(f.step, ctx) == Truth::True;
      bool nonpos = f.step.hi() &&
                    prove_ge(sym::make_const(0), f.step.hi(), ctx) == Truth::True;
      if (nonneg) {
        // Values rise from the anchor: lo = anchor.lo, hi = anchor.hi + d*step.hi.
        ExprPtr hi = (anchor.value.hi() && walk.hi()) ? sym::add(anchor.value.hi(), walk.hi())
                                                      : nullptr;
        return Range::of(anchor.value.lo(), hi);
      }
      if (nonpos) {
        ExprPtr lo = (anchor.value.lo() && walk.lo()) ? sym::add(anchor.value.lo(), walk.lo())
                                                      : nullptr;
        return Range::of(lo, anchor.value.hi());
      }
    }
  }
  return std::nullopt;
}

bool FactDB::injective_over(sym::SymbolId array, const ExprPtr& lo, const ExprPtr& hi,
                            const AssumptionContext& ctx,
                            std::optional<int64_t>* min_value_out,
                            bool* from_chain_out) const {
  const ArrayFacts* facts = find(array);
  if (!facts) return false;
  for (const InjectiveFact& f : facts->injectives) {
    if (covers(f.lo, f.hi, lo, hi, ctx)) {
      if (min_value_out) *min_value_out = f.min_value;
      if (from_chain_out) *from_chain_out = f.from_chain;
      return true;
    }
  }
  // Strict monotonicity over the whole section implies injectivity.
  for (const StepFact& f : facts->steps) {
    if (!covers(f.lo, f.hi, sym::add(lo, sym::make_const(1)), hi, ctx)) continue;
    bool strict_inc = sym::prove_pos(f.step, ctx) == Truth::True;
    bool strict_dec =
        f.step.hi() && sym::prove_le(f.step.hi(), sym::make_const(-1), ctx) == Truth::True;
    if (strict_inc || strict_dec) {
      if (min_value_out) *min_value_out = std::nullopt;
      if (from_chain_out) *from_chain_out = false;
      return true;
    }
  }
  return false;
}

bool FactDB::identity_over(sym::SymbolId array, const ExprPtr& lo, const ExprPtr& hi,
                           const AssumptionContext& ctx) const {
  const ArrayFacts* facts = find(array);
  if (!facts) return false;
  for (const IdentityFact& f : facts->identities) {
    if (covers(f.lo, f.hi, lo, hi, ctx)) return true;
  }
  return false;
}

AssumptionContext FactDB::with_facts(const AssumptionContext& base) const {
  AssumptionContext ctx = base;
  // Coverage proofs inside the callbacks use `base` (symbol bounds only), so
  // the callbacks cannot recurse into themselves.
  ctx.set_elem_diff([this, &base](sym::SymbolId array, const ExprPtr& hi_idx,
                                  const ExprPtr& lo_idx) { return elem_diff(array, hi_idx, lo_idx, base); });
  ctx.set_elem_value([this, &base](sym::SymbolId array, const ExprPtr& idx) {
    return elem_value(array, idx, base);
  });
  return ctx;
}

std::string FactDB::to_string(const sym::SymbolTable& syms) const {
  std::string out;
  auto section = [&syms](const ExprPtr& lo, const ExprPtr& hi) {
    return "[" + sym::to_string(lo, syms) + " : " + sym::to_string(hi, syms) + "]";
  };
  for (const auto& [array, facts] : *this) {
    const std::string& name = syms.name(array);
    for (const auto& f : facts.identities) {
      out += name + ": " + section(f.lo, f.hi) + ", Identity\n";
    }
    for (const auto& f : facts.values) {
      out += name + ": " + section(f.lo, f.hi) + ", value " + f.value.to_string(syms) + "\n";
    }
    for (const auto& f : facts.steps) {
      out += name + ": links " + section(f.lo, f.hi) + ", step " + f.step.to_string(syms) + "\n";
    }
    for (const auto& f : facts.injectives) {
      out += name + ": " + section(f.lo, f.hi) + ", Injective";
      if (f.min_value) out += support::format(" (values >= %lld)", (long long)*f.min_value);
      out += "\n";
    }
  }
  return out;
}

}  // namespace sspar::core
