#include "core/bound_predicate.h"

#include <algorithm>
#include <bit>
#include <utility>

#include "common/math_util.h"

namespace evident {

namespace {

using FocalBuf = std::vector<std::pair<uint64_t, double>>;

/// Reused per-thread buffers: per-row focal gathers for theta operands
/// and the dynamic satisfaction table when a side is a definite
/// attribute (whose value changes per row).
struct EvalScratch {
  FocalBuf lhs_focals;
  FocalBuf rhs_focals;
  std::vector<uint64_t> sat;
};

EvalScratch& Scratch() {
  thread_local EvalScratch scratch;
  return scratch;
}

/// Sorts gathered focals into the order ThetaOperand::Decompose exposes
/// (MassFunction::SortedFocals: cardinality, then bit pattern) so the
/// bound path accumulates mass products in the identical sequence.
void SortFocalsPaperOrder(FocalBuf* focals) {
  std::sort(focals->begin(), focals->end(),
            [](const auto& a, const auto& b) {
              const int ca = std::popcount(a.first);
              const int cb = std::popcount(b.first);
              if (ca != cb) return ca < cb;
              return a.first < b.first;
            });
}

SupportPair IsDefiniteSupport(const Value& stored,
                              const std::vector<Value>& values) {
  for (const Value& c : values) {
    if (stored == c) return SupportPair::Certain();
  }
  return SupportPair::Impossible();
}

/// Bel/Pls of the subset mask `set` over a packed focal span, in span
/// (= focal store) order — the arithmetic of MassFunction::Belief and
/// ::Plausibility fused into one pass.
SupportPair IsEvidenceSupportSpan(uint64_t set, const uint64_t* words,
                                  const double* masses, size_t n) {
  double bel = 0.0;
  double pls = 0.0;
  for (size_t i = 0; i < n; ++i) {
    const uint64_t w = words[i];
    if (w != 0 && (w & ~set) == 0) bel += masses[i];
    if ((w & set) != 0) pls += masses[i];
  }
  return SupportPair{ClampUnit(bel), ClampUnit(pls)};
}

}  // namespace

BoundPredicate BoundPredicate::Bind(PredicatePtr predicate, SchemaPtr schema) {
  BoundPredicate bound;
  bound.root_ = std::move(predicate);
  bound.schema_ = std::move(schema);
  bound.fully_bound_ = bound.root_ != nullptr && bound.schema_ != nullptr;
  if (bound.root_ != nullptr) bound.BindInto(bound.root_);
  return bound;
}

BoundPredicate BoundPredicate::BindProduct(
    PredicatePtr predicate, SchemaPtr schema,
    const std::vector<size_t>& operand_attr_counts) {
  BoundPredicate bound = Bind(std::move(predicate), std::move(schema));
  for (size_t op = 0; op < operand_attr_counts.size(); ++op) {
    for (size_t a = 0; a < operand_attr_counts[op]; ++a) {
      bound.operand_of_.push_back(static_cast<uint32_t>(op));
      bound.local_of_.push_back(static_cast<uint32_t>(a));
    }
  }
  return bound;
}

void BoundPredicate::BindInto(const PredicatePtr& predicate) {
  // Flatten conjunction trees: multiplying child products in depth-first
  // order equals multiplying the flattened conjunct sequence (the
  // accumulator starts at the multiplicative identity (1,1)). The empty
  // conjunction is *not* flattened away — it must keep producing the
  // interpreted path's per-row error.
  if (const auto* conjunction =
          dynamic_cast<const AndPredicate*>(predicate.get());
      conjunction != nullptr && !conjunction->children().empty()) {
    for (const PredicatePtr& child : conjunction->children()) {
      BindInto(child);
    }
    return;
  }
  if (!BindConjunct(predicate)) {
    // Callers route unbound predicates to interpreted per-row (or
    // per-pair) evaluation wholesale, so no fallback conjunct is stored
    // — the flag is the whole answer.
    fully_bound_ = false;
  }
}

namespace {

/// Fills `sat` with one mask per lhs element: the rhs elements
/// satisfying theta. `lhs_value`/`rhs_value` supply the single value of
/// a value-typed side (literal at bind time, the row's cell during
/// evaluation).
template <typename LhsValueAt, typename RhsValueAt>
void BuildSatTable(size_t lhs_universe, size_t rhs_universe, ThetaOp op,
                   LhsValueAt&& lhs_value, RhsValueAt&& rhs_value,
                   std::vector<uint64_t>* sat) {
  sat->clear();
  for (size_t s = 0; s < lhs_universe; ++s) {
    const Value& a = lhs_value(s);
    uint64_t mask = 0;
    for (size_t t = 0; t < rhs_universe; ++t) {
      if (ApplyThetaOp(a, op, rhs_value(t))) mask |= uint64_t{1} << t;
    }
    sat->push_back(mask);
  }
}

/// The theta support sum over two focal lists and a satisfaction table —
/// the bound equivalent of ThetaPredicate::Evaluate's pair loop, with
/// the per-element comparisons replaced by mask tests. Accumulation
/// order matches: lhs focals outer, rhs inner, sn/sp += mass product.
SupportPair ThetaSupport(ThetaSemantics semantics, const FocalBuf& lhs,
                         const FocalBuf& rhs, const uint64_t* sat) {
  double sn = 0.0;
  double sp = 0.0;
  for (const auto& [wa, ma] : lhs) {
    for (const auto& [wb, mb] : rhs) {
      bool some = false;
      bool necessary = wa != 0 && wb != 0;
      uint64_t rem = wa;
      while (rem != 0) {
        const int s = std::countr_zero(rem);
        rem &= rem - 1;
        const uint64_t hit = sat[s] & wb;
        if (hit != 0) {
          some = true;
        }
        const bool element_ok = semantics == ThetaSemantics::kForallExists
                                    ? hit != 0
                                    : hit == wb;
        if (!element_ok) necessary = false;
      }
      const double product = ma * mb;
      if (necessary) sn += product;
      if (some) sp += product;
    }
  }
  return SupportPair{ClampUnit(sn), ClampUnit(sp)};
}

}  // namespace

bool BoundPredicate::BindConjunct(const PredicatePtr& predicate) {
  if (const auto* is = dynamic_cast<const IsPredicate*>(predicate.get())) {
    Result<size_t> index = schema_->IndexOf(is->attribute());
    if (!index.ok()) return false;
    const AttributeDef& attr = schema_->attribute(*index);
    Conjunct c;
    c.attr = *index;
    if (attr.kind != AttributeKind::kUncertain) {
      c.kind = Conjunct::Kind::kIsDefinite;
      c.is_values = &is->values();
      conjuncts_.push_back(std::move(c));
      return true;
    }
    if (attr.domain == nullptr ||
        attr.domain->size() > ValueSet::kMaxInlineUniverse) {
      return false;
    }
    uint64_t word = 0;
    for (const Value& v : is->values()) {
      Result<size_t> vi = attr.domain->IndexOf(v);
      // A constant outside the frame is a per-row error in the
      // interpreted path; fall back so the error (and its absence over
      // an empty relation) reproduces exactly.
      if (!vi.ok()) return false;
      word |= uint64_t{1} << *vi;
    }
    c.kind = Conjunct::Kind::kIsEvidence;
    c.set_word = word;
    conjuncts_.push_back(std::move(c));
    return true;
  }

  const auto* theta = dynamic_cast<const ThetaPredicate*>(predicate.get());
  if (theta == nullptr) return false;

  Conjunct c;
  c.kind = Conjunct::Kind::kTheta;
  c.op = theta->op();
  c.semantics = theta->semantics();
  auto bind_operand = [this](const ThetaOperand& operand, Operand* out) {
    if (operand.is_attribute()) {
      Result<size_t> index = schema_->IndexOf(operand.attribute());
      if (!index.ok()) return false;
      const AttributeDef& attr = schema_->attribute(*index);
      out->attr = *index;
      if (attr.kind != AttributeKind::kUncertain) {
        out->kind = Operand::Kind::kDefiniteAttr;
        return true;
      }
      if (attr.domain == nullptr ||
          attr.domain->size() > ValueSet::kMaxInlineUniverse) {
        return false;
      }
      out->kind = Operand::Kind::kEvidenceAttr;
      out->domain = attr.domain.get();
      return true;
    }
    if (operand.is_literal_value()) {
      out->kind = Operand::Kind::kLitValue;
      out->lit_value = &operand.literal_value();
      return true;
    }
    const EvidenceSet& es = operand.literal_evidence();
    if (es.domain() == nullptr ||
        es.domain()->size() > ValueSet::kMaxInlineUniverse) {
      return false;
    }
    out->kind = Operand::Kind::kLitEvidence;
    out->domain = es.domain().get();
    for (const auto& [set, mass] : es.mass().SortedFocals()) {
      out->lit_words.push_back(set.InlineWord());
      out->lit_masses.push_back(mass);
    }
    return true;
  };
  if (!bind_operand(theta->lhs(), &c.lhs)) return false;
  if (!bind_operand(theta->rhs(), &c.rhs)) return false;

  if (c.lhs.kind != Operand::Kind::kDefiniteAttr &&
      c.rhs.kind != Operand::Kind::kDefiniteAttr) {
    c.sat_static = true;
    BuildSatTable(
        c.lhs.universe(), c.rhs.universe(), c.op,
        [&](size_t s) -> const Value& {
          return c.lhs.kind == Operand::Kind::kLitValue
                     ? *c.lhs.lit_value
                     : c.lhs.domain->value(s);
        },
        [&](size_t t) -> const Value& {
          return c.rhs.kind == Operand::Kind::kLitValue
                     ? *c.rhs.lit_value
                     : c.rhs.domain->value(t);
        },
        &c.sat);
  }
  conjuncts_.push_back(std::move(c));
  return true;
}

namespace {

/// Evaluates one bound theta conjunct. `value_at(attr)` yields the row's
/// definite cell value; `gather(attr, buf)` appends the row's evidence
/// focals as (word, mass) in focal-store order.
template <typename ValueAt, typename Gather>
SupportPair EvalTheta(const BoundPredicate::Conjunct& c, ValueAt&& value_at,
                      Gather&& gather, EvalScratch& s) {
  using Operand = BoundPredicate::Operand;
  const Value* lhs_value = nullptr;
  const Value* rhs_value = nullptr;
  auto load_side = [&](const Operand& o, FocalBuf* buf, const Value** value) {
    buf->clear();
    switch (o.kind) {
      case Operand::Kind::kDefiniteAttr:
        *value = &value_at(o.attr);
        buf->emplace_back(uint64_t{1}, 1.0);
        break;
      case Operand::Kind::kLitValue:
        *value = o.lit_value;
        buf->emplace_back(uint64_t{1}, 1.0);
        break;
      case Operand::Kind::kEvidenceAttr:
        gather(o.attr, buf);
        SortFocalsPaperOrder(buf);
        break;
      case Operand::Kind::kLitEvidence:
        for (size_t k = 0; k < o.lit_words.size(); ++k) {
          buf->emplace_back(o.lit_words[k], o.lit_masses[k]);
        }
        break;
    }
  };
  load_side(c.lhs, &s.lhs_focals, &lhs_value);
  load_side(c.rhs, &s.rhs_focals, &rhs_value);

  const uint64_t* sat;
  if (c.sat_static) {
    sat = c.sat.data();
  } else {
    BuildSatTable(
        c.lhs.universe(), c.rhs.universe(), c.op,
        [&](size_t i) -> const Value& {
          return c.lhs.value_typed() ? *lhs_value : c.lhs.domain->value(i);
        },
        [&](size_t t) -> const Value& {
          return c.rhs.value_typed() ? *rhs_value : c.rhs.domain->value(t);
        },
        &s.sat);
    sat = s.sat.data();
  }
  return ThetaSupport(c.semantics, s.lhs_focals, s.rhs_focals, sat);
}

}  // namespace

SupportPair BoundPredicate::EvaluateCombination(
    const ColumnStore* const* stores, const uint32_t* rows) const {
  EvalScratch& s = Scratch();
  // Bound conjuncts only reference kValue columns (definite attributes)
  // and kEvidence columns (inline-frame uncertain attributes) — wider
  // frames never bind — so the operand stores cover every resolvable
  // operand.
  auto value_at = [&](size_t a) -> const Value& {
    const uint32_t op = operand_of_[a];
    return stores[op]->value_column(local_of_[a]).values[rows[op]];
  };
  auto span_of = [&](size_t a, const ColumnStore::EvidenceColumn** col,
                     uint32_t* first, uint32_t* count) {
    const uint32_t op = operand_of_[a];
    *col = &stores[op]->evidence_column(local_of_[a]);
    *first = (*col)->offsets[rows[op]];
    *count = (*col)->offsets[rows[op] + 1] - *first;
  };
  auto gather = [&](size_t a, FocalBuf* buf) {
    const ColumnStore::EvidenceColumn* col;
    uint32_t first, count;
    span_of(a, &col, &first, &count);
    for (uint32_t k = 0; k < count; ++k) {
      buf->emplace_back(col->words[first + k], col->masses[first + k]);
    }
  };
  SupportPair acc = SupportPair::Certain();
  for (const Conjunct& c : conjuncts_) {
    SupportPair support;
    switch (c.kind) {
      case Conjunct::Kind::kIsDefinite:
        support = IsDefiniteSupport(value_at(c.attr), *c.is_values);
        break;
      case Conjunct::Kind::kIsEvidence: {
        const ColumnStore::EvidenceColumn* col;
        uint32_t first, count;
        span_of(c.attr, &col, &first, &count);
        support = IsEvidenceSupportSpan(c.set_word, col->words.data() + first,
                                        col->masses.data() + first, count);
        break;
      }
      case Conjunct::Kind::kTheta:
        support = EvalTheta(c, value_at, gather, s);
        break;
    }
    acc = acc.Multiply(support);
  }
  return acc;
}

void BoundPredicate::EvaluateColumns(const ColumnStore& store, size_t begin,
                                     size_t end, SupportPair* out) const {
  EvalScratch& s = Scratch();
  for (size_t r = begin; r < end; ++r) out[r] = SupportPair::Certain();
  // Column-at-a-time: each conjunct sweeps its rows contiguously; the
  // per-row multiplication sequence still runs in conjunct order, so the
  // result equals the row-at-a-time product bit for bit.
  for (const Conjunct& c : conjuncts_) {
    switch (c.kind) {
      case Conjunct::Kind::kIsDefinite: {
        const std::vector<Value>& values =
            store.value_column(c.attr).values;
        for (size_t r = begin; r < end; ++r) {
          out[r] = out[r].Multiply(IsDefiniteSupport(values[r], *c.is_values));
        }
        break;
      }
      case Conjunct::Kind::kIsEvidence: {
        const ColumnStore::EvidenceColumn& col = store.evidence_column(c.attr);
        for (size_t r = begin; r < end; ++r) {
          const uint32_t first = col.offsets[r];
          out[r] = out[r].Multiply(IsEvidenceSupportSpan(
              c.set_word, col.words.data() + first, col.masses.data() + first,
              col.offsets[r + 1] - first));
        }
        break;
      }
      case Conjunct::Kind::kTheta: {
        for (size_t r = begin; r < end; ++r) {
          out[r] = out[r].Multiply(EvalTheta(
              c,
              [&](size_t a) -> const Value& {
                return store.value_column(a).values[r];
              },
              [&](size_t a, FocalBuf* buf) {
                const ColumnStore::EvidenceColumn& col =
                    store.evidence_column(a);
                const uint32_t first = col.offsets[r];
                const uint32_t count = col.offsets[r + 1] - first;
                for (uint32_t k = 0; k < count; ++k) {
                  buf->emplace_back(col.words[first + k],
                                    col.masses[first + k]);
                }
              },
              s));
        }
        break;
      }
    }
  }
}

namespace {

/// True when no value in [min, max] can satisfy `attr_value op lit` —
/// the attribute's zone bounds stand in for every row at once. Uses the
/// same Value ordering the theta kernels evaluate with, so a refuted
/// partition is one where every row's support would compute to (0, 0).
bool ZoneRefutesTheta(ThetaOp op, const Value& min, const Value& max,
                      const Value& lit, bool attr_is_lhs) {
  if (attr_is_lhs) {
    switch (op) {
      case ThetaOp::kEq:
        return lit < min || max < lit;
      case ThetaOp::kLt:  // attr < lit needs min < lit
        return !(min < lit);
      case ThetaOp::kLe:
        return !(min <= lit);
      case ThetaOp::kGt:  // attr > lit needs lit < max
        return !(lit < max);
      case ThetaOp::kGe:
        return !(lit <= max);
    }
  } else {
    switch (op) {
      case ThetaOp::kEq:
        return lit < min || max < lit;
      case ThetaOp::kLt:  // lit < attr needs lit < max
        return !(lit < max);
      case ThetaOp::kLe:
        return !(lit <= max);
      case ThetaOp::kGt:  // lit > attr needs min < lit
        return !(min < lit);
      case ThetaOp::kGe:
        return !(min <= lit);
    }
  }
  return false;
}

/// Attr-vs-attr refutation: the two zones as interval bounds.
bool ZonesRefuteTheta(ThetaOp op, const ColumnStore::ValueZone& a,
                      const ColumnStore::ValueZone& b) {
  switch (op) {
    case ThetaOp::kEq:  // disjoint ranges
      return a.max < b.min || b.max < a.min;
    case ThetaOp::kLt:  // a < b needs a.min < b.max
      return !(a.min < b.max);
    case ThetaOp::kLe:
      return !(a.min <= b.max);
    case ThetaOp::kGt:  // a > b needs b.min < a.max
      return !(b.min < a.max);
    case ThetaOp::kGe:
      return !(b.min <= a.max);
  }
  return false;
}

}  // namespace

bool BoundPredicate::RefutesPartition(
    const ColumnStore::PartitionZone& zone) const {
  if (!fully_bound_ || !operand_of_.empty()) return false;
  auto value_zone = [&](size_t attr) -> const ColumnStore::ValueZone* {
    if (attr >= zone.values.size() || !zone.values[attr].has) return nullptr;
    return &zone.values[attr];
  };
  for (const Conjunct& c : conjuncts_) {
    switch (c.kind) {
      case Conjunct::Kind::kIsDefinite: {
        const ColumnStore::ValueZone* vz = value_zone(c.attr);
        if (vz == nullptr) break;
        bool any_inside = false;
        for (const Value& v : *c.is_values) {
          if (!(v < vz->min) && !(vz->max < v)) {
            any_inside = true;
            break;
          }
        }
        if (!any_inside) return true;
        break;
      }
      case Conjunct::Kind::kIsEvidence:
        break;  // evidence supports are not bounded by value zones
      case Conjunct::Kind::kTheta: {
        const bool lhs_attr = c.lhs.kind == Operand::Kind::kDefiniteAttr;
        const bool rhs_attr = c.rhs.kind == Operand::Kind::kDefiniteAttr;
        if (lhs_attr && c.rhs.kind == Operand::Kind::kLitValue) {
          const ColumnStore::ValueZone* vz = value_zone(c.lhs.attr);
          if (vz != nullptr && ZoneRefutesTheta(c.op, vz->min, vz->max,
                                                *c.rhs.lit_value,
                                                /*attr_is_lhs=*/true)) {
            return true;
          }
        } else if (rhs_attr && c.lhs.kind == Operand::Kind::kLitValue) {
          const ColumnStore::ValueZone* vz = value_zone(c.rhs.attr);
          if (vz != nullptr && ZoneRefutesTheta(c.op, vz->min, vz->max,
                                                *c.lhs.lit_value,
                                                /*attr_is_lhs=*/false)) {
            return true;
          }
        } else if (lhs_attr && rhs_attr) {
          const ColumnStore::ValueZone* la = value_zone(c.lhs.attr);
          const ColumnStore::ValueZone* rb = value_zone(c.rhs.attr);
          if (la != nullptr && rb != nullptr &&
              ZonesRefuteTheta(c.op, *la, *rb)) {
            return true;
          }
        }
        break;
      }
    }
  }
  return false;
}

}  // namespace evident
