#include "core/join_plan.h"

#include <algorithm>
#include <utility>

namespace evident {

void FlattenConjuncts(const PredicatePtr& predicate,
                      std::vector<PredicatePtr>* out) {
  if (const auto* conj = dynamic_cast<const AndPredicate*>(predicate.get())) {
    if (!conj->children().empty()) {
      for (const PredicatePtr& child : conj->children()) {
        FlattenConjuncts(child, out);
      }
      return;
    }
    // An empty conjunction fails per tuple in AndPredicate::Evaluate;
    // keep it as a leaf so analysis reports the same error at plan time.
  }
  out->push_back(predicate);
}

PredicatePtr JoinPredicate::ResidualPredicate() const {
  if (residual.empty()) return nullptr;
  if (residual.size() == 1) return residual.front().predicate;
  std::vector<PredicatePtr> children;
  children.reserve(residual.size());
  for (const ResidualConjunct& c : residual) children.push_back(c.predicate);
  return And(std::move(children));
}

namespace {

/// True when the attribute at `index` of the product schema holds a
/// definite value in every tuple — the trusted-cell requirement for hash
/// partitioning (evidence cells only ever yield graded support).
bool IsDefiniteAttribute(const RelationSchema& schema, size_t index) {
  const AttributeKind kind = schema.attribute(index).kind;
  return kind == AttributeKind::kKey || kind == AttributeKind::kDefinite;
}

}  // namespace

JoinPredicate AnalyzeJoinPredicate(
    const PredicatePtr& predicate, const RelationSchema& product_schema,
    const std::vector<size_t>& operand_attr_counts) {
  JoinPredicate out;
  if (predicate == nullptr) return out;
  std::vector<PredicatePtr> conjuncts;
  FlattenConjuncts(predicate, &conjuncts);
  // Flat product position -> (operand, operand-local position).
  auto locate = [&](size_t flat) {
    size_t op = 0;
    while (op + 1 < operand_attr_counts.size() &&
           flat >= operand_attr_counts[op]) {
      flat -= operand_attr_counts[op];
      ++op;
    }
    return std::pair<size_t, size_t>{op, flat};
  };
  // Resolves one attribute reference the way evaluation does, keeping
  // the first failure.
  auto resolve = [&](const std::string& name, size_t* index) {
    Result<size_t> found = product_schema.IndexOf(name);
    if (!found.ok()) {
      if (out.status.ok()) out.status = found.status();
      return false;
    }
    *index = *found;
    return true;
  };

  for (const PredicatePtr& conjunct : conjuncts) {
    ResidualConjunct residual{conjunct, {}};
    auto add_operand = [&](size_t flat) {
      residual.operands.push_back(locate(flat).first);
    };
    if (dynamic_cast<const AndPredicate*>(conjunct.get()) != nullptr) {
      if (out.status.ok()) {
        out.status = Status::InvalidArgument("empty conjunction");
      }
    } else if (const auto* is =
                   dynamic_cast<const IsPredicate*>(conjunct.get())) {
      // Over an uncertain attribute, evaluation resolves the named
      // constants against the frame for *every* tuple; resolve them once
      // here so a constant outside the frame fails the join whether or
      // not any combination matches (as it fails Select over the
      // product).
      size_t index = 0;
      if (resolve(is->attribute(), &index)) {
        add_operand(index);
        const AttributeDef& attr = product_schema.attribute(index);
        for (const Value& v : is->values()) {
          if (!attr.is_uncertain() || !out.status.ok()) break;
          out.status = attr.domain->IndexOf(v).status();
        }
      }
    } else if (const auto* theta =
                   dynamic_cast<const ThetaPredicate*>(conjunct.get())) {
      size_t lhs = 0, rhs = 0;
      const bool lhs_ok =
          theta->lhs().is_attribute() && resolve(theta->lhs().attribute(), &lhs);
      const bool rhs_ok =
          theta->rhs().is_attribute() && resolve(theta->rhs().attribute(), &rhs);
      if (lhs_ok) add_operand(lhs);
      if (rhs_ok) add_operand(rhs);
      if (theta->op() == ThetaOp::kEq && lhs_ok && rhs_ok &&
          IsDefiniteAttribute(product_schema, lhs) &&
          IsDefiniteAttribute(product_schema, rhs)) {
        auto [lop, lidx] = locate(lhs);
        auto [rop, ridx] = locate(rhs);
        if (lop != rop) {
          if (rop < lop) {
            std::swap(lop, rop);
            std::swap(lidx, ridx);
          }
          out.edges.push_back(JoinEdge{lop, lidx, rop, ridx});
          continue;
        }
      }
    }
    std::sort(residual.operands.begin(), residual.operands.end());
    residual.operands.erase(
        std::unique(residual.operands.begin(), residual.operands.end()),
        residual.operands.end());
    out.residual.push_back(std::move(residual));
  }
  return out;
}

}  // namespace evident
