#ifndef EVIDENT_QUERY_ENGINE_H_
#define EVIDENT_QUERY_ENGINE_H_

#include <memory>
#include <string>

#include "common/result.h"
#include "core/extended_relation.h"
#include "core/operations.h"
#include "core/query_context.h"
#include "query/ast.h"
#include "query/plan.h"
#include "storage/catalog.h"

namespace evident {

/// \brief Executes EQL queries against a catalog of extended relations —
/// the "query processing" box of the paper's Figure 1.
///
/// A thin parse → plan → optimize → execute pipeline: the parsed AST is
/// bound into a logical plan (query/plan.h), rewritten by the pushdown
/// optimizer (query/optimizer.h) unless disabled, lowered to fused scan
/// pipelines (LowerToFusedPipelines), and executed over the relational
/// operators. Fusion has no switch: callers that want the unfused plan
/// compose eql::BuildPlan → OptimizePlan → ExecutePlan themselves.
/// `EXPLAIN SELECT ...` returns the optimized plan rendering as a
/// relation instead of executing it.
///
/// Pipeline semantics: FROM (scan / extended union / intersection /
/// product / join) → WHERE (extended selection with F_SS + F_TM) → WITH
/// (membership threshold Q) → SELECT (extended projection; key
/// attributes are implicitly added if omitted, since the paper's
/// projection always carries keys) → ORDER BY / LIMIT.
class QueryEngine {
 public:
  explicit QueryEngine(const Catalog* catalog) : catalog_(catalog) {}

  /// \brief Parses, plans and runs a query (or, for EXPLAIN, returns the
  /// plan rendering as a two-column relation).
  Result<ExtendedRelation> Execute(const std::string& eql_text) const;

  /// \brief Runs an already-parsed query.
  Result<ExtendedRelation> ExecuteParsed(const eql::ParsedQuery& query) const;

  /// \name Prepared execution (the session layer's plan cache).
  /// @{
  /// Parses and plans a statement without executing it. The returned
  /// plan pins the catalog snapshot it was built on
  /// (LogicalPlan::snapshot) and is immutable after optimization, so it
  /// may be cached, shared across sessions, and executed concurrently
  /// from multiple threads. EXPLAIN statements cannot be prepared.
  Result<std::shared_ptr<const eql::LogicalPlan>> Prepare(
      const std::string& eql_text) const;
  Result<std::shared_ptr<const eql::LogicalPlan>> PrepareParsed(
      const eql::ParsedQuery& query) const;

  /// Executes a previously prepared plan — against its *pinned* snapshot,
  /// regardless of catalog republishes since preparation. Governed
  /// exactly like Execute when a query context is attached.
  Result<ExtendedRelation> ExecutePrepared(const eql::LogicalPlan& plan) const;
  /// @}

  /// \brief The plan the query would execute with, as the multi-line
  /// EXPLAIN rendering, without executing it.
  Result<std::string> Explain(const std::string& eql_text) const;

  /// \brief Options controlling union behaviour in FROM ... UNION /
  /// INTERSECT.
  void set_union_options(const UnionOptions& options) {
    union_options_ = options;
  }

  /// \brief Toggles the pushdown optimizer (on by default). The
  /// optimized and unoptimized plans produce bit-identical result sets
  /// and identical first errors — enforced by the EQL fuzz differential;
  /// the toggle exists for that differential and for plan-shape
  /// debugging.
  void set_optimizer_enabled(bool enabled) { optimize_ = enabled; }
  bool optimizer_enabled() const { return optimize_; }

  /// \brief Attaches a resource governor: every subsequent Execute /
  /// ExecuteParsed installs `context` (ScopedQueryContext), calls its
  /// BeginQuery(), and runs governed — deadline and cancellation polled
  /// at morsel boundaries and in serial enumeration loops, operator
  /// outputs charged against the memory budget and row cap. A tripped
  /// limit surfaces as a deterministic ExecError; the engine, catalog and
  /// worker pool stay fully usable for the next query. Pass nullptr to
  /// detach. The caller keeps ownership; `context` must outlive every
  /// governed Execute call. Cross-thread cancellation
  /// (context->RequestCancel()) is safe while a query runs. The ambient
  /// context slot is thread-local: any number of engines, each with its
  /// own context, may execute governed queries concurrently on
  /// different threads (the session layer in server/session.h does
  /// exactly that).
  void set_query_context(QueryContext* context) { context_ = context; }
  QueryContext* query_context() const { return context_; }

 private:
  /// Builds the bound logical plan, optimizes it when enabled, and
  /// lowers fusible chains.
  Result<eql::LogicalPlan> Plan(const eql::ParsedQuery& query) const;

  const Catalog* catalog_;
  UnionOptions union_options_;
  bool optimize_ = true;
  QueryContext* context_ = nullptr;  // not owned
};

}  // namespace evident

#endif  // EVIDENT_QUERY_ENGINE_H_
