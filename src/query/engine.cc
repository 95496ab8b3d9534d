#include "query/engine.h"

#include <cstdint>
#include <sstream>
#include <utility>

#include "query/optimizer.h"
#include "query/parser.h"

namespace evident {

namespace {

/// The EXPLAIN statement's result shape: one row per plan line, keyed by
/// line number so the rendering order is recoverable from the relation.
Result<ExtendedRelation> PlanAsRelation(const std::string& rendering) {
  EVIDENT_ASSIGN_OR_RETURN(
      SchemaPtr schema,
      RelationSchema::Make(
          {AttributeDef::Key("line"), AttributeDef::Definite("plan")}));
  ExtendedRelation out("explain", schema);
  std::istringstream lines(rendering);
  int64_t number = 0;
  for (std::string line; std::getline(lines, line);) {
    ExtendedTuple t;
    t.cells.emplace_back(Value(++number));
    t.cells.emplace_back(Value(line));
    t.membership = SupportPair::Certain();
    EVIDENT_RETURN_NOT_OK(out.Insert(std::move(t)));
  }
  return out;
}

}  // namespace

Result<eql::LogicalPlan> QueryEngine::Plan(
    const eql::ParsedQuery& query) const {
  EVIDENT_ASSIGN_OR_RETURN(eql::LogicalPlan plan,
                           eql::BuildPlan(query, catalog_, union_options_));
  if (optimize_) {
    eql::OptimizePlan(&plan);
  } else {
    eql::AnnotatePlanEstimates(&plan);
  }
  eql::LowerToFusedPipelines(&plan);
  return plan;
}

Result<ExtendedRelation> QueryEngine::ExecuteParsed(
    const eql::ParsedQuery& query) const {
  EVIDENT_ASSIGN_OR_RETURN(eql::LogicalPlan plan, Plan(query));
  if (query.explain) return PlanAsRelation(eql::RenderPlan(plan));
  return ExecutePrepared(plan);
}

Result<std::shared_ptr<const eql::LogicalPlan>> QueryEngine::PrepareParsed(
    const eql::ParsedQuery& query) const {
  if (query.explain) {
    return Status::InvalidArgument("cannot prepare an EXPLAIN statement");
  }
  EVIDENT_ASSIGN_OR_RETURN(eql::LogicalPlan plan, Plan(query));
  return std::make_shared<const eql::LogicalPlan>(std::move(plan));
}

Result<std::shared_ptr<const eql::LogicalPlan>> QueryEngine::Prepare(
    const std::string& eql_text) const {
  EVIDENT_ASSIGN_OR_RETURN(eql::ParsedQuery query, ParseQuery(eql_text));
  return PrepareParsed(query);
}

Result<ExtendedRelation> QueryEngine::ExecutePrepared(
    const eql::LogicalPlan& plan) const {
  if (context_ == nullptr) return eql::ExecutePlan(plan);
  // Governed execution: the context is installed in this thread's
  // ambient slot and discovered by the morsel scheduler and the operator
  // layer (CurrentQueryContext); workers inherit it through the morsel
  // job. The deadline clock starts here — parsing and planning are not
  // billed against it.
  context_->BeginQuery();
  ScopedQueryContext scope(context_);
  return eql::ExecutePlan(plan);
}

Result<ExtendedRelation> QueryEngine::Execute(
    const std::string& eql_text) const {
  EVIDENT_ASSIGN_OR_RETURN(eql::ParsedQuery query, ParseQuery(eql_text));
  return ExecuteParsed(query);
}

Result<std::string> QueryEngine::Explain(const std::string& eql_text) const {
  EVIDENT_ASSIGN_OR_RETURN(eql::ParsedQuery query, ParseQuery(eql_text));
  EVIDENT_ASSIGN_OR_RETURN(eql::LogicalPlan plan, Plan(query));
  return eql::RenderPlan(plan);
}

}  // namespace evident
