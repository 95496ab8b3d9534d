#include "queries.h"

#include <algorithm>
#include <filesystem>
#include <stdexcept>

#include "core/operations.h"
#include "core/query_context.h"
#include "ds/mass_function.h"
#include "query/optimizer.h"
#include "query/parser.h"
#include "query/plan.h"

namespace perfbench {

using namespace evident;

DomainPtr Frame(const std::string& name, const std::string& prefix,
                size_t size) {
  std::vector<std::string> symbols;
  for (size_t i = 0; i < size; ++i) symbols.push_back(prefix + std::to_string(i));
  auto domain = Domain::MakeSymbolic(name, symbols);
  if (!domain.ok()) throw std::runtime_error(domain.status().ToString());
  return *domain;
}

EvidenceSet RandomEvidence(const DomainPtr& domain, size_t focals,
                           size_t max_width, bool with_theta, Rng& rng) {
  const size_t n = domain->size();
  std::vector<ValueSet> sets;
  while (sets.size() < focals) {
    ValueSet s(n);
    const size_t width = 1 + rng.Below(max_width);
    for (size_t i = 0; i < width; ++i) s.Set(rng.Below(n));
    if (s.IsFull()) continue;
    if (std::find(sets.begin(), sets.end(), s) == sets.end()) sets.push_back(s);
  }
  if (with_theta) sets.push_back(ValueSet::Full(n));
  std::vector<double> weights(sets.size());
  double total = 0;
  for (double& w : weights) total += (w = 0.1 + rng.Uniform());
  MassFunction mass(n);
  for (size_t i = 0; i < sets.size(); ++i) {
    const Status s = mass.Add(sets[i], weights[i] / total);
    if (!s.ok()) throw std::runtime_error(s.ToString());
  }
  auto es = EvidenceSet::Make(domain, std::move(mass));
  if (!es.ok()) throw std::runtime_error(es.status().ToString());
  return *es;
}

SupportPair RandomMembership(Rng& rng) {
  const double sn = 0.3 + 0.7 * rng.Uniform();
  return SupportPair(sn, sn + (1.0 - sn) * rng.Uniform());
}

SavedImage SaveImage(const Catalog& catalog, const std::string& path,
                     const PartitionSpec& spec) {
  const Status s = SaveErelFile(catalog, path, spec);
  if (!s.ok()) throw std::runtime_error("save: " + s.ToString());
  SavedImage saved;
  saved.image_bytes = static_cast<double>(std::filesystem::file_size(path));
  saved.text_bytes = static_cast<double>(WriteErel(catalog).size());
  return saved;
}

std::unique_ptr<Catalog> OpenImage(const std::string& path) {
  LoadOptions options;
  options.map = LoadOptions::Map::kAlways;
  auto loaded = LoadErelFile(path, options);
  if (!loaded.ok()) throw std::runtime_error("open: " + loaded.status().ToString());
  return std::make_unique<Catalog>(std::move(*loaded));
}

void QueryLayers::Merge(const QueryLayers& other) {
  parse_us.Append(other.parse_us);
  plan_us.Append(other.plan_us);
  optimize_us.Append(other.optimize_us);
  execute_ms.Append(other.execute_ms);
  overhead_us.Append(other.overhead_us);
  qerror.Append(other.qerror);
  rows_examined += other.rows_examined;
  result_rows += other.result_rows;
  partitions_pruned += other.partitions_pruned;
  partitions_total += other.partitions_total;
  rows_materialized += other.rows_materialized;
}

void QueryLayers::Report(perfbench::Report* report) const {
  report->Add("query.parse_us", parse_us.Median(), "us");
  report->Add("query.plan_us", plan_us.Median(), "us");
  report->Add("query.optimize_us", optimize_us.Median(), "us");
  report->Add("query.execute_ms", execute_ms.Median(), "ms");
  report->Add("server.overhead_us", overhead_us.Median(), "us");
  report->Add("query.root_qerror", qerror.Median(), "ratio");
  report->Add("query.rows_examined_per_result",
              result_rows > 0 ? rows_examined / result_rows : 0, "ratio");
  report->Add("storage.partitions_pruned_frac",
              partitions_total > 0 ? partitions_pruned / partitions_total : 0,
              "ratio");
  report->Add("core.rows_materialized", rows_materialized, "count");
}

Result<ExtendedRelation> TracedStatement(
    server::Session* session, const Catalog& catalog, const std::string& text,
    bool has_limit, bool exact, SpanRecorder* spans, uint64_t op,
    QueryLayers* layers, std::map<std::string, ExplainFacts>* explain) {
  // The statement as users run it.
  const uint64_t hits_before = session->plan_cache_hits();
  Clock::time_point t0 = Clock::now();
  Result<ExtendedRelation> served = kUnset;
  {
    ScopedSpan s(spans, "server.execute", op);
    served = session->Execute(text);
  }
  const double served_us = MsSince(t0) * 1e3;
  if (!served.ok()) return served;
  layers->rows_materialized += static_cast<double>(served->rows_materialized());
  const bool cache_hit = session->plan_cache_hits() > hits_before;

  // The same statement, one engine step at a time.
  Result<ExtendedRelation> composed = kUnset;
  double parse_us = 0, plan_us = 0, optimize_us = 0, execute_ms = 0;
  {
    ScopedSpan root(spans, "engine", op);
    t0 = Clock::now();
    Result<eql::ParsedQuery> parsed = kUnset;
    {
      ScopedSpan s(spans, "query.parse", op);
      parsed = ParseQuery(text);
    }
    parse_us = MsSince(t0) * 1e3;
    if (!parsed.ok()) return parsed.status();
    t0 = Clock::now();
    Result<eql::LogicalPlan> plan = kUnset;
    {
      ScopedSpan s(spans, "query.plan", op);
      plan = eql::BuildPlan(*parsed, &catalog, UnionOptions());
    }
    plan_us = MsSince(t0) * 1e3;
    if (!plan.ok()) return plan.status();
    t0 = Clock::now();
    {
      ScopedSpan s(spans, "query.optimize", op);
      eql::OptimizePlan(&*plan);
      eql::LowerToFusedPipelines(&*plan);
    }
    optimize_us = MsSince(t0) * 1e3;
    t0 = Clock::now();
    {
      ScopedSpan s(spans, "query.execute", op);
      QueryContext* context = session->engine().query_context();
      context->BeginQuery();
      ScopedQueryContext scope(context);
      composed = eql::ExecutePlan(*plan);
    }
    execute_ms = MsSince(t0);
  }
  if (!composed.ok()) return composed.status();
  const bool agree = exact ? DigestOf(*composed).Matches(DigestOf(*served))
                           : KeysOf(*composed) == KeysOf(*served);
  if (!agree) {
    return Status::InvalidArgument("composed engine steps disagree with "
                                   "Session::Execute on: " + text);
  }
  layers->parse_us.Add(parse_us);
  layers->plan_us.Add(plan_us);
  layers->optimize_us.Add(optimize_us);
  layers->execute_ms.Add(execute_ms);
  const double engine_us = parse_us + execute_ms * 1e3 +
                           (cache_hit ? 0.0 : plan_us + optimize_us);
  layers->overhead_us.Add(served_us - engine_us);

  // EXPLAIN once per statement and catalog version (a republish changes
  // the plan's inputs, e.g. a refreshed relation's partitioning).
  const std::string explain_key =
      std::to_string(catalog.version()) + ":" + text;
  auto it = explain->find(explain_key);
  if (it == explain->end()) {
    auto rendering = session->engine().Explain(text);
    if (!rendering.ok()) return rendering.status();
    it = explain->emplace(explain_key, ParseExplain(*rendering)).first;
  }
  const ExplainFacts& facts = it->second;
  const double actual = static_cast<double>(served->size());
  layers->rows_examined += facts.rows_scanned;
  layers->result_rows += std::max(1.0, actual);
  layers->partitions_pruned += facts.partitions_pruned;
  layers->partitions_total += facts.partitions_total;
  if (facts.root_estimate > 0 && !has_limit) {
    const double est = std::max(1.0, facts.root_estimate);
    const double act = std::max(1.0, actual);
    layers->qerror.Add(std::max(est / act, act / est));
  }
  return served;
}

}  // namespace perfbench
