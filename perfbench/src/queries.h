// Pieces the two EQL workloads (`fuse`, `serve`) share: evidence
// generation, saving and opening the catalog image, and the traced
// composition of a statement's engine steps.
#ifndef EVIDENT_PERFBENCH_QUERIES_H_
#define EVIDENT_PERFBENCH_QUERIES_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/domain.h"
#include "ds/evidence_set.h"
#include "harness.h"
#include "server/session.h"
#include "storage/catalog.h"
#include "storage/erel_format.h"

namespace perfbench {

/// A symbolic frame "<prefix>0" .. "<prefix><size-1>".
evident::DomainPtr Frame(const std::string& name, const std::string& prefix,
                         size_t size);

/// Random evidence over `domain`: `focals` distinct random subsets of 1 to
/// `max_width` values plus, when `with_theta`, the whole frame; positive
/// masses summing to 1.
evident::EvidenceSet RandomEvidence(const evident::DomainPtr& domain,
                                    size_t focals, size_t max_width,
                                    bool with_theta, Rng& rng);

/// A random membership with 0.3 <= sn <= sp <= 1.
evident::SupportPair RandomMembership(Rng& rng);

/// Saves `catalog` as a v3 image and returns its size in bytes, together
/// with the size of the same catalog as v1 text (the raw export).
struct SavedImage {
  double image_bytes = 0;
  double text_bytes = 0;
};
SavedImage SaveImage(const evident::Catalog& catalog, const std::string& path,
                     const evident::PartitionSpec& spec);

/// Opens the image mapped (zero-copy, verification deferred to first
/// touch); throws on failure.
std::unique_ptr<evident::Catalog> OpenImage(const std::string& path);

/// Per-layer sums of the traced statements of one client.
struct QueryLayers {
  Samples parse_us, plan_us, optimize_us, execute_ms, overhead_us;
  Samples qerror;
  double rows_examined = 0, result_rows = 0;
  double partitions_pruned = 0, partitions_total = 0;
  double rows_materialized = 0;
  void Merge(const QueryLayers& other);
  /// Adds this client's layer metrics to `report`.
  void Report(perfbench::Report* report) const;
};

/// The traced form of one statement. Runs Session::Execute (span
/// "server.execute"), then composes the engine's steps through their
/// public functions — ParseQuery, eql::BuildPlan, eql::OptimizePlan +
/// eql::LowerToFusedPipelines, eql::ExecutePlan under the session's
/// QueryContext — with a span per call under an "engine" root, and checks
/// that both results agree: by digest when `exact`, by key set when a
/// concurrent writer may republish the statement's relation between the
/// two executions. Returns the session's result for the caller's output
/// checks. `explain` caches EXPLAIN facts per statement and version.
evident::Result<evident::ExtendedRelation> TracedStatement(
    evident::server::Session* session, const evident::Catalog& catalog,
    const std::string& text, bool has_limit, bool exact, SpanRecorder* spans,
    uint64_t op, QueryLayers* layers,
    std::map<std::string, ExplainFacts>* explain);

}  // namespace perfbench

#endif  // EVIDENT_PERFBENCH_QUERIES_H_
