#include "core/operations.h"

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "common/math_util.h"
#include "core/bound_predicate.h"
#include "core/column_store.h"
#include "core/join_plan.h"
#include "core/parallel.h"
#include "core/query_context.h"
#include "core/scan_stats.h"

namespace evident {

namespace {

std::string KeyToString(const KeyVector& key) {
  std::string out;
  for (size_t i = 0; i < key.size(); ++i) {
    if (i) out += ",";
    out += key[i].ToString();
  }
  return out;
}

/// Minimum tuples per shard before the executor spawns a thread for it: a
/// per-tuple merge/probe is ~1-10 µs, so anything below this is cheaper
/// run inline than handed to a thread.
constexpr size_t kParallelGrain = 256;

/// Cap on up-front row reservations in operators whose output cardinality
/// is a *bound*, not a count (Product, Join): |L|·|R| can overflow size_t
/// or demand multi-GB buffers for inputs that are themselves modest.
/// Reserve at most this many rows and let the output columns grow
/// geometrically past it.
constexpr size_t kMaxReserveRows = size_t{1} << 20;

/// min(l·r, kMaxReserveRows) without evaluating the overflowing product.
size_t CappedProductReserve(size_t l, size_t r) {
  if (l == 0 || r == 0) return 0;
  if (r > kMaxReserveRows / l) return kMaxReserveRows;
  return l * r;
}

/// Serial governed loops (product tiling, multiway enumeration, the
/// interpreted predicate walks) poll the query context every this many
/// iterations — frequent enough that a 1 ms deadline lands mid-loop,
/// rare enough to stay invisible in profiles.
constexpr uint64_t kGovernorTick = 1024;

/// The operator-completion charge: output rows against the row cap, then
/// rows × FootprintPerRow(schema) against the memory budget. Charges
/// depend on the logical output only, so governed charge sequences —
/// and therefore budget/cap errors — are identical across thread counts,
/// SIMD and fusion. Free when ungoverned.
Status GovernorChargeOutput(const RelationSchema& schema, uint64_t rows) {
  QueryContext* const ctx = CurrentQueryContext();
  if (ctx == nullptr) return Status::OK();
  return ctx->ChargeOutput(schema, rows);
}

/// After a parallel pass of a governed query: workers stop claiming
/// morsels once a limit trips, leaving later slots benignly empty —
/// surface the sticky first error instead of assembling a truncated
/// result.
Status GovernorAfterPass() {
  QueryContext* const ctx = CurrentQueryContext();
  if (ctx != nullptr && ctx->failed()) return ctx->first_error();
  return Status::OK();
}

/// The key of row `row` as Values, for error messages.
KeyVector KeyOfStoreRow(const ColumnStore& store, size_t row) {
  KeyVector key;
  for (size_t a : store.schema()->key_indices()) {
    key.push_back(store.value_column(a).values[row]);
  }
  return key;
}

/// Splices the rows listed in `keep` (ascending) out of `store` into a
/// fresh column image carrying `memberships` (parallel to `keep`) under
/// the same schema: ColumnStore::SpliceRows with the identity attribute
/// map. The shared row-subset primitive of the columnar operators
/// (Select's keep list, the pushdown prefilter, Intersect's merged
/// rows).
ColumnStore SpliceKeptRows(const ColumnStore& store, std::string name,
                           const std::vector<uint32_t>& keep,
                           const std::vector<SupportPair>& memberships) {
  std::vector<size_t> identity(store.schema()->size());
  for (size_t a = 0; a < identity.size(); ++a) identity[a] = a;
  return ColumnStore::SpliceRows(store, store.schema(), std::move(name),
                                 identity, keep, memberships);
}

/// Maximal contiguous absolute row ranges [first, second).
using RowRuns = std::vector<std::pair<size_t, size_t>>;

/// Zone-map pruning for the filter pass: verifies every partition of
/// `store` that no non-trivial stage refutes and returns the surviving
/// rows as maximal contiguous absolute runs (adjacent surviving
/// partitions coalesce). A refuted partition's rows would all get
/// support (0, 0) at the refuting stage and be dropped, so skipping it
/// changes no output; its bytes are never read, so they are never
/// verified either. Records the considered/pruned counts in the calling
/// thread's PartitionScanStats. A store without partitions is verified
/// whole and scanned as one run.
Result<RowRuns> PruneAndVerifyPartitions(
    const ColumnStore& store, const std::vector<FilterStage>& stages) {
  RowRuns runs;
  const std::vector<ColumnStore::PartitionZone>& parts = store.partitions();
  if (parts.empty()) {
    EVIDENT_RETURN_NOT_OK(store.EnsureAllVerified());
    if (store.rows() > 0) runs.emplace_back(0, store.rows());
    return runs;
  }
  size_t pruned = 0;
  for (size_t p = 0; p < parts.size(); ++p) {
    const ColumnStore::PartitionZone& part = parts[p];
    if (StagesRefutePartition(stages, part)) {
      ++pruned;
      continue;
    }
    EVIDENT_RETURN_NOT_OK(store.EnsurePartitionVerified(p));
    if (part.begin_row == part.end_row) continue;
    if (!runs.empty() && runs.back().second == part.begin_row) {
      runs.back().second = part.end_row;
    } else {
      runs.emplace_back(part.begin_row, part.end_row);
    }
  }
  RecordPartitionScan(parts.size(), pruned);
  return runs;
}

/// Maps one morsel of the compacted scan domain back to absolute row
/// slices: `fn(begin, end)` is invoked for each maximal absolute slice
/// whose compacted positions fall in [compact_begin, compact_end).
/// Compacted position = rows of earlier runs + offset within the run, so
/// distinct morsels see disjoint slices and every surviving row is
/// covered exactly once.
template <typename Fn>
void ForEachRunSlice(const RowRuns& runs, size_t compact_begin,
                     size_t compact_end, Fn&& fn) {
  size_t base = 0;  // compacted position of the current run's first row
  for (const auto& [run_begin, run_end] : runs) {
    const size_t len = run_end - run_begin;
    if (base >= compact_end) break;
    if (base + len > compact_begin) {
      const size_t lo =
          run_begin + (compact_begin > base ? compact_begin - base : 0);
      const size_t hi = run_begin + std::min(len, compact_end - base);
      if (lo < hi) fn(lo, hi);
    }
    base += len;
  }
}

/// The interpreted filter for predicates that do not bind completely
/// (attributes over frames wider than 64 values, IS constants outside
/// the frame, evidence literals over wide frames): each row of `store`
/// is materialized as a transient tuple — the relation's own row image
/// is never built — and `keep(tuple, &membership)` decides serially in
/// row order whether the row survives, so the first error reported is
/// the first failing row's.
template <typename Keep>
Result<FilteredRows> FilterInterpretedRows(const ColumnStore& store,
                                           Keep&& keep) {
  EVIDENT_RETURN_NOT_OK(store.EnsureAllVerified());
  QueryContext* const ctx = CurrentQueryContext();
  FilteredRows kept;
  for (size_t i = 0; i < store.rows(); ++i) {
    if (ctx != nullptr && (i + 1) % kGovernorTick == 0) {
      EVIDENT_RETURN_NOT_OK(ctx->PollTick());
    }
    SupportPair membership = store.membership(i);
    EVIDENT_ASSIGN_OR_RETURN(const bool survives,
                             keep(store.MaterializeRow(i), &membership));
    if (!survives) continue;
    kept.rows.push_back(static_cast<uint32_t>(i));
    kept.memberships.push_back(membership);
  }
  return kept;
}

/// An operator's filtered output: charges the kept rows of `schema`,
/// then splices them out of `store` under `name`.
Result<ExtendedRelation> AdoptFilteredRows(const ColumnStore& store,
                                           const RelationSchema& schema,
                                           std::string name,
                                           const FilteredRows& kept) {
  EVIDENT_RETURN_NOT_OK(GovernorChargeOutput(schema, kept.rows.size()));
  return ExtendedRelation::AdoptColumns(
      SpliceKeptRows(store, std::move(name), kept.rows, kept.memberships));
}

}  // namespace

bool StagesRefutePartition(const std::vector<FilterStage>& stages,
                           const ColumnStore::PartitionZone& zone) {
  return std::any_of(stages.begin(), stages.end(),
                     [&](const FilterStage& stage) {
                       return !stage.trivial &&
                              stage.bound.RefutesPartition(zone);
                     });
}

bool FilterStage::Apply(const SupportPair& support,
                        SupportPair* membership) const {
  if (!is_select) return support.HasPositiveSupport();
  // F_TM: predicate satisfaction and original membership are treated as
  // independent events (Figure 3); then CWA_ER consistency and Q.
  const SupportPair revised = membership->Multiply(support);
  if (!revised.HasPositiveSupport() || !threshold.Accepts(revised)) {
    return false;
  }
  *membership = revised;
  return true;
}

Result<FilteredRows> FilterColumns(const ColumnStore& store,
                                   const std::vector<FilterStage>& stages) {
  EVIDENT_ASSIGN_OR_RETURN(const RowRuns runs,
                           PruneAndVerifyPartitions(store, stages));
  // The morsel domain is the compacted surviving row set, so a
  // mostly-pruned scan costs O(surviving rows) per pass, not O(rows).
  size_t live = 0;
  for (const auto& run : runs) live += run.second - run.first;
  // Supports are indexed by absolute row (EvaluateColumns' contract);
  // morsels write disjoint slices.
  std::vector<SupportPair> supports(stages.empty() ? 0 : store.rows());
  auto support_of = [&](const FilterStage& stage, size_t row) {
    return stage.trivial ? SupportPair::Certain() : supports[row];
  };
  std::vector<FilteredRows> morsels(ParallelMorselCount(live, kParallelGrain));
  ParallelForMorsels(live, kParallelGrain, [&](size_t morsel,
                                               size_t compact_begin,
                                               size_t compact_end) {
    FilteredRows& out = morsels[morsel];
    out.rows.reserve(compact_end - compact_begin);
    out.memberships.reserve(compact_end - compact_begin);
    // The first stage sweeps each contiguous slice of the morsel densely.
    ForEachRunSlice(runs, compact_begin, compact_end, [&](size_t begin,
                                                          size_t end) {
      if (!stages.empty() && !stages[0].trivial) {
        stages[0].bound.EvaluateColumns(store, begin, end, supports.data());
      }
      for (size_t r = begin; r < end; ++r) {
        SupportPair membership = store.membership(r);
        if (stages.empty() ||
            stages[0].Apply(support_of(stages[0], r), &membership)) {
          out.rows.push_back(static_cast<uint32_t>(r));
          out.memberships.push_back(membership);
        }
      }
    });
    // Later stages evaluate only the rows still alive, one at a time, so
    // a selective first filter is not paid for again by every stage
    // after it.
    for (size_t s = 1; s < stages.size(); ++s) {
      const FilterStage& stage = stages[s];
      size_t alive = 0;
      for (size_t i = 0; i < out.rows.size(); ++i) {
        const uint32_t r = out.rows[i];
        if (!stage.trivial) {
          stage.bound.EvaluateColumns(store, r, r + 1, supports.data());
        }
        if (!stage.Apply(support_of(stage, r), &out.memberships[i])) continue;
        out.rows[alive] = r;
        out.memberships[alive] = out.memberships[i];
        ++alive;
      }
      out.rows.resize(alive);
      out.memberships.resize(alive);
    }
  });
  EVIDENT_RETURN_NOT_OK(GovernorAfterPass());
  FilteredRows kept;
  size_t total = 0;
  for (const FilteredRows& m : morsels) total += m.rows.size();
  kept.rows.reserve(total);
  kept.memberships.reserve(total);
  for (const FilteredRows& m : morsels) {
    kept.rows.insert(kept.rows.end(), m.rows.begin(), m.rows.end());
    kept.memberships.insert(kept.memberships.end(), m.memberships.begin(),
                            m.memberships.end());
  }
  return kept;
}

/// Extended selection: the predicate is bound once (attribute positions,
/// IS-masks, theta tables) and run as the filter pass's one select stage,
/// column-at-a-time over the packed evidence spans; a predicate that
/// does not bind completely is interpreted row by row instead (including
/// predicates that error per row). The surviving rows' column slices are
/// spliced into a fresh column image — no row objects are built unless a
/// downstream consumer asks for them.
Result<ExtendedRelation> Select(const ExtendedRelation& input,
                                const PredicatePtr& predicate,
                                const MembershipThreshold& threshold) {
  if (predicate == nullptr) {
    return Status::InvalidArgument("null selection predicate");
  }
  std::vector<FilterStage> stages(1);
  stages[0].is_select = true;
  stages[0].bound = BoundPredicate::Bind(predicate, input.schema());
  stages[0].threshold = threshold;
  const ColumnStore& store = input.columns();
  FilteredRows kept;
  if (stages[0].bound.fully_bound()) {
    EVIDENT_ASSIGN_OR_RETURN(kept, FilterColumns(store, stages));
  } else {
    EVIDENT_ASSIGN_OR_RETURN(
        kept, FilterInterpretedRows(
                  store,
                  [&](const ExtendedTuple& t,
                      SupportPair* membership) -> Result<bool> {
                    EVIDENT_ASSIGN_OR_RETURN(
                        const SupportPair support,
                        predicate->Evaluate(t, *input.schema()));
                    return stages[0].Apply(support, membership);
                  }));
  }
  return AdoptFilteredRows(store, *input.schema(),
                           "select(" + input.name() + ")", kept);
}

/// The pushdown prefilter: every conjunct is bound once and run as one
/// prefilter stage of the filter pass; the survivors' column slices are
/// spliced with their original memberships. If any conjunct does not
/// bind completely, every conjunct is interpreted row by row instead
/// (the optimizer only pushes bindable conjuncts, so that is a safety
/// net, not a fast-path fork): conjuncts in order, stopping at the first
/// that drops the row.
Result<ExtendedRelation> FilterPositiveSupport(
    const ExtendedRelation& input,
    const std::vector<PredicatePtr>& conjuncts) {
  std::vector<FilterStage> stages(conjuncts.size());
  bool all_bound = true;
  for (size_t c = 0; c < conjuncts.size(); ++c) {
    if (conjuncts[c] == nullptr) {
      return Status::InvalidArgument("null prefilter conjunct");
    }
    stages[c].bound = BoundPredicate::Bind(conjuncts[c], input.schema());
    all_bound = all_bound && stages[c].bound.fully_bound();
  }
  const ColumnStore& store = input.columns();
  FilteredRows kept;
  if (all_bound) {
    EVIDENT_ASSIGN_OR_RETURN(kept, FilterColumns(store, stages));
  } else {
    EVIDENT_ASSIGN_OR_RETURN(
        kept, FilterInterpretedRows(
                  store,
                  [&](const ExtendedTuple& t, SupportPair*) -> Result<bool> {
                    for (const PredicatePtr& conjunct : conjuncts) {
                      EVIDENT_ASSIGN_OR_RETURN(
                          const SupportPair support,
                          conjunct->Evaluate(t, *input.schema()));
                      if (!support.HasPositiveSupport()) return false;
                    }
                    return true;
                  }));
  }
  return AdoptFilteredRows(store, *input.schema(), input.name(), kept);
}

Result<SupportPair> CombineMembership(const SupportPair& a,
                                      const SupportPair& b,
                                      CombinationRule rule) {
  // All four rules have closed forms on the boolean frame Ψ =
  // {true, false}; no mass function is ever materialized. Cross-checked
  // against the generic ds/combination engine by the operations tests.
  const double t1 = a.TrueMass(), f1 = a.FalseMass(), u1 = a.UnknownMass();
  const double t2 = b.TrueMass(), f2 = b.FalseMass(), u2 = b.UnknownMass();
  switch (rule) {
    case CombinationRule::kDempster:
      return a.CombineDempster(b);
    case CombinationRule::kTBM: {
      // The caller-facing support pair cannot carry empty-set mass, so
      // the conjunctive result is renormalized — which is exactly
      // Dempster's rule, including the total-conflict failure.
      return a.CombineDempster(b);
    }
    case CombinationRule::kYager: {
      // Conflict becomes ignorance: m(Ψ) = u1·u2 + kappa.
      const double t = t1 * t2 + t1 * u2 + u1 * t2;
      const double f = f1 * f2 + f1 * u2 + u1 * f2;
      return SupportPair{ClampUnit(t), ClampUnit(1.0 - f)};
    }
    case CombinationRule::kMixing: {
      const double t = 0.5 * (t1 + t2);
      const double f = 0.5 * (f1 + f2);
      return SupportPair{ClampUnit(t), ClampUnit(1.0 - f)};
    }
  }
  return Status::InvalidArgument("unknown combination rule");
}

namespace {

/// Columnar extended union. Four phases over the operands' ColumnStore
/// images:
///
///  1. Probe — every left row's key is encoded off the contiguous key
///     value columns into a reused buffer and looked up in the right
///     relation's flat encoded-key index (no per-row key
///     materialization), sharded across threads.
///  2. Batch combine — for each packed uncertain attribute, the matched
///     row pairs go through CombineColumnBatch over the contiguous focal
///     spans, sharded over the pair range (each shard handles all
///     attributes of its pair slice for locality). Wide (> 64 value)
///     domains keep the row-store kernel and are combined in the verdict
///     pass.
///  3. Verdict — a serial pass in left-row order applies the conflict
///     policies in schema-attribute order (so the first error is the
///     first failing left row's, at its first failing attribute) and
///     combines memberships via the closed forms, deciding for each
///     output row where its cells come from.
///  4. Build — the output's column image is assembled column-at-a-time
///     by splicing value/span slices from the operand stores and the
///     batch results, and adopted as a columnar-mode relation: no row
///     objects, no index inserts — both materialize lazily if a
///     downstream consumer needs them.
///
/// The combination arithmetic runs through the same span kernels as
/// CombineEvidence on the materialized evidence sets, so merged cells
/// are bit-identical to it for any thread count.
///
/// When `merged_tags` is non-null it receives one byte per output row —
/// 1 for a merged pair (the entity exists in both sources), 0 for a row
/// retained from a single source. Intersect consumes this instead of
/// re-encoding and re-probing the keys this pass already resolved.
Result<ExtendedRelation> UnionTagged(const ExtendedRelation& left,
                                     const ExtendedRelation& right,
                                     const UnionOptions& options,
                                     std::vector<uint8_t>* merged_tags) {
  const SchemaPtr& schema = left.schema();
  const size_t n = left.size();
  const ColumnStore& left_store = left.columns();
  const ColumnStore& right_store = right.columns();

  // Phase 1: probe off the left store's cached encoded-key arena — for a
  // catalog relation the arena persists across queries, so repeated
  // scans skip re-encoding entirely. (ProbeEncodedKey, not
  // FindByEncodedKey: a miss per unmatched left row must not build a
  // NotFound Status string.)
  static_assert(EncodedKeyIndex::kNoRow ==
                std::numeric_limits<uint32_t>::max());
  constexpr uint32_t kNoMatch = EncodedKeyIndex::kNoRow;
  const ColumnStore::EncodedKeys& left_keys = left_store.encoded_keys();
  std::vector<uint32_t> match(n, kNoMatch);
  ParallelForMorsels(n, kParallelGrain,
                     [&](size_t, size_t begin, size_t end) {
                       for (size_t i = begin; i < end; ++i) {
                         match[i] = right.ProbeEncodedKey(left_keys.key(i));
                       }
                     });
  EVIDENT_RETURN_NOT_OK(GovernorAfterPass());

  std::vector<uint32_t> pair_left, pair_right;
  for (size_t i = 0; i < n; ++i) {
    if (match[i] != kNoMatch) {
      pair_left.push_back(static_cast<uint32_t>(i));
      pair_right.push_back(match[i]);
    }
  }
  const size_t pairs = pair_left.size();

  // Phase 2: batch combine per packed uncertain attribute.
  struct AttrBatch {
    size_t attr = 0;
    const ColumnStore::EvidenceColumn* left_col = nullptr;
    const ColumnStore::EvidenceColumn* right_col = nullptr;
    std::vector<BatchCombineResult> morsels;
  };
  std::vector<AttrBatch> batches;
  std::vector<int> batch_of_attr(schema->size(), -1);
  std::vector<int> boxed_slot_of_attr(schema->size(), -1);
  std::vector<std::vector<std::optional<EvidenceSet>>> boxed_results;
  for (size_t a = 0; a < schema->size(); ++a) {
    if (schema->attribute(a).kind != AttributeKind::kUncertain) continue;
    if (left_store.kind(a) == ColumnStore::ColumnKind::kEvidence) {
      batch_of_attr[a] = static_cast<int>(batches.size());
      AttrBatch batch;
      batch.attr = a;
      batch.left_col = &left_store.evidence_column(a);
      batch.right_col = &right_store.evidence_column(a);
      batches.push_back(std::move(batch));
    } else {
      boxed_slot_of_attr[a] = static_cast<int>(boxed_results.size());
      boxed_results.emplace_back(pairs);  // slots filled by the verdict pass
    }
  }
  // Combine over morsels of the pair range, pulled from the shared
  // morsel queue: a hot key that funnels many pairs into one region no
  // longer straggles a static shard — fast workers just claim more
  // morsels. Fixed boundaries (pair p lives in morsel p / grain at slot
  // p % grain) let the verdict and build passes address results without
  // any cursor bookkeeping.
  const size_t morsel_count = ParallelMorselCount(pairs, kParallelGrain);
  if (pairs > 0) {
    // Size every per-morsel output before the workers start: each morsel
    // writes only its own slot.
    for (AttrBatch& batch : batches) batch.morsels.resize(morsel_count);
    ParallelForMorsels(
        pairs, kParallelGrain, [&](size_t morsel, size_t begin, size_t end) {
          for (AttrBatch& batch : batches) {
            CombineColumnBatch(batch.left_col->universe, options.rule,
                               batch.left_col->Spans(),
                               pair_left.data() + begin,
                               batch.right_col->Spans(),
                               pair_right.data() + begin, end - begin,
                               &batch.morsels[morsel]);
          }
        });
    EVIDENT_RETURN_NOT_OK(GovernorAfterPass());
  }

  // Phase 3: verdict, in left-row order.
  enum class RowSource : uint8_t { kLeft, kMerged, kRight };
  struct OutRow {
    RowSource source;
    uint32_t src;   // left row (kLeft, kMerged) or right row (kRight)
    uint32_t pair;  // kMerged: index into the pair lists
  };
  std::vector<OutRow> out_rows;
  out_rows.reserve(n + right.size() - pairs);
  std::vector<SupportPair> pair_membership(pairs);
  size_t pair_index = 0;
  QueryContext* const ctx = CurrentQueryContext();
  for (size_t i = 0; i < n; ++i) {
    if (ctx != nullptr && (i + 1) % kGovernorTick == 0) {
      EVIDENT_RETURN_NOT_OK(ctx->PollTick());
    }
    if (match[i] == kNoMatch) {
      out_rows.push_back({RowSource::kLeft, static_cast<uint32_t>(i), 0});
      continue;
    }
    const size_t local = pair_index % kParallelGrain;
    const size_t right_row = match[i];
    bool skip = false;
    for (size_t a = 0; a < schema->size() && !skip; ++a) {
      const AttributeDef& attr = schema->attribute(a);
      switch (attr.kind) {
        case AttributeKind::kKey:
          break;
        case AttributeKind::kDefinite: {
          const Value& lv = left_store.value_column(a).values[i];
          const Value& rv = right_store.value_column(a).values[right_row];
          if (lv == rv) break;
          if (options.on_definite_conflict == DefiniteConflictPolicy::kError) {
            return Status::Incompatible(
                "definite attribute '" + attr.name + "' conflicts on key (" +
                KeyToString(KeyOfStoreRow(left_store, i)) + "): " +
                lv.ToString() + " vs " + rv.ToString() +
                "; attribute preprocessing should have aligned these");
          }
          // kPreferLeft/kPreferRight: the build pass picks the side.
          break;
        }
        case AttributeKind::kUncertain: {
          bool conflict;
          const int boxed_slot = boxed_slot_of_attr[a];
          if (boxed_slot < 0) {
            conflict = batches[batch_of_attr[a]]
                           .morsels[pair_index / kParallelGrain]
                           .total_conflict[local] != 0;
          } else {
            // Wide domain: row-store kernel, combined here (serially) so
            // the error/skip precedence stays in attribute order.
            Result<EvidenceSet> combined = CombineEvidenceTrusted(
                left_store.boxed_column(a).sets[i],
                right_store.boxed_column(a).sets[right_row], options.rule);
            if (combined.ok()) {
              boxed_results[boxed_slot][pair_index] =
                  std::move(combined).value();
              break;
            }
            if (combined.status().code() != StatusCode::kTotalConflict) {
              return combined.status();
            }
            conflict = true;
          }
          if (!conflict) break;
          switch (options.on_total_conflict) {
            case TotalConflictPolicy::kError:
              return Status::TotalConflict(
                  "attribute '" + attr.name + "' of key (" +
                  KeyToString(KeyOfStoreRow(left_store, i)) +
                  ") is totally conflicting between the sources: " +
                  left_store.MaterializeEvidence(a, i).ToString() + " vs " +
                  right_store.MaterializeEvidence(a, right_row).ToString() +
                  "; the data administrators must be informed");
            case TotalConflictPolicy::kSkipTuple:
              skip = true;
              break;
            case TotalConflictPolicy::kVacuous:
              // The build pass substitutes the vacuous span (packed) or
              // evidence set (boxed).
              if (boxed_slot >= 0) {
                boxed_results[boxed_slot][pair_index] =
                    EvidenceSet::Vacuous(attr.domain);
              }
              break;
          }
          break;
        }
      }
    }
    if (skip) {
      ++pair_index;
      continue;
    }

    Result<SupportPair> membership = CombineMembership(
        left_store.membership(i), right_store.membership(right_row),
        options.rule);
    if (!membership.ok()) {
      if (membership.status().code() != StatusCode::kTotalConflict) {
        return membership.status();
      }
      switch (options.on_total_conflict) {
        case TotalConflictPolicy::kError:
          return Status::TotalConflict(
              "membership of key (" +
              KeyToString(KeyOfStoreRow(left_store, i)) +
              ") is totally conflicting between the sources");
        case TotalConflictPolicy::kSkipTuple:
          ++pair_index;
          skip = true;
          break;
        case TotalConflictPolicy::kVacuous:
          membership = SupportPair::Unknown();
          break;
      }
      if (skip) continue;
    }
    pair_membership[pair_index] = *membership;
    out_rows.push_back({RowSource::kMerged, static_cast<uint32_t>(i),
                        static_cast<uint32_t>(pair_index)});
    ++pair_index;
  }
  {
    std::vector<uint8_t> matched_right(right.size(), 0);
    for (uint32_t j : pair_right) matched_right[j] = 1;
    for (size_t j = 0; j < right.size(); ++j) {
      if (!matched_right[j]) {
        out_rows.push_back({RowSource::kRight, static_cast<uint32_t>(j), 0});
      }
    }
  }
  if (merged_tags != nullptr) {
    merged_tags->clear();
    merged_tags->reserve(out_rows.size());
    for (const OutRow& row : out_rows) {
      merged_tags->push_back(row.source == RowSource::kMerged ? 1 : 0);
    }
  }

  EVIDENT_RETURN_NOT_OK(GovernorChargeOutput(*schema, out_rows.size()));

  // Phase 4: build the output's column image.
  ColumnStore out = ColumnStore::EmptyLike(
      schema, left.name() + " u " + right.name());
  out.ReserveRows(out_rows.size());
  for (size_t a = 0; a < schema->size(); ++a) {
    const AttributeDef& attr = schema->attribute(a);
    switch (left_store.kind(a)) {
      case ColumnStore::ColumnKind::kValue: {
        const std::vector<Value>& lvals = left_store.value_column(a).values;
        const std::vector<Value>& rvals = right_store.value_column(a).values;
        // Merged definite cells take the left value unless the policy
        // prefers the right side *and* the cells actually conflict — on
        // equality the left cell is kept, which matters for
        // cross-kind-equal values (int 1 vs real 1.0).
        const bool prefer_right =
            attr.kind == AttributeKind::kDefinite &&
            options.on_definite_conflict == DefiniteConflictPolicy::kPreferRight;
        std::vector<Value>& dst = out.value_column_mut(a).values;
        dst.reserve(out_rows.size());
        for (const OutRow& row : out_rows) {
          switch (row.source) {
            case RowSource::kLeft:
              dst.push_back(lvals[row.src]);
              break;
            case RowSource::kMerged: {
              const Value& lv = lvals[row.src];
              if (prefer_right) {
                const Value& rv = rvals[pair_right[row.pair]];
                dst.push_back(lv == rv ? lv : rv);
              } else {
                dst.push_back(lv);
              }
              break;
            }
            case RowSource::kRight:
              dst.push_back(rvals[row.src]);
              break;
          }
        }
        break;
      }
      case ColumnStore::ColumnKind::kEvidence: {
        const ColumnStore::EvidenceColumn& lcol =
            left_store.evidence_column(a);
        const ColumnStore::EvidenceColumn& rcol =
            right_store.evidence_column(a);
        const AttrBatch& batch = batches[batch_of_attr[a]];
        const uint64_t full = lcol.universe >= 64
                                  ? ~uint64_t{0}
                                  : (uint64_t{1} << lcol.universe) - 1;
        ColumnStore::EvidenceColumn& dst = out.evidence_column_mut(a);
        dst.words.reserve(lcol.words.size() + rcol.words.size());
        dst.masses.reserve(lcol.words.size() + rcol.words.size());
        dst.offsets.reserve(out_rows.size() + 1);
        for (const OutRow& row : out_rows) {
          switch (row.source) {
            case RowSource::kLeft:
              dst.AppendRowFrom(lcol, row.src);
              break;
            case RowSource::kRight:
              dst.AppendRowFrom(rcol, row.src);
              break;
            case RowSource::kMerged: {
              const size_t local = row.pair % kParallelGrain;
              const BatchCombineResult& result =
                  batch.morsels[row.pair / kParallelGrain];
              if (result.total_conflict[local]) {
                // Policy kVacuous (kError/kSkipTuple rows never reach the
                // build pass): total ignorance, all mass on the frame.
                dst.words.push_back(full);
                dst.masses.push_back(1.0);
                dst.offsets.push_back(
                    static_cast<uint32_t>(dst.words.size()));
              } else {
                const uint32_t first = result.offsets[local];
                const uint32_t last = result.offsets[local + 1];
                dst.words.insert(dst.words.end(),
                                 result.words.begin() + first,
                                 result.words.begin() + last);
                dst.masses.insert(dst.masses.end(),
                                  result.masses.begin() + first,
                                  result.masses.begin() + last);
                dst.offsets.push_back(
                    static_cast<uint32_t>(dst.words.size()));
              }
              break;
            }
          }
        }
        break;
      }
      case ColumnStore::ColumnKind::kBoxed: {
        const std::vector<EvidenceSet>& lsets =
            left_store.boxed_column(a).sets;
        const std::vector<EvidenceSet>& rsets =
            right_store.boxed_column(a).sets;
        std::vector<EvidenceSet>& dst = out.boxed_column_mut(a).sets;
        dst.reserve(out_rows.size());
        std::vector<std::optional<EvidenceSet>>& combined =
            boxed_results[boxed_slot_of_attr[a]];
        for (const OutRow& row : out_rows) {
          switch (row.source) {
            case RowSource::kLeft:
              dst.push_back(lsets[row.src]);
              break;
            case RowSource::kMerged:
              dst.push_back(std::move(*combined[row.pair]));
              break;
            case RowSource::kRight:
              dst.push_back(rsets[row.src]);
              break;
          }
        }
        break;
      }
    }
  }
  for (const OutRow& row : out_rows) {
    switch (row.source) {
      case RowSource::kLeft:
        out.AppendMembership(left_store.membership(row.src));
        break;
      case RowSource::kMerged:
        out.AppendMembership(pair_membership[row.pair]);
        break;
      case RowSource::kRight:
        out.AppendMembership(right_store.membership(row.src));
        break;
    }
  }
  return ExtendedRelation::AdoptColumns(std::move(out));
}

}  // namespace

Status CheckUnionCompatible(const ExtendedRelation& left,
                            const ExtendedRelation& right) {
  if (left.schema() == nullptr || right.schema() == nullptr) {
    return Status::InvalidArgument("union of relations without schemas");
  }
  if (!left.schema()->UnionCompatibleWith(*right.schema())) {
    return Status::Incompatible(
        "relations are not union-compatible: " + left.schema()->ToString() +
        " vs " + right.schema()->ToString());
  }
  return Status::OK();
}

Result<ExtendedRelation> Union(const ExtendedRelation& left,
                               const ExtendedRelation& right,
                               const UnionOptions& options) {
  EVIDENT_RETURN_NOT_OK(CheckUnionCompatible(left, right));
  return UnionTagged(left, right, options, /*merged_tags=*/nullptr);
}

Result<ExtendedRelation> Intersect(const ExtendedRelation& left,
                                   const ExtendedRelation& right,
                                   const UnionOptions& options) {
  EVIDENT_RETURN_NOT_OK(CheckUnionCompatible(left, right));
  // The union's probe pass already resolved which rows are merged pairs,
  // and "key in both sources" holds exactly for those: a left-retained
  // row's key missed the right index and a right-retained row's key was
  // never matched. Splice them out of the union's column image — no
  // re-encoding, no row materialization.
  std::vector<uint8_t> merged_tags;
  EVIDENT_ASSIGN_OR_RETURN(ExtendedRelation merged,
                           UnionTagged(left, right, options, &merged_tags));
  const ColumnStore& store = merged.columns();
  std::vector<uint32_t> keep;
  std::vector<SupportPair> memberships;
  for (size_t i = 0; i < merged_tags.size(); ++i) {
    if (!merged_tags[i]) continue;
    keep.push_back(static_cast<uint32_t>(i));
    memberships.push_back(store.membership(i));
  }
  EVIDENT_RETURN_NOT_OK(GovernorChargeOutput(*merged.schema(), keep.size()));
  return ExtendedRelation::AdoptColumns(SpliceKeptRows(
      store, left.name() + " n " + right.name(), keep, memberships));
}

Result<ExtendedRelation> UnionAll(const std::vector<ExtendedRelation>& sources,
                                  const UnionOptions& options) {
  if (sources.empty()) {
    return Status::InvalidArgument("UnionAll over an empty source list");
  }
  ExtendedRelation acc = sources.front();
  for (size_t i = 1; i < sources.size(); ++i) {
    EVIDENT_ASSIGN_OR_RETURN(acc, Union(acc, sources[i], options));
  }
  return acc;
}

Result<SchemaPtr> ResolveProjectionSchema(
    const RelationSchema& schema, const std::vector<std::string>& attributes,
    std::vector<size_t>* indices) {
  if (attributes.empty()) {
    return Status::InvalidArgument("projection list must be non-empty");
  }
  std::vector<AttributeDef> defs;
  std::unordered_set<std::string> chosen;
  for (const std::string& name : attributes) {
    EVIDENT_ASSIGN_OR_RETURN(size_t index, schema.IndexOf(name));
    if (!chosen.insert(name).second) {
      return Status::InvalidArgument("attribute '" + name +
                                     "' appears twice in projection");
    }
    if (indices != nullptr) indices->push_back(index);
    defs.push_back(schema.attribute(index));
  }
  // The paper's projection keeps the key attributes (and always the
  // membership attribute), which also guarantees the projection needs no
  // duplicate elimination.
  for (size_t key_index : schema.key_indices()) {
    if (chosen.count(schema.attribute(key_index).name) == 0) {
      return Status::InvalidArgument(
          "projection must retain key attribute '" +
          schema.attribute(key_index).name + "'");
    }
  }
  return RelationSchema::Make(std::move(defs));
}

/// Each picked column is spliced as one whole-column copy (no
/// combination, no per-row objects), dropped columns are never touched.
/// Key uniqueness is checked over encoded keys — reusing the input's
/// cached encoded-key arena whenever the projection keeps the key
/// attributes in schema order (it always does for engine-built
/// projections, which prepend the keys), re-encoding off the projected
/// key columns otherwise.
Result<ExtendedRelation> Project(const ExtendedRelation& input,
                                 const std::vector<std::string>& attributes) {
  if (input.schema() == nullptr) {
    return Status::InvalidArgument("projection of a relation without schema");
  }
  std::vector<size_t> indices;
  EVIDENT_ASSIGN_OR_RETURN(
      SchemaPtr schema,
      ResolveProjectionSchema(*input.schema(), attributes, &indices));
  const ColumnStore& store = input.columns();
  const size_t n = store.rows();
  ColumnStore out =
      ColumnStore::EmptyLike(schema, "project(" + input.name() + ")");
  out.ReserveRows(n);
  for (size_t a = 0; a < schema->size(); ++a) {
    const size_t src_attr = indices[a];
    switch (store.kind(src_attr)) {
      case ColumnStore::ColumnKind::kValue:
        out.value_column_mut(a).values = store.value_column(src_attr).values;
        break;
      case ColumnStore::ColumnKind::kEvidence: {
        const ColumnStore::EvidenceColumn& src =
            store.evidence_column(src_attr);
        ColumnStore::EvidenceColumn& dst = out.evidence_column_mut(a);
        dst.words = src.words;
        dst.masses = src.masses;
        dst.offsets = src.offsets;
        break;
      }
      case ColumnStore::ColumnKind::kBoxed:
        out.boxed_column_mut(a).sets = store.boxed_column(src_attr).sets;
        break;
    }
  }
  for (size_t r = 0; r < n; ++r) out.AppendMembership(store.membership(r));

  // Key-uniqueness check, with the insert path's duplicate-key message.
  // Projections retain every key attribute, so this can only fire on an
  // input whose own keys were corrupted.
  const bool same_key_order = [&] {
    const std::vector<size_t>& in_keys = input.schema()->key_indices();
    const std::vector<size_t>& out_keys = schema->key_indices();
    if (in_keys.size() != out_keys.size()) return false;
    for (size_t k = 0; k < out_keys.size(); ++k) {
      if (indices[out_keys[k]] != in_keys[k]) return false;
    }
    return true;
  }();
  EncodedKeyIndex unique;
  unique.Reserve(n);
  std::string scratch;
  for (size_t r = 0; r < n; ++r) {
    std::string_view key;
    if (same_key_order) {
      key = store.encoded_keys().key(r);
    } else {
      out.EncodeKeyOfRow(r, &scratch);
      key = scratch;
    }
    if (unique.Insert(key) != EncodedKeyIndex::kNoRow) {
      return MakeDuplicateKeyError(KeyOfStoreRow(out, r), out.name());
    }
  }
  EVIDENT_RETURN_NOT_OK(GovernorChargeOutput(*schema, n));
  return ExtendedRelation::AdoptColumns(std::move(out));
}

Result<SchemaPtr> MakeProductSchema(const ExtendedRelation& left,
                                    const ExtendedRelation& right) {
  if (left.schema() == nullptr || right.schema() == nullptr) {
    return Status::InvalidArgument("product of relations without schemas");
  }
  // Concatenate the attribute lists, qualifying colliding names.
  std::unordered_set<std::string> left_names;
  for (const AttributeDef& a : left.schema()->attributes()) {
    left_names.insert(a.name);
  }
  std::vector<AttributeDef> defs;
  defs.reserve(left.schema()->size() + right.schema()->size());
  for (const AttributeDef& a : left.schema()->attributes()) {
    AttributeDef d = a;
    if (right.schema()->Has(a.name)) {
      if (left.name().empty() || left.name() == right.name()) {
        return Status::InvalidArgument(
            "attribute '" + a.name +
            "' appears in both operands and the relation names cannot "
            "disambiguate; rename it first");
      }
      d.name = left.name() + "." + a.name;
    }
    defs.push_back(std::move(d));
  }
  for (const AttributeDef& a : right.schema()->attributes()) {
    AttributeDef d = a;
    if (left_names.count(a.name) > 0) {
      if (right.name().empty() || left.name() == right.name()) {
        return Status::InvalidArgument(
            "attribute '" + a.name +
            "' appears in both operands and the relation names cannot "
            "disambiguate; rename it first");
      }
      d.name = right.name() + "." + a.name;
    }
    defs.push_back(std::move(d));
  }
  return RelationSchema::Make(std::move(defs));
}

namespace {

/// The focal-span arena reservation bound for the columnar splice paths:
/// the same 2^20 cap CappedProductReserve applies to row reservations.
/// Join/Product output arenas are sized from a *bound* (pairs x average
/// span), and a pathological high-match-rate join can push that bound
/// into the billions while the operands stay modest — reserve at most
/// this many entries and let the arena grow geometrically past it.
size_t CappedArenaReserve(size_t rows, size_t avg_span) {
  if (rows == 0) return 0;
  if (avg_span == 0) avg_span = 1;
  if (avg_span > kMaxReserveRows / rows) return kMaxReserveRows;
  return rows * avg_span;
}

/// Splices the output column image of a concatenated-pair operator
/// (Join, Product): output row i takes its left cells from `left_store`
/// row pair_left[i] and its right cells from `right_store` row
/// pair_right[i]; `memberships` supplies the revised membership per
/// pair. Key/definite columns are copied value-by-value, packed
/// uncertain columns have their (word, mass) focal spans repacked with
/// rebased offsets (EvidenceColumn::AppendRowFrom), boxed sets are shared — no row objects
/// exist at any point.
ColumnStore SplicePairColumns(const SchemaPtr& schema, std::string name,
                              const ColumnStore& left_store,
                              const ColumnStore& right_store,
                              const std::vector<uint32_t>& pair_left,
                              const std::vector<uint32_t>& pair_right,
                              const std::vector<SupportPair>& memberships) {
  const size_t n = pair_left.size();
  const size_t left_attrs = left_store.schema()->size();
  ColumnStore out = ColumnStore::EmptyLike(schema, std::move(name));
  out.ReserveRows(n);
  for (size_t a = 0; a < schema->size(); ++a) {
    const bool from_left = a < left_attrs;
    const ColumnStore& src_store = from_left ? left_store : right_store;
    const size_t src_attr = from_left ? a : a - left_attrs;
    const std::vector<uint32_t>& rows = from_left ? pair_left : pair_right;
    // The product schema qualifies colliding names but keeps kinds and
    // domains, so the output's column kinds equal the source's.
    switch (src_store.kind(src_attr)) {
      case ColumnStore::ColumnKind::kValue: {
        const std::vector<Value>& src =
            src_store.value_column(src_attr).values;
        std::vector<Value>& dst = out.value_column_mut(a).values;
        dst.reserve(n);
        for (uint32_t r : rows) dst.push_back(src[r]);
        break;
      }
      case ColumnStore::ColumnKind::kEvidence: {
        const ColumnStore::EvidenceColumn& src =
            src_store.evidence_column(src_attr);
        ColumnStore::EvidenceColumn& dst = out.evidence_column_mut(a);
        const size_t avg =
            src.words.size() / std::max<size_t>(src_store.rows(), 1);
        dst.words.reserve(CappedArenaReserve(n, avg + 1));
        dst.masses.reserve(CappedArenaReserve(n, avg + 1));
        dst.offsets.reserve(n + 1);
        for (uint32_t r : rows) dst.AppendRowFrom(src, r);
        break;
      }
      case ColumnStore::ColumnKind::kBoxed: {
        const std::vector<EvidenceSet>& src =
            src_store.boxed_column(src_attr).sets;
        std::vector<EvidenceSet>& dst = out.boxed_column_mut(a).sets;
        dst.reserve(n);
        for (uint32_t r : rows) dst.push_back(src[r]);
        break;
      }
    }
  }
  for (const SupportPair& m : memberships) out.AppendMembership(m);
  return out;
}

/// Hash of the definite cells at `indices` of store row `row` (Value::Hash
/// makes 1 and 1.0 agree, matching operator==).
uint64_t StoreKeyHash(const ColumnStore& store, size_t row,
                      const std::vector<size_t>& indices) {
  uint64_t h = 0x9e3779b97f4a7c15ULL;
  for (size_t i : indices) {
    h ^= static_cast<uint64_t>(store.value_column(i).values[row].Hash()) +
         0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  }
  return h;
}

bool StoreKeysEqual(const ColumnStore& a, size_t a_row,
                    const std::vector<size_t>& a_indices,
                    const ColumnStore& b, size_t b_row,
                    const std::vector<size_t>& b_indices) {
  for (size_t k = 0; k < a_indices.size(); ++k) {
    if (!(a.value_column(a_indices[k]).values[a_row] ==
          b.value_column(b_indices[k]).values[b_row])) {
      return false;
    }
  }
  return true;
}

/// The hash equi-join executor. Three phases over the operands' column
/// stores:
///
///  1. Build — an open-addressing table on `build`'s equi-key cells
///     (slots hold the first row of each distinct key; duplicate-key
///     rows chain in ascending row order), keyed by hashes taken
///     straight off the contiguous key/definite value columns.
///  2. Probe — probe rows over morsels; each matched (left, right) pair
///     evaluates the residual, computes the revised membership, and
///     survives CWA_ER + threshold filtering before anything is
///     allocated for it. A bound residual runs over the packed spans
///     (EvaluatePairColumns); an `interpreted` residual (one that does
///     not bind) is evaluated over a transient concatenated tuple, and
///     the first failing morsel in morsel order — which holds the first
///     failing probe row — reports its error.
///  3. Splice — the surviving pairs' column slices are copied by span
///     into a fresh column image (SplicePairColumns) and adopted as a
///     columnar-mode relation.
///
/// Neither operand's row image nor result rows are ever built, and the
/// pair emission order (probe rows ascending, build chains ascending,
/// morsels concatenated in order) is fixed, so the result is
/// bit-identical for any thread count.
///
/// `probe_rows` (may be null) restricts the probe side to the listed
/// rows, ascending — a prefilter's filter-pass survivors. Identical to
/// probing the relation those rows would splice into: the probe order,
/// the morsel boundaries over it and the memberships are the same.
Result<ExtendedRelation> HashEquiJoin(
    const ExtendedRelation& left, const ExtendedRelation& right,
    const JoinPlan& plan, const SchemaPtr& schema,
    const MembershipThreshold& threshold, const BoundPredicate* residual,
    const PredicatePtr& interpreted, const std::vector<uint32_t>* probe_rows,
    bool build_left, std::string name) {
  const ColumnStore& lstore = left.columns();
  const ColumnStore& rstore = right.columns();
  constexpr uint32_t kEmpty = std::numeric_limits<uint32_t>::max();
  const ColumnStore& build = build_left ? lstore : rstore;
  const ColumnStore& probe = build_left ? rstore : lstore;
  // The build pass hashes every build row, so the build image must be
  // fully verified. Listed probe rows come from a filter pass, which
  // verified exactly the partitions they lie in.
  EVIDENT_RETURN_NOT_OK(build.EnsureAllVerified());
  if (probe_rows == nullptr) {
    EVIDENT_RETURN_NOT_OK(probe.EnsureAllVerified());
  }
  std::vector<size_t> build_indices, probe_indices;
  build_indices.reserve(plan.keys.size());
  probe_indices.reserve(plan.keys.size());
  for (const EquiKey& key : plan.keys) {
    build_indices.push_back(build_left ? key.left_index : key.right_index);
    probe_indices.push_back(build_left ? key.right_index : key.left_index);
  }

  const size_t build_size = build.rows();
  size_t capacity = 16;
  while (capacity < 2 * build_size) capacity <<= 1;
  const uint64_t mask = capacity - 1;
  std::vector<uint32_t> slot_row(capacity, kEmpty);  // first row of the key
  std::vector<uint32_t> chain(build_size, kEmpty);   // same-key successors
  std::vector<uint64_t> row_hash(build_size);
  for (size_t i = 0; i < build_size; ++i) {
    row_hash[i] = StoreKeyHash(build, i, build_indices);
  }
  // Insert rows in reverse: each insertion prepends to its key's chain,
  // so chains end up in ascending row order for deterministic probing.
  for (size_t i = build_size; i-- > 0;) {
    size_t s = row_hash[i] & mask;
    while (slot_row[s] != kEmpty &&
           !(row_hash[slot_row[s]] == row_hash[i] &&
             StoreKeysEqual(build, slot_row[s], build_indices, build, i,
                            build_indices))) {
      s = (s + 1) & mask;
    }
    if (slot_row[s] != kEmpty) chain[i] = slot_row[s];
    slot_row[s] = static_cast<uint32_t>(i);
  }

  struct MorselPairs {
    std::vector<uint32_t> pair_left, pair_right;
    std::vector<SupportPair> memberships;
  };
  const size_t probe_count =
      probe_rows != nullptr ? probe_rows->size() : probe.rows();
  const size_t morsel_count = ParallelMorselCount(probe_count, kParallelGrain);
  std::vector<MorselPairs> morsels(morsel_count);
  std::vector<Status> morsel_status(morsel_count);
  ParallelForMorsels(
      probe_count, kParallelGrain,
      [&](size_t morsel, size_t begin, size_t end) {
        MorselPairs& out = morsels[morsel];
        for (size_t i = begin; i < end; ++i) {
          const size_t p = probe_rows != nullptr ? (*probe_rows)[i] : i;
          const uint64_t h = StoreKeyHash(probe, p, probe_indices);
          size_t s = h & mask;
          uint32_t head = kEmpty;
          while (slot_row[s] != kEmpty) {
            const uint32_t candidate = slot_row[s];
            if (row_hash[candidate] == h &&
                StoreKeysEqual(build, candidate, build_indices, probe, p,
                               probe_indices)) {
              head = candidate;
              break;
            }
            s = (s + 1) & mask;
          }
          for (uint32_t b = head; b != kEmpty; b = chain[b]) {
            const uint32_t l =
                build_left ? b : static_cast<uint32_t>(p);
            const uint32_t r =
                build_left ? static_cast<uint32_t>(p) : b;
            // The equi-conjuncts contribute exactly (1,1) on a match, so
            // the full predicate's support reduces to the residual's.
            SupportPair support = SupportPair::Certain();
            if (residual != nullptr) {
              support = residual->EvaluatePairColumns(lstore, l, rstore, r);
            } else if (interpreted != nullptr) {
              ExtendedTuple pair = lstore.MaterializeRow(l);
              ExtendedTuple right_row = rstore.MaterializeRow(r);
              pair.cells.insert(pair.cells.end(),
                                std::make_move_iterator(right_row.cells.begin()),
                                std::make_move_iterator(right_row.cells.end()));
              Result<SupportPair> evaluated =
                  interpreted->Evaluate(pair, *schema);
              if (!evaluated.ok()) {
                morsel_status[morsel] = evaluated.status();
                return;
              }
              support = *evaluated;
            }
            const SupportPair revised = lstore.membership(l)
                                            .Multiply(rstore.membership(r))
                                            .Multiply(support);
            if (!revised.HasPositiveSupport()) continue;  // CWA_ER.
            if (!threshold.Accepts(revised)) continue;
            out.pair_left.push_back(l);
            out.pair_right.push_back(r);
            out.memberships.push_back(revised);
          }
        }
        // Incremental row-cap charge at the emission site: per-morsel
        // pair counts are thread-count invariant, so the cap trips
        // (count-free message) identically; errors are sticky and the
        // post-pass check surfaces them.
        if (QueryContext* const ctx = CurrentQueryContext()) {
          (void)ctx->ChargeRows(out.pair_left.size());
        }
      });
  EVIDENT_RETURN_NOT_OK(GovernorAfterPass());
  for (const Status& status : morsel_status) EVIDENT_RETURN_NOT_OK(status);

  size_t total = 0;
  for (const MorselPairs& morsel : morsels) total += morsel.pair_left.size();
  if (QueryContext* const ctx = CurrentQueryContext()) {
    EVIDENT_RETURN_NOT_OK(ctx->ChargeMemory(*schema, total));
  }
  std::vector<uint32_t> pair_left, pair_right;
  std::vector<SupportPair> memberships;
  pair_left.reserve(total);
  pair_right.reserve(total);
  memberships.reserve(total);
  for (const MorselPairs& morsel : morsels) {
    pair_left.insert(pair_left.end(), morsel.pair_left.begin(),
                     morsel.pair_left.end());
    pair_right.insert(pair_right.end(), morsel.pair_right.begin(),
                      morsel.pair_right.end());
    memberships.insert(memberships.end(), morsel.memberships.begin(),
                       morsel.memberships.end());
  }
  return ExtendedRelation::AdoptColumns(
      SplicePairColumns(schema, std::move(name), lstore, rstore, pair_left,
                        pair_right, memberships));
}

/// The splice executors address operand rows with uint32 ids; an operand
/// at or beyond that bound — unreachable for in-memory relations today —
/// fails cleanly instead of silently aliasing rows.
Status CheckRowIdRange(const ExtendedRelation& rel) {
  if (rel.size() < static_cast<size_t>(std::numeric_limits<uint32_t>::max())) {
    return Status::OK();
  }
  return Status::OutOfRange("relation '" + rel.name() +
                            "' exceeds the executor's 2^32-1 row limit");
}

/// Cartesian product over an already-built product schema, shared by
/// Product and the join's product + select routes: left columns repeat
/// each row |R| times, right columns tile |L| times, memberships are the
/// F_TM products — in left-major order, spliced straight into the
/// output's column image.
Result<ExtendedRelation> ProductWithSchema(const ExtendedRelation& left,
                                           const ExtendedRelation& right,
                                           const SchemaPtr& schema) {
  EVIDENT_RETURN_NOT_OK(CheckRowIdRange(left));
  EVIDENT_RETURN_NOT_OK(CheckRowIdRange(right));
  const ColumnStore& lstore = left.columns();
  const ColumnStore& rstore = right.columns();
  const size_t ln = lstore.rows();
  const size_t rn = rstore.rows();
  const size_t reserve = CappedProductReserve(ln, rn);
  std::vector<uint32_t> pair_left, pair_right;
  std::vector<SupportPair> memberships;
  pair_left.reserve(reserve);
  pair_right.reserve(reserve);
  memberships.reserve(reserve);
  // The governed tiling loop charges the row cap in kGovernorTick-sized
  // batches and polls the deadline with them: |L|·|R| can dwarf the
  // operand sizes, so a runaway product must trip mid-loop, not after
  // materializing everything.
  QueryContext* const ctx = CurrentQueryContext();
  uint64_t pending = 0;
  for (size_t i = 0; i < ln; ++i) {
    const SupportPair lm = lstore.membership(i);
    for (size_t j = 0; j < rn; ++j) {
      if (ctx != nullptr && ++pending == kGovernorTick) {
        EVIDENT_RETURN_NOT_OK(ctx->ChargeRows(pending));
        pending = 0;
        EVIDENT_RETURN_NOT_OK(ctx->PollTick());
      }
      pair_left.push_back(static_cast<uint32_t>(i));
      pair_right.push_back(static_cast<uint32_t>(j));
      memberships.push_back(lm.Multiply(rstore.membership(j)));  // F_TM
    }
  }
  if (ctx != nullptr) {
    EVIDENT_RETURN_NOT_OK(ctx->ChargeRows(pending));
    EVIDENT_RETURN_NOT_OK(
        ctx->ChargeMemory(*schema, static_cast<uint64_t>(ln) * rn));
  }
  return ExtendedRelation::AdoptColumns(SplicePairColumns(
      schema, left.name() + " x " + right.name(), lstore, rstore, pair_left,
      pair_right, memberships));
}

}  // namespace

Result<ExtendedRelation> Product(const ExtendedRelation& left,
                                 const ExtendedRelation& right) {
  EVIDENT_ASSIGN_OR_RETURN(SchemaPtr schema, MakeProductSchema(left, right));
  return ProductWithSchema(left, right, schema);
}

Result<ExtendedRelation> Join(const ExtendedRelation& left,
                              const ExtendedRelation& right,
                              const PredicatePtr& predicate,
                              const MembershipThreshold& threshold) {
  EVIDENT_ASSIGN_OR_RETURN(SchemaPtr schema, MakeProductSchema(left, right));
  return JoinWithProductSchema(left, right, predicate, threshold,
                               std::move(schema));
}

Result<ExtendedRelation> JoinWithProductSchema(
    const ExtendedRelation& left, const ExtendedRelation& right,
    const PredicatePtr& predicate, const MembershipThreshold& threshold,
    SchemaPtr schema, JoinBuildSide build_side,
    const std::vector<uint32_t>* probe_rows) {
  if (predicate == nullptr) {
    return Status::InvalidArgument("null selection predicate");
  }
  if (probe_rows != nullptr && build_side == JoinBuildSide::kAuto) {
    return Status::InvalidArgument(
        "probe rows require an explicit build side");
  }
  const bool probe_is_left = build_side == JoinBuildSide::kRight;
  ExtendedRelation out("select(" + left.name() + " x " + right.name() + ")",
                       schema);
  if (left.empty() || right.empty() ||
      (probe_rows != nullptr && probe_rows->empty())) {
    // The product is empty; selection over it never evaluates the
    // predicate, and neither do we.
    return out;
  }
  EVIDENT_ASSIGN_OR_RETURN(
      JoinPlan plan,
      AnalyzeJoinPredicate(predicate, *schema, left.schema()->size()));
  const bool build_left = build_side == JoinBuildSide::kAuto
                              ? left.size() < right.size()
                              : build_side == JoinBuildSide::kLeft;
  // The hash table stores row indices (and its empty-slot sentinel) in
  // uint32_t; a build operand at or beyond that bound — unreachable for
  // in-memory relations today — takes the product + select route, whose
  // row-id check fails it cleanly rather than silently aliasing rows.
  const bool table_fits =
      (build_left ? left.size() : right.size()) <
      static_cast<size_t>(std::numeric_limits<uint32_t>::max());
  if (plan.keys.empty() || !table_fits) {
    // No definite equi-conjunct to partition on: the paper's definition,
    // σ̃ over the materialized product — of the listed probe rows only,
    // when the probe side arrives as a filter pass's survivors.
    if (probe_rows != nullptr) {
      const ExtendedRelation& probe = probe_is_left ? left : right;
      const ColumnStore& store = probe.columns();
      std::vector<SupportPair> memberships;
      memberships.reserve(probe_rows->size());
      for (uint32_t r : *probe_rows) memberships.push_back(store.membership(r));
      const ExtendedRelation kept = ExtendedRelation::AdoptColumns(
          SpliceKeptRows(store, probe.name(), *probe_rows, memberships));
      return JoinWithProductSchema(probe_is_left ? kept : left,
                                   probe_is_left ? right : kept, predicate,
                                   threshold, std::move(schema), build_side);
    }
    EVIDENT_ASSIGN_OR_RETURN(ExtendedRelation product,
                             ProductWithSchema(left, right, schema));
    return Select(product, predicate, threshold);
  }
  // A residual that does not bind is interpreted per matched pair.
  BoundPredicate bound_residual;
  bool residual_bound = plan.residual == nullptr;
  if (plan.residual != nullptr) {
    bound_residual = BoundPredicate::BindPair(plan.residual, schema,
                                              left.schema()->size());
    residual_bound = bound_residual.fully_bound();
  }
  return HashEquiJoin(
      left, right, plan, schema, threshold,
      plan.residual != nullptr && residual_bound ? &bound_residual : nullptr,
      residual_bound ? nullptr : plan.residual, probe_rows, build_left,
      out.name());
}

Result<SchemaPtr> MakeMultiwayProductSchema(
    const std::vector<const ExtendedRelation*>& operands) {
  std::unordered_map<std::string, size_t> name_count;
  size_t total_attrs = 0;
  for (const ExtendedRelation* op : operands) {
    if (op->schema() == nullptr) {
      return Status::InvalidArgument("product of relations without schemas");
    }
    total_attrs += op->schema()->size();
    for (const AttributeDef& a : op->schema()->attributes()) {
      ++name_count[a.name];
    }
  }
  auto ambiguous = [](const std::string& name) {
    return Status::InvalidArgument(
        "attribute '" + name +
        "' appears in multiple operands and the relation names cannot "
        "disambiguate; rename it first");
  };
  std::unordered_set<std::string> used;
  used.reserve(total_attrs);
  std::vector<AttributeDef> defs;
  defs.reserve(total_attrs);
  for (const ExtendedRelation* op : operands) {
    for (const AttributeDef& a : op->schema()->attributes()) {
      AttributeDef d = a;
      if (name_count[a.name] > 1) {
        if (op->name().empty()) return ambiguous(a.name);
        d.name = op->name() + "." + a.name;
      }
      if (!used.insert(d.name).second) return ambiguous(a.name);
      defs.push_back(std::move(d));
    }
  }
  return RelationSchema::Make(std::move(defs));
}

Result<ExtendedRelation> MultiwayJoinProduct(
    const std::vector<const ExtendedRelation*>& operands,
    const SchemaPtr& product_schema, const PredicatePtr& predicate,
    const MembershipThreshold& threshold,
    const std::vector<size_t>& join_order) {
  const size_t n_ops = operands.size();
  if (n_ops < 2) {
    return Status::InvalidArgument(
        "multiway join needs at least two operands");
  }
  std::vector<size_t> order = join_order;
  if (order.empty()) {
    order.resize(n_ops);
    for (size_t i = 0; i < n_ops; ++i) order[i] = i;
  }
  {
    std::vector<bool> seen(n_ops, false);
    bool valid = order.size() == n_ops;
    for (size_t i : order) {
      if (!valid || i >= n_ops || seen[i]) {
        valid = false;
        break;
      }
      seen[i] = true;
    }
    if (!valid) {
      return Status::InvalidArgument(
          "join order is not a permutation of the operands");
    }
  }

  std::string product_name = operands[0]->name();
  for (size_t i = 1; i < n_ops; ++i) {
    product_name += " x " + operands[i]->name();
  }
  for (const ExtendedRelation* op : operands) {
    if (op->empty()) {
      // The product is empty; selection over it never evaluates the
      // predicate, and neither do we.
      return ExtendedRelation(predicate != nullptr
                                  ? "select(" + product_name + ")"
                                  : product_name,
                              product_schema);
    }
  }

  for (const ExtendedRelation* op : operands) {
    EVIDENT_RETURN_NOT_OK(CheckRowIdRange(*op));
  }
  // A predicate that does not bind completely prunes nothing: the full
  // cross product is enumerated in FROM order, then selected — exactly
  // the definition.
  const bool prune =
      predicate != nullptr &&
      BoundPredicate::Bind(predicate, product_schema).fully_bound();
  if (!prune) {
    for (size_t i = 0; i < n_ops; ++i) order[i] = i;
  }

  std::vector<const ColumnStore*> stores;
  std::vector<size_t> attr_counts;
  stores.reserve(n_ops);
  attr_counts.reserve(n_ops);
  for (const ExtendedRelation* op : operands) {
    stores.push_back(&op->columns());
    attr_counts.push_back(op->schema()->size());
  }
  const std::vector<MultiJoinEdge> edges =
      prune ? AnalyzeMultiJoinEdges(predicate, *product_schema, attr_counts)
            : std::vector<MultiJoinEdge>{};

  // The match set: cols[k][t] is the row of operand order[k] in the t-th
  // surviving combination. Tuples stay sorted join_order-major because
  // every step visits them (and, within an equi step, each ascending
  // hash chain) in ascending order.
  constexpr uint32_t kEmptySlot = std::numeric_limits<uint32_t>::max();
  std::vector<std::vector<uint32_t>> cols(1);
  std::vector<size_t> pos_of_op(n_ops, 0);
  std::vector<bool> placed(n_ops, false);
  {
    const size_t first = order[0];
    cols[0].resize(stores[first]->rows());
    for (size_t r = 0; r < cols[0].size(); ++r) {
      cols[0][r] = static_cast<uint32_t>(r);
    }
    pos_of_op[first] = 0;
    placed[first] = true;
  }

  // Enumeration is serial and can visit far more combinations than it
  // keeps; poll the governed deadline every ~kGovernorTick visited
  // tuples. The intermediate match set is deliberately uncharged (its
  // size depends on the join order; only the final output is charged),
  // so only the polls bound a hostile shape.
  QueryContext* const query_ctx = CurrentQueryContext();
  uint64_t tick = 0;

  for (size_t k = 1; k < n_ops; ++k) {
    const size_t opj = order[k];
    const ColumnStore& bstore = *stores[opj];
    const size_t count = cols[0].size();
    // Edges connecting the incoming operand to the placed set: the
    // incoming side becomes the hash-build key, the placed side the
    // probe key (read through the match set's columns).
    std::vector<size_t> build_attrs;
    struct ProbeRef {
      const ColumnStore* store;
      size_t attr;
      size_t col;
    };
    std::vector<ProbeRef> probe_refs;
    for (const MultiJoinEdge& e : edges) {
      size_t local, other, other_attr;
      if (e.left_operand == opj && placed[e.right_operand]) {
        local = e.left_index;
        other = e.right_operand;
        other_attr = e.right_index;
      } else if (e.right_operand == opj && placed[e.left_operand]) {
        local = e.right_index;
        other = e.left_operand;
        other_attr = e.left_index;
      } else {
        continue;
      }
      build_attrs.push_back(local);
      probe_refs.push_back(ProbeRef{stores[other], other_attr,
                                    pos_of_op[other]});
    }

    std::vector<std::vector<uint32_t>> next(k + 1);
    const size_t bn = bstore.rows();
    if (build_attrs.empty()) {
      // No connecting edge: cross step.
      const size_t reserve = CappedProductReserve(count, bn);
      for (auto& col : next) col.reserve(reserve);
      for (size_t t = 0; t < count; ++t) {
        for (size_t r = 0; r < bn; ++r) {
          if (query_ctx != nullptr && ++tick % kGovernorTick == 0) {
            EVIDENT_RETURN_NOT_OK(query_ctx->PollTick());
          }
          for (size_t kk = 0; kk < k; ++kk) next[kk].push_back(cols[kk][t]);
          next[k].push_back(static_cast<uint32_t>(r));
        }
      }
    } else {
      // Hash the incoming operand on its edge attributes (chains kept
      // ascending by reverse insertion), probe with each match tuple.
      size_t capacity = 1;
      while (capacity < bn * 2) capacity <<= 1;
      const uint64_t mask = capacity - 1;
      std::vector<uint32_t> heads(capacity, kEmptySlot);
      std::vector<uint32_t> chain(bn, kEmptySlot);
      for (size_t r = bn; r-- > 0;) {
        const uint64_t h = StoreKeyHash(bstore, r, build_attrs);
        const size_t bucket = static_cast<size_t>(h & mask);
        chain[r] = heads[bucket];
        heads[bucket] = static_cast<uint32_t>(r);
      }
      for (size_t t = 0; t < count; ++t) {
        if (query_ctx != nullptr && ++tick % kGovernorTick == 0) {
          EVIDENT_RETURN_NOT_OK(query_ctx->PollTick());
        }
        // Probe hash mixed in build_attrs order, exactly like
        // StoreKeyHash, so equal keys land in the same bucket.
        uint64_t h = 0x9e3779b97f4a7c15ULL;
        for (const ProbeRef& ref : probe_refs) {
          h ^= static_cast<uint64_t>(
                   ref.store->value_column(ref.attr)
                       .values[cols[ref.col][t]]
                       .Hash()) +
               0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
        }
        for (uint32_t r = heads[static_cast<size_t>(h & mask)];
             r != kEmptySlot; r = chain[r]) {
          bool match = true;
          for (size_t kk = 0; kk < build_attrs.size(); ++kk) {
            const ProbeRef& ref = probe_refs[kk];
            if (!(bstore.value_column(build_attrs[kk]).values[r] ==
                  ref.store->value_column(ref.attr)
                      .values[cols[ref.col][t]])) {
              match = false;
              break;
            }
          }
          if (!match) continue;
          for (size_t kk = 0; kk < k; ++kk) next[kk].push_back(cols[kk][t]);
          next[k].push_back(r);
        }
      }
    }
    cols = std::move(next);
    pos_of_op[opj] = k;
    placed[opj] = true;
  }

  // Restore left-major (FROM) order: the definition's row order, which
  // any join_order must reproduce.
  const size_t count = cols[0].size();
  std::vector<const std::vector<uint32_t>*> by_from(n_ops);
  for (size_t i = 0; i < n_ops; ++i) by_from[i] = &cols[pos_of_op[i]];
  std::vector<size_t> perm(count);
  for (size_t t = 0; t < count; ++t) perm[t] = t;
  std::sort(perm.begin(), perm.end(), [&](size_t a, size_t b) {
    for (size_t i = 0; i < n_ops; ++i) {
      const uint32_t va = (*by_from[i])[a];
      const uint32_t vb = (*by_from[i])[b];
      if (va != vb) return va < vb;
    }
    return false;
  });

  ColumnStore out = ColumnStore::EmptyLike(product_schema, product_name);
  out.ReserveRows(count);
  size_t flat = 0;
  for (size_t i = 0; i < n_ops; ++i) {
    const ColumnStore& src_store = *stores[i];
    const std::vector<uint32_t>& rows_of = *by_from[i];
    for (size_t a = 0; a < attr_counts[i]; ++a, ++flat) {
      switch (src_store.kind(a)) {
        case ColumnStore::ColumnKind::kValue: {
          const std::vector<Value>& src = src_store.value_column(a).values;
          std::vector<Value>& dst = out.value_column_mut(flat).values;
          dst.reserve(count);
          for (size_t t : perm) dst.push_back(src[rows_of[t]]);
          break;
        }
        case ColumnStore::ColumnKind::kEvidence: {
          const ColumnStore::EvidenceColumn& src =
              src_store.evidence_column(a);
          ColumnStore::EvidenceColumn& dst = out.evidence_column_mut(flat);
          const size_t avg =
              src.words.size() / std::max<size_t>(src_store.rows(), 1);
          dst.words.reserve(CappedArenaReserve(count, avg + 1));
          dst.masses.reserve(CappedArenaReserve(count, avg + 1));
          dst.offsets.reserve(count + 1);
          for (size_t t : perm) dst.AppendRowFrom(src, rows_of[t]);
          break;
        }
        case ColumnStore::ColumnKind::kBoxed: {
          const std::vector<EvidenceSet>& src = src_store.boxed_column(a).sets;
          std::vector<EvidenceSet>& dst = out.boxed_column_mut(flat).sets;
          dst.reserve(count);
          for (size_t t : perm) dst.push_back(src[rows_of[t]]);
          break;
        }
      }
    }
  }
  for (size_t t : perm) {
    if (query_ctx != nullptr && ++tick % kGovernorTick == 0) {
      EVIDENT_RETURN_NOT_OK(query_ctx->PollTick());
    }
    SupportPair m = stores[0]->membership((*by_from[0])[t]);
    for (size_t i = 1; i < n_ops; ++i) {
      m = m.Multiply(stores[i]->membership((*by_from[i])[t]));  // F_TM
    }
    out.AppendMembership(m);
  }
  ExtendedRelation product = ExtendedRelation::AdoptColumns(std::move(out));
  if (predicate == nullptr) {
    // Pure product: no edges bind, so the full cross is the operator
    // output; with a predicate the Select below charges the final
    // output instead.
    EVIDENT_RETURN_NOT_OK(GovernorChargeOutput(*product_schema, count));
    return product;
  }
  return Select(product, predicate, threshold);
}

Result<ExtendedRelation> RenameAttribute(const ExtendedRelation& input,
                                         const std::string& from,
                                         const std::string& to) {
  if (input.schema() == nullptr) {
    return Status::InvalidArgument("rename on a relation without schema");
  }
  EVIDENT_ASSIGN_OR_RETURN(size_t index, input.schema()->IndexOf(from));
  if (input.schema()->Has(to)) {
    return Status::AlreadyExists("attribute '" + to + "' already exists");
  }
  std::vector<AttributeDef> defs = input.schema()->attributes();
  defs[index].name = to;
  EVIDENT_ASSIGN_OR_RETURN(SchemaPtr schema, RelationSchema::Make(defs));
  // The renamed output is billed even though the image is adopted
  // zero-copy: charges depend on the logical plan, not the storage
  // layout.
  EVIDENT_RETURN_NOT_OK(GovernorChargeOutput(*schema, input.size()));
  // A rename changes no cell: adopt the operand's column image under the
  // renamed schema (same attribute kinds and domains, so the column
  // layout is identical) without materializing a single row.
  return ExtendedRelation::AdoptColumns(
      ColumnStore::WithSchema(input.columns(), schema, input.name()));
}

}  // namespace evident
