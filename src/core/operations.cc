#include "core/operations.h"

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <limits>
#include <numeric>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "common/math_util.h"
#include "core/bound_predicate.h"
#include "core/column_store.h"
#include "core/fault_injection.h"
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

/// Governed loops that can run long inside one morsel (join steps, the
/// interpreted predicate walks, the union verdict pass) poll the query
/// context every this many iterations — frequent enough that a 1 ms deadline lands mid-loop,
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
  std::vector<size_t> identity(schema.size());
  std::iota(identity.begin(), identity.end(), size_t{0});
  return ExtendedRelation::AdoptColumns(
      ColumnStore::SpliceRows(store, store.schema(), std::move(name), identity,
                              kept.rows, kept.memberships));
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
///     batch results, and adopted as the relation: no row objects, no
///     index inserts — both materialize lazily if a
///     downstream consumer needs them.
///
/// The combination arithmetic runs through the same span kernels as
/// CombineEvidence on the materialized evidence sets, so merged cells
/// are bit-identical to it for any thread count.
///
/// With `merged_only` set the output keeps the merged pairs alone — the
/// entities present in both sources, in left-row order — and is named
/// "L n R": that is Intersect, which so never builds the rows it would
/// drop. The verdict pass and its errors are the same either way; the
/// one charge is for the rows actually built.
Result<ExtendedRelation> UnionTagged(const ExtendedRelation& left,
                                     const ExtendedRelation& right,
                                     const UnionOptions& options,
                                     bool merged_only) {
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
  const EncodedKeys& left_keys = left_store.encoded_keys();
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
  out_rows.reserve(merged_only ? pairs : n + right.size() - pairs);
  std::vector<SupportPair> pair_membership(pairs);
  size_t pair_index = 0;
  QueryContext* const ctx = CurrentQueryContext();
  for (size_t i = 0; i < n; ++i) {
    if (ctx != nullptr && (i + 1) % kGovernorTick == 0) {
      EVIDENT_RETURN_NOT_OK(ctx->PollTick());
    }
    if (match[i] == kNoMatch) {
      if (!merged_only) {
        out_rows.push_back({RowSource::kLeft, static_cast<uint32_t>(i), 0});
      }
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
  if (!merged_only) {
    std::vector<uint8_t> matched_right(right.size(), 0);
    for (uint32_t j : pair_right) matched_right[j] = 1;
    for (size_t j = 0; j < right.size(); ++j) {
      if (!matched_right[j]) {
        out_rows.push_back({RowSource::kRight, static_cast<uint32_t>(j), 0});
      }
    }
  }

  EVIDENT_RETURN_NOT_OK(GovernorChargeOutput(*schema, out_rows.size()));

  // Phase 4: build the output's column image.
  ColumnStore out = ColumnStore::EmptyLike(
      schema, left.name() + (merged_only ? " n " : " u ") + right.name());
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
  return UnionTagged(left, right, options, /*merged_only=*/false);
}

Result<ExtendedRelation> Intersect(const ExtendedRelation& left,
                                   const ExtendedRelation& right,
                                   const UnionOptions& options) {
  EVIDENT_RETURN_NOT_OK(CheckUnionCompatible(left, right));
  // "Key in both sources" holds exactly for the union's merged pairs, so
  // the intersection is the union pass with the single-source rows left
  // out.
  return UnionTagged(left, right, options, /*merged_only=*/true);
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
  EncodedKeySet unique;
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

/// One operand of the join executor, in FROM order: a relation's column
/// image and, optionally, the ascending rows of it that take part — a
/// prefilter's filter-pass survivors, memberships unchanged. Null rows
/// mean every row.
struct JoinOperand {
  const ExtendedRelation* relation;
  const std::vector<uint32_t>* rows;

  size_t size() const {
    return rows != nullptr ? rows->size() : relation->size();
  }
  uint32_t row(size_t i) const {
    return rows != nullptr ? (*rows)[i] : static_cast<uint32_t>(i);
  }
};

/// The executor addresses operand rows with uint32 ids and uses 2^32-1 as
/// its empty-slot sentinel; an operand at or beyond that bound —
/// unreachable for in-memory relations today — fails cleanly instead of
/// silently aliasing rows.
Status CheckRowIdRange(const ExtendedRelation& rel) {
  const bool fits =
      rel.size() < static_cast<size_t>(std::numeric_limits<uint32_t>::max());
  if (fits && !fault::ShouldFail(fault::Site::kRowIdRange)) {
    return Status::OK();
  }
  return Status::OutOfRange("relation '" + rel.name() +
                            "' exceeds the executor's 2^32-1 row limit");
}

/// Mixes one definite cell into a key hash (Value::Hash makes 1 and 1.0
/// agree, matching operator==).
uint64_t MixKeyHash(uint64_t h, const Value& v) {
  return h ^ (static_cast<uint64_t>(v.Hash()) + 0x9e3779b97f4a7c15ULL +
              (h << 6) + (h >> 2));
}
constexpr uint64_t kKeyHashSeed = 0x9e3779b97f4a7c15ULL;

/// The executor's one hash table: open addressing over the listed rows
/// of an operand, keyed by its definite cells at `attrs`. A slot holds
/// the first listed position of a distinct key; later positions with
/// that key chain from it in ascending order, so a probe visits its
/// matches in ascending row order.
class KeyTable {
 public:
  KeyTable(const JoinOperand& op, std::vector<size_t> attrs)
      : op_(op), store_(op.relation->columns()), attrs_(std::move(attrs)) {
    const size_t n = op.size();
    size_t capacity = 16;
    while (capacity < 2 * n) capacity <<= 1;
    mask_ = capacity - 1;
    slots_.assign(capacity, kEmpty);
    chain_.assign(n, kEmpty);
    hashes_.resize(n);
    for (size_t i = 0; i < n; ++i) {
      uint64_t h = kKeyHashSeed;
      for (size_t a : attrs_) h = MixKeyHash(h, value(a, i));
      hashes_[i] = h;
    }
    // Insert in reverse: each insertion prepends to its key's chain.
    for (size_t i = n; i-- > 0;) {
      size_t s = hashes_[i] & mask_;
      while (slots_[s] != kEmpty &&
             !(hashes_[slots_[s]] == hashes_[i] && SameKey(slots_[s], i))) {
        s = (s + 1) & mask_;
      }
      if (slots_[s] != kEmpty) chain_[i] = slots_[s];
      slots_[s] = static_cast<uint32_t>(i);
    }
  }

  /// Calls `fn(row)` for each listed row whose key equals the probe key
  /// (`probe(k)` = the probe's cell for attrs[k]), ascending, while `fn`
  /// returns true; false when `fn` stopped it.
  template <typename ProbeKey, typename Fn>
  bool ForEachMatch(ProbeKey&& probe, Fn&& fn) const {
    uint64_t h = kKeyHashSeed;
    for (size_t k = 0; k < attrs_.size(); ++k) h = MixKeyHash(h, probe(k));
    for (size_t s = h & mask_; slots_[s] != kEmpty; s = (s + 1) & mask_) {
      const uint32_t head = slots_[s];
      if (hashes_[head] != h) continue;
      bool equal = true;
      for (size_t k = 0; k < attrs_.size() && equal; ++k) {
        equal = value(attrs_[k], head) == probe(k);
      }
      if (!equal) continue;
      for (uint32_t i = head; i != kEmpty; i = chain_[i]) {
        if (!fn(op_.row(i))) return false;
      }
      return true;
    }
    return true;
  }

 private:
  static constexpr uint32_t kEmpty = std::numeric_limits<uint32_t>::max();

  const Value& value(size_t attr, size_t i) const {
    return store_.value_column(attr).values[op_.row(i)];
  }
  bool SameKey(size_t i, size_t j) const {
    for (size_t a : attrs_) {
      if (!(value(a, i) == value(a, j))) return false;
    }
    return true;
  }

  const JoinOperand& op_;
  const ColumnStore& store_;
  std::vector<size_t> attrs_;
  uint64_t mask_ = 0;
  std::vector<uint32_t> slots_;
  std::vector<uint32_t> chain_;
  std::vector<uint64_t> hashes_;
};

/// A morsel worker's governor cadence inside a join step: polls the
/// query context every kGovernorTick visited combinations and charges
/// the combinations the last step keeps against the row cap in batches
/// of kGovernorTick — so a runaway join or product trips mid-loop. Visit,
/// Keep and Flush return false once the query must stop; the error is
/// sticky and the pass's caller surfaces it.
struct StepTicker {
  QueryContext* const ctx;
  uint64_t visited = 0;
  uint64_t kept = 0;

  bool Visit() { return ctx == nullptr || ++visited < kGovernorTick || Flush(); }
  bool Keep() { return ctx == nullptr || ++kept < kGovernorTick || Flush(); }
  bool Flush() {
    if (ctx == nullptr) return true;
    visited = 0;
    const uint64_t rows = std::exchange(kept, 0);
    return (rows == 0 || ctx->ChargeRows(rows).ok()) && ctx->PollTick().ok();
  }
};

/// The join executor: σ̃^Q_P over the product of `ops` (FROM order), or
/// the product itself when `predicate` is null.
///
///  1. Analysis — AnalyzeJoinPredicate splits the predicate into
///     definite equi edges and residual conjuncts and reports its first
///     error before anything runs.
///  2. Steps — the match set starts as the listed rows of ops[order[0]];
///     step k brings in ops[order[k]]: a KeyTable on its listed rows over
///     the edges into the placed operands (a cross step when none
///     connect), probed by every match tuple in fixed-boundary morsels,
///     emitting in morsel order. A combination that fails an edge carries
///     a (0,0) factor, so it is never formed. When every residual
///     conjunct binds, an intermediate step also drops combinations with
///     sn == 0 on each conjunct whose operands are all placed (the
///     prefilter argument: CWA_ER discards them anyway). Every step polls
///     the governor; only the combinations the last step keeps are
///     charged to the row cap (StepTicker).
///  3. Verdict — the last step finishes every combination it forms:
///     memberships folded in FROM order via F_TM, times the residual's
///     support, then CWA_ER and the threshold. The edges contribute
///     exactly (1,1) to every formed combination, so the residual's
///     support is the whole predicate's, bit for bit. A bound residual
///     reads the operands' column spans (EvaluateCombination); one that
///     does not bind is interpreted over a transient concatenated tuple.
///     Analysis has already reported every error that evaluation can
///     raise, so the verdict's own error path (first failing morsel in
///     morsel order) is defensive.
///  4. Splice — the kept combinations are sorted FROM-major (no sort
///     when `order` is the identity) and spliced once, one
///     SpliceColumnsFrom per operand.
///
/// The result is therefore the definition's FROM-major product order
/// with definitional memberships for any `order`, thread count and
/// operand row lists.
Result<ExtendedRelation> RunJoin(const std::vector<JoinOperand>& ops,
                                 const SchemaPtr& schema,
                                 const PredicatePtr& predicate,
                                 const MembershipThreshold& threshold,
                                 const std::vector<size_t>& order,
                                 std::string name) {
  const size_t n = ops.size();
  for (const JoinOperand& op : ops) {
    // The product is empty; selection over it never evaluates the
    // predicate, and neither do we.
    if (op.size() == 0) return ExtendedRelation(std::move(name), schema);
  }
  std::vector<const ColumnStore*> stores(n);
  std::vector<size_t> attr_counts(n);
  for (size_t i = 0; i < n; ++i) {
    EVIDENT_RETURN_NOT_OK(CheckRowIdRange(*ops[i].relation));
    stores[i] = &ops[i].relation->columns();
    attr_counts[i] = ops[i].relation->schema()->size();
    // Listed rows come from a filter pass, which verified exactly the
    // partitions they lie in; every other operand is read whole.
    if (ops[i].rows == nullptr) {
      EVIDENT_RETURN_NOT_OK(stores[i]->EnsureAllVerified());
    }
  }
  const JoinPredicate analysis =
      AnalyzeJoinPredicate(predicate, *schema, attr_counts);
  EVIDENT_RETURN_NOT_OK(analysis.status);
  std::vector<BoundPredicate> bound;
  bool all_bound = true;
  for (const ResidualConjunct& c : analysis.residual) {
    bound.push_back(BoundPredicate::BindProduct(c.predicate, schema,
                                                attr_counts));
    all_bound = all_bound && bound.back().fully_bound();
  }
  const PredicatePtr interpreted =
      all_bound ? nullptr : analysis.ResidualPredicate();

  std::vector<size_t> step_of(n);
  for (size_t k = 0; k < n; ++k) step_of[order[k]] = k;
  // filters[k]: the residual conjuncts intermediate step k checks —
  // those whose last operand it places (step 1 takes step 0's too).
  std::vector<std::vector<size_t>> filters(n);
  for (size_t c = 0; all_bound && c < analysis.residual.size(); ++c) {
    size_t step = 1;
    for (size_t op : analysis.residual[c].operands) {
      step = std::max(step, step_of[op]);
    }
    if (step + 1 < n) filters[step].push_back(c);
  }
  // The verdict on a finished combination: its membership folded in FROM
  // order via F_TM, times the residual's support; false when CWA_ER or
  // the threshold drops it. A pure product keeps every combination.
  auto finish = [&](const uint32_t* tuple, SupportPair* membership,
                    Status* status) {
    *membership = stores[0]->membership(tuple[0]);
    for (size_t op = 1; op < n; ++op) {
      *membership = membership->Multiply(stores[op]->membership(tuple[op]));
    }
    if (predicate == nullptr) return true;
    SupportPair support = SupportPair::Certain();
    if (interpreted != nullptr) {
      ExtendedTuple row = stores[0]->MaterializeRow(tuple[0]);
      for (size_t op = 1; op < n; ++op) {
        ExtendedTuple part = stores[op]->MaterializeRow(tuple[op]);
        row.cells.insert(row.cells.end(),
                         std::make_move_iterator(part.cells.begin()),
                         std::make_move_iterator(part.cells.end()));
      }
      Result<SupportPair> evaluated = interpreted->Evaluate(row, *schema);
      if (!evaluated.ok()) {
        *status = evaluated.status();
        return false;
      }
      support = *evaluated;
    } else {
      for (const BoundPredicate& b : bound) {
        support = support.Multiply(b.EvaluateCombination(stores.data(), tuple));
      }
    }
    *membership = membership->Multiply(support);  // F_TM
    return membership->HasPositiveSupport() &&    // CWA_ER
           threshold.Accepts(*membership);
  };

  // The match set, one row-id column per placed operand (FROM slot),
  // its tuples sorted by the placed slots in `order`. Step 1 reads the
  // first operand's listed rows in place; after the last step the match
  // set holds the kept combinations, with their memberships alongside.
  QueryContext* const ctx = CurrentQueryContext();
  const JoinOperand& first = ops[order[0]];
  std::vector<std::vector<uint32_t>> match(n);
  std::vector<SupportPair> memberships;
  for (size_t k = 1; k < n; ++k) {
    const size_t incoming = order[k];
    const bool last = k + 1 == n;
    const std::vector<size_t> placed(order.begin(), order.begin() + k + 1);
    // Edges from the incoming operand into the placed ones: its side is
    // the table key, the placed side is read off each match tuple.
    std::vector<size_t> key_attrs;
    struct ProbeRef {
      size_t op;
      const std::vector<Value>* column;
    };
    std::vector<ProbeRef> probe_refs;
    for (const JoinEdge& e : analysis.edges) {
      if (e.left_operand == incoming && step_of[e.right_operand] < k) {
        key_attrs.push_back(e.left_index);
        probe_refs.push_back(
            {e.right_operand,
             &stores[e.right_operand]->value_column(e.right_index).values});
      } else if (e.right_operand == incoming && step_of[e.left_operand] < k) {
        key_attrs.push_back(e.right_index);
        probe_refs.push_back(
            {e.left_operand,
             &stores[e.left_operand]->value_column(e.left_index).values});
      }
    }
    std::optional<KeyTable> table;
    if (!key_attrs.empty()) table.emplace(ops[incoming], key_attrs);
    struct StepOut {
      std::vector<std::vector<uint32_t>> match;
      std::vector<SupportPair> memberships;  // last step only
      Status status;
    };
    const size_t count = k == 1 ? first.size() : match[order[0]].size();
    std::vector<StepOut> morsels(ParallelMorselCount(count, kParallelGrain));
    ParallelForMorsels(count, kParallelGrain, [&](size_t m, size_t begin,
                                                  size_t end) {
      StepOut& out = morsels[m];
      out.match.resize(n);
      std::vector<uint32_t> tuple(n);
      StepTicker ticker{ctx};
      auto emit = [&](uint32_t row) {
        if (!ticker.Visit()) return false;
        tuple[incoming] = row;
        for (size_t c : filters[k]) {
          if (!bound[c].EvaluateCombination(stores.data(), tuple.data())
                   .HasPositiveSupport()) {
            return true;
          }
        }
        if (last) {
          SupportPair membership;
          if (!finish(tuple.data(), &membership, &out.status)) {
            return out.status.ok();
          }
          out.memberships.push_back(membership);
        }
        for (size_t s : placed) out.match[s].push_back(tuple[s]);
        return !last || ticker.Keep();
      };
      for (size_t t = begin; t < end; ++t) {
        if (k == 1) {
          tuple[order[0]] = first.row(t);
        } else {
          for (size_t i = 0; i < k; ++i) tuple[order[i]] = match[order[i]][t];
        }
        bool go_on = true;
        if (table.has_value()) {
          go_on = table->ForEachMatch(
              [&](size_t key) -> const Value& {
                const ProbeRef& ref = probe_refs[key];
                return (*ref.column)[tuple[ref.op]];
              },
              emit);
        } else {
          for (size_t i = 0; i < ops[incoming].size() && go_on; ++i) {
            go_on = emit(ops[incoming].row(i));
          }
        }
        if (!go_on) return;
      }
      (void)ticker.Flush();
    });
    EVIDENT_RETURN_NOT_OK(GovernorAfterPass());
    for (const StepOut& m : morsels) EVIDENT_RETURN_NOT_OK(m.status);
    size_t total = 0;
    for (const StepOut& m : morsels) total += m.match[incoming].size();
    for (size_t s : placed) {
      match[s].clear();
      match[s].reserve(total);
      for (const StepOut& m : morsels) {
        match[s].insert(match[s].end(), m.match[s].begin(), m.match[s].end());
      }
    }
    if (last) {
      memberships.reserve(total);
      for (const StepOut& m : morsels) {
        memberships.insert(memberships.end(), m.memberships.begin(),
                           m.memberships.end());
      }
    }
  }

  const size_t total = memberships.size();
  if (ctx != nullptr) EVIDENT_RETURN_NOT_OK(ctx->ChargeMemory(*schema, total));
  bool identity = true;
  for (size_t k = 0; k < n; ++k) identity = identity && order[k] == k;
  if (!identity) {
    // Combinations are distinct, so FROM-major order is a total order.
    std::vector<uint32_t> perm(total);
    std::iota(perm.begin(), perm.end(), uint32_t{0});
    std::sort(perm.begin(), perm.end(), [&](uint32_t a, uint32_t b) {
      for (const std::vector<uint32_t>& rows : match) {
        if (rows[a] != rows[b]) return rows[a] < rows[b];
      }
      return false;
    });
    std::vector<uint32_t> sorted(total);
    for (std::vector<uint32_t>& rows : match) {
      for (size_t i = 0; i < total; ++i) sorted[i] = rows[perm[i]];
      rows.swap(sorted);
    }
    std::vector<SupportPair> sorted_memberships(total);
    for (size_t i = 0; i < total; ++i) {
      sorted_memberships[i] = memberships[perm[i]];
    }
    memberships.swap(sorted_memberships);
  }
  ColumnStore out = ColumnStore::EmptyLike(schema, std::move(name));
  out.ReserveRows(total);
  size_t first_attr = 0;
  for (size_t op = 0; op < n; ++op) {
    std::vector<size_t> attrs(attr_counts[op]);
    std::iota(attrs.begin(), attrs.end(), size_t{0});
    out.SpliceColumnsFrom(*stores[op], attrs, first_attr, match[op]);
    first_attr += attr_counts[op];
  }
  for (const SupportPair& membership : memberships) {
    out.AppendMembership(membership);
  }
  return ExtendedRelation::AdoptColumns(std::move(out));
}

}  // namespace

Result<ExtendedRelation> Product(const ExtendedRelation& left,
                                 const ExtendedRelation& right) {
  EVIDENT_ASSIGN_OR_RETURN(SchemaPtr schema, MakeProductSchema(left, right));
  return RunJoin({{&left, nullptr}, {&right, nullptr}}, schema, nullptr,
                 MembershipThreshold(), {0, 1},
                 left.name() + " x " + right.name());
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
    const std::vector<uint32_t>* left_rows,
    const std::vector<uint32_t>* right_rows) {
  if (predicate == nullptr) {
    return Status::InvalidArgument("null selection predicate");
  }
  const JoinOperand l{&left, left_rows};
  const JoinOperand r{&right, right_rows};
  // The n = 2 join order is [probe, build].
  const bool build_left = build_side == JoinBuildSide::kAuto
                              ? l.size() < r.size()
                              : build_side == JoinBuildSide::kLeft;
  return RunJoin({l, r}, schema, predicate, threshold,
                 build_left ? std::vector<size_t>{1, 0}
                            : std::vector<size_t>{0, 1},
                 "select(" + left.name() + " x " + right.name() + ")");
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
    const std::vector<size_t>& join_order,
    const std::vector<const std::vector<uint32_t>*>& operand_rows) {
  const size_t n_ops = operands.size();
  if (n_ops < 2) {
    return Status::InvalidArgument(
        "multiway join needs at least two operands");
  }
  if (!operand_rows.empty() && operand_rows.size() != n_ops) {
    return Status::InvalidArgument(
        "operand row lists do not match the operands");
  }
  std::vector<size_t> identity(n_ops);
  std::iota(identity.begin(), identity.end(), size_t{0});
  const std::vector<size_t>& order = join_order.empty() ? identity : join_order;
  if (order.size() != n_ops ||
      !std::is_permutation(order.begin(), order.end(), identity.begin())) {
    return Status::InvalidArgument(
        "join order is not a permutation of the operands");
  }
  std::vector<JoinOperand> ops;
  ops.reserve(n_ops);
  std::string name = operands[0]->name();
  for (size_t i = 0; i < n_ops; ++i) {
    ops.push_back({operands[i], operand_rows.empty() ? nullptr
                                                     : operand_rows[i]});
    if (i > 0) name += " x " + operands[i]->name();
  }
  if (predicate != nullptr) name = "select(" + name + ")";
  return RunJoin(ops, product_schema, predicate, threshold, order,
                 std::move(name));
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
