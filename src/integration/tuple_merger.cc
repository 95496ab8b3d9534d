#include "integration/tuple_merger.h"

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_set>
#include <utility>
#include <vector>

#include "core/column_store.h"
#include "core/key_index.h"
#include "core/query_context.h"

namespace evident {

namespace {

/// The rekey pass: rewrites each matched right tuple's key to the left
/// tuple's key so the extended union (which matches by key) merges them
/// — one implementation of Dempster-based merging. The matching is
/// validated over the operands' cached encoded-key arenas (including the
/// insert path's duplicate-key check, replayed through an
/// EncodedKeyIndex) and the rekeyed relation's column image is spliced
/// directly: key columns take the left row's values for matched rows,
/// every other column is copied from the right row's slice. No row
/// objects exist before the union.
Result<ExtendedRelation> RekeyRight(const ExtendedRelation& left,
                                            const ExtendedRelation& right,
                                            const MatchingInfo& matching) {
  const ColumnStore& lstore = left.columns();
  const ColumnStore& rstore = right.columns();
  const ColumnStore::EncodedKeys& lkeys = lstore.encoded_keys();
  const ColumnStore::EncodedKeys& rkeys = rstore.encoded_keys();

  struct RekeyRow {
    uint32_t right_row;
    uint32_t left_row;  // key donor when rekeyed
    bool rekeyed;
  };
  std::vector<RekeyRow> out_rows;
  out_rows.reserve(right.size());
  EncodedKeyIndex rekeyed_index;
  rekeyed_index.Reserve(right.size());
  std::vector<uint8_t> is_matched_right(right.size(), 0);
  std::unordered_set<std::string, EncodedKeyHash, std::equal_to<>>
      matched_left_keys;
  matched_left_keys.reserve(matching.matches.size());

  for (const TupleMatch& m : matching.matches) {
    if (m.left_row >= left.size() || m.right_row >= right.size()) {
      return Status::InvalidArgument("matching references rows out of range");
    }
    if (is_matched_right[m.right_row]) {
      return Status::InvalidArgument(
          "matching assigns right row " + std::to_string(m.right_row) +
          " twice");
    }
    is_matched_right[m.right_row] = 1;
    const std::string_view key = lkeys.key(m.left_row);
    matched_left_keys.insert(std::string(key));
    if (rekeyed_index.Insert(key) != EncodedKeyIndex::kNoRow) {
      KeyVector key_values;
      for (size_t k : left.schema()->key_indices()) {
        key_values.push_back(lstore.value_column(k).values[m.left_row]);
      }
      return MakeDuplicateKeyError(key_values, right.name());
    }
    out_rows.push_back({static_cast<uint32_t>(m.right_row),
                        static_cast<uint32_t>(m.left_row), true});
  }

  for (size_t j : matching.unmatched_right) {
    if (j >= right.size()) {
      return Status::InvalidArgument("matching references rows out of range");
    }
    if (is_matched_right[j]) {
      return Status::InvalidArgument(
          "row " + std::to_string(j) + " is both matched and unmatched");
    }
    is_matched_right[j] = 1;
    const std::string_view key = rkeys.key(j);
    if (left.ContainsEncodedKey(key) &&
        matched_left_keys.count(key) == 0) {
      return Status::InvalidArgument(
          "unmatched right tuple shares key with a left tuple; matching "
          "info and keys disagree");
    }
    if (rekeyed_index.Insert(key) != EncodedKeyIndex::kNoRow) {
      KeyVector key_values;
      for (size_t k : right.schema()->key_indices()) {
        key_values.push_back(rstore.value_column(k).values[j]);
      }
      return MakeDuplicateKeyError(key_values, right.name());
    }
    out_rows.push_back({static_cast<uint32_t>(j), 0, false});
  }
  for (size_t j = 0; j < right.size(); ++j) {
    if (!is_matched_right[j]) {
      return Status::InvalidArgument(
          "matching info does not cover right row " + std::to_string(j));
    }
  }

  const SchemaPtr& schema = right.schema();
  ColumnStore out = ColumnStore::EmptyLike(schema, right.name());
  out.ReserveRows(out_rows.size());
  for (size_t a = 0; a < schema->size(); ++a) {
    switch (rstore.kind(a)) {
      case ColumnStore::ColumnKind::kValue: {
        const bool is_key =
            schema->attribute(a).kind == AttributeKind::kKey;
        const std::vector<Value>& lvals =
            is_key ? lstore.value_column(a).values
                   : rstore.value_column(a).values;
        const std::vector<Value>& rvals = rstore.value_column(a).values;
        std::vector<Value>& dst = out.value_column_mut(a).values;
        dst.reserve(out_rows.size());
        for (const RekeyRow& row : out_rows) {
          dst.push_back(is_key && row.rekeyed ? lvals[row.left_row]
                                              : rvals[row.right_row]);
        }
        break;
      }
      case ColumnStore::ColumnKind::kEvidence: {
        const ColumnStore::EvidenceColumn& src = rstore.evidence_column(a);
        ColumnStore::EvidenceColumn& dst = out.evidence_column_mut(a);
        dst.offsets.reserve(out_rows.size() + 1);
        for (const RekeyRow& row : out_rows) {
          dst.AppendRowFrom(src, row.right_row);
        }
        break;
      }
      case ColumnStore::ColumnKind::kBoxed: {
        const std::vector<EvidenceSet>& src = rstore.boxed_column(a).sets;
        std::vector<EvidenceSet>& dst = out.boxed_column_mut(a).sets;
        dst.reserve(out_rows.size());
        for (const RekeyRow& row : out_rows) dst.push_back(src[row.right_row]);
        break;
      }
    }
  }
  for (const RekeyRow& row : out_rows) {
    out.AppendMembership(rstore.membership(row.right_row));
  }
  return ExtendedRelation::AdoptColumns(std::move(out));
}

}  // namespace

Result<ExtendedRelation> MergeTuples(const ExtendedRelation& left,
                                     const ExtendedRelation& right,
                                     const MatchingInfo& matching,
                                     const UnionOptions& options) {
  if (left.schema() == nullptr || right.schema() == nullptr ||
      !left.schema()->UnionCompatibleWith(*right.schema())) {
    return Status::Incompatible(
        "tuple merging requires union-compatible relations");
  }
  EVIDENT_ASSIGN_OR_RETURN(ExtendedRelation rekeyed,
                           RekeyRight(left, right, matching));
  // The rekeyed right side (right.size() rows) is an operator output in
  // its own right; charge it before the union.
  if (QueryContext* const ctx = CurrentQueryContext()) {
    EVIDENT_RETURN_NOT_OK(ctx->ChargeOutput(*right.schema(), rekeyed.size()));
  }
  return Union(left, rekeyed, options);
}

}  // namespace evident
