#include "storage/erel_format.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <cstring>
#include <limits>
#include <new>
#include <sstream>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/math_util.h"
#include "common/str_util.h"
#include "core/column_store.h"
#include "core/fault_injection.h"
#include "storage/erel_internal.h"
#include "storage/erel_v3.h"
#include "storage/mmap_file.h"
#include "text/evidence_literal.h"

namespace evident {

namespace {

/// Quotes a definite value if needed so Value::Parse round-trips it:
/// strings that would parse as numbers get quoted.
std::string WriteDefiniteValue(const Value& v) {
  if (!v.is_string()) return v.ToString();
  const Value reparsed = Value::Parse(v.string_value());
  if (reparsed.is_string()) return v.string_value();
  return "\"" + v.string_value() + "\"";
}

}  // namespace

std::string WriteErel(const Catalog& catalog, int mass_decimals) {
  // One snapshot for the whole walk: the output is a consistent catalog
  // version even if another thread republishes mid-serialization.
  const std::shared_ptr<const CatalogSnapshot> snapshot = catalog.Snapshot();
  std::ostringstream os;
  os << "# evident .erel catalog\n";
  for (const std::string& name : snapshot->DomainNames()) {
    const DomainPtr domain = snapshot->GetDomain(name).value();
    os << "domain " << name << ":";
    for (size_t i = 0; i < domain->size(); ++i) {
      os << (i ? ", " : " ") << domain->value(i);
    }
    os << "\n";
  }
  for (const auto& [name, rel] : snapshot->relations()) {
    os << "\nrelation " << name << "\n";
    for (const AttributeDef& attr : rel->schema()->attributes()) {
      os << "attr " << attr.name << " " << AttributeKindToString(attr.kind);
      if (attr.is_uncertain()) os << " " << attr.domain->name();
      os << "\n";
    }
    for (const ExtendedTuple& t : rel->rows()) {
      os << "row ";
      for (size_t c = 0; c < t.cells.size(); ++c) {
        if (c) os << " | ";
        if (CellIsValue(t.cells[c])) {
          os << WriteDefiniteValue(std::get<Value>(t.cells[c]));
        } else {
          os << std::get<EvidenceSet>(t.cells[c]).ToString(mass_decimals);
        }
      }
      os << " | " << t.membership.ToString(mass_decimals) << "\n";
    }
    os << "end\n";
  }
  return os.str();
}

// ---------------------------------------------------------------------------
// v2 column image. The layout is documented bytes-exactly in
// erel_format.h; writer and reader below mirror it section for section.

namespace {

constexpr char kColumnImageMagic[] = "EVCIMG";  // + 2 version digits
constexpr char kColumnImageVersion[] = "02";
constexpr char kColumnImageVersionV3[] = "03";
constexpr char kChecksumTrailerMagic[] = "EVCRC001";
constexpr size_t kChecksumTrailerSize = 12;  // 8-byte magic + u32 CRC
constexpr uint32_t kNoDomain = std::numeric_limits<uint32_t>::max();

using erel_detail::ByteReader;
using erel_detail::Crc32;
using erel_detail::kStatisticsFooterMagic;
using erel_detail::PutF64;
using erel_detail::PutStr;
using erel_detail::PutU32;
using erel_detail::PutU64;
using erel_detail::PutU8;
using erel_detail::PutValue;
using erel_detail::ReadStatisticsBody;

/// Validates one packed evidence column: the v2 whole-column wrapper
/// around the shared range validator — offset-array shape first, then
/// every row, then arena-size agreement (error order is part of the
/// pinned v2 messages).
Status ValidateEvidenceColumn(const std::string& attr_name, size_t universe,
                              const ColumnStore::EvidenceColumn& col,
                              size_t rows) {
  if (col.offsets.size() != rows + 1 || col.offsets[0] != 0) {
    return Status::ParseError("attribute '" + attr_name +
                              "': malformed focal offset array");
  }
  EVIDENT_RETURN_NOT_OK(
      erel_detail::ValidateEvidenceRows(attr_name, universe, col, 0, rows));
  if (col.offsets[rows] != col.words.size()) {
    return Status::ParseError("attribute '" + attr_name +
                              "': focal span arena size disagrees with the "
                              "offset array");
  }
  return Status::OK();
}

/// The v2 parse proper. Reports errors without source context; the
/// caller stamps each with the source and the byte position reached.
Result<Catalog> ReadErelColumnImageBody(ByteReader& in,
                                        const std::string& data, size_t limit,
                                        bool checksum_ok) {
  if (!checksum_ok) {
    return Status::ParseError(
        "column-image checksum mismatch: the file is corrupt");
  }
  if (limit < 8 || data.compare(6, 2, kColumnImageVersion) != 0) {
    return Status::ParseError(
        "unsupported column-image version (expected EVCIMG" +
        std::string(kColumnImageVersion) + ")");
  }
  {
    const char* magic;
    EVIDENT_RETURN_NOT_OK(in.Take(8, "magic", &magic));
  }
  Catalog catalog;

  EVIDENT_ASSIGN_OR_RETURN(uint32_t domain_count, in.U32("domain count"));
  EVIDENT_RETURN_NOT_OK(in.CheckCount(domain_count, 8, "domain"));
  std::vector<DomainPtr> domains;
  domains.reserve(domain_count);
  for (uint32_t d = 0; d < domain_count; ++d) {
    EVIDENT_ASSIGN_OR_RETURN(std::string name, in.Str("domain name"));
    EVIDENT_ASSIGN_OR_RETURN(uint32_t value_count,
                             in.U32("domain value count"));
    EVIDENT_RETURN_NOT_OK(in.CheckCount(value_count, 1, "domain value"));
    std::vector<Value> values;
    values.reserve(value_count);
    for (uint32_t v = 0; v < value_count; ++v) {
      EVIDENT_ASSIGN_OR_RETURN(Value value, in.ReadValue("domain value"));
      values.push_back(std::move(value));
    }
    EVIDENT_ASSIGN_OR_RETURN(DomainPtr domain,
                             Domain::Make(std::move(name), std::move(values)));
    EVIDENT_RETURN_NOT_OK(catalog.RegisterDomain(domain));
    domains.push_back(std::move(domain));
  }

  EVIDENT_ASSIGN_OR_RETURN(uint32_t relation_count, in.U32("relation count"));
  EVIDENT_RETURN_NOT_OK(in.CheckCount(relation_count, 17, "relation"));
  // Stores are collected and registered only after the whole blob —
  // including the optional statistics footer — parsed cleanly.
  std::vector<ColumnStore> stores;
  stores.reserve(relation_count);
  for (uint32_t rel_index = 0; rel_index < relation_count; ++rel_index) {
    EVIDENT_ASSIGN_OR_RETURN(std::string rel_name, in.Str("relation name"));
    EVIDENT_ASSIGN_OR_RETURN(uint32_t attr_count,
                             in.U32("attribute count"));
    EVIDENT_RETURN_NOT_OK(in.CheckCount(attr_count, 9, "attribute"));
    std::vector<AttributeDef> attrs;
    attrs.reserve(attr_count);
    for (uint32_t a = 0; a < attr_count; ++a) {
      EVIDENT_ASSIGN_OR_RETURN(std::string attr_name,
                               in.Str("attribute name"));
      EVIDENT_ASSIGN_OR_RETURN(uint8_t kind, in.U8("attribute kind"));
      if (kind > 2) {
        return Status::ParseError("unknown attribute kind tag " +
                                  std::to_string(kind));
      }
      EVIDENT_ASSIGN_OR_RETURN(uint32_t domain_index,
                               in.U32("attribute domain index"));
      DomainPtr domain;
      if (domain_index != kNoDomain) {
        if (domain_index >= domains.size()) {
          return Status::ParseError("attribute '" + attr_name +
                                    "' references domain " +
                                    std::to_string(domain_index) +
                                    " of " + std::to_string(domains.size()));
        }
        domain = domains[domain_index];
      }
      attrs.emplace_back(std::move(attr_name),
                         static_cast<AttributeKind>(kind), std::move(domain));
    }
    EVIDENT_ASSIGN_OR_RETURN(SchemaPtr schema,
                             RelationSchema::Make(std::move(attrs)));
    EVIDENT_ASSIGN_OR_RETURN(uint64_t row_count, in.U64("row count"));
    EVIDENT_RETURN_NOT_OK(in.CheckCount(row_count, 16, "row"));
    const size_t rows = static_cast<size_t>(row_count);

    ColumnStore store = ColumnStore::EmptyLike(schema, rel_name);
    store.ReserveRows(rows);
    for (size_t a = 0; a < schema->size(); ++a) {
      const AttributeDef& attr = schema->attribute(a);
      EVIDENT_ASSIGN_OR_RETURN(uint8_t column_kind, in.U8("column kind"));
      if (column_kind != static_cast<uint8_t>(store.kind(a))) {
        return Status::ParseError(
            "attribute '" + attr.name + "' stored as column kind " +
            std::to_string(column_kind) +
            ", but its declaration implies kind " +
            std::to_string(static_cast<int>(store.kind(a))));
      }
      switch (store.kind(a)) {
        case ColumnStore::ColumnKind::kValue: {
          std::vector<Value>& dst = store.value_column_mut(a).values;
          dst.reserve(rows);
          for (size_t r = 0; r < rows; ++r) {
            EVIDENT_ASSIGN_OR_RETURN(Value v, in.ReadValue("column value"));
            if (attr.domain != nullptr && !attr.domain->Contains(v)) {
              return Status::ParseError(
                  "value " + v.ToString() + " outside domain of '" +
                  attr.name + "'");
            }
            dst.push_back(std::move(v));
          }
          break;
        }
        case ColumnStore::ColumnKind::kEvidence: {
          ColumnStore::EvidenceColumn& col = store.evidence_column_mut(a);
          EVIDENT_ASSIGN_OR_RETURN(uint64_t focal_count,
                                   in.U64("focal count"));
          EVIDENT_RETURN_NOT_OK(in.CheckCount(focal_count, 16, "focal"));
          if (focal_count > std::numeric_limits<uint32_t>::max()) {
            return Status::ParseError(
                "focal count exceeds the 32-bit offset space");
          }
          col.words.clear();
          col.words.reserve(focal_count);
          for (uint64_t k = 0; k < focal_count; ++k) {
            EVIDENT_ASSIGN_OR_RETURN(uint64_t w, in.U64("focal word"));
            col.words.push_back(w);
          }
          col.masses.reserve(focal_count);
          for (uint64_t k = 0; k < focal_count; ++k) {
            EVIDENT_ASSIGN_OR_RETURN(double m, in.F64("focal mass"));
            col.masses.push_back(m);
          }
          col.offsets.clear();
          col.offsets.reserve(rows + 1);
          for (size_t r = 0; r < rows + 1; ++r) {
            EVIDENT_ASSIGN_OR_RETURN(uint32_t o, in.U32("focal offset"));
            col.offsets.push_back(o);
          }
          EVIDENT_RETURN_NOT_OK(
              ValidateEvidenceColumn(attr.name, col.universe, col, rows));
          break;
        }
        case ColumnStore::ColumnKind::kBoxed: {
          std::vector<EvidenceSet>& dst = store.boxed_column_mut(a).sets;
          dst.reserve(rows);
          const size_t universe = attr.domain->size();
          for (size_t r = 0; r < rows; ++r) {
            EVIDENT_ASSIGN_OR_RETURN(uint32_t focal_count,
                                     in.U32("boxed focal count"));
            EVIDENT_RETURN_NOT_OK(
                in.CheckCount(focal_count, 12, "boxed focal"));
            MassFunction mass(universe);
            mass.Reserve(focal_count);
            for (uint32_t f = 0; f < focal_count; ++f) {
              EVIDENT_ASSIGN_OR_RETURN(uint32_t member_count,
                                       in.U32("boxed member count"));
              EVIDENT_RETURN_NOT_OK(
                  in.CheckCount(member_count, 4, "boxed member"));
              ValueSet set(universe);
              for (uint32_t e = 0; e < member_count; ++e) {
                EVIDENT_ASSIGN_OR_RETURN(uint32_t index,
                                         in.U32("boxed member index"));
                if (index >= universe) {
                  return Status::ParseError(
                      "boxed focal member " + std::to_string(index) +
                      " outside the " + std::to_string(universe) +
                      "-value frame of '" + attr.name + "'");
                }
                set.Set(index);
              }
              EVIDENT_ASSIGN_OR_RETURN(double m, in.F64("boxed mass"));
              EVIDENT_RETURN_NOT_OK(mass.Add(set, m));
            }
            Result<EvidenceSet> es = EvidenceSet::Make(attr.domain,
                                                       std::move(mass));
            if (!es.ok()) {
              return Status::ParseError(
                  "attribute '" + attr.name + "' row " + std::to_string(r) +
                  ": " + es.status().message());
            }
            dst.push_back(std::move(es).value());
          }
          break;
        }
      }
    }

    std::vector<double> sn(rows), sp(rows);
    for (size_t r = 0; r < rows; ++r) {
      EVIDENT_ASSIGN_OR_RETURN(sn[r], in.F64("sn"));
    }
    for (size_t r = 0; r < rows; ++r) {
      EVIDENT_ASSIGN_OR_RETURN(sp[r], in.F64("sp"));
    }
    for (size_t r = 0; r < rows; ++r) {
      const SupportPair membership{sn[r], sp[r]};
      EVIDENT_RETURN_NOT_OK(membership.Validate());
      if (!membership.HasPositiveSupport()) {
        return Status::ParseError(
            "CWA_ER violation in relation '" + rel_name + "' row " +
            std::to_string(r) + ": stored tuples must have sn > 0");
      }
      store.AppendMembership(membership);
    }

    // Key arena: must reproduce the canonical encodings of the key value
    // columns exactly, with unique keys — the lazily-built probe index
    // of the adopted relation assumes both.
    EVIDENT_ASSIGN_OR_RETURN(uint64_t arena_size, in.U64("key arena size"));
    const char* arena;
    EVIDENT_RETURN_NOT_OK(
        in.Take(static_cast<size_t>(arena_size), "key arena", &arena));
    std::vector<uint32_t> key_offsets(rows + 1);
    for (size_t r = 0; r < rows + 1; ++r) {
      EVIDENT_ASSIGN_OR_RETURN(key_offsets[r], in.U32("key offset"));
    }
    if (key_offsets[0] != 0 || key_offsets[rows] != arena_size) {
      return Status::ParseError("relation '" + rel_name +
                                "': malformed key arena offsets");
    }
    std::unordered_set<std::string_view> seen;
    seen.reserve(rows);
    std::string encoded;
    for (size_t r = 0; r < rows; ++r) {
      if (key_offsets[r + 1] < key_offsets[r]) {
        return Status::ParseError("relation '" + rel_name +
                                  "': malformed key arena offsets");
      }
      const std::string_view stored(arena + key_offsets[r],
                                    key_offsets[r + 1] - key_offsets[r]);
      store.EncodeKeyOfRow(r, &encoded);
      if (stored != encoded) {
        return Status::ParseError(
            "relation '" + rel_name + "' row " + std::to_string(r) +
            ": key arena disagrees with the key value columns");
      }
      if (!seen.insert(stored).second) {
        return Status::ParseError("duplicate key in relation '" + rel_name +
                                  "' row " + std::to_string(r));
      }
    }

    stores.push_back(std::move(store));
  }

  if (in.remaining() != 0) {
    // The only thing allowed after the last relation is the statistics
    // footer; anything else is corruption.
    const char* magic;
    EVIDENT_RETURN_NOT_OK(in.Take(8, "statistics footer magic", &magic));
    if (std::string_view(magic, 8) != kStatisticsFooterMagic) {
      return Status::ParseError("trailing bytes after the last relation");
    }
    for (ColumnStore& store : stores) {
      TableStatistics stats;
      EVIDENT_RETURN_NOT_OK(ReadStatisticsBody(
          in, "statistics footer for relation '" + store.name() + "'",
          store.rows(), store.schema()->size(), &stats));
      store.AdoptStatistics(std::move(stats));
    }
    if (in.remaining() != 0) {
      return Status::ParseError("trailing bytes after the statistics footer");
    }
  }

  for (ColumnStore& store : stores) {
    EVIDENT_RETURN_NOT_OK(catalog.RegisterRelation(
        ExtendedRelation::AdoptColumns(std::move(store))));
  }
  return catalog;
}

Result<Catalog> ReadErelColumnImage(const std::string& data,
                                    const std::string& source) {
  // Checksum trailer sniff: verified and stripped before any parsing, so
  // a bit-rotted file fails the integrity check instead of feeding the
  // parser damaged sections.
  size_t limit = data.size();
  bool checksum_ok = true;
  if (limit >= kChecksumTrailerSize &&
      data.compare(limit - kChecksumTrailerSize, 8, kChecksumTrailerMagic) ==
          0) {
    uint32_t stored = 0;
    for (int i = 0; i < 4; ++i) {
      stored |= static_cast<uint32_t>(
                    static_cast<uint8_t>(data[limit - 4 + i]))
                << (8 * i);
    }
    limit -= kChecksumTrailerSize;
    checksum_ok = stored == Crc32(data.data(), limit);
  }
  ByteReader in(data.data(), limit, source);
  Result<Catalog> result =
      ReadErelColumnImageBody(in, data, limit, checksum_ok);
  if (!result.ok()) return in.Annotate(result.status());
  return result;
}

}  // namespace

std::string WriteErelColumnImage(const Catalog& catalog,
                                 bool include_statistics,
                                 bool include_checksum) {
  // One snapshot for both the relation bodies and the statistics footer:
  // a mid-serialization republish must not produce a torn image.
  const std::shared_ptr<const CatalogSnapshot> snapshot = catalog.Snapshot();
  std::string out;
  out.append(kColumnImageMagic, 6);
  out.append(kColumnImageVersion, 2);

  const std::vector<std::string> domain_names = snapshot->DomainNames();
  std::unordered_map<std::string, uint32_t> domain_index;
  PutU32(&out, static_cast<uint32_t>(domain_names.size()));
  for (const std::string& name : domain_names) {
    domain_index.emplace(name, static_cast<uint32_t>(domain_index.size()));
    const DomainPtr domain = snapshot->GetDomain(name).value();
    PutStr(&out, name);
    PutU32(&out, static_cast<uint32_t>(domain->size()));
    for (const Value& v : domain->values()) PutValue(&out, v);
  }

  PutU32(&out, static_cast<uint32_t>(snapshot->RelationCount()));
  for (const auto& [name, rel] : snapshot->relations()) {
    const ColumnStore& store = rel->columns();
    const SchemaPtr& schema = rel->schema();
    PutStr(&out, name);
    PutU32(&out, static_cast<uint32_t>(schema->size()));
    for (const AttributeDef& attr : schema->attributes()) {
      PutStr(&out, attr.name);
      PutU8(&out, static_cast<uint8_t>(attr.kind));
      PutU32(&out, attr.domain != nullptr
                       ? domain_index.at(attr.domain->name())
                       : kNoDomain);
    }
    const size_t rows = store.rows();
    PutU64(&out, rows);
    for (size_t a = 0; a < schema->size(); ++a) {
      PutU8(&out, static_cast<uint8_t>(store.kind(a)));
      switch (store.kind(a)) {
        case ColumnStore::ColumnKind::kValue: {
          for (const Value& v : store.value_column(a).values) {
            PutValue(&out, v);
          }
          break;
        }
        case ColumnStore::ColumnKind::kEvidence: {
          const ColumnStore::EvidenceColumn& col = store.evidence_column(a);
          PutU64(&out, col.words.size());
          for (uint64_t w : col.words) PutU64(&out, w);
          for (double m : col.masses) PutF64(&out, m);
          for (uint32_t o : col.offsets) PutU32(&out, o);
          break;
        }
        case ColumnStore::ColumnKind::kBoxed: {
          for (const EvidenceSet& es : store.boxed_column(a).sets) {
            const MassFunction::FocalVector& focals = es.mass().focals();
            PutU32(&out, static_cast<uint32_t>(focals.size()));
            for (const auto& [set, mass] : focals) {
              const std::vector<size_t> indices = set.Indices();
              PutU32(&out, static_cast<uint32_t>(indices.size()));
              for (size_t i : indices) {
                PutU32(&out, static_cast<uint32_t>(i));
              }
              PutF64(&out, mass);
            }
          }
          break;
        }
      }
    }
    for (double v : store.sn()) PutF64(&out, v);
    for (double v : store.sp()) PutF64(&out, v);

    std::string arena;
    std::vector<uint32_t> key_offsets;
    key_offsets.reserve(rows + 1);
    key_offsets.push_back(0);
    std::string encoded;
    for (size_t r = 0; r < rows; ++r) {
      store.EncodeKeyOfRow(r, &encoded);
      arena += encoded;
      key_offsets.push_back(static_cast<uint32_t>(arena.size()));
    }
    PutU64(&out, arena.size());
    out += arena;
    for (uint32_t o : key_offsets) PutU32(&out, o);
  }

  if (include_statistics) {
    out.append(kStatisticsFooterMagic, 8);
    for (const auto& [name, rel] : snapshot->relations()) {
      const TableStatistics& stats = rel->columns().statistics();
      PutU64(&out, stats.row_count);
      PutU32(&out, static_cast<uint32_t>(stats.attributes.size()));
      for (const TableStatistics::Attribute& attr : stats.attributes) {
        PutU64(&out, attr.distinct);
        PutU8(&out, attr.exact ? 1 : 0);
      }
      for (uint64_t count : stats.sn_histogram) PutU64(&out, count);
      for (uint64_t count : stats.sp_histogram) PutU64(&out, count);
    }
  }
  if (include_checksum) {
    const uint32_t crc = Crc32(out.data(), out.size());
    out.append(kChecksumTrailerMagic, 8);
    PutU32(&out, crc);
  }
  return out;
}

Result<Catalog> ReadErel(const std::string& text,
                         const std::string& source) {
  if (text.compare(0, 6, kColumnImageMagic) == 0) {
    if (text.size() >= 8 &&
        text.compare(6, 2, kColumnImageVersionV3) == 0) {
      // Owned v3 parse: columns are decoded and every partition verified
      // eagerly, so the catalog outlives `text`.
      return ReadErelColumnImageV3(text.data(), text.size(), source,
                                   /*mapping=*/nullptr);
    }
    return ReadErelColumnImage(text, source);
  }
  Catalog catalog;
  std::istringstream in(text);
  std::string line;
  size_t line_no = 0;

  // Relation being parsed (between "relation" and "end").
  bool in_relation = false;
  std::string rel_name;
  std::vector<AttributeDef> attrs;
  SchemaPtr schema;
  ExtendedRelation relation;

  auto fail = [&](const std::string& msg) {
    return Status::ParseError("line " + std::to_string(line_no) + ": " + msg);
  };

  while (std::getline(in, line)) {
    ++line_no;
    const std::string trimmed = Trim(line);
    if (trimmed.empty() || trimmed[0] == '#') continue;

    if (StartsWith(trimmed, "domain ")) {
      if (in_relation) return fail("'domain' inside relation block");
      const auto colon = trimmed.find(':');
      if (colon == std::string::npos) return fail("missing ':' in domain");
      const std::string name = Trim(trimmed.substr(7, colon - 7));
      std::vector<Value> values;
      for (const std::string& v : Split(trimmed.substr(colon + 1), ',')) {
        values.push_back(Value::Parse(Trim(v)));
      }
      auto domain = Domain::Make(name, std::move(values));
      if (!domain.ok()) return fail(domain.status().message());
      EVIDENT_RETURN_NOT_OK(catalog.RegisterDomain(*domain));
      continue;
    }

    if (StartsWith(trimmed, "relation ")) {
      if (in_relation) return fail("nested relation block");
      in_relation = true;
      rel_name = Trim(trimmed.substr(9));
      if (rel_name.empty()) return fail("relation needs a name");
      attrs.clear();
      schema = nullptr;
      continue;
    }

    if (StartsWith(trimmed, "attr ")) {
      if (!in_relation) return fail("'attr' outside relation block");
      if (schema != nullptr) return fail("'attr' after first 'row'");
      const auto parts = Split(trimmed.substr(5), ' ');
      std::vector<std::string> tokens;
      for (const auto& p : parts) {
        if (!Trim(p).empty()) tokens.push_back(Trim(p));
      }
      if (tokens.size() < 2) return fail("attr needs a name and a kind");
      const std::string& attr_name = tokens[0];
      const std::string& kind = tokens[1];
      if (kind == "key") {
        attrs.push_back(AttributeDef::Key(attr_name));
      } else if (kind == "definite") {
        attrs.push_back(AttributeDef::Definite(attr_name));
      } else if (kind == "uncertain") {
        if (tokens.size() != 3) return fail("uncertain attr needs a domain");
        auto domain = catalog.GetDomain(tokens[2]);
        if (!domain.ok()) return fail(domain.status().message());
        attrs.push_back(AttributeDef::Uncertain(attr_name, *domain));
      } else {
        return fail("unknown attribute kind '" + kind + "'");
      }
      continue;
    }

    if (StartsWith(trimmed, "row ") || trimmed == "row") {
      if (!in_relation) return fail("'row' outside relation block");
      if (schema == nullptr) {
        auto made = RelationSchema::Make(attrs);
        if (!made.ok()) return fail(made.status().message());
        schema = *made;
        relation = ExtendedRelation(rel_name, schema);
      }
      const auto fields = SplitTopLevel(trimmed.substr(4), '|');
      if (fields.size() != schema->size() + 1) {
        return fail("row has " + std::to_string(fields.size()) +
                    " fields, expected " + std::to_string(schema->size() + 1));
      }
      ExtendedTuple t;
      t.cells.resize(schema->size());
      for (size_t c = 0; c < schema->size(); ++c) {
        const std::string field = Trim(fields[c]);
        const AttributeDef& attr = schema->attribute(c);
        if (attr.is_uncertain()) {
          auto es = ParseEvidenceLiteral(attr.domain, field);
          if (!es.ok()) return fail(es.status().message());
          t.cells[c] = std::move(es).value();
        } else {
          t.cells[c] = Value::Parse(field);
        }
      }
      auto membership = ParseSupportPair(Trim(fields.back()));
      if (!membership.ok()) return fail(membership.status().message());
      t.membership = *membership;
      EVIDENT_RETURN_NOT_OK(relation.Insert(std::move(t)));
      continue;
    }

    if (trimmed == "end") {
      if (!in_relation) return fail("'end' outside relation block");
      if (schema == nullptr) {
        // Relation with no rows: build the schema now.
        auto made = RelationSchema::Make(attrs);
        if (!made.ok()) return fail(made.status().message());
        schema = *made;
        relation = ExtendedRelation(rel_name, schema);
      }
      EVIDENT_RETURN_NOT_OK(catalog.RegisterRelation(std::move(relation)));
      in_relation = false;
      schema = nullptr;
      continue;
    }

    return fail("unrecognized line '" + trimmed + "'");
  }
  if (in_relation) {
    return Status::ParseError("unterminated relation block '" + rel_name +
                              "'");
  }
  return catalog;
}

namespace {

/// Chunk size for the file write/read loops: large enough that syscall
/// count is negligible, small enough that a short write retries promptly.
constexpr size_t kFileChunkBytes = 256 * 1024;

/// One chunked write with EINTR retry and the storage fault-injection
/// hooks threaded through; `data` must be fully written on OK.
Status WriteAll(int fd, const std::string& data) {
  size_t off = 0;
  while (off < data.size()) {
    const size_t chunk = std::min(data.size() - off, kFileChunkBytes);
    ssize_t n;
    if (fault::ShouldFail(fault::Site::kWrite)) {
      n = -1;
      errno = EIO;
    } else if (fault::ShouldFail(fault::Site::kEintr)) {
      n = -1;
      errno = EINTR;
    } else if (fault::ShouldFail(fault::Site::kShortWrite)) {
      // A short write is not an error — the loop must pick up the rest.
      n = ::write(fd, data.data() + off, chunk > 1 ? chunk / 2 : chunk);
    } else {
      n = ::write(fd, data.data() + off, chunk);
    }
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::ExecError("write error");
    }
    off += static_cast<size_t>(n);
  }
  return Status::OK();
}

}  // namespace

namespace {

/// Crash-safe commit of a serialized catalog: write path.tmp, fsync,
/// then atomically rename over path. Readers of `path` see the old file
/// or the new file, never a torn one; any failure removes the temporary
/// and leaves `path` alone.
Status CommitErelBlob(const std::string& blob, const std::string& path) {
  const std::string tmp = path + ".tmp";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    return Status::InvalidArgument("cannot open '" + path + "' for writing");
  }
  auto fail = [&](const char* step, bool fd_open) {
    if (fd_open) ::close(fd);
    ::unlink(tmp.c_str());
    return Status::ExecError("failed writing '" + path + "': " +
                             std::string(step));
  };
  const Status written = WriteAll(fd, blob);
  if (!written.ok()) return fail(written.message().c_str(), true);
  if (fault::ShouldFail(fault::Site::kFlush) || ::fsync(fd) != 0) {
    return fail("fsync error", true);
  }
  if (::close(fd) != 0) return fail("close error", false);
  if (fault::ShouldFail(fault::Site::kRename) ||
      ::rename(tmp.c_str(), path.c_str()) != 0) {
    return fail("rename error", false);
  }
  return Status::OK();
}

/// A mapped catalog defers its per-partition semantic checks; saving
/// reads every byte of every relation, so drive them all first — a save
/// of a corrupt mapped image must fail with the load-style diagnosis,
/// not silently persist garbage.
Status VerifyBeforeSave(const Catalog& catalog) {
  for (const auto& [name, rel] : catalog.Snapshot()->relations()) {
    if (!rel->columnar_mode()) continue;
    EVIDENT_RETURN_NOT_OK(rel->columns().EnsureAllVerified());
  }
  return Status::OK();
}

Status SaveErelFileImpl(const Catalog& catalog, const std::string& path,
                        ErelFormat format) {
  EVIDENT_RETURN_NOT_OK(VerifyBeforeSave(catalog));
  bool column_image = format == ErelFormat::kColumnImage;
  if (format == ErelFormat::kAuto) {
    // Saving must not force row materialization: any columnar-mode
    // relation routes the whole catalog through the column image.
    for (const auto& [name, rel] : catalog.Snapshot()->relations()) {
      if (rel->columnar_mode()) {
        column_image = true;
        break;
      }
    }
  }
  // Serialize fully in memory first: a failure here leaves no file-system
  // trace at all, and the write loop never blocks on serialization.
  const std::string blob =
      column_image ? WriteErelColumnImage(catalog,
                                          /*include_statistics=*/true,
                                          /*include_checksum=*/true)
                   : WriteErel(catalog);
  return CommitErelBlob(blob, path);
}

}  // namespace

Status SaveErelFile(const Catalog& catalog, const std::string& path,
                    ErelFormat format) {
  // The only allocations between opening and renaming the temporary are
  // error-message construction on a failure path (after the injector has
  // disarmed), so catching here can leak neither a descriptor nor the
  // temporary file.
  try {
    return SaveErelFileImpl(catalog, path, format);
  } catch (const std::bad_alloc&) {
    return Status::ExecError("out of memory saving '" + path + "'");
  }
}

Status SaveErelFile(const Catalog& catalog, const std::string& path,
                    const PartitionSpec& partitioning,
                    bool include_statistics) {
  try {
    EVIDENT_RETURN_NOT_OK(VerifyBeforeSave(catalog));
    return CommitErelBlob(
        WriteErelColumnImageV3(catalog, partitioning, include_statistics),
        path);
  } catch (const std::bad_alloc&) {
    return Status::ExecError("out of memory saving '" + path + "'");
  }
}

namespace {

/// Fills the caller's LoadInfo from a loaded catalog: relation count and
/// total partition count (a relation without partition metadata — any
/// v1/v2 load — counts as one).
void FillLoadInfo(LoadInfo* info, const Catalog& catalog, bool mapped,
                  const char* format) {
  if (info == nullptr) return;
  info->mapped = mapped;
  info->format = format;
  info->relations = 0;
  info->partitions = 0;
  for (const auto& [name, rel] : catalog.Snapshot()->relations()) {
    ++info->relations;
    const size_t parts = rel->columns().partitions().size();
    info->partitions += parts == 0 ? 1 : parts;
  }
}

Result<Catalog> LoadErelFileImpl(const std::string& path,
                                 LoadOptions::Map map, LoadInfo* info) {
  if (map != LoadOptions::Map::kNever) {
    Result<std::shared_ptr<MappedFile>> mapped = MappedFile::Open(path);
    if (mapped.ok()) {
      const std::shared_ptr<MappedFile>& m = *mapped;
      if (m->size() >= 8 &&
          std::memcmp(m->data(), "EVCIMG03", 8) == 0) {
        Result<Catalog> catalog =
            ReadErelColumnImageV3(m->data(), m->size(), path, m);
        if (catalog.ok()) {
          FillLoadInfo(info, *catalog, /*mapped=*/true, "column-image-v3");
        }
        return catalog;
      }
      if (map == LoadOptions::Map::kAlways) {
        return Status::ExecError("cannot map '" + path +
                                 "': not an EVCIMG03 column image");
      }
      // v1/v2 file: the mapping is useless (those layouts carry no
      // alignment padding) — fall through to the copied path.
    } else if (map == LoadOptions::Map::kAlways) {
      return mapped.status();
    }
    // kAuto maps best-effort: an unmappable file (missing, not regular,
    // empty) falls back to the read loop, which reports its own error.
  }

  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    return Status::NotFound("cannot open '" + path + "'");
  }
  std::string data;
  try {
    std::vector<char> buf(kFileChunkBytes);
    for (;;) {
      ssize_t n;
      if (fault::ShouldFail(fault::Site::kRead)) {
        n = -1;
        errno = EIO;
      } else if (fault::ShouldFail(fault::Site::kEintr)) {
        n = -1;
        errno = EINTR;
      } else if (fault::ShouldFail(fault::Site::kShortRead)) {
        n = 0;  // spurious EOF: the parser sees a truncated image
      } else {
        n = ::read(fd, buf.data(), buf.size());
      }
      if (n < 0) {
        if (errno == EINTR) continue;
        ::close(fd);
        return Status::ExecError("failed reading '" + path + "'");
      }
      if (n == 0) break;
      data.append(buf.data(), static_cast<size_t>(n));
    }
  } catch (const std::bad_alloc&) {
    ::close(fd);
    return Status::ExecError("out of memory loading '" + path + "'");
  }
  ::close(fd);
  Result<Catalog> catalog = ReadErel(data, path);
  if (catalog.ok() && info != nullptr) {
    const char* format = "text";
    if (data.compare(0, 6, kColumnImageMagic) == 0) {
      format = data.compare(6, 2, kColumnImageVersionV3) == 0
                   ? "column-image-v3"
                   : "column-image-v2";
    }
    FillLoadInfo(info, *catalog, /*mapped=*/false, format);
  }
  return catalog;
}

}  // namespace

Result<Catalog> LoadErelFile(const std::string& path) {
  return LoadErelFile(path, LoadOptions{}, nullptr);
}

Result<Catalog> LoadErelFile(const std::string& path,
                             const LoadOptions& options, LoadInfo* info) {
  if (info != nullptr) *info = LoadInfo{};
  // One guard over the whole load: every allocation (mapping bookkeeping,
  // error-message strings, the parse itself) fails as a clean Status. The
  // read loop keeps its own inner guard — it must close the fd first.
  try {
    return LoadErelFileImpl(path, options.map, info);
  } catch (const std::bad_alloc&) {
    return Status::ExecError("out of memory loading '" + path + "'");
  }
}

}  // namespace evident
