// The EVCIMG03 column image: writer, structural reader and per-partition
// semantic verifier. The layout is documented bytes-exactly in
// erel_format.h.
//
// The reader splits validation in two. Everything needed for memory
// safety and for trusting the image's metadata is checked eagerly on
// open — magic, counts, every chunk offset/size, focal-offset array,
// key-arena offset and index slot is bounds-checked, so no access
// through the loaded store can read out of bounds, and the header CRC
// proves the domains, schemas, manifests (zone maps included) and
// statistics are the ones the writer stored, so a scan can prune on a
// zone map it never verified row by row. The O(bytes) semantic checks
// (chunk CRCs, mass-function invariants, CWA_ER, zone containment,
// key-arena/index agreement) run per partition through one shared
// VerifyRelationPartition: eagerly (in partition order) for a copied
// load, lazily on first touch for a mapped load — so both modes report
// byte-identical messages for the same corruption, and a mapped open
// stays O(partitions), not O(bytes).

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <numeric>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/math_util.h"
#include "common/value.h"
#include "core/column_store.h"
#include "core/extended_relation.h"
#include "core/key_index.h"
#include "storage/erel_format.h"
#include "storage/erel_v3.h"
#include "storage/mmap_file.h"

namespace evident {

// Numeric arrays are stored as raw host-order bytes so a mapped file can
// lend them to ColumnSpans; the format is defined as little-endian.
static_assert(std::endian::native == std::endian::little,
              "EVCIMG03 images are little-endian");

namespace {

constexpr char kV3Magic[] = "EVCIMG03";
constexpr char kStatisticsMagic[] = "STATS001";
constexpr uint32_t kNoDomain = std::numeric_limits<uint32_t>::max();

/// IEEE CRC-32 (the zlib/PNG polynomial 0xEDB88320, reflected, init and
/// final xor 0xFFFFFFFF). Passing the CRC of a prefix as `crc` continues
/// it: Crc32(b, nb, Crc32(a, na)) is the CRC of a followed by b.
uint32_t Crc32(const char* data, size_t n, uint32_t crc = 0) {
  static const std::array<uint32_t, 256> kTable = [] {
    std::array<uint32_t, 256> t{};
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) != 0 ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      t[i] = c;
    }
    return t;
  }();
  crc ^= 0xFFFFFFFFu;
  for (size_t i = 0; i < n; ++i) {
    crc = kTable[(crc ^ static_cast<uint8_t>(data[i])) & 0xffu] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

/// The header CRC of an image: CRC-32 over every byte outside the chunk
/// areas and the key arrays, in file order. Writer and reader drive it
/// identically as they walk the image — Cover() folds in the bytes since
/// the previous call, Skip() steps over an excluded section — so both
/// checksum the same byte stream.
class HeaderChecksum {
 public:
  void Cover(const char* data, size_t end) {
    crc_ = Crc32(data + pos_, end - pos_, crc_);
    pos_ = end;
  }
  void Skip(size_t end) { pos_ = end; }
  uint32_t value() const { return crc_; }

 private:
  uint32_t crc_ = 0;
  size_t pos_ = 0;
};

void PutU8(std::string* out, uint8_t v) {
  out->push_back(static_cast<char>(v));
}

void PutU32(std::string* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

void PutU64(std::string* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

void PutF64(std::string* out, double v) {
  PutU64(out, std::bit_cast<uint64_t>(v));
}

void PutStr(std::string* out, const std::string& s) {
  PutU32(out, static_cast<uint32_t>(s.size()));
  out->append(s);
}

void PutValue(std::string* out, const Value& v) {
  PutU8(out, static_cast<uint8_t>(v.kind()));
  switch (v.kind()) {
    case Value::Kind::kInt:
      PutU64(out, static_cast<uint64_t>(v.int_value()));
      break;
    case Value::Kind::kReal:
      PutF64(out, v.real_value());
      break;
    case Value::Kind::kString:
      PutStr(out, v.string_value());
      break;
  }
}

/// Bounds-checked cursor over a serialized blob. Every read names what
/// it was reading so truncation errors point at the damaged section;
/// the reader annotates any failure with the source (file path) and the
/// cursor position via Annotate().
class ByteReader {
 public:
  /// Reads `data[0, limit)`; `source` names where the bytes came from
  /// (a file path, or "<memory>").
  ByteReader(const char* data, size_t limit, std::string source)
      : data_(data), limit_(limit), source_(std::move(source)) {}

  size_t remaining() const { return limit_ - pos_; }
  size_t pos() const { return pos_; }

  /// Stamps a failure with the source and the byte position the reader
  /// had reached — the section that failed ends at (or just before)
  /// that offset.
  Status Annotate(const Status& status) const {
    if (status.ok()) return status;
    return Status(status.code(), source_ + ": " + status.message() +
                                     " [near byte " + std::to_string(pos_) +
                                     "]");
  }

  Status Take(size_t n, const char* what, const char** bytes) {
    if (remaining() < n) {
      return Status::ParseError(
          std::string("column-image file truncated reading ") + what);
    }
    *bytes = data_ + pos_;
    pos_ += n;
    return Status::OK();
  }

  /// Consumes the zero-or-more padding bytes before the next 8-aligned
  /// file offset (the alignment the mapped loader's borrowed numeric
  /// spans rely on).
  Status Align8(const char* what) {
    const size_t pad = (8 - pos_ % 8) % 8;
    const char* ignored;
    return Take(pad, what, &ignored);
  }

  Result<uint8_t> U8(const char* what) {
    const char* p;
    EVIDENT_RETURN_NOT_OK(Take(1, what, &p));
    return static_cast<uint8_t>(*p);
  }

  Result<uint32_t> U32(const char* what) {
    const char* p;
    EVIDENT_RETURN_NOT_OK(Take(4, what, &p));
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<uint32_t>(static_cast<uint8_t>(p[i])) << (8 * i);
    }
    return v;
  }

  Result<uint64_t> U64(const char* what) {
    const char* p;
    EVIDENT_RETURN_NOT_OK(Take(8, what, &p));
    uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<uint64_t>(static_cast<uint8_t>(p[i])) << (8 * i);
    }
    return v;
  }

  Result<double> F64(const char* what) {
    EVIDENT_ASSIGN_OR_RETURN(uint64_t bits, U64(what));
    return std::bit_cast<double>(bits);
  }

  Result<std::string> Str(const char* what) {
    EVIDENT_ASSIGN_OR_RETURN(uint32_t n, U32(what));
    const char* p;
    EVIDENT_RETURN_NOT_OK(Take(n, what, &p));
    return std::string(p, n);
  }

  Result<Value> ReadValue(const char* what) {
    EVIDENT_ASSIGN_OR_RETURN(uint8_t kind, U8(what));
    switch (kind) {
      case 0: {
        EVIDENT_ASSIGN_OR_RETURN(uint64_t v, U64(what));
        return Value(static_cast<int64_t>(v));
      }
      case 1: {
        EVIDENT_ASSIGN_OR_RETURN(double v, F64(what));
        return Value(v);
      }
      case 2: {
        EVIDENT_ASSIGN_OR_RETURN(std::string v, Str(what));
        return Value(std::move(v));
      }
      default:
        return Status::ParseError("unknown value kind tag " +
                                  std::to_string(kind) + " in " + what);
    }
  }

  /// Rejects an element count whose minimal serialized size already
  /// exceeds the remaining bytes — a corrupt count must fail here, not
  /// in a multi-gigabyte vector reserve.
  Status CheckCount(uint64_t count, size_t min_bytes_each, const char* what) {
    if (min_bytes_each != 0 && count > remaining() / min_bytes_each) {
      return Status::ParseError(std::string("implausible ") + what +
                                " count " + std::to_string(count) +
                                " for the remaining file size");
    }
    return Status::OK();
  }

 private:
  const char* data_;
  size_t limit_;
  size_t pos_ = 0;
  std::string source_;
};

/// Validates rows [begin_row, end_row) of one packed evidence column:
/// non-empty per-row spans of strictly ascending nonzero in-frame words,
/// masses in (0, 1], per-row sums within tolerance of 1 — the invariants
/// MassFunction::Validate enforces, checked straight on the spans of one
/// partition's row range.
Status ValidateEvidenceRows(const std::string& attr_name, size_t universe,
                            const ColumnStore::EvidenceColumn& col,
                            size_t begin_row, size_t end_row) {
  const uint64_t frame_mask =
      universe >= 64 ? ~uint64_t{0} : (uint64_t{1} << universe) - 1;
  auto fail = [&](size_t row, const std::string& msg) {
    return Status::ParseError("attribute '" + attr_name + "' row " +
                              std::to_string(row) + ": " + msg);
  };
  for (size_t r = begin_row; r < end_row; ++r) {
    const uint32_t first = col.offsets[r];
    const uint32_t last = col.offsets[r + 1];
    if (last < first || last > col.words.size()) {
      return fail(r, "focal offsets not monotone within the span arena");
    }
    if (first == last) return fail(r, "empty mass function");
    double sum = 0.0;
    uint64_t prev = 0;
    for (uint32_t k = first; k < last; ++k) {
      const uint64_t w = col.words[k];
      if (w == 0) return fail(r, "mass on the empty set");
      if ((w & ~frame_mask) != 0) return fail(r, "focal word outside frame");
      if (k > first && w <= prev) {
        return fail(r, "focal words not strictly ascending");
      }
      prev = w;
      const double m = col.masses[k];
      if (!(m > 0.0) || m > 1.0 + kMassEpsilon) {
        return fail(r, "focal mass outside (0, 1]");
      }
      sum += m;
    }
    // Same tolerance as MassFunction::Validate: relations built from
    // rounded text literals carry sums within 1e-6 of 1, not 1e-9.
    if (!ApproxEqual(sum, 1.0, 1e-6)) {
      return fail(r, "focal masses sum to " + std::to_string(sum) +
                         ", expected 1");
    }
  }
  return Status::OK();
}

/// Serializes a TableStatistics as a STATS001 body (no magic): row
/// count, per-attribute distinct + exact flag, the two 16-bin support
/// histograms.
void WriteStatisticsBody(std::string* out, const TableStatistics& s) {
  PutU64(out, s.row_count);
  PutU32(out, static_cast<uint32_t>(s.attributes.size()));
  for (const TableStatistics::Attribute& attr : s.attributes) {
    PutU64(out, attr.distinct);
    PutU8(out, attr.exact ? 1 : 0);
  }
  for (uint64_t count : s.sn_histogram) PutU64(out, count);
  for (uint64_t count : s.sp_histogram) PutU64(out, count);
}

/// Parses and structurally validates a STATS001 body written by
/// WriteStatisticsBody; `context` prefixes every error (e.g.
/// "statistics for relation 'x'").
Status ReadStatisticsBody(ByteReader& in, const std::string& context,
                          uint64_t expected_rows, size_t expected_attrs,
                          TableStatistics* stats) {
  auto fail = [&](const std::string& msg) {
    return Status::ParseError(context + ": " + msg);
  };
  EVIDENT_ASSIGN_OR_RETURN(stats->row_count, in.U64("statistics row count"));
  if (stats->row_count != expected_rows) {
    return fail("row count disagrees with the relation");
  }
  EVIDENT_ASSIGN_OR_RETURN(uint32_t attr_count,
                           in.U32("statistics attribute count"));
  if (attr_count != expected_attrs) {
    return fail("attribute count disagrees with the schema");
  }
  stats->attributes.reserve(attr_count);
  for (uint32_t a = 0; a < attr_count; ++a) {
    TableStatistics::Attribute attr;
    EVIDENT_ASSIGN_OR_RETURN(attr.distinct,
                             in.U64("statistics distinct count"));
    if (attr.distinct > stats->row_count) {
      return fail("distinct count exceeds the row count");
    }
    EVIDENT_ASSIGN_OR_RETURN(uint8_t exact, in.U8("statistics exact flag"));
    if (exact > 1) return fail("exact flag is not 0 or 1");
    attr.exact = exact != 0;
    stats->attributes.push_back(attr);
  }
  for (std::vector<uint64_t>* hist :
       {&stats->sn_histogram, &stats->sp_histogram}) {
    hist->reserve(TableStatistics::kHistogramBins);
    uint64_t sum = 0;
    for (size_t b = 0; b < TableStatistics::kHistogramBins; ++b) {
      EVIDENT_ASSIGN_OR_RETURN(uint64_t count,
                               in.U64("statistics histogram bin"));
      if (count > stats->row_count - sum) {
        return fail("support histogram does not sum to the row count");
      }
      sum += count;
      hist->push_back(count);
    }
    if (sum != stats->row_count) {
      return fail("support histogram does not sum to the row count");
    }
  }
  return Status::OK();
}


// ---------------------------------------------------------------------------
// Writer.

/// Appends zero bytes until `out` ends on an 8-byte boundary. Valid for
/// whole-file buffers and for chunk buffers alike: chunks are spliced in
/// at 8-aligned file offsets, so chunk-local and file alignment agree.
void PadTo8(std::string* out) {
  while (out->size() % 8 != 0) out->push_back('\0');
}

/// The zone map of one partition, gathered while its chunk serializes.
struct ZoneEntry {
  double sn_min = 1.0, sn_max = 0.0;
  double sp_min = 1.0, sp_max = 0.0;
  std::vector<ColumnStore::ValueZone> values;
};

/// Partition assignment: the list of source-store row ids per partition,
/// in the order they are written (partition-major global row order).
std::vector<std::vector<uint32_t>> AssignPartitions(
    const ColumnStore& store, PartitionSpec::Scheme scheme, uint32_t count) {
  const size_t rows = store.rows();
  std::vector<std::vector<uint32_t>> groups;
  if (scheme == PartitionSpec::Scheme::kNone || count <= 1 || rows == 0) {
    groups.resize(1);
    groups[0].resize(rows);
    std::iota(groups[0].begin(), groups[0].end(), 0u);
    return groups;
  }
  groups.resize(count);
  if (scheme == PartitionSpec::Scheme::kHash) {
    const EncodedKeys& keys = store.encoded_keys();
    for (size_t r = 0; r < rows; ++r) {
      groups[StableKeyHash(keys.key(r)) % count].push_back(
          static_cast<uint32_t>(r));
    }
    return groups;
  }
  // Key range: order rows by their key-column values (a total order —
  // keys are unique), then cut into equal-count ranges so the zone maps
  // carry disjoint key intervals.
  std::vector<uint32_t> order(rows);
  std::iota(order.begin(), order.end(), 0u);
  const std::vector<size_t>& key_cols = store.schema()->key_indices();
  std::stable_sort(order.begin(), order.end(),
                   [&](uint32_t a, uint32_t b) {
                     for (size_t c : key_cols) {
                       const std::vector<Value>& values =
                           store.value_column(c).values;
                       if (values[a] < values[b]) return true;
                       if (values[b] < values[a]) return false;
                     }
                     return false;
                   });
  for (size_t i = 0; i < rows; ++i) {
    groups[i * count / rows].push_back(order[i]);
  }
  return groups;
}

/// Serializes one partition's sub-store as a chunk (columns, sn/sp,
/// statistics block, trailing pad) and fills its zone map.
void AppendChunk(const ColumnStore& sub, std::string* chunk,
                 ZoneEntry* zone) {
  const SchemaPtr& schema = sub.schema();
  const size_t rows = sub.rows();
  zone->values.resize(schema->size());
  for (size_t a = 0; a < schema->size(); ++a) {
    switch (sub.kind(a)) {
      case ColumnStore::ColumnKind::kValue: {
        const std::vector<Value>& values = sub.value_column(a).values;
        bool all_int = rows > 0, all_real = rows > 0;
        for (const Value& v : values) {
          all_int = all_int && v.kind() == Value::Kind::kInt;
          all_real = all_real && v.kind() == Value::Kind::kReal;
        }
        if (all_int) {
          PutU8(chunk, 1);
          PadTo8(chunk);
          for (const Value& v : values) {
            PutU64(chunk, static_cast<uint64_t>(v.int_value()));
          }
        } else if (all_real) {
          PutU8(chunk, 2);
          PadTo8(chunk);
          for (const Value& v : values) PutF64(chunk, v.real_value());
        } else {
          PutU8(chunk, 0);
          for (const Value& v : values) PutValue(chunk, v);
        }
        if (rows > 0) {
          ColumnStore::ValueZone& vz = (*zone).values[a];
          vz.has = true;
          vz.min = values[0];
          vz.max = values[0];
          for (const Value& v : values) {
            if (v < vz.min) vz.min = v;
            if (vz.max < v) vz.max = v;
          }
        }
        break;
      }
      case ColumnStore::ColumnKind::kEvidence: {
        const ColumnStore::EvidenceColumn& col = sub.evidence_column(a);
        PutU8(chunk, 3);
        PutU64(chunk, col.words.size());
        PadTo8(chunk);
        for (uint64_t w : col.words) PutU64(chunk, w);
        for (double m : col.masses) PutF64(chunk, m);
        for (uint32_t o : col.offsets) PutU32(chunk, o);
        break;
      }
      case ColumnStore::ColumnKind::kBoxed: {
        PutU8(chunk, 4);
        for (const EvidenceSet& es : sub.boxed_column(a).sets) {
          const MassFunction::FocalVector& focals = es.mass().focals();
          PutU32(chunk, static_cast<uint32_t>(focals.size()));
          for (const auto& [set, mass] : focals) {
            const std::vector<size_t> indices = set.Indices();
            PutU32(chunk, static_cast<uint32_t>(indices.size()));
            for (size_t i : indices) PutU32(chunk, static_cast<uint32_t>(i));
            PutF64(chunk, mass);
          }
        }
        break;
      }
    }
  }
  PadTo8(chunk);
  for (double v : sub.sn()) PutF64(chunk, v);
  for (double v : sub.sp()) PutF64(chunk, v);
  for (size_t r = 0; r < rows; ++r) {
    zone->sn_min = std::min(zone->sn_min, sub.sn()[r]);
    zone->sn_max = std::max(zone->sn_max, sub.sn()[r]);
    zone->sp_min = std::min(zone->sp_min, sub.sp()[r]);
    zone->sp_max = std::max(zone->sp_max, sub.sp()[r]);
  }
  chunk->append(kStatisticsMagic, 8);
  WriteStatisticsBody(chunk, sub.statistics());
  PadTo8(chunk);
}

}  // namespace

std::string WriteErelColumnImageV3(const Catalog& catalog,
                                   const PartitionSpec& partitioning) {
  // One snapshot for the whole image: a mid-serialization republish
  // must not produce a torn image.
  const std::shared_ptr<const CatalogSnapshot> snapshot = catalog.Snapshot();
  std::string out;
  HeaderChecksum header_crc;
  out.append(kV3Magic, 8);

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

    const std::vector<std::vector<uint32_t>> groups =
        AssignPartitions(store, partitioning.scheme,
                         std::max<uint32_t>(1, partitioning.partitions));
    // A single partition is always stored as a monolithic image,
    // whatever scheme was requested (empty relation, partitions == 1).
    PutU8(&out, groups.size() == 1
                    ? 0
                    : static_cast<uint8_t>(partitioning.scheme));
    PutU32(&out, static_cast<uint32_t>(groups.size()));

    // Build every chunk (and its zone map) first: the manifest that
    // precedes the chunk area carries their offsets, sizes and CRCs.
    std::vector<size_t> identity(schema->size());
    std::iota(identity.begin(), identity.end(), size_t{0});
    std::vector<std::string> chunks(groups.size());
    std::vector<ZoneEntry> zones(groups.size());
    for (size_t p = 0; p < groups.size(); ++p) {
      std::vector<SupportPair> memberships;
      memberships.reserve(groups[p].size());
      for (uint32_t r : groups[p]) memberships.push_back(store.membership(r));
      const ColumnStore sub = ColumnStore::SpliceRows(
          store, schema, store.name(), identity, groups[p], memberships);
      AppendChunk(sub, &chunks[p], &zones[p]);
    }

    uint64_t offset = 0;
    for (size_t p = 0; p < groups.size(); ++p) {
      PutU64(&out, groups[p].size());
      PutU64(&out, offset);
      PutU64(&out, chunks[p].size());
      PutU32(&out, Crc32(chunks[p].data(), chunks[p].size()));
      offset += chunks[p].size();
      PutF64(&out, zones[p].sn_min);
      PutF64(&out, zones[p].sn_max);
      PutF64(&out, zones[p].sp_min);
      PutF64(&out, zones[p].sp_max);
      for (const ColumnStore::ValueZone& vz : zones[p].values) {
        PutU8(&out, vz.has ? 1 : 0);
        if (vz.has) {
          PutValue(&out, vz.min);
          PutValue(&out, vz.max);
        }
      }
    }
    PadTo8(&out);
    header_crc.Cover(out.data(), out.size());
    for (const std::string& chunk : chunks) out += chunk;
    header_crc.Skip(out.size());

    // Trailer: keys, the persisted index and the relation statistics,
    // all in the file's partition-major global row order.
    // Every row's key goes to the arena; a duplicate (a corrupt store)
    // is left out of the index, so the loader rejects the image.
    EncodedKeys keys;
    keys.offsets.reserve(rows + 1);
    EncodedKeyIndex index;
    index.Reserve(rows);
    std::string encoded;
    for (const std::vector<uint32_t>& group : groups) {
      for (uint32_t r : group) {
        store.EncodeKeyOfRow(r, &encoded);
        index.Insert(keys, encoded);
        keys.Append(encoded);
      }
    }
    PutU64(&out, keys.arena.size());
    PutU64(&out, index.capacity());
    header_crc.Cover(out.data(), out.size());
    out += keys.arena;
    for (uint32_t o : keys.offsets) PutU32(&out, o);
    for (uint64_t h : index.hashes()) PutU64(&out, h);
    for (uint32_t s : index.slots()) PutU32(&out, s);
    header_crc.Skip(out.size());
    out.append(kStatisticsMagic, 8);
    WriteStatisticsBody(&out, store.statistics());
  }
  header_crc.Cover(out.data(), out.size());
  PutU32(&out, header_crc.value());
  return out;
}

// ---------------------------------------------------------------------------
// Reader.

namespace {

struct ChunkMeta {
  uint64_t rows = 0;
  uint64_t offset = 0;
  uint64_t size = 0;
  uint32_t crc = 0;
};

/// Everything the per-partition verifier needs, captured once per
/// relation. For a mapped load `mapping` keeps the bytes alive for as
/// long as a partition may still be verified; for a copied load the
/// verifier runs eagerly inside the read (while `base` — the caller's
/// buffer — is still valid) and is dropped before the catalog escapes.
struct VerifyContext {
  std::string source;
  std::string relation;
  std::shared_ptr<MappedFile> mapping;
  const char* base = nullptr;
  size_t chunk_area = 0;  // absolute offset of the chunk area
  std::vector<ChunkMeta> chunks;
};

/// The deferred half of the load: the semantic checks over one
/// partition's rows. Identical for mapped and copied loads — the first
/// error either mode reports for a given file is the same string.
Status VerifyRelationPartition(const ColumnStore& store, size_t p,
                               const VerifyContext& ctx) {
  auto wrap = [&](const std::string& msg) {
    return Status::ParseError(ctx.source + ": relation '" + ctx.relation +
                              "' partition " + std::to_string(p) + ": " + msg);
  };
  auto wrap_row = [&](size_t row, const std::string& msg) {
    return wrap("row " + std::to_string(row) + ": " + msg);
  };
  const ColumnStore::PartitionZone& zone = store.partitions()[p];
  const ChunkMeta& chunk = ctx.chunks[p];
  if (Crc32(ctx.base + ctx.chunk_area + chunk.offset,
            static_cast<size_t>(chunk.size)) != chunk.crc) {
    return wrap("chunk checksum mismatch: the file is corrupt");
  }
  const SchemaPtr& schema = store.schema();
  for (size_t a = 0; a < schema->size(); ++a) {
    if (store.kind(a) != ColumnStore::ColumnKind::kEvidence) continue;
    const ColumnStore::EvidenceColumn& col = store.evidence_column(a);
    const Status valid =
        ValidateEvidenceRows(schema->attribute(a).name, col.universe, col,
                             zone.begin_row, zone.end_row);
    if (!valid.ok()) return wrap(valid.message());
  }
  const ColumnSpan<double>& sn = store.sn();
  const ColumnSpan<double>& sp = store.sp();
  for (size_t r = zone.begin_row; r < zone.end_row; ++r) {
    const SupportPair membership{sn[r], sp[r]};
    const Status valid = membership.Validate();
    if (!valid.ok()) return wrap_row(r, valid.message());
    if (!membership.HasPositiveSupport()) {
      return wrap_row(r, "CWA_ER violation: stored tuples must have sn > 0");
    }
    if (sn[r] < zone.sn_min || sn[r] > zone.sn_max || sp[r] < zone.sp_min ||
        sp[r] > zone.sp_max) {
      return wrap_row(r, "support outside the partition zone map");
    }
  }
  for (size_t a = 0; a < schema->size(); ++a) {
    if (store.kind(a) != ColumnStore::ColumnKind::kValue) continue;
    const ColumnStore::ValueZone& vz = zone.values[a];
    if (!vz.has) continue;
    const std::vector<Value>& values = store.value_column(a).values;
    for (size_t r = zone.begin_row; r < zone.end_row; ++r) {
      if (values[r] < vz.min || vz.max < values[r]) {
        return wrap_row(r, "value outside the partition zone map");
      }
    }
  }
  // Keys: the arena must reproduce the canonical encodings of the key
  // value columns, and the persisted index — read in place, beside the
  // arena it indexes — must map every key back to its own row, which
  // also proves uniqueness (two rows with equal keys cannot both win
  // their probe).
  const EncodedKeys& keys = store.encoded_keys();
  const EncodedKeyIndex& index = store.key_index();
  std::string encoded;
  for (size_t r = zone.begin_row; r < zone.end_row; ++r) {
    store.EncodeKeyOfRow(r, &encoded);
    if (keys.key(r) != encoded) {
      return wrap_row(r, "key arena disagrees with the key value columns");
    }
    if (index.hashes()[r] != StableKeyHash(encoded)) {
      return wrap_row(r, "key index hash disagrees with the key");
    }
    const uint32_t found = index.Find(keys, encoded);
    if (found == EncodedKeyIndex::kNoRow) {
      return wrap_row(r, "key index does not reach the row");
    }
    if (found != r) return wrap_row(r, "duplicate key");
  }
  return Status::OK();
}

/// Bulk little-endian array append (alignment-safe on any source).
template <typename T>
void AppendRaw(const char* bytes, size_t count, std::vector<T>* dst) {
  if (count == 0) return;  // `bytes` may be null for an empty section
  const size_t old = dst->size();
  dst->resize(old + count);
  std::memcpy(dst->data() + old, bytes, count * sizeof(T));
}

struct ParsedRelation {
  ColumnStore store;
  std::shared_ptr<VerifyContext> ctx;
};

/// Owned-side accumulator for one packed evidence column, stitched
/// across chunks with rebased offsets.
struct EvidenceAccumulator {
  std::vector<uint64_t> words;
  std::vector<double> masses;
  std::vector<uint32_t> offsets{0};
};

/// The structural parse: domains, schemas, manifests, chunks, trailers
/// and the header CRC. Errors come back without source context;
/// ReadErelColumnImageV3 annotates them with the source and byte
/// position.
Status ParseV3(ByteReader& in, const char* data,
               const std::string& source,
               const std::shared_ptr<MappedFile>& mapping, Catalog* catalog,
               std::vector<ParsedRelation>* out) {
  HeaderChecksum header_crc;
  {
    const char* magic;
    EVIDENT_RETURN_NOT_OK(in.Take(8, "magic", &magic));
    if (std::string_view(magic, 8) != kV3Magic) {
      return Status::ParseError(
          "unsupported column-image version (expected EVCIMG03)");
    }
  }

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
    EVIDENT_RETURN_NOT_OK(catalog->RegisterDomain(domain));
    domains.push_back(std::move(domain));
  }

  EVIDENT_ASSIGN_OR_RETURN(uint32_t relation_count, in.U32("relation count"));
  EVIDENT_RETURN_NOT_OK(in.CheckCount(relation_count, 30, "relation"));
  for (uint32_t rel_index = 0; rel_index < relation_count; ++rel_index) {
    EVIDENT_ASSIGN_OR_RETURN(std::string rel_name, in.Str("relation name"));
    EVIDENT_ASSIGN_OR_RETURN(uint32_t attr_count, in.U32("attribute count"));
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
                                    std::to_string(domain_index) + " of " +
                                    std::to_string(domains.size()));
        }
        domain = domains[domain_index];
      }
      attrs.emplace_back(std::move(attr_name),
                         static_cast<AttributeKind>(kind), std::move(domain));
    }
    EVIDENT_ASSIGN_OR_RETURN(SchemaPtr schema,
                             RelationSchema::Make(std::move(attrs)));
    EVIDENT_ASSIGN_OR_RETURN(uint64_t row_count, in.U64("row count"));
    EVIDENT_RETURN_NOT_OK(in.CheckCount(row_count, 1, "row"));
    const size_t rows = static_cast<size_t>(row_count);

    EVIDENT_ASSIGN_OR_RETURN(uint8_t scheme, in.U8("partition scheme"));
    if (scheme > 2) {
      return Status::ParseError("unknown partition scheme tag " +
                                std::to_string(scheme));
    }
    EVIDENT_ASSIGN_OR_RETURN(uint32_t partition_count,
                             in.U32("partition count"));
    if (partition_count == 0) {
      return Status::ParseError("relation '" + rel_name +
                                "': partition count is zero");
    }
    EVIDENT_RETURN_NOT_OK(in.CheckCount(partition_count, 61, "partition"));
    if (scheme == 0 && partition_count != 1) {
      return Status::ParseError(
          "relation '" + rel_name +
          "': monolithic image with more than one partition");
    }

    // Manifest: per-partition row counts, chunk extents and zone maps —
    // all structurally validated here (a scan may prune a partition on
    // these zones without ever running its semantic checks, so a zone
    // that survives this parse must at least be well-formed).
    std::vector<ChunkMeta> chunks(partition_count);
    std::vector<ColumnStore::PartitionZone> zones(partition_count);
    uint64_t manifest_rows = 0;
    for (uint32_t p = 0; p < partition_count; ++p) {
      ChunkMeta& chunk = chunks[p];
      ColumnStore::PartitionZone& zone = zones[p];
      EVIDENT_ASSIGN_OR_RETURN(chunk.rows, in.U64("partition row count"));
      EVIDENT_ASSIGN_OR_RETURN(chunk.offset, in.U64("chunk offset"));
      EVIDENT_ASSIGN_OR_RETURN(chunk.size, in.U64("chunk size"));
      EVIDENT_ASSIGN_OR_RETURN(chunk.crc, in.U32("chunk checksum"));
      if (chunk.rows > row_count - manifest_rows) {
        return Status::ParseError(
            "relation '" + rel_name +
            "': partition rows do not sum to the relation row count");
      }
      manifest_rows += chunk.rows;
      if (chunk.offset % 8 != 0 || chunk.size % 8 != 0) {
        return Status::ParseError("relation '" + rel_name +
                                  "': chunk extent not 8-aligned");
      }
      const uint64_t expected_offset =
          p == 0 ? 0 : chunks[p - 1].offset + chunks[p - 1].size;
      if (chunk.offset != expected_offset) {
        return Status::ParseError("relation '" + rel_name +
                                  "': chunk offsets are not contiguous");
      }
      EVIDENT_ASSIGN_OR_RETURN(zone.sn_min, in.F64("zone sn min"));
      EVIDENT_ASSIGN_OR_RETURN(zone.sn_max, in.F64("zone sn max"));
      EVIDENT_ASSIGN_OR_RETURN(zone.sp_min, in.F64("zone sp min"));
      EVIDENT_ASSIGN_OR_RETURN(zone.sp_max, in.F64("zone sp max"));
      if (chunk.rows > 0 &&
          !(zone.sn_min >= 0.0 && zone.sn_min <= zone.sn_max &&
            zone.sn_max <= 1.0 && zone.sp_min >= 0.0 &&
            zone.sp_min <= zone.sp_max && zone.sp_max <= 1.0)) {
        return Status::ParseError("relation '" + rel_name +
                                  "': partition support zone out of range");
      }
      zone.values.resize(schema->size());
      for (size_t a = 0; a < schema->size(); ++a) {
        EVIDENT_ASSIGN_OR_RETURN(uint8_t has_zone, in.U8("zone flag"));
        if (has_zone > 1) {
          return Status::ParseError("relation '" + rel_name +
                                    "': invalid zone flag");
        }
        if (has_zone == 0) continue;
        if (chunk.rows == 0) {
          return Status::ParseError("relation '" + rel_name +
                                    "': zone on an empty partition");
        }
        ColumnStore::ValueZone& vz = zone.values[a];
        EVIDENT_ASSIGN_OR_RETURN(vz.min, in.ReadValue("zone minimum"));
        EVIDENT_ASSIGN_OR_RETURN(vz.max, in.ReadValue("zone maximum"));
        if (vz.max < vz.min) {
          return Status::ParseError("relation '" + rel_name +
                                    "': partition zone bounds out of order");
        }
        vz.has = true;
      }
    }
    if (manifest_rows != row_count) {
      return Status::ParseError(
          "relation '" + rel_name +
          "': partition rows do not sum to the relation row count");
    }

    EVIDENT_RETURN_NOT_OK(in.Align8("chunk area padding"));
    const size_t chunk_area = in.pos();
    header_crc.Cover(data, chunk_area);

    // Chunk parse. A single-partition mapped image is the zero-copy
    // path: its numeric arrays are borrowed straight out of the mapping.
    // Multi-partition mapped images are stitched with bulk copies (the
    // global column arrays must be contiguous); copied loads always
    // stitch. Value columns are decoded into Values in every mode.
    const bool borrow = mapping != nullptr && partition_count == 1;
    ColumnStore store = ColumnStore::EmptyLike(schema, rel_name);
    std::vector<EvidenceAccumulator> evidence(schema->size());
    std::vector<double> sn_acc, sp_acc;
    const char* sn_borrowed = nullptr;
    const char* sp_borrowed = nullptr;
    size_t row_base = 0;
    for (uint32_t p = 0; p < partition_count; ++p) {
      const ChunkMeta& chunk = chunks[p];
      const size_t chunk_rows = static_cast<size_t>(chunk.rows);
      zones[p].begin_row = row_base;
      zones[p].end_row = row_base + chunk_rows;
      if (in.pos() - chunk_area != chunk.offset) {
        return Status::ParseError(
            "relation '" + rel_name + "' partition " + std::to_string(p) +
            ": chunk does not start at its manifest offset");
      }
      for (size_t a = 0; a < schema->size(); ++a) {
        const AttributeDef& attr = schema->attribute(a);
        EVIDENT_ASSIGN_OR_RETURN(uint8_t tag, in.U8("column tag"));
        const bool tag_matches =
            (store.kind(a) == ColumnStore::ColumnKind::kValue && tag <= 2) ||
            (store.kind(a) == ColumnStore::ColumnKind::kEvidence &&
             tag == 3) ||
            (store.kind(a) == ColumnStore::ColumnKind::kBoxed && tag == 4);
        if (!tag_matches) {
          return Status::ParseError(
              "attribute '" + attr.name + "' stored with column tag " +
              std::to_string(tag) +
              ", which disagrees with its declaration");
        }
        switch (store.kind(a)) {
          case ColumnStore::ColumnKind::kValue: {
            std::vector<Value>& dst = store.value_column_mut(a).values;
            dst.reserve(dst.size() + chunk_rows);
            if (tag == 0) {
              for (size_t r = 0; r < chunk_rows; ++r) {
                EVIDENT_ASSIGN_OR_RETURN(Value v,
                                         in.ReadValue("column value"));
                if (attr.domain != nullptr && !attr.domain->Contains(v)) {
                  return Status::ParseError("value " + v.ToString() +
                                            " outside domain of '" +
                                            attr.name + "'");
                }
                dst.push_back(std::move(v));
              }
            } else {
              EVIDENT_RETURN_NOT_OK(in.Align8("value array padding"));
              const char* bytes;
              EVIDENT_RETURN_NOT_OK(
                  in.Take(chunk_rows * 8, "value array", &bytes));
              for (size_t r = 0; r < chunk_rows; ++r) {
                uint64_t bits;
                std::memcpy(&bits, bytes + r * 8, 8);
                Value v = tag == 1 ? Value(static_cast<int64_t>(bits))
                                   : Value(std::bit_cast<double>(bits));
                if (attr.domain != nullptr && !attr.domain->Contains(v)) {
                  return Status::ParseError("value " + v.ToString() +
                                            " outside domain of '" +
                                            attr.name + "'");
                }
                dst.push_back(std::move(v));
              }
            }
            break;
          }
          case ColumnStore::ColumnKind::kEvidence: {
            EvidenceAccumulator& acc = evidence[a];
            EVIDENT_ASSIGN_OR_RETURN(uint64_t focal_count,
                                     in.U64("focal count"));
            EVIDENT_RETURN_NOT_OK(in.CheckCount(focal_count, 16, "focal"));
            const size_t word_base =
                borrow ? 0 : acc.words.size();
            if (focal_count >
                std::numeric_limits<uint32_t>::max() - word_base) {
              return Status::ParseError(
                  "focal count exceeds the 32-bit offset space");
            }
            EVIDENT_RETURN_NOT_OK(in.Align8("focal array padding"));
            const char* word_bytes;
            const char* mass_bytes;
            const char* offset_bytes;
            EVIDENT_RETURN_NOT_OK(
                in.Take(focal_count * 8, "focal word", &word_bytes));
            EVIDENT_RETURN_NOT_OK(
                in.Take(focal_count * 8, "focal mass", &mass_bytes));
            EVIDENT_RETURN_NOT_OK(
                in.Take((chunk_rows + 1) * 4, "focal offset", &offset_bytes));
            // Structural: the chunk-local offset array must cover
            // exactly [0, focal_count] monotonically — after this, no
            // span lookup through the column can go out of bounds.
            std::vector<uint32_t> local(chunk_rows + 1);
            std::memcpy(local.data(), offset_bytes, (chunk_rows + 1) * 4);
            if (local[0] != 0 || local[chunk_rows] != focal_count) {
              return Status::ParseError("attribute '" + attr.name +
                                        "': malformed focal offset array");
            }
            for (size_t r = 0; r < chunk_rows; ++r) {
              if (local[r + 1] < local[r]) {
                return Status::ParseError(
                    "attribute '" + attr.name + "' row " +
                    std::to_string(row_base + r) +
                    ": focal offsets not monotone within the span arena");
              }
            }
            if (borrow) {
              ColumnStore::EvidenceColumn& col = store.evidence_column_mut(a);
              col.words = ColumnSpan<uint64_t>::Borrow(
                  reinterpret_cast<const uint64_t*>(word_bytes), focal_count,
                  mapping);
              col.masses = ColumnSpan<double>::Borrow(
                  reinterpret_cast<const double*>(mass_bytes), focal_count,
                  mapping);
              col.offsets = ColumnSpan<uint32_t>::Borrow(
                  reinterpret_cast<const uint32_t*>(offset_bytes),
                  chunk_rows + 1, mapping);
            } else {
              AppendRaw(word_bytes, focal_count, &acc.words);
              AppendRaw(mass_bytes, focal_count, &acc.masses);
              for (size_t r = 1; r <= chunk_rows; ++r) {
                acc.offsets.push_back(
                    static_cast<uint32_t>(word_base + local[r]));
              }
            }
            break;
          }
          case ColumnStore::ColumnKind::kBoxed: {
            // Boxed columns decode (and therefore validate) eagerly in
            // every mode — EvidenceSet::Make is the only constructor.
            std::vector<EvidenceSet>& dst = store.boxed_column_mut(a).sets;
            dst.reserve(dst.size() + chunk_rows);
            const size_t universe = attr.domain->size();
            for (size_t r = 0; r < chunk_rows; ++r) {
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
              Result<EvidenceSet> es =
                  EvidenceSet::Make(attr.domain, std::move(mass));
              if (!es.ok()) {
                return Status::ParseError(
                    "attribute '" + attr.name + "' row " +
                    std::to_string(row_base + r) + ": " +
                    es.status().message());
              }
              dst.push_back(std::move(es).value());
            }
            break;
          }
        }
      }
      EVIDENT_RETURN_NOT_OK(in.Align8("membership padding"));
      const char* sn_bytes;
      const char* sp_bytes;
      EVIDENT_RETURN_NOT_OK(in.Take(chunk_rows * 8, "sn", &sn_bytes));
      EVIDENT_RETURN_NOT_OK(in.Take(chunk_rows * 8, "sp", &sp_bytes));
      if (borrow) {
        sn_borrowed = sn_bytes;
        sp_borrowed = sp_bytes;
      } else {
        AppendRaw(sn_bytes, chunk_rows, &sn_acc);
        AppendRaw(sp_bytes, chunk_rows, &sp_acc);
      }
      {
        const char* magic;
        EVIDENT_RETURN_NOT_OK(in.Take(8, "chunk statistics magic", &magic));
        if (std::string_view(magic, 8) != kStatisticsMagic) {
          return Status::ParseError("relation '" + rel_name + "' partition " +
                                    std::to_string(p) +
                                    ": chunk statistics magic missing");
        }
        // Structurally validated, then discarded: per-chunk statistics
        // exist for future per-partition planning; nothing reads them
        // back yet.
        TableStatistics chunk_stats;
        EVIDENT_RETURN_NOT_OK(ReadStatisticsBody(
            in, "chunk statistics for relation '" + rel_name + "'",
            chunk.rows, schema->size(), &chunk_stats));
      }
      EVIDENT_RETURN_NOT_OK(in.Align8("chunk padding"));
      if (in.pos() - chunk_area - chunk.offset != chunk.size) {
        return Status::ParseError("relation '" + rel_name + "' partition " +
                                  std::to_string(p) +
                                  ": chunk size disagrees with its content");
      }
      row_base += chunk_rows;
    }
    header_crc.Skip(in.pos());

    if (borrow) {
      store.AdoptMemberships(
          ColumnSpan<double>::Borrow(
              reinterpret_cast<const double*>(sn_borrowed), rows, mapping),
          ColumnSpan<double>::Borrow(
              reinterpret_cast<const double*>(sp_borrowed), rows, mapping));
    } else {
      for (size_t a = 0; a < schema->size(); ++a) {
        if (store.kind(a) != ColumnStore::ColumnKind::kEvidence) continue;
        ColumnStore::EvidenceColumn& col = store.evidence_column_mut(a);
        col.words = std::move(evidence[a].words);
        col.masses = std::move(evidence[a].masses);
        col.offsets = std::move(evidence[a].offsets);
      }
      store.AdoptMemberships(ColumnSpan<double>(std::move(sn_acc)),
                             ColumnSpan<double>(std::move(sp_acc)));
    }

    // Trailer: the key arrays (copied — the key columns above are
    // decoded Values anyway), then the relation statistics.
    EVIDENT_ASSIGN_OR_RETURN(uint64_t arena_size, in.U64("key arena size"));
    EVIDENT_ASSIGN_OR_RETURN(uint64_t capacity, in.U64("key index capacity"));
    if (capacity != EncodedKeyIndex::TableCapacityFor(rows)) {
      return Status::ParseError(
          "relation '" + rel_name +
          "': key index capacity disagrees with the row count");
    }
    header_crc.Cover(data, in.pos());
    const char* arena_bytes;
    EVIDENT_RETURN_NOT_OK(in.Take(static_cast<size_t>(arena_size),
                                  "key arena", &arena_bytes));
    const char* offset_bytes;
    EVIDENT_RETURN_NOT_OK(
        in.Take((rows + 1) * 4, "key offset", &offset_bytes));
    const char* hash_bytes;
    EVIDENT_RETURN_NOT_OK(in.Take(rows * 8, "key index hash", &hash_bytes));
    const char* slot_bytes;
    EVIDENT_RETURN_NOT_OK(in.Take(static_cast<size_t>(capacity) * 4,
                                  "key index slot", &slot_bytes));
    header_crc.Skip(in.pos());
    EncodedKeys keys;
    keys.offsets.resize(rows + 1);
    std::memcpy(keys.offsets.data(), offset_bytes, (rows + 1) * 4);
    if (keys.offsets[0] != 0 || keys.offsets[rows] != arena_size) {
      return Status::ParseError("relation '" + rel_name +
                                "': malformed key arena offsets");
    }
    for (size_t r = 0; r < rows; ++r) {
      if (keys.offsets[r + 1] < keys.offsets[r]) {
        return Status::ParseError("relation '" + rel_name +
                                  "': malformed key arena offsets");
      }
    }
    keys.arena.assign(arena_bytes, static_cast<size_t>(arena_size));
    std::vector<uint64_t> hashes(rows);
    // rows == 0 leaves the hash pointer null; memcpy forbids that even
    // for a zero count.
    if (rows > 0) std::memcpy(hashes.data(), hash_bytes, rows * 8);
    std::vector<uint32_t> slots(static_cast<size_t>(capacity));
    std::memcpy(slots.data(), slot_bytes, static_cast<size_t>(capacity) * 4);
    // Structural: every slot names a real row or is empty, and the
    // filled count equals the row count. The latter guarantees empty
    // slots exist (capacity > rows by the load-factor bound), so index
    // probes always terminate even on a corrupt table.
    size_t filled = 0;
    for (uint32_t slot : slots) {
      if (slot == EncodedKeyIndex::kNoRow) continue;
      ++filled;
      if (slot >= rows) {
        return Status::ParseError("relation '" + rel_name +
                                  "': key index slot out of range");
      }
    }
    if (filled != rows) {
      return Status::ParseError(
          "relation '" + rel_name +
          "': key index slot count disagrees with the row count");
    }
    EncodedKeyIndex index;
    index.AdoptParts(std::move(hashes), std::move(slots));

    {
      const char* magic;
      EVIDENT_RETURN_NOT_OK(in.Take(8, "statistics magic", &magic));
      if (std::string_view(magic, 8) != kStatisticsMagic) {
        return Status::ParseError("relation '" + rel_name +
                                  "': statistics magic missing");
      }
      TableStatistics stats;
      EVIDENT_RETURN_NOT_OK(ReadStatisticsBody(
          in, "statistics for relation '" + rel_name + "'", rows,
          schema->size(), &stats));
      store.AdoptStatistics(std::move(stats));
    }

    store.AdoptKeys(std::move(keys), std::move(index));
    store.AdoptPartitions(std::move(zones));

    auto ctx = std::make_shared<VerifyContext>();
    ctx->source = source;
    ctx->relation = rel_name;
    ctx->mapping = mapping;
    ctx->base = data;
    ctx->chunk_area = chunk_area;
    ctx->chunks = std::move(chunks);
    out->push_back(ParsedRelation{std::move(store), std::move(ctx)});
  }
  header_crc.Cover(data, in.pos());
  EVIDENT_ASSIGN_OR_RETURN(uint32_t stored_crc, in.U32("header checksum"));
  if (stored_crc != header_crc.value()) {
    return Status::ParseError("header checksum mismatch: the file is corrupt");
  }
  if (in.remaining() != 0) {
    return Status::ParseError("trailing bytes after the header checksum");
  }
  return Status::OK();
}

}  // namespace

Result<Catalog> ReadErelColumnImageV3(const char* data, size_t size,
                                      const std::string& source,
                                      std::shared_ptr<MappedFile> mapping) {
  ByteReader in(data, size, source);
  Catalog catalog;
  std::vector<ParsedRelation> parsed;
  const Status status = ParseV3(in, data, source, mapping, &catalog, &parsed);
  if (!status.ok()) return in.Annotate(status);
  for (ParsedRelation& rel : parsed) {
    const std::shared_ptr<VerifyContext> ctx = rel.ctx;
    rel.store.InstallDeferredVerification(
        ctx->chunks.size(),
        [ctx](const ColumnStore& store, size_t p) {
          return VerifyRelationPartition(store, p, *ctx);
        });
    if (mapping == nullptr) {
      // Copied load: run every partition's semantic checks now, in
      // partition order, then drop the verifier — it references `data`,
      // which the caller may free once this returns.
      EVIDENT_RETURN_NOT_OK(rel.store.EnsureAllVerified());
      rel.store.ClearDeferredVerification();
    }
    EVIDENT_RETURN_NOT_OK(catalog.RegisterRelation(
        ExtendedRelation::AdoptColumns(std::move(rel.store))));
  }
  return catalog;
}

}  // namespace evident
