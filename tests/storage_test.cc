#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <unordered_map>

#include "common/rng.h"
#include "core/column_store.h"
#include "core/operations.h"
#include "core/scan_stats.h"
#include "query/engine.h"
#include "reference/reference.h"
#include "storage/csv.h"
#include "storage/erel_format.h"
#include "storage/mmap_file.h"
#include "workload/generator.h"
#include "workload/paper_fixtures.h"

namespace evident {
namespace {

TEST(CatalogTest, RegisterAndGetRelation) {
  Catalog catalog;
  ASSERT_TRUE(catalog.RegisterRelation(paper::TableRA().value()).ok());
  EXPECT_TRUE(catalog.HasRelation("RA"));
  auto rel = catalog.GetRelation("RA");
  ASSERT_TRUE(rel.ok());
  EXPECT_EQ((*rel)->size(), 6u);
  EXPECT_FALSE(catalog.GetRelation("nope").ok());
}

TEST(CatalogTest, RegisterRelationRegistersDomains) {
  Catalog catalog;
  ASSERT_TRUE(catalog.RegisterRelation(paper::TableRA().value()).ok());
  EXPECT_TRUE(catalog.HasDomain("speciality"));
  EXPECT_TRUE(catalog.HasDomain("dish"));
  EXPECT_TRUE(catalog.HasDomain("rating"));
}

TEST(CatalogTest, DuplicateRelationRejectedUnlessReplace) {
  Catalog catalog;
  ASSERT_TRUE(catalog.RegisterRelation(paper::TableRA().value()).ok());
  EXPECT_EQ(catalog.RegisterRelation(paper::TableRA().value()).code(),
            StatusCode::kAlreadyExists);
  EXPECT_TRUE(
      catalog.RegisterRelation(paper::TableRA().value(), /*replace=*/true)
          .ok());
}

TEST(CatalogTest, ConflictingDomainRejected) {
  Catalog catalog;
  ASSERT_TRUE(
      catalog.RegisterDomain(
          Domain::MakeSymbolic("d", {"a", "b"}).value())
          .ok());
  // Re-registering an equal domain is fine.
  ASSERT_TRUE(
      catalog.RegisterDomain(
          Domain::MakeSymbolic("d", {"a", "b"}).value())
          .ok());
  EXPECT_EQ(catalog
                .RegisterDomain(
                    Domain::MakeSymbolic("d", {"a", "c"}).value())
                .code(),
            StatusCode::kAlreadyExists);
}

TEST(ErelTextFormatTest, RoundTripsPaperTables) {
  Catalog catalog;
  ASSERT_TRUE(catalog.RegisterRelation(paper::TableRA().value()).ok());
  ASSERT_TRUE(catalog.RegisterRelation(paper::TableRB().value()).ok());
  const std::string text = WriteErel(catalog);
  auto loaded = ReadErel(text);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  auto ra = loaded->GetRelation("RA");
  auto rb = loaded->GetRelation("RB");
  ASSERT_TRUE(ra.ok());
  ASSERT_TRUE(rb.ok());
  EXPECT_TRUE((*ra)->ApproxEquals(paper::TableRA().value(), 1e-8));
  EXPECT_TRUE((*rb)->ApproxEquals(paper::TableRB().value(), 1e-8));
}

TEST(ErelTextFormatTest, RoundTripsGeneratedWorkload) {
  WorkloadGenerator gen(11);
  GeneratorOptions options;
  options.num_tuples = 40;
  auto schema = gen.MakeSchema(options).value();
  auto relation = gen.MakeRelation("W", schema, options).value();
  Catalog catalog;
  ASSERT_TRUE(catalog.RegisterRelation(relation).ok());
  auto loaded = ReadErel(WriteErel(catalog));
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_TRUE((*loaded->GetRelation("W"))->ApproxEquals(relation, 1e-8));
}

TEST(ErelTextFormatTest, QuotedNumericStringsRoundTrip) {
  auto schema = RelationSchema::Make({AttributeDef::Key("k"),
                                      AttributeDef::Definite("d")})
                    .value();
  ExtendedRelation r("R", schema);
  ExtendedTuple t;
  t.cells = {Value("001"), Value("42")};  // strings that look numeric
  ASSERT_TRUE(r.Insert(std::move(t)).ok());
  Catalog catalog;
  ASSERT_TRUE(catalog.RegisterRelation(r).ok());
  auto loaded = ReadErel(WriteErel(catalog));
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  const ExtendedRelation* rel = loaded->GetRelation("R").value();
  EXPECT_TRUE(std::get<Value>(rel->row(0).cells[0]).is_string());
  EXPECT_TRUE(std::get<Value>(rel->row(0).cells[1]).is_string());
}

TEST(ErelTextFormatTest, ParseErrors) {
  EXPECT_FALSE(ReadErel("garbage line").ok());
  EXPECT_FALSE(ReadErel("relation R\nattr k key\nrow a | (1,1)\n").ok());
  EXPECT_FALSE(ReadErel("relation R\nattr k key\n").ok());  // no end
  EXPECT_FALSE(
      ReadErel("relation R\nattr u uncertain missing\nend\n").ok());
  EXPECT_FALSE(ReadErel("end\n").ok());
  // Row with too few fields.
  EXPECT_FALSE(
      ReadErel("relation R\nattr k key\nattr d definite\nrow a | (1,1)\nend\n")
          .ok());
}

TEST(ErelTextFormatTest, FileRoundTrip) {
  Catalog catalog;
  ASSERT_TRUE(catalog.RegisterRelation(paper::TableRA().value()).ok());
  const std::string path = "/tmp/evident_test_catalog.erel";
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << WriteErel(catalog);
  }
  LoadInfo info;
  auto loaded = LoadErelFile(path, LoadOptions{}, &info);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(info.format, "text");
  EXPECT_TRUE(
      (*loaded->GetRelation("RA"))->ApproxEquals(paper::TableRA().value(),
                                                 1e-8));
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Column images (v3): round trips, versions, truncation, corrupt columns

/// Key-matched equality for partitioned images: a partitioned writer
/// reorders rows (partition-major), so rows are paired through their
/// unique keys instead of by position.
void ExpectKeyMatchedEqual(const ExtendedRelation& a,
                           const ExtendedRelation& b) {
  ASSERT_TRUE(a.schema()->Equals(*b.schema()));
  ASSERT_EQ(a.size(), b.size());
  const EncodedKeys& keys_b = b.columns().encoded_keys();
  std::unordered_map<std::string, size_t> by_key;
  for (size_t r = 0; r < b.size(); ++r) {
    by_key.emplace(std::string(keys_b.key(r)), r);
  }
  const EncodedKeys& keys_a = a.columns().encoded_keys();
  for (size_t i = 0; i < a.size(); ++i) {
    const auto it = by_key.find(std::string(keys_a.key(i)));
    ASSERT_NE(it, by_key.end()) << "row " << i << ": key not found";
    const size_t j = it->second;
    ASSERT_EQ(a.row(i).membership.sn, b.row(j).membership.sn) << "row " << i;
    ASSERT_EQ(a.row(i).membership.sp, b.row(j).membership.sp) << "row " << i;
    for (size_t c = 0; c < a.row(i).cells.size(); ++c) {
      ASSERT_TRUE(CellApproxEquals(a.row(i).cells[c], b.row(j).cells[c], 0.0))
          << "row " << i << " cell " << c;
    }
  }
}

/// Whole-catalog equality for images that may reorder rows: the same
/// domains (names and values), the same relation names, and per relation
/// the same schema (attribute names, kinds, domains) and keyed
/// bit-identical contents.
void ExpectSameCatalog(const Catalog& want, const Catalog& got) {
  ASSERT_EQ(want.DomainNames(), got.DomainNames());
  for (const std::string& name : want.DomainNames()) {
    ASSERT_TRUE(want.GetDomain(name).value()->Equals(
        *got.GetDomain(name).value()))
        << "domain " << name;
  }
  ASSERT_EQ(want.RelationNames(), got.RelationNames());
  for (const std::string& name : want.RelationNames()) {
    const ExtendedRelation* a = want.GetRelation(name).value();
    const ExtendedRelation* b = got.GetRelation(name).value();
    ASSERT_EQ(a->name(), b->name());
    ExpectKeyMatchedEqual(*a, *b);
  }
}

/// Exact equality: same schema, row order, focal structures, bitwise
/// masses and memberships — the column image stores raw doubles, so a
/// round trip must lose nothing.
void ExpectBitExact(const ExtendedRelation& a, const ExtendedRelation& b) {
  ASSERT_TRUE(a.schema()->Equals(*b.schema()));
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a.row(i).membership.sn, b.row(i).membership.sn) << "row " << i;
    ASSERT_EQ(a.row(i).membership.sp, b.row(i).membership.sp) << "row " << i;
    for (size_t c = 0; c < a.row(i).cells.size(); ++c) {
      ASSERT_TRUE(CellApproxEquals(a.row(i).cells[c], b.row(i).cells[c], 0.0))
          << "row " << i << " cell " << c;
    }
  }
}

Catalog GeneratedCatalog(uint64_t seed, size_t tuples) {
  WorkloadGenerator gen(seed);
  GeneratorOptions options;
  options.num_tuples = tuples;
  options.num_definite = 2;
  options.num_uncertain = 2;
  options.domain_size = 9;
  auto schema = gen.MakeSchema(options).value();
  Catalog catalog;
  EXPECT_TRUE(
      catalog.RegisterRelation(gen.MakeRelation("W", schema, options).value())
          .ok());
  return catalog;
}

TEST(ColumnImageFormatTest, RoundTripsColumnarOperatorOutput) {
  // A columnar Select result (an adopted column image, never converted
  // to rows) serializes without materializing rows and round-trips
  // exactly.
  Catalog catalog = GeneratedCatalog(23, 80);
  auto selected = Select(*catalog.GetRelation("W").value(),
                         IsSym("unc0", {"v0", "v1", "v2", "v3"}));
  ASSERT_TRUE(selected.ok()) << selected.status().ToString();
  ASSERT_EQ(selected->rows_materialized(), 0u);
  ExtendedRelation copy = *selected;
  copy.set_name("S");
  Catalog outputs;
  ASSERT_TRUE(outputs.RegisterRelation(std::move(copy)).ok());
  const std::string blob = WriteErelColumnImageV3(outputs);
  EXPECT_EQ(outputs.GetRelation("S").value()->rows_materialized(), 0u)
      << "serializing a columnar relation materialized rows";
  auto loaded = ReadErel(blob);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  ExpectBitExact(*selected, *loaded->GetRelation("S").value());
}

TEST(ColumnImageFormatTest, RoundTripsEmptyAndRowModeRelations) {
  auto schema = RelationSchema::Make({AttributeDef::Key("k")}).value();
  Catalog catalog;
  ASSERT_TRUE(catalog.RegisterRelation(ExtendedRelation("E", schema)).ok());
  ASSERT_TRUE(catalog.RegisterRelation(paper::TableRA().value()).ok());
  auto loaded = ReadErel(WriteErelColumnImageV3(catalog));
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ((*loaded->GetRelation("E"))->size(), 0u);
  ExpectBitExact(*catalog.GetRelation("RA").value(),
                 *loaded->GetRelation("RA").value());
}

TEST(ColumnImageFormatTest, SaveErelFileWritesV3WhateverTheStorageMode) {
  const std::string path = "/tmp/evident_test_save_v3.erel";
  auto first_bytes = [&path]() {
    std::ifstream in(path, std::ios::binary);
    std::string head(8, '\0');
    in.read(head.data(), 8);
    return head;
  };
  // Inserted relations and operator outputs alike persist as a
  // monolithic v3 image, from their column images.
  Catalog mixed = GeneratedCatalog(6, 10);
  auto selected = Select(*mixed.GetRelation("W").value(),
                         IsSym("unc0", {"v0", "v1"}));
  ASSERT_TRUE(selected.ok());
  ASSERT_EQ(selected->rows_materialized(), 0u);
  selected->set_name("S");
  ASSERT_TRUE(mixed.RegisterRelation(*selected).ok());
  ASSERT_TRUE(SaveErelFile(mixed, path).ok());
  EXPECT_EQ(first_bytes(), "EVCIMG03");
  EXPECT_EQ(mixed.GetRelation("S").value()->rows_materialized(), 0u);
  LoadInfo info;
  auto loaded = LoadErelFile(path, LoadOptions{}, &info);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(info.format, "column-image-v3");
  EXPECT_EQ(info.partitions, 2u);
  for (const char* name : {"W", "S"}) {
    ExpectBitExact(*mixed.GetRelation(name).value(),
                   *loaded->GetRelation(name).value());
  }
  std::remove(path.c_str());
}

TEST(ColumnImageFormatTest, RejectsUnsupportedVersion) {
  // Any column-image version but 03 — including the retired 02 — is a
  // clean ParseError naming the version, in memory and from a file.
  const std::string path = "/tmp/evident_test_bad_version.erel";
  Catalog catalog = GeneratedCatalog(7, 4);
  for (const char* version : {"99", "02"}) {
    std::string blob = WriteErelColumnImageV3(catalog);
    blob[6] = version[0];
    blob[7] = version[1];
    auto loaded = ReadErel(blob);
    ASSERT_FALSE(loaded.ok()) << version;
    EXPECT_EQ(loaded.status().code(), StatusCode::kParseError);
    EXPECT_NE(loaded.status().message().find("version"), std::string::npos)
        << loaded.status();
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out << blob;
    }
    // kAuto falls back to the copied path, which rejects the version...
    auto from_file = LoadErelFile(path);
    ASSERT_FALSE(from_file.ok()) << version;
    EXPECT_EQ(from_file.status().code(), StatusCode::kParseError);
    EXPECT_NE(from_file.status().message().find(path), std::string::npos)
        << from_file.status();
    // ...and kAlways refuses to map anything but a v3 image.
    LoadOptions mapped;
    mapped.map = LoadOptions::Map::kAlways;
    auto must_map = LoadErelFile(path, mapped);
    ASSERT_FALSE(must_map.ok()) << version;
    EXPECT_EQ(must_map.status().code(), StatusCode::kExecError);
  }
  EXPECT_EQ(MappedFile::live_mappings(), 0u);
  std::remove(path.c_str());
}

TEST(ColumnImageFormatTest, StatisticsRoundTrip) {
  Catalog catalog = GeneratedCatalog(19, 70);
  const TableStatistics& built =
      catalog.GetRelation("W").value()->columns().statistics();
  const std::string blob = WriteErelColumnImageV3(catalog);
  auto loaded = ReadErel(blob);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  const ExtendedRelation* rel = loaded->GetRelation("W").value();
  const TableStatistics& restored = rel->columns().statistics();
  EXPECT_EQ(rel->rows_materialized(), 0u);
  ASSERT_EQ(restored.row_count, built.row_count);
  ASSERT_EQ(restored.attributes.size(), built.attributes.size());
  for (size_t a = 0; a < built.attributes.size(); ++a) {
    EXPECT_EQ(restored.attributes[a].distinct, built.attributes[a].distinct)
        << "attr " << a;
    EXPECT_EQ(restored.attributes[a].exact, built.attributes[a].exact)
        << "attr " << a;
  }
  EXPECT_EQ(restored.sn_histogram, built.sn_histogram);
  EXPECT_EQ(restored.sp_histogram, built.sp_histogram);
  ExpectBitExact(*catalog.GetRelation("W").value(), *rel);
}

TEST(ColumnImageFormatTest, ByteFlipsNeverCrashTheReader) {
  // Single-byte corruption anywhere in the blob must either fail with a
  // clean Status or produce a catalog that passed every load-time
  // validation — never UB (this test is the ASan/UBSan target).
  Catalog catalog = GeneratedCatalog(13, 5);
  const std::string blob = WriteErelColumnImageV3(catalog);
  std::string corrupt = blob;
  for (size_t pos = 0; pos < blob.size(); ++pos) {
    corrupt[pos] = static_cast<char>(corrupt[pos] ^ 0xFF);
    auto loaded = ReadErel(corrupt);
    if (loaded.ok()) {
      // A flip that survived validation (e.g. a low mantissa bit of a
      // mass) must still yield a usable catalog: materializing rows and
      // re-validating must not crash.
      for (const std::string& name : loaded->RelationNames()) {
        (void)loaded->GetRelation(name).value()->ValidateInvariants();
      }
    }
    corrupt[pos] = blob[pos];
  }
}

/// Builds a single-relation catalog around a hand-built (and possibly
/// invalid) column store: the trusted in-memory building APIs skip
/// validation, so the *loader* must be the one to reject the bytes.
std::string BlobOf(ColumnStore store) {
  Catalog catalog;
  EXPECT_TRUE(
      catalog.RegisterRelation(ExtendedRelation::AdoptColumns(std::move(store)))
          .ok());
  return WriteErelColumnImageV3(catalog);
}

TEST(ColumnImageFormatTest, CorruptColumnsReportCleanStatuses) {
  auto dom = Domain::MakeSymbolic("d4", {"a", "b", "c", "d"}).value();
  auto schema = RelationSchema::Make({AttributeDef::Key("k"),
                                      AttributeDef::Uncertain("u", dom)})
                    .value();
  auto base_store = [&](ColumnStore* out) {
    *out = ColumnStore::EmptyLike(schema, "Bad");
    out->value_column_mut(0).values = {Value(int64_t{1}), Value(int64_t{2})};
    out->AppendMembership(SupportPair::Certain());
    out->AppendMembership(SupportPair::Certain());
  };
  auto expect_parse_error = [](const std::string& blob,
                               const std::string& needle) {
    auto loaded = ReadErel(blob);
    ASSERT_FALSE(loaded.ok()) << "expected failure mentioning " << needle;
    EXPECT_EQ(loaded.status().code(), StatusCode::kParseError);
    EXPECT_NE(loaded.status().message().find(needle), std::string::npos)
        << loaded.status().message();
  };

  {  // Focal masses that do not sum to 1 within tolerance.
    ColumnStore store;
    base_store(&store);
    auto& col = store.evidence_column_mut(1);
    col.words = {0x1, 0x2, 0x3};
    col.masses = {0.6, 0.1, 1.0};  // row 0 sums to 0.7
    col.offsets = {0, 2, 3};
    expect_parse_error(BlobOf(std::move(store)), "sum");
  }
  {  // Corrupt (non-monotone) offset array. The writer cannot serialize
     // one, so patch row 1's offset of a valid {0, 1, 2} array to 3 —
     // the structural pass rejects it before any checksum is consulted.
    ColumnStore store;
    base_store(&store);
    auto& col = store.evidence_column_mut(1);
    col.words = {0x1, 0x2};
    col.masses = {1.0, 1.0};
    col.offsets = {0, 1, 2};
    std::string blob = BlobOf(std::move(store));
    // The offsets follow the two masses of 1.0 in the evidence column.
    const double one = 1.0;
    const std::string mass(reinterpret_cast<const char*>(&one), sizeof(one));
    const size_t pos = blob.find(
        mass + mass + std::string("\0\0\0\0\1\0\0\0\2\0\0\0", 12));
    ASSERT_NE(pos, std::string::npos);
    blob[pos + 16 + 4] = '\3';
    expect_parse_error(blob, "monotone");
  }
  {  // Focal word outside the 4-value frame.
    ColumnStore store;
    base_store(&store);
    auto& col = store.evidence_column_mut(1);
    col.words = {0x1, 0x10};
    col.masses = {1.0, 1.0};
    col.offsets = {0, 1, 2};
    expect_parse_error(BlobOf(std::move(store)), "outside frame");
  }
  {  // Mass on the empty set.
    ColumnStore store;
    base_store(&store);
    auto& col = store.evidence_column_mut(1);
    col.words = {0x1, 0x0};
    col.masses = {1.0, 1.0};
    col.offsets = {0, 1, 2};
    expect_parse_error(BlobOf(std::move(store)), "empty set");
  }
  {  // Duplicate keys: the key index the writer persists cannot hold
     // both rows, so the loader rejects the image's key index.
    ColumnStore store;
    base_store(&store);
    store.value_column_mut(0).values = {Value(int64_t{1}), Value(int64_t{1})};
    auto& col = store.evidence_column_mut(1);
    col.words = {0x1, 0x2};
    col.masses = {1.0, 1.0};
    col.offsets = {0, 1, 2};
    expect_parse_error(BlobOf(std::move(store)), "key index");
  }
  {  // CWA_ER violation: stored row with sn = 0.
    ColumnStore store = ColumnStore::EmptyLike(schema, "Bad");
    store.value_column_mut(0).values = {Value(int64_t{1})};
    auto& col = store.evidence_column_mut(1);
    col.words = {0x1};
    col.masses = {1.0};
    col.offsets = {0, 1};
    store.AppendMembership(SupportPair::Unknown());  // (0, 1)
    expect_parse_error(BlobOf(std::move(store)), "sn > 0");
  }
}

// ---------------------------------------------------------------------------
// Partitioned images, mapped opens, zone maps and the header checksum

TEST(ColumnImageV3Test, MonolithicRoundTripsBitExactly) {
  Catalog catalog = GeneratedCatalog(31, 60);
  const std::string blob = WriteErelColumnImageV3(catalog);
  ASSERT_EQ(blob.compare(0, 8, "EVCIMG03"), 0);
  auto loaded = ReadErel(blob);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  const ExtendedRelation* rel = loaded->GetRelation("W").value();
  // Adopted columns: scanning the image must not build rows.
  EXPECT_EQ(rel->rows_materialized(), 0u);
  (void)rel->columns();
  EXPECT_EQ(rel->rows_materialized(), 0u);
  // A monolithic image is one partition covering every row.
  ASSERT_EQ(rel->columns().partitions().size(), 1u);
  EXPECT_EQ(rel->columns().partitions()[0].end_row, rel->size());
  // The owned loader verified eagerly: nothing deferred escapes.
  EXPECT_FALSE(rel->columns().deferred_verification_pending());
  ExpectBitExact(*catalog.GetRelation("W").value(), *rel);
}

TEST(ColumnImageV3Test, PartitionedRoundTripsKeyMatched) {
  Catalog catalog = GeneratedCatalog(37, 90);
  for (const PartitionSpec::Scheme scheme :
       {PartitionSpec::Scheme::kHash, PartitionSpec::Scheme::kKeyRange}) {
    PartitionSpec spec;
    spec.scheme = scheme;
    spec.partitions = 7;
    const std::string blob = WriteErelColumnImageV3(catalog, spec);
    auto loaded = ReadErel(blob);
    ASSERT_TRUE(loaded.ok()) << loaded.status();
    const ExtendedRelation* rel = loaded->GetRelation("W").value();
    const auto& parts = rel->columns().partitions();
    ASSERT_EQ(parts.size(), 7u);
    size_t covered = 0;
    for (const auto& zone : parts) {
      ASSERT_EQ(zone.begin_row, covered);
      covered = zone.end_row;
      // Key-range partitions of value columns carry zones.
      if (scheme == PartitionSpec::Scheme::kKeyRange &&
          zone.end_row > zone.begin_row) {
        EXPECT_TRUE(zone.values[0].has);
        EXPECT_FALSE(zone.values[0].max < zone.values[0].min);
      }
    }
    ASSERT_EQ(covered, rel->size());
    ExpectKeyMatchedEqual(*catalog.GetRelation("W").value(), *rel);
  }
}

TEST(ColumnImageV3Test, MappedLoadBorrowsAndMatches) {
  const std::string path = "/tmp/evident_test_v3_mapped.erel";
  Catalog catalog = GeneratedCatalog(41, 50);
  ASSERT_TRUE(SaveErelFile(catalog, path, PartitionSpec{}).ok());
  {
    LoadOptions options;
    options.map = LoadOptions::Map::kAlways;
    LoadInfo info;
    auto loaded = LoadErelFile(path, options, &info);
    ASSERT_TRUE(loaded.ok()) << loaded.status();
    EXPECT_TRUE(info.mapped);
    EXPECT_EQ(info.format, "column-image-v3");
    EXPECT_EQ(info.relations, 1u);
    EXPECT_EQ(info.partitions, 1u);
    EXPECT_EQ(MappedFile::live_mappings(), 1u);
    const ExtendedRelation* rel = loaded->GetRelation("W").value();
    // Single-partition mapped image: the numeric arrays are borrowed
    // straight out of the mapping, and verification is lazy.
    EXPECT_TRUE(rel->columns().sn().borrowed());
    EXPECT_TRUE(rel->columns().deferred_verification_pending());
    ASSERT_TRUE(rel->columns().EnsureAllVerified().ok());
    ExpectBitExact(*catalog.GetRelation("W").value(), *rel);
  }
  // Dropping the catalog releases the mapping: no fd or mapping leaks.
  EXPECT_EQ(MappedFile::live_mappings(), 0u);
  std::remove(path.c_str());
}

TEST(ColumnImageV3Test, MappedPartitionedLoadStitchesAndMatches) {
  const std::string path = "/tmp/evident_test_v3_mapped_parts.erel";
  Catalog catalog = GeneratedCatalog(43, 64);
  PartitionSpec spec;
  spec.scheme = PartitionSpec::Scheme::kKeyRange;
  spec.partitions = 5;
  ASSERT_TRUE(SaveErelFile(catalog, path, spec).ok());
  LoadOptions options;
  options.map = LoadOptions::Map::kAlways;
  LoadInfo info;
  auto loaded = LoadErelFile(path, options, &info);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_TRUE(info.mapped);
  EXPECT_EQ(info.partitions, 5u);
  const ExtendedRelation* rel = loaded->GetRelation("W").value();
  // Multi-partition images stitch into owned arrays but still verify
  // partition-at-a-time.
  EXPECT_FALSE(rel->columns().sn().borrowed());
  EXPECT_TRUE(rel->columns().deferred_verification_pending());
  ASSERT_TRUE(rel->columns().EnsureAllVerified().ok());
  ExpectKeyMatchedEqual(*catalog.GetRelation("W").value(), *rel);
  std::remove(path.c_str());
}

TEST(ColumnImageV3Test, EveryTruncationIsACleanParseError) {
  Catalog catalog = GeneratedCatalog(47, 8);
  PartitionSpec hashed;
  hashed.scheme = PartitionSpec::Scheme::kHash;
  hashed.partitions = 3;
  // Every proper prefix cuts a header field, a chunk, the key trailer or
  // the header checksum short somewhere: the reader must fail cleanly,
  // never read past the end, and name the file and offset region in the
  // message. Prefixes shorter than the magic fall into the text parser,
  // which rejects them too.
  for (const PartitionSpec& spec : {PartitionSpec{}, hashed}) {
    const std::string blob = WriteErelColumnImageV3(catalog, spec);
    for (size_t len = 1; len < blob.size(); ++len) {
      auto loaded = ReadErel(blob.substr(0, len), "trunc.erel");
      ASSERT_FALSE(loaded.ok()) << "prefix of " << len << " bytes parsed";
      ASSERT_EQ(loaded.status().code(), StatusCode::kParseError)
          << "prefix of " << len << " bytes";
      if (len < 6) continue;
      ASSERT_NE(loaded.status().message().find("trunc.erel"),
                std::string::npos)
          << loaded.status();
    }
  }
}

TEST(ColumnImageV3Test, MappedAndCopiedLoadsAgreeOnEveryByteFlip) {
  // Single-byte corruption anywhere — names, domains, manifest fields,
  // zone maps, chunk bodies, the key trailer, the header checksum — must
  // fail identically (same first error) whether the file is copied in
  // (eager verification) or mapped (deferred verification driven to
  // completion), must never leak a mapping, and must never yield a
  // catalog that differs from the one saved.
  const std::string path = "/tmp/evident_test_v3_flips.erel";
  Catalog catalog = GeneratedCatalog(53, 12);
  PartitionSpec spec;
  spec.scheme = PartitionSpec::Scheme::kKeyRange;
  spec.partitions = 4;
  const std::string blob = WriteErelColumnImageV3(catalog, spec);
  std::string corrupt = blob;
  LoadOptions copied;
  copied.map = LoadOptions::Map::kNever;
  LoadOptions mapped;
  mapped.map = LoadOptions::Map::kAlways;
  for (size_t pos = 8; pos < blob.size(); ++pos) {
    corrupt[pos] = static_cast<char>(corrupt[pos] ^ 0x20);
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out << corrupt;
    }
    auto eager = LoadErelFile(path, copied, nullptr);
    auto lazy = LoadErelFile(path, mapped, nullptr);
    if (!eager.ok()) {
      // Structural damage fails both loads identically; semantic damage
      // loads lazily and surfaces the same error on verification.
      Status lazy_status = Status::OK();
      if (lazy.ok()) {
        for (const std::string& name : lazy->RelationNames()) {
          lazy_status =
              lazy->GetRelation(name).value()->columns().EnsureAllVerified();
          if (!lazy_status.ok()) break;
        }
      } else {
        lazy_status = lazy.status();
      }
      ASSERT_FALSE(lazy_status.ok()) << "byte " << pos << ": copied load said "
                                     << eager.status().message();
      EXPECT_EQ(eager.status().message(), lazy_status.message())
          << "byte " << pos;
    } else {
      // A flip that loads must load both ways to the original catalog:
      // the header CRC covers names, domains and zone maps, the chunk
      // CRCs the column bytes, so nothing can change silently.
      ASSERT_TRUE(lazy.ok()) << "byte " << pos << ": " << lazy.status();
      for (const std::string& name : lazy->RelationNames()) {
        ASSERT_TRUE(
            lazy->GetRelation(name).value()->columns().EnsureAllVerified().ok())
            << "byte " << pos;
      }
      SCOPED_TRACE("byte " + std::to_string(pos));
      ExpectSameCatalog(catalog, *eager);
      ExpectSameCatalog(catalog, *lazy);
      if (::testing::Test::HasFatalFailure()) break;
    }
    corrupt[pos] = blob[pos];
  }
  EXPECT_EQ(MappedFile::live_mappings(), 0u);
  std::remove(path.c_str());
}

TEST(ColumnImageV3Test, EmptyRelationAndAutoFallback) {
  // An empty relation is always one empty partition; kAuto still maps
  // v3 files and falls back to the copied path for text.
  auto schema = RelationSchema::Make({AttributeDef::Key("k")}).value();
  Catalog catalog;
  ASSERT_TRUE(catalog.RegisterRelation(ExtendedRelation("E", schema)).ok());
  PartitionSpec spec;
  spec.scheme = PartitionSpec::Scheme::kHash;
  spec.partitions = 6;
  auto loaded = ReadErel(WriteErelColumnImageV3(catalog, spec));
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ((*loaded->GetRelation("E"))->size(), 0u);
  EXPECT_EQ((*loaded->GetRelation("E"))->columns().partitions().size(), 1u);

  const std::string path = "/tmp/evident_test_v3_fallback.erel";
  Catalog text = GeneratedCatalog(59, 10);
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << WriteErel(text);
  }
  LoadInfo info;
  auto fallback = LoadErelFile(path, LoadOptions{}, &info);
  ASSERT_TRUE(fallback.ok()) << fallback.status();
  EXPECT_FALSE(info.mapped);
  EXPECT_EQ(info.format, "text");
  EXPECT_EQ(info.partitions, 1u);
  EXPECT_EQ(MappedFile::live_mappings(), 0u);
  std::remove(path.c_str());
}

/// 96 rows keyed 0..95 (d = k / 10, u a definite singleton) — except
/// the top key, whose evidence splits 0.5/0.5. Under key-range
/// partitioning the doubles 0.5 occur in the file only inside the last
/// partition's chunk, giving the corruption test below a byte it can
/// flip in a known-prunable partition without parsing the manifest.
Catalog PruningCatalog() {
  DomainPtr dom =
      Domain::MakeSymbolic("pz_dom", {"z0", "z1", "z2", "z3"}).value();
  SchemaPtr schema = RelationSchema::Make({AttributeDef::Key("k"),
                                           AttributeDef::Definite("d"),
                                           AttributeDef::Uncertain("u", dom)})
                         .value();
  ExtendedRelation rel("P", schema);
  for (int64_t i = 0; i < 96; ++i) {
    MassFunction m =
        i == 95 ? MassFunction::FromUnmerged(
                      4, {{ValueSet::Singleton(4, 0), 0.5},
                          {ValueSet::Singleton(4, 1), 0.5}})
                : MassFunction::Definite(4, static_cast<size_t>(i) % 4);
    ExtendedTuple t;
    t.cells = {Value(i), Value(i / 10),
               EvidenceSet::MakeTrusted(dom, std::move(m))};
    t.membership = SupportPair::Certain();
    EXPECT_TRUE(rel.Insert(std::move(t)).ok());
  }
  Catalog catalog;
  EXPECT_TRUE(catalog.RegisterRelation(std::move(rel)).ok());
  return catalog;
}

TEST(ColumnImageV3Test, ZoneMapPruningMatchesMonolithicAndShowsInExplain) {
  const std::string parts_path = "/tmp/evident_test_v3_prune_parts.erel";
  const std::string mono_path = "/tmp/evident_test_v3_prune_mono.erel";
  Catalog catalog = PruningCatalog();
  PartitionSpec spec;
  spec.scheme = PartitionSpec::Scheme::kKeyRange;
  spec.partitions = 8;
  ASSERT_TRUE(SaveErelFile(catalog, parts_path, spec).ok());
  ASSERT_TRUE(SaveErelFile(catalog, mono_path, PartitionSpec{}).ok());
  auto partitioned = LoadErelFile(parts_path);
  auto monolithic = LoadErelFile(mono_path);
  ASSERT_TRUE(partitioned.ok()) << partitioned.status();
  ASSERT_TRUE(monolithic.ok()) << monolithic.status();

  // Keys 0..95 key-range split 8 ways: k < 12 is exactly partition 0,
  // so the other seven are refuted by their key zones.
  const std::string query = "SELECT * FROM P WHERE k < 12";
  QueryEngine part_engine(&*partitioned);
  QueryEngine mono_engine(&*monolithic);
  ResetScanStats();
  auto pruned_result = part_engine.Execute(query);
  ASSERT_TRUE(pruned_result.ok()) << pruned_result.status();
  const PartitionScanStats stats = CurrentScanStats();
  EXPECT_EQ(stats.partitions_considered, 8u);
  EXPECT_EQ(stats.partitions_pruned, 7u);
  auto full_result = mono_engine.Execute(query);
  ASSERT_TRUE(full_result.ok()) << full_result.status();
  EXPECT_EQ(pruned_result->size(), 12u);
  ExpectKeyMatchedEqual(*full_result, *pruned_result);

  auto explain = part_engine.Explain(query);
  ASSERT_TRUE(explain.ok()) << explain.status();
  EXPECT_NE(explain->find("partitions=7/8 pruned"), std::string::npos)
      << *explain;
  EXPECT_NE(explain->find("8 partition(s)"), std::string::npos) << *explain;

  // The operator API prunes too: a direct columnar Select over the
  // partitioned relation matches and records the skips.
  const ExtendedRelation* prel = partitioned->GetRelation("P").value();
  ResetScanStats();
  auto selected =
      Select(*prel, Theta(ThetaOperand::Attr("k"), ThetaOp::kLt,
                          ThetaOperand::LitValue(Value(int64_t{12}))));
  ASSERT_TRUE(selected.ok()) << selected.status();
  EXPECT_EQ(CurrentScanStats().partitions_pruned, 7u);
  EXPECT_EQ(selected->size(), 12u);
  std::remove(parts_path.c_str());
  std::remove(mono_path.c_str());
}

/// W (key k, definite d, uncertain u) and V (key vk, definite vd,
/// uncertain vu), with u and vu over a 70-value frame: past the 64-value
/// inline word, so no predicate over them binds and the operators
/// interpret them per row (per matched pair in a join).
Catalog WideFrameCatalog() {
  std::vector<std::string> symbols;
  for (int i = 0; i < 70; ++i) symbols.push_back("v" + std::to_string(i));
  const DomainPtr wide = Domain::MakeSymbolic("wide70", symbols).value();
  Rng rng(70);
  auto make = [&](const std::string& name, const std::string& prefix) {
    SchemaPtr schema =
        RelationSchema::Make({AttributeDef::Key(prefix + "k"),
                              AttributeDef::Definite(prefix + "d"),
                              AttributeDef::Uncertain(prefix + "u", wide)})
            .value();
    ExtendedRelation rel(name, schema);
    for (int64_t i = 0; i < 40; ++i) {
      MassFunction m(70);
      ValueSet a(70), b(70);
      a.Set(rng.Below(8));
      b.Set(rng.Below(8));
      b.Set(rng.Below(8));
      EXPECT_TRUE(m.Add(a, 0.5).ok());
      EXPECT_TRUE(m.Add(b, 0.5).ok());
      ExtendedTuple t;
      t.cells = {Value(i), Value(i % 4),
                 EvidenceSet::MakeTrusted(wide, std::move(m))};
      t.membership = SupportPair{0.5 + 0.01 * static_cast<double>(i), 1.0};
      EXPECT_TRUE(rel.Insert(std::move(t)).ok());
    }
    return rel;
  };
  Catalog catalog;
  EXPECT_TRUE(catalog.RegisterRelation(make("W", "")).ok());
  EXPECT_TRUE(catalog.RegisterRelation(make("V", "v")).ok());
  return catalog;
}

TEST(ColumnImageV3Test, InterpretedPredicatesNeverMaterializeCatalogRows) {
  // A query thread must never build (and cache) the row image of a
  // shared, loaded catalog relation — not even when its predicate does
  // not bind and is interpreted tuple by tuple.
  const std::string path = "/tmp/evident_test_v3_wide_frame.erel";
  ASSERT_TRUE(SaveErelFile(WideFrameCatalog(), path, PartitionSpec{}).ok());
  auto loaded = LoadErelFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  const std::vector<std::string> statements = {
      // Interpreted selection.
      "SELECT * FROM W WHERE u IS {v3}",
      // Single-side conjuncts under a join, one of them interpreted.
      "SELECT * FROM W JOIN V WHERE k = vk AND u IS {v3, v5} AND vd >= 1",
      // Key equi-join whose residual is interpreted.
      "SELECT * FROM W JOIN V WHERE k = vk AND u = vu",
  };
  QueryEngine engine(&*loaded);
  std::vector<Result<ExtendedRelation>> results;
  for (const std::string& stmt : statements) {
    results.push_back(engine.Execute(stmt));
    ASSERT_TRUE(results.back().ok()) << stmt << ": " << results.back().status();
    EXPECT_GT(results.back()->size(), 0u) << stmt;
    for (const char* name : {"W", "V"}) {
      EXPECT_EQ(loaded->GetRelation(name).value()->rows_materialized(), 0u)
          << stmt << " materialized the rows of catalog relation " << name;
    }
  }
  // The reference reads the catalog's rows, so it runs last.
  for (size_t i = 0; i < statements.size(); ++i) {
    EXPECT_EQ(reference::DiffByKey(
                  results[i], reference::ExecuteQuery(*loaded, statements[i])),
              "")
        << statements[i];
  }
  std::remove(path.c_str());
}

TEST(ColumnImageV3Test, PrunedPartitionsAreNeverVerified) {
  const std::string path = "/tmp/evident_test_v3_prune_corrupt.erel";
  Catalog catalog = PruningCatalog();
  PartitionSpec spec;
  spec.scheme = PartitionSpec::Scheme::kKeyRange;
  spec.partitions = 8;
  const std::string blob = WriteErelColumnImageV3(catalog, spec);
  // Flip a mantissa bit of a focal mass of the top-key row: the only
  // 0.5 doubles in the file live in the last partition's chunk.
  const double half = 0.5;
  std::string pattern(reinterpret_cast<const char*>(&half), sizeof(half));
  const size_t pos = blob.rfind(pattern);
  ASSERT_NE(pos, std::string::npos);
  std::string corrupt = blob;
  corrupt[pos] = static_cast<char>(corrupt[pos] ^ 0x01);
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << corrupt;
  }

  // The eager (copied) load sees the corruption immediately...
  LoadOptions copied;
  copied.map = LoadOptions::Map::kNever;
  auto eager = LoadErelFile(path, copied, nullptr);
  ASSERT_FALSE(eager.ok());
  EXPECT_NE(eager.status().message().find("checksum"), std::string::npos)
      << eager.status();

  {
    // ...but a mapped load defers, and a query whose zone maps refute
    // the corrupt partition never reads — or verifies — its bytes.
    LoadOptions options;
    options.map = LoadOptions::Map::kAlways;
    auto mapped = LoadErelFile(path, options, nullptr);
    ASSERT_TRUE(mapped.ok()) << mapped.status();
    QueryEngine engine(&*mapped);
    ResetScanStats();
    auto result = engine.Execute("SELECT * FROM P WHERE k < 12");
    ASSERT_TRUE(result.ok()) << result.status();
    EXPECT_EQ(result->size(), 12u);
    EXPECT_EQ(CurrentScanStats().partitions_pruned, 7u);
    // Touching everything surfaces exactly the eager load's first error.
    const ExtendedRelation* rel = mapped->GetRelation("P").value();
    const Status all = rel->columns().EnsureAllVerified();
    ASSERT_FALSE(all.ok());
    EXPECT_EQ(all.message(), eager.status().message());
  }
  EXPECT_EQ(MappedFile::live_mappings(), 0u);
  std::remove(path.c_str());
}

TEST(ColumnImageV3Test, CorruptZoneMapFailsBothOpens) {
  // Keys 0..95 key-range split 8 ways: the last partition holds 84..95.
  // Lowering its key-zone max to 89 keeps the manifest well-formed, but
  // a mapped scan trusting it would prune the partition from k >= 90 and
  // silently return no rows. The header checksum must reject the file
  // at open, mapped and copied alike, with the same error.
  const std::string path = "/tmp/evident_test_v3_zone_max.erel";
  PartitionSpec spec;
  spec.scheme = PartitionSpec::Scheme::kKeyRange;
  spec.partitions = 8;
  const std::string blob = WriteErelColumnImageV3(PruningCatalog(), spec);
  // The k zone of the last partition: has_zone 1, then int values 84
  // and 95 (kind tag 0 + little-endian i64).
  auto int_value = [](int64_t v) {
    std::string out(1, '\0');
    for (int i = 0; i < 8; ++i) {
      out.push_back(static_cast<char>((static_cast<uint64_t>(v) >> (8 * i)) &
                                      0xff));
    }
    return out;
  };
  const std::string zone = std::string(1, '\1') + int_value(84) + int_value(95);
  const size_t pos = blob.find(zone);
  ASSERT_NE(pos, std::string::npos);
  ASSERT_EQ(blob.find(zone, pos + 1), std::string::npos);
  std::string corrupt = blob;
  corrupt.replace(pos + 1 + 9, 9, int_value(89));
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << corrupt;
  }

  LoadOptions copied;
  copied.map = LoadOptions::Map::kNever;
  LoadOptions mapped;
  mapped.map = LoadOptions::Map::kAlways;
  auto eager = LoadErelFile(path, copied, nullptr);
  ASSERT_FALSE(eager.ok());
  EXPECT_EQ(eager.status().code(), StatusCode::kParseError);
  {
    auto lazy = LoadErelFile(path, mapped, nullptr);
    if (lazy.ok()) {
      auto result =
          QueryEngine(&*lazy).Execute("SELECT * FROM P WHERE k >= 90");
      FAIL() << "mapped open accepted a corrupt zone map; k >= 90 returned "
             << (result.ok() ? std::to_string(result->size()) + " rows"
                             : result.status().ToString());
    }
    EXPECT_EQ(lazy.status().code(), StatusCode::kParseError);
    EXPECT_EQ(lazy.status().message(), eager.status().message());
    EXPECT_NE(lazy.status().message().find("header checksum mismatch"),
              std::string::npos)
        << lazy.status();
  }
  EXPECT_EQ(MappedFile::live_mappings(), 0u);
  std::remove(path.c_str());
}

/// 3000 rows of (k, a 100-byte string s, a definite u): large enough
/// that a 4-way key-range image has multi-kilobyte chunks.
Catalog BigCatalog() {
  DomainPtr dom =
      Domain::MakeSymbolic("big_dom", {"a", "b", "c", "d", "e", "f"}).value();
  SchemaPtr schema =
      RelationSchema::Make({AttributeDef::Key("k"),
                            AttributeDef::Definite("s"),
                            AttributeDef::Uncertain("u", dom)})
          .value();
  ExtendedRelation rel("Big", schema);
  for (int64_t i = 0; i < 3000; ++i) {
    std::string payload(96, static_cast<char>('a' + i % 26));
    payload += std::to_string(i);
    ExtendedTuple t;
    t.cells = {Value(i), Value(std::move(payload)),
               EvidenceSet::MakeTrusted(
                   dom, MassFunction::Definite(dom->size(),
                                               static_cast<size_t>(i) % 6))};
    t.membership = SupportPair::Certain();
    EXPECT_TRUE(rel.Insert(std::move(t)).ok());
  }
  Catalog catalog;
  EXPECT_TRUE(catalog.RegisterRelation(std::move(rel)).ok());
  return catalog;
}

/// Writes BigCatalog as a 4-way key-range image to `path` with one byte
/// of row 1500's string payload (partition 2's chunk) flipped; returns
/// the error an eager (copied) load of the file reports.
std::string WriteCorruptBigImage(const std::string& path) {
  PartitionSpec spec;
  spec.scheme = PartitionSpec::Scheme::kKeyRange;
  spec.partitions = 4;
  std::string blob = WriteErelColumnImageV3(BigCatalog(), spec);
  const size_t pos = blob.find(std::string(96, 'a' + 1500 % 26) + "1500");
  EXPECT_NE(pos, std::string::npos);
  if (pos == std::string::npos) return "";
  blob[pos + 10] = static_cast<char>(blob[pos + 10] ^ 0x01);
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << blob;
  }
  LoadOptions copied;
  copied.map = LoadOptions::Map::kNever;
  auto eager = LoadErelFile(path, copied, nullptr);
  EXPECT_FALSE(eager.ok());
  if (eager.ok()) return "";
  EXPECT_NE(eager.status().message().find(
                "partition 2: chunk checksum mismatch"),
            std::string::npos)
      << eager.status();
  return eager.status().message();
}

TEST(ColumnImageV3Test, ReadingRowsKeepsAMappedImageVerified) {
  // Building the row image of a mapped relation must not replace its
  // column image: its deferred checks still guard every later scan and
  // save, and EXPLAIN still shows its partitions.
  const std::string path = "/tmp/evident_test_v3_rows_corrupt.erel";
  const std::string resave = "/tmp/evident_test_v3_rows_corrupt_resave.erel";
  const std::string diagnosis = WriteCorruptBigImage(path);
  ASSERT_FALSE(diagnosis.empty());
  {
    LoadOptions mapped;
    mapped.map = LoadOptions::Map::kAlways;
    auto loaded = LoadErelFile(path, mapped, nullptr);
    ASSERT_TRUE(loaded.ok()) << loaded.status();
    const ExtendedRelation* rel = loaded->GetRelation("Big").value();
    EXPECT_EQ(rel->rows().size(), 3000u);
    EXPECT_EQ(rel->rows_materialized(), 1u);

    QueryEngine engine(&*loaded);
    auto explain = engine.Explain("SELECT * FROM Big");
    ASSERT_TRUE(explain.ok()) << explain.status();
    EXPECT_NE(explain->find("4 partition(s)"), std::string::npos) << *explain;
    auto result = engine.Execute("SELECT * FROM Big");
    EXPECT_FALSE(result.ok()) << result->size() << " rows";
    EXPECT_EQ(result.status().message(), diagnosis);
    const Status saved = SaveErelFile(*loaded, resave);
    EXPECT_FALSE(saved.ok());
    EXPECT_EQ(saved.message(), diagnosis);
  }
  EXPECT_EQ(MappedFile::live_mappings(), 0u);
  std::remove(path.c_str());
  std::remove(resave.c_str());
}

TEST(ColumnImageV3Test, InsertIntoACopyOfACorruptMappedImageReportsIt) {
  // A copy of a mapped relation shares its column image; inserting into
  // it must not launder the corrupt chunk into a relation that no longer
  // carries the deferred checks. The insert reports the eager-load
  // diagnosis and leaves the copy as it was, so validating or saving the
  // copy reports it too.
  const std::string path = "/tmp/evident_test_v3_insert_corrupt.erel";
  const std::string resave = "/tmp/evident_test_v3_insert_corrupt_resave.erel";
  const std::string diagnosis = WriteCorruptBigImage(path);
  ASSERT_FALSE(diagnosis.empty());
  {
    LoadOptions mapped;
    mapped.map = LoadOptions::Map::kAlways;
    auto loaded = LoadErelFile(path, mapped, nullptr);
    ASSERT_TRUE(loaded.ok()) << loaded.status();
    const ExtendedRelation* rel = loaded->GetRelation("Big").value();
    ExtendedRelation copy = *rel;
    const DomainPtr dom = rel->schema()->attribute(2).domain;
    ExtendedTuple t;
    t.cells = {Value(int64_t{5000}), Value("fresh"),
               EvidenceSet::MakeTrusted(
                   dom, MassFunction::Definite(dom->size(), 0))};
    t.membership = SupportPair::Certain();
    const Status inserted = copy.Insert(std::move(t));
    EXPECT_FALSE(inserted.ok()) << copy.size() << " rows after the insert";
    EXPECT_EQ(inserted.message(), diagnosis);
    const Status valid = copy.ValidateInvariants();
    EXPECT_FALSE(valid.ok());
    EXPECT_EQ(valid.message(), diagnosis);
    Catalog copies;
    ASSERT_TRUE(copies.RegisterRelation(copy).ok());
    const Status saved = SaveErelFile(copies, resave);
    EXPECT_FALSE(saved.ok());
    EXPECT_EQ(saved.message(), diagnosis);
    EXPECT_EQ(rel->size(), 3000u);
  }
  EXPECT_EQ(MappedFile::live_mappings(), 0u);
  std::remove(path.c_str());
  std::remove(resave.c_str());
}

TEST(ColumnImageV3Test, InsertIntoACopyOfAPartitionedImageIsScanned) {
  // The inserted key lies above every key-range zone; the copy must drop
  // the zone maps it inherited, or a pruned scan would miss the new row.
  // The original keeps its rows and its partitions.
  const std::string path = "/tmp/evident_test_v3_insert_zones.erel";
  PartitionSpec spec;
  spec.scheme = PartitionSpec::Scheme::kKeyRange;
  spec.partitions = 4;
  ASSERT_TRUE(SaveErelFile(BigCatalog(), path, spec).ok());
  {
    LoadOptions mapped;
    mapped.map = LoadOptions::Map::kAlways;
    auto loaded = LoadErelFile(path, mapped, nullptr);
    ASSERT_TRUE(loaded.ok()) << loaded.status();
    const ExtendedRelation* rel = loaded->GetRelation("Big").value();
    ASSERT_EQ(rel->columns().partitions().size(), 4u);
    ExtendedRelation copy = *rel;
    const DomainPtr dom = rel->schema()->attribute(2).domain;
    ExtendedTuple t;
    t.cells = {Value(int64_t{5000}), Value("fresh"),
               EvidenceSet::MakeTrusted(
                   dom, MassFunction::Definite(dom->size(), 0))};
    t.membership = SupportPair::Certain();
    ASSERT_TRUE(copy.Insert(std::move(t)).ok());
    EXPECT_EQ(copy.size(), 3001u);
    EXPECT_TRUE(copy.ValidateInvariants().ok());

    Catalog copies;
    ASSERT_TRUE(copies.RegisterRelation(copy).ok());
    auto fresh = QueryEngine(&copies).Execute(
        "SELECT * FROM Big WHERE k >= 5000");
    ASSERT_TRUE(fresh.ok()) << fresh.status();
    ASSERT_EQ(fresh->size(), 1u);
    EXPECT_EQ(std::get<Value>(fresh->row(0).cells[1]), Value("fresh"));

    auto original = QueryEngine(&*loaded).Execute(
        "SELECT * FROM Big WHERE k >= 5000");
    ASSERT_TRUE(original.ok()) << original.status();
    EXPECT_EQ(original->size(), 0u);
    EXPECT_EQ(rel->size(), 3000u);
    EXPECT_EQ(rel->columns().partitions().size(), 4u);
    EXPECT_FALSE(rel->ContainsKey({Value(int64_t{5000})}));
    EXPECT_EQ(rel->rows_materialized(), 0u);
  }
  EXPECT_EQ(MappedFile::live_mappings(), 0u);
  std::remove(path.c_str());
}

TEST(ColumnImageV3Test, WriterBytesArePinned) {
  // The EVCIMG03 bytes of BigCatalog under three partition specs, as
  // StableKeyHash of the whole image: the format is stable across
  // changes to how the writer builds its key trailer.
  PartitionSpec hash;
  hash.scheme = PartitionSpec::Scheme::kHash;
  hash.partitions = 4;
  PartitionSpec range;
  range.scheme = PartitionSpec::Scheme::kKeyRange;
  range.partitions = 4;
  const struct {
    const char* name;
    PartitionSpec spec;
    size_t size;
    uint64_t hash;
  } kGolden[] = {
      {"monolithic", PartitionSpec{}, 526343, 0x46e8d41a7f9dceabULL},
      {"hash P=4", hash, 528207, 0x63d36d62b8916973ULL},
      {"key-range P=4", range, 528207, 0x151a4ccc24a6d2a4ULL},
  };
  const Catalog catalog = BigCatalog();
  for (const auto& golden : kGolden) {
    const std::string blob = WriteErelColumnImageV3(catalog, golden.spec);
    EXPECT_EQ(blob.size(), golden.size) << golden.name;
    EXPECT_EQ(StableKeyHash(blob), golden.hash) << golden.name;
  }
}

TEST(ColumnImageV3Test, ValidateInvariantsRunsAMappedImagesDeferredChecks) {
  const std::string path = "/tmp/evident_test_v3_validate_corrupt.erel";
  const std::string diagnosis = WriteCorruptBigImage(path);
  ASSERT_FALSE(diagnosis.empty());
  {
    LoadOptions mapped;
    mapped.map = LoadOptions::Map::kAlways;
    auto loaded = LoadErelFile(path, mapped, nullptr);
    ASSERT_TRUE(loaded.ok()) << loaded.status();
    const ExtendedRelation* rel = loaded->GetRelation("Big").value();
    // The rows decode without the deferred checks; validation must
    // still report the corrupt chunk.
    EXPECT_EQ(rel->rows().size(), 3000u);
    const Status valid = rel->ValidateInvariants();
    EXPECT_FALSE(valid.ok());
    EXPECT_EQ(valid.message(), diagnosis);
  }
  EXPECT_EQ(MappedFile::live_mappings(), 0u);
  std::remove(path.c_str());
}

TEST(CsvTest, ParsesHeaderAndRows) {
  auto table = ParseCsv("t", "a,b,c\n1,2,3\nx,y,z\n");
  ASSERT_TRUE(table.ok()) << table.status();
  EXPECT_EQ(table->columns, (std::vector<std::string>{"a", "b", "c"}));
  ASSERT_EQ(table->rows.size(), 2u);
  EXPECT_EQ(table->rows[1][2], "z");
}

TEST(CsvTest, HandlesQuotesAndEscapes) {
  auto table = ParseCsv("t", "a,b\n\"x,y\",\"he said \"\"hi\"\"\"\n");
  ASSERT_TRUE(table.ok()) << table.status();
  EXPECT_EQ(table->rows[0][0], "x,y");
  EXPECT_EQ(table->rows[0][1], "he said \"hi\"");
}

TEST(CsvTest, HandlesCrLf) {
  auto table = ParseCsv("t", "a,b\r\n1,2\r\n");
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table->rows[0][0], "1");
}

TEST(CsvTest, Errors) {
  EXPECT_FALSE(ParseCsv("t", "").ok());
  EXPECT_FALSE(ParseCsv("t", "a,b\n1\n").ok());
  EXPECT_FALSE(ParseCsv("t", "a,b\n\"unterminated,2\n").ok());
}

TEST(CsvTest, WriteRoundTrip) {
  RawTable t;
  t.name = "t";
  t.columns = {"a", "b"};
  t.rows = {{"plain", "with,comma"}, {"q\"uote", "x"}};
  auto reparsed = ParseCsv("t", WriteCsv(t));
  ASSERT_TRUE(reparsed.ok()) << reparsed.status();
  EXPECT_EQ(reparsed->rows, t.rows);
}

}  // namespace
}  // namespace evident
