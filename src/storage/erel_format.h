#ifndef EVIDENT_STORAGE_EREL_FORMAT_H_
#define EVIDENT_STORAGE_EREL_FORMAT_H_

#include <string>

#include "common/result.h"
#include "storage/catalog.h"

namespace evident {

/// \brief The .erel serialization of a Catalog (domains + extended
/// relations), in two on-disk formats behind one Load entry point.
///
/// **v1 — text** (WriteErel): human-readable and round-trip-safe:
///
/// ```
/// # comment
/// domain speciality: am, hu, si, ca, mu, it, ta
///
/// relation RA
/// attr rname key
/// attr street definite
/// attr speciality uncertain speciality
/// row garden | univ.ave. | [si^0.5, hu^0.25, Θ^0.25] | (1,1)
/// end
/// ```
///
/// Rules: a `row` line has one '|'-separated field per attribute plus a
/// trailing "(sn,sp)" membership field; evidence fields use the literal
/// syntax of ParseEvidenceLiteral; definite fields are parsed by
/// Value::Parse (quote to force string typing). Domains must be declared
/// before the relations that use them. Masses are written with
/// `mass_decimals` digits, so a text round trip is exact only to that
/// precision.
///
/// **v2 — column image** (WriteErelColumnImage): the binary image of
/// each relation's ColumnStore, so Save of a columnar relation is a
/// straight buffer write with no row materialization and Load adopts the
/// columns directly (a loaded relation scans column-at-a-time with zero
/// conversion). Masses, supports and offsets are stored bit-exactly.
///
/// v2 layout, bytes-exactly. All integers little-endian, no alignment
/// padding; `u8/u32/u64` are fixed-width unsigned, `f64` is the raw
/// IEEE-754 double bit pattern, `str` is `u32 length` + that many bytes
/// (UTF-8, no terminator), and `value` is `u8 kind` (0 = int, 1 = real,
/// 2 = string) followed by `i64` / `f64` / `str` respectively:
///
/// ```
/// magic        8 bytes: "EVCIMG02" (the trailing "02" is the version)
/// u32          domain_count
/// domain x domain_count:
///   str        name
///   u32        value_count
///   value x value_count
/// u32          relation_count
/// relation x relation_count:
///   str        name
///   u32        attr_count
///   attr x attr_count:
///     str      name
///     u8       kind (0 = key, 1 = definite, 2 = uncertain)
///     u32      domain index into the domain table, 0xFFFFFFFF = none
///              (uncertain attrs must carry one)
///   u64        row_count
///   column x attr_count (schema order), introduced by
///   u8         column_kind (0 = value, 1 = evidence, 2 = boxed —
///              must match what the attr kind + domain size imply):
///     value:    value x row_count
///     evidence: u64 focal_count, u64 word x focal_count,
///               f64 mass x focal_count, u32 offset x (row_count + 1)
///               (row r's focals are [offset[r], offset[r+1]))
///     boxed:    row x row_count: u32 focal_count, then per focal
///               u32 member_count, u32 member_index x member_count,
///               f64 mass
///   f64        sn x row_count
///   f64        sp x row_count
///   u64        key_arena_size
///   bytes      key arena (concatenated canonical key encodings,
///              Value::AppendCanonicalKey, in row order)
///   u32        key_offset x (row_count + 1) (row r's encoded key is
///              arena[key_offset[r] .. key_offset[r+1]))
/// ```
///
/// After the last relation the file may end, or carry one optional
/// statistics footer (the profile the optimizer's cardinality estimates
/// read, so a loaded catalog plans as well as a built one):
///
/// ```
/// magic        8 bytes: "STATS001"
/// stats x relation_count (same order as the relation sections):
///   u64        row_count (must equal the relation's row count)
///   u32        attr_count (must equal the relation's attribute count)
///   attr x attr_count (schema order):
///     u64      distinct count (0 = unknown; must be <= row_count)
///     u8       exact flag (0 = sampled estimate, 1 = exact count)
///   u64        sn_histogram bin x 16 (bin b counts rows with
///              sn in [b/16, (b+1)/16), top bin includes sn == 1;
///              the 16 bins must sum to row_count)
///   u64        sp_histogram bin x 16 (same layout for sp)
/// ```
///
/// The statistics footer ends the logical image — no image bytes may
/// follow it. Files without the footer (older writers,
/// WriteErelColumnImage with include_statistics = false) load
/// identically; their statistics are re-profiled lazily on first use.
///
/// After the image (and the statistics footer when present) the file may
/// carry one optional 12-byte integrity trailer (WriteErelColumnImage
/// with include_checksum = true; SaveErelFile always writes it):
///
/// ```
/// magic        8 bytes: "EVCRC001"
/// u32          IEEE CRC-32 (polynomial 0xEDB88320, reflected,
///              init and final xor 0xFFFFFFFF) of every preceding byte
///              of the file — magic, relations and statistics footer
/// ```
///
/// The reader sniffs the trailer by its magic in the last 12 bytes:
/// present and matching, the prefix parses as usual; present and
/// mismatching, the load fails with a checksum ParseError before any
/// parsing; absent (older writers), the whole file parses as the image.
/// The trailer is therefore backward- and forward-compatible: old
/// readers never saw trailered files, new readers load both.
///
/// Load validates everything it reads — truncation, magic/version,
/// kinds, offset monotonicity, word order/range, per-row mass sums,
/// support bounds, arena consistency, key uniqueness, footer
/// consistency and the checksum trailer — and reports a clean
/// ParseError Status instead of undefined behaviour on corrupt input.
/// Binary-format errors name the source (file path) and the byte
/// position the parser had reached.
///
/// **v3 — partitioned column image** (WriteErelColumnImageV3): the
/// mmap-native evolution of v2. Each relation is split into partitions
/// (contiguous row ranges of one global, partition-major column image),
/// each serialized as a self-delimiting chunk with its own CRC-32 and
/// statistics block, preceded by a manifest of per-partition zone maps
/// (min/max of the membership supports and of every definite value
/// column). Numeric arrays are padded to 8-byte *file* offsets so a
/// page-aligned mmap can lend them to ColumnSpans without copying, and
/// the relation trailer persists the encoded-key arena, the key index's
/// open-addressing table (StableKeyHash) and the optimizer statistics,
/// so opening a catalog does none of the O(bytes) decode/validate/index
/// work the v2 reader pays. Numeric arrays are raw little-endian (the
/// only hosts supported; the v3 translation unit asserts it).
///
/// v3 layout, bytes-exactly. Conventions as in v2 (`u8/u32/u64`, `f64`,
/// `str`, `value`), plus `pad8` = 0–7 zero bytes bringing the *file
/// offset* to a multiple of 8:
///
/// ```
/// magic        8 bytes: "EVCIMG03"
/// u32          domain_count
/// domain x domain_count (exactly as v2)
/// u32          relation_count
/// relation x relation_count:
///   str        name
///   u32        attr_count
///   attr x attr_count (exactly as v2)
///   u64        row_count
///   u8         partition scheme (0 = none, 1 = hash of the encoded key
///              via StableKeyHash % partition_count, 2 = key range:
///              rows ordered by key-column values, split into
///              equal-count ranges)
///   u32        partition_count (>= 1; scheme 0 requires exactly 1)
///   manifest entry x partition_count:
///     u64      rows (the per-partition counts sum to row_count)
///     u64      chunk_offset (from the chunk-area base; 8-aligned, and
///              chunks are contiguous: offset[p+1] = offset[p] + size[p])
///     u64      chunk_size (8-aligned)
///     u32      chunk CRC-32 (same polynomial as EVCRC001, over the
///              chunk's bytes including its trailing padding)
///     f64      sn_min, sn_max, sp_min, sp_max (over the partition's
///              rows; an empty partition stores the empty zone 1, 0)
///     zone x attr_count:
///       u8     has_zone (1 only on value columns of nonempty
///              partitions)
///       value  min, max (only when has_zone = 1; min <= max)
///   pad8       (to the chunk-area base)
///   chunk x partition_count (rows below = this partition's rows):
///     column x attr_count (schema order), introduced by
///     u8       column tag:
///       0 = mixed values:   value x rows
///       1 = all-int values: pad8, u64 x rows (two's-complement i64)
///       2 = all-real values: pad8, f64 x rows
///       3 = packed evidence: u64 focal_count, pad8,
///                            u64 word x focal_count,
///                            f64 mass x focal_count,
///                            u32 offset x (rows + 1) (chunk-local,
///                            offset[0] = 0, offset[rows] = focal_count)
///       4 = boxed evidence: per row as v2's boxed encoding
///     pad8
///     f64      sn x rows
///     f64      sp x rows
///     magic    8 bytes: "STATS001", then one statistics body (the v2
///              footer's per-relation record) over this chunk's rows
///     pad8     (chunk padding, included in chunk_size and the CRC)
///   trailer:
///     u64      key_arena_size
///     bytes    key arena (canonical key encodings, partition-major
///              global row order)
///     u32      key_offset x (row_count + 1)
///     u8       has_index (the writer always emits 1)
///     if has_index:
///       u64    capacity (must equal the capacity the in-memory index
///              would pick for row_count rows: a power of two holding
///              row_count at load factor <= 3/4, minimum 16)
///       u64    hash x row_count (StableKeyHash of each row's key)
///       u32    slot x capacity (row ids, 0xFFFFFFFF = empty)
///     u8       has_stats
///     if has_stats:
///       magic  8 bytes: "STATS001", then one statistics body over the
///              whole relation
/// ```
///
/// v3 carries no whole-file EVCRC001 trailer: integrity is per chunk, so
/// a mapped open does not have to fault in every page to checksum the
/// file. The load is split into **structural** checks, performed eagerly
/// on every open (magic, counts, every offset/slot/count bounds-checked
/// — no access through the loaded store can read out of bounds), and
/// **semantic** checks (chunk CRCs, mass-function invariants, CWA_ER,
/// zone containment, key-arena/index agreement), performed per partition:
/// eagerly for a copied load, deferred to first touch for a mapped load
/// (ColumnStore::EnsurePartitionVerified), with byte-identical error
/// messages either way. Boxed (wide-frame) columns are decoded and
/// validated eagerly in both modes.

/// \brief Serializes every domain and relation in the catalog as v1
/// text. Materializes rows of columnar-mode relations (use the column
/// image to avoid that).
std::string WriteErel(const Catalog& catalog, int mass_decimals = 9);

/// \brief Serializes every domain and relation as a v2 column-image
/// blob. Reads each relation's column image (the native store of a
/// columnar-mode relation; the cached/derived image of a row-mode one) —
/// never materializes row objects. With `include_statistics` the blob
/// ends with the statistics footer (profiling each relation on the
/// shared image if it was not already); without it the footer is
/// omitted, matching what older writers produced. With
/// `include_checksum` the blob ends with the "EVCRC001" CRC-32 trailer;
/// it defaults off so that a blob remains a pure byte-prefix-extensible
/// image (a checksummed blob's prefix is not a valid blob), and
/// SaveErelFile turns it on for files.
std::string WriteErelColumnImage(const Catalog& catalog,
                                 bool include_statistics = true,
                                 bool include_checksum = false);

/// \brief How WriteErelColumnImageV3 / the partitioned SaveErelFile
/// split each relation's rows into partitions.
struct PartitionSpec {
  enum class Scheme {
    /// One partition holding every row in store order (still a valid
    /// v3 image — mappable, indexed, but nothing to prune).
    kNone,
    /// Row r goes to partition StableKeyHash(encoded key of r) %
    /// partitions — balanced, order-agnostic, no useful key zones.
    kHash,
    /// Rows are ordered by their key-column values and split into
    /// equal-count ranges — the zone maps then carry disjoint key
    /// ranges, the layout selective key predicates prune best.
    kKeyRange,
  };
  Scheme scheme = Scheme::kNone;
  /// Partitions per relation (clamped to >= 1; a relation with no rows
  /// always writes a single empty partition). Hash buckets may be
  /// empty; key ranges are empty only when partitions > rows.
  uint32_t partitions = 1;
};

/// \brief Serializes every domain and relation as a v3 partitioned
/// column-image blob (layout above). Like the v2 writer it never
/// materializes row objects; per-chunk statistics blocks are always
/// written, `include_statistics` governs only the relation-level
/// statistics record in the trailer.
std::string WriteErelColumnImageV3(const Catalog& catalog,
                                   const PartitionSpec& partitioning = {},
                                   bool include_statistics = true);

/// \brief Parses an .erel document — any format, distinguished by the
/// magic and version bytes — into a catalog. Column-image relations are
/// adopted in columnar mode. `source` names where the bytes came from
/// (a file path, via LoadErelFile) and prefixes binary-format errors.
Result<Catalog> ReadErel(const std::string& text,
                         const std::string& source = "<memory>");

/// \brief Which format SaveErelFile writes.
enum class ErelFormat {
  /// Column image when any relation is columnar-mode (saving must not
  /// force row materialization), v1 text when all are row-mode.
  kAuto,
  kText,
  kColumnImage,
};

/// \brief File convenience wrappers; LoadErelFile sniffs the format.
///
/// SaveErelFile is crash-safe: the image is serialized fully in memory,
/// written to `path + ".tmp"` in chunks (retrying interrupted writes),
/// flushed to stable storage with fsync, and atomically renamed over
/// `path`. A failure at any point — allocation, write, flush, rename —
/// removes the temporary file and returns a clean Status with the
/// previous contents of `path` untouched; readers of `path` never
/// observe a torn or partial file. Column-image saves carry the CRC-32
/// trailer so latent on-disk corruption fails the later load instead of
/// silently feeding the parser.
Status SaveErelFile(const Catalog& catalog, const std::string& path,
                    ErelFormat format = ErelFormat::kAuto);

/// \brief Saves a v3 partitioned column image (same crash-safe commit).
/// v3 files carry per-chunk CRCs instead of the whole-file trailer.
Status SaveErelFile(const Catalog& catalog, const std::string& path,
                    const PartitionSpec& partitioning,
                    bool include_statistics = true);

/// \brief Whether LoadErelFile opens a v3 image by memory-mapping it
/// (adopting its numeric arrays zero-copy where the layout allows) or by
/// reading and decoding a private copy.
struct LoadOptions {
  enum class Map {
    /// Map v3 images when the file is mappable, fall back to the copied
    /// path otherwise (including v1/v2 files, which lack the alignment
    /// padding mapping needs).
    kAuto,
    kNever,
    /// Map or fail — an unmappable file or a non-v3 image is an error,
    /// never a silent fallback (fault-injection tests rely on this).
    kAlways,
  };
  Map map = Map::kAuto;
};

/// \brief What a load did, for callers that report it (the shell).
struct LoadInfo {
  bool mapped = false;
  std::string format;     // "text", "column-image-v2", "column-image-v3"
  size_t relations = 0;
  size_t partitions = 0;  // total across relations; monolithic counts 1
};

Result<Catalog> LoadErelFile(const std::string& path);
Result<Catalog> LoadErelFile(const std::string& path,
                             const LoadOptions& options,
                             LoadInfo* info = nullptr);

}  // namespace evident

#endif  // EVIDENT_STORAGE_EREL_FORMAT_H_
