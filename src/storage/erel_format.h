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
/// **v3 — column image** (WriteErelColumnImageV3, SaveErelFile): the
/// binary image of each relation's ColumnStore, split into partitions
/// (contiguous row ranges of one global, partition-major column image).
/// Saving never materializes row objects, and a loaded relation scans
/// column-at-a-time with zero conversion; masses, supports and offsets
/// are stored bit-exactly. Each partition is a self-delimiting chunk
/// with its own CRC-32 and statistics block, preceded by a manifest of
/// per-partition zone maps (min/max of the membership supports and of
/// every definite value column). Numeric arrays are padded to 8-byte
/// *file* offsets so a page-aligned mmap can lend them to ColumnSpans
/// without copying, and each relation ends with the encoded-key arena,
/// the key index's open-addressing table (StableKeyHash) and the
/// optimizer statistics, so opening a catalog rebuilds neither the key
/// index nor the statistics. Numeric arrays are raw
/// little-endian (the only hosts supported; the v3 translation unit
/// asserts it).
///
/// Layout, bytes-exactly. All integers little-endian, no padding except
/// where `pad8` says; `u8/u32/u64` are fixed-width unsigned, `f64` is the
/// raw IEEE-754 double bit pattern, `str` is `u32 length` + that many
/// bytes (UTF-8, no terminator), `value` is `u8 kind` (0 = int, 1 =
/// real, 2 = string) followed by `i64` / `f64` / `str` respectively, and
/// `pad8` is 0–7 zero bytes bringing the *file offset* to a multiple of
/// 8. `crc32` is the IEEE CRC-32 (polynomial 0xEDB88320, reflected, init
/// and final xor 0xFFFFFFFF).
///
/// ```
/// magic        8 bytes: "EVCIMG03" (the trailing "03" is the version)
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
///     u32      chunk crc32 (over the chunk's bytes including its
///              trailing padding)
///     f64      sn_min, sn_max, sp_min, sp_max (over the partition's
///              rows; an empty partition stores the empty zone 1, 0)
///     zone x attr_count:
///       u8     has_zone (1 only on value columns of nonempty
///              partitions)
///       value  min, max (only when has_zone = 1; min <= max)
///   pad8       (to the chunk-area base)
///   chunk x partition_count (rows below = this partition's rows):
///     column x attr_count (schema order), introduced by
///     u8       column tag (must agree with the attr kind and domain
///              size: value columns for key/definite attrs, packed
///              evidence for uncertain attrs over <= 64-value domains,
///              boxed evidence over larger ones):
///       0 = mixed values:   value x rows
///       1 = all-int values: pad8, u64 x rows (two's-complement i64)
///       2 = all-real values: pad8, f64 x rows
///       3 = packed evidence: u64 focal_count, pad8,
///                            u64 word x focal_count (focal-set bitmask),
///                            f64 mass x focal_count,
///                            u32 offset x (rows + 1) (chunk-local,
///                            offset[0] = 0, offset[rows] = focal_count;
///                            row r's focals are [offset[r], offset[r+1]))
///       4 = boxed evidence: row x rows: u32 focal_count, then per
///                           focal u32 member_count, u32 member_index x
///                           member_count, f64 mass
///     pad8
///     f64      sn x rows
///     f64      sp x rows
///     stats    statistics record over this chunk's rows (below)
///     pad8     (chunk padding, included in chunk_size and the chunk CRC)
///   u64        key_arena_size
///   u64        index capacity (must equal the capacity the in-memory
///              index would pick for row_count rows: a power of two
///              holding row_count at load factor <= 3/4, minimum 16)
///   bytes      key arena (concatenated canonical key encodings,
///              Value::AppendCanonicalKey, in partition-major global
///              row order)
///   u32        key_offset x (row_count + 1) (row r's encoded key is
///              arena[key_offset[r] .. key_offset[r+1]))
///   u64        hash x row_count (StableKeyHash of each row's key)
///   u32        slot x capacity (row ids, 0xFFFFFFFF = empty)
///   stats      statistics record over the whole relation
/// u32          header crc32 (below); the file ends here
/// ```
///
/// A statistics record is the profile the optimizer's cardinality
/// estimates read, so a loaded catalog plans as well as a built one:
///
/// ```
/// magic        8 bytes: "STATS001"
/// u64          row_count (must equal the rows it describes)
/// u32          attr_count (must equal the relation's attribute count)
/// attr x attr_count (schema order):
///   u64        distinct count (0 = unknown; must be <= row_count)
///   u8         exact flag (0 = sampled estimate, 1 = exact count)
/// u64          sn_histogram bin x 16 (bin b counts rows with sn in
///              [b/16, (b+1)/16), top bin includes sn == 1; the 16 bins
///              must sum to row_count)
/// u64          sp_histogram bin x 16 (same layout for sp)
/// ```
///
/// Integrity. The *header CRC* is the crc32 of every byte of the file
/// before it except the chunk areas (from each relation's chunk-area base
/// to the end of its last chunk) and the key arrays (from the key arena
/// through the last index slot), taken in file order as one stream. It
/// therefore covers the magic, the domain table, each relation's header,
/// manifest (chunk CRCs and zone maps included) and statistics record,
/// and every padding byte outside the chunks; the chunks carry their own
/// CRCs, and the key arrays are checked against the key value columns.
/// Neither a mapped nor a copied open has to read every page to verify
/// the file.
///
/// Load validates everything it reads and reports a clean ParseError
/// Status instead of undefined behaviour on corrupt input, prefixed with
/// the source (file path) and the byte position the parser had reached.
/// The checks are split in two. **Structural** checks run eagerly on
/// every open: magic and version, counts, every offset/slot/count
/// bounds-checked (no access through the loaded store can read out of
/// bounds), and the header CRC — so the schemas, zone maps and
/// statistics a query trusts before touching a partition are the ones
/// the writer stored. **Semantic** checks run per partition: chunk CRCs,
/// mass-function invariants, CWA_ER, zone containment and
/// key-arena/index agreement (which also proves key uniqueness). A
/// copied load runs them eagerly; a mapped load defers them to first
/// touch (ColumnStore::EnsurePartitionVerified), with byte-identical
/// error messages either way. Boxed (wide-frame) columns are decoded and
/// validated eagerly in both modes.

/// \brief Serializes every domain and relation in the catalog as v1
/// text. Materializes rows of columnar-mode relations (use the column
/// image to avoid that).
std::string WriteErel(const Catalog& catalog, int mass_decimals = 9);

/// \brief How WriteErelColumnImageV3 / SaveErelFile split each
/// relation's rows into partitions.
struct PartitionSpec {
  enum class Scheme {
    /// One partition holding every row in store order (a monolithic
    /// image — mappable, indexed, but nothing to prune).
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

/// \brief Serializes every domain and relation as a v3 column-image blob
/// (layout above). Reads each relation's column image — never
/// materializes row objects — and writes the statistics records from
/// each relation's profile (profiling it on the shared image if it was
/// not already).
std::string WriteErelColumnImageV3(const Catalog& catalog,
                                   const PartitionSpec& partitioning = {});

/// \brief Parses an .erel document — text, or a v3 image recognized by
/// its magic (any other column-image version is a ParseError) — into a
/// catalog. Column-image relations are adopted in columnar mode.
/// `source` names where the bytes came from (a file path, via
/// LoadErelFile) and prefixes binary-format errors.
Result<Catalog> ReadErel(const std::string& text,
                         const std::string& source = "<memory>");

/// \brief Saves the catalog as a v3 column image, monolithic by default.
/// LoadErelFile sniffs the format (text or v3) back.
///
/// SaveErelFile is crash-safe: the image is serialized fully in memory,
/// written to `path + ".tmp"` in chunks (retrying interrupted writes),
/// flushed to stable storage with fsync, and atomically renamed over
/// `path`. A failure at any point — allocation, write, flush, rename —
/// removes the temporary file and returns a clean Status with the
/// previous contents of `path` untouched; readers of `path` never
/// observe a torn or partial file. A mapped catalog's deferred
/// verification is driven to completion first, so saving a corrupt
/// image fails with the load's diagnosis instead of persisting it.
Status SaveErelFile(const Catalog& catalog, const std::string& path,
                    const PartitionSpec& partitioning = {});

/// \brief Whether LoadErelFile opens a v3 image by memory-mapping it
/// (adopting its numeric arrays zero-copy where the layout allows) or by
/// reading and decoding a private copy.
struct LoadOptions {
  enum class Map {
    /// Map the file when it is a mappable v3 image; otherwise (a text
    /// file, or an empty or non-regular one) read it through the copied
    /// path, which also rejects any other column-image version.
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
  std::string format;     // "text" or "column-image-v3"
  size_t relations = 0;
  size_t partitions = 0;  // total across relations; monolithic counts 1
};

Result<Catalog> LoadErelFile(const std::string& path);
Result<Catalog> LoadErelFile(const std::string& path,
                             const LoadOptions& options,
                             LoadInfo* info = nullptr);

}  // namespace evident

#endif  // EVIDENT_STORAGE_EREL_FORMAT_H_
