#ifndef EVIDENT_CORE_KEY_INDEX_H_
#define EVIDENT_CORE_KEY_INDEX_H_

#include <cstdint>
#include <cstdlib>
#include <functional>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

namespace evident {

/// \brief FNV-1a over the canonical key bytes — the one key hash the
/// key index, the persisted EVCIMG03 index image and the hash
/// partitioner all share. It is fixed and process-independent (unlike
/// std::hash), so hashes written to disk by one build verify and probe
/// correctly in any other.
inline uint64_t StableKeyHash(std::string_view key) {
  uint64_t h = 0xcbf29ce484222325ULL;  // FNV offset basis
  for (const char c : key) {
    h ^= static_cast<uint8_t>(c);
    h *= 0x100000001b3ULL;  // FNV prime
  }
  return h;
}

/// \brief A flat open-addressing index from encoded key bytes to row
/// indices — the ExtendedRelation key index.
///
/// Keys are stored back-to-back in one arena string with a per-row
/// offset array, so the index performs no per-entry node allocation (the
/// former unordered_map paid one per insert) and lookups compare
/// contiguous byte slices. Rows are appended in order: row i's key is
/// the i-th successful Insert. Probing hashes a std::string_view over
/// the caller's reused encode buffer — no temporary key objects.
class EncodedKeyIndex {
 public:
  static constexpr uint32_t kNoRow = 0xFFFFFFFFu;

  size_t size() const { return hashes_.size(); }

  void Reserve(size_t rows) {
    arena_.reserve(arena_.size() + rows * 12);
    starts_.reserve(starts_.size() + rows);
    hashes_.reserve(hashes_.size() + rows);
    if ((hashes_.size() + rows + 1) * 4 > slots_.size() * 3) {
      Rehash(TableFor(hashes_.size() + rows));
    }
  }

  /// \brief Indexes `key` as the next row. Returns kNoRow on success, or
  /// the already-present row holding an equal key (nothing inserted).
  uint32_t Insert(std::string_view key) {
    // Keys are addressed with 32-bit arena offsets and row ids; an
    // in-memory relation exhausts RAM long before either wraps, so the
    // limit fails loudly instead of corrupting lookups silently.
    if (arena_.size() + key.size() >
            std::numeric_limits<uint32_t>::max() ||
        hashes_.size() >= kNoRow) {
      std::abort();
    }
    if ((hashes_.size() + 1) * 4 > slots_.size() * 3) {
      Rehash(TableFor(hashes_.size() + 1));
    }
    const uint64_t h = Hash(key);
    size_t s = h & mask_;
    while (slots_[s] != kNoRow) {
      const uint32_t other = slots_[s];
      if (hashes_[other] == h && KeyAt(other) == key) return other;
      s = (s + 1) & mask_;
    }
    const uint32_t row = static_cast<uint32_t>(hashes_.size());
    slots_[s] = row;
    hashes_.push_back(h);
    arena_.append(key);
    starts_.push_back(static_cast<uint32_t>(arena_.size()));
    return kNoRow;
  }

  /// \brief The row indexed under `key`, or kNoRow.
  uint32_t Find(std::string_view key) const {
    if (slots_.empty()) return kNoRow;
    const uint64_t h = Hash(key);
    size_t s = h & mask_;
    while (slots_[s] != kNoRow) {
      const uint32_t row = slots_[s];
      if (hashes_[row] == h && KeyAt(row) == key) return row;
      s = (s + 1) & mask_;
    }
    return kNoRow;
  }

  /// \name Persisted-image adoption (the EVCIMG03 loader).
  ///
  /// Installs a fully built index wholesale: `arena`/`starts` are the
  /// key bytes in row order, `hashes` is StableKeyHash per row, and
  /// `slots` is the open-addressing table (capacity a power of two,
  /// kNoRow = empty). The caller has bounds-checked every slot entry;
  /// semantic agreement (Find(key(r)) == r) is verified lazily by the
  /// loader's deferred per-partition checks.
  /// @{
  void AdoptParts(std::string arena, std::vector<uint32_t> starts,
                  std::vector<uint64_t> hashes, std::vector<uint32_t> slots) {
    arena_ = std::move(arena);
    starts_ = std::move(starts);
    hashes_ = std::move(hashes);
    slots_ = std::move(slots);
    mask_ = slots_.empty() ? 0 : slots_.size() - 1;
  }
  const std::vector<uint64_t>& hashes() const { return hashes_; }
  const std::vector<uint32_t>& slots() const { return slots_; }
  size_t capacity() const { return slots_.size(); }
  /// @}

  /// The table capacity the incremental insert path would pick for
  /// `rows` rows (a power of two, load factor <= 3/4) — the writer uses
  /// it so a persisted image round-trips to an identical table.
  static size_t TableCapacityFor(size_t rows) { return TableFor(rows); }

 private:
  static uint64_t Hash(std::string_view key) { return StableKeyHash(key); }

  static size_t TableFor(size_t rows) {
    size_t capacity = 16;
    while (rows * 4 > capacity * 3) capacity <<= 1;
    return capacity;
  }

  std::string_view KeyAt(uint32_t row) const {
    return std::string_view(arena_).substr(starts_[row],
                                           starts_[row + 1] - starts_[row]);
  }

  void Rehash(size_t capacity) {
    slots_.assign(capacity, kNoRow);
    mask_ = capacity - 1;
    for (uint32_t row = 0; row < hashes_.size(); ++row) {
      size_t s = hashes_[row] & mask_;
      while (slots_[s] != kNoRow) s = (s + 1) & mask_;
      slots_[s] = row;
    }
  }

  std::string arena_;
  std::vector<uint32_t> starts_{0};  // per row, into arena_ (size + 1)
  std::vector<uint64_t> hashes_;     // per row
  std::vector<uint32_t> slots_;      // open addressing, kNoRow = empty
  uint64_t mask_ = 0;
};

}  // namespace evident

#endif  // EVIDENT_CORE_KEY_INDEX_H_
