#ifndef EVIDENT_CORE_KEY_INDEX_H_
#define EVIDENT_CORE_KEY_INDEX_H_

#include <cstdint>
#include <cstdlib>
#include <functional>
#include <limits>
#include <string>
#include <string_view>
#include <utility>
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

/// \brief Encoded keys packed back-to-back into one arena string with a
/// per-row offset array — a relation's key bytes (held once, by its
/// column image) or a standalone key set's.
struct EncodedKeys {
  std::string arena;
  std::vector<uint32_t> offsets{0};  // rows + 1 entries

  size_t size() const { return offsets.size() - 1; }
  std::string_view key(size_t row) const {
    return std::string_view(arena).substr(offsets[row],
                                          offsets[row + 1] - offsets[row]);
  }
  /// Appends `key` (which must not point into `arena`) as the next row.
  void Append(std::string_view key) {
    // The arena is offset-addressed with 32 bits; an in-memory relation
    // exhausts RAM long before that wraps, so the limit fails loudly
    // instead of corrupting lookups silently.
    if (arena.size() + key.size() > std::numeric_limits<uint32_t>::max()) {
      std::abort();
    }
    arena.append(key);
    offsets.push_back(static_cast<uint32_t>(arena.size()));
  }
};

/// \brief A flat open-addressing index from encoded key bytes to row
/// indices over an EncodedKeys arena it does not own — the key index of
/// a column image, which keeps the arena beside it so every key's bytes
/// exist once.
///
/// The index holds only a per-row hash and the slot table, so it
/// performs no per-entry node allocation and lookups compare contiguous
/// byte slices of the arena. Rows are indexed in order: Insert indexes
/// row size(). Probing hashes a std::string_view over the caller's
/// reused encode buffer — no temporary key objects.
class EncodedKeyIndex {
 public:
  static constexpr uint32_t kNoRow = 0xFFFFFFFFu;

  size_t size() const { return hashes_.size(); }

  void Reserve(size_t rows) {
    hashes_.reserve(hashes_.size() + rows);
    if ((hashes_.size() + rows + 1) * 4 > slots_.size() * 3) {
      Rehash(TableFor(hashes_.size() + rows));
    }
  }

  /// \brief Indexes `key` as row size() unless `keys` (the arena of the
  /// rows indexed so far) already holds an equal key. Returns kNoRow on
  /// success — the caller then appends `key` to `keys` — or the row
  /// holding the equal key (nothing indexed).
  uint32_t Insert(const EncodedKeys& keys, std::string_view key) {
    // Row ids are 32-bit; see EncodedKeys::Append.
    if (hashes_.size() >= kNoRow) std::abort();
    if ((hashes_.size() + 1) * 4 > slots_.size() * 3) {
      Rehash(TableFor(hashes_.size() + 1));
    }
    const uint64_t h = StableKeyHash(key);
    size_t s = h & mask_;
    while (slots_[s] != kNoRow) {
      const uint32_t other = slots_[s];
      if (hashes_[other] == h && keys.key(other) == key) return other;
      s = (s + 1) & mask_;
    }
    slots_[s] = static_cast<uint32_t>(hashes_.size());
    hashes_.push_back(h);
    return kNoRow;
  }

  /// \brief The row of `keys` indexed under `key`, or kNoRow.
  uint32_t Find(const EncodedKeys& keys, std::string_view key) const {
    if (slots_.empty()) return kNoRow;
    const uint64_t h = StableKeyHash(key);
    size_t s = h & mask_;
    while (slots_[s] != kNoRow) {
      const uint32_t row = slots_[s];
      if (hashes_[row] == h && keys.key(row) == key) return row;
      s = (s + 1) & mask_;
    }
    return kNoRow;
  }

  /// \name Persisted-image adoption (the EVCIMG03 loader).
  ///
  /// Installs a fully built index wholesale: `hashes` is StableKeyHash
  /// per row, and `slots` is the open-addressing table (capacity a power
  /// of two, kNoRow = empty). The caller has bounds-checked every slot
  /// entry; semantic agreement (Find(key(r)) == r) is verified lazily by
  /// the loader's deferred per-partition checks.
  /// @{
  void AdoptParts(std::vector<uint64_t> hashes, std::vector<uint32_t> slots) {
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
  static size_t TableFor(size_t rows) {
    size_t capacity = 16;
    while (rows * 4 > capacity * 3) capacity <<= 1;
    return capacity;
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

  std::vector<uint64_t> hashes_;  // per row
  std::vector<uint32_t> slots_;   // open addressing, kNoRow = empty
  uint64_t mask_ = 0;
};

/// \brief A standalone set of encoded keys: an arena plus its index, for
/// the duplicate-key passes that build no column image (Project's
/// uniqueness check, MergeTuples' rekey pass).
class EncodedKeySet {
 public:
  void Reserve(size_t rows) {
    keys_.offsets.reserve(keys_.offsets.size() + rows);
    index_.Reserve(rows);
  }
  /// Adds `key`: kNoRow when it was new, else the row already holding it.
  uint32_t Insert(std::string_view key) {
    const uint32_t row = index_.Insert(keys_, key);
    if (row == EncodedKeyIndex::kNoRow) keys_.Append(key);
    return row;
  }
  const EncodedKeys& keys() const { return keys_; }
  const EncodedKeyIndex& index() const { return index_; }

 private:
  EncodedKeys keys_;
  EncodedKeyIndex index_;
};

}  // namespace evident

#endif  // EVIDENT_CORE_KEY_INDEX_H_
