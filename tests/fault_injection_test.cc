// Deterministic fault injection over the storage layer: every
// byte-granular failure point of SaveErelFile / LoadErelFile — an
// allocation, a failed or short write, a failed flush or rename, a
// failed or truncated read — must surface as a clean ParseError /
// ExecError Status, never a crash, leak or torn file, and a failed save
// must leave the previous on-disk image byte-identical and loadable.
//
// The test binary overrides global operator new/delete so the armed
// thread's nth allocation throws std::bad_alloc exactly like a real
// exhausted heap; the storage syscall wrappers consult the same injector
// for the I/O sites.
#include "core/fault_injection.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <new>
#include <sstream>
#include <string>
#include <vector>

#include "common/domain.h"
#include "core/column_store.h"
#include "core/extended_relation.h"
#include "storage/catalog.h"
#include "storage/erel_format.h"
#include "storage/mmap_file.h"

// ---------------------------------------------------------------------------
// Global allocator override: malloc-backed (so ASan still tracks every
// block) with the fault injector consulted on the allocation paths.

void* operator new(std::size_t size) {
  if (evident::fault::ShouldFail(evident::fault::Site::kAllocation)) {
    throw std::bad_alloc();
  }
  void* p = std::malloc(size != 0 ? size : 1);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  if (evident::fault::ShouldFail(evident::fault::Site::kAllocation)) {
    return nullptr;
  }
  return std::malloc(size != 0 ? size : 1);
}

void* operator new[](std::size_t size, const std::nothrow_t& tag) noexcept {
  return ::operator new(size, tag);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace evident {
namespace {

/// A catalog whose column image comfortably exceeds the save/load chunk
/// size (256 KiB), so the chunked write loop runs several iterations and
/// a truncated read yields a proper parse-time prefix.
Catalog BigCatalog() {
  DomainPtr dom =
      Domain::MakeSymbolic("fi_dom", {"a", "b", "c", "d", "e", "f"}).value();
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
    if (!rel.Insert(std::move(t)).ok()) std::abort();
  }
  Catalog catalog;
  if (!catalog.RegisterRelation(std::move(rel)).ok()) std::abort();
  return catalog;
}

/// A small, visibly different catalog: the "previous image" failed saves
/// must preserve.
Catalog SmallCatalog() {
  SchemaPtr schema = RelationSchema::Make({AttributeDef::Key("k"),
                                           AttributeDef::Definite("v")})
                         .value();
  ExtendedRelation rel("Old", schema);
  for (int64_t i = 0; i < 5; ++i) {
    ExtendedTuple t;
    t.cells = {Value(i), Value(10 * i)};
    t.membership = SupportPair::Certain();
    if (!rel.Insert(std::move(t)).ok()) std::abort();
  }
  Catalog catalog;
  if (!catalog.RegisterRelation(std::move(rel)).ok()) std::abort();
  return catalog;
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

bool FileExists(const std::string& path) {
  return std::ifstream(path).good();
}

/// A failed save must be invisible: target bytes untouched, no stray
/// temporary, and the target still loads to the previous catalog.
void ExpectPristine(const std::string& path, const std::string& old_bytes) {
  EXPECT_EQ(ReadFileBytes(path), old_bytes) << "failed save tore the target";
  EXPECT_FALSE(FileExists(path + ".tmp")) << "failed save leaked its temp";
  auto reloaded = LoadErelFile(path);
  ASSERT_TRUE(reloaded.ok()) << reloaded.status();
  auto rel = reloaded->GetRelation("Old");
  ASSERT_TRUE(rel.ok());
  EXPECT_EQ((*rel)->size(), 5u);
}

class FaultInjectionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    fault::Disarm();
    path_ = ::testing::TempDir() + "evident_fault_test.erel";
    // Seed the target with the previous image every failed save must
    // preserve.
    ASSERT_TRUE(SaveErelFile(SmallCatalog(), path_).ok());
    old_bytes_ = ReadFileBytes(path_);
    ASSERT_FALSE(old_bytes_.empty());
  }

  void TearDown() override {
    fault::Disarm();
    std::remove(path_.c_str());
    std::remove((path_ + ".tmp").c_str());
  }

  std::string path_;
  std::string old_bytes_;
};

/// The read-loop tests load through the copied path: a mapped open never
/// crosses the read hooks.
LoadOptions Copied() {
  LoadOptions options;
  options.map = LoadOptions::Map::kNever;
  return options;
}

TEST_F(FaultInjectionTest, EveryWriteFaultFailsCleanlyAndAtomically) {
  const Catalog big = BigCatalog();
  // Discover how many write-hook crossings a full save makes.
  fault::Arm(fault::Site::kWrite, 0);
  {
    const std::string scratch = ::testing::TempDir() + "evident_fault_count";
    ASSERT_TRUE(SaveErelFile(big, scratch).ok());
    std::remove(scratch.c_str());
  }
  const uint64_t write_hits = fault::Hits();
  fault::Disarm();
  ASSERT_GE(write_hits, 2u) << "fixture too small to exercise chunking";

  for (uint64_t nth = 1; nth <= write_hits; ++nth) {
    fault::Arm(fault::Site::kWrite, nth);
    const Status s = SaveErelFile(big, path_);
    fault::Disarm();
    EXPECT_EQ(s.code(), StatusCode::kExecError) << s;
    ExpectPristine(path_, old_bytes_);
  }
}

TEST_F(FaultInjectionTest, FlushAndRenameFaultsFailCleanlyAndAtomically) {
  const Catalog big = BigCatalog();
  for (fault::Site site : {fault::Site::kFlush, fault::Site::kRename}) {
    fault::Arm(site, 1);
    const Status s = SaveErelFile(big, path_);
    fault::Disarm();
    EXPECT_EQ(s.code(), StatusCode::kExecError) << s;
    ExpectPristine(path_, old_bytes_);
  }
}

TEST_F(FaultInjectionTest, ShortWritesAndEintrAreRetriedToSuccess) {
  const Catalog big = BigCatalog();
  for (fault::Site site : {fault::Site::kShortWrite, fault::Site::kEintr}) {
    for (uint64_t nth : {uint64_t{1}, uint64_t{2}}) {
      fault::Arm(site, nth);
      const Status s = SaveErelFile(big, path_);
      fault::Disarm();
      ASSERT_TRUE(s.ok()) << s;
      EXPECT_FALSE(FileExists(path_ + ".tmp"));
      auto loaded = LoadErelFile(path_);
      ASSERT_TRUE(loaded.ok()) << loaded.status();
      auto rel = loaded->GetRelation("Big");
      ASSERT_TRUE(rel.ok());
      EXPECT_EQ((*rel)->size(), 3000u);
      // Restore the small previous image for the next round.
      ASSERT_TRUE(SaveErelFile(SmallCatalog(), path_).ok());
    }
  }
}

TEST_F(FaultInjectionTest, AllocationFaultsDuringSaveFailCleanly) {
  const Catalog big = BigCatalog();
  fault::Arm(fault::Site::kAllocation, 0);
  {
    const std::string scratch = ::testing::TempDir() + "evident_fault_count";
    ASSERT_TRUE(SaveErelFile(big, scratch).ok());
    std::remove(scratch.c_str());
  }
  const uint64_t alloc_hits = fault::Hits();
  fault::Disarm();
  ASSERT_GT(alloc_hits, 0u);

  // Sweep a spread of allocation indices (the full sweep would be
  // quadratic in the fixture size): early serialization, mid-blob, and
  // the tail where the file work happens.
  const std::vector<uint64_t> picks = {1,
                                       2,
                                       3,
                                       alloc_hits / 4,
                                       alloc_hits / 2,
                                       alloc_hits - 1,
                                       alloc_hits};
  for (uint64_t nth : picks) {
    if (nth == 0) continue;
    fault::Arm(fault::Site::kAllocation, nth);
    const Status s = SaveErelFile(big, path_);
    fault::Disarm();
    if (s.ok()) continue;  // allocation count shifted below nth: benign
    EXPECT_EQ(s.code(), StatusCode::kExecError) << s;
    ExpectPristine(path_, old_bytes_);
  }
}

TEST_F(FaultInjectionTest, ReadFaultsFailCleanly) {
  ASSERT_TRUE(SaveErelFile(BigCatalog(), path_).ok());

  fault::Arm(fault::Site::kRead, 1);
  auto read_fault = LoadErelFile(path_, Copied());
  fault::Disarm();
  ASSERT_FALSE(read_fault.ok());
  EXPECT_EQ(read_fault.status().code(), StatusCode::kExecError);

  fault::Arm(fault::Site::kEintr, 1);
  auto eintr = LoadErelFile(path_, Copied());
  fault::Disarm();
  ASSERT_TRUE(eintr.ok()) << eintr.status();
  EXPECT_TRUE(eintr->HasRelation("Big"));
}

TEST_F(FaultInjectionTest, TruncatedReadsAreCleanParseErrors) {
  ASSERT_TRUE(SaveErelFile(BigCatalog(), path_).ok());
  // Count the read-loop iterations of a clean load.
  fault::Arm(fault::Site::kShortRead, 0);
  ASSERT_TRUE(LoadErelFile(path_, Copied()).ok());
  const uint64_t read_hits = fault::Hits();
  fault::Disarm();
  ASSERT_GE(read_hits, 3u) << "fixture too small to exercise chunked reads";

  for (uint64_t nth = 1; nth <= read_hits; ++nth) {
    fault::Arm(fault::Site::kShortRead, nth);
    auto loaded = LoadErelFile(path_, Copied());
    fault::Disarm();
    if (loaded.ok()) continue;  // EOF injected at the natural end: benign
    EXPECT_EQ(loaded.status().code(), StatusCode::kParseError)
        << loaded.status();
  }
  // A truncation anywhere — inside a chunk, the key arrays or the header
  // checksum — must fail in parsing, never crash, which the loop above
  // covers; the very first injection (empty file) parses as an empty v1
  // text catalog, which is the documented sniffing fallback.
}

TEST_F(FaultInjectionTest, AllocationFaultsDuringLoadFailCleanly) {
  ASSERT_TRUE(SaveErelFile(BigCatalog(), path_).ok());
  fault::Arm(fault::Site::kAllocation, 0);
  ASSERT_TRUE(LoadErelFile(path_, Copied()).ok());
  const uint64_t alloc_hits = fault::Hits();
  fault::Disarm();
  ASSERT_GT(alloc_hits, 0u);

  const std::vector<uint64_t> picks = {1,
                                       2,
                                       3,
                                       5,
                                       alloc_hits / 4,
                                       alloc_hits / 2,
                                       alloc_hits - 1,
                                       alloc_hits};
  for (uint64_t nth : picks) {
    if (nth == 0) continue;
    fault::Arm(fault::Site::kAllocation, nth);
    auto loaded = LoadErelFile(path_, Copied());
    fault::Disarm();
    if (loaded.ok()) continue;  // count shifted: benign
    EXPECT_EQ(loaded.status().code(), StatusCode::kExecError)
        << loaded.status();
  }
}

TEST_F(FaultInjectionTest, HeaderAndChunkChecksumsDetectBitRot) {
  PartitionSpec spec;
  spec.scheme = PartitionSpec::Scheme::kKeyRange;
  spec.partitions = 4;
  ASSERT_TRUE(SaveErelFile(BigCatalog(), path_, spec).ok());
  const std::string good = ReadFileBytes(path_);

  LoadOptions mapped;
  mapped.map = LoadOptions::Map::kAlways;
  // The first error of a load, mapped opens driven through their
  // deferred verification.
  auto first_error = [&](const LoadOptions& options) {
    auto loaded = LoadErelFile(path_, options);
    if (!loaded.ok()) return loaded.status();
    for (const std::string& name : loaded->RelationNames()) {
      const Status s =
          loaded->GetRelation(name).value()->columns().EnsureAllVerified();
      if (!s.ok()) return s;
    }
    return Status::OK();
  };
  // Flip one byte of text the parser accepts either way, so only a
  // checksum can tell: the domain and relation names (header), a string
  // payload in the middle of the rows (chunk), and the stored header
  // CRC itself.
  const std::string payload = std::string(96, 'a' + 1500 % 26) + "1500";
  const struct {
    size_t pos;
    const char* diagnosis;
  } flips[] = {
      {good.find("fi_dom"), "header checksum mismatch: the file is corrupt"},
      {good.find("Big"), "header checksum mismatch: the file is corrupt"},
      {good.find(payload), "chunk checksum mismatch: the file is corrupt"},
      {good.size() - 2, "header checksum mismatch: the file is corrupt"},
  };
  for (const auto& flip : flips) {
    ASSERT_NE(flip.pos, std::string::npos);
    std::string bad = good;
    bad[flip.pos] = static_cast<char>(bad[flip.pos] ^ 0x01);
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    out << bad;
    out.close();
    const Status copied_error = first_error(Copied());
    ASSERT_FALSE(copied_error.ok()) << "flipped byte " << flip.pos;
    EXPECT_EQ(copied_error.code(), StatusCode::kParseError);
    // The message names the damaged file and carries the core diagnosis,
    // identically for both open modes.
    EXPECT_NE(copied_error.message().find(path_), std::string::npos)
        << copied_error;
    EXPECT_NE(copied_error.message().find(flip.diagnosis), std::string::npos)
        << copied_error;
    EXPECT_EQ(first_error(mapped).message(), copied_error.message());
  }
  EXPECT_EQ(MappedFile::live_mappings(), 0u);
}

TEST_F(FaultInjectionTest, MappedOpenFaultsFailCleanlyWithoutLeaks) {
  // The mapped open path crosses three syscalls of its own — open, mmap,
  // close — before a single image byte is parsed. Each must fail as a
  // clean Status naming the file, with no fd or mapping left behind.
  PartitionSpec spec;
  spec.scheme = PartitionSpec::Scheme::kKeyRange;
  spec.partitions = 4;
  ASSERT_TRUE(SaveErelFile(BigCatalog(), path_, spec).ok());

  LoadOptions mapped;
  mapped.map = LoadOptions::Map::kAlways;
  const uint64_t live_before = MappedFile::live_mappings();

  for (fault::Site site :
       {fault::Site::kOpen, fault::Site::kMmap, fault::Site::kClose}) {
    fault::Arm(site, 1);
    auto loaded = LoadErelFile(path_, mapped);
    fault::Disarm();
    ASSERT_FALSE(loaded.ok()) << "site " << static_cast<int>(site);
    EXPECT_NE(loaded.status().message().find(path_), std::string::npos)
        << loaded.status();
    EXPECT_EQ(MappedFile::live_mappings(), live_before)
        << "faulted open leaked a mapping";
  }

  // Disarmed, the same load maps — and the mapping is released the
  // moment the last relation borrowing it goes away.
  {
    LoadInfo info;
    auto loaded = LoadErelFile(path_, mapped, &info);
    ASSERT_TRUE(loaded.ok()) << loaded.status();
    EXPECT_TRUE(info.mapped);
    EXPECT_EQ(info.partitions, 4u);
    EXPECT_GT(MappedFile::live_mappings(), live_before);
  }
  EXPECT_EQ(MappedFile::live_mappings(), live_before);
}

TEST_F(FaultInjectionTest, AllocationFaultsDuringMappedOpenFailCleanly) {
  // The mapped open's allocations (mapping bookkeeping, partition
  // manifests, deferred-verification state) must fail as a clean Status
  // with the mapping unwound, exactly like the copied loader's sweep.
  PartitionSpec spec;
  spec.scheme = PartitionSpec::Scheme::kHash;
  spec.partitions = 4;
  ASSERT_TRUE(SaveErelFile(BigCatalog(), path_, spec).ok());

  LoadOptions mapped;
  mapped.map = LoadOptions::Map::kAlways;
  const uint64_t live_before = MappedFile::live_mappings();

  fault::Arm(fault::Site::kAllocation, 0);
  ASSERT_TRUE(LoadErelFile(path_, mapped).ok());
  const uint64_t alloc_hits = fault::Hits();
  fault::Disarm();
  ASSERT_GT(alloc_hits, 0u);

  const std::vector<uint64_t> picks = {1,
                                       2,
                                       3,
                                       5,
                                       alloc_hits / 4,
                                       alloc_hits / 2,
                                       alloc_hits - 1,
                                       alloc_hits};
  for (uint64_t nth : picks) {
    if (nth == 0) continue;
    {
      fault::Arm(fault::Site::kAllocation, nth);
      auto loaded = LoadErelFile(path_, mapped);
      fault::Disarm();
      if (!loaded.ok()) {
        EXPECT_EQ(loaded.status().code(), StatusCode::kExecError)
            << loaded.status();
      }
      // A successful load legitimately holds the mapping until `loaded`
      // dies — the leak check belongs after this scope either way.
    }
    EXPECT_EQ(MappedFile::live_mappings(), live_before)
        << "allocation fault at " << nth << " leaked a mapping";
  }
}

}  // namespace
}  // namespace evident
