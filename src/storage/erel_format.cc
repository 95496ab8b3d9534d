#include "storage/erel_format.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <new>
#include <sstream>
#include <vector>

#include "common/str_util.h"
#include "core/column_store.h"
#include "core/fault_injection.h"
#include "storage/erel_v3.h"
#include "storage/mmap_file.h"
#include "text/evidence_literal.h"

namespace evident {

namespace {

constexpr char kColumnImageMagic[] = "EVCIMG";  // + 2 version digits

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

Result<Catalog> ReadErel(const std::string& text,
                         const std::string& source) {
  if (text.compare(0, 6, kColumnImageMagic) == 0) {
    // Owned parse: columns are decoded and every partition verified
    // eagerly, so the catalog outlives `text`. Any version other than
    // 03 is rejected there with a ParseError.
    return ReadErelColumnImageV3(text.data(), text.size(), source,
                                 /*mapping=*/nullptr);
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
    EVIDENT_RETURN_NOT_OK(rel->columns().EnsureAllVerified());
  }
  return Status::OK();
}

}  // namespace

Status SaveErelFile(const Catalog& catalog, const std::string& path,
                    const PartitionSpec& partitioning) {
  // Serialize fully in memory first: a failure there leaves no
  // file-system trace at all, and the write loop never blocks on
  // serialization. The only allocations between opening and renaming the
  // temporary are error-message construction on a failure path (after
  // the injector has disarmed), so catching here can leak neither a
  // descriptor nor the temporary file.
  try {
    EVIDENT_RETURN_NOT_OK(VerifyBeforeSave(catalog));
    return CommitErelBlob(WriteErelColumnImageV3(catalog, partitioning),
                          path);
  } catch (const std::bad_alloc&) {
    return Status::ExecError("out of memory saving '" + path + "'");
  }
}

namespace {

/// Fills the caller's LoadInfo from a loaded catalog: relation count and
/// total partition count (a relation without partition metadata — a
/// text load — counts as one).
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
      // Not a v3 image (text, or a column image of another version that
      // the copied path rejects): fall through to the copied path.
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
    FillLoadInfo(info, *catalog, /*mapped=*/false,
                 data.compare(0, 6, kColumnImageMagic) == 0 ? "column-image-v3"
                                                            : "text");
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
