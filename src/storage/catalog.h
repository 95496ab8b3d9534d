#ifndef EVIDENT_STORAGE_CATALOG_H_
#define EVIDENT_STORAGE_CATALOG_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/result.h"
#include "core/extended_relation.h"

namespace evident {

/// \brief One immutable version of the catalog: the domains and relations
/// that were registered when the version was published.
///
/// Snapshots are refcounted (`std::shared_ptr`) and never mutated after
/// publication, so any number of concurrent queries can read one — and
/// keep reading it while the owning Catalog publishes newer versions.
/// Relations are stored behind `shared_ptr` as well: a republish that
/// replaces one relation shares every other relation's object (and its
/// cached column image, encoded-key arena and statistics) with the
/// previous version instead of copying it.
class CatalogSnapshot {
 public:
  CatalogSnapshot() = default;

  /// \brief Monotonically increasing per-Catalog version number; 0 for
  /// the empty initial snapshot. Plan caches key on (statement, version).
  uint64_t version() const { return version_; }

  Result<DomainPtr> GetDomain(const std::string& name) const;
  bool HasDomain(const std::string& name) const;
  std::vector<std::string> DomainNames() const;

  /// \brief The relation under `name`. The pointer is owned by this
  /// snapshot (shared with sibling versions) and stays valid for the
  /// snapshot's lifetime — pin the snapshot for the duration of use.
  Result<const ExtendedRelation*> GetRelation(const std::string& name) const;
  /// \brief GetRelation with shared ownership: valid even after every
  /// snapshot referencing the relation is gone.
  Result<std::shared_ptr<const ExtendedRelation>> GetRelationShared(
      const std::string& name) const;
  bool HasRelation(const std::string& name) const;
  std::vector<std::string> RelationNames() const;
  size_t RelationCount() const { return relations_.size(); }

  /// \brief Name-ordered iteration without per-name lookups — the
  /// serializers' walk (deterministic output, no copies).
  const std::map<std::string, std::shared_ptr<const ExtendedRelation>>&
  relations() const {
    return relations_;
  }

 private:
  friend class Catalog;

  uint64_t version_ = 0;
  // std::map keeps iteration deterministic for serialization.
  std::map<std::string, DomainPtr> domains_;
  std::map<std::string, std::shared_ptr<const ExtendedRelation>> relations_;
};

/// \brief A named collection of domains and extended relations — the
/// in-memory database the query engine runs against and the unit the
/// .erel format serializes.
///
/// The catalog is a sequence of immutable versions. Readers take the
/// current version with Snapshot() and keep using it for as long as they
/// like; RegisterDomain / RegisterRelation publish a new version
/// copy-on-write (the relation maps share every untouched relation with
/// the previous version). Registration and Snapshot() are safe to call
/// concurrently from any thread; a query that planned against version N
/// is never affected by a republish to version N+1 — this is what makes
/// concurrent sessions over one catalog well-defined.
///
/// The convenience accessors (GetRelation and friends) read the current
/// version. GetRelation's raw pointer remains valid until that relation
/// is *replaced* and every snapshot still referencing it is released;
/// callers that span a possible republish must hold a Snapshot() (the
/// query plan does — see LogicalPlan::snapshot).
class Catalog {
 public:
  Catalog();
  Catalog(const Catalog& other);
  Catalog& operator=(const Catalog& other);
  Catalog(Catalog&& other) noexcept;
  Catalog& operator=(Catalog&& other) noexcept;

  /// \brief Registers a domain; fails on a name clash with a different
  /// structure (re-registering an equal domain is a no-op).
  Status RegisterDomain(const DomainPtr& domain);
  Result<DomainPtr> GetDomain(const std::string& name) const;
  bool HasDomain(const std::string& name) const;
  std::vector<std::string> DomainNames() const;

  /// \brief Registers (or replaces, when `replace`) a relation under its
  /// name; also registers the domains its schema references. Publishes a
  /// new catalog version; in-flight queries keep the version they
  /// started on.
  Status RegisterRelation(ExtendedRelation relation, bool replace = false);
  Result<const ExtendedRelation*> GetRelation(const std::string& name) const;
  bool HasRelation(const std::string& name) const;
  std::vector<std::string> RelationNames() const;
  size_t RelationCount() const;

  /// \brief The current immutable version. Hold the returned pointer to
  /// pin every relation it references across any number of republishes.
  std::shared_ptr<const CatalogSnapshot> Snapshot() const;

  /// \brief The current version number (== Snapshot()->version()).
  uint64_t version() const;

 private:
  /// A mutable working copy of the current snapshot, ready for one
  /// registration; callers mutate it and hand it to Publish.
  std::shared_ptr<CatalogSnapshot> CloneLocked() const;
  void PublishLocked(std::shared_ptr<CatalogSnapshot> next);
  static Status AddDomain(CatalogSnapshot* snapshot, const DomainPtr& domain,
                          bool* changed);

  mutable std::mutex mu_;  // guards current_ (pointer swap only)
  std::shared_ptr<const CatalogSnapshot> current_;
};

}  // namespace evident

#endif  // EVIDENT_STORAGE_CATALOG_H_
