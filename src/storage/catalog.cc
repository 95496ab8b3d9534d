#include "storage/catalog.h"

#include <utility>

namespace evident {

// --- CatalogSnapshot ------------------------------------------------------

Result<DomainPtr> CatalogSnapshot::GetDomain(const std::string& name) const {
  auto it = domains_.find(name);
  if (it == domains_.end()) {
    return Status::NotFound("no domain '" + name + "' in catalog");
  }
  return it->second;
}

bool CatalogSnapshot::HasDomain(const std::string& name) const {
  return domains_.count(name) > 0;
}

std::vector<std::string> CatalogSnapshot::DomainNames() const {
  std::vector<std::string> names;
  names.reserve(domains_.size());
  for (const auto& [name, domain] : domains_) names.push_back(name);
  return names;
}

Result<const ExtendedRelation*> CatalogSnapshot::GetRelation(
    const std::string& name) const {
  auto it = relations_.find(name);
  if (it == relations_.end()) {
    return Status::NotFound("no relation '" + name + "' in catalog");
  }
  return it->second.get();
}

Result<std::shared_ptr<const ExtendedRelation>>
CatalogSnapshot::GetRelationShared(const std::string& name) const {
  auto it = relations_.find(name);
  if (it == relations_.end()) {
    return Status::NotFound("no relation '" + name + "' in catalog");
  }
  return it->second;
}

bool CatalogSnapshot::HasRelation(const std::string& name) const {
  return relations_.count(name) > 0;
}

std::vector<std::string> CatalogSnapshot::RelationNames() const {
  std::vector<std::string> names;
  names.reserve(relations_.size());
  for (const auto& [name, relation] : relations_) names.push_back(name);
  return names;
}

// --- Catalog --------------------------------------------------------------

Catalog::Catalog() : current_(std::make_shared<const CatalogSnapshot>()) {}

Catalog::Catalog(const Catalog& other) : current_(other.Snapshot()) {}

Catalog& Catalog::operator=(const Catalog& other) {
  if (this == &other) return *this;
  auto snapshot = other.Snapshot();
  std::lock_guard<std::mutex> lock(mu_);
  current_ = std::move(snapshot);
  return *this;
}

Catalog::Catalog(Catalog&& other) noexcept : current_(other.Snapshot()) {}

Catalog& Catalog::operator=(Catalog&& other) noexcept {
  if (this == &other) return *this;
  auto snapshot = other.Snapshot();
  std::lock_guard<std::mutex> lock(mu_);
  current_ = std::move(snapshot);
  return *this;
}

std::shared_ptr<const CatalogSnapshot> Catalog::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return current_;
}

uint64_t Catalog::version() const {
  std::lock_guard<std::mutex> lock(mu_);
  return current_->version_;
}

std::shared_ptr<CatalogSnapshot> Catalog::CloneLocked() const {
  auto next = std::make_shared<CatalogSnapshot>(*current_);
  next->version_ = current_->version_ + 1;
  return next;
}

void Catalog::PublishLocked(std::shared_ptr<CatalogSnapshot> next) {
  current_ = std::move(next);
}

Status Catalog::AddDomain(CatalogSnapshot* snapshot, const DomainPtr& domain,
                          bool* changed) {
  if (domain == nullptr) {
    return Status::InvalidArgument("cannot register a null domain");
  }
  auto it = snapshot->domains_.find(domain->name());
  if (it != snapshot->domains_.end()) {
    if (it->second->Equals(*domain)) return Status::OK();
    return Status::AlreadyExists("domain '" + domain->name() +
                                 "' already registered with different values");
  }
  snapshot->domains_.emplace(domain->name(), domain);
  if (changed != nullptr) *changed = true;
  return Status::OK();
}

Status Catalog::RegisterDomain(const DomainPtr& domain) {
  std::lock_guard<std::mutex> lock(mu_);
  auto next = CloneLocked();
  bool changed = false;
  EVIDENT_RETURN_NOT_OK(AddDomain(next.get(), domain, &changed));
  // Re-registering an equal domain is a no-op: no new version.
  if (changed) PublishLocked(std::move(next));
  return Status::OK();
}

Result<DomainPtr> Catalog::GetDomain(const std::string& name) const {
  return Snapshot()->GetDomain(name);
}

bool Catalog::HasDomain(const std::string& name) const {
  return Snapshot()->HasDomain(name);
}

std::vector<std::string> Catalog::DomainNames() const {
  return Snapshot()->DomainNames();
}

Status Catalog::RegisterRelation(ExtendedRelation relation, bool replace) {
  if (relation.name().empty()) {
    return Status::InvalidArgument("relation must be named to be registered");
  }
  if (relation.schema() == nullptr) {
    return Status::InvalidArgument("relation '" + relation.name() +
                                   "' has no schema");
  }
  auto shared = std::make_shared<const ExtendedRelation>(std::move(relation));

  std::lock_guard<std::mutex> lock(mu_);
  if (!replace && current_->relations_.count(shared->name()) > 0) {
    return Status::AlreadyExists("relation '" + shared->name() +
                                 "' already registered");
  }
  // All mutations go into one working copy so a multi-domain schema still
  // publishes exactly one new version (or none, on error).
  auto next = CloneLocked();
  for (const AttributeDef& attr : shared->schema()->attributes()) {
    if (attr.domain != nullptr) {
      EVIDENT_RETURN_NOT_OK(AddDomain(next.get(), attr.domain, nullptr));
    }
  }
  next->relations_.insert_or_assign(shared->name(), std::move(shared));
  PublishLocked(std::move(next));
  return Status::OK();
}

Result<const ExtendedRelation*> Catalog::GetRelation(
    const std::string& name) const {
  // The raw pointer's lifetime rides on the relation object, which the
  // current snapshot pins; see the class comment for the contract.
  return Snapshot()->GetRelation(name);
}

bool Catalog::HasRelation(const std::string& name) const {
  return Snapshot()->HasRelation(name);
}

std::vector<std::string> Catalog::RelationNames() const {
  return Snapshot()->RelationNames();
}

size_t Catalog::RelationCount() const { return Snapshot()->RelationCount(); }

}  // namespace evident
