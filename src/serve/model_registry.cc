#include "serve/model_registry.h"

#include <algorithm>
#include <utility>

#include "density/kde.h"
#include "density/kde_io.h"

namespace dbs::serve {

Status ModelRegistry::Put(
    const std::string& name,
    std::shared_ptr<const density::DensityEstimator> model,
    const std::string& kind) {
  if (name.empty()) {
    return Status::InvalidArgument("model name cannot be empty");
  }
  if (model == nullptr) {
    return Status::InvalidArgument("cannot register a null model: " + name);
  }
  ModelEntry entry;
  entry.name = name;
  entry.kind = kind;
  entry.dim = model->dim();
  entry.total_mass = model->total_mass();

  std::lock_guard<std::mutex> lock(mu_);
  auto it = slots_.find(name);
  if (it != slots_.end()) {
    entry.generation = it->second.entry.generation + 1;
    it->second.model = std::move(model);
    it->second.entry = std::move(entry);
  } else {
    slots_.emplace(name, Slot{std::move(model), std::move(entry)});
  }
  return Status::Ok();
}

Status ModelRegistry::LoadKdeFile(const std::string& name,
                                  const std::string& path) {
  auto kde = density::LoadKde(path);
  if (!kde.ok()) return kde.status();
  auto model = std::make_shared<const density::Kde>(std::move(kde).value());
  return Put(name, std::move(model), "kde");
}

Result<std::shared_ptr<const density::DensityEstimator>> ModelRegistry::Get(
    const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = slots_.find(name);
  if (it == slots_.end()) {
    return Status::NotFound("no model registered under '" + name + "'");
  }
  return it->second.model;
}

Status ModelRegistry::Evict(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  if (slots_.erase(name) == 0) {
    return Status::NotFound("no model registered under '" + name + "'");
  }
  return Status::Ok();
}

std::vector<ModelEntry> ModelRegistry::List() const {
  std::vector<ModelEntry> entries;
  {
    std::lock_guard<std::mutex> lock(mu_);
    entries.reserve(slots_.size());
    for (const auto& [name, slot] : slots_) entries.push_back(slot.entry);
  }
  std::sort(entries.begin(), entries.end(),
            [](const ModelEntry& a, const ModelEntry& b) {
              return a.name < b.name;
            });
  return entries;
}

int64_t ModelRegistry::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int64_t>(slots_.size());
}

}  // namespace dbs::serve
