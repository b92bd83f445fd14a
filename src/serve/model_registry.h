// Named, immutable, ref-counted fitted models.
//
// The registry is the serving system's source of truth for "which estimator
// answers queries under this name". Models are immutable once registered —
// DensityEstimator evaluation is const and thread-safe — so concurrency
// reduces to ref-counting: Get hands out a shared_ptr, and a hot-swap or
// evict only unlinks the name. In-flight requests holding the old pointer
// finish on the old model; the last reference frees it. No request ever
// observes a half-replaced model.
//
// Registration is either programmatic (Put an estimator you built in
// process — KDE, grid, anything implementing DensityEstimator)
// or from a saved .dbsk file (LoadKdeFile), which is the daemon's path:
// one expensive fitting pass elsewhere, then every server re-reads the
// tiny model file.

#ifndef DBS_SERVE_MODEL_REGISTRY_H_
#define DBS_SERVE_MODEL_REGISTRY_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "density/density_estimator.h"
#include "util/status.h"

namespace dbs::serve {

// A registered model plus its descriptive metadata.
struct ModelEntry {
  std::string name;
  // What the model is, for humans ("kde", "grid", ...).
  std::string kind;
  int dim = 0;
  int64_t total_mass = 0;
  // Bumped every time the name is re-registered (hot-swap counter).
  uint64_t generation = 1;
};

class ModelRegistry {
 public:
  ModelRegistry() = default;

  ModelRegistry(const ModelRegistry&) = delete;
  ModelRegistry& operator=(const ModelRegistry&) = delete;

  // Registers `model` under `name`, replacing any existing model of that
  // name (hot-swap). The registry shares ownership; callers may keep their
  // reference. `kind` is a short human-readable tag.
  [[nodiscard]] Status Put(const std::string& name,
             std::shared_ptr<const density::DensityEstimator> model,
             const std::string& kind = "estimator");

  // Loads a .dbsk KDE model from `path` and registers it under `name`.
  [[nodiscard]] Status LoadKdeFile(const std::string& name, const std::string& path);

  // Looks up a model by name. The returned pointer keeps the model alive
  // even if it is concurrently evicted or hot-swapped.
  [[nodiscard]] Result<std::shared_ptr<const density::DensityEstimator>> Get(
      const std::string& name) const;

  // Unlinks the name. In-flight holders of the model keep it alive.
  [[nodiscard]] Status Evict(const std::string& name);

  // Snapshot of the registered models, sorted by name.
  std::vector<ModelEntry> List() const;

  int64_t size() const;

 private:
  struct Slot {
    std::shared_ptr<const density::DensityEstimator> model;
    ModelEntry entry;
  };

  // Guards slots_. Leaf lock: lookups copy the shared_ptr out and release
  // before any estimator call, so evaluation never runs under the lock.
  mutable std::mutex mu_;
  std::unordered_map<std::string, Slot> slots_;
};

}  // namespace dbs::serve

#endif  // DBS_SERVE_MODEL_REGISTRY_H_
