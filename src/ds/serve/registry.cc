#include "ds/serve/registry.h"

#include <algorithm>
#include <functional>
#include <utility>

namespace ds::serve {

SketchRegistry::SketchRegistry(RegistryOptions options)
    : options_(std::move(options)) {
  options_.num_shards = std::max<size_t>(options_.num_shards, 1);
  shard_budget_ = options_.byte_budget == 0
                      ? 0
                      : std::max<size_t>(
                            options_.byte_budget / options_.num_shards, 1);
  shards_ = std::vector<Shard>(options_.num_shards);
}

std::string SketchRegistry::PathFor(const std::string& name) const {
  return options_.directory + "/" + name + ".sketch";
}

Status SketchRegistry::ValidateName(const std::string& name) {
  if (name.empty()) {
    return Status::InvalidArgument("empty sketch name");
  }
  if (name.find('/') != std::string::npos ||
      name.find('\\') != std::string::npos ||
      name.find("..") != std::string::npos) {
    return Status::InvalidArgument(
        "invalid sketch name '" + name +
        "': must not contain '/', '\\', or '..'");
  }
  return Status::OK();
}

SketchRegistry::Shard& SketchRegistry::ShardFor(
    const std::string& name) const {
  return shards_[std::hash<std::string>{}(name) % shards_.size()];
}

std::shared_ptr<const sketch::DeepSketch> SketchRegistry::InsertLocked(
    Shard* shard, const std::string& name,
    std::shared_ptr<const sketch::DeepSketch> sketch, size_t bytes) {
  auto it = shard->entries.find(name);
  if (it != shard->entries.end()) {
    // Replace in place; keep the LRU slot, just refresh it.
    shard->bytes -= it->second.bytes;
    shard->lru.erase(it->second.lru_it);
    shard->entries.erase(it);
  }
  shard->lru.push_front(name);
  shard->entries.emplace(name, Entry{sketch, bytes, shard->lru.begin()});
  shard->bytes += bytes;
  inserts_.Add();
  while (shard_budget_ != 0 && shard->bytes > shard_budget_ &&
         shard->lru.size() > 1) {
    const std::string& victim = shard->lru.back();
    auto vit = shard->entries.find(victim);
    shard->bytes -= vit->second.bytes;
    shard->entries.erase(vit);
    shard->lru.pop_back();
    evictions_.Add();
  }
  return sketch;
}

Result<std::shared_ptr<const sketch::DeepSketch>> SketchRegistry::Get(
    const std::string& name) {
  return Get(name, nullptr);
}

Result<std::shared_ptr<const sketch::DeepSketch>> SketchRegistry::Get(
    const std::string& name, uint64_t* epoch) {
  DS_RETURN_NOT_OK(ValidateName(name));
  Shard& shard = ShardFor(name);
  auto epoch_locked = [&shard, &name]() DS_REQUIRES(shard.mu) {
    auto it = shard.epochs.find(name);
    return it == shard.epochs.end() ? uint64_t{0} : it->second;
  };
  {
    util::MutexLock lock(shard.mu);
    auto it = shard.entries.find(name);
    if (it != shard.entries.end()) {
      hits_.Add();
      shard.lru.splice(shard.lru.begin(), shard.lru, it->second.lru_it);
      if (epoch != nullptr) *epoch = epoch_locked();
      return it->second.sketch;
    }
  }
  misses_.Add();
  if (options_.directory.empty()) {
    return Status::NotFound("sketch '" + name + "' is not loaded");
  }
  // Load outside the lock: a slow disk read must not block the shard.
  auto loaded = sketch::DeepSketch::Load(PathFor(name));
  if (!loaded.ok()) {
    load_failures_.Add();
    return loaded.status();
  }
  loads_.Add();
  const size_t bytes = loaded->SerializedSize();
  auto sketch = std::make_shared<const sketch::DeepSketch>(
      std::move(loaded).value());
  util::MutexLock lock(shard.mu);
  if (epoch != nullptr) *epoch = epoch_locked();
  auto it = shard.entries.find(name);
  if (it != shard.entries.end()) {
    // A concurrent loader beat us; use the resident copy.
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second.lru_it);
    return it->second.sketch;
  }
  return InsertLocked(&shard, name, std::move(sketch), bytes);
}

std::shared_ptr<const sketch::DeepSketch> SketchRegistry::Put(
    const std::string& name, sketch::DeepSketch sketch) {
  const size_t bytes = sketch.SerializedSize();
  auto shared =
      std::make_shared<const sketch::DeepSketch>(std::move(sketch));
  Shard& shard = ShardFor(name);
  util::MutexLock lock(shard.mu);
  ++shard.epochs[name];
  return InsertLocked(&shard, name, std::move(shared), bytes);
}

bool SketchRegistry::Invalidate(const std::string& name) {
  Shard& shard = ShardFor(name);
  util::MutexLock lock(shard.mu);
  // The epoch bumps even when the name is not resident: Invalidate after
  // rewriting the file on disk must retire (name, epoch) cache keys even if
  // the entry was already evicted.
  ++shard.epochs[name];
  auto it = shard.entries.find(name);
  if (it == shard.entries.end()) return false;
  shard.bytes -= it->second.bytes;
  shard.lru.erase(it->second.lru_it);
  shard.entries.erase(it);
  return true;
}

uint64_t SketchRegistry::Epoch(const std::string& name) const {
  Shard& shard = ShardFor(name);
  util::MutexLock lock(shard.mu);
  auto it = shard.epochs.find(name);
  return it == shard.epochs.end() ? 0 : it->second;
}

bool SketchRegistry::Contains(const std::string& name) const {
  Shard& shard = ShardFor(name);
  util::MutexLock lock(shard.mu);
  return shard.entries.count(name) > 0;
}

std::vector<std::string> SketchRegistry::CachedSketches() const {
  std::vector<std::string> names;
  for (Shard& shard : shards_) {
    util::MutexLock lock(shard.mu);
    for (const auto& [name, _] : shard.entries) names.push_back(name);
  }
  return names;
}

size_t SketchRegistry::bytes_in_use() const {
  size_t total = 0;
  for (Shard& shard : shards_) {
    util::MutexLock lock(shard.mu);
    total += shard.bytes;
  }
  return total;
}

CacheStats SketchRegistry::stats() const {
  CacheStats s;
  s.hits = hits_.value();
  s.misses = misses_.value();
  s.loads = loads_.value();
  s.load_failures = load_failures_.value();
  s.evictions = evictions_.value();
  s.inserts = inserts_.value();
  s.bytes_in_use = bytes_in_use();
  size_t n = 0;
  for (Shard& shard : shards_) {
    util::MutexLock lock(shard.mu);
    n += shard.entries.size();
  }
  s.sketches_loaded = n;
  return s;
}

}  // namespace ds::serve
