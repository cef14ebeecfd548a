// SketchRegistry: a thread-safe, byte-budgeted cache of loaded sketches.
//
// This replaces SketchManager's unbounded single-threaded std::map cache for
// serving: lookups are sharded (one mutex + LRU list per shard, keyed by
// name hash) so concurrent Get() calls on different sketches do not contend,
// and residency is bounded by a serialized-size byte budget with per-shard
// LRU eviction. Sketches are handed out as shared_ptr<const DeepSketch>:
// eviction only drops the registry's reference, so in-flight estimates keep
// their sketch alive, and const DeepSketch estimation is itself thread-safe
// (see deep_sketch.h).
//
// Names are untrusted: they arrive verbatim from the network front-end's
// POST /estimate and binary ESTIMATE frames, and Get() joins them into a
// filesystem path. ValidateName rejects anything that could escape
// `directory` (path separators, "..", empty) before any disk access.
//
// Each name also carries a monotonic *epoch*, bumped by every Put and every
// successful Invalidate. (name, epoch) identifies one published sketch
// generation, which is what downstream memoization (the server's statement
// and result caches) must key on — a republished sketch under the same name
// gets a new epoch, so stale cached estimates can never be served.

#ifndef DS_SERVE_REGISTRY_H_
#define DS_SERVE_REGISTRY_H_

#include <list>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "ds/serve/metrics.h"
#include "ds/sketch/deep_sketch.h"
#include "ds/util/thread_annotations.h"

namespace ds::serve {

struct RegistryOptions {
  /// Directory holding <name>.sketch files; Get() loads misses from here.
  /// Empty disables disk loads (Put() is then the only way in).
  std::string directory;

  /// Total budget for resident sketches, measured by DeepSketch's
  /// SerializedSize (the paper's footprint metric). The budget is split
  /// evenly across shards; each shard evicts its least-recently-used
  /// sketches when over its share. 0 means unbounded. A single sketch
  /// larger than a shard's share is still admitted (it becomes the shard's
  /// only resident entry).
  size_t byte_budget = 0;

  /// Lock striping width. More shards, less contention; clamped to >= 1.
  size_t num_shards = 8;

};

class SketchRegistry {
 public:
  explicit SketchRegistry(RegistryOptions options);

  SketchRegistry(const SketchRegistry&) = delete;
  SketchRegistry& operator=(const SketchRegistry&) = delete;

  /// Rejects names that could escape `directory` once joined into a path
  /// by PathFor: empty names and names containing '/', '\', or "..".
  /// InvalidArgument on rejection.
  static Status ValidateName(const std::string& name);

  /// Returns the cached sketch, loading it from `directory` on a miss.
  /// Concurrent misses on the same name may both load; one copy wins, the
  /// loser is discarded (loads are idempotent reads). The name is validated
  /// first (see ValidateName) — this is the boundary where untrusted wire
  /// names meet the filesystem.
  Result<std::shared_ptr<const sketch::DeepSketch>> Get(
      const std::string& name);

  /// Get() that additionally reports the name's publication epoch, read
  /// under the same shard lock as the cache lookup. `epoch` may be null.
  Result<std::shared_ptr<const sketch::DeepSketch>> Get(
      const std::string& name, uint64_t* epoch);

  /// Inserts (or replaces) a sketch under `name` and returns the shared
  /// handle. Triggers eviction if the shard goes over budget.
  std::shared_ptr<const sketch::DeepSketch> Put(const std::string& name,
                                                sketch::DeepSketch sketch);

  /// Drops `name` from the cache (the file, if any, stays on disk).
  /// Returns whether it was resident. Always bumps the name's epoch — even
  /// when not resident — so "rewrite file, then Invalidate" retires stale
  /// (name, epoch) cache keys regardless of eviction timing; the next Get()
  /// re-reads the file as a new generation.
  bool Invalidate(const std::string& name);

  /// The name's publication epoch: 0 until the first Put/Invalidate, then
  /// monotonically increasing. Epochs survive eviction and disk reloads.
  uint64_t Epoch(const std::string& name) const;

  bool Contains(const std::string& name) const;

  /// Names currently resident, in no particular order.
  std::vector<std::string> CachedSketches() const;

  size_t bytes_in_use() const;
  CacheStats stats() const;

  std::string PathFor(const std::string& name) const;
  const RegistryOptions& options() const { return options_; }

 private:
  struct Entry {
    std::shared_ptr<const sketch::DeepSketch> sketch;
    size_t bytes = 0;
    std::list<std::string>::iterator lru_it;
  };

  struct Shard {
    mutable util::Mutex mu{util::LockRank::kServeRegistryShard};
    std::list<std::string> lru DS_GUARDED_BY(mu);  // front = most recent
    std::unordered_map<std::string, Entry> entries DS_GUARDED_BY(mu);
    size_t bytes DS_GUARDED_BY(mu) = 0;
    // Publication epochs outlive the entries (eviction must not reset
    // them, or a downstream cache keyed on (name, epoch) could collide
    // with a pre-eviction generation).
    std::unordered_map<std::string, uint64_t> epochs DS_GUARDED_BY(mu);
  };

  Shard& ShardFor(const std::string& name) const;

  /// Inserts under the shard lock, evicting LRU entries (never `name`
  /// itself) while the shard exceeds its budget share.
  std::shared_ptr<const sketch::DeepSketch> InsertLocked(
      Shard* shard, const std::string& name,
      std::shared_ptr<const sketch::DeepSketch> sketch, size_t bytes)
      DS_REQUIRES(shard->mu);

  RegistryOptions options_;
  size_t shard_budget_ = 0;  // byte_budget / num_shards (0 = unbounded)
  mutable std::vector<Shard> shards_;

  Counter hits_, misses_, loads_, load_failures_, evictions_, inserts_;
};

}  // namespace ds::serve

#endif  // DS_SERVE_REGISTRY_H_
