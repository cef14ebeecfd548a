// The lock-order manifest: every ds::util::Mutex that can be held
// concurrently with another is named here, with a numeric *rank* that fixes
// its position in the global acquisition order.
//
// Rule: a thread may only acquire a mutex whose rank is STRICTLY GREATER
// than the rank of every mutex it already holds. Outer locks (taken first,
// e.g. shutdown serialization) therefore have low ranks; leaf locks (never
// held while taking another) have high ranks. Two mutexes with the same
// rank can never be held together — which is why per-shard locks share one
// rank: "shard mutexes are never held two at a time" becomes checkable.
//
// This table is the single machine-readable source of truth, consumed by
// three enforcement layers (see DESIGN.md §10):
//
//   - compile time:  ds::util::Mutex construction takes a LockRank, so an
//                    unlisted concurrent mutex has nowhere to hide;
//   - runtime:       ds/util/lockdep.h checks every acquisition against the
//                    held-lock stack and the observed acquired-after graph
//                    (armed in tests, TSan builds, and ds_stress), and can
//                    dump the observed graph as lock_order.json;
//   - static:        tools/ds_analyze.cc parses THIS TABLE (the X-macro
//                    below — keep its layout: one X(...) per line) and
//                    cross-checks it against the harvested Mutex
//                    declarations and MutexLock nesting in the sources.
//
// Adding a lock: pick a rank consistent with every code path that can hold
// it together with an existing lock, add an X(...) row, and construct the
// Mutex with the new LockRank. ds_analyze fails if the declaration and the
// table disagree; lockdep aborts (with both acquisition stacks) if reality
// disagrees with the declared order.

#ifndef DS_UTIL_LOCK_ORDER_H_
#define DS_UTIL_LOCK_ORDER_H_

#include <cstddef>

namespace ds::util {

// X(enum_id, rank, class_name, holder) — ranks strictly increase down the
// table. class_name is the stable identity used in lockdep reports and
// lock_order.json; holder documents the declaring member.
//
// Rationale for the ordering (the edges each rank must sit above/below):
//   workload.label.progress  held across the caller's progress callback,
//                        which may take any other lock
//   net.server.stop      held across loop shutdown -> event_loop.tasks
//   serve.server.stop    held while flipping shard stopping -> server.shard
//   sketch.manager...    held across registry Contains -> registry.shard
//   serve.server.shard   worker queues; dropped before ServeBatch, which
//                        takes registry.shard and the cache leaf locks
//   net.server.tenants   held across instrument creation -> obs.registry
//   obs.drift.set        held across per-monitor Report -> obs.drift.monitor
//   test.outer/inner/leaf  reserved for tests (lockdep_test, examples)
#define DS_LOCK_RANK_TABLE(X)                                                  \
  X(kWorkloadLabelProgress, 50, "workload.label.progress",                     \
    "workload::LabelQueries progress_mu")                                      \
  X(kNetServerStop, 100, "net.server.stop", "net::NetServer::stop_mu_")        \
  X(kServeServerStop, 150, "serve.server.stop",                                \
    "serve::SketchServer::stop_mu_")                                           \
  X(kSketchManagerCreating, 200, "sketch.manager.creating",                    \
    "sketch::SketchManager::creating_mu_")                                     \
  X(kServeServerShard, 250, "serve.server.shard",                              \
    "serve::SketchServer::Shard::mu")                                          \
  X(kServeServerDump, 300, "serve.server.dump",                                \
    "serve::SketchServer::dump_mu_")                                           \
  X(kServeRegistryShard, 350, "serve.registry.shard",                          \
    "serve::SketchRegistry::Shard::mu")                                        \
  X(kServeServerStmtCache, 400, "serve.server.stmt_cache",                     \
    "serve::SketchServer::stmt_mu_")                                           \
  X(kServeServerResultCache, 410, "serve.server.result_cache",                 \
    "serve::SketchServer::result_mu_")                                         \
  X(kNetServerTenants, 450, "net.server.tenants",                              \
    "net::NetServer::tenant_mu_")                                              \
  X(kNetAdmissionBuckets, 500, "net.admission.buckets",                        \
    "net::AdmissionController::mu_")                                           \
  X(kNetEventLoopTasks, 550, "net.event_loop.tasks", "net::EventLoop::mu_")    \
  X(kObsDriftSet, 600, "obs.drift.set", "obs::DriftMonitorSet::mu_")           \
  X(kObsDriftMonitor, 620, "obs.drift.monitor",                                \
    "obs::QErrorDriftMonitor::mu_")                                            \
  X(kObsFlightSlow, 650, "obs.flight.slow", "obs::FlightRecorder::slow_mu_")   \
  X(kObsRegistry, 700, "obs.registry", "obs::Registry::mu_")                   \
  X(kStressOracles, 750, "stress.oracles", "stress::OracleLedger::mu_")        \
  X(kTestOuter, 900, "test.outer", "tests (ad-hoc outer lock)")                \
  X(kTestInner, 930, "test.inner", "tests (ad-hoc inner lock)")                \
  X(kTestLeaf, 960, "test.leaf", "tests (ad-hoc leaf lock)")

/// The rank itself is the enum value, so the enum and the table cannot
/// drift apart.
enum class LockRank : int {
#define DS_LOCK_RANK_ENUM_(id, rank, name, holder) id = rank,
  DS_LOCK_RANK_TABLE(DS_LOCK_RANK_ENUM_)
#undef DS_LOCK_RANK_ENUM_
};

/// One row of the manifest. Also serves as the runtime "lock class"
/// descriptor: every ranked Mutex holds a pointer to its row.
struct LockRankEntry {
  LockRank id;
  int rank;
  const char* name;    // stable identity in reports / lock_order.json
  const char* holder;  // the declaring member, for humans
};

inline constexpr LockRankEntry kLockRankTable[] = {
#define DS_LOCK_RANK_ROW_(id, rank, name, holder) \
  {LockRank::id, rank, name, holder},
    DS_LOCK_RANK_TABLE(DS_LOCK_RANK_ROW_)
#undef DS_LOCK_RANK_ROW_
};

inline constexpr size_t kNumLockRanks =
    sizeof(kLockRankTable) / sizeof(kLockRankTable[0]);

/// The manifest row for `rank`; null only for a LockRank value that is not
/// in the table (impossible for in-range enum constants).
inline constexpr const LockRankEntry* LockRankInfo(LockRank rank) {
  for (size_t i = 0; i < kNumLockRanks; ++i) {
    if (kLockRankTable[i].id == rank) return &kLockRankTable[i];
  }
  return nullptr;
}

/// Dense [0, kNumLockRanks) index of a table row — the node id in lockdep's
/// acquired-after adjacency matrix.
inline constexpr size_t LockRankIndex(const LockRankEntry* entry) {
  return static_cast<size_t>(entry - kLockRankTable);
}

}  // namespace ds::util

#endif  // DS_UTIL_LOCK_ORDER_H_
