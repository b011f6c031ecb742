// Per-thread sharded event counters — the contention-free half of the
// observability layer (obs/obs.hpp holds the registry and serializers).
//
// Design (DESIGN.md §12):
//  * One cacheline-isolated shard per thread. A shard is strictly
//    single-writer: the owning thread bumps its slots with a relaxed
//    load+store pair (a plain `add` instruction after optimization — no
//    lock-prefixed RMW on the hot path), while snapshot readers sum the
//    same atomics with relaxed loads. Coherence makes each slot's value
//    monotone under a single writer, so a snapshot taken mid-run is a
//    consistent *lower bound* per counter and exact at quiescence.
//  * Shards are immortal and live on a grow-only lock-free list. A thread
//    acquires a shard on first use (reusing a released one if available)
//    and releases it — values intact — when it exits, so counters are
//    process-monotonic and totals never lose an exited thread's events.
//    The release/acquire handshake on `in_use` publishes the dying
//    thread's final relaxed stores to the adopter ("thread-exit counter
//    adoption", tested in tests/test_obs.cpp).
//
// Counter semantics and the claims they audit are catalogued in
// DESIGN.md §12; the key derived invariant is contains_restarts == 0
// (obs/obs.hpp, Snapshot::contains_restarts).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>

#include "sync/cacheline.hpp"

namespace lot::obs {

/// Every event the trees and the reclamation layer count. Keep in sync
/// with counter_name() below and the DESIGN.md §12 catalogue.
enum class Counter : std::uint16_t {
  // Enum order is shard-slot order. The first eight counters share the
  // shard's first cacheline on purpose: they are the read-path hot set
  // (a contains bumps kTreeDescents + kContainsOps + kContainsHits), so
  // the whole read path touches exactly one line of its shard.

  // -- read-path work (the "contains never restarts" audit) --------------
  kTreeDescents,      // Algorithm 1 invocations (search())
  kLocateMarkBackoffs,// mark-backoff hops inside locate()'s ordering walk

  // -- operations (reconciled 1:1 against recorded histories) ------------
  kContainsOps,       // contains() calls
  kContainsHits,      // ... that returned true
  kGetOps,            // get() calls
  kInsertOps,         // insert() calls
  kInsertSuccess,     // ... that returned true
  kEraseOps,          // erase() calls
  kEraseSuccess,      // ... that returned true
  kRangeOps,          // range() scans that performed a descent
  kRangeKeysReported, // keys handed to a range() sink
  kOrderedLocates,    // first/last_in_range, next, prev descents
  kMinMaxOps,         // min()/max() chain walks (no descent)

  // -- write-path restarts (the paper's §5.1 try-lock discipline) --------
  kInsertRestarts,    // insert re-descents from the root (fallback path)
  kEraseRestarts,     // erase re-descents from the root (fallback path)
  kRemovalLockRetries,// acquire_removal_locks try_lock-failure restarts
  kBalanceRestarts,   // restart_balance invocations (rebalance try_lock)
  kLocateResumes,     // failed write validations resumed in place (no descent)
  kValidationFallbacks,// resume budget exhausted -> full root re-descent

  // -- structure maintenance ---------------------------------------------
  kRotations,         // single rotations applied (a double counts twice)
  kHeightPasses,      // rebalance climb-loop iterations (height recompute)
  kEraseRelocations,  // two-children erases relocating the successor
  kEraseLogical,      // two-children erases downgraded to `deleted` (LR)
  kInsertRevives,     // inserts reviving a zombie in place (LR)
  kPurgeAttempts,     // try_purge attempts that reached the lock phase
  kPurgeSuccesses,    // ... that physically removed the zombie

  // -- MVCC snapshot machinery (DESIGN.md §16) ---------------------------
  kSnapshotAcquires,  // snapshot() epoch draws (no descent of their own)
  kVersionsRetired,   // version records retired (truncation, node death)
  kVersionChainWalks, // version-chain resolutions (one per node resolved)
  kLimboParks,        // unlinks parked in limbo under a live snapshot
  kLimboFolds,        // snapshot reads that took the limbo lock to fold

  kCount
};

inline constexpr std::size_t kCounterCount =
    static_cast<std::size_t>(Counter::kCount);

constexpr const char* counter_name(Counter c) {
  switch (c) {
    case Counter::kContainsOps:        return "contains_ops";
    case Counter::kContainsHits:       return "contains_hits";
    case Counter::kGetOps:             return "get_ops";
    case Counter::kInsertOps:          return "insert_ops";
    case Counter::kInsertSuccess:      return "insert_success";
    case Counter::kEraseOps:           return "erase_ops";
    case Counter::kEraseSuccess:       return "erase_success";
    case Counter::kRangeOps:           return "range_ops";
    case Counter::kRangeKeysReported:  return "range_keys_reported";
    case Counter::kOrderedLocates:     return "ordered_locates";
    case Counter::kMinMaxOps:          return "minmax_ops";
    case Counter::kTreeDescents:       return "tree_descents";
    case Counter::kLocateMarkBackoffs: return "locate_mark_backoffs";
    case Counter::kInsertRestarts:     return "insert_restarts";
    case Counter::kEraseRestarts:      return "erase_restarts";
    case Counter::kRemovalLockRetries: return "removal_lock_retries";
    case Counter::kBalanceRestarts:    return "balance_restarts";
    case Counter::kLocateResumes:      return "locate_resumes";
    case Counter::kValidationFallbacks:return "validation_fallbacks";
    case Counter::kRotations:          return "rotations";
    case Counter::kHeightPasses:       return "height_passes";
    case Counter::kEraseRelocations:   return "erase_relocations";
    case Counter::kEraseLogical:       return "erase_logical";
    case Counter::kInsertRevives:      return "insert_revives";
    case Counter::kPurgeAttempts:      return "purge_attempts";
    case Counter::kPurgeSuccesses:     return "purge_successes";
    case Counter::kSnapshotAcquires:   return "snapshot_acquires";
    case Counter::kVersionsRetired:    return "versions_retired";
    case Counter::kVersionChainWalks:  return "version_chain_walks";
    case Counter::kLimboParks:         return "limbo_parks";
    case Counter::kLimboFolds:         return "limbo_folds";
    case Counter::kCount:              break;
  }
  return "?";
}

/// One thread's counter block, alone on its cache lines. Single-writer
/// (the owner); see the header comment for why the adds are load+store,
/// not fetch_add.
struct alignas(sync::kCacheLineSize) CounterShard {
  std::atomic<std::uint64_t> v[kCounterCount];
  std::atomic<bool> in_use{false};
  CounterShard* next = nullptr;  // immutable once the shard is published

  CounterShard() {
    for (auto& c : v) c.store(0, std::memory_order_relaxed);
  }
};

namespace detail {

inline std::atomic<CounterShard*>& shard_head() {
  // Function-local static: the list stays reachable from a root for
  // LeakSanitizer, and needs no global-destruction ordering.
  static std::atomic<CounterShard*> head{nullptr};
  return head;
}

inline CounterShard* acquire_shard() {
  auto& head = shard_head();
  // Prefer adopting a shard released by an exited thread; its counters
  // are kept (totals are process-monotonic), we only take over writing.
  for (CounterShard* s = head.load(std::memory_order_acquire); s != nullptr;
       s = s->next) {
    bool expected = false;
    if (!s->in_use.load(std::memory_order_relaxed) &&
        s->in_use.compare_exchange_strong(expected, true,
                                          std::memory_order_acq_rel)) {
      return s;
    }
  }
  auto* s = new CounterShard();
  s->in_use.store(true, std::memory_order_relaxed);
  CounterShard* old = head.load(std::memory_order_relaxed);
  do {
    s->next = old;
  } while (!head.compare_exchange_weak(old, s, std::memory_order_release,
                                       std::memory_order_relaxed));
  return s;
}

// Thread-exit hook: releasing (not zeroing) the shard makes it adoptable.
// The release store pairs with the adopter's acquire CAS, publishing the
// dying thread's final relaxed counter stores.
struct ShardReleaser {
  CounterShard* shard = nullptr;
  ~ShardReleaser() {
    if (shard != nullptr) shard->in_use.store(false, std::memory_order_release);
  }
};

// Cold path: acquires the shard and registers the thread-exit release.
// The dtor-bearing thread_local lives here so only the first call per
// thread pays the TLS-wrapper (guard + __cxa_thread_atexit) machinery.
inline CounterShard* acquire_tls_shard() {
  thread_local ShardReleaser tls;
  tls.shard = acquire_shard();
  return tls.shard;
}

inline CounterShard& tls_shard() {
  // Trivially-destructible cache: access compiles to a direct TLS load
  // (no wrapper call), which is what the per-op hooks actually hit.
  thread_local CounterShard* cached = nullptr;
  if (cached == nullptr) cached = acquire_tls_shard();
  return *cached;
}

}  // namespace detail

/// The per-thread counting handle: a shard pointer. Grab one per operation
/// (obs::tls()) and bump several counters without re-resolving the TLS.
class Tls {
 public:
  void add(Counter c, std::uint64_t n = 1) const {
    auto& slot = shard_->v[static_cast<std::size_t>(c)];
    // Single-writer: a relaxed load+store pair is exact and avoids the
    // lock-prefixed RMW a fetch_add would cost on the hot path.
    slot.store(slot.load(std::memory_order_relaxed) + n,
               std::memory_order_relaxed);
  }

 private:
  explicit Tls(CounterShard* s) : shard_(s) {}
  CounterShard* shard_;
  friend inline Tls tls();
};

inline Tls tls() { return Tls(&detail::tls_shard()); }

/// Single-increment convenience for cold sites.
inline void count(Counter c, std::uint64_t n = 1) { tls().add(c, n); }

/// Sum of one counter across every shard, live or released.
inline std::uint64_t counter_total(Counter c) {
  std::uint64_t sum = 0;
  for (const CounterShard* s =
           detail::shard_head().load(std::memory_order_acquire);
       s != nullptr; s = s->next) {
    sum += s->v[static_cast<std::size_t>(c)].load(std::memory_order_relaxed);
  }
  return sum;
}

/// Shards ever allocated (== peak concurrent counting threads). Exposed
/// for the adoption test.
inline std::size_t counter_shards() {
  std::size_t n = 0;
  for (const CounterShard* s =
           detail::shard_head().load(std::memory_order_acquire);
       s != nullptr; s = s->next) {
    ++n;
  }
  return n;
}

/// Zeroes every shard. Only meaningful at quiescence (no concurrent
/// writers); concurrent increments may be lost, never corrupted.
inline void reset_counters() {
  for (CounterShard* s = detail::shard_head().load(std::memory_order_acquire);
       s != nullptr; s = s->next) {
    for (auto& c : s->v) c.store(0, std::memory_order_relaxed);
  }
}

}  // namespace lot::obs
