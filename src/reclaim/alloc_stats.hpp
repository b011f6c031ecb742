// Global allocation counters used by the memory-footprint experiments
// (DESIGN.md ablation A2: on-time deletion vs "zombie" logical removal).
#pragma once

#include <atomic>
#include <cstdint>
#include <new>
#include <utility>

namespace lot::reclaim {

struct AllocStats {
  static std::atomic<std::uint64_t>& allocated() {
    static std::atomic<std::uint64_t> v{0};
    return v;
  }
  static std::atomic<std::uint64_t>& freed() {
    static std::atomic<std::uint64_t> v{0};
    return v;
  }

  static std::uint64_t live() {
    return allocated().load(std::memory_order_relaxed) -
           freed().load(std::memory_order_relaxed);
  }

  static void reset() {
    allocated().store(0, std::memory_order_relaxed);
    freed().store(0, std::memory_order_relaxed);
  }
};

/// Point-in-time copy of the global pool counters (see PoolStats). Plain
/// integers so it can be embedded in other snapshot structs
/// (EbrDomain::Stats) and compared across checkpoints in tests.
struct PoolSnapshot {
  std::uint64_t slabs = 0;            // 64 KiB slabs carved from chunks
  std::uint64_t huge_chunks = 0;      // 2 MiB chunks whose MADV_HUGEPAGE took
  std::uint64_t allocs = 0;           // slots handed out (excludes fallback)
  std::uint64_t frees = 0;            // slots returned (excludes fallback)
  std::uint64_t remote_frees = 0;     // frees routed via a remote-free stack
  std::uint64_t harvests = 0;         // owner sweeps that drained a remote stack
  std::uint64_t fallback_allocs = 0;  // operator-new fallback allocations
  std::uint64_t fallback_frees = 0;
  std::uint64_t caches_created = 0;   // fresh per-thread caches
  std::uint64_t caches_adopted = 0;   // orphaned caches re-used by new threads

  std::uint64_t live_slots() const { return allocs - frees; }
  /// Operator-new fallback debt still outstanding — a pressure gauge: the
  /// pool is living beyond its slabs for exactly this many nodes.
  std::uint64_t fallback_outstanding() const {
    return fallback_allocs - fallback_frees;
  }
};

/// Global counters for the slab/pool allocator (reclaim/pool.hpp),
/// aggregated across every SizePool instance — the pool-side companion of
/// the node-count counters above. Exported through EbrDomain::stats() so
/// reclamation monitoring sees allocation health in the same snapshot.
struct PoolStats {
#define LOT_POOL_COUNTER(name)                       \
  static std::atomic<std::uint64_t>& name() {        \
    static std::atomic<std::uint64_t> v{0};          \
    return v;                                        \
  }
  LOT_POOL_COUNTER(slabs)
  LOT_POOL_COUNTER(huge_chunks)
  LOT_POOL_COUNTER(allocs)
  LOT_POOL_COUNTER(frees)
  LOT_POOL_COUNTER(remote_frees)
  LOT_POOL_COUNTER(harvests)
  LOT_POOL_COUNTER(fallback_allocs)
  LOT_POOL_COUNTER(fallback_frees)
  LOT_POOL_COUNTER(caches_created)
  LOT_POOL_COUNTER(caches_adopted)
#undef LOT_POOL_COUNTER

  static PoolSnapshot snapshot() {
    PoolSnapshot s;
    s.slabs = slabs().load(std::memory_order_relaxed);
    s.huge_chunks = huge_chunks().load(std::memory_order_relaxed);
    s.allocs = allocs().load(std::memory_order_relaxed);
    s.frees = frees().load(std::memory_order_relaxed);
    s.remote_frees = remote_frees().load(std::memory_order_relaxed);
    s.harvests = harvests().load(std::memory_order_relaxed);
    s.fallback_allocs = fallback_allocs().load(std::memory_order_relaxed);
    s.fallback_frees = fallback_frees().load(std::memory_order_relaxed);
    s.caches_created = caches_created().load(std::memory_order_relaxed);
    s.caches_adopted = caches_adopted().load(std::memory_order_relaxed);
    return s;
  }
};

/// Counted allocation used for all tree nodes so experiments can observe
/// live-node counts without instrumenting every implementation separately.
/// The count moves only after `new` succeeds: a throwing allocation must
/// leave the counters balanced or every OOM would fake a leak.
template <typename T, typename... Args>
T* make_counted(Args&&... args) {
  T* p = new T(std::forward<Args>(args)...);
  AllocStats::allocated().fetch_add(1, std::memory_order_relaxed);
  return p;
}

template <typename T>
void delete_counted(T* p) {
  if (p == nullptr) return;
  AllocStats::freed().fetch_add(1, std::memory_order_relaxed);
  delete p;
}

}  // namespace lot::reclaim
