// Per-thread slab/pool node allocator (DESIGN.md §10).
//
// The paper's Java implementation gets node allocation nearly for free: a
// TLAB bump pointer on allocation, and the GC recycles removed nodes
// without any explicit free. Our C++ substitution paid a global
// `operator new`/`delete` on every insert/erase — the dominant cost of the
// update-heavy Table-1 mixes. This pool closes that gap:
//
//  * memory comes in 64 KiB slabs aligned to their own size, so any slot
//    pointer finds its slab header with one mask (`p & ~(kSlabBytes-1)`),
//    jemalloc/mimalloc style — no per-slot header, no lookup table;
//  * slabs are carved from chunks: one slab per chunk while the pool is
//    small, and 2 MiB-aligned 2 MiB chunks advised MADV_HUGEPAGE once it
//    holds kHugeChunkAfterSlabs slabs, so a large tree's descent walks
//    huge pages instead of missing the TLB at every level;
//  * each slab is carved into cacheline-aligned fixed-size slots; a slab
//    belongs to the per-thread cache that carved it;
//  * allocation is a thread-local LIFO free-list pop (or a bump carve from
//    the cache's newest slab) — no atomics on the fast path;
//  * a free from the owning thread pushes back onto the local list; a free
//    from any other thread (the common case under EBR, where whoever
//    advances the epoch frees the backlog) pushes onto the slab's lock-free
//    remote-free *stack*, and the owner harvests those stacks in bulk when
//    its local list runs dry — so every slot eventually returns to the
//    cache that owns its slab;
//  * when a thread exits, its cache (slabs, free list, pending remote
//    frees) is parked on an orphan list and adopted wholesale by the next
//    new thread, mirroring EbrDomain's record recycling;
//  * if slab allocation fails (or a test caps it via set_slab_limit), the
//    pool falls back to a plain aligned `operator new` per object, tracked
//    in a process-global side registry so any free path — including the
//    pool-blind static route_free below — can route those frees back to
//    `operator delete`; with the fallback disabled too, allocate() throws
//    std::bad_alloc — which the insert paths surface *before* taking any
//    lock (the PR-2 strong exception-safety contract).
//
// Reclamation safety: the pool itself imposes no grace period — callers
// free through EbrDomain::retire_via<Alloc>, whose deleter runs only after
// two epoch advances, so a slot can never re-enter a free list while a
// parked Guard could still dereference it (DESIGN.md §10 has the argument).
//
// Debug hardening: freed slots are poisoned — pattern-filled (0xDB) in
// !NDEBUG builds and additionally ASan-poisoned under
// AddressSanitizer — so a use-after-recycle reads garbage (or faults under
// ASan) instead of silently observing the next occupant. The first word of
// a freed slot stays unpoisoned: it carries the free-list link.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <new>
#include <string_view>
#include <utility>
#include <vector>

#include "inject/inject.hpp"
#include "reclaim/alloc_stats.hpp"
#include "sync/cacheline.hpp"

namespace lot::reclaim {

/// Fixed-slot-size pool. One instance serves one object size/alignment —
/// either the per-type process singleton (pool_for<T>() below) or a
/// per-structure instance handed to PoolNodeAlloc (the sharded maps give
/// each shard its own pool so remote-free traffic stays shard-local). The
/// class itself is untyped so the machinery is compiled once, not once per
/// node type.
///
/// Thread safety: allocate()/deallocate() are safe from any thread.
/// Destruction requires quiescence (no outstanding slots, no concurrent
/// calls) — like EbrDomain, a registry keeps thread-exit cleanup from
/// touching a pool that died first.
///
/// Cacheline-aligned because every allocate and free, on every thread,
/// reads the first line (uid_, slot size, poison flag): no hot-written
/// heap neighbour may share it. Left unaligned when the carve pointers
/// grew it, the pool cost the contended 2·10^4-key Table-1 cell, whose
/// pools never reach the huge-chunk threshold, about 6% of its throughput.
class alignas(sync::kCacheLineSize) SizePool {
 public:
  /// Slab size and alignment. Power of two so slot → slab is one mask.
  static constexpr std::size_t kSlabBytes = std::size_t{1} << 16;
  /// Size and alignment of a huge-page chunk: one 2 MiB transparent huge
  /// page, carved into kChunkBytes / kSlabBytes slabs.
  static constexpr std::size_t kChunkBytes = std::size_t{1} << 21;
  /// Slabs the pool must already hold before its chunks grow from one
  /// slab to kChunkBytes: 16 huge chunks' worth, so a chunk's uncarved
  /// tail never exceeds 1/16 of the pool and small pools allocate exactly
  /// one slab at a time.
  static constexpr std::size_t kHugeChunkAfterSlabs =
      16 * (kChunkBytes / kSlabBytes);

  SizePool(std::size_t object_bytes, std::size_t object_align);
  ~SizePool();
  SizePool(const SizePool&) = delete;
  SizePool& operator=(const SizePool&) = delete;

  /// One cacheline-aligned slot of slot_bytes(). Throws std::bad_alloc
  /// when a new slab cannot be had and the fallback is disabled (or the
  /// fallback allocation itself fails); no pool state changes in that case.
  void* allocate();

  /// Returns a slot from any thread. Owner thread: local free-list push.
  /// Other threads: lock-free push onto the slot's slab's remote stack.
  void deallocate(void* p) noexcept;

  /// Pool-blind free: recovers the owning pool from the slab header (one
  /// mask) and routes the slot home — or, for an operator-new fallback
  /// pointer, through the global fallback registry. This is what lets
  /// PoolNodeAlloc::destroy stay a *static* policy hook (EbrDomain's
  /// retire_via stores stateless `void(*)(void*)` deleters) while
  /// allocation goes through per-instance pool handles.
  static void route_free(void* p) noexcept;

  std::size_t slot_bytes() const { return slot_bytes_; }
  std::size_t slots_per_slab() const { return slots_per_slab_; }

  /// Test/ops knobs. slab_limit 0 = unlimited. With the limit reached and
  /// the fallback disabled, allocate() throws — how tests drive the
  /// exhaustion path deterministically.
  void set_slab_limit(std::size_t n) {
    slab_limit_.store(n, std::memory_order_relaxed);
  }
  void set_fallback_enabled(bool on) {
    fallback_enabled_.store(on, std::memory_order_relaxed);
  }
  /// Poison freed slots (pattern 0xDB past the link word). Defaults to on
  /// in !NDEBUG and ASan builds, off in plain release builds.
  void set_poison(bool on) { poison_.store(on, std::memory_order_relaxed); }

  std::size_t slab_count() const {
    return slab_count_.load(std::memory_order_relaxed);
  }
  /// Allocations the slabs were carved from: one per slab below
  /// kHugeChunkAfterSlabs, one per kChunkBytes above it.
  std::size_t chunk_count() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return chunks_.size();
  }

  static constexpr unsigned char kPoisonByte = 0xDB;

 private:
  struct Slab;
  struct Cache;

  Cache& local_cache();            // may create/adopt (can throw bad_alloc)
  Cache* local_cache_if_cached();  // never creates
  Cache* acquire_cache();          // mutex: orphan pop or fresh Cache
  void release_cache_of_exiting_thread(Cache* c);

  bool harvest_remote(Cache& c);   // splice remote stacks into the free list
  Slab* try_new_slab(Cache& c);    // nullptr if capped or OOM
  bool new_chunk();                // mutex_ held; false on OOM
  void* fallback_allocate();       // operator-new path; may throw
  void free_slot(Slab* slab, void* p) noexcept;  // slab slot → home list
  void poison_slot(void* p) noexcept;
  void unpoison_slot(void* p) noexcept;

  std::size_t slot_bytes_ = 0;
  std::size_t slot_align_ = 0;
  std::size_t payload_offset_ = 0;
  std::size_t slots_per_slab_ = 0;
  std::uint64_t uid_;  // distinguishes reincarnated pools at one address

  std::atomic<std::size_t> slab_limit_{0};
  std::atomic<bool> fallback_enabled_{true};
  std::atomic<bool> poison_;
  std::atomic<std::size_t> slab_count_{0};

  struct Chunk {
    void* base;
    std::size_t bytes;  // kSlabBytes or kChunkBytes; also the alignment
  };

  mutable std::mutex mutex_;    // cache acquire/release, slab creation
  Cache* orphans_ = nullptr;    // caches of exited threads, adoptable
  std::vector<Cache*> caches_;  // every cache ever created (dtor cleanup)
  std::vector<Chunk> chunks_;   // every chunk slabs were carved from
  char* carve_ptr_ = nullptr;   // uncarved tail of the newest chunk
  char* carve_end_ = nullptr;

  // Fallback bookkeeping lives in a process-global registry (pool.cpp):
  // route_free cannot know the owning pool for an operator-new pointer (no
  // slab header to mask to), so the ptr → alignment map and the
  // outstanding-count gate that guards the mask are shared by all pools.

  friend struct PoolTls;
};

/// The per-type pool singleton. Deliberately immortal (never destroyed):
/// the global EbrDomain can flush retired nodes during static destruction,
/// after any destructible function-local static would already be gone. The
/// pointer lives in static storage, so LeakSanitizer sees the slabs as
/// reachable, not leaked.
template <typename T>
SizePool& pool_for() {
  static SizePool* pool = new SizePool(sizeof(T), alignof(T));
  return *pool;
}

/// Allocation policy threaded through LoMap/PartialMap: plain counted
/// new/delete — the pre-pool behaviour, kept for the allocator ablation
/// and for any caller that names it as `Alloc`.
struct NewNodeAlloc {
  static constexpr std::string_view name() { return "new"; }

  template <typename T, typename... Args>
  static T* create(Args&&... args) {
    return make_counted<T>(std::forward<Args>(args)...);
  }

  template <typename T>
  static void destroy(T* p) {
    delete_counted(p);
  }
};

/// Allocation policy backed by a SizePool. Default-constructed it uses the
/// per-type pool_for<T>() singleton (the seed behaviour); constructed over
/// an explicit SizePool it becomes a per-instance handle — how ShardedMap
/// gives every shard its own slab arena. Keeps the AllocStats node counters
/// moving exactly like make_counted/delete_counted, so the leak-accounting
/// tests hold for either policy. The kPoolAlloc injection site fires here
/// (in instrumented TUs) so the fault campaign can attack pool exhaustion
/// on top of the insert-site injector.
///
/// create() is an instance method (the handle decides where memory comes
/// from); destroy() is deliberately *static* — EbrDomain::retire_via
/// stores stateless `void(*)(void*)` deleters, so the free path recovers
/// the owning pool from the pointer itself (SizePool::route_free).
struct PoolNodeAlloc {
  static constexpr std::string_view name() { return "pool"; }

  constexpr PoolNodeAlloc() = default;
  explicit PoolNodeAlloc(SizePool& pool) : pool_(&pool) {}

  template <typename T, typename... Args>
  T* create(Args&&... args) const {
    inject::throw_if_alloc_fault(inject::Site::kPoolAlloc);
    SizePool& pool = pool_ != nullptr ? *pool_ : pool_for<T>();
    void* mem = pool.allocate();
    T* p;
    try {
      p = ::new (mem) T(std::forward<Args>(args)...);
    } catch (...) {
      pool.deallocate(mem);
      throw;
    }
    AllocStats::allocated().fetch_add(1, std::memory_order_relaxed);
    return p;
  }

  template <typename T>
  static void destroy(T* p) {
    if (p == nullptr) return;
    AllocStats::freed().fetch_add(1, std::memory_order_relaxed);
    p->~T();
    SizePool::route_free(p);
  }

 private:
  SizePool* pool_ = nullptr;
};

/// What LoMap/PartialMap default to.
using DefaultNodeAlloc = PoolNodeAlloc;

}  // namespace lot::reclaim
