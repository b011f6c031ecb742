#include "reclaim/pool.hpp"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstring>
#include <type_traits>
#include <unordered_map>
#include <unordered_set>

#if defined(__linux__)
#include <sys/mman.h>
#endif

#if defined(__SANITIZE_ADDRESS__)
#define LOT_POOL_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define LOT_POOL_ASAN 1
#endif
#endif

#if defined(LOT_POOL_ASAN)
#include <sanitizer/asan_interface.h>
#endif

namespace lot::reclaim {
namespace {

constexpr std::size_t round_up(std::size_t n, std::size_t align) {
  return (n + align - 1) & ~(align - 1);
}

// Registry of live pools, so thread-exit cleanup never touches a pool that
// was already destroyed (a thread's cached Cache pointer may outlive a
// test-scoped pool). Same shape as ebr.cpp's domain registry.
std::mutex& registry_mutex() {
  static std::mutex m;
  return m;
}

std::unordered_set<SizePool*>& live_pools() {
  static std::unordered_set<SizePool*> s;
  return s;
}

std::uint64_t next_pool_uid() {
  static std::atomic<std::uint64_t> counter{1};
  return counter.fetch_add(1, std::memory_order_relaxed);
}

// Process-global fallback registry. A fallback pointer came from plain
// `operator new`, so no slab-header mask can recover its owner — and
// route_free has no pool in hand at all. One shared ptr → alignment map
// (the alignment is needed for the sized operator delete) serves every
// pool, guarded by one outstanding-count gate so the common all-slab case
// pays a single relaxed-ish atomic load, never the mutex.
std::mutex& fallback_mutex() {
  static std::mutex m;
  return m;
}

std::unordered_map<void*, std::size_t>& fallback_registry() {
  static std::unordered_map<void*, std::size_t> s;
  return s;
}

std::atomic<std::size_t>& fallback_outstanding() {
  static std::atomic<std::size_t> n{0};
  return n;
}

// Frees p through the registry if it is a fallback pointer. Must be called
// only after the acquire gate saw a non-zero outstanding count.
bool try_free_fallback_global(void* p) {
  std::size_t align = 0;
  {
    std::lock_guard<std::mutex> lock(fallback_mutex());
    auto it = fallback_registry().find(p);
    if (it == fallback_registry().end()) return false;
    align = it->second;
    fallback_registry().erase(it);
    fallback_outstanding().fetch_sub(1, std::memory_order_release);
  }
  ::operator delete(p, std::align_val_t{align});
  PoolStats::fallback_frees().fetch_add(1, std::memory_order_relaxed);
  return true;
}

// Advises a kChunkBytes chunk to be backed by one transparent huge page.
// True only if the advice was given and accepted. The kernel accepts
// MADV_HUGEPAGE even when THP is set to `never`, so the system policy is
// read once and a `never` host advises nothing; the huge_chunks counter
// then reads 0, which is what explains a missing speed-up.
bool advise_huge_pages(void* p, std::size_t bytes) {
#if defined(__linux__) && defined(MADV_HUGEPAGE)
  static const bool thp_allowed = [] {
    std::FILE* f =
        std::fopen("/sys/kernel/mm/transparent_hugepage/enabled", "r");
    if (f == nullptr) return true;  // policy unknown: let madvise decide
    char buf[64] = {};
    (void)std::fread(buf, 1, sizeof(buf) - 1, f);
    std::fclose(f);
    return std::strstr(buf, "[never]") == nullptr;
  }();
  return thp_allowed && ::madvise(p, bytes, MADV_HUGEPAGE) == 0;
#else
  (void)p;
  (void)bytes;
  return false;
#endif
}

}  // namespace

/// Slab header, placed at the start of each kSlabBytes-aligned slab so
/// `reinterpret_cast<Slab*>(uintptr(p) & ~(kSlabBytes - 1))` recovers it
/// from any slot pointer. The remote-free stack head sits on its own cache
/// line: it is the only word of the header written after construction, and
/// it is contended by whichever threads drain the EBR backlog.
struct SizePool::Slab {
  SizePool* pool;
  Cache* owner;  // never changes after creation (caches move between
                 // threads whole; slabs never move between caches)
  Slab* next_in_cache;
  alignas(sync::kCacheLineSize) std::atomic<void*> remote_head{nullptr};
};

/// Per-thread (at a time) allocation state. Only the owning thread touches
/// the free list / bump window; other threads interact with the cache's
/// slabs exclusively through their remote-free stacks. Ownership transfers
/// wholesale: thread exit parks the cache on the pool's orphan list, the
/// next new thread adopts it, and the TLS-destructor/adoption handoffs
/// happen under the pool mutex, which orders them.
struct SizePool::Cache {
  void* free_head = nullptr;   // LIFO of freed slots; link in slot word 0
  Slab* slabs = nullptr;       // slabs this cache carved (harvest targets)
  char* bump_ptr = nullptr;    // unissued tail of the newest slab
  char* bump_end = nullptr;
  Cache* next_orphan = nullptr;
};

/// Per-thread map from (pool, uid) to the thread's adopted Cache — the
/// pool-side twin of ebr.cpp's TlsCache, with the same growable table that
/// reuses dead pools' entries on the miss path, and the same destructor
/// contract: give the cache back, but only to a pool that still exists.
struct PoolTls {
  struct Entry {
    SizePool* pool = nullptr;
    std::uint64_t uid = 0;
    SizePool::Cache* cache = nullptr;
  };
  std::vector<Entry> entries;

  // Caller holds the registry mutex. A uid mismatch means the address now
  // belongs to a later pool; the entry's own pool (and cache) are gone.
  static bool alive(const Entry& e) {
    return live_pools().count(e.pool) > 0 && e.pool->uid_ == e.uid;
  }

  ~PoolTls() {
    std::lock_guard<std::mutex> lock(registry_mutex());
    for (auto& e : entries) {
      if (e.cache != nullptr && alive(e)) {
        e.pool->release_cache_of_exiting_thread(e.cache);
      }
    }
    // Frees can still arrive later in this thread's teardown (the global
    // EbrDomain drains during static destruction); they must find an
    // empty table, not a dangling one.
    std::vector<Entry>().swap(entries);
  }

  SizePool::Cache*& slot_for(SizePool* p, std::uint64_t uid) {
    if (Entry* e = find(p, uid)) return e->cache;
    std::lock_guard<std::mutex> lock(registry_mutex());
    for (auto& e : entries) {
      if (e.cache == nullptr || !alive(e)) {
        e = Entry{p, uid, nullptr};
        return e.cache;
      }
    }
    entries.push_back(Entry{p, uid, nullptr});
    return entries.back().cache;
  }

  SizePool::Cache* lookup(SizePool* p, std::uint64_t uid) {
    Entry* e = find(p, uid);
    return e != nullptr ? e->cache : nullptr;
  }

 private:
  Entry* find(SizePool* p, std::uint64_t uid) {
    for (auto& e : entries) {
      if (e.pool == p && e.uid == uid) return &e;
    }
    return nullptr;
  }
};

namespace {
PoolTls& pool_tls() {
  thread_local PoolTls tls;
  return tls;
}
}  // namespace

SizePool::SizePool(std::size_t object_bytes, std::size_t object_align)
    : uid_(next_pool_uid()) {
  slot_align_ = std::max(object_align, std::size_t{sync::kCacheLineSize});
  slot_bytes_ =
      round_up(std::max(object_bytes, sizeof(void*)), slot_align_);
  payload_offset_ = round_up(sizeof(Slab), slot_align_);
  assert(payload_offset_ + slot_bytes_ <= kSlabBytes &&
         "object too large for one slab");
  slots_per_slab_ = (kSlabBytes - payload_offset_) / slot_bytes_;
#if defined(LOT_POOL_ASAN) || !defined(NDEBUG)
  poison_.store(true, std::memory_order_relaxed);
#else
  poison_.store(false, std::memory_order_relaxed);
#endif
  std::lock_guard<std::mutex> lock(registry_mutex());
  live_pools().insert(this);
}

SizePool::~SizePool() {
  // Contract (mirrors EbrDomain): no outstanding slots, no concurrent
  // calls. Threads that cached a Cache* may still be running; the registry
  // erase below makes their TLS destructors skip this pool, and stale TLS
  // entries are ignored by uid on any later pool at the same address.
  {
    std::lock_guard<std::mutex> lock(registry_mutex());
    live_pools().erase(this);
  }
  std::lock_guard<std::mutex> lock(mutex_);
  for (Cache* c : caches_) delete c;
  static_assert(std::is_trivially_destructible_v<Slab>,
                "chunks are freed without visiting their slabs");
  for (const Chunk& ch : chunks_) {
#if defined(LOT_POOL_ASAN)
    // Hand the chunk back unpoisoned: the underlying allocator (and any
    // future reuse of the address range) must see it addressable.
    ASAN_UNPOISON_MEMORY_REGION(ch.base, ch.bytes);
#endif
    ::operator delete(ch.base, std::align_val_t{ch.bytes});
  }
}

SizePool::Cache& SizePool::local_cache() {
  Cache*& cached = pool_tls().slot_for(this, uid_);
  if (cached == nullptr) cached = acquire_cache();
  return *cached;
}

SizePool::Cache* SizePool::local_cache_if_cached() {
  return pool_tls().lookup(this, uid_);
}

SizePool::Cache* SizePool::acquire_cache() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (orphans_ != nullptr) {
    Cache* c = orphans_;
    orphans_ = c->next_orphan;
    c->next_orphan = nullptr;
    PoolStats::caches_adopted().fetch_add(1, std::memory_order_relaxed);
    return c;
  }
  Cache* c = new Cache;  // bad_alloc propagates with no state changed
  try {
    caches_.push_back(c);
  } catch (...) {
    delete c;
    throw;
  }
  PoolStats::caches_created().fetch_add(1, std::memory_order_relaxed);
  return c;
}

void SizePool::release_cache_of_exiting_thread(Cache* c) {
  // Registry mutex held (TLS destructor path). The cache keeps its slabs,
  // free list and pending remote frees; the next adopter inherits it all.
  std::lock_guard<std::mutex> lock(mutex_);
  c->next_orphan = orphans_;
  orphans_ = c;
}

void* SizePool::allocate() {
  Cache& c = local_cache();  // may throw; nothing else has happened yet

  for (int attempt = 0; attempt < 2; ++attempt) {
    if (c.free_head != nullptr) {
      void* p = c.free_head;
      unpoison_slot(p);
      c.free_head = *static_cast<void**>(p);
      PoolStats::allocs().fetch_add(1, std::memory_order_relaxed);
      return p;
    }
    if (c.bump_ptr != nullptr &&
        c.bump_ptr + slot_bytes_ <= c.bump_end) {
      void* p = c.bump_ptr;
      c.bump_ptr += slot_bytes_;
      PoolStats::allocs().fetch_add(1, std::memory_order_relaxed);
      return p;
    }
    // Local list dry and bump window exhausted: pull back everything other
    // threads freed into our slabs, and only then consider growing.
    if (harvest_remote(c)) continue;
    break;
  }

  if (Slab* s = try_new_slab(c)) {
    (void)s;
    void* p = c.bump_ptr;
    c.bump_ptr += slot_bytes_;
    PoolStats::allocs().fetch_add(1, std::memory_order_relaxed);
    return p;
  }
  if (fallback_enabled_.load(std::memory_order_relaxed)) {
    return fallback_allocate();
  }
  throw std::bad_alloc{};
}

void SizePool::deallocate(void* p) noexcept {
  assert(p != nullptr);
  if (fallback_outstanding().load(std::memory_order_acquire) != 0 &&
      try_free_fallback_global(p)) {
    return;
  }
  // Not a fallback pointer, so it came from a slab and the mask is safe.
  auto* slab = reinterpret_cast<Slab*>(reinterpret_cast<std::uintptr_t>(p) &
                                       ~(kSlabBytes - 1));
  assert(slab->pool == this && "pointer freed into the wrong pool");
  free_slot(slab, p);
}

void SizePool::route_free(void* p) noexcept {
  assert(p != nullptr);
  if (fallback_outstanding().load(std::memory_order_acquire) != 0 &&
      try_free_fallback_global(p)) {
    return;
  }
  // Not a fallback pointer: the slab header names the owning pool, which
  // may be a per-shard instance or a pool_for<T>() singleton — either way
  // the slot goes home without the caller knowing which.
  auto* slab = reinterpret_cast<Slab*>(reinterpret_cast<std::uintptr_t>(p) &
                                       ~(kSlabBytes - 1));
  slab->pool->free_slot(slab, p);
}

void SizePool::free_slot(Slab* slab, void* p) noexcept {
  poison_slot(p);
  PoolStats::frees().fetch_add(1, std::memory_order_relaxed);

  Cache* mine = local_cache_if_cached();
  if (mine == slab->owner) {
    *static_cast<void**>(p) = mine->free_head;
    mine->free_head = p;
    return;
  }
  // Cross-thread free: Treiber push onto the slab's remote stack. Push-only
  // from this side (the owner takes the whole stack with exchange), so
  // there is no ABA window.
  PoolStats::remote_frees().fetch_add(1, std::memory_order_relaxed);
  void* head = slab->remote_head.load(std::memory_order_relaxed);
  do {
    *static_cast<void**>(p) = head;
  } while (!slab->remote_head.compare_exchange_weak(
      head, p, std::memory_order_release, std::memory_order_relaxed));
}

bool SizePool::harvest_remote(Cache& c) {
  bool got_any = false;
  for (Slab* s = c.slabs; s != nullptr; s = s->next_in_cache) {
    if (s->remote_head.load(std::memory_order_relaxed) == nullptr) continue;
    void* chain = s->remote_head.exchange(nullptr, std::memory_order_acquire);
    if (chain == nullptr) continue;
    got_any = true;
    // Splice the whole chain in front of the local list. Link words of
    // freed slots are never poisoned, so the tail walk is clean under ASan.
    void* tail = chain;
    while (*static_cast<void**>(tail) != nullptr) {
      tail = *static_cast<void**>(tail);
    }
    *static_cast<void**>(tail) = c.free_head;
    c.free_head = chain;
  }
  if (got_any) {
    PoolStats::harvests().fetch_add(1, std::memory_order_relaxed);
  }
  return got_any;
}

SizePool::Slab* SizePool::try_new_slab(Cache& c) {
  std::lock_guard<std::mutex> lock(mutex_);
  const std::size_t limit = slab_limit_.load(std::memory_order_relaxed);
  if (limit != 0 && slab_count_.load(std::memory_order_relaxed) >= limit) {
    return nullptr;
  }
  if (carve_ptr_ == carve_end_ && !new_chunk()) return nullptr;
  void* mem = carve_ptr_;
  carve_ptr_ += kSlabBytes;
  Slab* s = ::new (mem) Slab{this, &c, c.slabs};
  c.slabs = s;
  c.bump_ptr = static_cast<char*>(mem) + payload_offset_;
  c.bump_end = static_cast<char*>(mem) + kSlabBytes;
  slab_count_.fetch_add(1, std::memory_order_relaxed);
  PoolStats::slabs().fetch_add(1, std::memory_order_relaxed);
  return s;
}

bool SizePool::new_chunk() {
  // One slab per chunk until the pool holds kHugeChunkAfterSlabs slabs,
  // then whole huge pages: the uncarved tail stays under 1/16 of the pool.
  const std::size_t bytes =
      slab_count_.load(std::memory_order_relaxed) >= kHugeChunkAfterSlabs
          ? kChunkBytes
          : kSlabBytes;
  void* mem = ::operator new(bytes, std::align_val_t{bytes}, std::nothrow);
  if (mem == nullptr) return false;
  try {
    chunks_.push_back(Chunk{mem, bytes});
  } catch (...) {
    ::operator delete(mem, std::align_val_t{bytes});
    return false;
  }
  if (bytes == kChunkBytes && advise_huge_pages(mem, bytes)) {
    PoolStats::huge_chunks().fetch_add(1, std::memory_order_relaxed);
  }
  carve_ptr_ = static_cast<char*>(mem);
  carve_end_ = carve_ptr_ + bytes;
  return true;
}

void* SizePool::fallback_allocate() {
  void* p = ::operator new(slot_bytes_, std::align_val_t{slot_align_});
  {
    std::lock_guard<std::mutex> lock(fallback_mutex());
    try {
      fallback_registry().emplace(p, slot_align_);
    } catch (...) {
      ::operator delete(p, std::align_val_t{slot_align_});
      throw;
    }
  }
  // Release: the non-zero count must be visible to any thread that later
  // observes this pointer (through the node's own publication/retire
  // chain) and reaches the free paths' acquire gate.
  fallback_outstanding().fetch_add(1, std::memory_order_release);
  PoolStats::fallback_allocs().fetch_add(1, std::memory_order_relaxed);
  return p;
}

void SizePool::poison_slot(void* p) noexcept {
  if (!poison_.load(std::memory_order_relaxed)) return;
  // Word 0 carries the free-list link; everything past it is dead.
  std::memset(static_cast<char*>(p) + sizeof(void*), kPoisonByte,
              slot_bytes_ - sizeof(void*));
#if defined(LOT_POOL_ASAN)
  ASAN_POISON_MEMORY_REGION(static_cast<char*>(p) + sizeof(void*),
                            slot_bytes_ - sizeof(void*));
#endif
}

void SizePool::unpoison_slot(void* p) noexcept {
#if defined(LOT_POOL_ASAN)
  ASAN_UNPOISON_MEMORY_REGION(p, slot_bytes_);
#else
  (void)p;
#endif
}

}  // namespace lot::reclaim
