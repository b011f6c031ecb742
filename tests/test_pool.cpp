// Unit tests for the per-thread slab pool (reclaim/pool.hpp): slab growth
// and reuse, huge-page chunks for large pools, the cross-thread
// remote-free path, deterministic exhaustion →
// bad_alloc, the operator-new fallback, freed-slot poisoning, thread-exit
// cache orphaning/adoption, and — the property everything hinges on —
// recycle-after-grace ordering through EbrDomain::retire_via: a retired
// node's slot must never be handed out again while a parked Guard could
// still dereference it.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <cstring>
#include <mutex>
#include <new>
#include <set>
#include <thread>
#include <vector>

#include "lo/avl.hpp"
#include "reclaim/alloc_stats.hpp"
#include "reclaim/ebr.hpp"
#include "reclaim/pool.hpp"
#include "sync/cacheline.hpp"

#if defined(__SANITIZE_ADDRESS__)
#define LOT_TEST_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define LOT_TEST_ASAN 1
#endif
#endif

namespace {

using lot::reclaim::AllocStats;
using lot::reclaim::EbrDomain;
using lot::reclaim::NewNodeAlloc;
using lot::reclaim::PoolNodeAlloc;
using lot::reclaim::PoolStats;
using lot::reclaim::SizePool;

TEST(Pool, SlotsAreCachelineAlignedAndSized) {
  SizePool pool(48, 8);
  EXPECT_EQ(pool.slot_bytes() % lot::sync::kCacheLineSize, 0u);
  EXPECT_GE(pool.slot_bytes(), 48u);
  std::vector<void*> slots;
  for (int i = 0; i < 16; ++i) {
    void* p = pool.allocate();
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) %
                  lot::sync::kCacheLineSize,
              0u);
    slots.push_back(p);
  }
  for (void* p : slots) pool.deallocate(p);
}

TEST(Pool, SlabGrowthAndLocalReuse) {
  SizePool pool(64, 64);
  const std::size_t per_slab = pool.slots_per_slab();
  ASSERT_GT(per_slab, 0u);

  // Filling one slab plus one slot forces exactly one growth.
  std::vector<void*> slots;
  for (std::size_t i = 0; i < per_slab; ++i) slots.push_back(pool.allocate());
  EXPECT_EQ(pool.slab_count(), 1u);
  slots.push_back(pool.allocate());
  EXPECT_EQ(pool.slab_count(), 2u);

  // Everything freed locally is reused without any new slab.
  const std::set<void*> first_round(slots.begin(), slots.end());
  for (void* p : slots) pool.deallocate(p);
  slots.clear();
  for (std::size_t i = 0; i < per_slab + 1; ++i) {
    void* p = pool.allocate();
    EXPECT_TRUE(first_round.count(p) > 0) << "expected a recycled slot";
    slots.push_back(p);
  }
  EXPECT_EQ(pool.slab_count(), 2u);
  for (void* p : slots) pool.deallocate(p);
}

TEST(Pool, RemoteFreeReturnsSlotsToOwningSlab) {
  SizePool pool(64, 64);
  pool.set_slab_limit(1);
  pool.set_fallback_enabled(false);
  const auto remote_before =
      PoolStats::remote_frees().load(std::memory_order_relaxed);

  // Drain the whole slab so the owner's bump window is exhausted — the
  // only way the next allocations can succeed is by harvesting remote
  // frees.
  std::vector<void*> slots;
  for (std::size_t i = 0; i < pool.slots_per_slab(); ++i) {
    slots.push_back(pool.allocate());
  }
  std::vector<void*> freed(slots.end() - 64, slots.end());
  slots.resize(slots.size() - 64);
  const std::set<void*> theirs(freed.begin(), freed.end());

  // A thread that never allocated from this pool frees them: every free
  // must take the slab's remote stack, not a local list.
  std::thread other([&] {
    for (void* p : freed) pool.deallocate(p);
  });
  other.join();
  EXPECT_GE(PoolStats::remote_frees().load(std::memory_order_relaxed),
            remote_before + 64);

  // The owner harvests them back: same addresses, no slab growth.
  for (int i = 0; i < 64; ++i) {
    void* p = pool.allocate();
    EXPECT_TRUE(theirs.count(p) > 0)
        << "expected a harvested remote-free slot";
    slots.push_back(p);
  }
  EXPECT_EQ(pool.slab_count(), 1u);
  for (void* p : slots) pool.deallocate(p);
}

TEST(Pool, ExhaustionThrowsBadAllocAndRecovers) {
  SizePool pool(64, 64);
  pool.set_slab_limit(1);
  pool.set_fallback_enabled(false);

  std::vector<void*> slots;
  for (;;) {
    try {
      slots.push_back(pool.allocate());
    } catch (const std::bad_alloc&) {
      break;
    }
  }
  EXPECT_EQ(slots.size(), pool.slots_per_slab());
  EXPECT_EQ(pool.slab_count(), 1u);
  // Still exhausted: another attempt throws again (no state was mangled).
  EXPECT_THROW(pool.allocate(), std::bad_alloc);

  // Freeing one slot ends the exhaustion.
  pool.deallocate(slots.back());
  slots.pop_back();
  void* p = pool.allocate();
  EXPECT_NE(p, nullptr);
  slots.push_back(p);

  // Raising the limit allows growth again.
  pool.set_slab_limit(0);
  slots.push_back(pool.allocate());
  EXPECT_EQ(pool.slab_count(), 2u);
  for (void* q : slots) pool.deallocate(q);
}

// Past kHugeChunkAfterSlabs slabs the pool carves its slabs from 2 MiB
// chunks aligned to their size, kChunkBytes / kSlabBytes slabs each;
// below it every slab is an allocation of its own. Neither the slot →
// slab mask, the remote-free path nor the slab limit may notice the
// difference.
TEST(Pool, LargePoolCarvesHugePageChunks) {
  constexpr std::size_t kSlab = SizePool::kSlabBytes;
  constexpr std::size_t kPerChunk = SizePool::kChunkBytes / kSlab;
  constexpr std::size_t kSmall = SizePool::kHugeChunkAfterSlabs;
  static_assert(kPerChunk == 32 && kSmall == 512);
  // The limit falls in the middle of the third huge chunk.
  const std::size_t limit = kSmall + 2 * kPerChunk + kPerChunk / 2;

  SizePool pool(128, 64);
  pool.set_slab_limit(limit);
  pool.set_fallback_enabled(false);
  const auto huge_before =
      PoolStats::huge_chunks().load(std::memory_order_relaxed);

  std::vector<void*> slots;
  std::vector<std::uintptr_t> slab_base;  // in carve order
  // Allocates until the limit bites, noting where each new slab starts.
  auto fill = [&] {
    for (;;) {
      void* p = nullptr;
      try {
        p = pool.allocate();
      } catch (const std::bad_alloc&) {
        return;
      }
      if (pool.slab_count() > slab_base.size()) {
        slab_base.push_back(reinterpret_cast<std::uintptr_t>(p) &
                            ~(kSlab - 1));
      }
      slots.push_back(p);
    }
  };
  fill();
  ASSERT_EQ(slab_base.size(), limit);
  EXPECT_EQ(pool.slab_count(), limit);
  EXPECT_EQ(slots.size(), limit * pool.slots_per_slab());
  EXPECT_THROW(pool.allocate(), std::bad_alloc);

  // Slabs 1..512 are separate allocations; the rest share three chunks.
  EXPECT_EQ(pool.chunk_count(), kSmall + 3);
  EXPECT_EQ(std::set<std::uintptr_t>(slab_base.begin(),
                                     slab_base.begin() + kSmall)
                .size(),
            kSmall);
  for (std::size_t i = kSmall; i < limit; ++i) {
    const std::size_t k = (i - kSmall) % kPerChunk;
    const std::uintptr_t chunk = slab_base[i - k];
    EXPECT_EQ(chunk % SizePool::kChunkBytes, 0u) << "slab " << i;
    EXPECT_EQ(slab_base[i], chunk + k * kSlab) << "slab " << i;
  }
  // Counted only where the kernel took the advice: 0 on a THP=never host.
  EXPECT_LE(PoolStats::huge_chunks().load(std::memory_order_relaxed),
            huge_before + 3);

  // Freeing one slot ends the exhaustion; raising the limit carves the
  // next slab from the rest of the same chunk.
  void* last = slots.back();
  pool.deallocate(last);
  EXPECT_EQ(pool.allocate(), last);
  pool.set_slab_limit(limit + 1);
  fill();
  ASSERT_EQ(slab_base.size(), limit + 1);
  EXPECT_EQ(slab_base[limit], slab_base[limit - 1] + kSlab);
  EXPECT_EQ(pool.chunk_count(), kSmall + 3);
  EXPECT_EQ(slots.size(), (limit + 1) * pool.slots_per_slab());

  // Every slot goes home through the pool-blind free, half of them from a
  // thread that never touched the pool: with the pool full and no room to
  // grow, reallocating the lot must return exactly the same slots.
  std::vector<void*> theirs;
  for (std::size_t i = 1; i < slots.size(); i += 2) theirs.push_back(slots[i]);
  std::thread other([&] {
    for (void* p : theirs) SizePool::route_free(p);
  });
  for (std::size_t i = 0; i < slots.size(); i += 2) {
    SizePool::route_free(slots[i]);
  }
  other.join();
  std::vector<void*> again;
  for (std::size_t i = 0; i < slots.size(); ++i) {
    again.push_back(pool.allocate());
  }
  EXPECT_THROW(pool.allocate(), std::bad_alloc);
  std::sort(slots.begin(), slots.end());
  std::sort(again.begin(), again.end());
  EXPECT_EQ(again, slots);
  for (void* p : again) pool.deallocate(p);
}

TEST(Pool, FallbackRoutesThroughOperatorNew) {
  SizePool pool(64, 64);
  pool.set_slab_limit(1);
  const auto fb_before =
      PoolStats::fallback_allocs().load(std::memory_order_relaxed);

  std::vector<void*> slab_slots;
  for (std::size_t i = 0; i < pool.slots_per_slab(); ++i) {
    slab_slots.push_back(pool.allocate());
  }
  // Past the slab cap with the fallback on: allocation still succeeds and
  // is counted as a fallback; freeing it must route to operator delete
  // (and not crash on the slab mask).
  void* fb = pool.allocate();
  EXPECT_NE(fb, nullptr);
  EXPECT_EQ(PoolStats::fallback_allocs().load(std::memory_order_relaxed),
            fb_before + 1);
  const auto fb_free_before =
      PoolStats::fallback_frees().load(std::memory_order_relaxed);
  pool.deallocate(fb);
  EXPECT_EQ(PoolStats::fallback_frees().load(std::memory_order_relaxed),
            fb_free_before + 1);
  for (void* p : slab_slots) pool.deallocate(p);
}

TEST(Pool, FreedSlotsArePoisoned) {
  SizePool pool(256, 64);
  pool.set_poison(true);
  void* p = pool.allocate();
  std::memset(p, 0xAA, 256);
  pool.deallocate(p);
#if defined(LOT_TEST_ASAN)
  // Under ASan the poisoned region traps on access, which *is* the
  // property — reading it here would (correctly) abort the test binary, so
  // the byte-pattern check runs only in non-ASan builds.
  SUCCEED();
#else
  const auto* bytes = static_cast<const unsigned char*>(p);
  for (std::size_t i = sizeof(void*); i < 256; ++i) {
    ASSERT_EQ(bytes[i], SizePool::kPoisonByte) << "offset " << i;
  }
#endif
  void* q = pool.allocate();  // leaves the pool clean for its destructor
  EXPECT_EQ(q, p);            // LIFO: the poisoned slot comes straight back
  pool.deallocate(q);
}

TEST(Pool, ExitedThreadCacheIsAdopted) {
  SizePool pool(64, 64);
  const auto adopted_before =
      PoolStats::caches_adopted().load(std::memory_order_relaxed);
  void* first = nullptr;
  std::thread t1([&] {
    first = pool.allocate();
    pool.deallocate(first);
  });
  t1.join();
  // t1's cache (with its slab and one free slot) is orphaned; the next
  // thread adopts it wholesale instead of carving a new slab.
  void* second = nullptr;
  std::thread t2([&] {
    second = pool.allocate();
    pool.deallocate(second);
  });
  t2.join();
  EXPECT_EQ(first, second);
  EXPECT_EQ(pool.slab_count(), 1u);
  EXPECT_GE(PoolStats::caches_adopted().load(std::memory_order_relaxed),
            adopted_before + 1);
}

// A thread that outlives many pools must reuse the per-thread table
// entries of dead pools instead of evicting a live pool's entry: the cache
// it holds in a long-lived pool stays its own, so coming back adopts
// nothing.
TEST(Pool, ThreadOutlivingManyPoolsReusesSlots) {
  SizePool home(64, 64);
  home.deallocate(home.allocate());
  const auto adopted_before =
      PoolStats::caches_adopted().load(std::memory_order_relaxed);
  for (int i = 0; i < 20; ++i) {
    SizePool passing(64, 64);
    passing.deallocate(passing.allocate());
  }
  home.deallocate(home.allocate());
  EXPECT_EQ(PoolStats::caches_adopted().load(std::memory_order_relaxed),
            adopted_before);
  EXPECT_EQ(home.slab_count(), 1u);
}

struct GraceObj {
  std::uint64_t payload[6] = {};
};

// The EBR safety argument (DESIGN.md §10): a slot retired through
// retire_via<PoolNodeAlloc> re-enters a free list only after the grace
// period, so while a Guard pinned before the retire is still parked, no
// allocation may return that slot.
TEST(Pool, RecycleWaitsForGracePeriod) {
  auto& pool = lot::reclaim::pool_for<GraceObj>();
  EbrDomain domain;
  domain.set_retire_threshold(1);  // reclaim eagerly

  GraceObj* obj = PoolNodeAlloc{}.create<GraceObj>();
  void* const addr = obj;

  std::mutex m;
  std::condition_variable cv;
  bool reader_pinned = false;
  bool release_reader = false;
  std::thread reader([&] {
    auto g = domain.guard();  // pins the current epoch
    {
      std::unique_lock<std::mutex> lk(m);
      reader_pinned = true;
      cv.notify_all();
      cv.wait(lk, [&] { return release_reader; });
    }
  });
  {
    std::unique_lock<std::mutex> lk(m);
    cv.wait(lk, [&] { return reader_pinned; });
  }

  domain.retire_via<PoolNodeAlloc>(obj);
  domain.flush();  // cannot advance past the parked reader twice

  // While the reader is parked the slot must not come back out.
  std::vector<void*> handed_out;
  for (int i = 0; i < 32; ++i) {
    void* p = pool.allocate();
    EXPECT_NE(p, addr) << "slot recycled inside the grace period";
    handed_out.push_back(p);
  }
  for (void* p : handed_out) pool.deallocate(p);

  {
    std::lock_guard<std::mutex> lk(m);
    release_reader = true;
    cv.notify_all();
  }
  reader.join();

  // Grace over: flush frees the node on this thread, so the slot lands on
  // this thread's local LIFO and the very next allocation returns it.
  domain.flush();
  void* p = pool.allocate();
  EXPECT_EQ(p, addr);
  pool.deallocate(p);
}

// End-to-end through the tree: explicit pool and new policies both leave
// the global node accounting balanced after map + domain teardown.
template <typename Alloc>
void map_smoke() {
  const auto live_before = AllocStats::live();
  {
    EbrDomain domain;
    lot::lo::AvlMap<std::int64_t, std::int64_t, std::less<std::int64_t>,
                    Alloc>
        map(domain);
    for (std::int64_t k = 0; k < 512; ++k) ASSERT_TRUE(map.insert(k, 2 * k));
    for (std::int64_t k = 0; k < 512; k += 2) ASSERT_TRUE(map.erase(k));
    for (std::int64_t k = 0; k < 512; ++k) {
      EXPECT_EQ(map.contains(k), k % 2 == 1) << k;
    }
    EXPECT_EQ(map.size_slow(), 256u);
  }
  EXPECT_EQ(AllocStats::live(), live_before);
}

TEST(Pool, MapSmokePoolAlloc) { map_smoke<PoolNodeAlloc>(); }
TEST(Pool, MapSmokeNewAlloc) { map_smoke<NewNodeAlloc>(); }

TEST(Pool, StatsFlowThroughEbrSnapshot) {
  EbrDomain domain;
  const auto before = domain.stats().pool;
  {
    lot::lo::AvlMap<std::int64_t, std::int64_t, std::less<std::int64_t>,
                    PoolNodeAlloc>
        map(domain);
    for (std::int64_t k = 0; k < 128; ++k) ASSERT_TRUE(map.insert(k, k));
    const auto during = domain.stats().pool;
    EXPECT_GE(during.allocs, before.allocs + 128);
    EXPECT_GT(during.slabs, 0u);
    // A 128-node map's pool stays far below kHugeChunkAfterSlabs.
    EXPECT_EQ(during.huge_chunks, before.huge_chunks);
    EXPECT_GE(during.live_slots(), 128u);
  }
  domain.flush();
  const auto after = domain.stats().pool;
  EXPECT_GE(after.frees, before.frees + 128);
}

}  // namespace
