// Shard router (DESIGN.md §15): key → shard assignment plus per-shard
// routing telemetry.
//
// Partitioning is *striped block* partitioning over a power-of-two shard
// count: the key space is cut into contiguous blocks of 2^kBlockShift
// keys and block b lands on shard b mod N (one shift, one mask — no
// division, no per-key hashing state). Two properties motivate the
// stripe over a contiguous split of the key range:
//
//  * no resize/estimation problem — a contiguous split needs to know the
//    key distribution up front or rebalance later; stripes spread any
//    dense key interval across all shards automatically;
//  * locality within a block — a range [lo, hi) has keys only in the
//    shards that own one of the blocks it intersects (shards_in), so a
//    scan no longer than a block enters one shard, or two when it
//    straddles a block edge, instead of all N;
//    and a zipfian point-op workload concentrates its hottest ranks
//    (0..2^kBlockShift-1) in a single shard — which is exactly the
//    hot-shard scenario the per-shard EBR/heat isolation is built for,
//    and what bench/ablation_shard.cpp measures.
//
// Correctness never depends on the assignment: every shard's cursor is
// sorted and the cross-shard ordered API re-merges globally (merge.hpp),
// so shard_of is pure routing policy. It must only be deterministic.
// shards_in narrows only where the comparator's order is the integer
// order the blocks were cut on, and answers "every shard" otherwise.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <type_traits>

#include "sync/cacheline.hpp"

namespace lot::shard {

/// log2 of the stripe block size: 64 consecutive keys per block, sized to
/// keep short range scans shard-local while still interleaving at a
/// granularity far below any realistic hot range.
inline constexpr unsigned kBlockShift = 6;

/// Shard index for key k over `nshards` (power of two) shards. Signed
/// keys go through make_unsigned — negative keys wrap high, which is fine:
/// the assignment only needs to be deterministic, not order-preserving.
template <typename K>
constexpr std::size_t shard_of(const K& k, std::size_t nshards) {
  static_assert(std::is_integral_v<K>,
                "the shard router partitions integral key spaces; wrap "
                "other key types in an order-preserving encoding first");
  using U = std::make_unsigned_t<K>;
  return static_cast<std::size_t>(
      (static_cast<std::uint64_t>(static_cast<U>(k)) >> kBlockShift) &
      (nshards - 1));
}

/// Bitmask (bit i = shard i) of the shards that own a block intersecting
/// [lo, hi), over `nshards` (power of two, at most 64) shards: exactly the
/// shards that can hold a key of the range. Precondition: lo < hi under
/// `Compare`. Narrowing needs the stripe's own key order, so it applies
/// only when `Compare` is std::less<K> and the unsigned block of lo is at
/// most the block of hi - 1 (a range from negative to non-negative keys
/// wraps the unsigned cast and is not narrowed). A range that covers
/// `nshards` or more blocks, a wrapped range and any other comparator get
/// every shard, so a caller that enters the masked shards never misses a
/// key.
template <typename Compare, typename K>
constexpr std::uint64_t shards_in([[maybe_unused]] const K& lo,
                                  [[maybe_unused]] const K& hi,
                                  std::size_t nshards) {
  const std::uint64_t all =
      nshards >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << nshards) - 1;
  if constexpr (!std::is_same_v<Compare, std::less<K>>) {
    return all;
  } else {
    using U = std::make_unsigned_t<K>;
    const K last = static_cast<K>(hi - 1);
    const std::uint64_t first_block =
        static_cast<std::uint64_t>(static_cast<U>(lo)) >> kBlockShift;
    const std::uint64_t last_block =
        static_cast<std::uint64_t>(static_cast<U>(last)) >> kBlockShift;
    if (first_block > last_block || last_block - first_block >= nshards - 1) {
      return all;
    }
    std::uint64_t mask = 0;
    for (std::uint64_t b = first_block; b <= last_block; ++b) {
      mask |= std::uint64_t{1} << (b & (nshards - 1));
    }
    return mask;
  }
}

/// Per-shard routing counters, one cacheline each so two shards' routing
/// hot paths never false-share. Point ops (insert/erase/contains/get)
/// count against the one shard they route to; ordered ops count once per
/// shard they enter — every shard for min/max/for_each/cursor/snapshot,
/// only the shards_in(lo, hi) owners for range/first/last_in_range.
/// Relaxed monotonic telemetry, same contract as the obs counters.
struct alignas(sync::kCacheLineSize) RouterShardStats {
  std::atomic<std::uint64_t> point_ops{0};
  std::atomic<std::uint64_t> ordered_ops{0};

  void note_point() { point_ops.fetch_add(1, std::memory_order_relaxed); }
  void note_ordered() { ordered_ops.fetch_add(1, std::memory_order_relaxed); }
};

struct RouterStatsSnapshot {
  std::uint64_t point_ops = 0;
  std::uint64_t ordered_ops = 0;
};

}  // namespace lot::shard
