// MVCC scaffolding for the snapshot layer (DESIGN.md §16): the
// stamp-finalization protocol, the past-incarnation version records and
// the limbo list. The policy of *when* these are used lives in
// lo/core.hpp; the epoch clock and the snapshot floors live in the EBR
// domain (reclaim/ebr.hpp), so every map on a domain reads one clock.
// This header owns the data types and the memory-ordering contract.
//
// Design. Every node carries two epoch stamps on its hot line
// (lo/node.hpp): `vbirth` — the epoch its current incarnation became
// present — and `vdeath` — the epoch its current (or, while a zombie is
// revived, previous) incarnation became absent. A snapshot is just an
// epoch E: a key is in the snapshot iff some incarnation's
// [birth, death) interval covers E. Only the logical-removing policy can
// re-incarnate a node (revive-in-place), and only revive therefore needs
// history: it folds the outgoing incarnation into a heap-allocated
// PastVersion record pushed on the node's `vhead` chain. The on-time
// policy never revives, so its chains are always empty and its MVCC cost
// is exactly the two stamps. Crucially this keeps erase() allocation-free
// — the fault-injection campaign's accounting (every injected pool fault
// equals one caught insert bad_alloc) depends on insert being the only
// fallible operation.
//
// Stamping protocol. The clock only moves when a snapshot takes its
// cut: a stamp is a seq_cst *load* of the process/shard-shared counter
// (EpochSource::next_stamp), and snapshot() is the one writer of the
// counter — EpochSource::cut() fetch_adds it and adopts the value before
// the increment as its epoch E. Writes therefore never write the shared
// counter, and stamps are *non-decreasing*, not unique:
// for any one node birth <= death <= next birth, with equality whenever
// no cut fell between the two writes. That is exactly the information a
// reader needs, because every stamp drawn after a cut's RMW reads the
// counter at or past the increment, i.e. is >= E + 1, and every stamp
// drawn before it is <= E. The rule "present iff birth <= E and not
// death <= E" then needs no tie-breaking: an incarnation with
// birth == death is present in no cut, which is right — no snapshot can
// have fallen inside it. A writer publishes a *pending* sentinel first
// (kUnstamped for births, kDying for deaths, both seq_cst) and finalizes
// it with a CAS to a freshly drawn stamp; any reader that observes the
// pending sentinel helps with the same CAS, so the stamp is
// single-assignment and every thread agrees on it. A reader helping
// stamps with a draw made after its own cut, so the stamp is >= E + 1,
// which pushes the concurrent (not yet returned) operation after the
// reader's cut — a legal linearization. The counter starts at 1, so no
// stamp or cut ever equals the kUnstamped/kAlive sentinel 0.
//
// The resolver's vbirth re-check (a seqlock over vbirth, vdeath, value)
// stays ABA-free although a rebirth may reuse the old birth's value: the
// re-check only matters once the reader saw a birth b <= E, and a
// turnover it missed begins with the revive's kRenewing store, which
// follows the reader's first vbirth load — hence its cut — in the
// seq_cst order. The rebirth is stamped after that store, so it is
// >= E + 1 and cannot equal b.
//
// Ordering argument (the whole-scan-atomicity proof leans on this):
//  * An operation that RETURNED before a snapshot took its cut
//    (E = cut()) finalized its stamp before returning; the stamp's load
//    happens-before the cut's RMW, so coherence gives stamp <= E — the
//    snapshot cannot miss it.
//  * A snapshot that misses a node's publication must order its cut
//    before the publisher's stamp draw: the publisher issues
//    `atomic_thread_fence(seq_cst)` between the publication store and
//    the draw, and the snapshot issues one between its cut RMW and its
//    first chain read; if the snapshot's fence precedes the publisher's
//    in the seq_cst total order it missed the publication, but then the
//    cut's RMW precedes the draw, so the draw reads >= E + 1 and the
//    stamp lands strictly after E ([atomics.order] fence-fence pairing).
//    Either way the cut is consistent.
//  * The same argument with the snapshot floors in place of the chain
//    makes the limbo decision safe. A snapshot publishes its thread's
//    floor (reclaim::EbrDomain::enter_snapshot: a seq_cst RMW of the
//    domain's holder count unless its record is still counted, then a
//    seq_cst store of a clock value read before the cut, so <= E)
//    before its cut RMW. A remover whose count
//    or floor loads miss them drew its death stamp before that RMW in
//    the seq_cst order, so the stamp is <= E: skipping the park only
//    ever hides nodes the snapshot must report absent anyway. Floors
//    are per thread (views are thread-affine) and per domain, and every
//    map on a domain reads the domain's clock, so a floor is comparable
//    with every death stamp it is tested against: a thread's floor is
//    the min of its live views' tokens, and a view of one map only
//    over-parks the other maps on its domain.
//  * A view folds limbo only if the limbo's push counter moved since it
//    read LimboList::mark() before its cut. An entry the view needs has
//    death > E, so its stamp was drawn after the cut RMW, and its push,
//    which follows the draw, cannot be counted in the pre-cut mark. A
//    splice the walk observed happens-after its push (the remover parks
//    before it splices), so the post-walk counter read sees the push.
//    Both reads are seq_cst; no fence is added for them.
//  * A prune reads the lowest floor under the limbo lock, after every
//    entry it may dispose was pushed: an entry's death draw happens-
//    before that read, so a view needing the entry (death > E) stored
//    its floor before the read in the seq_cst order and holds the entry
//    back. A floor read before taking the lock would miss a view that
//    entered between the read and a later push, and dispose an entry
//    the view still needs.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "reclaim/ebr.hpp"
#include "sync/cacheline.hpp"
#include "sync/spinlock.hpp"

namespace lot::lo::mvcc {

/// Pending-birth sentinel: the incarnation is published but its stamp is
/// not yet drawn. Readers help-finalize. Node fields initialize to this.
inline constexpr std::uint64_t kUnstamped = 0;

/// Pending-rebirth sentinel: a revive is mid-flight between pushing the
/// old incarnation onto the chain and storing the new value. Readers must
/// NOT help (the value slot is not theirs yet) — they resolve through the
/// chain instead, which is correct because the rebirth will stamp later
/// than any already-drawn snapshot epoch.
inline constexpr std::uint64_t kRenewing = ~std::uint64_t{0};

/// vdeath value while the incarnation is alive (also its initializer).
inline constexpr std::uint64_t kAlive = 0;

/// Pending-death sentinel; readers help-finalize.
inline constexpr std::uint64_t kDying = ~std::uint64_t{0};

/// The floor of a thread that holds no snapshot
/// (reclaim::EbrDomain::kNoFloor).
inline constexpr std::uint64_t kNoSnapshot = ~std::uint64_t{0};

/// The epoch clock. Each EBR domain owns one that its maps share;
/// ShardedMap binds its shards (each on a private domain) to one shared
/// instance instead (LoCore::use_epoch_source).
using reclaim::EpochSource;

/// Finalizes a pending stamp slot: CASes `pending` to a freshly drawn
/// stamp, helping if someone else already did. Returns the winning stamp
/// (never `pending`). Callers must know the slot already left its
/// not-yet-pending state (kAlive for deaths, kRenewing for births).
inline std::uint64_t finalize(std::atomic<std::uint64_t>& slot,
                              std::uint64_t pending, EpochSource& src) {
  std::uint64_t cur = slot.load(std::memory_order_seq_cst);
  while (cur == pending) {
    const std::uint64_t stamp = src.next_stamp();
    if (slot.compare_exchange_weak(cur, stamp, std::memory_order_seq_cst,
                                   std::memory_order_seq_cst)) {
      return stamp;
    }
    // cur was reloaded by the failed CAS; a competing finalize may have
    // won, and its stamp is the one every thread adopts.
  }
  return cur;
}

/// One folded-away incarnation of a logically-removing node: it was
/// present exactly over [birth, death). Immutable once published on the
/// node's vhead chain, except `next`, which truncation cuts to null.
/// Records are allocated empty *before* any lock is taken (same strong-
/// exception discipline as the node itself) and filled in under the
/// interval lock, where birth/death/value are finally known.
template <typename V>
struct PastVersion {
  std::uint64_t birth = kUnstamped;
  std::uint64_t death = kUnstamped;
  V value{};
  std::atomic<PastVersion*> next{nullptr};
};

/// Nodes unlinked from the ordering chain while a snapshot still needs
/// them (death stamp above some thread's snapshot floor at unlink time)
/// park here instead of retiring. Entries are pruned when snapshots
/// release, and by writers (LoCore::mvcc_limbo_decision) when the list
/// outgrows its prune mark: death <= the lowest floor means every live snapshot must
/// report the node absent, so it can finally retire.
///
/// Readers take the lock only when the list moved: a view reads mark()
/// before its cut and folds limbo only if moved_since(mark) after its
/// chain walk (third ordering bullet above).
template <typename Node>
class alignas(sync::kCacheLineSize) LimboList {
 public:
  /// Parks `node`. Returns true when the list has outgrown its prune
  /// mark: the caller should prune once the node is off the chain.
  bool push(Node* node, std::uint64_t death) {
    lock_.lock();
    entries_.push_back({node, death});
    size_.store(entries_.size(), std::memory_order_relaxed);
    pushes_.fetch_add(1, std::memory_order_seq_cst);
    const bool over = entries_.size() >= prune_mark_;
    lock_.unlock();
    return over;
  }

  /// The push counter, for moved_since(). Seq_cst: a view reads it
  /// before its cut RMW.
  std::uint64_t mark() const { return pushes_.load(std::memory_order_seq_cst); }
  bool moved_since(std::uint64_t mark) const {
    return pushes_.load(std::memory_order_seq_cst) != mark;
  }

  /// Visits every parked entry under the list lock: fn(node, death).
  /// Keep fn short; scans use this to fold limbo into their cut.
  template <typename F>
  void for_each(F&& fn) const {
    lock_.lock();
    for (const Entry& e : entries_) fn(e.node, e.death);
    lock_.unlock();
  }

  /// Disposes every entry no live snapshot can need (death <= floor),
  /// via `dispose(node)` outside the lock, and sets the prune mark to
  /// twice what stays, so writer-side prunes cost O(1) per park.
  /// Returns how many it disposed. `floor_fn()` is read under the lock:
  /// an entry pushed after a floor read was taken could be needed by a
  /// view whose floor that read missed, so the floor must postdate every
  /// push it is compared with.
  template <typename FloorFn, typename F>
  std::size_t prune(FloorFn&& floor_fn, F&& dispose) {
    std::vector<Entry> dead;
    lock_.lock();
    const std::uint64_t floor = floor_fn();
    std::size_t i = 0;
    while (i < entries_.size()) {
      if (entries_[i].death <= floor) {
        dead.push_back(entries_[i]);
        entries_[i] = entries_.back();
        entries_.pop_back();
      } else {
        ++i;
      }
    }
    size_.store(entries_.size(), std::memory_order_relaxed);
    prune_mark_ = std::max(kMinPruneMark, 2 * entries_.size());
    lock_.unlock();
    for (const Entry& e : dead) dispose(e.node);
    return dead.size();
  }

  /// Parked entries; exact at quiescence, a hint otherwise.
  std::size_t size() const { return size_.load(std::memory_order_relaxed); }

 private:
  static constexpr std::size_t kMinPruneMark = 64;
  struct Entry {
    Node* node;
    std::uint64_t death;
  };
  mutable sync::SpinLock lock_;
  std::vector<Entry> entries_;
  std::size_t prune_mark_ = kMinPruneMark;  // under lock_
  std::atomic<std::size_t> size_{0};
  std::atomic<std::uint64_t> pushes_{0};
};

}  // namespace lot::lo::mvcc
