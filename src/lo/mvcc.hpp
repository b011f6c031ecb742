// MVCC scaffolding for the snapshot layer (DESIGN.md §16): the epoch
// source, the stamp-finalization protocol, the past-incarnation version
// records, the snapshot registry and the limbo list. The policy of *when*
// these are used lives in lo/core.hpp; this header owns the data types
// and the memory-ordering contract.
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
//  * The same argument with the registry's `min_active` in place of the
//    chain makes the limbo decision safe: a remover whose min load
//    misses a registering snapshot drew its death stamp before that
//    snapshot's cut RMW in the seq_cst order, so the stamp is <= the
//    snapshot's E — skipping the limbo park only ever hides nodes the
//    snapshot must report absent anyway.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

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

/// SnapshotRegistry::min_active() when no snapshot is registered.
inline constexpr std::uint64_t kNoSnapshot = ~std::uint64_t{0};

/// The epoch clock: one per map by default, one shared instance across
/// every shard of a ShardedMap (LoCore::use_epoch_source) so per-shard
/// snapshots compose into a single cut. Only cuts write it.
class EpochSource {
 public:
  /// Current epoch, without advancing the clock — the registry's
  /// pessimistic token, which is <= any cut taken after it.
  std::uint64_t now() const { return counter_.load(std::memory_order_seq_cst); }

  /// Draws a stamp for a write: the current epoch. A seq_cst load, so
  /// it is >= E + 1 for every cut E whose RMW precedes it in the seq_cst
  /// total order and <= E for every cut it precedes (the ordering
  /// argument above).
  std::uint64_t next_stamp() const {
    return counter_.load(std::memory_order_seq_cst);
  }

  /// Takes a snapshot's cut: advances the clock and returns the epoch
  /// before the increment as E. Every stamp drawn before this RMW is
  /// <= E, every stamp drawn after it is > E. The clock's only writer.
  std::uint64_t cut() {
    return counter_.fetch_add(1, std::memory_order_seq_cst);
  }

 private:
  std::atomic<std::uint64_t> counter_{1};
};

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

/// The active-snapshot registry: what gives writers a safe lower bound
/// (`min_active`) on every live snapshot's epoch, for the limbo decision
/// and for chain truncation. Registration is *pessimistic*: a snapshot
/// reserves with the clock value read before it adopts its real epoch E,
/// so the registered value is <= E and min_active() never overshoots.
/// The reserve's seq_cst min store precedes the snapshot's epoch
/// adoption, completing the Dekker pairing with writers' min loads.
class SnapshotRegistry {
 public:
  /// Registers a snapshot-to-be and returns its token (the pessimistic
  /// epoch). Call *before* reading the cut epoch.
  std::uint64_t reserve(EpochSource& src) {
    lock_.lock();
    const std::uint64_t m = src.now();
    active_.push_back(m);
    recompute_min_locked();
    lock_.unlock();
    return m;
  }

  /// Deregisters; pass the token reserve() returned.
  void release(std::uint64_t token) {
    lock_.lock();
    for (std::size_t i = 0; i < active_.size(); ++i) {
      if (active_[i] == token) {
        active_[i] = active_.back();
        active_.pop_back();
        break;
      }
    }
    recompute_min_locked();
    lock_.unlock();
  }

  /// Lower bound on every registered snapshot's epoch; kNoSnapshot when
  /// none is registered. Seq_cst: writers' limbo/truncation decisions
  /// order against reserve() through this load.
  std::uint64_t min_active() const {
    return min_active_.load(std::memory_order_seq_cst);
  }

  std::size_t active_count() const {
    lock_.lock();
    const std::size_t n = active_.size();
    lock_.unlock();
    return n;
  }

 private:
  void recompute_min_locked() {
    std::uint64_t m = kNoSnapshot;
    for (const std::uint64_t e : active_) {
      if (e < m) m = e;
    }
    min_active_.store(m, std::memory_order_seq_cst);
  }

  mutable sync::SpinLock lock_;
  std::vector<std::uint64_t> active_;
  std::atomic<std::uint64_t> min_active_{kNoSnapshot};
};

/// Nodes unlinked from the ordering chain while a snapshot still needs
/// them (death stamp > min_active at unlink time) park here instead of
/// retiring: snapshot scans collect limbo *after* their chain walk, so a
/// node that vanished from the chain mid-walk is guaranteed already
/// parked (the remover parks before it splices). Entries are pruned when
/// snapshots release: death <= min_active means every live snapshot must
/// report the node absent, so it can finally retire.
template <typename Node>
class LimboList {
 public:
  void push(Node* node, std::uint64_t death) {
    lock_.lock();
    entries_.push_back({node, death});
    lock_.unlock();
  }

  /// Visits every parked entry under the list lock: fn(node, death).
  /// Keep fn short; scans use this to fold limbo into their cut.
  template <typename F>
  void for_each(F&& fn) const {
    lock_.lock();
    for (const Entry& e : entries_) fn(e.node, e.death);
    lock_.unlock();
  }

  /// Disposes every entry no live snapshot can need (death <=
  /// min_active), via `dispose(node)` outside the lock. Returns how many.
  template <typename F>
  std::size_t prune(std::uint64_t min_active, F&& dispose) {
    std::vector<Entry> dead;
    lock_.lock();
    std::size_t i = 0;
    while (i < entries_.size()) {
      if (entries_[i].death <= min_active) {
        dead.push_back(entries_[i]);
        entries_[i] = entries_.back();
        entries_.pop_back();
      } else {
        ++i;
      }
    }
    lock_.unlock();
    for (const Entry& e : dead) dispose(e.node);
    return dead.size();
  }

  std::size_t size() const {
    lock_.lock();
    const std::size_t n = entries_.size();
    lock_.unlock();
    return n;
  }

 private:
  struct Entry {
    Node* node;
    std::uint64_t death;
  };
  mutable sync::SpinLock lock_;
  std::vector<Entry> entries_;
};

}  // namespace lot::lo::mvcc
