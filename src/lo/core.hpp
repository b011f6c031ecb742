// The shared engine of the logical-ordering trees (paper Algorithms 1–10):
// one implementation of the two-layer protocol — lock-free search + ordering
// walk, succ-lock interval acquisition, insert linking, removal unlinking,
// and the ordered read layer built on the pred/succ chain — parameterized by
//
//   * `Balanced`       — AVL height maintenance + relaxed rebalancing
//                        (§4.1–4.5) vs the plain BST of §4.6;
//   * `Alloc`          — the node allocation policy (reclaim/pool.hpp);
//   * `RemovalPolicy`  — on-time deletion (OnTimeRemoval, §3.3: a removal
//                        physically unlinks the node before returning, two-
//                        children removals relocate the successor) vs the
//                        partially-external "logical removing" variation
//                        (LogicalRemoving, §6: a two-children removal only
//                        flags the node `deleted`, a later insert of the
//                        same key revives it in place, and physical removal
//                        happens opportunistically once the child count
//                        drops);
//   * `NodeTmpl`       — the node layout (lo/node.hpp; bench/ablation_alloc
//                        substitutes the pre-PR packed layout).
//
// `LoMap` (lo/map.hpp) and `PartialMap` (lo/partial.hpp) are thin
// instantiations of this class; they add nothing but a name.
//
// Properties reproduced from the paper:
//  * contains / get are lock-free and never restart: one tree descent that
//    tolerates concurrent rotations/relocations, then a pred/succ walk over
//    the logical ordering to reach a verdict (§3.2, Algorithms 1–2);
//  * ordered access (min/max/for_each/range/next/prev/cursor) reuses the
//    same chain, so every ordered read is lock-free as well (§4.7). Range
//    scans are weakly consistent *per key*: see range() and DESIGN.md §11;
//  * two-layer locking: per-node succ_lock over the ordering intervals,
//    per-node tree_lock over the physical layout, acquired in the global
//    order of §5.1 (succ locks first, ascending by key; tree locks
//    bottom-up; against-order acquisitions use try_lock + restart).
//
// Deviations from the paper's *pseudocode* (not its algorithm), documented
// in DESIGN.md §"pseudocode errata":
//  * Algorithms 3/7 line 3 read `node.key > k ? node.pred : node`; when
//    search returns the node with key k this selects a predecessor whose
//    interval can never contain k and the operation would restart forever.
//    The predecessor candidate must be chosen for `node.key >= k`.
//  * choose_parent may fall back to the predecessor, but the -inf sentinel
//    is never a physical parent (it is outside the tree layout, §4.1), so
//    the fallback skips to the successor in that case.
//  * Algorithm 2's ordering walk needs a third loop — back off marked
//    nodes via pred before walking succ — or a lookup that lands on a
//    removed-but-not-yet-tree-unlinked node with the sought key misses a
//    concurrently re-inserted key (stale-duplicate shadowing; see locate()
//    and DESIGN.md). The verified plankton model of this structure carries
//    the same loop.
//
// Instrumentation: the race windows this algorithm tolerates (node in the
// ordering layout but not the tree, marked but not yet unlinked, successor
// mid-relocation, a scan mid-walk) carry named check::perturb_point()
// hooks. They compile to nothing unless the translation unit defines
// LOT_SCHEDULE_PERTURB; the stress harness under tests/stress/ builds with
// it to widen those windows. LOT_INJECT_BUG (negative controls for the
// linearizability checker) is valued: ==1 breaks locate() into a tree-only
// lookup — exactly the naive design the logical ordering exists to fix —
// and ==2 skips the version bump on the insert relink, so a writer trusts
// a stale versioned capture and splices past a just-linked node (lost
// update). Either way perturbed runs yield non-linearizable histories the
// checker must reject.
// Fault injection (inject/inject.hpp, LOT_FAULT_INJECT) attacks the
// resource windows instead: seeded bad_alloc at the insert allocation site
// and seeded guard stalls in readers and writers.
//
// Failure model (DESIGN.md §9): insert offers the strong exception
// guarantee under allocation failure with either policy. OnTimeRemoval
// allocates the node *before* any lock is taken; LogicalRemoving allocates
// lazily (the revive path is allocation-free — the point of the variant)
// but always with the interval lock dropped, revalidating afterwards.
// Either way a bad_alloc propagates with no locks held, no node
// half-linked, and the map unchanged; erase allocates nothing on its own
// and can only fail inside EbrDomain::retire, which is itself OOM-safe.
#pragma once

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <optional>
#include <utility>
#include <vector>

#include "check/perturb.hpp"
#include "health/governor.hpp"
#include "inject/inject.hpp"
#include "lo/detail.hpp"
#include "lo/mvcc.hpp"
#include "lo/node.hpp"
#include "lo/rebalance.hpp"
#include "obs/counters.hpp"
#include "reclaim/ebr.hpp"
#include "reclaim/pool.hpp"
#include "sync/backoff.hpp"

namespace lot::lo {

/// Removal policy of the main algorithm (§3.3): every successful erase
/// physically unlinks its node before returning, relocating the successor
/// when the node has two children. Owns no NodeT field beyond `mark`;
/// values are plain (immutable after publication).
struct OnTimeRemoval {
  static constexpr bool kLogicalRemoving = false;
  static constexpr inject::Site kInsertAllocSite = inject::Site::kLoInsertAlloc;
};

/// Removal policy of the partially-external variation (§6). Owns the
/// `deleted` flag and the atomic value slot of PartialNode: a two-children
/// erase only sets `deleted` (the node stays in both layouts as a zombie),
/// insert revives a zombie in place by storing the value and clearing
/// `deleted`, and physical removal happens opportunistically (try_purge /
/// purge_all) once a zombie drops to at most one child.
struct LogicalRemoving {
  static constexpr bool kLogicalRemoving = true;
  static constexpr inject::Site kInsertAllocSite =
      inject::Site::kPartialInsertAlloc;
};

namespace detail {
inline std::atomic<std::uint32_t>& write_resume_limit_flag() {
  static std::atomic<std::uint32_t> limit{8};
  return limit;
}
}  // namespace detail

/// Resume budget for the versioned write path (DESIGN.md §13): a failed
/// interval validation resumes the ordering walk from its captured
/// predecessor up to this many times per descent before falling back to a
/// full root re-descent. 0 restores the pre-versioning root-restart
/// discipline exactly (bench/ablation_restart.cpp A/B arm).
inline void set_write_resume_limit(std::uint32_t n) {
  detail::write_resume_limit_flag().store(n, std::memory_order_relaxed);
}
inline std::uint32_t write_resume_limit() {
  return detail::write_resume_limit_flag().load(std::memory_order_relaxed);
}

template <typename K, typename V, typename Compare, bool Balanced,
          typename Alloc, typename RemovalPolicy,
          template <typename, typename> class NodeTmpl>
class LoCore {
 public:
  using key_type = K;
  using mapped_type = V;
  using key_compare = Compare;
  using alloc_type = Alloc;
  using removal_policy = RemovalPolicy;
  using NodeT = NodeTmpl<K, V>;

  static constexpr bool kBalanced = Balanced;
  static constexpr bool kLogicalRemoving = RemovalPolicy::kLogicalRemoving;

  /// `alloc` is the allocation *handle* (reclaim/pool.hpp): default-
  /// constructed it resolves the process-wide per-type pool, while a
  /// handle over an explicit SizePool makes this structure's nodes come
  /// from that pool alone — how ShardedMap keeps each shard's slab
  /// traffic shard-local. Destruction stays handle-free (Alloc::destroy
  /// is static and routes by pointer), so retire paths never need the
  /// handle threaded through.
  explicit LoCore(reclaim::EbrDomain& domain =
                      reclaim::EbrDomain::global_domain(),
                  Compare comp = Compare(), Alloc alloc = Alloc())
      : domain_(&domain),
        comp_(std::move(comp)),
        alloc_(std::move(alloc)),
        epoch_src_(&domain.snapshot_clock()) {
    // Sentinels use the same allocation policy as ordinary nodes and are
    // destroyed through it, so alloc_stats (and the pool's slot
    // accounting) balance to zero at teardown.
    neg_ = alloc_.template create<NodeT>(K{}, V{}, Tag::kNegInf);
    try {
      pos_ = alloc_.template create<NodeT>(K{}, V{}, Tag::kPosInf);
    } catch (...) {
      Alloc::template destroy<NodeT>(neg_);
      throw;
    }
    neg_->succ.store(pos_, std::memory_order_relaxed);
    pos_->pred.store(neg_, std::memory_order_relaxed);
    // The root is the +inf sentinel; -inf lives only in the ordering
    // layout (paper §4.1). The real tree hangs off root->left.
    root_ = pos_;
  }

  ~LoCore() {
    // At destruction no operations are in flight; every live node is on
    // the ordering chain (removed nodes were retired to the domain), plus
    // whatever the limbo list still parks for snapshots that no longer
    // exist. Version chains are owned by their node and die with it.
    NodeT* node = neg_;
    while (node != nullptr) {
      NodeT* next = node->succ.load(std::memory_order_relaxed);
      mvcc_destroy_versions(node);
      Alloc::template destroy<NodeT>(node);
      node = next;
    }
    limbo_.prune([] { return mvcc::kNoSnapshot; }, [this](NodeT* n) {
      mvcc_destroy_versions(n);
      Alloc::template destroy<NodeT>(n);
    });
  }

  LoCore(const LoCore&) = delete;
  LoCore& operator=(const LoCore&) = delete;

  // ---------------------------------------------------------------- reads

  /// Lock-free membership test (Algorithm 2).
  bool contains(const K& k) const {
    auto g = domain_->guard();
    inject::stall_point(inject::Site::kGuardStallReader);
    const auto tc = obs::tls();
    tc.add(obs::Counter::kContainsOps);
    const NodeT* node = locate(k, tc);
    const bool hit = cmp(node, k) == 0 && is_present(node);
    if (hit) tc.add(obs::Counter::kContainsHits);
    return hit;
  }

  /// Lock-free lookup; empty if the key is absent.
  std::optional<V> get(const K& k) const {
    auto g = domain_->guard();
    inject::stall_point(inject::Site::kGuardStallReader);
    const auto tc = obs::tls();
    tc.add(obs::Counter::kGetOps);
    const NodeT* node = locate(k, tc);
    if (cmp(node, k) != 0) return std::nullopt;
    // Read the value before re-checking presence so (logical removing) a
    // racing revive cannot hand us a value newer than the presence
    // decision; with on-time removal values are immutable and the order is
    // immaterial.
    const V v = read_value(node);
    if (!is_present(node)) return std::nullopt;
    return v;
  }

  /// Smallest present key (paper §4.7): walk the chain from -inf past
  /// nodes that lost a race with a concurrent remove (or, logical
  /// removing, past zombies).
  std::optional<std::pair<K, V>> min() const {
    auto g = domain_->guard();
    obs::count(obs::Counter::kMinMaxOps);
    const NodeT* node = neg_->succ.load(std::memory_order_acquire);
    while (node != pos_) {
      const V v = read_value(node);
      if (is_present(node)) return std::make_pair(node->key, v);
      node = node->succ.load(std::memory_order_acquire);
    }
    return std::nullopt;
  }

  std::optional<std::pair<K, V>> max() const {
    auto g = domain_->guard();
    obs::count(obs::Counter::kMinMaxOps);
    const NodeT* node = pos_->pred.load(std::memory_order_acquire);
    while (node != neg_) {
      const V v = read_value(node);
      if (is_present(node)) return std::make_pair(node->key, v);
      node = node->pred.load(std::memory_order_acquire);
    }
    return std::nullopt;
  }

  /// Ascending, weakly consistent iteration over the logical ordering
  /// (paper §4.7): sees every key present for the whole iteration, may or
  /// may not see concurrent updates.
  template <typename F>
  void for_each(F&& fn) const {
    auto g = domain_->guard();
    const NodeT* node = neg_->succ.load(std::memory_order_acquire);
    while (node != pos_) {
      const V v = read_value(node);
      if (is_present(node)) fn(node->key, v);
      node = node->succ.load(std::memory_order_acquire);
    }
  }

  /// Lock-free ordered range scan over [lo, hi): descends once to the
  /// range's start, then walks the succ chain — O(log n + |range|) instead
  /// of a full iteration, with no locks and no restarts, like contains.
  ///
  /// Consistency guarantee (DESIGN.md §11): the scan is weakly consistent
  /// *per key*, not atomic over the range. Every key it reports was
  /// present at some instant within the scan's own interval, every in-range
  /// key it skips was absent at some instant within that interval (each
  /// verdict is justified at the instant the walk passes that key's chain
  /// position — the mark/deleted store is the remove's linearization
  /// point), and reported keys are strictly increasing. Keys inserted or
  /// removed mid-scan may or may not appear; a snapshot over the whole
  /// range is deliberately not offered.
  template <typename F>
  void range(const K& lo, const K& hi, F&& fn) const {
    if (!comp_(lo, hi)) return;
    auto g = domain_->guard();
    inject::stall_point(inject::Site::kGuardStallReader);
    const auto tc = obs::tls();
    tc.add(obs::Counter::kRangeOps);
    std::uint64_t reported = 0;
    const NodeT* node = locate(lo, tc);  // first node with key >= lo
    while (node != pos_ &&
           (node->tag == Tag::kNegInf || comp_(node->key, hi))) {
      check::perturb_point(check::PerturbPoint::kRangeStep);
      if (node->tag == Tag::kNormal && !comp_(node->key, lo)) {
        const V v = read_value(node);
        if (is_present(node)) {
          fn(node->key, v);
          ++reported;
        }
      }
      node = node->succ.load(std::memory_order_acquire);
    }
    if (reported != 0) tc.add(obs::Counter::kRangeKeysReported, reported);
  }

  /// Smallest present key in [lo, hi), or empty. Same consistency
  /// guarantee as range().
  std::optional<std::pair<K, V>> first_in_range(const K& lo,
                                                const K& hi) const {
    if (!comp_(lo, hi)) return std::nullopt;
    auto g = domain_->guard();
    const auto tc = obs::tls();
    tc.add(obs::Counter::kOrderedLocates);
    const NodeT* node = locate(lo, tc);
    while (node != pos_ &&
           (node->tag == Tag::kNegInf || comp_(node->key, hi))) {
      if (node->tag == Tag::kNormal && !comp_(node->key, lo)) {
        const V v = read_value(node);
        if (is_present(node)) return std::make_pair(node->key, v);
      }
      node = node->succ.load(std::memory_order_acquire);
    }
    return std::nullopt;
  }

  /// Largest present key in [lo, hi), or empty: locate the range's end,
  /// then walk pred — O(log n + skipped) instead of scanning the whole
  /// range. Same consistency guarantee as range().
  std::optional<std::pair<K, V>> last_in_range(const K& lo,
                                               const K& hi) const {
    if (!comp_(lo, hi)) return std::nullopt;
    auto g = domain_->guard();
    const auto tc = obs::tls();
    tc.add(obs::Counter::kOrderedLocates);
    const NodeT* node = locate(hi, tc);  // first node with key >= hi
    while (node != neg_) {
      if (node->tag == Tag::kNormal) {
        if (comp_(node->key, lo)) break;  // walked below the range
        if (comp_(node->key, hi)) {
          const V v = read_value(node);
          if (is_present(node)) return std::make_pair(node->key, v);
        }
      }
      node = node->pred.load(std::memory_order_acquire);
    }
    return std::nullopt;
  }

  /// Smallest present key strictly greater than k (lock-free, one descent
  /// plus succ hops — the logical ordering makes successor queries O(1)
  /// from a located node, paper §3.1).
  std::optional<std::pair<K, V>> next(const K& k) const {
    auto g = domain_->guard();
    const auto tc = obs::tls();
    tc.add(obs::Counter::kOrderedLocates);
    const NodeT* node = locate(k, tc);  // first node with key >= k
    if (cmp(node, k) == 0) node = node->succ.load(std::memory_order_acquire);
    while (node != pos_) {
      const V v = read_value(node);
      if (node->tag == Tag::kNormal && is_present(node) &&
          comp_(k, node->key)) {
        return std::make_pair(node->key, v);
      }
      node = node->succ.load(std::memory_order_acquire);
    }
    return std::nullopt;
  }

  /// Largest present key strictly smaller than k (mirror of next()).
  std::optional<std::pair<K, V>> prev(const K& k) const {
    auto g = domain_->guard();
    const auto tc = obs::tls();
    tc.add(obs::Counter::kOrderedLocates);
    const NodeT* node = locate(k, tc);
    while (node != neg_) {
      const V v = read_value(node);
      if (node->tag == Tag::kNormal && is_present(node) &&
          comp_(node->key, k)) {
        return std::make_pair(node->key, v);
      }
      node = node->pred.load(std::memory_order_acquire);
    }
    return std::nullopt;
  }

  /// Ordered cursor over the logical ordering (paper §4.7's first()/
  /// next(node) iteration): each advance is one succ hop, O(1), instead of
  /// a fresh descent. The cursor pins a reclamation epoch for its entire
  /// lifetime — keep cursors short-lived on update-heavy maps, or retired
  /// nodes pile up behind the pinned epoch.
  class Cursor {
   public:
    /// Yields the next present key in ascending order, or empty at the
    /// end. Weakly consistent, like for_each.
    std::optional<std::pair<K, V>> next() {
      if (pending_.has_value()) {
        auto kv = std::move(*pending_);
        pending_.reset();
        return kv;
      }
      if (node_ == map_->pos_) return std::nullopt;  // stay exhausted
      const NodeT* n = node_->succ.load(std::memory_order_acquire);
      while (n != map_->pos_) {
        // Same widened window as range()'s chain walk: cursor advances
        // race marks/unlinks, and the sharded merge holds cursors open
        // far longer than a single scan does.
        check::perturb_point(check::PerturbPoint::kRangeStep);
        const V v = read_value(n);
        if (is_present(n)) {
          node_ = n;
          return std::make_pair(n->key, v);
        }
        n = n->succ.load(std::memory_order_acquire);
      }
      node_ = n;
      return std::nullopt;
    }

   private:
    explicit Cursor(const LoCore& m)
        : guard_(m.domain_->guard()), map_(&m), node_(m.neg_) {}
    /// Positioned start: one descent to the first chain node with
    /// key >= lo. If that node is a present normal node it must be the
    /// first key this cursor yields, but next() advances *past* node_ —
    /// so its kv is captured eagerly (justified at this instant, the same
    /// per-key weak consistency as range()) and replayed by the first
    /// next() call.
    Cursor(const LoCore& m, const K& lo)
        : guard_(m.domain_->guard()), map_(&m) {
      // The open's descent must be accounted like any other ordered locate
      // or the contains_restarts audit (obs/obs.hpp) would see an orphan
      // kTreeDescents increment.
      const auto tc = obs::tls();
      tc.add(obs::Counter::kOrderedLocates);
      const NodeT* n = m.locate(lo, tc);
      node_ = n;
      if (n->tag == Tag::kNormal) {
        const V v = read_value(n);
        if (is_present(n)) pending_.emplace(n->key, v);
      }
    }
    reclaim::EbrDomain::Guard guard_;
    const LoCore* map_;
    const NodeT* node_;
    std::optional<std::pair<K, V>> pending_;
    friend class LoCore;
  };

  /// A cursor positioned before the smallest key.
  Cursor cursor() const { return Cursor(*this); }

  /// A cursor positioned before the smallest key >= lo: one O(log n)
  /// descent instead of walking the chain from -inf — what ShardedMap's
  /// cross-shard range merge uses to enter each shard at the range start.
  Cursor cursor(const K& lo) const { return Cursor(*this, lo); }

  /// A snapshot reserved but not yet adopted (snapshot_reserve): it
  /// holds its thread's snapshot floor, the pessimistic token behind it
  /// and the limbo mark read before the cut. Adopting hands the floor to
  /// the view; a ticket dropped unadopted releases it. Thread-affine.
  class SnapshotTicket {
   public:
    SnapshotTicket(SnapshotTicket&&) noexcept = default;

   private:
    SnapshotTicket(reclaim::EbrDomain::SnapshotFloor floor,
                   std::uint64_t token, std::uint64_t mark)
        : floor_(std::move(floor)), token_(token), limbo_mark_(mark) {}
    reclaim::EbrDomain::SnapshotFloor floor_;
    std::uint64_t token_;
    std::uint64_t limbo_mark_;
    friend class LoCore;
  };

  /// An epoch-pinned consistent read view (DESIGN.md §16): every read
  /// through the view resolves against the single cut E adopted at
  /// snapshot() time — the whole scan linearizes at one point, unlike
  /// the live range()'s per-key weak consistency. The view pins a
  /// reclamation epoch and holds its thread's snapshot floor for its
  /// lifetime (both block retirement behind it), so keep views
  /// short-lived on update-heavy maps, like cursors. Views are
  /// thread-affine, like the Guard they hold: release them on the thread
  /// that took them.
  class SnapshotView {
   public:
    SnapshotView(SnapshotView&& o) noexcept
        : guard_(std::move(o.guard_)),
          floor_(std::move(o.floor_)),
          map_(o.map_),
          epoch_(o.epoch_),
          limbo_mark_(o.limbo_mark_),
          view_reads_(o.view_reads_) {
      o.map_ = nullptr;
    }
    SnapshotView(const SnapshotView&) = delete;
    SnapshotView& operator=(const SnapshotView&) = delete;
    SnapshotView& operator=(SnapshotView&&) = delete;
    ~SnapshotView() { release(); }

    /// The cut: every read reports the map as of this epoch.
    std::uint64_t epoch() const { return epoch_; }

    bool contains(const K& k) const {
      const auto tc = obs::tls();
      tc.add(obs::Counter::kContainsOps);
      const bool hit = lookup(k, tc).has_value();
      if (hit) tc.add(obs::Counter::kContainsHits);
      return hit;
    }

    std::optional<V> get(const K& k) const {
      const auto tc = obs::tls();
      tc.add(obs::Counter::kGetOps);
      return lookup(k, tc);
    }

    /// Ordered scan of [lo, hi) as of the cut — the atomic counterpart
    /// of the live range().
    template <typename F>
    void range(const K& lo, const K& hi, F&& fn) const {
      if (map_ == nullptr || !map_->comp_(lo, hi)) return;
      const auto tc = obs::tls();
      tc.add(obs::Counter::kRangeOps);
      const auto kvs = collect(&lo, &hi, tc);
      if (!kvs.empty()) {
        tc.add(obs::Counter::kRangeKeysReported, kvs.size());
      }
      for (const auto& kv : kvs) fn(kv.first, kv.second);
    }

    /// Full ordered iteration as of the cut.
    template <typename F>
    void for_each(F&& fn) const {
      if (map_ == nullptr) return;
      const auto kvs = collect(nullptr, nullptr, obs::tls());
      for (const auto& kv : kvs) fn(kv.first, kv.second);
    }

    /// Cursor over the cut. Materialized eagerly: limbo entries can
    /// appear mid-iteration, so a lazy chain walk could not fold them in
    /// at the right positions; the snapshot is immutable anyway.
    class Cursor {
     public:
      std::optional<std::pair<K, V>> next() {
        if (index_ >= kvs_.size()) return std::nullopt;
        return kvs_[index_++];
      }

     private:
      explicit Cursor(std::vector<std::pair<K, V>> kvs)
          : kvs_(std::move(kvs)) {}
      std::vector<std::pair<K, V>> kvs_;
      std::size_t index_ = 0;
      friend class SnapshotView;
    };

    Cursor cursor() const {
      if (map_ == nullptr) return Cursor({});
      return Cursor(collect(nullptr, nullptr, obs::tls()));
    }

    /// Cursor over [lo, hi) of the cut — the sharded snapshot's merge
    /// input. Bounded, so a short scan materializes only its own span,
    /// not the whole tail past lo. The descent is paid for with an
    /// ordered-locate count, same as the live cursor(lo).
    Cursor cursor(const K& lo, const K& hi) const {
      if (map_ == nullptr) return Cursor({});
      const auto tc = obs::tls();
      tc.add(obs::Counter::kOrderedLocates);
      return Cursor(collect(&lo, &hi, tc));
    }

    /// Drops the snapshot floor and the reclamation pin early (the
    /// destructor calls this too) and prunes limbo entries the departure
    /// may have freed up. Reads after release() return empty.
    void release() {
      if (map_ == nullptr) return;
      const LoCore* m = map_;
      map_ = nullptr;
      floor_.reset();
      guard_.reset();
      m->mvcc_prune_limbo();
    }

   private:
    /// Takes over the ticket's floor once the guard is held.
    SnapshotView(const LoCore& m, SnapshotTicket&& t, std::uint64_t e)
        : guard_(m.domain_->guard()),
          floor_(std::move(t.floor_)),
          map_(&m),
          epoch_(e),
          limbo_mark_(t.limbo_mark_) {}

    /// Whether limbo can hold an entry this view needs: only if it took
    /// a push since the pre-cut mark (mvcc.hpp, ordering argument).
    bool limbo_moved(obs::Tls tc) const {
      if (!map_->limbo_.moved_since(limbo_mark_)) return false;
      tc.add(obs::Counter::kLimboFolds);
      return true;
    }

    /// Point read against the cut: resolve the chain node for k, then
    /// fall back to limbo — a node unlinked after the cut was parked
    /// before it left the chain, so the two probes cannot both miss.
    std::optional<V> lookup(const K& k, obs::Tls tc) const {
      if (map_ == nullptr) return std::nullopt;
      std::optional<V> out;
      const NodeT* node = map_->locate(k, tc);
      if (map_->cmp(node, k) == 0 && node->tag == Tag::kNormal) {
        out = map_->mvcc_resolve(node, epoch_, &view_reads_, tc);
      }
      if (!out.has_value() && limbo_moved(tc)) {
        map_->limbo_.for_each([&](NodeT* n, std::uint64_t death) {
          if (out.has_value() || death <= epoch_) return;
          if (map_->cmp(n, k) == 0) {
            out = map_->mvcc_resolve(n, epoch_, &view_reads_, tc);
          }
        });
      }
      return out;
    }

    /// Materializes the cut over [lo, hi) (null = unbounded): resolve
    /// every in-range chain node, then fold in limbo — nodes spliced out
    /// mid-walk were parked first (erase parks *before* the splice), so
    /// the union cannot miss a key the cut contains. A key can surface
    /// from both probes (resolved on-chain, then spliced and parked
    /// before the limbo pass); at most one incarnation per key covers
    /// any epoch, so the duplicate is value-identical and unique() after
    /// the merge drops it.
    std::vector<std::pair<K, V>> collect(const K* lo, const K* hi,
                                         obs::Tls tc) const {
      std::vector<std::pair<K, V>> out;
      const NodeT* node = lo != nullptr
                              ? map_->locate(*lo, tc)
                              : map_->neg_->succ.load(std::memory_order_acquire);
      while (node != map_->pos_ &&
             (node->tag == Tag::kNegInf || hi == nullptr ||
              map_->comp_(node->key, *hi))) {
        check::perturb_point(check::PerturbPoint::kRangeStep);
        if (node->tag == Tag::kNormal &&
            (lo == nullptr || !map_->comp_(node->key, *lo))) {
          const auto v = map_->mvcc_resolve(node, epoch_, &view_reads_, tc);
          if (v.has_value()) out.emplace_back(node->key, *v);
        }
        node = node->succ.load(std::memory_order_acquire);
      }
      std::vector<std::pair<K, V>> parked;
      if (limbo_moved(tc)) {
        map_->limbo_.for_each([&](NodeT* n, std::uint64_t death) {
          if (death <= epoch_) return;  // absent at the cut; skip cheaply
          if (n->tag != Tag::kNormal) return;
          if (lo != nullptr && map_->comp_(n->key, *lo)) return;
          if (hi != nullptr && !map_->comp_(n->key, *hi)) return;
          const auto v = map_->mvcc_resolve(n, epoch_, &view_reads_, tc);
          if (v.has_value()) parked.emplace_back(n->key, *v);
        });
      }
      if (!parked.empty()) {
        const auto less = [this](const std::pair<K, V>& a,
                                 const std::pair<K, V>& b) {
          return map_->comp_(a.first, b.first);
        };
        std::sort(parked.begin(), parked.end(), less);
        const auto mid = static_cast<std::ptrdiff_t>(out.size());
        out.insert(out.end(), parked.begin(), parked.end());
        std::inplace_merge(out.begin(), out.begin() + mid, out.end(), less);
        out.erase(std::unique(out.begin(), out.end(),
                              [this](const std::pair<K, V>& a,
                                     const std::pair<K, V>& b) {
                                return !map_->comp_(a.first, b.first) &&
                                       !map_->comp_(b.first, a.first);
                              }),
                  out.end());
      }
      return out;
    }

    std::optional<reclaim::EbrDomain::Guard> guard_;
    std::optional<reclaim::EbrDomain::SnapshotFloor> floor_;
    const LoCore* map_;
    std::uint64_t epoch_;
    std::uint64_t limbo_mark_;
    /// Per-view resolution counter feeding the LOT_INJECT_BUG==3 arm
    /// (mvcc_resolve); dead weight otherwise.
    mutable std::uint64_t view_reads_ = 0;
    friend class LoCore;
  };

  /// Takes a consistent snapshot of the map: publishes the thread's
  /// snapshot floor *first* (so writers' limbo decisions already see it),
  /// then takes the cut E — the clock's only advance.
  SnapshotView snapshot() const {
    SnapshotTicket t = snapshot_reserve();
    const std::uint64_t e = epoch_src().cut();
    return snapshot_adopt(std::move(t), e);
  }

  /// Two-phase snapshot for multi-shard composition (shard/sharded_map
  /// .hpp): every shard reserves first, then ONE cut E is taken from the
  /// shared epoch source (EpochSource::cut) and adopted by all —
  /// per-shard views over the same E form a single consistent cut of
  /// the whole sharded map.
  /// Requires use_epoch_source() to have bound the shards together.
  SnapshotTicket snapshot_reserve() const {
    const std::uint64_t token = epoch_src().now();
    auto floor = domain_->enter_snapshot(token);
    return SnapshotTicket(std::move(floor), token, limbo_.mark());
  }

  /// The fence pairs with the one in mvcc_stamp_fresh: a publication
  /// this snapshot missed stamps strictly after E (mvcc.hpp, ordering
  /// argument). `e` must be a cut taken after `t` was reserved.
  SnapshotView snapshot_adopt(SnapshotTicket t, std::uint64_t e) const {
    assert(t.token_ <= e);
    obs::count(obs::Counter::kSnapshotAcquires);
    std::atomic_thread_fence(std::memory_order_seq_cst);
    return SnapshotView(*this, std::move(t), e);
  }

  /// Rebinds this map's epoch clock (by default its EBR domain's) to a
  /// shared source — how ShardedMap makes per-shard snapshots compose.
  /// Only for a map alone on its domain, as each shard is: snapshot
  /// floors are kept per domain, so every map on a domain must read one
  /// clock (DESIGN.md §16). Call before any write or snapshot touches
  /// the map.
  void use_epoch_source(mvcc::EpochSource& src) { epoch_src_ = &src; }
  mvcc::EpochSource& epoch_source() const { return *epoch_src_; }

  std::size_t debug_limbo_size() const { return limbo_.size(); }
  /// Threads holding a snapshot on this map's EBR domain (any map).
  std::size_t debug_active_snapshots() const {
    return domain_->snapshot_holders();
  }

  /// O(n) size via the ordering chain; exact at quiescence.
  std::size_t size_slow() const {
    std::size_t n = 0;
    for_each([&n](const K&, const V&) { ++n; });
    return n;
  }

  /// Nodes on the ordering chain, present or not. With logical removing
  /// this includes deleted ("zombie") nodes — the memory-footprint metric
  /// of ablation A2; with on-time removal it can transiently exceed
  /// size_slow() only by nodes mid-unlink.
  std::size_t physical_nodes_slow() const {
    auto g = domain_->guard();
    std::size_t n = 0;
    const NodeT* node = neg_->succ.load(std::memory_order_acquire);
    while (node != pos_) {
      ++n;
      node = node->succ.load(std::memory_order_acquire);
    }
    return n;
  }

  bool empty() const {
    auto g = domain_->guard();
    const NodeT* node = neg_->succ.load(std::memory_order_acquire);
    while (node != pos_) {
      if (is_present(node)) return false;
      node = node->succ.load(std::memory_order_acquire);
    }
    return true;
  }

  // -------------------------------------------------------------- updates

  /// Insert-if-absent (Algorithm 3). Returns false if the key is present.
  /// With logical removing, inserting over a zombie revives it in place
  /// (allocation-free) and returns true.
  ///
  /// Allocation failure (std::bad_alloc) offers the strong guarantee with
  /// either policy; see the header comment for the per-policy discipline.
  bool insert(const K& k, const V& v) {
    // Governor tick before the guard: a tick's flush must not be held
    // back by this thread's own pin (health/governor.hpp).
    health::maybe_sample_tick(*domain_);
    auto g = domain_->guard();
    inject::stall_point(inject::Site::kGuardStallWriter);
    const auto tc = obs::tls();
    NodeT* nn = nullptr;
    // Revive folds the zombie's outgoing incarnation into a PastVersion
    // record (DESIGN.md §16). Like the node itself, the record must be
    // allocated with no locks held (the pool's create throws under fault
    // injection), so the retry loop below pre-allocates one the moment a
    // revive looks likely and the locked revive stays allocation-free.
    mvcc::PastVersion<V>* vspare = nullptr;
    if constexpr (!kLogicalRemoving) {
      // Allocate before any lock acquisition or retry, so a throw leaves
      // the map untouched with no locks held.
      inject::throw_if_alloc_fault(RemovalPolicy::kInsertAllocSite);
      nn = alloc_.template create<NodeT>(k, v);
    }
    const std::uint32_t budget = write_resume_limit();
    std::uint32_t resumes = 0;
    NodeT* node = search(k, tc);
    for (;;) {
      node = ordering_walk(node, k, tc);  // first chain node with key >= k
      NodeT* p = node->pred.load(std::memory_order_acquire);
      // Versioned capture of p's interval (DESIGN.md §13): version first,
      // then succ. A relink stores succ before bumping the version, both
      // release, so when the version still matches under p's succ_lock the
      // captured succ is exactly p's current successor; any interleaved
      // relink is caught as a mismatch and merely costs a resume.
      const std::uint32_t ver = p->succ_version.load(std::memory_order_acquire);
      NodeT* s_cap = p->succ.load(std::memory_order_acquire);
      if (cmp(p, k) < 0) {
        if constexpr (kLogicalRemoving) {
          if (nn == nullptr && cmp(s_cap, k) > 0) {
            // The capture says the key is absent, so a node will be
            // needed. Allocate now, with no locks held — the revive path
            // below must stay allocation-free — instead of the pre-PR
            // lock-unlock-allocate-redescend round trip.
            try {
              inject::throw_if_alloc_fault(RemovalPolicy::kInsertAllocSite);
              nn = alloc_.template create<NodeT>(k, v);
            } catch (...) {
              // The throw abandons the descents already counted with no
              // insert op to pay for the last one; one restart count
              // keeps the descent audit balanced (DESIGN.md §12).
              mvcc_free_spare(vspare);
              tc.add(obs::Counter::kInsertRestarts);
              throw;
            }
          }
          if (vspare == nullptr && cmp(s_cap, k) == 0 &&
              s_cap->deleted.load(std::memory_order_acquire)) {
            // The capture says "zombie": the revive under the lock will
            // need a past-incarnation record. Same unwind accounting as
            // the lazy node allocation above on a throw.
            try {
              vspare = alloc_.template create<mvcc::PastVersion<V>>();
            } catch (...) {
              if (nn != nullptr) Alloc::template destroy<NodeT>(nn);
              tc.add(obs::Counter::kInsertRestarts);
              throw;
            }
          }
        }
        check::perturb_point(check::PerturbPoint::kWriterCaptured);
        p->succ_lock.lock();
        NodeT* s;
        bool valid;
        if (p->succ_version.load(std::memory_order_relaxed) == ver &&
            !p->mark.load(std::memory_order_acquire) &&
            cmp(s_cap, k) >= 0) {
          // Fast validation: the version match makes s_cap current, and
          // keys are immutable, so the captured interval still brackets
          // k. The mark must be rechecked even on a match — unlinking a
          // node bumps its *predecessor's* version, never its own.
          s = s_cap;
          valid = true;
        } else {
          s = p->succ.load(std::memory_order_relaxed);
          valid = cmp(s, k) >= 0 && !p->mark.load(std::memory_order_acquire);
        }
        if (valid) {
          if (cmp(s, k) == 0) {
            // Physically present.
            if constexpr (kLogicalRemoving) {
              if (s->deleted.load(std::memory_order_acquire)) {
                if (vspare == nullptr) {
                  // The capture missed the zombie (it was absent, or
                  // live, at capture time), so no record was
                  // pre-allocated. Never allocate under the interval
                  // lock: drop it and resume from p — the next capture
                  // sees the zombie and pre-allocates (same discipline
                  // as the nn==nullptr resume below).
                  p->succ_lock.unlock();
                  tc.add(obs::Counter::kLocateResumes);
                  node = p;
                  continue;
                }
                // Fold the outgoing incarnation into the spare record
                // and flip vbirth to kRenewing *before* the live
                // stores: snapshots resolve through the chain until
                // the rebirth is stamped (DESIGN.md §16).
                mvcc_begin_revive(s, vspare, tc);
                // Revive in place: value first, then the presence flip.
                s->value.store(v, std::memory_order_relaxed);
                s->deleted.store(false, std::memory_order_release);
                p->succ_lock.unlock();
                // Stamp the rebirth now that the revive is published;
                // after the lock so the stamp's fence never rides a held
                // spinlock.
                mvcc_stamp_fresh(s);
                if (nn != nullptr) Alloc::template destroy<NodeT>(nn);
                tc.add(obs::Counter::kInsertOps);
                tc.add(obs::Counter::kInsertSuccess);
                tc.add(obs::Counter::kInsertRevives);
                return true;
              }
            }
            p->succ_lock.unlock();
            if (nn != nullptr) Alloc::template destroy<NodeT>(nn);
            mvcc_free_spare(vspare);
            tc.add(obs::Counter::kInsertOps);
            return false;  // unsuccessful insert
          }
          if constexpr (kLogicalRemoving) {
            if (nn == nullptr) {
              // The capture said present, but the interval moved on and
              // the key is absent after all. Never allocate while holding
              // the interval lock (the revive path must stay
              // allocation-free): drop it and resume from p — the next
              // capture allocates before relocking.
              p->succ_lock.unlock();
              tc.add(obs::Counter::kLocateResumes);
              node = p;
              continue;
            }
          }
          NodeT* parent = choose_parent(p, s, node);
          // nn's vbirth is still kUnstamped (its initializer): a snapshot
          // that sees the node before mvcc_stamp_fresh below help-stamps
          // it past its own cut.
          nn->succ.store(s, std::memory_order_relaxed);
          nn->pred.store(p, std::memory_order_relaxed);
          nn->parent.store(parent, std::memory_order_relaxed);
          // Linearization point of a successful insert (§5.2). The succ
          // link must be published *first*: succ pointers are the
          // authoritative chain, and pred pointers are only repair hints
          // that the ordering walk always re-validates by walking succ
          // afterwards. Storing s->pred before p->succ lets a pred-walking
          // reader observe nn before this linearization point while a
          // succ-walking reader still misses it — a real-time inversion
          // the perturbed stress harness caught as a non-linearizable
          // history (contains(k)=true then contains(k)=false with only
          // this insert in flight). The verified plankton model orders the
          // stores the same way as below. The version bump rides the same
          // lock, after the succ store, so capture readers ordered before
          // it see the mismatch.
          p->succ.store(nn, std::memory_order_release);
#if defined(LOT_INJECT_BUG) && LOT_INJECT_BUG == 2
          // Seeded bug (checker negative control): this relink "forgets"
          // its version bump, so a concurrent writer holding a capture of
          // p's old interval validates against the stale succ and splices
          // right past nn — a lost update / real-time inversion the
          // linearizability checker must reject
          // (tests/stress/stress_lo_stale_version.cpp).
#else
          bump_succ_version(p);
#endif
          check::perturb_point(check::PerturbPoint::kInsertHalfLinked);
          s->pred.store(nn, std::memory_order_release);
          p->succ_lock.unlock();
          // Stamp the initial version now that the node is published (the
          // fence inside orders the publication before the stamp's counter
          // load); after the lock so the stamp's fence never rides a held
          // spinlock.
          mvcc_stamp_fresh(nn);
          mvcc_free_spare(vspare);
          check::perturb_point(check::PerturbPoint::kInsertBeforeTreeLink);
          tc.add(obs::Counter::kInsertOps);
          tc.add(obs::Counter::kInsertSuccess);
          insert_to_tree(parent, nn);
          return true;
        }
        p->succ_lock.unlock();
      }
      // Failed attempt: either the interval moved under us or p no longer
      // sits below k at all (it was unlinked and the walk strayed).
      detail::note_contention(*domain_);
      if (resumes++ < budget) {
        // Resume in place: p's chain pointers stay valid (EBR keeps the
        // node alive, removed nodes keep outgoing pointers), so the
        // ordering walk re-anchors in a few hops — no descent.
        tc.add(obs::Counter::kLocateResumes);
        node = p;
      } else {
        // Resume budget exhausted: fall back to a full root re-descent.
        resumes = 0;
        tc.add(obs::Counter::kValidationFallbacks);
        tc.add(obs::Counter::kInsertRestarts);
        node = search(k, tc);
      }
    }
  }

  /// Remove-if-present (Algorithm 7). OnTimeRemoval physically unlinks the
  /// node before returning (two-children removals relocate the successor,
  /// §3.3); LogicalRemoving downgrades a two-children removal to flipping
  /// `deleted` and purges opportunistically. Allocates no node of its own;
  /// the only allocation is the retire-list bookkeeping inside
  /// EbrDomain::retire, which is OOM-safe (DESIGN.md §9).
  bool erase(const K& k) {
    // Governor tick before the guard; see insert().
    health::maybe_sample_tick(*domain_);
    auto g = domain_->guard();
    inject::stall_point(inject::Site::kGuardStallWriter);
    const auto tc = obs::tls();
    const std::uint32_t budget = write_resume_limit();
    std::uint32_t resumes = 0;
    NodeT* node = search(k, tc);
    for (;;) {
      node = ordering_walk(node, k, tc);  // first chain node with key >= k
      NodeT* p = node->pred.load(std::memory_order_acquire);
      // Versioned capture; see insert() for the ordering argument.
      const std::uint32_t ver = p->succ_version.load(std::memory_order_acquire);
      NodeT* s_cap = p->succ.load(std::memory_order_acquire);
      if (cmp(p, k) < 0) {
        check::perturb_point(check::PerturbPoint::kWriterCaptured);
        p->succ_lock.lock();
        NodeT* s;
        bool valid;
        if (p->succ_version.load(std::memory_order_relaxed) == ver &&
            !p->mark.load(std::memory_order_acquire) &&
            cmp(s_cap, k) >= 0) {
          // Fast validation; see insert() (mark recheck is mandatory).
          s = s_cap;
          valid = true;
        } else {
          s = p->succ.load(std::memory_order_relaxed);
          valid = cmp(s, k) >= 0 && !p->mark.load(std::memory_order_acquire);
        }
        if (valid) {
          bool absent = cmp(s, k) > 0;
          if constexpr (kLogicalRemoving) {
            absent = absent || s->deleted.load(std::memory_order_acquire);
          }
          if (absent) {
            p->succ_lock.unlock();
            tc.add(obs::Counter::kEraseOps);
            return false;  // unsuccessful remove
          }
          // Successful removal of s. Succ locks strictly precede tree
          // locks (paper §5.1): take s's interval lock, then tree locks.
          s->succ_lock.lock();
          NodeT* np = nullptr;
          NodeT* child = nullptr;
          const RemovalShape shape = acquire_removal_locks(s, np, child);
          if constexpr (kLogicalRemoving) {
            if (shape == RemovalShape::kTwoChildren) {
              // Logical removal only: s stays in both layouts as a zombie.
              // This store is the linearization point (§6). The death
              // stamp precedes it: a snapshot that already adopted a cut
              // below the stamp keeps reporting the key present off its
              // vbirth, and one that reads the pending kDying helps
              // finalize past its own cut (DESIGN.md §16).
              mvcc_mark_dead(s);
              s->deleted.store(true, std::memory_order_release);
              s->succ_lock.unlock();
              p->succ_lock.unlock();
              tc.add(obs::Counter::kEraseOps);
              tc.add(obs::Counter::kEraseSuccess);
              tc.add(obs::Counter::kEraseLogical);
              return true;
            }
          }
          // Death marker + limbo decision *before* the chain splice: a
          // snapshot scan collects limbo after its chain walk, so a node
          // it can still need must already be parked when it disappears
          // from the chain (DESIGN.md §16).
          const LimboDecision limbo =
              mvcc_limbo_decision(s, mvcc_mark_dead(s));
          unlink_from_chain(p, s);
          check::perturb_point(check::PerturbPoint::kEraseBeforeTreeUnlink);
          if (shape == RemovalShape::kOneChild) {
            unlink_node(s, np, child);
          } else {
            if constexpr (!kLogicalRemoving) {
              tc.add(obs::Counter::kEraseRelocations);
              relocate_successor(s);
            }
          }
          mvcc_dispose_unlinked(s, limbo, tc);
          tc.add(obs::Counter::kEraseOps);
          tc.add(obs::Counter::kEraseSuccess);
          if constexpr (kLogicalRemoving) {
            // Opportunistic purge (paper: deleted nodes become physically
            // removable when their child count drops): np may now qualify.
            try_purge(np);
          }
          return true;
        }
        p->succ_lock.unlock();
      }
      // Failed attempt: resume from the captured predecessor, or fall
      // back to a full re-descent once the budget runs out (see insert()).
      detail::note_contention(*domain_);
      if (resumes++ < budget) {
        tc.add(obs::Counter::kLocateResumes);
        node = p;
      } else {
        resumes = 0;
        tc.add(obs::Counter::kValidationFallbacks);
        tc.add(obs::Counter::kEraseRestarts);
        node = search(k, tc);
      }
    }
  }

  /// Quiescent cleanup (logical removing only): physically remove every
  /// deleted node that has at most one child, repeating until a fixpoint.
  /// Exposed for tests and the zombie ablation; concurrent-safe but
  /// intended for quiet periods.
  std::size_t purge_all()
    requires(RemovalPolicy::kLogicalRemoving)
  {
    std::size_t purged = 0;
    bool progress = true;
    while (progress) {
      progress = false;
      auto g = domain_->guard();
      NodeT* node = neg_->succ.load(std::memory_order_acquire);
      while (node != pos_) {
        NodeT* next = node->succ.load(std::memory_order_acquire);
        if (node->deleted.load(std::memory_order_acquire) &&
            try_purge(node)) {
          ++purged;
          progress = true;
        }
        node = next;
      }
    }
    return purged;
  }

  /// Quiescent repair of stale cached heights. A rebalance climb that
  /// bails out on a marked node (restart_balance) hands its pending height
  /// propagation to the remover, whose own climb may legitimately stop
  /// early, so concurrent churn can leave a node whose *cached* heights
  /// say "balanced" while the true subtree heights do not. This repair
  /// therefore does not trust the caches: each pass first re-derives every
  /// cached height bottom-up from the physical tree, then chain-scans for
  /// |bf| >= 2 anchors (now computed from exact heights) and re-runs the
  /// rebalance climb at each, until a fixpoint. Returns how many anchors
  /// were repaired. Concurrent-safe, but exact heights and strict AVL
  /// shape on return are only guaranteed with no writers racing the
  /// repair — call it before lo::validate(check_heights=true) after
  /// concurrent churn.
  std::size_t repair_balance()
    requires(Balanced)
  {
    std::size_t repaired = 0;
    bool progress = true;
    while (progress) {
      progress = false;
      auto g = domain_->guard();
      recompute_heights();
      NodeT* node = neg_->succ.load(std::memory_order_acquire);
      while (node != pos_) {
        NodeT* next = node->succ.load(std::memory_order_acquire);
        if (!node->mark.load(std::memory_order_acquire) &&
            std::abs(node->balance_factor()) >= 2) {
          detail::rebalance_at(*domain_, root_, node);
          ++repaired;
          progress = true;
        }
        node = next;
      }
    }
    return repaired;
  }

  // ---------------------------------------------------- introspection API
  // Used by lo/validate.hpp and the white-box tests; not part of the map
  // interface proper.

  NodeT* debug_root() const { return root_; }
  NodeT* debug_neg_sentinel() const { return neg_; }
  NodeT* debug_pos_sentinel() const { return pos_; }
  reclaim::EbrDomain& domain() const { return *domain_; }
  Compare key_comp() const { return comp_; }

 private:
  /// Height of the subtree rooted at n, by its own cached values.
  static std::int32_t cached_height(const NodeT* n) {
    return std::max(n->left_height.load(std::memory_order_relaxed),
                    n->right_height.load(std::memory_order_relaxed)) +
           1;
  }

  /// repair_balance pass 1: re-derive every cached subtree height from the
  /// physical tree, bottom-up (iterative post-order, explicit stack), so
  /// the heights an abandoned climb left stale are exact again. At
  /// quiescence the result is exact by construction; racing writers can
  /// re-stale individual links, which the repair contract already scopes
  /// out. Heights are performance metadata only — no search or removal
  /// path reads them for correctness — so the unlocked stores are safe.
  void recompute_heights()
    requires(Balanced)
  {
    NodeT* top = root_->left.load(std::memory_order_acquire);
    if (top == nullptr) return;
    struct Frame {
      NodeT* node;
      int stage;  // 0: descend left, 1: descend right, 2: derive heights
    };
    std::vector<Frame> stack;
    stack.push_back({top, 0});
    while (!stack.empty()) {
      Frame& f = stack.back();
      if (f.stage == 0) {
        f.stage = 1;
        if (NodeT* l = f.node->left.load(std::memory_order_acquire)) {
          stack.push_back({l, 0});
        }
      } else if (f.stage == 1) {
        f.stage = 2;
        if (NodeT* r = f.node->right.load(std::memory_order_acquire)) {
          stack.push_back({r, 0});
        }
      } else {
        NodeT* const n = f.node;
        NodeT* const l = n->left.load(std::memory_order_acquire);
        NodeT* const r = n->right.load(std::memory_order_acquire);
        n->left_height.store(l == nullptr ? 0 : cached_height(l),
                             std::memory_order_relaxed);
        n->right_height.store(r == nullptr ? 0 : cached_height(r),
                              std::memory_order_relaxed);
        stack.pop_back();
      }
    }
  }

  /// The one presence predicate. OnTimeRemoval owns only `mark` (off the
  /// ordering chain == removed); LogicalRemoving additionally owns
  /// `deleted` (on the chain but logically absent).
  static bool is_present(const NodeT* n) {
    if (n->mark.load(std::memory_order_acquire)) return false;
    if constexpr (kLogicalRemoving) {
      if (n->deleted.load(std::memory_order_acquire)) return false;
    }
    return true;
  }

  /// The one value read. LogicalRemoving stores values in an atomic slot
  /// (revive races with lock-free reads); OnTimeRemoval values are plain
  /// and immutable after publication.
  static V read_value(const NodeT* n) {
    if constexpr (kLogicalRemoving) {
      return n->value.load(std::memory_order_acquire);
    } else {
      return n->value;
    }
  }

  // ------------------------------------------------- MVCC hooks (§16)
  // Stamp slots are mutated only by the writer holding the node's
  // interval lock, plus the bounded help-finalize CAS (mvcc.hpp has the
  // protocol).

  static_assert(mvcc::kNoSnapshot == reclaim::EbrDomain::kNoFloor);
  static_assert(mvcc::kUnstamped == 0 && mvcc::kAlive == 0,
                "node stamp fields initialize to 0 == kUnstamped/kAlive "
                "(lo/node.hpp cannot include lo/mvcc.hpp)");

  mvcc::EpochSource& epoch_src() const { return *epoch_src_; }

  /// Stamps the death of s's current incarnation and returns the stamp.
  /// Call under s's succ_lock with s live. Normalizes a still-pending
  /// rebirth first: holding the lock proves the previous revive's locked
  /// section (including its value store) completed, so helping the
  /// kRenewing -> kUnstamped transition is safe here — readers never may.
  std::uint64_t mvcc_mark_dead(NodeT* s) {
    std::uint64_t b = s->vbirth.load(std::memory_order_seq_cst);
    if (b == mvcc::kRenewing) {
      s->vbirth.compare_exchange_strong(b, mvcc::kUnstamped,
                                        std::memory_order_seq_cst,
                                        std::memory_order_seq_cst);
    }
    mvcc::finalize(s->vbirth, mvcc::kUnstamped, epoch_src());
    s->vdeath.store(mvcc::kDying, std::memory_order_seq_cst);
    return mvcc::finalize(s->vdeath, mvcc::kDying, epoch_src());
  }

  /// Help-finalizes an already-initiated death (a zombie's, stamped by
  /// the logical erase that zombified it) and returns the stamp. Never
  /// initiates: vdeath has left kAlive by the caller's precondition.
  std::uint64_t mvcc_finalize_death(NodeT* q) {
    return mvcc::finalize(q->vdeath, mvcc::kDying, epoch_src());
  }

  struct LimboDecision {
    bool parked;  // s went to limbo; the caller must not retire it
    bool prune;   // prune limbo once s is off the chain
  };

  /// The park-or-retire decision, made *before* the chain splice: if any
  /// live snapshot could still need the node (some floor < death), park
  /// it in limbo (the caller must not retire it). `d`
  /// was drawn (a seq_cst load of the clock) before these floor loads,
  /// and enter_snapshot() stores the floor (seq_cst) before its caller's
  /// cut RMW, so a snapshot they miss took a cut E >= d — the node is
  /// absent in it anyway (mvcc.hpp, ordering argument).
  ///
  /// It also says whether limbo wants a prune once s is off the chain:
  /// when this park outgrew the prune mark. That writer-side prune is
  /// what bounds nodes parked under another map's views on a shared
  /// domain, which no view of this map ever releases.
  LimboDecision mvcc_limbo_decision(NodeT* s, std::uint64_t d) {
    if (domain_->snapshot_floor_min() >= d) return {false, false};
    obs::count(obs::Counter::kLimboParks);
    return {true, limbo_.push(s, d)};
  }

  /// After the chain splice: retires s unless it parked, then prunes
  /// limbo if the decision asked for it.
  void mvcc_dispose_unlinked(NodeT* s, LimboDecision dec, obs::Tls tc) {
    if (!dec.parked) {
      mvcc_retire_versions(s, tc);
      domain_->template retire_via<Alloc>(s);
    }
    if (dec.prune) mvcc_prune_limbo();
  }

  /// Folds s's outgoing incarnation into `spare` (pushed on the vhead
  /// chain) and flips the node to the pending-rebirth state. Call under
  /// the interval lock, before the revive's value/deleted stores; the
  /// caller must call mvcc_stamp_fresh(s) after unlocking. Takes
  /// ownership of spare (nulls it).
  void mvcc_begin_revive(NodeT* s, mvcc::PastVersion<V>*& spare,
                         obs::Tls tc) {
    // Normalize + finalize the outgoing stamps (lock held: helping the
    // pending rebirth is safe, as in mvcc_mark_dead). The death is
    // already stamped — the logical erase finalized it under this same
    // interval lock — so finalize just reloads it.
    std::uint64_t b = s->vbirth.load(std::memory_order_seq_cst);
    if (b == mvcc::kRenewing) {
      s->vbirth.compare_exchange_strong(b, mvcc::kUnstamped,
                                        std::memory_order_seq_cst,
                                        std::memory_order_seq_cst);
    }
    const std::uint64_t birth =
        mvcc::finalize(s->vbirth, mvcc::kUnstamped, epoch_src());
    const std::uint64_t death =
        mvcc::finalize(s->vdeath, mvcc::kDying, epoch_src());
    spare->birth = birth;
    spare->death = death;
    spare->value = s->value.load(std::memory_order_relaxed);
    spare->next.store(s->vhead.load(std::memory_order_relaxed),
                      std::memory_order_relaxed);
    s->vhead.store(spare, std::memory_order_seq_cst);
    spare = nullptr;
    // kRenewing *before* resetting vdeath: a resolver that already read
    // the old stamped vbirth must fail its seqlock re-check rather than
    // pair the old birth with the reset death slot.
    s->vbirth.store(mvcc::kRenewing, std::memory_order_seq_cst);
    s->vdeath.store(mvcc::kAlive, std::memory_order_seq_cst);
    mvcc_truncate(s, tc);
  }

  /// Stamps a freshly published incarnation (new node or revive), after
  /// the publishing lock is dropped. The seq_cst fence orders the
  /// publication stores before the stamp's clock load: a snapshot that
  /// missed the publication took its cut before this fence, so the
  /// stamp lands strictly after its cut (mvcc.hpp, ordering argument).
  /// CAS, not a plain store, out of kRenewing: a lock-holding helper may
  /// have normalized — and a reader then finalized — the slot already.
  void mvcc_stamp_fresh(NodeT* n) const {
    std::uint64_t b = n->vbirth.load(std::memory_order_seq_cst);
    if (b == mvcc::kRenewing) {
      n->vbirth.compare_exchange_strong(b, mvcc::kUnstamped,
                                        std::memory_order_seq_cst,
                                        std::memory_order_seq_cst);
    }
    std::atomic_thread_fence(std::memory_order_seq_cst);
    mvcc::finalize(n->vbirth, mvcc::kUnstamped, epoch_src());
  }

  /// Cuts s's version chain below the oldest record any live snapshot
  /// can reach. First-fit resolution stops at the first record with
  /// birth <= E, and every live E is >= the lowest floor m, so the first
  /// record with death <= m is an absorbing boundary: no resolution
  /// walks past it. It stays; everything older retires.
  void mvcc_truncate(NodeT* s, obs::Tls tc) {
    if constexpr (kLogicalRemoving) {
      const std::uint64_t m = domain_->snapshot_floor_min();
      mvcc::PastVersion<V>* r = s->vhead.load(std::memory_order_relaxed);
      while (r != nullptr && r->death > m) {
        r = r->next.load(std::memory_order_relaxed);
      }
      if (r == nullptr) return;
      mvcc::PastVersion<V>* tail =
          r->next.exchange(nullptr, std::memory_order_seq_cst);
      std::uint64_t n = 0;
      while (tail != nullptr) {
        mvcc::PastVersion<V>* nx = tail->next.load(std::memory_order_relaxed);
        domain_->template retire_via<Alloc>(tail);
        ++n;
        tail = nx;
      }
      if (n != 0) tc.add(obs::Counter::kVersionsRetired, n);
    } else {
      (void)s;
      (void)tc;
    }
  }

  /// Retires s's whole version chain through EBR — the node is leaving
  /// the structure for good (physical removal with no snapshot needing
  /// it, or a limbo prune).
  void mvcc_retire_versions(NodeT* s, obs::Tls tc) const {
    if constexpr (kLogicalRemoving) {
      mvcc::PastVersion<V>* r =
          s->vhead.exchange(nullptr, std::memory_order_relaxed);
      std::uint64_t n = 0;
      while (r != nullptr) {
        mvcc::PastVersion<V>* nx = r->next.load(std::memory_order_relaxed);
        domain_->template retire_via<Alloc>(r);
        ++n;
        r = nx;
      }
      if (n != 0) tc.add(obs::Counter::kVersionsRetired, n);
    } else {
      (void)s;
      (void)tc;
    }
  }

  /// Teardown-only variant: destroys the chain directly (no grace period
  /// — the destructor runs with no operations in flight).
  static void mvcc_destroy_versions(NodeT* n) {
    if constexpr (kLogicalRemoving) {
      mvcc::PastVersion<V>* r =
          n->vhead.load(std::memory_order_relaxed);
      while (r != nullptr) {
        mvcc::PastVersion<V>* nx = r->next.load(std::memory_order_relaxed);
        Alloc::template destroy<mvcc::PastVersion<V>>(r);
        r = nx;
      }
    } else {
      (void)n;
    }
  }

  static void mvcc_free_spare(mvcc::PastVersion<V>* sp) {
    if (sp != nullptr) {
      Alloc::template destroy<mvcc::PastVersion<V>>(sp);
    }
  }

  /// Resolves a node against snapshot epoch `e`: the value its key had
  /// at the cut, or empty if absent. The vbirth re-read makes the loop a
  /// seqlock over (vbirth, vdeath, value). Stamps are not unique (a
  /// rebirth with no cut since the old birth reuses its value), yet the
  /// re-read is ABA-free: it only runs once b <= e, and an incarnation
  /// turnover we did not see starts with the revive's kRenewing store,
  /// which follows our first vbirth load — so follows our cut's RMW — in
  /// the seq_cst order. The rebirth stamp is drawn after that store, so
  /// it is >= e + 1 != b (mvcc.hpp, ordering argument).
  std::optional<V> mvcc_resolve(const NodeT* n, std::uint64_t e,
                                std::uint64_t* view_reads,
                                obs::Tls tc) const {
#if defined(LOT_INJECT_BUG) && LOT_INJECT_BUG == 3
    // Seeded bug (checker negative control): the snapshot's second node
    // resolution "forgets" its epoch bound and reads newest state — a
    // torn scan mixing two cuts, which cannot linearize at any single
    // point (tests/stress/stress_lo_torn_snapshot.cpp).
    if (view_reads != nullptr && ++*view_reads == 2) {
      e = mvcc::kNoSnapshot - 1;
    }
#else
    (void)view_reads;
#endif
    NodeT* node = const_cast<NodeT*>(n);
    for (;;) {
      const std::uint64_t b = node->vbirth.load(std::memory_order_seq_cst);
      if (b == mvcc::kRenewing) {
        // Rebirth mid-flight. Never help (the value slot is not ours
        // yet); the chain already holds the outgoing incarnation, and
        // the rebirth will stamp later than any adopted cut.
        return mvcc_resolve_chain(node, e, tc);
      }
      if (b == mvcc::kUnstamped) {
        // Published but unstamped: help draw. The drawn stamp is later
        // than our cut, so the next iteration routes to the chain.
        mvcc::finalize(node->vbirth, mvcc::kUnstamped, epoch_src());
        continue;
      }
      if (b > e) return mvcc_resolve_chain(node, e, tc);
      std::uint64_t d = node->vdeath.load(std::memory_order_seq_cst);
      if (d == mvcc::kDying) {
        d = mvcc::finalize(node->vdeath, mvcc::kDying, epoch_src());
      }
      const V val = read_value(node);
      if (node->vbirth.load(std::memory_order_seq_cst) != b) continue;
      if (d != mvcc::kAlive && d <= e) return std::nullopt;
      return val;
    }
  }

  /// Chain arm of the resolver: first record with birth <= e decides
  /// (absent iff its death <= e); no such record means the key did not
  /// exist at the cut. On-time nodes have no chain — always absent.
  std::optional<V> mvcc_resolve_chain(const NodeT* n, std::uint64_t e,
                                      obs::Tls tc) const {
    tc.add(obs::Counter::kVersionChainWalks);
    if constexpr (kLogicalRemoving) {
      const mvcc::PastVersion<V>* r =
          n->vhead.load(std::memory_order_seq_cst);
      while (r != nullptr && r->birth > e) {
        r = r->next.load(std::memory_order_seq_cst);
      }
      if (r == nullptr || r->death <= e) return std::nullopt;
      return r->value;
    } else {
      (void)n;
      return std::nullopt;
    }
  }

  /// Retires every limbo entry no live snapshot can need. Runs on view
  /// release and from writers whose park outgrew the prune mark
  /// (mvcc_limbo_decision); an empty limbo costs one load.
  void mvcc_prune_limbo() const {
    if (limbo_.size() == 0) return;
    limbo_.prune([this] { return domain_->snapshot_floor_min(); },
                 [this](NodeT* n) {
                   mvcc_retire_versions(n, obs::tls());
                   domain_->template retire_via<Alloc>(n);
                 });
  }

  /// Publishes a relink of p->succ. Call under p's succ_lock, after the
  /// succ store: both stores are release, so a capture reader that loaded
  /// the bumped version (acquire) sees the new succ, and one that still
  /// validates against the old version under the lock is reading a succ
  /// this relink has not yet replaced.
  static void bump_succ_version(NodeT* p) {
    p->succ_version.store(p->succ_version.load(std::memory_order_relaxed) + 1,
                          std::memory_order_release);
  }

  // Three-way comparison of a node against a key, sentinel-aware:
  // negative if node < k, zero if equal, positive if node > k.
  int cmp(const NodeT* n, const K& k) const {
    if (n->tag != Tag::kNormal) return n->tag == Tag::kNegInf ? -1 : 1;
    if (comp_(n->key, k)) return -1;
    if (comp_(k, n->key)) return 1;
    return 0;
  }

  /// Algorithm 1: plain descent, no locks, no restarts. May stray from its
  /// path under concurrent rotations; the ordering walk compensates.
  NodeT* search(const K& k, obs::Tls tc = obs::tls()) const {
    // Counted inside the descent itself — independently of the per-op
    // counters at the call sites — so Snapshot::contains_restarts() is a
    // measured audit, not an identity (DESIGN.md §12). Callers that
    // already hold a Tls handle pass it in; the default resolves one.
    tc.add(obs::Counter::kTreeDescents);
    NodeT* node = root_;
    for (;;) {
      const int c = cmp(node, k);
      if (c == 0) return node;
      NodeT* child = c < 0 ? node->right.load(std::memory_order_acquire)
                           : node->left.load(std::memory_order_acquire);
      if (child == nullptr) return node;
      node = child;
    }
  }

  /// Algorithm 2's ordering walk from an arbitrary chain node: pred while
  /// above k, back off marked nodes, succ while below k. Returns the first
  /// node at or above k. Correct from *any* EBR-protected starting node —
  /// removed nodes keep outgoing pointers to strictly smaller (pred) /
  /// larger (succ) keys, so the walks terminate — which is what lets
  /// writers resume a failed validation from their captured predecessor
  /// instead of re-descending from the root (DESIGN.md §13).
  template <typename NodePtr>
  NodePtr ordering_walk(NodePtr node, const K& k, obs::Tls tc) const {
    while (cmp(node, k) > 0) {
      node = node->pred.load(std::memory_order_acquire);
    }
    // Back off marked nodes before walking forward. Without this a search
    // can land on a *stale duplicate*: a removed-but-not-yet-unlinked-from-
    // the-tree node with key == k, while a re-inserted k lives elsewhere on
    // the chain — the walk below would never move and the lookup would miss
    // a present key. (DESIGN.md pseudocode errata; the verified variant in
    // Wolff's plankton examples carries the same extra loop. Found by the
    // schedule-perturbed linearizability harness, tests/stress/.) Marked
    // nodes keep pred pointers to strictly smaller keys and -inf is never
    // marked, so this terminates. (`deleted` zombies stay on the chain and
    // are NOT backed off — presence is the caller's verdict.)
    std::uint64_t backoffs = 0;
    while (node->mark.load(std::memory_order_acquire)) {
      node = node->pred.load(std::memory_order_acquire);
      ++backoffs;
    }
    if (backoffs != 0) {
      tc.add(obs::Counter::kLocateMarkBackoffs, backoffs);
    }
    while (cmp(node, k) < 0) {
      node = node->succ.load(std::memory_order_acquire);
    }
    return node;
  }

  /// Algorithm 2: one descent, then the ordering walk.
  const NodeT* locate(const K& k, obs::Tls tc = obs::tls()) const {
    const NodeT* node = search(k, tc);
    check::perturb_point(check::PerturbPoint::kLocateAfterDescent);
#if defined(LOT_INJECT_BUG) && LOT_INJECT_BUG == 1
    // Intentionally broken linearization (checker negative control): trust
    // the physical descent alone. A key that momentarily lives only in the
    // ordering layout — mid-insert, or a successor detached during a
    // two-child removal — is reported absent even though it was inserted
    // long ago, which no linearization of the history can explain.
    return node;
#else
    return ordering_walk(node, k, tc);
#endif
  }

  /// Algorithm 4. Requires p's succ_lock held (so neither candidate can be
  /// removed from under us). Returns the chosen parent, tree-locked.
  NodeT* choose_parent(NodeT* p, NodeT* s, NodeT* first_cand) {
    NodeT* candidate = (first_cand == p || first_cand == s) ? first_cand : p;
    if (candidate == neg_) candidate = s;  // -inf never parents a node
    for (;;) {
      candidate->tree_lock.lock();
      if (candidate == p) {
        if (candidate->right.load(std::memory_order_relaxed) == nullptr) {
          return candidate;
        }
        candidate->tree_lock.unlock();
        candidate = s;
      } else {
        if (candidate->left.load(std::memory_order_relaxed) == nullptr) {
          return candidate;
        }
        candidate->tree_lock.unlock();
        candidate = (p == neg_) ? s : p;
      }
    }
  }

  /// Algorithm 5. Requires parent tree-locked; consumes that lock.
  void insert_to_tree(NodeT* parent, NodeT* nn) {
    const bool to_right = cmp(parent, nn->key) < 0;
    if (to_right) {
      parent->right.store(nn, std::memory_order_release);
      if constexpr (Balanced) {
        parent->right_height.store(1, std::memory_order_relaxed);
      }
    } else {
      parent->left.store(nn, std::memory_order_release);
      if constexpr (Balanced) {
        parent->left_height.store(1, std::memory_order_relaxed);
      }
    }
    if constexpr (Balanced) {
      if (parent == root_) {
        // The new node hangs directly off the +inf sentinel; there is
        // nothing above it to rebalance (the sentinel has no parent).
        parent->tree_lock.unlock();
        return;
      }
      NodeT* grandparent = detail::lock_parent(parent);
      detail::rebalance(
          *domain_, root_, grandparent, parent,
          grandparent->left.load(std::memory_order_relaxed) == parent);
    } else {
      parent->tree_lock.unlock();
    }
  }

  enum class RemovalShape { kOneChild, kTwoChildren };

  /// Algorithm 8, the one definition of removal tree-lock acquisition for
  /// both policies. Requires n's succ_lock (and its predecessor's) held,
  /// so n cannot be removed and n->succ cannot change. Determines how many
  /// children n has, then:
  ///  * at most one child (either policy): additionally tree-locks n, its
  ///    parent and the child; np/child are out-parameters;
  ///  * two children, OnTimeRemoval: tree-locks everything the successor
  ///    relocation will touch — n, n's parent, n's successor, the
  ///    successor's parent and the successor's right child;
  ///  * two children, LogicalRemoving: releases every tree lock — the
  ///    caller only flips `deleted`.
  /// Locks taken downward are against the bottom-up order, so they are
  /// try_lock + full restart (paper §5.1), with a pause between retries:
  /// the holder of a failed try_lock target may be blocked on a lock we
  /// hold, and on a uniprocessor an immediate retry never lets it run
  /// (see restart_balance in lo/rebalance.hpp).
  RemovalShape acquire_removal_locks(NodeT* n, NodeT*& np, NodeT*& child) {
    // Jittered: two erasers whose downward try_locks collided retry on
    // decorrelated schedules (sync/backoff.hpp header comment).
    sync::JitterBackoff backoff;
    bool first = true;
    for (;;) {
      if (!first) {
        obs::count(obs::Counter::kRemovalLockRetries);
        detail::note_contention(*domain_);
      }
      first = false;
      backoff.pause();
      n->tree_lock.lock();
      np = detail::lock_parent(n);

      NodeT* r = n->right.load(std::memory_order_relaxed);
      NodeT* l = n->left.load(std::memory_order_relaxed);
      if (r == nullptr || l == nullptr) {
        child = r != nullptr ? r : l;
        if (child != nullptr && !child->tree_lock.try_lock()) {
          np->tree_lock.unlock();
          n->tree_lock.unlock();
          continue;
        }
        return RemovalShape::kOneChild;
      }

      if constexpr (kLogicalRemoving) {
        np->tree_lock.unlock();
        n->tree_lock.unlock();
        return RemovalShape::kTwoChildren;
      } else {
        // Two children: lock the successor machinery.
        NodeT* s = n->succ.load(std::memory_order_relaxed);
        NodeT* sp = s->parent.load(std::memory_order_acquire);
        bool sp_locked = false;
        if (sp != n) {
          if (!sp->tree_lock.try_lock()) {
            np->tree_lock.unlock();
            n->tree_lock.unlock();
            continue;
          }
          if (sp != s->parent.load(std::memory_order_acquire) ||
              sp->mark.load(std::memory_order_acquire)) {
            sp->tree_lock.unlock();
            np->tree_lock.unlock();
            n->tree_lock.unlock();
            continue;
          }
          sp_locked = true;
        }
        if (!s->tree_lock.try_lock()) {
          if (sp_locked) sp->tree_lock.unlock();
          np->tree_lock.unlock();
          n->tree_lock.unlock();
          continue;
        }
        NodeT* sr = s->right.load(std::memory_order_relaxed);
        if (sr != nullptr && !sr->tree_lock.try_lock()) {
          s->tree_lock.unlock();
          if (sp_locked) sp->tree_lock.unlock();
          np->tree_lock.unlock();
          n->tree_lock.unlock();
          continue;
        }
        return RemovalShape::kTwoChildren;
      }
    }
  }

  /// The one definition of the ordering-layer unlink: the remove's
  /// linearization point (the mark store) plus the chain splice. Requires
  /// p's and s's succ_locks held; consumes both.
  void unlink_from_chain(NodeT* p, NodeT* s) {
    // Linearization point of a successful remove (§5.2).
    s->mark.store(true, std::memory_order_release);
    check::perturb_point(check::PerturbPoint::kEraseAfterMark);
    NodeT* s_succ = s->succ.load(std::memory_order_relaxed);
    s_succ->pred.store(p, std::memory_order_release);
    check::perturb_point(check::PerturbPoint::kEraseHalfUnlinked);
    p->succ.store(s_succ, std::memory_order_release);
    // Note the bump lands on p, not on the marked s: captures anchored at
    // s itself are invalidated by the mark, which every validation — fast
    // path included — rechecks under the lock.
    bump_succ_version(p);
    s->succ_lock.unlock();
    p->succ_lock.unlock();
  }

  /// The one definition of the one-child physical unlink (Algorithm 9's
  /// easy case). Requires n, np, child tree-locked (acquire_removal_locks'
  /// kOneChild outcome); consumes all of them.
  void unlink_node(NodeT* n, NodeT* np, NodeT* child) {
    const bool was_left = np->left.load(std::memory_order_relaxed) == n;
    detail::update_child(np, n, child);
    n->tree_lock.unlock();
    if constexpr (Balanced) {
      detail::rebalance(*domain_, root_, np, child, was_left);
    } else {
      if (child != nullptr) child->tree_lock.unlock();
      np->tree_lock.unlock();
    }
  }

  /// Algorithm 9's two-children case (OnTimeRemoval only): relocates n's
  /// successor into n's place — on-time deletion §3.3. Consumes every tree
  /// lock taken by acquire_removal_locks' kTwoChildren outcome.
  void relocate_successor(NodeT* n) {
    NodeT* np = n->parent.load(std::memory_order_relaxed);
    NodeT* s = n->succ.load(std::memory_order_relaxed);  // relocation target
    NodeT* child = s->right.load(std::memory_order_relaxed);
    NodeT* parent = s->parent.load(std::memory_order_relaxed);
    // Detach s, then read n's layout: when parent == n this order makes
    // n->right already point at child, which is exactly s's new right.
    detail::update_child(parent, s, child);
    // s is now reachable only through the logical ordering (§3.3) — the
    // window the paper's lock-free contains is designed to survive.
    check::perturb_point(check::PerturbPoint::kRelocateDetached);
    NodeT* nl = n->left.load(std::memory_order_relaxed);
    NodeT* nr = n->right.load(std::memory_order_relaxed);
    s->left.store(nl, std::memory_order_release);
    s->right.store(nr, std::memory_order_release);
    s->left_height.store(n->left_height.load(std::memory_order_relaxed),
                         std::memory_order_relaxed);
    s->right_height.store(n->right_height.load(std::memory_order_relaxed),
                          std::memory_order_relaxed);
    nl->parent.store(s, std::memory_order_release);
    if (nr != nullptr) nr->parent.store(s, std::memory_order_release);
    // While s was detached it stayed reachable through the logical
    // ordering — concurrent lock-free lookups cannot miss it (§3.3).
    detail::update_child(np, n, s);

    NodeT* rb_node;
    bool rb_was_left;
    if (parent == n) {
      rb_node = s;  // keeps its lock; rebalance starts at s itself
      rb_was_left = false;  // child replaced s's right subtree
    } else {
      s->tree_lock.unlock();
      rb_node = parent;
      rb_was_left = true;  // s was the leftmost (left) child of parent
    }
    np->tree_lock.unlock();
    n->tree_lock.unlock();
    if constexpr (Balanced) {
      detail::rebalance(*domain_, root_, rb_node, child, rb_was_left);
      // Remover's obligation (§4.5): if a concurrent rebalance bailed out
      // on n's mark, the imbalance migrated to s — fix it here.
      detail::rebalance_at(*domain_, root_, s);
    } else {
      if (child != nullptr) child->tree_lock.unlock();
      rb_node->tree_lock.unlock();
    }
  }

  /// Best-effort physical removal of a deleted node that may have dropped
  /// to at most one child (logical removing only). Uses try_lock on the
  /// interval locks (a purge is an optimization; giving up is always
  /// safe). Returns true on success.
  bool try_purge(NodeT* q)
    requires(RemovalPolicy::kLogicalRemoving)
  {
    if (q == nullptr || q->is_sentinel() ||
        !q->deleted.load(std::memory_order_acquire) ||
        q->mark.load(std::memory_order_acquire)) {
      return false;
    }
    obs::count(obs::Counter::kPurgeAttempts);
    NodeT* p = q->pred.load(std::memory_order_acquire);
    if (!p->succ_lock.try_lock()) return false;
    // Validate: p is still q's predecessor and both are live.
    if (p->succ.load(std::memory_order_relaxed) != q ||
        p->mark.load(std::memory_order_acquire) ||
        !q->deleted.load(std::memory_order_acquire)) {
      p->succ_lock.unlock();
      return false;
    }
    // Succ lock before tree locks; p < q so blocking respects key order.
    q->succ_lock.lock();
    NodeT* np = nullptr;
    NodeT* child = nullptr;
    if (acquire_removal_locks(q, np, child) == RemovalShape::kTwoChildren) {
      q->succ_lock.unlock();
      p->succ_lock.unlock();
      return false;  // still two children
    }
    // The zombie's death was stamped by the logical erase that zombified
    // it; no new stamp here — just help-finalize in case that erase's
    // finalize CAS has not landed yet, and reuse the stamp for the limbo
    // decision.
    const LimboDecision limbo =
        mvcc_limbo_decision(q, mvcc_finalize_death(q));
    unlink_from_chain(p, q);
    unlink_node(q, np, child);
    mvcc_dispose_unlinked(q, limbo, obs::tls());
    obs::count(obs::Counter::kPurgeSuccesses);
    return true;
  }

  reclaim::EbrDomain* domain_;
  Compare comp_;
  Alloc alloc_;  // allocation handle; empty for the singleton-pool policies
  NodeT* root_;  // == pos_ (the +inf sentinel)
  NodeT* neg_;
  NodeT* pos_;

  // MVCC state (lo/mvcc.hpp). The clock is the domain's by default;
  // ShardedMap rebinds every shard to one shared source. Both clocks
  // and the snapshot floors live outside the map. The limbo list fills
  // its own cache line (every park writes it), away from the fields
  // above that every operation reads. Mutable: snapshot() is a read and
  // must work on const maps.
  mvcc::EpochSource* epoch_src_;
  mutable mvcc::LimboList<NodeT> limbo_;
};

}  // namespace lot::lo
