// Relaxed AVL rebalancing (paper §4.5, Algorithms 12 and 14), following
// Bougé et al.: per-node cached subtree heights drive rotation decisions;
// the heights may be stale under concurrency, but repairing on the basis of
// the cached values still converges to a strict AVL tree at quiescence.
//
// Lock discipline: the walk climbs bottom-up taking tree locks upward
// (blocking, in-order). Rotations need a *downward* lock (the child /
// grandchild), which is against the order and therefore acquired with
// try_lock; on failure everything except the current node is dropped and
// the walk restarts from that node (restart_balance).
//
// Two deviations from the paper's pseudocode, both transcription slips in
// the paper (the published Java code behaves as implemented here):
//  * Algorithm 13 returns `oldH == newH` but Algorithm 12 line 5 treats the
//    result as "height changed"; we return "changed".
//  * When the removed node's child is null, `node.left == child` cannot
//    identify which side shrank (both sides may be null); the caller passes
//    the side explicitly for the first iteration.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <utility>

#include "check/perturb.hpp"
#include "health/governor.hpp"
#include "lo/detail.hpp"
#include "lo/node.hpp"
#include "obs/counters.hpp"
#include "reclaim/ebr.hpp"
#include "sync/backoff.hpp"

namespace lot::lo::detail {

// ---- heat scope (ROADMAP 2(c): shard-scoped contention) ----
//
// Heat used to be one number per thread, which meant a thread hammering a
// hot shard would arrive at a cold shard still hot and defer rotations
// there for no reason. The scope below keys the TLS heat by the EBR
// domain the current structure retires through: LoCore installs its
// domain as the scope for the duration of each write, and the heat
// bookkeeping reads/writes the slot for that scope. nullptr is the
// default scope — structures on the global domain (the overwhelmingly
// common single-map case) — and is what the scope-free test hooks below
// operate on, so single-domain behaviour is bit-identical to PR 6.
// Contention events are attributed to the right domain's odometer even
// while set_rebalance_throttle(false) has the TLS throttle switched off.

inline reclaim::EbrDomain*& heat_scope_tls() {
  thread_local reclaim::EbrDomain* scope = nullptr;
  return scope;
}

/// RAII scope installer. LoCore's write paths wrap themselves in one,
/// passing nullptr when the map lives on the global domain so the default
/// slot keeps serving the common case.
class HeatScope {
 public:
  explicit HeatScope(reclaim::EbrDomain* scope)
      : prev_(heat_scope_tls()) {
    heat_scope_tls() = scope;
  }
  ~HeatScope() { heat_scope_tls() = prev_; }
  HeatScope(const HeatScope&) = delete;
  HeatScope& operator=(const HeatScope&) = delete;

 private:
  reclaim::EbrDomain* prev_;
};

/// The domain the current contention event belongs to: the installed
/// scope, or the global domain when no scope (or a null scope) is active.
inline reclaim::EbrDomain& heat_scope_domain() {
  reclaim::EbrDomain* scope = heat_scope_tls();
  return scope != nullptr ? *scope : reclaim::EbrDomain::global_domain();
}

// ---- contention-adaptive rotation throttle (DESIGN.md §13) ----
//
// Rotations are the dominant cost under write contention (BENCH_5: 3.4M
// rotations vs ~1M restarts on the 4-thread mixed run), and the relaxed
// Bougé scheme already tolerates arbitrary deferral: heights are
// performance metadata, only the *repair* is postponed. So each thread
// keeps a contention heat score: failed write validations, removal-lock
// retries and rebalance try-lock restarts heat it; every rebalance climb
// iteration cools it by one. While hot, the rotation loop defers its
// rotations (the height bookkeeping of the climb itself still runs) and
// the imbalance is left for cooler moments — or for
// LoCore::repair_balance() at quiescence. Note that deferral widens the
// pre-existing window in which cached heights drift from the true subtree
// heights: a climb abandoned on a mark-bail (restart_balance) hands its
// pending propagation to the remover, and a deferred imbalance, once
// rotated, can shrink its subtree by two levels at a time — which is why
// repair_balance re-derives heights bottom-up instead of trusting the
// caches. The state is thread-local and owned by this layer, NOT by
// obs/: obs merely observes deferral events via kRotationsDeferred.
// set_rebalance_throttle(false) restores the unconditional rotation
// discipline at runtime.

inline constexpr std::uint32_t kHeatPerEvent = 64;
inline constexpr std::uint32_t kHeatHotThreshold = 128;
inline constexpr std::uint32_t kHeatCap = 1024;

inline std::atomic<bool>& throttle_flag() {
  static std::atomic<bool> on{true};
  return on;
}

/// Per-thread heat, keyed by scope. The default (null-scope) slot is a
/// dedicated field — the single-map fast path never scans the table — and
/// a small fixed table serves threads touching multiple scoped shards.
/// Table overflow recycles entry 0: heat is ≤ kHeatCap of perf metadata,
/// so dropping a slot merely forgets some warmth. A stale scope pointer
/// (domain died, address reused) can at worst revive another shard's
/// residual heat — same class of harmlessness.
struct HeatSlots {
  static constexpr std::size_t kEntries = 8;
  std::uint32_t default_heat = 0;
  struct Entry {
    const reclaim::EbrDomain* scope = nullptr;
    std::uint32_t heat = 0;
  };
  Entry entries[kEntries];

  std::uint32_t& slot(const reclaim::EbrDomain* scope) {
    if (scope == nullptr) return default_heat;
    for (auto& e : entries) {
      if (e.scope == scope) return e.heat;
    }
    for (auto& e : entries) {
      if (e.scope == nullptr) {
        e.scope = scope;
        e.heat = 0;
        return e.heat;
      }
    }
    entries[0].scope = scope;
    entries[0].heat = 0;
    return entries[0].heat;
  }
};

inline HeatSlots& heat_slots_tls() {
  thread_local HeatSlots slots;
  return slots;
}

/// The calling thread's heat for the *currently installed* scope.
inline std::uint32_t& contention_heat_tls() {
  return heat_slots_tls().slot(heat_scope_tls());
}

/// One contention event (validation failure, lock retry) observed by the
/// calling thread. Also feeds the governor's process-wide odometer
/// (health/governor.hpp) and the scope domain's per-shard odometer — the TLS
/// heat is this thread's view of this shard, the odometers are everyone's.
inline void contention_heat_add() {
  health::note_contention();
  heat_scope_domain().note_contention_event();
  auto& h = contention_heat_tls();
  h = h >= kHeatCap - kHeatPerEvent ? kHeatCap : h + kHeatPerEvent;
}

/// One unit of rebalance progress; called per climb iteration.
inline void contention_heat_cool() {
  auto& h = contention_heat_tls();
  if (h > 0) --h;
}

inline void reset_contention_heat() { contention_heat_tls() = 0; }

/// Test hook: pin the calling thread's heat for deterministic deferrals
/// (tests/test_rebalance_throttle.cpp runs single-threaded on 1-core CI).
/// Operates on the current scope's slot — with no scope installed, the
/// default slot, exactly the pre-scoping semantics.
inline void set_contention_heat(std::uint32_t h) { contention_heat_tls() = h; }
inline std::uint32_t contention_heat() { return contention_heat_tls(); }

/// Runtime knob (bench A/B arm): defaults to on.
inline void set_rebalance_throttle(bool on) {
  throttle_flag().store(on, std::memory_order_relaxed);
}

inline bool rotation_throttled() {
  return contention_heat_tls() >= kHeatHotThreshold &&
         throttle_flag().load(std::memory_order_relaxed);
}

/// A rotation was deferred under the current scope: attribute it to the
/// scope domain so sharded runs can see *which* shard is shedding (the
/// process-wide kRotationsDeferred obs counter stays the aggregate view).
inline void note_scope_rotation_deferred() {
  heat_scope_domain().note_rotation_deferred();
}

/// Algorithm 14. On entry: node tree-locked, parent tree-locked or null,
/// child lock NOT held. Releases parent, then cycles node's lock until it
/// can pick (and lock) the child on the taller side. Returns false — with
/// every lock released — if node got removed meanwhile, in which case the
/// remover is responsible for any outstanding imbalance (paper §4.5
/// edge case). On true: node locked, child locked or null.
template <typename N>
bool restart_balance(N* node, N*& parent, N*& child) {
  obs::count(obs::Counter::kBalanceRestarts);
  contention_heat_add();
  if (parent != nullptr) {
    parent->tree_lock.unlock();
    parent = nullptr;
  }
  // Jittered: symmetric climbers that collided once otherwise retry on the
  // same schedule and collide again (sync/backoff.hpp header comment).
  sync::JitterBackoff backoff;
  for (;;) {
    node->tree_lock.unlock();
    // The pause between unlock and relock is load-bearing on a uniprocessor:
    // whoever holds the child lock we keep failing to take may itself be
    // blocked on *node* (a climber in lock_parent), and with a back-to-back
    // unlock/lock it can only slip in if the scheduler preempts us inside
    // that instruction-wide window — a livelock in practice (found by the
    // schedule-perturbed stress, tests/stress/, on the one-core CI box).
    backoff.pause();
    node->tree_lock.lock();
    if (node->mark.load(std::memory_order_acquire)) {
      node->tree_lock.unlock();
      return false;
    }
    const auto bf = node->balance_factor();
    child = bf >= 2 ? node->left.load(std::memory_order_relaxed)
                    : node->right.load(std::memory_order_relaxed);
    if (child == nullptr) return true;
    if (child->tree_lock.try_lock()) return true;
  }
}

/// Algorithm 12. On entry: node and child (possibly null) tree-locked;
/// `first_is_left` says on which side of node `child` hangs (needed when
/// child is null and both of node's child pointers are null). Consumes all
/// locks before returning. `root` is the +inf sentinel and is never
/// rotated or height-maintained.
template <typename N>
void rebalance(N* root, N* node, N* child, bool first_is_left) {
  N* parent = nullptr;
  bool first = true;
  while (node != root) {
    obs::count(obs::Counter::kHeightPasses);
    contention_heat_cool();
    bool is_left = (child != nullptr || !first)
                       ? (node->left.load(std::memory_order_relaxed) == child)
                       : first_is_left;
    first = false;
    const bool changed = update_height(child, node, is_left);
    auto bf = node->balance_factor();
    if (!changed && std::abs(bf) < 2) break;

    while (std::abs(bf) >= 2) {
      if (rotation_throttled()) {
        // Defer the rotation, not the bookkeeping: the climb keeps
        // updating heights above, leaving a |bf| >= 2 node behind for a
        // later cooler climb — or for repair_balance at quiescence, which
        // re-derives heights before anchor-scanning (see its comment for
        // why the cached values alone cannot be trusted).
        obs::count(obs::Counter::kRotationsDeferred);
        note_scope_rotation_deferred();
        break;
      }
      // Make sure `child` is the child on the taller side; switching sides
      // needs a downward (against-order) lock.
      if ((is_left && bf <= -2) || (!is_left && bf >= 2)) {
        if (child != nullptr) child->tree_lock.unlock();
        child = is_left ? node->right.load(std::memory_order_relaxed)
                        : node->left.load(std::memory_order_relaxed);
        is_left = !is_left;
        if (!child->tree_lock.try_lock()) {
          child = nullptr;
          if (!restart_balance(node, parent, child)) return;
          bf = node->balance_factor();
          is_left = (node->left.load(std::memory_order_relaxed) == child);
          continue;
        }
      }

      // Double rotation: first rotate the child with its (taller-side
      // inner) grandchild.
      const auto ch_bf = child->balance_factor();
      if ((is_left && ch_bf < 0) || (!is_left && ch_bf > 0)) {
        N* grand = is_left ? child->right.load(std::memory_order_relaxed)
                           : child->left.load(std::memory_order_relaxed);
        if (!grand->tree_lock.try_lock()) {
          child->tree_lock.unlock();
          child = nullptr;
          if (!restart_balance(node, parent, child)) return;
          bf = node->balance_factor();
          is_left = (node->left.load(std::memory_order_relaxed) == child);
          continue;
        }
        check::perturb_point(check::PerturbPoint::kRotate);
        obs::count(obs::Counter::kRotations);
        rotate(grand, child, node, is_left);
        child->tree_lock.unlock();
        child = grand;
      }

      // Main rotation: node goes below its (taller) child.
      if (parent == nullptr) parent = lock_parent(node);
      check::perturb_point(check::PerturbPoint::kRotate);
      obs::count(obs::Counter::kRotations);
      rotate(child, node, parent, !is_left);

      bf = node->balance_factor();
      if (std::abs(bf) >= 2) {
        // Still imbalanced (stale heights): keep working on node, which
        // now hangs under its old child.
        parent->tree_lock.unlock();
        parent = child;  // locked; is node's parent after the rotation
        child = nullptr;
        is_left = bf >= 2 ? false : true;  // routes back through the
                                           // switch-sides branch above
        continue;
      }
      // Node is balanced; continue with its old child (now its parent).
      std::swap(node, child);
      is_left = (node->left.load(std::memory_order_relaxed) == child);
      bf = node->balance_factor();
    }

    // Climb one level.
    if (child != nullptr) child->tree_lock.unlock();
    child = node;
    node = parent != nullptr ? parent : lock_parent(node);
    parent = nullptr;
  }

  if (child != nullptr) child->tree_lock.unlock();
  node->tree_lock.unlock();
  if (parent != nullptr) parent->tree_lock.unlock();
}

/// Re-runs rebalancing anchored at `node` (used by removers after
/// relocating a successor into a removed node's place, and as the remover's
/// obligation when another thread's rebalance bailed out on our mark —
/// paper §4.5 final paragraph).
template <typename N>
void rebalance_at(N* root, N* node) {
  node->tree_lock.lock();
  if (node->mark.load(std::memory_order_acquire)) {
    node->tree_lock.unlock();
    return;
  }
  N* parent = nullptr;
  N* child = nullptr;
  // Borrow restart_balance's child-selection loop to lock the taller side.
  const auto bf = node->balance_factor();
  child = bf >= 2 ? node->left.load(std::memory_order_relaxed)
                  : node->right.load(std::memory_order_relaxed);
  if (child != nullptr && !child->tree_lock.try_lock()) {
    child = nullptr;
    if (!restart_balance(node, parent, child)) return;
  }
  const bool is_left =
      child != nullptr && node->left.load(std::memory_order_relaxed) == child;
  rebalance(root, node, child, is_left);
}

}  // namespace lot::lo::detail
