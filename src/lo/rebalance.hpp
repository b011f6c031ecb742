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
#include <cstdlib>
#include <utility>

#include "check/perturb.hpp"
#include "lo/detail.hpp"
#include "lo/node.hpp"
#include "obs/counters.hpp"
#include "reclaim/ebr.hpp"
#include "sync/backoff.hpp"

namespace lot::lo::detail {

/// Algorithm 14. On entry: node tree-locked, parent tree-locked or null,
/// child lock NOT held. Releases parent, then cycles node's lock until it
/// can pick (and lock) the child on the taller side. Returns false — with
/// every lock released — if node got removed meanwhile, in which case the
/// remover is responsible for any outstanding imbalance (paper §4.5
/// edge case). On true: node locked, child locked or null.
template <typename N>
bool restart_balance(reclaim::EbrDomain& domain, N* node, N*& parent,
                     N*& child) {
  obs::count(obs::Counter::kBalanceRestarts);
  domain.note_contention_event();
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
/// rotated or height-maintained. `domain` is the map's, for contention
/// accounting only.
template <typename N>
void rebalance(reclaim::EbrDomain& domain, N* root, N* node, N* child,
               bool first_is_left) {
  N* parent = nullptr;
  bool first = true;
  while (node != root) {
    obs::count(obs::Counter::kHeightPasses);
    bool is_left = (child != nullptr || !first)
                       ? (node->left.load(std::memory_order_relaxed) == child)
                       : first_is_left;
    first = false;
    const bool changed = update_height(child, node, is_left);
    auto bf = node->balance_factor();
    if (!changed && std::abs(bf) < 2) break;

    while (std::abs(bf) >= 2) {
      // Make sure `child` is the child on the taller side; switching sides
      // needs a downward (against-order) lock.
      if ((is_left && bf <= -2) || (!is_left && bf >= 2)) {
        if (child != nullptr) child->tree_lock.unlock();
        child = is_left ? node->right.load(std::memory_order_relaxed)
                        : node->left.load(std::memory_order_relaxed);
        is_left = !is_left;
        if (!child->tree_lock.try_lock()) {
          child = nullptr;
          if (!restart_balance(domain, node, parent, child)) return;
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
          if (!restart_balance(domain, node, parent, child)) return;
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
void rebalance_at(reclaim::EbrDomain& domain, N* root, N* node) {
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
    if (!restart_balance(domain, node, parent, child)) return;
  }
  const bool is_left =
      child != nullptr && node->left.load(std::memory_order_relaxed) == child;
  rebalance(domain, root, node, child, is_left);
}

}  // namespace lot::lo::detail
