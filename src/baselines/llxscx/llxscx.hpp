// LLX/SCX: the multi-word synchronization primitive of Brown, Ellen,
// Ruppert ("A general technique for non-blocking trees", PPoPP 2014) that
// underlies their Chromatic tree.
//
//  * LLX(node) returns a snapshot of the node's mutable fields (children)
//    together with the node's current operation record, or FAIL if an
//    operation is in progress (after helping it).
//  * SCX(V, R, field, new) atomically: verifies no node in V changed since
//    its LLX, finalizes the nodes in R (they leave the data structure),
//    and writes `new` into one child field. Threads that encounter an
//    in-progress record help it complete, giving lock-free progress.
//
// Records are reference-counted by the nodes whose info pointer holds
// them and reclaimed through EBR once the count drops to zero (readers
// may still dereference a displaced record under their guard).
//
// Record lifetime: once refs reaches zero it must never rise again — a
// slow helper that unconditionally incremented the count could resurrect
// an already-retired record, drive it back to zero, and retire it twice
// (the heap-use-after-free TSan used to catch under the Chromatic stress
// tests). Helpers therefore use try_inc_ref, which refuses to revive a
// released record; a refused helper knows the operation finished long ago
// and just reads the (now immutable) final state under its EBR guard.
// Fields a helper reads (v, infos, field, old/new child, finalize) are
// atomics: written before the record is published by the freeze CAS, read
// relaxed afterwards.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstddef>

#include "reclaim/ebr.hpp"

namespace lot::baselines::llxscx {

template <typename NodeT>
struct ScxRecord {
  static constexpr std::size_t kMaxV = 4;
  enum State : int { kInProgress = 0, kCommitted = 1, kAborted = 2 };

  std::atomic<int> state{kInProgress};
  std::atomic<bool> all_frozen{false};

  // Helper-read fields. The originator writes them (relaxed) before the
  // record is published by its first freeze CAS; helpers reach the record
  // through an acquire load of node->info, so relaxed reads suffice.
  std::atomic<NodeT*> v[kMaxV] = {};
  std::atomic<ScxRecord*> infos[kMaxV] = {};
  std::atomic<std::size_t> v_count{0};

  std::atomic<std::atomic<NodeT*>*> field{nullptr};
  std::atomic<NodeT*> old_child{nullptr};
  std::atomic<NodeT*> new_child{nullptr};

  std::atomic<NodeT*> finalize[kMaxV] = {};
  std::atomic<std::size_t> finalize_count{0};

  // Nodes referencing this record through their info pointer, plus one
  // virtual reference held by the in-flight operation until it completes.
  std::atomic<std::int64_t> refs{1};
};

/// The permanently-committed dummy record every node starts with.
template <typename NodeT>
ScxRecord<NodeT>* dummy_record() {
  static ScxRecord<NodeT> dummy;
  static const bool initialized = [] {
    dummy.state.store(ScxRecord<NodeT>::kCommitted,
                      std::memory_order_relaxed);
    dummy.refs.store(1'000'000'000, std::memory_order_relaxed);  // permanent
    return true;
  }();
  (void)initialized;
  return &dummy;
}

template <typename NodeT>
void dec_ref(ScxRecord<NodeT>* rec, reclaim::EbrDomain& domain) {
  if (rec == dummy_record<NodeT>()) return;
  if (rec->refs.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    domain.retire(rec);
  }
}

/// Takes a reference iff the record is still alive (refs > 0). A record
/// whose count reached zero has been retired; incrementing it again would
/// resurrect it and eventually retire it a second time (use-after-free).
template <typename NodeT>
bool try_inc_ref(ScxRecord<NodeT>* rec) {
  std::int64_t cur = rec->refs.load(std::memory_order_acquire);
  while (cur > 0) {
    if (rec->refs.compare_exchange_weak(cur, cur + 1,
                                        std::memory_order_acq_rel,
                                        std::memory_order_acquire)) {
      return true;
    }
  }
  return false;
}

/// Result of LLX: the record observed (nullptr on FAIL) plus the snapshot
/// of the node's child pointers.
template <typename NodeT>
struct LlxResult {
  ScxRecord<NodeT>* info = nullptr;
  NodeT* left = nullptr;
  NodeT* right = nullptr;
  bool ok() const { return info != nullptr; }
};

template <typename NodeT>
bool help_scx(ScxRecord<NodeT>* rec, reclaim::EbrDomain& domain);

/// LLX. Helps any in-progress operation it runs into, then fails so the
/// caller re-reads fresh state.
/// The finalized flag is read *after* the record's state, as in Brown et
/// al.'s LLX: an SCX finalizes its nodes before it stores kCommitted, so
/// seeing kCommitted guarantees seeing the mark. Read first, the flag can
/// be stale (false) while the state is already kCommitted; the LLX then
/// hands out a snapshot of a node that has just left the tree, a later SCX
/// freezes it, and its finalized parent stays linked — every LLX on that
/// parent fails from then on and updates below it retry forever.
template <typename NodeT>
LlxResult<NodeT> llx(NodeT* node, reclaim::EbrDomain& domain) {
  ScxRecord<NodeT>* info = node->info.load(std::memory_order_acquire);
  const int state = info->state.load(std::memory_order_acquire);
  const bool marked = node->finalized.load(std::memory_order_acquire);
  if ((state == ScxRecord<NodeT>::kCommitted ||
       state == ScxRecord<NodeT>::kAborted) &&
      !marked) {
    LlxResult<NodeT> res;
    res.left = node->left.load(std::memory_order_acquire);
    res.right = node->right.load(std::memory_order_acquire);
    if (node->info.load(std::memory_order_acquire) == info) {
      res.info = info;
      return res;  // consistent snapshot
    }
    return {};
  }
  if (state == ScxRecord<NodeT>::kInProgress) help_scx(info, domain);
  return {};
}

/// The helping core of SCX. Returns true iff the record committed.
template <typename NodeT>
bool help_scx(ScxRecord<NodeT>* rec, reclaim::EbrDomain& domain) {
  using Rec = ScxRecord<NodeT>;
  // Freeze every node in V by installing `rec` as its info.
  const std::size_t v_count = rec->v_count.load(std::memory_order_relaxed);
  for (std::size_t i = 0; i < v_count; ++i) {
    NodeT* node = rec->v[i].load(std::memory_order_relaxed);
    ScxRecord<NodeT>* expected = rec->infos[i].load(std::memory_order_relaxed);
    if (!try_inc_ref(rec)) {
      // Every reference is gone: the operation finished long ago and the
      // record was retired (our EBR guard keeps the memory readable). Its
      // final state is immutable now — report it without touching refs.
      return rec->state.load(std::memory_order_acquire) == Rec::kCommitted;
    }
    if (!node->info.compare_exchange_strong(expected, rec,
                                            std::memory_order_acq_rel)) {
      dec_ref(rec, domain);  // CAS lost: take the tentative count back
      if (node->info.load(std::memory_order_acquire) != rec) {
        // Frozen by someone else (or moved on): if the operation already
        // reached the all-frozen point some helper will finish it.
        if (rec->all_frozen.load(std::memory_order_acquire)) return true;
        int exp = Rec::kInProgress;
        rec->state.compare_exchange_strong(exp, Rec::kAborted,
                                           std::memory_order_acq_rel);
        return false;
      }
      // info == rec: another helper froze this node; its old info ref was
      // already released by that helper.
      continue;
    }
    // We won the freeze: release the displaced record's reference.
    dec_ref(expected, domain);
  }
  rec->all_frozen.store(true, std::memory_order_release);
  const std::size_t finalize_count =
      rec->finalize_count.load(std::memory_order_relaxed);
  for (std::size_t i = 0; i < finalize_count; ++i) {
    rec->finalize[i].load(std::memory_order_relaxed)
        ->finalized.store(true, std::memory_order_release);
  }
  NodeT* expected_child = rec->old_child.load(std::memory_order_relaxed);
  rec->field.load(std::memory_order_relaxed)
      ->compare_exchange_strong(expected_child,
                                rec->new_child.load(std::memory_order_relaxed),
                                std::memory_order_acq_rel);
  rec->state.store(Rec::kCommitted, std::memory_order_release);
  return true;
}

/// SCX proper. `v`/`infos` come from successful LLXs on each node (the
/// node holding `field` must be among them). Returns true on commit; the
/// caller (originator) then owns retiring the finalized nodes.
template <typename NodeT>
bool scx(NodeT* const* v, ScxRecord<NodeT>* const* infos, std::size_t v_count,
         NodeT* const* finalize, std::size_t finalize_count,
         std::atomic<NodeT*>* field, NodeT* old_child, NodeT* new_child,
         reclaim::EbrDomain& domain) {
  using Rec = ScxRecord<NodeT>;
  Rec* rec = reclaim::make_counted<Rec>();
  rec->v_count.store(v_count, std::memory_order_relaxed);
  for (std::size_t i = 0; i < v_count; ++i) {
    rec->v[i].store(v[i], std::memory_order_relaxed);
    rec->infos[i].store(infos[i], std::memory_order_relaxed);
  }
  rec->finalize_count.store(finalize_count, std::memory_order_relaxed);
  for (std::size_t i = 0; i < finalize_count; ++i) {
    rec->finalize[i].store(finalize[i], std::memory_order_relaxed);
  }
  rec->field.store(field, std::memory_order_relaxed);
  rec->old_child.store(old_child, std::memory_order_relaxed);
  rec->new_child.store(new_child, std::memory_order_relaxed);
  const bool committed = help_scx(rec, domain);
  dec_ref(rec, domain);  // drop the operation's own reference
  return committed;
}

}  // namespace lot::baselines::llxscx
