// Contention-friendly binary search tree: Crain, Gramoli, Raynal
// (Euro-Par 2013) — the paper's second lock-based competitor (Table 1).
//
// Design split: the *eager* abstract operations (insert / logical remove /
// contains) touch as few nodes as possible and never restructure; a single
// background *maintenance* thread lazily (a) physically splices out
// logically-deleted nodes once they have at most one child and (b)
// rebalances with local rotations. Rotations clone the node that moves
// down, so an in-flight traversal parked on the old copy still sees a
// valid substructure (the old node keeps its outgoing pointers and is
// flagged `removed`; operations that end on a removed node restart).
//
// Reclamation: spliced and cloned-away nodes are retired via EBR by the
// maintenance thread.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <optional>
#include <string_view>
#include <thread>
#include <type_traits>
#include <utility>

#include "reclaim/ebr.hpp"
#include "sync/backoff.hpp"
#include "sync/spinlock.hpp"

namespace lot::baselines {

template <typename K, typename V, typename Compare = std::less<K>>
class CfTreeMap {
  static_assert(std::is_trivially_copyable_v<V>,
                "values live in an atomic slot (deleted nodes can be "
                "revived concurrently with lock-free gets)");

 public:
  using key_type = K;
  using mapped_type = V;

  explicit CfTreeMap(reclaim::EbrDomain& domain =
                         reclaim::EbrDomain::global_domain(),
                     Compare comp = Compare())
      : domain_(&domain), comp_(std::move(comp)) {
    root_holder_ = reclaim::make_counted<Node>(K{}, V{});
    root_holder_->deleted.store(true, std::memory_order_relaxed);
    maintenance_ = std::thread([this] { maintenance_loop(); });
  }

  ~CfTreeMap() {
    stop_.store(true, std::memory_order_release);
    maintenance_.join();
    destroy(root_holder_);
  }

  CfTreeMap(const CfTreeMap&) = delete;
  CfTreeMap& operator=(const CfTreeMap&) = delete;

  static std::string_view name() { return "crain-cf-tree"; }

  /// Quiescence point for teardown checks: blocks until the maintenance
  /// thread finishes one full pass, begun after this call, that changed
  /// nothing (no splice, no rotation), then leaves it parked with no guard
  /// held until the map is destroyed. A pass over an unchanged tree makes
  /// the same decisions as the last one, so by then every retire the
  /// thread will make has been made, and one domain flush reclaims them.
  /// Call once client operations have stopped for good. Returns false if
  /// no quiet pass came within 30 s.
  bool quiesce() {
    park_requested_.store(true, std::memory_order_release);
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (!parked_.load(std::memory_order_acquire)) {
      if (std::chrono::steady_clock::now() > deadline) return false;
      std::this_thread::yield();
    }
    return true;
  }

  bool contains(const K& k) const { return get(k).has_value(); }

  std::optional<V> get(const K& k) const {
    auto g = domain_->guard();
    for (;;) {
      Node* node = find(k);
      if (node == nullptr) return std::nullopt;  // validated miss
      if (node->removed.load(std::memory_order_acquire)) continue;
      const V v = node->value.load(std::memory_order_acquire);
      if (node->deleted.load(std::memory_order_acquire)) return std::nullopt;
      return v;
    }
  }

  bool insert(const K& k, const V& v) {
    auto g = domain_->guard();
    for (;;) {
      Node* node = locate(k);
      const int c = cmp_node(node, k);
      if (c == 0) {
        std::lock_guard<sync::SpinLock> lg(node->lock);
        if (node->removed.load(std::memory_order_relaxed)) continue;
        if (!node->deleted.load(std::memory_order_relaxed)) return false;
        node->value.store(v, std::memory_order_relaxed);
        node->deleted.store(false, std::memory_order_release);
        return true;
      }
      // Attach as a child of `node`.
      auto& slot = c < 0 ? node->right : node->left;
      std::lock_guard<sync::SpinLock> lg(node->lock);
      if (node->removed.load(std::memory_order_relaxed)) continue;
      if (slot.load(std::memory_order_relaxed) != nullptr) continue;
      Node* nn = reclaim::make_counted<Node>(k, v);
      slot.store(nn, std::memory_order_release);
      return true;
    }
  }

  bool erase(const K& k) {
    auto g = domain_->guard();
    for (;;) {
      Node* node = locate(k);
      if (cmp_node(node, k) != 0) {
        if (node->removed.load(std::memory_order_acquire)) continue;
        return false;  // validated miss
      }
      std::lock_guard<sync::SpinLock> lg(node->lock);
      if (node->removed.load(std::memory_order_relaxed)) continue;
      if (node->deleted.load(std::memory_order_relaxed)) return false;
      node->deleted.store(true, std::memory_order_release);  // logical only
      return true;
    }
  }

  std::optional<std::pair<K, V>> min() const {
    auto g = domain_->guard();
    std::optional<std::pair<K, V>> out;
    visit_until(root(), /*left=*/true, out);
    return out;
  }

  std::optional<std::pair<K, V>> max() const {
    auto g = domain_->guard();
    std::optional<std::pair<K, V>> out;
    visit_until(root(), /*left=*/false, out);
    return out;
  }

  template <typename F>
  void for_each(F&& fn) const {
    auto g = domain_->guard();
    const K* last = nullptr;
    visit(root(), fn, last);
  }

  /// Ordered scan over [lo, hi). The raw in-order sweep carries no
  /// validation, so the physical key order is only weakly trustworthy
  /// under concurrent restructuring — this filters a full traversal
  /// rather than pruning by key: O(n) regardless of range width, weakly
  /// consistent like for_each. Fine for differential tests; use the lo
  /// trees or the skiplist when range cost matters.
  template <typename F>
  void range(const K& lo, const K& hi, F&& fn) const {
    if (!comp_(lo, hi)) return;
    for_each([&](const K& k, const V& v) {
      if (!comp_(k, lo) && comp_(k, hi)) fn(k, v);
    });
  }

  std::optional<std::pair<K, V>> first_in_range(const K& lo,
                                                const K& hi) const {
    std::optional<std::pair<K, V>> out;
    range(lo, hi, [&out](const K& k, const V& v) {
      if (!out) out = std::make_pair(k, v);
    });
    return out;
  }

  std::optional<std::pair<K, V>> last_in_range(const K& lo,
                                               const K& hi) const {
    std::optional<std::pair<K, V>> out;
    range(lo, hi,
          [&out](const K& k, const V& v) { out = std::make_pair(k, v); });
    return out;
  }

  std::size_t size_slow() const {
    std::size_t n = 0;
    for_each([&n](const K&, const V&) { ++n; });
    return n;
  }

  bool empty() const { return size_slow() == 0; }

  std::size_t physical_nodes_slow() const {
    auto g = domain_->guard();
    std::size_t n = 0;
    count_nodes(root(), n);
    return n;
  }

 private:
  struct Node {
    const K key;
    std::atomic<V> value;
    std::atomic<bool> deleted{false};  // logically absent
    std::atomic<bool> removed{false};  // physically spliced / cloned away
    std::atomic<Node*> left{nullptr};
    std::atomic<Node*> right{nullptr};
    // Subtree height estimate; written only by the maintenance thread
    // during its depth-first pass (single writer, no synchronization).
    std::int32_t height = 1;
    sync::SpinLock lock;

    Node(K k, V v) : key(std::move(k)), value(v) {}
  };

  static std::int32_t height_of(const Node* n) {
    return n == nullptr ? 0 : n->height;
  }

  Node* root() const {
    // The holder's right child is the tree (holder key sorts below all).
    return root_holder_->right.load(std::memory_order_acquire);
  }

  int cmp_node(const Node* n, const K& k) const {
    if (n == root_holder_) return -1;  // holder sorts below everything
    if (comp_(n->key, k)) return -1;
    if (comp_(k, n->key)) return 1;
    return 0;
  }

  /// Plain traversal; returns the node with the key, or the node whose
  /// relevant child slot is null (never null itself).
  Node* locate(const K& k) const {
    Node* node = root_holder_;
    for (;;) {
      const int c = cmp_node(node, k);
      if (c == 0) return node;
      Node* child = c < 0 ? node->right.load(std::memory_order_acquire)
                          : node->left.load(std::memory_order_acquire);
      if (child == nullptr) return node;
      node = child;
    }
  }

  /// locate() + miss validation: returns the key node, or nullptr for a
  /// trustworthy miss (the end node was not removed).
  Node* find(const K& k) const {
    for (;;) {
      Node* node = locate(k);
      if (cmp_node(node, k) == 0) return node;
      if (!node->removed.load(std::memory_order_acquire)) return nullptr;
      // Ended on a spliced-out node: its null slot says nothing; retry.
    }
  }

  // ---- maintenance thread ---------------------------------------------

  void maintenance_loop() {
    while (!stop_.load(std::memory_order_acquire)) {
      const bool park = park_requested_.load(std::memory_order_acquire);
      pass_changed_ = false;
      {
        auto g = domain_->guard();
        maintain(root_holder_, root_holder_);
      }
      if (park && !pass_changed_) {
        parked_.store(true, std::memory_order_release);
        while (!stop_.load(std::memory_order_acquire)) {
          std::this_thread::yield();
        }
        return;
      }
      std::this_thread::yield();
    }
  }

  /// One depth-first maintenance pass: splice deleted nodes with <= 1
  /// child, rotate where the subtree heights diverge. Returns the height
  /// of the subtree rooted at `node` as observed during this pass.
  std::int32_t maintain(Node* node, Node* parent) {
    if (node == nullptr || stop_.load(std::memory_order_acquire)) return 0;

    // Splice: deleted node with at most one child leaves the tree.
    if (node != root_holder_ &&
        node->deleted.load(std::memory_order_acquire) &&
        !node->removed.load(std::memory_order_acquire)) {
      if (try_splice(parent, node)) pass_changed_ = true;
      // Whether or not the splice won, re-read through the parent below.
    }

    Node* l = node->left.load(std::memory_order_acquire);
    Node* r = node->right.load(std::memory_order_acquire);
    const std::int32_t hl = maintain(l, node);
    const std::int32_t hr = maintain(r, node);

    if (node != root_holder_ && !stop_.load(std::memory_order_acquire)) {
      // Standard AVL case split using this pass's heights: if the pivot
      // is inner-heavy, rotate it first (a single outer rotation would
      // not reduce the imbalance and the tree would flip-flop forever,
      // churning clones at quiescence).
      const std::int32_t bf = hl - hr;
      if (bf >= 2 && l != nullptr) {
        if (height_of(l->right.load(std::memory_order_acquire)) >
            height_of(l->left.load(std::memory_order_acquire))) {
          // inner first
          pass_changed_ |= try_rotate(node, l, /*right_rotation=*/false);
        } else {
          pass_changed_ |= try_rotate(parent, node, /*right_rotation=*/true);
        }
      } else if (bf <= -2 && r != nullptr) {
        if (height_of(r->left.load(std::memory_order_acquire)) >
            height_of(r->right.load(std::memory_order_acquire))) {
          // inner first
          pass_changed_ |= try_rotate(node, r, /*right_rotation=*/true);
        } else {
          pass_changed_ |= try_rotate(parent, node, /*right_rotation=*/false);
        }
      }
    }
    const std::int32_t h = 1 + (hl > hr ? hl : hr);
    node->height = h;
    return h;
  }

  bool try_splice(Node* parent, Node* node) {
    std::lock_guard<sync::SpinLock> pg(parent->lock);
    std::lock_guard<sync::SpinLock> ng(node->lock);
    if (parent->removed.load(std::memory_order_relaxed) ||
        node->removed.load(std::memory_order_relaxed) ||
        !node->deleted.load(std::memory_order_relaxed)) {
      return false;
    }
    auto& slot = parent->left.load(std::memory_order_relaxed) == node
                     ? parent->left
                     : parent->right;
    if (slot.load(std::memory_order_relaxed) != node) return false;
    Node* l = node->left.load(std::memory_order_relaxed);
    Node* r = node->right.load(std::memory_order_relaxed);
    if (l != nullptr && r != nullptr) return false;  // two children
    // Splice; the removed node keeps its child pointers so parked
    // traversals continue into live structure.
    node->removed.store(true, std::memory_order_release);
    slot.store(l != nullptr ? l : r, std::memory_order_release);
    domain_->retire(node);
    return true;
  }

  /// Copy-on-rotate: the node moving down is cloned so traversals parked
  /// on the original stay on a valid (frozen) fragment.
  bool try_rotate(Node* parent, Node* node, bool right_rotation) {
    std::lock_guard<sync::SpinLock> pg(parent->lock);
    std::lock_guard<sync::SpinLock> ng(node->lock);
    if (parent->removed.load(std::memory_order_relaxed) ||
        node->removed.load(std::memory_order_relaxed)) {
      return false;
    }
    auto& slot = parent->left.load(std::memory_order_relaxed) == node
                     ? parent->left
                     : parent->right;
    if (slot.load(std::memory_order_relaxed) != node) return false;
    Node* pivot = right_rotation ? node->left.load(std::memory_order_relaxed)
                                 : node->right.load(std::memory_order_relaxed);
    if (pivot == nullptr) return false;
    std::lock_guard<sync::SpinLock> vg(pivot->lock);
    if (pivot->removed.load(std::memory_order_relaxed)) return false;

    // Clone `node`; the clone takes the pivot's inner subtree.
    Node* clone = reclaim::make_counted<Node>(
        node->key, node->value.load(std::memory_order_relaxed));
    clone->deleted.store(node->deleted.load(std::memory_order_relaxed),
                         std::memory_order_relaxed);
    if (right_rotation) {
      clone->left.store(pivot->right.load(std::memory_order_relaxed),
                        std::memory_order_relaxed);
      clone->right.store(node->right.load(std::memory_order_relaxed),
                         std::memory_order_relaxed);
      pivot->right.store(clone, std::memory_order_release);
    } else {
      clone->right.store(pivot->left.load(std::memory_order_relaxed),
                         std::memory_order_relaxed);
      clone->left.store(node->left.load(std::memory_order_relaxed),
                        std::memory_order_relaxed);
      pivot->left.store(clone, std::memory_order_release);
    }
    node->removed.store(true, std::memory_order_release);
    slot.store(pivot, std::memory_order_release);
    domain_->retire(node);
    return true;
  }

  // ---- bulk reads ------------------------------------------------------

  /// In-order sweep. A rotation that runs under the sweep can show it a
  /// key twice: once through the clone and once through the original the
  /// sweep is parked on, which keeps its outgoing pointers. `last` is the
  /// greatest key swept so far, and only keys above it are visited, so a
  /// sweep with no concurrent client update sees each key exactly once
  /// even while the maintenance thread rotates.
  ///
  /// A node at or below `last` has its whole left subtree swept too, so
  /// the sweep goes straight on to its right. Walking that subtree again
  /// finds nothing, and it is not cheap: a rotated-away original and its
  /// clone both lead to the same subtree, so a sweep parked in retired
  /// fragments re-walks it once per path, and the paths multiply with
  /// every rotation that ran under the sweep.
  template <typename F>
  void visit(const Node* n, F& fn, const K*& last) const {
    for (; n != nullptr; n = n->right.load(std::memory_order_acquire)) {
      if (last != nullptr && !comp_(*last, n->key)) continue;
      visit(n->left.load(std::memory_order_acquire), fn, last);
      if (last == nullptr || comp_(*last, n->key)) {
        last = &n->key;
        const V v = n->value.load(std::memory_order_acquire);
        if (!n->deleted.load(std::memory_order_acquire)) fn(n->key, v);
      }
    }
  }

  static bool visit_until(const Node* n, bool left,
                          std::optional<std::pair<K, V>>& out) {
    if (n == nullptr) return true;
    const Node* first = left ? n->left.load(std::memory_order_acquire)
                             : n->right.load(std::memory_order_acquire);
    const Node* second = left ? n->right.load(std::memory_order_acquire)
                              : n->left.load(std::memory_order_acquire);
    if (!visit_until(first, left, out)) return false;
    const V v = n->value.load(std::memory_order_acquire);
    if (!n->deleted.load(std::memory_order_acquire)) {
      out = std::make_pair(n->key, v);
      return false;
    }
    return visit_until(second, left, out);
  }

  static void count_nodes(const Node* n, std::size_t& count) {
    if (n == nullptr) return;
    ++count;
    count_nodes(n->left.load(std::memory_order_acquire), count);
    count_nodes(n->right.load(std::memory_order_acquire), count);
  }

  void destroy(Node* n) {
    if (n == nullptr) return;
    destroy(n->left.load(std::memory_order_relaxed));
    destroy(n->right.load(std::memory_order_relaxed));
    reclaim::delete_counted(n);
  }

  reclaim::EbrDomain* domain_;
  Compare comp_;
  Node* root_holder_;
  std::atomic<bool> stop_{false};
  std::atomic<bool> park_requested_{false};  // quiesce() asked for a park
  std::atomic<bool> parked_{false};          // the maintenance thread parked
  bool pass_changed_ = false;  // maintenance thread only: this pass's work
  std::thread maintenance_;
};

}  // namespace lot::baselines
