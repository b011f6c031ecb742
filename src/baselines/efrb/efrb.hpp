// Non-blocking external binary search tree of Ellen, Fatourou, Ruppert and
// van Breugel (PODC 2010) — the paper's "EFRB-Tree" baseline (Table 2).
//
// External tree: internal nodes are routing-only, every internal node has
// exactly two children, keys live in the leaves. Updates coordinate through
// Info records flagged into the parent's (and grandparent's) `update` word
// with a 2-bit state (CLEAN / IFLAG / DFLAG / MARK); any thread that
// encounters a flagged node helps the pending operation to completion, so
// all operations are lock-free.
//
// Reclamation: the operation's *originator* (whose flag CAS committed the
// operation exactly once) retires the unlinked nodes; helpers may still
// dereference them under their EBR guards. An Info record is retired only
// once no live node's `update` word names it: a finished operation leaves
// its record in the word with state CLEAN, and that value is what the next
// flag or mark CAS on the node expects. Freeing the record while the word
// still names it would let a new record reuse the address, the word would
// return to a value a stalled thread read before, and that thread's flag
// CAS would succeed on a stale view (an ABA that loses an insert). So the
// thread whose CAS moves a word off CLEAN(record) retires the record, and
// the destructor frees the records still named by live nodes.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <optional>
#include <string_view>
#include <utility>

#include "reclaim/ebr.hpp"

namespace lot::baselines {

template <typename K, typename V, typename Compare = std::less<K>>
class EfrbMap {
 public:
  using key_type = K;
  using mapped_type = V;

  explicit EfrbMap(reclaim::EbrDomain& domain =
                       reclaim::EbrDomain::global_domain(),
                   Compare comp = Compare())
      : domain_(&domain), comp_(std::move(comp)) {
    // Initial tree: root Internal(inf2) with leaves inf1 / inf2; every
    // real key is smaller than both sentinels and sinks into the left.
    Node* l1 = reclaim::make_counted<Node>(K{}, V{}, SentTag::kInf1, true);
    Node* l2 = reclaim::make_counted<Node>(K{}, V{}, SentTag::kInf2, true);
    root_ = reclaim::make_counted<Node>(K{}, V{}, SentTag::kInf2, false);
    root_->left.store(l1, std::memory_order_relaxed);
    root_->right.store(l2, std::memory_order_relaxed);
  }

  ~EfrbMap() {
    destroy(root_);
  }

  EfrbMap(const EfrbMap&) = delete;
  EfrbMap& operator=(const EfrbMap&) = delete;

  static std::string_view name() { return "efrb-external-bst"; }

  bool contains(const K& k) const {
    auto g = domain_->guard();
    const Node* l = find_leaf(k);
    return leaf_matches(l, k);
  }

  std::optional<V> get(const K& k) const {
    auto g = domain_->guard();
    const Node* l = find_leaf(k);
    if (!leaf_matches(l, k)) return std::nullopt;
    return l->value;
  }

  bool insert(const K& k, const V& v) {
    auto g = domain_->guard();
    for (;;) {
      SearchResult sr = search(k);
      if (leaf_matches(sr.l, k)) return false;
      if (state_of(sr.pupdate) != State::kClean) {
        help(sr.pupdate);
        continue;
      }
      Node* new_leaf = reclaim::make_counted<Node>(k, v, SentTag::kNone, true);
      // New internal routes between a *copy* of the old leaf and the new
      // one, as in EFRB. Reusing the old leaf would let the parent's child
      // slot return to it (once the new leaf is deleted, its sibling moves
      // back up), and a stalled helper's child CAS for this insert would
      // then succeed a second time and re-link the removed internal node.
      Node* new_sibling =
          reclaim::make_counted<Node>(sr.l->key, sr.l->value, sr.l->tag, true);
      const bool new_goes_left = node_less(new_leaf, new_sibling);
      Node* new_internal = reclaim::make_counted<Node>(
          K{}, V{}, SentTag::kNone, false);
      // Routing key = the larger of the two.
      const Node* bigger = new_goes_left ? new_sibling : new_leaf;
      new_internal->set_routing_key(*bigger);
      new_internal->left.store(new_goes_left ? new_leaf : new_sibling,
                               std::memory_order_relaxed);
      new_internal->right.store(new_goes_left ? new_sibling : new_leaf,
                                std::memory_order_relaxed);
      Info* op = reclaim::make_counted<Info>();
      op->type = Info::kInsert;
      op->parent = sr.p;
      op->leaf = sr.l;
      op->new_internal = new_internal;
      std::uintptr_t expected = sr.pupdate;
      if (sr.p->update.compare_exchange_strong(
              expected, pack(op, State::kIFlag),
              std::memory_order_acq_rel)) {
        retire_info(sr.pupdate);  // the word no longer names it
        help_insert(op);
        domain_->retire(sr.l);  // replaced by its copy; unreachable now
        return true;
      }
      reclaim::delete_counted(new_leaf);      // never published
      reclaim::delete_counted(new_sibling);   // never published
      reclaim::delete_counted(new_internal);  // never published
      reclaim::delete_counted(op);
      help(sr.p->update.load(std::memory_order_acquire));
    }
  }

  bool erase(const K& k) {
    auto g = domain_->guard();
    for (;;) {
      SearchResult sr = search(k);
      if (!leaf_matches(sr.l, k)) return false;
      if (state_of(sr.gpupdate) != State::kClean) {
        help(sr.gpupdate);
        continue;
      }
      if (state_of(sr.pupdate) != State::kClean) {
        help(sr.pupdate);
        continue;
      }
      Info* op = reclaim::make_counted<Info>();
      op->type = Info::kDelete;
      op->grandparent = sr.gp;
      op->parent = sr.p;
      op->leaf = sr.l;
      op->pupdate = sr.pupdate;
      std::uintptr_t expected = sr.gpupdate;
      if (sr.gp->update.compare_exchange_strong(
              expected, pack(op, State::kDFlag),
              std::memory_order_acq_rel)) {
        retire_info(sr.gpupdate);  // the word no longer names it
        if (help_delete(op)) {
          // Unlinked: p and l left the tree. The record stays named by
          // gp's update word (retired when that word moves on).
          domain_->retire(sr.p);
          domain_->retire(sr.l);
          return true;
        }
        continue;  // backtracked
      }
      reclaim::delete_counted(op);  // flag CAS failed: never published
      help(sr.gp->update.load(std::memory_order_acquire));
    }
  }

  std::optional<std::pair<K, V>> min() const {
    auto g = domain_->guard();
    std::optional<std::pair<K, V>> out;
    visit_in_order(root_, [&](const Node* leaf) {
      if (!out) out = std::make_pair(leaf->key, leaf->value);
      return !out.has_value();  // stop after the first real leaf
    });
    return out;
  }

  std::optional<std::pair<K, V>> max() const {
    auto g = domain_->guard();
    std::optional<std::pair<K, V>> out;
    visit_in_order(root_, [&](const Node* leaf) {
      out = std::make_pair(leaf->key, leaf->value);
      return true;  // keep going; the last real leaf wins
    });
    return out;
  }

  template <typename F>
  void for_each(F&& fn) const {
    auto g = domain_->guard();
    visit_in_order(root_, [&](const Node* leaf) {
      fn(leaf->key, leaf->value);
      return true;
    });
  }

  /// Ordered scan over [lo, hi) via the in-order leaf walk, stopping once
  /// past hi. The DFS has no key-guided descent, so reaching the range's
  /// start is O(n); weakly consistent like for_each. Fine for differential
  /// tests; use the lo trees or the skiplist when range cost matters.
  template <typename F>
  void range(const K& lo, const K& hi, F&& fn) const {
    if (!comp_(lo, hi)) return;
    auto g = domain_->guard();
    visit_in_order(root_, [&](const Node* leaf) {
      if (comp_(leaf->key, lo)) return true;    // below the range
      if (!comp_(leaf->key, hi)) return false;  // past the range: stop
      fn(leaf->key, leaf->value);
      return true;
    });
  }

  std::optional<std::pair<K, V>> first_in_range(const K& lo,
                                                const K& hi) const {
    if (!comp_(lo, hi)) return std::nullopt;
    auto g = domain_->guard();
    std::optional<std::pair<K, V>> out;
    visit_in_order(root_, [&](const Node* leaf) {
      if (comp_(leaf->key, lo)) return true;
      if (comp_(leaf->key, hi)) out = std::make_pair(leaf->key, leaf->value);
      return false;  // first leaf at/above lo settles it either way
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

 private:
  enum class SentTag : std::int8_t { kNone = 0, kInf1 = 1, kInf2 = 2 };
  enum class State : std::uintptr_t {
    kClean = 0,
    kIFlag = 1,
    kDFlag = 2,
    kMark = 3
  };

  struct Info;

  struct Node {
    K key;
    V value;
    SentTag tag;
    const bool is_leaf;
    std::atomic<Node*> left{nullptr};
    std::atomic<Node*> right{nullptr};
    std::atomic<std::uintptr_t> update{0};  // Info* | State in low 2 bits

    Node(K k, V v, SentTag t, bool leaf)
        : key(std::move(k)), value(std::move(v)), tag(t), is_leaf(leaf) {}

    // Internal nodes are created blank and given the routing key of one of
    // their future children before publication.
    void set_routing_key(const Node& src) {
      key = src.key;
      tag = src.tag;
    }
  };

  struct Info {
    enum Type { kInsert, kDelete } type = kInsert;
    Node* grandparent = nullptr;
    Node* parent = nullptr;
    Node* leaf = nullptr;
    Node* new_internal = nullptr;
    std::uintptr_t pupdate = 0;  // parent's update word seen by the deleter
  };

  struct SearchResult {
    Node* gp = nullptr;
    Node* p = nullptr;
    Node* l = nullptr;
    std::uintptr_t pupdate = 0;
    std::uintptr_t gpupdate = 0;
  };

  static std::uintptr_t pack(Info* info, State s) {
    return reinterpret_cast<std::uintptr_t>(info) |
           static_cast<std::uintptr_t>(s);
  }
  static Info* info_of(std::uintptr_t w) {
    return reinterpret_cast<Info*>(w & ~std::uintptr_t{3});
  }
  static State state_of(std::uintptr_t w) {
    return static_cast<State>(w & 3);
  }

  /// Retires the record a successful CAS just displaced from a CLEAN
  /// update word (see the header comment); the initial word names none.
  void retire_info(std::uintptr_t clean_word) {
    if (Info* old = info_of(clean_word)) domain_->retire(old);
  }

  // key-vs-node comparison with sentinel handling: every real key is
  // smaller than inf1 < inf2.
  bool key_less_node(const K& k, const Node* n) const {
    if (n->tag != SentTag::kNone) return true;
    return comp_(k, n->key);
  }
  bool node_less(const Node* a, const Node* b) const {
    if (a->tag != SentTag::kNone || b->tag != SentTag::kNone) {
      return static_cast<int>(a->tag) < static_cast<int>(b->tag);
    }
    return comp_(a->key, b->key);
  }
  bool leaf_matches(const Node* l, const K& k) const {
    return l->tag == SentTag::kNone && !comp_(l->key, k) && !comp_(k, l->key);
  }

  SearchResult search(const K& k) const {
    SearchResult sr;
    sr.l = root_;
    while (!sr.l->is_leaf) {
      sr.gp = sr.p;
      sr.gpupdate = sr.pupdate;
      sr.p = sr.l;
      sr.pupdate = sr.p->update.load(std::memory_order_acquire);
      sr.l = key_less_node(k, sr.p)
                 ? sr.p->left.load(std::memory_order_acquire)
                 : sr.p->right.load(std::memory_order_acquire);
    }
    return sr;
  }

  const Node* find_leaf(const K& k) const {
    const Node* n = root_;
    while (!n->is_leaf) {
      n = key_less_node(k, n) ? n->left.load(std::memory_order_acquire)
                              : n->right.load(std::memory_order_acquire);
    }
    return n;
  }

  void help(std::uintptr_t w) {
    Info* op = info_of(w);
    switch (state_of(w)) {
      case State::kIFlag:
        help_insert(op);
        break;
      case State::kMark:
        help_marked(op);
        break;
      case State::kDFlag:
        help_delete(op);
        break;
      case State::kClean:
        break;
    }
  }

  void cas_child(Node* parent, Node* old_child, Node* new_child) {
    auto& slot = node_less(new_child, parent) ? parent->left : parent->right;
    Node* expected = old_child;
    slot.compare_exchange_strong(expected, new_child,
                                 std::memory_order_acq_rel);
  }

  void help_insert(Info* op) {
    cas_child(op->parent, op->leaf, op->new_internal);
    std::uintptr_t expected = pack(op, State::kIFlag);
    op->parent->update.compare_exchange_strong(
        expected, pack(op, State::kClean), std::memory_order_acq_rel);
  }

  bool help_delete(Info* op) {
    // Try to mark the parent; succeed if we or a helper already did.
    std::uintptr_t expected = op->pupdate;
    const std::uintptr_t marked = pack(op, State::kMark);
    if (op->parent->update.compare_exchange_strong(
            expected, marked, std::memory_order_acq_rel)) {
      retire_info(op->pupdate);  // the word no longer names it
      help_marked(op);
      return true;
    }
    if (expected == marked) {
      help_marked(op);
      return true;
    }
    // Someone else owns the parent: help them, then back the DFLAG out.
    help(op->parent->update.load(std::memory_order_acquire));
    std::uintptr_t dflag = pack(op, State::kDFlag);
    op->grandparent->update.compare_exchange_strong(
        dflag, pack(op, State::kClean), std::memory_order_acq_rel);
    return false;
  }

  void help_marked(Info* op) {
    // The sibling of the deleted leaf replaces the parent.
    Node* l = op->parent->left.load(std::memory_order_acquire);
    Node* other = (l == op->leaf)
                      ? op->parent->right.load(std::memory_order_acquire)
                      : l;
    cas_child_for_delete(op->grandparent, op->parent, other, op->leaf);
    std::uintptr_t expected = pack(op, State::kDFlag);
    op->grandparent->update.compare_exchange_strong(
        expected, pack(op, State::kClean), std::memory_order_acq_rel);
  }

  // For deletion the side under the grandparent is determined by where the
  // parent currently hangs, not by key comparison (the sibling may route
  // anywhere relative to the grandparent's key).
  void cas_child_for_delete(Node* gp, Node* old_child, Node* new_child,
                            const Node* /*removed_leaf*/) {
    Node* expected = old_child;
    if (gp->left.load(std::memory_order_acquire) == old_child) {
      gp->left.compare_exchange_strong(expected, new_child,
                                       std::memory_order_acq_rel);
    } else {
      gp->right.compare_exchange_strong(expected, new_child,
                                        std::memory_order_acq_rel);
    }
  }

  /// In-order DFS over the leaves; fn returns false to stop early.
  /// Weakly consistent, like the lock-free iterators elsewhere.
  template <typename F>
  static bool visit_in_order(const Node* n, F&& fn) {
    if (n->is_leaf) {
      if (n->tag != SentTag::kNone) return true;  // skip sentinels
      return fn(n);
    }
    const Node* l = n->left.load(std::memory_order_acquire);
    const Node* r = n->right.load(std::memory_order_acquire);
    if (l != nullptr && !visit_in_order(l, fn)) return false;
    if (r != nullptr && !visit_in_order(r, fn)) return false;
    return true;
  }

  void destroy(Node* n) {
    if (n == nullptr) return;
    if (!n->is_leaf) {
      destroy(n->left.load(std::memory_order_relaxed));
      destroy(n->right.load(std::memory_order_relaxed));
      // Quiescent: the word is CLEAN and its record is named nowhere else.
      if (Info* info = info_of(n->update.load(std::memory_order_relaxed))) {
        reclaim::delete_counted(info);
      }
    }
    reclaim::delete_counted(n);
  }

  reclaim::EbrDomain* domain_;
  Compare comp_;
  Node* root_;
};

}  // namespace lot::baselines
