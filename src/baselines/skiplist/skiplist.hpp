// Lock-free skip list (Fraser / Harris lineage — the algorithm behind
// java.util.concurrent.ConcurrentSkipListMap, which the paper benchmarks
// as "Java's Skip List"). Marked next pointers carry the logical-deletion
// bit; find() physically snips marked nodes as it traverses. Memory is
// reclaimed through the shared EBR domain: a node is retired once both its
// inserter and its eraser are done with it (see Node::holds).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <optional>
#include <string_view>
#include <utility>

#include "reclaim/ebr.hpp"
#include "util/random.hpp"

namespace lot::baselines {

template <typename K, typename V, typename Compare = std::less<K>>
class SkipListMap {
 public:
  using key_type = K;
  using mapped_type = V;
  static constexpr int kMaxLevel = 20;

  explicit SkipListMap(reclaim::EbrDomain& domain =
                           reclaim::EbrDomain::global_domain(),
                       Compare comp = Compare())
      : domain_(&domain), comp_(std::move(comp)) {
    head_ = reclaim::make_counted<Node>(K{}, V{}, kMaxLevel, Sentinel::kHead);
    tail_ = reclaim::make_counted<Node>(K{}, V{}, kMaxLevel, Sentinel::kTail);
    for (int i = 0; i < kMaxLevel; ++i) {
      head_->next[i].store(pack(tail_, false), std::memory_order_relaxed);
    }
  }

  ~SkipListMap() {
    // Quiescent: the bottom level holds exactly the live nodes plus the
    // sentinels (unlinked nodes were retired to the domain).
    Node* node = head_;
    while (node != nullptr) {
      Node* next = node == tail_
                       ? nullptr
                       : unpack(node->next[0].load(std::memory_order_relaxed));
      reclaim::delete_counted(node);
      node = next;
    }
  }

  SkipListMap(const SkipListMap&) = delete;
  SkipListMap& operator=(const SkipListMap&) = delete;

  static std::string_view name() { return "lf-skiplist"; }

  bool insert(const K& k, const V& v) {
    auto g = domain_->guard();
    const int top = random_level();
    Node* preds[kMaxLevel];
    Node* succs[kMaxLevel];
    for (;;) {
      if (find(k, preds, succs)) return false;
      Node* nn = reclaim::make_counted<Node>(k, v, top, Sentinel::kNone);
      for (int i = 0; i < top; ++i) {
        nn->next[i].store(pack(succs[i], false), std::memory_order_relaxed);
      }
      std::uintptr_t expected = pack(succs[0], false);
      if (!preds[0]->next[0].compare_exchange_strong(
              expected, pack(nn, false), std::memory_order_acq_rel)) {
        reclaim::delete_counted(nn);  // never published
        continue;
      }
      // Link the upper levels; each level may need fresh preds/succs.
      bool abandoned = false;
      for (int i = 1; i < top && !abandoned; ++i) {
        for (;;) {
          if (nn->marked.load(std::memory_order_acquire)) {
            abandoned = true;  // a concurrent erase claimed the node
            break;
          }
          // Our node's forward pointer must still aim at succs[i].
          std::uintptr_t mine = nn->next[i].load(std::memory_order_acquire);
          if (is_marked(mine)) {
            abandoned = true;
            break;
          }
          if (unpack(mine) != succs[i]) {
            std::uintptr_t desired = pack(succs[i], false);
            if (!nn->next[i].compare_exchange_strong(
                    mine, desired, std::memory_order_acq_rel)) {
              abandoned = true;  // the level got marked under us
              break;
            }
          }
          std::uintptr_t exp = pack(succs[i], false);
          if (preds[i]->next[i].compare_exchange_strong(
                  exp, pack(nn, false), std::memory_order_acq_rel)) {
            break;
          }
          find(k, preds, succs);  // recompute the neighbourhood
          if (succs[0] != nn) {
            abandoned = true;
            break;
          }
        }
      }
      // If an erase claimed the node while we were still linking, a level
      // we linked *after* the eraser's cleanup find() would stay reachable.
      // One more find() here snips every marked level we may have
      // published; only then may the node be retired.
      if (nn->marked.load(std::memory_order_acquire)) {
        find(k, preds, succs);
      }
      release(nn);
      return true;
    }
  }

  bool erase(const K& k) {
    auto g = domain_->guard();
    Node* preds[kMaxLevel];
    Node* succs[kMaxLevel];
    if (!find(k, preds, succs)) return false;
    Node* victim = succs[0];
    // Claim the node: only one eraser wins the marked flag.
    bool expected = false;
    if (!victim->marked.compare_exchange_strong(expected, true,
                                                std::memory_order_acq_rel)) {
      return false;
    }
    mark_levels(victim);
    find(k, preds, succs);  // physically unlink
    release(victim);
    return true;
  }

  bool contains(const K& k) const {
    auto g = domain_->guard();
    // Wait-free style traversal: no snipping, just skip marked nodes.
    Node* pred = head_;
    for (int i = kMaxLevel - 1; i >= 0; --i) {
      Node* curr = unpack(pred->next[i].load(std::memory_order_acquire));
      for (;;) {
        std::uintptr_t nxt = curr->next[i].load(std::memory_order_acquire);
        while (is_marked(nxt)) {  // marked: skip over
          curr = unpack(nxt);
          nxt = curr->next[i].load(std::memory_order_acquire);
        }
        if (node_less(curr, k)) {
          pred = curr;
          curr = unpack(nxt);
        } else {
          break;
        }
      }
      if (!node_greater(curr, k)) {
        return !curr->marked.load(std::memory_order_acquire);
      }
    }
    return false;
  }

  std::optional<V> get(const K& k) const {
    auto g = domain_->guard();
    Node* pred = head_;
    Node* curr = nullptr;
    for (int i = kMaxLevel - 1; i >= 0; --i) {
      curr = unpack(pred->next[i].load(std::memory_order_acquire));
      for (;;) {
        std::uintptr_t nxt = curr->next[i].load(std::memory_order_acquire);
        while (is_marked(nxt)) {
          curr = unpack(nxt);
          nxt = curr->next[i].load(std::memory_order_acquire);
        }
        if (node_less(curr, k)) {
          pred = curr;
          curr = unpack(nxt);
        } else {
          break;
        }
      }
      if (!node_greater(curr, k) &&
          !curr->marked.load(std::memory_order_acquire)) {
        return curr->value;
      }
    }
    return std::nullopt;
  }

  std::optional<std::pair<K, V>> min() const {
    auto g = domain_->guard();
    Node* node = unpack(head_->next[0].load(std::memory_order_acquire));
    while (node != tail_) {
      if (!node->marked.load(std::memory_order_acquire)) {
        return std::make_pair(node->key, node->value);
      }
      node = unpack(node->next[0].load(std::memory_order_acquire));
    }
    return std::nullopt;
  }

  std::optional<std::pair<K, V>> max() const {
    // No back pointers: descend right-most. O(log n) expected.
    auto g = domain_->guard();
    std::optional<std::pair<K, V>> best;
    Node* node = unpack(head_->next[0].load(std::memory_order_acquire));
    while (node != tail_) {
      if (!node->marked.load(std::memory_order_acquire)) {
        best = std::make_pair(node->key, node->value);
      }
      node = unpack(node->next[0].load(std::memory_order_acquire));
    }
    return best;
  }

  template <typename F>
  void for_each(F&& fn) const {
    auto g = domain_->guard();
    Node* node = unpack(head_->next[0].load(std::memory_order_acquire));
    while (node != tail_) {
      if (!node->marked.load(std::memory_order_acquire)) {
        fn(node->key, node->value);
      }
      node = unpack(node->next[0].load(std::memory_order_acquire));
    }
  }

  /// Lock-free ordered scan over [lo, hi): one tower descent to the first
  /// bottom-level node >= lo, then a bottom-level walk — O(log n +
  /// |range|), the same asymptotics as the trees' range. Weakly consistent
  /// per key, like contains: every reported key was present at some
  /// instant during the walk, no atomic snapshot of the range.
  template <typename F>
  void range(const K& lo, const K& hi, F&& fn) const {
    if (!comp_(lo, hi)) return;
    auto g = domain_->guard();
    Node* node = first_not_less(lo);
    while (node->sentinel != Sentinel::kTail && comp_(node->key, hi)) {
      if (!node->marked.load(std::memory_order_acquire) &&
          !comp_(node->key, lo)) {
        fn(node->key, node->value);
      }
      node = unpack(node->next[0].load(std::memory_order_acquire));
    }
  }

  /// Smallest present key in [lo, hi): the descent plus as many bottom
  /// hops as there are marked nodes at the range's start.
  std::optional<std::pair<K, V>> first_in_range(const K& lo,
                                                const K& hi) const {
    if (!comp_(lo, hi)) return std::nullopt;
    auto g = domain_->guard();
    Node* node = first_not_less(lo);
    while (node->sentinel != Sentinel::kTail && comp_(node->key, hi)) {
      if (!node->marked.load(std::memory_order_acquire) &&
          !comp_(node->key, lo)) {
        return std::make_pair(node->key, node->value);
      }
      node = unpack(node->next[0].load(std::memory_order_acquire));
    }
    return std::nullopt;
  }

  /// Largest present key in [lo, hi). The list has no back pointers, so
  /// this walks the whole range keeping the last hit — O(log n + |range|),
  /// unlike the trees' O(log n + skipped) pred-walk.
  std::optional<std::pair<K, V>> last_in_range(const K& lo,
                                               const K& hi) const {
    std::optional<std::pair<K, V>> best;
    range(lo, hi, [&best](const K& k, const V& v) {
      best = std::make_pair(k, v);
    });
    return best;
  }

  std::size_t size_slow() const {
    std::size_t n = 0;
    for_each([&n](const K&, const V&) { ++n; });
    return n;
  }

  bool empty() const { return size_slow() == 0; }

 private:
  enum class Sentinel : std::int8_t { kNone, kHead, kTail };

  struct Node {
    const K key;
    V value;
    const int top_level;
    const Sentinel sentinel;
    std::atomic<bool> marked{false};
    // One hold for the inserter, dropped once it links no more levels, and
    // one for the eraser, dropped after its unlinking find(). Retiring on
    // the eraser's drop alone is not safe: the inserter may still link an
    // upper level after that find(), so a reader could reach the node after
    // it was retired and hold it past the grace period.
    std::atomic<int> holds{2};
    std::atomic<std::uintptr_t> next[kMaxLevel];

    Node(K k, V v, int top, Sentinel s)
        : key(std::move(k)), value(std::move(v)), top_level(top),
          sentinel(s) {
      for (auto& p : next) p.store(0, std::memory_order_relaxed);
    }
  };

  /// Marks every level's next pointer of a claimed node, top down.
  static void mark_levels(Node* n) {
    for (int i = n->top_level - 1; i >= 0; --i) {
      std::uintptr_t next = n->next[i].load(std::memory_order_acquire);
      while (!is_marked(next)) {
        n->next[i].compare_exchange_weak(next, mark(next),
                                         std::memory_order_acq_rel);
      }
    }
  }

  /// Drops one of the node's two holds; the last one retires it.
  void release(Node* n) {
    if (n->holds.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      domain_->retire(n);
    }
  }

  static std::uintptr_t pack(Node* p, bool marked_bit) {
    return reinterpret_cast<std::uintptr_t>(p) |
           static_cast<std::uintptr_t>(marked_bit);
  }
  static Node* unpack(std::uintptr_t v) {
    return reinterpret_cast<Node*>(v & ~std::uintptr_t{1});
  }
  static bool is_marked(std::uintptr_t v) { return (v & 1) != 0; }
  static std::uintptr_t mark(std::uintptr_t v) { return v | 1; }

  bool node_less(const Node* n, const K& k) const {
    if (n->sentinel == Sentinel::kHead) return true;
    if (n->sentinel == Sentinel::kTail) return false;
    return comp_(n->key, k);
  }
  bool node_greater(const Node* n, const K& k) const {
    if (n->sentinel == Sentinel::kHead) return true;  // never matches
    if (n->sentinel == Sentinel::kTail) return true;
    return comp_(k, n->key);
  }

  int random_level() const {
    thread_local util::Xoshiro256 rng(
        0x9E3779B97F4A7C15ULL ^
        reinterpret_cast<std::uintptr_t>(&rng));
    const std::uint64_t r = rng.next();
    int level = 1;
    while ((r >> level) & 1 && level < kMaxLevel) ++level;
    return level;
  }

  /// Read-only tower descent (the contains() traversal, kept as a helper
  /// for the range scans): returns the first bottom-level node with key
  /// >= k — possibly marked, possibly the tail sentinel — skipping over
  /// marked nodes without snipping them.
  Node* first_not_less(const K& k) const {
    Node* pred = head_;
    Node* curr = nullptr;
    for (int i = kMaxLevel - 1; i >= 0; --i) {
      curr = unpack(pred->next[i].load(std::memory_order_acquire));
      for (;;) {
        std::uintptr_t nxt = curr->next[i].load(std::memory_order_acquire);
        while (is_marked(nxt)) {
          curr = unpack(nxt);
          nxt = curr->next[i].load(std::memory_order_acquire);
        }
        if (node_less(curr, k)) {
          pred = curr;
          curr = unpack(nxt);
        } else {
          break;
        }
      }
    }
    return curr;
  }

  /// Harris find: locates the window (preds[i], succs[i]) at each level,
  /// physically unlinking any marked nodes it passes. Returns true iff an
  /// unmarked node with the key sits at the bottom level.
  bool find(const K& k, Node** preds, Node** succs) {
    for (;;) {
      Node* pred = head_;
      for (int i = kMaxLevel - 1; i >= 0; --i) {
        std::uintptr_t curr_w = pred->next[i].load(std::memory_order_acquire);
        Node* curr = unpack(curr_w);
        for (;;) {
          std::uintptr_t succ_w =
              curr->next[i].load(std::memory_order_acquire);
          while (is_marked(succ_w)) {
            // Snip the marked node out of this level.
            std::uintptr_t expected = pack(curr, false);
            if (!pred->next[i].compare_exchange_strong(
                    expected, pack(unpack(succ_w), false),
                    std::memory_order_acq_rel)) {
              goto retry;  // window changed under us
            }
            curr = unpack(succ_w);
            succ_w = curr->next[i].load(std::memory_order_acquire);
          }
          if (node_less(curr, k)) {
            pred = curr;
            curr = unpack(succ_w);
          } else {
            break;
          }
        }
        preds[i] = pred;
        succs[i] = curr;
      }
      {
        Node* hit = succs[0];
        if (hit->sentinel != Sentinel::kNone || node_greater(hit, k)) {
          return false;
        }
        if (!hit->marked.load(std::memory_order_acquire)) return true;
        // Claimed by an eraser that has not marked every level yet. A new
        // node with the same key must not be linked in front of it: the
        // eraser's find() would stop at the newcomer and leave the claimed
        // node linked after its retirement. Finish the marking and look
        // again, which snips it.
        mark_levels(hit);
      }
    retry:;
    }
  }

  reclaim::EbrDomain* domain_;
  Compare comp_;
  Node* head_;
  Node* tail_;
};

}  // namespace lot::baselines
