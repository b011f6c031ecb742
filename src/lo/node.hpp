// Node layout for the logical-ordering trees (paper Figure 3).
//
// Every node participates in two layouts:
//   * the physical tree layout: parent / left / right (+ subtree heights
//     for the AVL variant), protected by tree_lock;
//   * the logical ordering layout: pred / succ, a doubly linked list in
//     key order delimited by the -inf / +inf sentinels, protected by
//     succ_lock (node N's succ_lock guards the interval (N, succ(N)):
//     N's succ field and succ(N)'s pred field).
//
// Fields read by lock-free operations (search, contains, get, ordered
// iteration) are std::atomic and accessed with acquire/release; fields
// only ever touched under their lock (the heights) are relaxed atomics so
// that an accidental unlocked read is at worst stale, never UB.
//
// Layout is cache-conscious (DESIGN.md §10): the node is cacheline-aligned
// with the logical ordering layout — key, tag, mark, succ_version, pred,
// succ, value (plus `deleted` in the logical-removing layout) and the MVCC
// stamps — grouped on the first line, and the tree layout — left, right,
// parent, the heights (packed to int16_t; AVL heights fit trivially) and
// both spinlocks — on the second. The ordering walk (the tail of every
// lookup, and ordered iteration) touches one line per node, and writers
// bouncing tree_lock/succ_lock never invalidate the line it traverses.
// The descent (Algorithm 1's search) is not one line per node: at every
// level it compares `key` on the first line and follows `left`/`right` on
// the second. Moving the child links onto the first line was measured and
// did not pay (DESIGN.md §10). Static asserts below pin the contract.
//
// Two layouts, one per removal policy (lo/core.hpp): `Node` for on-time
// removal (plain immutable value, no deleted flag) and `PartialNode` for
// the logical-removing variant, which owns the `deleted` flag and stores
// the value in an atomic slot because revive-in-place races with lock-free
// gets.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <utility>

#include "sync/cacheline.hpp"
#include "sync/spinlock.hpp"

namespace lot::lo {

namespace mvcc {
// lo/mvcc.hpp; the node only stores a pointer, so the forward
// declaration keeps this header free of the MVCC machinery.
template <typename V>
struct PastVersion;
}  // namespace mvcc

/// Sentinel tag. Sentinels compare below/above every normal key so that K
/// itself needs no infinity values (paper §3.1 adds -inf/+inf to the set).
enum class Tag : std::int8_t { kNegInf = -1, kNormal = 0, kPosInf = 1 };

template <typename K, typename V>
struct alignas(sync::kCacheLineSize) Node {
  using Self = Node<K, V>;

  // ---- hot line: key + the logical ordering layout ----
  const K key;
  const Tag tag;

  /// True once the node is removed from the logical ordering. Shared
  /// meaning with the interval (node, succ(node)) being merged away.
  std::atomic<bool> mark{false};

  /// Relink stamp for the succ link: bumped under succ_lock on every store
  /// to `succ` (insert link, chain unlink). Writers capture (version, succ)
  /// before locking; a version match under the lock proves the captured
  /// succ is still current, and a mismatch resumes the ordering walk from
  /// the capture instead of re-descending from the root. Lives on the hot
  /// line because the capture rides the same ordering walk as readers.
  std::atomic<std::uint32_t> succ_version{0};

  // ---- logical ordering layout (written under succ_lock) ----
  std::atomic<Self*> pred{nullptr};
  std::atomic<Self*> succ{nullptr};

  V value;

  /// MVCC incarnation stamps (lo/mvcc.hpp, DESIGN.md §16): the epochs
  /// this node's key became present (vbirth) and absent (vdeath).
  /// 0 == mvcc::kUnstamped / mvcc::kAlive (the header is not included
  /// here; lo/core.hpp static_asserts the equality). On the hot line
  /// because snapshot scans resolve them during the same chain walk
  /// readers already take; live point reads never touch them. Mutated
  /// only by the single writer holding the node's interval lock, plus
  /// the help-finalize CAS readers are allowed (see mvcc.hpp).
  std::atomic<std::uint64_t> vbirth{0};
  std::atomic<std::uint64_t> vdeath{0};

  // ---- cold line: physical tree layout (tree_lock; the descent reads
  // left/right) + both locks ----
  alignas(sync::kCacheLineSize) std::atomic<Self*> left{nullptr};
  std::atomic<Self*> right{nullptr};
  std::atomic<Self*> parent{nullptr};
  std::atomic<std::int16_t> left_height{0};
  std::atomic<std::int16_t> right_height{0};
  sync::SpinLock tree_lock;
  sync::SpinLock succ_lock;

  Node(K k, V v, Tag t = Tag::kNormal)
      : key(std::move(k)), tag(t), value(std::move(v)) {}

  bool is_sentinel() const { return tag != Tag::kNormal; }

  std::int32_t height_of_subtrees() const {
    const std::int32_t lh = left_height.load(std::memory_order_relaxed);
    const std::int32_t rh = right_height.load(std::memory_order_relaxed);
    return lh > rh ? lh : rh;
  }

  std::int32_t balance_factor() const {
    return left_height.load(std::memory_order_relaxed) -
           right_height.load(std::memory_order_relaxed);
  }
};

/// Node layout owned by the LogicalRemoving policy (lo/core.hpp, paper
/// §6): adds the `deleted` flag — the node is logically absent but still
/// present in both layouts ("zombie") — and stores the value in an atomic
/// slot, because revive-in-place (insert over a zombie) writes the value
/// while lock-free gets read it. The atomic slot is why the partial
/// variant requires trivially-copyable V.
template <typename K, typename V>
struct alignas(sync::kCacheLineSize) PartialNode {
  using Self = PartialNode<K, V>;

  // ---- hot line: key + the logical ordering layout ----
  const K key;
  const Tag tag;

  /// True once the node is removed from the logical ordering.
  std::atomic<bool> mark{false};

  /// Owned by the LogicalRemoving policy: logically absent, physically
  /// present in both layouts. Cleared by revive-in-place.
  std::atomic<bool> deleted{false};

  /// Relink stamp for the succ link; see Node::succ_version.
  std::atomic<std::uint32_t> succ_version{0};

  std::atomic<Self*> pred{nullptr};
  std::atomic<Self*> succ{nullptr};

  /// Atomic so revive's store can race with lock-free value reads.
  std::atomic<V> value;

  /// MVCC incarnation stamps; see Node::vbirth / Node::vdeath.
  std::atomic<std::uint64_t> vbirth{0};
  std::atomic<std::uint64_t> vdeath{0};

  /// Head of the past-incarnation chain (mvcc::PastVersion): only
  /// revive-in-place appends (the outgoing incarnation is folded into a
  /// record), so the on-time layout above carries no chain at all.
  std::atomic<mvcc::PastVersion<V>*> vhead{nullptr};

  // ---- cold line: physical tree layout (tree_lock; the descent reads
  // left/right) + both locks ----
  alignas(sync::kCacheLineSize) std::atomic<Self*> left{nullptr};
  std::atomic<Self*> right{nullptr};
  std::atomic<Self*> parent{nullptr};
  std::atomic<std::int16_t> left_height{0};
  std::atomic<std::int16_t> right_height{0};
  sync::SpinLock tree_lock;
  sync::SpinLock succ_lock;

  PartialNode(K k, V v, Tag t = Tag::kNormal)
      : key(std::move(k)), tag(t), value(std::move(v)) {}

  bool is_sentinel() const { return tag != Tag::kNormal; }

  std::int32_t height_of_subtrees() const {
    const std::int32_t lh = left_height.load(std::memory_order_relaxed);
    const std::int32_t rh = right_height.load(std::memory_order_relaxed);
    return lh > rh ? lh : rh;
  }

  std::int32_t balance_factor() const {
    return left_height.load(std::memory_order_relaxed) -
           right_height.load(std::memory_order_relaxed);
  }
};

// Layout guards, checked on the benchmark instantiation. offsetof on a
// non-standard-layout type is conditionally-supported; GCC and Clang both
// define it for this class shape, so silence their pedantic warning rather
// than lose the guard. A future field added in the wrong place fails the
// build here instead of silently re-splitting the hot line.
namespace detail {
using ProbeNode = Node<std::int64_t, std::int64_t>;
#if defined(__GNUC__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Winvalid-offsetof"
#endif
static_assert(alignof(ProbeNode) == sync::kCacheLineSize,
              "node must start on a cache line");
static_assert(sizeof(ProbeNode) == 2 * sync::kCacheLineSize,
              "node is one hot line + one cold line");
static_assert(offsetof(ProbeNode, key) < sync::kCacheLineSize &&
                  offsetof(ProbeNode, tag) < sync::kCacheLineSize &&
                  offsetof(ProbeNode, mark) < sync::kCacheLineSize &&
                  offsetof(ProbeNode, succ_version) + sizeof(std::uint32_t) <=
                      sync::kCacheLineSize &&
                  offsetof(ProbeNode, pred) + sizeof(void*) <=
                      sync::kCacheLineSize &&
                  offsetof(ProbeNode, succ) + sizeof(void*) <=
                      sync::kCacheLineSize &&
                  offsetof(ProbeNode, value) + sizeof(std::int64_t) <=
                      sync::kCacheLineSize,
              "the ordering walk must fit in the first cache line");
static_assert(offsetof(ProbeNode, vdeath) + sizeof(std::uint64_t) <=
                  sync::kCacheLineSize,
              "MVCC stamps must ride the hot line");
static_assert(offsetof(ProbeNode, left) == sync::kCacheLineSize &&
                  offsetof(ProbeNode, tree_lock) >= sync::kCacheLineSize &&
                  offsetof(ProbeNode, succ_lock) >= sync::kCacheLineSize,
              "tree fields and locks belong on the cold line");

// Same contract for the logical-removing layout: the extra `deleted` flag
// and the atomic value slot must not push the read path off the hot line.
using ProbePartialNode = PartialNode<std::int64_t, std::int64_t>;
static_assert(alignof(ProbePartialNode) == sync::kCacheLineSize,
              "partial node must start on a cache line");
static_assert(sizeof(ProbePartialNode) == 2 * sync::kCacheLineSize,
              "partial node is one hot line + one cold line");
static_assert(offsetof(ProbePartialNode, key) < sync::kCacheLineSize &&
                  offsetof(ProbePartialNode, tag) < sync::kCacheLineSize &&
                  offsetof(ProbePartialNode, mark) < sync::kCacheLineSize &&
                  offsetof(ProbePartialNode, deleted) < sync::kCacheLineSize &&
                  offsetof(ProbePartialNode, succ_version) +
                          sizeof(std::uint32_t) <=
                      sync::kCacheLineSize &&
                  offsetof(ProbePartialNode, pred) + sizeof(void*) <=
                      sync::kCacheLineSize &&
                  offsetof(ProbePartialNode, succ) + sizeof(void*) <=
                      sync::kCacheLineSize &&
                  offsetof(ProbePartialNode, value) + sizeof(std::int64_t) <=
                      sync::kCacheLineSize,
              "the ordering walk must fit in the first cache line");
static_assert(offsetof(ProbePartialNode, vdeath) + sizeof(std::uint64_t) <=
                  sync::kCacheLineSize &&
                  offsetof(ProbePartialNode, vhead) + sizeof(void*) <=
                      sync::kCacheLineSize,
              "MVCC stamps and the chain head must ride the hot line");
static_assert(offsetof(ProbePartialNode, left) == sync::kCacheLineSize &&
                  offsetof(ProbePartialNode, tree_lock) >=
                      sync::kCacheLineSize &&
                  offsetof(ProbePartialNode, succ_lock) >=
                      sync::kCacheLineSize,
              "tree fields and locks belong on the cold line");
#if defined(__GNUC__)
#pragma GCC diagnostic pop
#endif
}  // namespace detail

}  // namespace lot::lo
