// Non-blocking *internal* binary search tree of Howley & Jones
// (SPAA 2012). Discussed in the paper's §2/§7 as the other lock-free
// internal-tree design: where the logical-ordering tree physically
// relocates the successor node on a two-children removal, this tree
// *copies the successor's key into the removed node* (a Relocate
// operation) and then removes the successor — the exact strategy the
// paper contrasts against.
//
// Coordination: every node carries an `op` word (operation-record pointer
// + 2 flag bits: NONE / MARK / CHILDCAS / RELOCATE). Child pointers change
// only through a ChildCAS record published on the parent's op word;
// key replacement goes through a Relocate record published on both the
// successor and the destination. Any thread that runs into a flagged node
// helps the pending operation, giving lock-freedom.
//
// Adaptations for C++ (the original is a GC'd Java set):
//  * the mutable (key, value) pair lives behind one atomic pointer to an
//    immutable Payload, so readers always see a consistent pair with a
//    single load and the relocation's key swap is one idempotent CAS;
//  * operation records and relocation-displaced payloads are reclaimed
//    through EBR (retired by the unique thread that completed the step);
//  * a finished operation leaves a fresh *clean stamp* in the op word —
//    the previous clean stamp plus one step, flag NONE — where the
//    original leaves FLAG(record, NONE). The op word is the expected value
//    of the next CAS on the node, so it must never repeat; with records
//    reclaimed, FLAG(record, NONE) would repeat as soon as a new record
//    reused a freed address, and a stalled insert or removal would then
//    commit on a stale view (an insert reported as done but never linked).
//    Stamps grow by one step per operation on the node, so they never
//    repeat. Once an operation is done only the terminal MARK of a
//    relocated successor still names its record, and MARK words are never
//    dereferenced;
//  * an empty child slot is not always null: a splice that empties a slot
//    writes an *empty mark* naming the spliced node (its address with the
//    low bit set). In the original every empty slot is null, so a slot
//    returns to a value it held before once an inserted node is spliced
//    again. A helper of the insert's ChildCAS that stalled before its
//    child CAS then re-links the spliced node, and an insert that read the
//    slot as null before that commits its ChildCAS, whose child CAS then
//    fails — the insert is reported done but never linked. Nodes are
//    spliced once, so empty marks never repeat within a slot;
//  * NODES are only reclaimed when the tree is destroyed (an intrusive
//    allocation list), which is what keeps empty marks and node pointers
//    unique for the tree's lifetime. Memory then grows with the number of
//    removals over the tree's lifetime — which is itself an instructive
//    data point for the paper's reclamation story.
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
class HjTreeMap {
 public:
  using key_type = K;
  using mapped_type = V;

  explicit HjTreeMap(reclaim::EbrDomain& domain =
                         reclaim::EbrDomain::global_domain(),
                     Compare comp = Compare())
      : domain_(&domain), comp_(std::move(comp)) {
    auto* p = reclaim::make_counted<Payload>(K{}, V{}, /*neg_inf=*/true);
    root_ = make_tracked_node(p);
  }

  ~HjTreeMap() {
    // Every node ever allocated (live, spliced, resurrected, or never
    // published) sits on the allocation list; each owns its current
    // payload (displaced payloads were EBR-retired at swap time).
    Node* n = alloc_head_.load(std::memory_order_relaxed);
    while (n != nullptr) {
      Node* next = n->next_alloc;
      reclaim::delete_counted(
          const_cast<Payload*>(n->payload.load(std::memory_order_relaxed)));
      reclaim::delete_counted(n);
      n = next;
    }
  }

  HjTreeMap(const HjTreeMap&) = delete;
  HjTreeMap& operator=(const HjTreeMap&) = delete;

  static std::string_view name() { return "howley-jones-internal"; }

  bool contains(const K& k) const {
    auto g = domain_->guard();
    SearchResult sr;
    return const_cast<HjTreeMap*>(this)->find(k, root_, sr) ==
           FindResult::kFound;
  }

  std::optional<V> get(const K& k) const {
    auto g = domain_->guard();
    SearchResult sr;
    if (const_cast<HjTreeMap*>(this)->find(k, root_, sr) !=
        FindResult::kFound) {
      return std::nullopt;
    }
    // One load; the payload is immutable, so the pair is consistent. The
    // payload may be about to be replaced by a relocation, in which case
    // this read linearizes just before the relocation's key swap.
    const Payload* p = sr.curr->payload.load(std::memory_order_acquire);
    if (!key_eq(p, k)) return std::nullopt;  // relocated away: miss
    return p->value;
  }

  bool insert(const K& k, const V& v) {
    auto g = domain_->guard();
    for (;;) {
      SearchResult sr;
      const FindResult res = find(k, root_, sr);
      if (res == FindResult::kFound) return false;
      const bool is_left = (res == FindResult::kNotFoundLeft);
      Node* old = is_left ? sr.curr->left.load(std::memory_order_acquire)
                          : sr.curr->right.load(std::memory_order_acquire);
      if (!is_empty(old)) continue;  // filled since find; look again
      auto* payload = reclaim::make_counted<Payload>(k, v, false);
      Node* nn = make_tracked_node(payload);
      auto* cas_op = reclaim::make_counted<ChildCasOp>();
      cas_op->is_left = is_left;
      cas_op->expected = old;
      cas_op->update = nn;
      cas_op->done = next_clean(sr.curr_op);
      std::uintptr_t expected = sr.curr_op;
      if (sr.curr->op.compare_exchange_strong(
              expected, flag(cas_op, kChildCas),
              std::memory_order_acq_rel)) {
        help_child_cas(cas_op, sr.curr);
        domain_->retire(cas_op);  // unique publisher retires the record
        return true;
      }
      // nn (and its payload) stay on the allocation list and are freed at
      // destruction; records were never published and can go now.
      reclaim::delete_counted(cas_op);
    }
  }

  bool erase(const K& k) {
    auto g = domain_->guard();
    for (;;) {
      SearchResult sr;
      if (find(k, root_, sr) != FindResult::kFound) return false;
      Node* curr = sr.curr;
      Node* right = curr->right.load(std::memory_order_acquire);
      Node* left = curr->left.load(std::memory_order_acquire);
      if (is_empty(right) || is_empty(left)) {
        // At most one child: mark, then splice out.
        std::uintptr_t expected = sr.curr_op;
        if (curr->op.compare_exchange_strong(expected,
                                             flag(nullptr, kMark),
                                             std::memory_order_acq_rel)) {
          help_marked(sr.pred, sr.pred_op, curr);
          return true;
        }
        continue;  // op word changed; retry the whole operation
      }
      // Two children: relocate the successor's payload into curr, then
      // remove the successor (the key-copy strategy, §2 of the paper).
      SearchResult ssr;
      const FindResult sres = find(k, curr, ssr);
      if (sres == FindResult::kAbort ||
          curr->op.load(std::memory_order_acquire) != sr.curr_op) {
        continue;  // curr was touched; retry
      }
      Node* replace = ssr.curr;
      const Payload* old_payload =
          curr->payload.load(std::memory_order_acquire);
      const Payload* repl_payload =
          replace->payload.load(std::memory_order_acquire);
      auto* op = reclaim::make_counted<RelocateOp>();
      op->dest = curr;
      op->dest_op = sr.curr_op;
      op->dest_done = next_clean(sr.curr_op);
      op->succ_done = next_clean(ssr.curr_op);
      op->old_payload = old_payload;
      op->new_payload = reclaim::make_counted<Payload>(
          repl_payload->key, repl_payload->value, false);
      std::uintptr_t expected = ssr.curr_op;
      if (replace->op.compare_exchange_strong(
              expected, flag(op, kRelocate), std::memory_order_acq_rel)) {
        const bool ok = help_relocate(op, ssr.pred, ssr.pred_op, replace);
        domain_->retire(op);  // unique publisher retires the record
        if (ok) return true;
        reclaim::delete_counted(const_cast<Payload*>(op->new_payload));
        continue;
      }
      reclaim::delete_counted(const_cast<Payload*>(op->new_payload));
      reclaim::delete_counted(op);
    }
  }

  std::optional<std::pair<K, V>> min() const {
    auto g = domain_->guard();
    std::optional<std::pair<K, V>> out;
    visit_until(root_->right.load(std::memory_order_acquire), true, out);
    return out;
  }

  std::optional<std::pair<K, V>> max() const {
    auto g = domain_->guard();
    std::optional<std::pair<K, V>> out;
    visit_until(root_->right.load(std::memory_order_acquire), false, out);
    return out;
  }

  template <typename F>
  void for_each(F&& fn) const {
    auto g = domain_->guard();
    visit(root_->right.load(std::memory_order_acquire), fn);
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

  /// Diagnostic raw walk: fn(key, op_flag, is_sentinel) in-order over the
  /// physical tree, marked nodes included. For tests and debugging only.
  template <typename F>
  void debug_visit_raw(F&& fn) const {
    auto g = domain_->guard();
    const std::function<void(const Node*)> rec = [&](const Node* n) {
      if (is_empty(n)) return;
      rec(n->left.load(std::memory_order_acquire));
      const Payload* p = n->payload.load(std::memory_order_acquire);
      fn(p->key, flag_of(n->op.load(std::memory_order_acquire)),
         p->neg_inf);
      rec(n->right.load(std::memory_order_acquire));
    };
    rec(root_);
  }

  bool empty() const { return size_slow() == 0; }

 private:
  // ---- data -----------------------------------------------------------

  struct Payload {
    const K key;
    const V value;
    const bool neg_inf;  // the root sentinel sorts below everything
    Payload(K k, V v, bool ni)
        : key(std::move(k)), value(std::move(v)), neg_inf(ni) {}
  };

  struct Node {
    std::atomic<const Payload*> payload;
    std::atomic<std::uintptr_t> op{0};  // record pointer | flag, or clean stamp
    std::atomic<Node*> left{nullptr};
    std::atomic<Node*> right{nullptr};
    Node* next_alloc = nullptr;  // intrusive allocation list (destructor)
    explicit Node(const Payload* p) : payload(p) {}
  };

  struct ChildCasOp {
    bool is_left = false;
    Node* expected = nullptr;
    Node* update = nullptr;
    std::uintptr_t done = 0;  // the node's clean stamp once finished
  };

  struct RelocateOp {
    enum State : int { kOngoing = 0, kSuccessful = 1, kFailed = 2 };
    std::atomic<int> state{kOngoing};
    Node* dest = nullptr;
    std::uintptr_t dest_op = 0;
    std::uintptr_t dest_done = 0;  // dest's clean stamp once finished
    std::uintptr_t succ_done = 0;  // the successor's, if the op fails
    const Payload* old_payload = nullptr;
    const Payload* new_payload = nullptr;
  };

  static constexpr std::uintptr_t kNone = 0;
  static constexpr std::uintptr_t kMark = 1;
  static constexpr std::uintptr_t kChildCas = 2;
  static constexpr std::uintptr_t kRelocate = 3;

  static std::uintptr_t flag(const void* p, std::uintptr_t f) {
    return reinterpret_cast<std::uintptr_t>(p) | f;
  }
  static std::uintptr_t flag_of(std::uintptr_t w) { return w & 3; }
  /// The clean stamp that follows `clean` once an operation published over
  /// it finishes (see the header comment).
  static std::uintptr_t next_clean(std::uintptr_t clean) { return clean + 4; }
  template <typename T>
  static T* ptr_of(std::uintptr_t w) {
    return reinterpret_cast<T*>(w & ~std::uintptr_t{3});
  }

  /// Child-slot values: null (never filled), a node, or an empty mark.
  static bool is_empty(const Node* n) {
    return n == nullptr || (reinterpret_cast<std::uintptr_t>(n) & 1) != 0;
  }
  static Node* empty_mark(const Node* spliced) {
    return reinterpret_cast<Node*>(reinterpret_cast<std::uintptr_t>(spliced) |
                                   1);
  }

  enum class FindResult { kFound, kNotFoundLeft, kNotFoundRight, kAbort };

  struct SearchResult {
    Node* pred = nullptr;
    std::uintptr_t pred_op = 0;
    Node* curr = nullptr;
    std::uintptr_t curr_op = 0;
  };

  // ---- comparisons (payload-indirected, sentinel-aware) ----------------

  // negative: node < k; 0: equal; positive: node > k.
  int cmp_payload(const Payload* p, const K& k) const {
    if (p->neg_inf) return -1;
    if (comp_(p->key, k)) return -1;
    if (comp_(k, p->key)) return 1;
    return 0;
  }
  bool key_eq(const Payload* p, const K& k) const {
    return !p->neg_inf && !comp_(p->key, k) && !comp_(k, p->key);
  }

  // ---- the find routine -------------------------------------------------

  /// Howley-Jones find. Starting below `aux_root` (everything hangs off
  /// its right pointer), locates k. Helps and restarts on any flagged
  /// node. kAbort only when aux_root != root_ and aux_root itself is busy
  /// (used by the successor search inside erase).
  FindResult find(const K& k, Node* aux_root, SearchResult& sr) {
  retry:
    FindResult result = FindResult::kNotFoundRight;
    sr.curr = aux_root;
    sr.curr_op = sr.curr->op.load(std::memory_order_acquire);
    if (flag_of(sr.curr_op) != kNone) {
      if (aux_root == root_) {
        help_child_cas(ptr_of<ChildCasOp>(sr.curr_op), sr.curr);
        goto retry;
      }
      return FindResult::kAbort;
    }
    {
      Node* last_right = sr.curr;
      std::uintptr_t last_right_op = sr.curr_op;
      Node* next = sr.curr->right.load(std::memory_order_acquire);
      while (!is_empty(next)) {
        sr.pred = sr.curr;
        sr.pred_op = sr.curr_op;
        sr.curr = next;
        sr.curr_op = sr.curr->op.load(std::memory_order_acquire);
        if (flag_of(sr.curr_op) != kNone) {
          help(sr.pred, sr.pred_op, sr.curr, sr.curr_op);
          goto retry;
        }
        const Payload* p = sr.curr->payload.load(std::memory_order_acquire);
        const int c = cmp_payload(p, k);
        if (c > 0) {
          result = FindResult::kNotFoundLeft;
          next = sr.curr->left.load(std::memory_order_acquire);
        } else if (c < 0) {
          result = FindResult::kNotFoundRight;
          next = sr.curr->right.load(std::memory_order_acquire);
          last_right = sr.curr;
          last_right_op = sr.curr_op;
        } else {
          result = FindResult::kFound;
          break;
        }
      }
      if (result != FindResult::kFound &&
          last_right->op.load(std::memory_order_acquire) != last_right_op) {
        goto retry;  // a relocation may have moved k past our turn point
      }
      if (sr.curr->op.load(std::memory_order_acquire) != sr.curr_op) {
        goto retry;
      }
    }
    return result;
  }

  // ---- helping ----------------------------------------------------------

  void help(Node* pred, std::uintptr_t pred_op, Node* curr,
            std::uintptr_t curr_op) {
    switch (flag_of(curr_op)) {
      case kChildCas:
        help_child_cas(ptr_of<ChildCasOp>(curr_op), curr);
        break;
      case kRelocate:
        help_relocate(ptr_of<RelocateOp>(curr_op), pred, pred_op, curr);
        break;
      case kMark:
        help_marked(pred, pred_op, curr);
        break;
      default:
        break;
    }
  }

  void help_child_cas(ChildCasOp* op, Node* dest) {
    auto& slot = op->is_left ? dest->left : dest->right;
    Node* expected = op->expected;
    slot.compare_exchange_strong(expected, op->update,
                                 std::memory_order_acq_rel);
    std::uintptr_t exp = flag(op, kChildCas);
    dest->op.compare_exchange_strong(exp, op->done, std::memory_order_acq_rel);
  }

  bool help_relocate(RelocateOp* op, Node* pred, std::uintptr_t pred_op,
                     Node* curr /* the successor being recycled */) {
    int seen_state = op->state.load(std::memory_order_acquire);
    if (seen_state == RelocateOp::kOngoing) {
      // Stamp the destination; exactly one of {our CAS, someone else's,
      // a conflicting op} decides the outcome.
      std::uintptr_t expected = op->dest_op;
      op->dest->op.compare_exchange_strong(expected, flag(op, kRelocate),
                                           std::memory_order_acq_rel);
      if (expected == op->dest_op || expected == flag(op, kRelocate)) {
        int exp_state = RelocateOp::kOngoing;
        op->state.compare_exchange_strong(exp_state, RelocateOp::kSuccessful,
                                          std::memory_order_acq_rel);
        seen_state = RelocateOp::kSuccessful;
      } else {
        int exp_state = RelocateOp::kOngoing;
        op->state.compare_exchange_strong(exp_state, RelocateOp::kFailed,
                                          std::memory_order_acq_rel);
        seen_state = op->state.load(std::memory_order_acquire);
      }
    }

    if (seen_state == RelocateOp::kSuccessful) {
      // The key/value swap: one idempotent pointer CAS; the winner owns
      // retiring the displaced payload.
      const Payload* expected = op->old_payload;
      if (op->dest->payload.compare_exchange_strong(
              expected, op->new_payload, std::memory_order_acq_rel)) {
        domain_->retire(const_cast<Payload*>(op->old_payload));
      }
      std::uintptr_t exp = flag(op, kRelocate);
      op->dest->op.compare_exchange_strong(exp, op->dest_done,
                                           std::memory_order_acq_rel);
    }

    const bool result = (seen_state == RelocateOp::kSuccessful);
    // A helper may have reached this operation through the *destination*
    // (also stamped RELOCATE); the mark-and-splice below is only for the
    // successor node (original algorithm, line "if op.dest == curr").
    if (op->dest == curr) return result;
    if (result) {
      // The successor node now duplicates the destination's key: mark it
      // and splice it out.
      std::uintptr_t exp = flag(op, kRelocate);
      curr->op.compare_exchange_strong(exp, flag(op, kMark),
                                       std::memory_order_acq_rel);
      // If the successor hangs directly off the destination, the
      // destination's op word just moved to its next clean stamp — use
      // that as the expected stamp for the splice instead of the stale one.
      if (op->dest == pred) pred_op = op->dest_done;
      help_marked(pred, pred_op, curr);
    } else {
      // Failed: unstick the successor (its next clean stamp).
      std::uintptr_t exp = flag(op, kRelocate);
      curr->op.compare_exchange_strong(exp, op->succ_done,
                                       std::memory_order_acq_rel);
    }
    return result;
  }

  bool help_marked(Node* pred, std::uintptr_t pred_op, Node* curr) {
    Node* left = curr->left.load(std::memory_order_acquire);
    Node* right = curr->right.load(std::memory_order_acquire);
    Node* new_ref = !is_empty(left)    ? left
                    : !is_empty(right) ? right
                                       : empty_mark(curr);
    auto* cas_op = reclaim::make_counted<ChildCasOp>();
    cas_op->is_left =
        (curr == pred->left.load(std::memory_order_acquire));
    cas_op->expected = curr;
    cas_op->update = new_ref;
    cas_op->done = next_clean(pred_op);
    std::uintptr_t expected = pred_op;
    if (pred->op.compare_exchange_strong(expected, flag(cas_op, kChildCas),
                                         std::memory_order_acq_rel)) {
      help_child_cas(cas_op, pred);
      // The spliced node and its payload stay on the allocation list (see
      // the header comment on the resurrection ABA); only the record is
      // retired, by its unique successful publisher.
      domain_->retire(cas_op);
      return true;
    }
    reclaim::delete_counted(cas_op);
    return false;
  }

  // ---- bulk reads --------------------------------------------------------

  template <typename F>
  void visit(const Node* n, F& fn) const {
    if (is_empty(n)) return;
    visit(n->left.load(std::memory_order_acquire), fn);
    const std::uintptr_t w = n->op.load(std::memory_order_acquire);
    const Payload* p = n->payload.load(std::memory_order_acquire);
    if (flag_of(w) != kMark && !p->neg_inf) fn(p->key, p->value);
    visit(n->right.load(std::memory_order_acquire), fn);
  }

  bool visit_until(const Node* n, bool left,
                   std::optional<std::pair<K, V>>& out) const {
    if (is_empty(n)) return true;
    const Node* first = left ? n->left.load(std::memory_order_acquire)
                             : n->right.load(std::memory_order_acquire);
    const Node* second = left ? n->right.load(std::memory_order_acquire)
                              : n->left.load(std::memory_order_acquire);
    if (!visit_until(first, left, out)) return false;
    const std::uintptr_t w = n->op.load(std::memory_order_acquire);
    const Payload* p = n->payload.load(std::memory_order_acquire);
    if (flag_of(w) != kMark && !p->neg_inf) {
      out = std::make_pair(p->key, p->value);
      return false;
    }
    return visit_until(second, left, out);
  }

  Node* make_tracked_node(const Payload* p) {
    Node* n = reclaim::make_counted<Node>(p);
    Node* head = alloc_head_.load(std::memory_order_relaxed);
    do {
      n->next_alloc = head;
    } while (!alloc_head_.compare_exchange_weak(head, n,
                                                std::memory_order_release,
                                                std::memory_order_relaxed));
    return n;
  }

  reclaim::EbrDomain* domain_;
  Compare comp_;
  Node* root_;
  std::atomic<Node*> alloc_head_{nullptr};
};

}  // namespace lot::baselines
