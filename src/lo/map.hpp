// Concurrent internal BST / relaxed AVL map with explicit logical ordering
// (the paper's core contribution, Algorithms 1–10). Since PR 4 the whole
// two-layer protocol — search/locate, interval locking, linking, physical
// removal, the ordered read layer — lives in exactly one place, lo/core.hpp,
// parameterized by a removal policy. LoMap is the OnTimeRemoval
// instantiation (§3.3: every erase physically unlinks before returning,
// relocating the successor for two-children nodes); see lo/partial.hpp for
// the LogicalRemoving variation. `Balanced = true` gives the AVL variant of
// §4.1–4.5, `Balanced = false` the plain BST of §4.6 — the two differ only
// in height maintenance and rebalancing, exactly as in the paper.
//
// Algorithm properties, pseudocode errata, perturb/fault instrumentation
// and the failure model are documented on LoCore (lo/core.hpp) and in
// DESIGN.md §§8–11.
#pragma once

#include <functional>
#include <string_view>

#include "lo/core.hpp"
#include "lo/node.hpp"
#include "reclaim/pool.hpp"

namespace lot::lo {

// `Alloc` is the node allocation policy (reclaim/pool.hpp): the slab pool
// by default, plain counted new/delete (reclaim::NewNodeAlloc) when a
// caller names it explicitly. `NodeTmpl` exists for the layout
// ablation only — it lets bench/ablation_alloc.cpp instantiate the exact
// same algorithm over a deliberately packed (pre-PR) node layout.
template <typename K, typename V, typename Compare = std::less<K>,
          bool Balanced = true,
          typename Alloc = reclaim::DefaultNodeAlloc,
          template <typename, typename> class NodeTmpl = Node>
class LoMap : public LoCore<K, V, Compare, Balanced, Alloc, OnTimeRemoval,
                            NodeTmpl> {
  using Base =
      LoCore<K, V, Compare, Balanced, Alloc, OnTimeRemoval, NodeTmpl>;

 public:
  using Base::Base;

  static std::string_view name() {
    return Balanced ? "lo-avl" : "lo-bst";
  }
};

}  // namespace lot::lo
