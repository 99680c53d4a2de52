// The compaction policy shared by every layered storage chain: relation
// delta layers (Relation::Extend) and symbol-table layers
// (SymbolTable::Intern). One function decides for both, so the two chains
// can never drift apart.
//
// A chain is a standalone root plus delta layers stacked on it, one per
// publish that changed it. Each layer costs a probe (and a RowRange
// segment), so depth must stay bounded; each compaction costs a copy, so
// copies must stay proportional to what was added. The policy is the
// logarithmic method (Bentley & Saxe) applied to the delta layers, plus a
// doubling rule for the root:
//
//   * doubling rule — when the delta layers (plus `overhead`, e.g.
//     tombstones every probe filters) reach max(root, min_delta) entries,
//     rewrite the whole chain as a new standalone root. This is the only
//     root rewrite (and so the only dead-row compaction); its O(total) copy
//     is amortized O(1) per delta entry.
//   * size tiers — otherwise, before a new layer goes on top, merge the top
//     delta layer with the one below it while the merged group holds at
//     least half the entries of that lower layer (never into the root).
//     Layers then shrink geometrically toward the top, and an entry is
//     copied again only when its layer at least grows by half: O(log)
//     copies per entry between root rewrites.
//   * depth cap — merge further only if the new layer would still sit more
//     than `max_depth` layers above the root.
#ifndef BINCHAIN_STORAGE_CHAIN_COMPACTION_H_
#define BINCHAIN_STORAGE_CHAIN_COMPACTION_H_

#include <cstddef>
#include <vector>

namespace binchain {

/// What to do to a chain before a new layer goes on top of it.
struct ChainCompaction {
  bool flatten = false;  ///< doubling rule: rewrite the chain as a new root
  /// Otherwise: merge this many top delta layers into one layer chained to
  /// the layer below them (0: merge nothing; never more than the deltas).
  size_t merge = 0;
};

/// Decides the compaction for a chain whose standalone root holds `root`
/// entries and whose delta layers hold `deltas` (bottom first) entries,
/// about to receive a new top layer. `overhead` counts toward the doubling
/// rule only.
ChainCompaction PlanChainCompaction(const std::vector<size_t>& deltas,
                                    size_t root, size_t overhead,
                                    size_t max_depth, size_t min_delta);

}  // namespace binchain

#endif  // BINCHAIN_STORAGE_CHAIN_COMPACTION_H_
