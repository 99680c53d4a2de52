#include "storage/chain_compaction.h"

#include <algorithm>

namespace binchain {

ChainCompaction PlanChainCompaction(const std::vector<size_t>& deltas,
                                    size_t root, size_t overhead,
                                    size_t max_depth, size_t min_delta) {
  ChainCompaction plan;
  size_t accumulated = overhead;
  for (size_t d : deltas) accumulated += d;
  if (accumulated >= std::max(root, min_delta)) {
    plan.flatten = true;
    return plan;
  }
  const size_t n = deltas.size();
  if (n == 0) return plan;
  // `group` top layers merged so far, holding `rows` entries; the next
  // layer down is deltas[n - 1 - group].
  size_t group = 1;
  size_t rows = deltas[n - 1];
  while (group < n && 2 * rows >= deltas[n - 1 - group]) {
    rows += deltas[n - 1 - group];
    ++group;
  }
  // The new layer sits at depth (n - group + 1) + 1 once the group is one
  // layer.
  while (group < n && n - group + 2 > max_depth) ++group;
  if (group >= 2) plan.merge = group;
  return plan;
}

}  // namespace binchain
