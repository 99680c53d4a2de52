#include "eval/rex_image.h"

#include <algorithm>
#include <unordered_set>
#include <vector>

#include "automata/nfa.h"
#include "util/flat_set.h"

namespace binchain {
namespace {

/// Marks `i` in the epoch-stamped array; returns true if already marked
/// this epoch. Ids above the current capacity grow the array
/// transparently.
bool Stamp(std::vector<uint32_t>& stamps, size_t i, uint32_t epoch) {
  if (i >= stamps.size()) {
    stamps.resize(std::max(i + 1, stamps.size() * 2), 0);
  }
  if (stamps[i] == epoch) return true;
  stamps[i] = epoch;
  return false;
}

}  // namespace

Result<std::vector<TermId>> ImageUnderRex(const ViewRegistry& views,
                                          const RexPtr& e,
                                          const std::vector<TermId>& sources,
                                          uint64_t* work,
                                          const CancelToken* cancel) {
  // Compilation validates that every predicate leaf has a view and is
  // memoized per Rex node: level strategies call this once per level.
  const ViewRegistry::CompiledRex& compiled = views.Compile(e);
  if (!compiled.status.ok()) return compiled.status;
  const Nfa& nfa = compiled.nfa;

  // The (state, term) seen-set lives in the registry's epoch-stamped
  // scratch: clearing is an epoch bump, so a call touching few nodes pays
  // for few nodes (the level strategies issue many small-frontier calls).
  // Tuple terms' tagged ids would size that array by 2^31, so their nodes
  // go to a local hash set instead.
  const size_t num_states = nfa.NumStates();
  ViewRegistry::TraversalScratch& sc = views.scratch();
  if (++sc.epoch == 0) {  // wrapped: do the rare real clear
    std::fill(sc.node_stamp.begin(), sc.node_stamp.end(), 0);
    sc.epoch = 1;
  }
  const uint32_t epoch = sc.epoch;
  FlatSet64 tuple_nodes;
  std::vector<std::pair<uint32_t, TermId>> stack;
  std::vector<TermId> out;
  auto visit = [&](uint32_t q, TermId u) {
    const bool seen =
        TermPool::IsUnary(u)
            ? Stamp(sc.node_stamp, static_cast<size_t>(u) * num_states + q,
                    epoch)
            : !tuple_nodes.insert((static_cast<uint64_t>(q) << 32) | u);
    if (seen) return;
    if (work != nullptr) ++*work;
    // (final, u) is visited once, so `out` needs no dedup of its own.
    if (q == nfa.final()) out.push_back(u);
    stack.emplace_back(q, u);
  };
  for (TermId s : sources) visit(nfa.initial(), s);
  // Same decimation as the engine's node loop: a pop can fan out over a
  // whole adjacency list, so a stride of a few hundred bounds cancellation
  // latency to milliseconds while keeping the clock read off the hot path.
  constexpr size_t kCancelStride = 512;
  size_t cancel_countdown = kCancelStride;
  while (!stack.empty()) {
    if (cancel != nullptr && --cancel_countdown == 0) {
      cancel_countdown = kCancelStride;
      if (cancel->ShouldStop()) {
        return Status::Cancelled("image traversal cancelled");
      }
    }
    auto [q, u] = stack.back();
    stack.pop_back();
    for (const NfaTransition& t : nfa.Out(q)) {
      switch (t.label.kind) {
        case NfaLabel::Kind::kId:
          visit(t.target, u);
          break;
        case NfaLabel::Kind::kRel: {
          BinaryRelationView* view = views.Find(t.label.pred);
          if (t.label.inverted) {
            view->ForEachPred(u, [&](TermId v) { visit(t.target, v); });
          } else {
            view->ForEachSucc(u, [&](TermId v) { visit(t.target, v); });
          }
          break;
        }
        case NfaLabel::Kind::kDerived:
          // Unreachable: BuildNfa was told nothing is derived.
          break;
      }
    }
  }
  return out;
}

Result<std::vector<TermId>> ClosureUnderRex(const ViewRegistry& views,
                                            const RexPtr& e,
                                            const std::vector<TermId>& sources,
                                            uint64_t* work,
                                            const CancelToken* cancel) {
  std::unordered_set<TermId> all(sources.begin(), sources.end());
  std::vector<TermId> frontier(sources.begin(), sources.end());
  std::vector<TermId> out(sources.begin(), sources.end());
  while (!frontier.empty()) {
    // Per-round poll on top of the per-visit decimation inside the image
    // call: rounds with tiny frontiers would otherwise stretch the stride.
    if (cancel != nullptr && cancel->ShouldStop()) {
      return Status::Cancelled("closure traversal cancelled");
    }
    auto img = ImageUnderRex(views, e, frontier, work, cancel);
    if (!img.ok()) return img.status();
    frontier.clear();
    for (TermId v : img.value()) {
      if (all.insert(v).second) {
        frontier.push_back(v);
        out.push_back(v);
      }
    }
  }
  return out;
}

}  // namespace binchain
