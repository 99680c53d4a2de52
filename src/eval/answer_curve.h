// The Lemma 2 growth curve of an evaluation: the cumulative answer count
// after each iteration, stored as the steps where the count changes.
//
// Lemma 2 makes the partial answer after iteration i the answer of p
// defined by p = p_i, so the count is a non-decreasing step function
// bounded by the final answer set. The curve keeps one (iteration, count)
// step per change, starting from an implicit count of 0, so a curve over
// any number of iterations holds at most min(iterations, answers) steps:
// the Figure 7(c) ladder (one answer, found in the first of n iterations)
// is one step, not n entries. A curve that grows every iteration, as on
// Figure 7(b), holds one 8-byte step per iteration, the size a dense
// vector of 64-bit counts would take.
//
// Reads see the dense curve: size() iterations, [i] the count after
// iteration i + 1 (a binary search over the steps), back() the last count.
#ifndef BINCHAIN_EVAL_ANSWER_CURVE_H_
#define BINCHAIN_EVAL_ANSWER_CURVE_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/check.h"

namespace binchain {

class AnswerCurve {
 public:
  /// Iterations recorded.
  size_t size() const { return iterations_; }
  bool empty() const { return iterations_ == 0; }

  /// Cumulative answers after iteration i + 1; requires i < size().
  uint64_t operator[](size_t i) const {
    BINCHAIN_DCHECK(i < iterations_);
    auto after = std::upper_bound(
        steps_.begin(), steps_.end(), i,
        [](size_t at, const Step& s) { return at < s.iteration; });
    return after == steps_.begin() ? 0 : (after - 1)->count;
  }

  /// The last recorded count; 0 for an empty curve.
  uint64_t back() const { return steps_.empty() ? 0 : steps_.back().count; }

  /// Records the count after the next iteration; counts never decrease.
  void push_back(uint64_t count) {
    BINCHAIN_CHECK(iterations_ < UINT32_MAX && count <= UINT32_MAX);
    BINCHAIN_CHECK(count >= back());
    if (count != back()) {
      steps_.push_back(Step{iterations_, static_cast<uint32_t>(count)});
    }
    ++iterations_;
  }

  /// Elementwise sum, the batch-total rule: entry i becomes this[i] +
  /// other[i], where a curve shorter than i continues flat at its last
  /// count (an empty one contributes 0), so the sum is order-independent
  /// and its last count is the sum of the last counts.
  void Add(const AnswerCurve& other);

  /// Stored steps: at most min(size(), distinct nonzero counts).
  size_t steps() const { return steps_.size(); }
  /// Heap bytes the curve holds (what an answer-cache entry accounts).
  size_t heap_bytes() const { return steps_.capacity() * sizeof(Step); }

  friend bool operator==(const AnswerCurve& a, const AnswerCurve& b) {
    return a.iterations_ == b.iterations_ && a.steps_ == b.steps_;
  }

 private:
  // The count is `count` from iteration index `iteration` (0-based) until
  // the next step. Iterations are bounded by the nodes an evaluation
  // creates, and counts by its answer set or, for batch totals, by the
  // answers the batch's responses hold, so 32 bits each fit; push_back
  // and Add check it.
  struct Step {
    uint32_t iteration;
    uint32_t count;
    bool operator==(const Step& o) const {
      return iteration == o.iteration && count == o.count;
    }
  };
  std::vector<Step> steps_;  // strictly increasing iterations
  uint32_t iterations_ = 0;
};

}  // namespace binchain

#endif  // BINCHAIN_EVAL_ANSWER_CURVE_H_
