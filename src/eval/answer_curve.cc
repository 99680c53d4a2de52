#include "eval/answer_curve.h"

#include <utility>

namespace binchain {

void AnswerCurve::Add(const AnswerCurve& other) {
  if (other.empty()) return;
  if (empty()) {
    *this = other;
    return;
  }
  // Merge the two step lists. Both curves only grow, so the sum grows at
  // every iteration where either one does.
  std::vector<Step> sum;
  sum.reserve(steps_.size() + other.steps_.size());
  const std::vector<Step>& x = steps_;
  const std::vector<Step>& y = other.steps_;
  size_t i = 0, j = 0;
  uint64_t cx = 0, cy = 0;  // each curve's count at iteration `at`
  while (i < x.size() || j < y.size()) {
    uint32_t at = UINT32_MAX;
    if (i < x.size()) at = x[i].iteration;
    if (j < y.size()) at = std::min(at, y[j].iteration);
    if (i < x.size() && x[i].iteration == at) cx = x[i++].count;
    if (j < y.size() && y[j].iteration == at) cy = y[j++].count;
    const uint64_t total = cx + cy;
    BINCHAIN_CHECK(total <= UINT32_MAX);
    sum.push_back(Step{at, static_cast<uint32_t>(total)});
  }
  steps_ = std::move(sum);
  iterations_ = std::max(iterations_, other.iterations_);
}

}  // namespace binchain
