#include "storage/term_pool.h"

#include "util/check.h"

namespace binchain {

TermId TermPool::InternTuple(const Tuple& t) {
  if (t.size() == 1) {
    BINCHAIN_CHECK(IsUnary(t[0]));
    return t[0];
  }
  auto it = index_.find(t);
  if (it != index_.end()) return it->second;
  BINCHAIN_CHECK(tuples_.size() < kTupleTag);
  TermId id = kTupleTag | static_cast<TermId>(tuples_.size());
  tuples_.push_back(t);
  index_.emplace(t, id);
  return id;
}

}  // namespace binchain
