// Growable bitset for dense id spaces. Test-and-set is one load and one
// OR: no hashing, no probing, no per-node allocation. The engine keeps its
// answer set in one (TermIds are pool-interned and dense, so the array
// stays compact).
#ifndef BINCHAIN_UTIL_DENSE_BITS_H_
#define BINCHAIN_UTIL_DENSE_BITS_H_

#include <algorithm>
#include <cstdint>
#include <vector>

namespace binchain {

class DenseBits {
 public:
  DenseBits() = default;
  explicit DenseBits(size_t expected_bits) {
    words_.resize((expected_bits >> 6) + 1, 0);
  }

  /// Sets the bit; returns true if it was already set.
  bool TestAndSet(size_t bit) {
    size_t word = bit >> 6;
    if (word >= words_.size()) {
      words_.resize(std::max(word + 1, words_.size() * 2), 0);
    }
    uint64_t m = 1ull << (bit & 63);
    if (words_[word] & m) return true;
    words_[word] |= m;
    return false;
  }

  bool Test(size_t bit) const {
    size_t word = bit >> 6;
    return word < words_.size() && (words_[word] & (1ull << (bit & 63)));
  }

  /// Zeroes every bit but keeps the backing array, so reset-and-reuse loops
  /// (one engine answering many queries) pay O(peak id / 64) per query
  /// instead of re-growing from scratch.
  void clear() { std::fill(words_.begin(), words_.end(), 0); }

 private:
  std::vector<uint64_t> words_;
};

}  // namespace binchain

#endif  // BINCHAIN_UTIL_DENSE_BITS_H_
