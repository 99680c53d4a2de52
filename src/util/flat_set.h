// Open-addressed hash set over 64-bit keys. It holds the overflow nodes of
// the engine's G(p, a, i) (eval/engine.h: tuple terms, whose tagged ids lie
// past the dense rows' width, and states refused a row), the tuple-term
// nodes of ImageUnderRex (eval/rex_image.cc) and Hsu's visited set
// (eval/hsu.cc).
// Compared with unordered_set<uint64_t> it stores keys inline in one
// contiguous array: no node allocations, one cache line per probe.
#ifndef BINCHAIN_UTIL_FLAT_SET_H_
#define BINCHAIN_UTIL_FLAT_SET_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace binchain {

class FlatSet64 {
 public:
  FlatSet64() = default;

  /// Inserts `key`; returns true if it was not present before.
  bool insert(uint64_t key) {
    if (key == kEmpty) {
      bool fresh = !has_empty_;
      has_empty_ = true;
      return fresh;
    }
    if ((used_ + 1) * 10 >= slots_.size() * 7) Grow();
    size_t m = slots_.size() - 1;
    for (size_t i = Mix(key) & m;; i = (i + 1) & m) {
      if (slots_[i] == kEmpty) {
        slots_[i] = key;
        ++used_;
        return true;
      }
      if (slots_[i] == key) return false;
    }
  }

  bool contains(uint64_t key) const {
    if (key == kEmpty) return has_empty_;
    if (slots_.empty()) return false;
    size_t m = slots_.size() - 1;
    for (size_t i = Mix(key) & m;; i = (i + 1) & m) {
      if (slots_[i] == kEmpty) return false;
      if (slots_[i] == key) return true;
    }
  }

  size_t size() const { return used_ + (has_empty_ ? 1 : 0); }

  /// Empties the set. A sparsely used table is released for a fresh
  /// 64-slot one, so an engine that clears once per query does not keep
  /// one large query's peak table allocated for every query after it.
  void clear() {
    if (slots_.size() > 64 && used_ * 4 < slots_.size()) {
      slots_ = std::vector<uint64_t>(64, kEmpty);
    } else {
      slots_.assign(slots_.size(), kEmpty);
    }
    used_ = 0;
    has_empty_ = false;
  }

 private:
  static constexpr uint64_t kEmpty = ~0ull;

  /// splitmix64 finalizer: full-avalanche mix so clustered (state, term)
  /// keys spread over the table.
  static uint64_t Mix(uint64_t x) {
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
  }

  void Grow() {
    size_t cap = slots_.empty() ? 16 : slots_.size() * 2;
    std::vector<uint64_t> old = std::move(slots_);
    slots_.assign(cap, kEmpty);
    used_ = 0;
    for (uint64_t k : old) {
      if (k == kEmpty) continue;
      size_t m = slots_.size() - 1;
      for (size_t i = Mix(k) & m;; i = (i + 1) & m) {
        if (slots_[i] == kEmpty) {
          slots_[i] = k;
          ++used_;
          break;
        }
      }
    }
  }

  std::vector<uint64_t> slots_;
  size_t used_ = 0;
  bool has_empty_ = false;
};

}  // namespace binchain

#endif  // BINCHAIN_UTIL_FLAT_SET_H_
