#include "storage/symbol_table.h"

#include <cstdlib>
#include <vector>

#include "storage/chain_compaction.h"
#include "util/check.h"

namespace binchain {
namespace {

std::optional<int64_t> ParseInt(std::string_view s) {
  if (s.empty()) return std::nullopt;
  size_t i = 0;
  bool neg = false;
  if (s[0] == '-') {
    if (s.size() == 1) return std::nullopt;
    neg = true;
    i = 1;
  }
  int64_t v = 0;
  for (; i < s.size(); ++i) {
    if (s[i] < '0' || s[i] > '9') return std::nullopt;
    v = v * 10 + (s[i] - '0');
    if (v < 0) return std::nullopt;  // overflow guard; huge ints stay symbolic
  }
  return neg ? -v : v;
}

}  // namespace

SymbolId SymbolTable::Intern(std::string_view s) {
  if (auto id = Find(s)) return *id;
  BINCHAIN_CHECK(!frozen_);  // new spellings would race concurrent readers
  if (names_.empty() && base_ != nullptr) CompactBase();
  AppendLocal(s, ParseInt(s));
  return static_cast<SymbolId>(size() - 1);
}

void SymbolTable::AppendLocal(std::string_view s,
                              std::optional<int64_t> value) {
  SymbolId id = base_size_ + static_cast<SymbolId>(names_.size());
  names_.emplace_back(s);
  ints_.push_back(value);
  index_.emplace(names_.back(), id);
}

void SymbolTable::CopyLocal(const SymbolTable& layer) {
  for (size_t i = 0; i < layer.names_.size(); ++i) {
    AppendLocal(layer.names_[i], layer.ints_[i]);
  }
}

void SymbolTable::CompactBase() {
  std::vector<const SymbolTable*> layers;  // the base chain, top first
  for (const SymbolTable* t = base_.get(); t != nullptr; t = t->base_.get()) {
    layers.push_back(t);
  }
  std::vector<size_t> deltas;  // bottom first, root excluded
  for (size_t i = layers.size() - 1; i-- > 0;) {
    deltas.push_back(layers[i]->names_.size());
  }
  ChainCompaction plan =
      PlanChainCompaction(deltas, layers.back()->names_.size(), 0,
                          kMaxChainDepth, kFlattenMinSpellings);
  if (plan.flatten) {
    // This layer becomes the standalone root, every id in place; `chain`
    // keeps the old layers alive while they are copied.
    std::shared_ptr<const SymbolTable> chain = std::move(base_);
    base_size_ = 0;
    for (size_t i = layers.size(); i-- > 0;) CopyLocal(*layers[i]);
  } else if (plan.merge > 0) {
    auto merged = std::make_shared<SymbolTable>();
    merged->ChainTo(layers[plan.merge - 1]->base_);
    for (size_t i = plan.merge; i-- > 0;) merged->CopyLocal(*layers[i]);
    merged->Freeze();
    base_ = std::move(merged);
  }
}

std::optional<SymbolId> SymbolTable::Find(std::string_view s) const {
  if (base_ != nullptr) {
    if (auto id = base_->Find(s)) return id;
  }
  auto it = index_.find(std::string(s));
  if (it == index_.end()) return std::nullopt;
  return it->second;
}

void SymbolTable::ChainTo(std::shared_ptr<const SymbolTable> base) {
  BINCHAIN_CHECK(base != nullptr);
  BINCHAIN_CHECK(base->frozen());
  BINCHAIN_CHECK(names_.empty() && base_ == nullptr && !frozen_);
  base_size_ = static_cast<SymbolId>(base->size());
  base_ = std::move(base);
}

}  // namespace binchain
