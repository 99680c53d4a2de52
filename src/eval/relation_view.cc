#include "eval/relation_view.h"

#include <algorithm>
#include <unordered_set>

#include "eval/eval_artifacts.h"
#include "eval/join.h"
#include "util/check.h"

namespace binchain {

void EdbBinaryView::ForEachSucc(TermId u, FunctionRef<void(TermId)> fn) {
  if (!TermPool::IsUnary(u)) return;  // tuple term: no successors in an EDB
  if (adj_ != nullptr) {
    // Snapshot-owned memo: same successors in the same order, one memo hit
    // in place of the per-tuple EDB fetches.
    adj_->EnsureBuilt();
    adj_->ForEachSucc(u, fn);
    return;
  }
  const SymbolId key[2] = {u, 0};
  rel_->ForEachMatch(0b01u, TupleRef(key, 2), [&](TupleRef m) { fn(m[1]); });
}

void EdbBinaryView::ForEachPred(TermId v, FunctionRef<void(TermId)> fn) {
  if (!TermPool::IsUnary(v)) return;
  if (adj_ != nullptr) {
    adj_->EnsureBuilt();
    adj_->ForEachPred(v, fn);
    return;
  }
  const SymbolId key[2] = {0, v};
  rel_->ForEachMatch(0b10u, TupleRef(key, 2), [&](TupleRef m) { fn(m[0]); });
}

void EdbBinaryView::ForEachPair(FunctionRef<void(TermId, TermId)> fn) {
  for (TupleRef t : rel_->tuples()) fn(t[0], t[1]);
}

const std::vector<SymbolId>& DemandJoinView::ActiveDomain() {
  if (!domain_built_) {
    domain_built_ = true;
    std::unordered_set<SymbolId> seen;
    for (const std::string& name : db_->relation_names()) {
      const Relation* rel = db_->Find(name);
      for (TupleRef t : rel->tuples()) {
        for (SymbolId c : t) {
          if (seen.insert(c).second) domain_.push_back(c);
        }
      }
    }
  }
  return domain_;
}

void DemandJoinView::EmitOutputs(const Binding& binding,
                                 std::vector<TermId>& results) {
  // Distinct output variables left unbound by the match.
  std::vector<SymbolId> unbound;
  for (const Term& t : output_terms_) {
    if (t.IsVar() && !binding.count(t.symbol)) {
      if (std::find(unbound.begin(), unbound.end(), t.symbol) ==
          unbound.end()) {
        unbound.push_back(t.symbol);
      }
    }
  }
  Binding extended = binding;
  std::function<void(size_t)> emit = [&](size_t i) {
    if (i == unbound.size()) {
      Tuple out;
      out.reserve(output_terms_.size());
      for (const Term& t : output_terms_) {
        out.push_back(t.IsConst() ? t.symbol : extended.at(t.symbol));
      }
      results.push_back(pool_->InternTuple(out));
      return;
    }
    for (SymbolId c : ActiveDomain()) {
      extended[unbound[i]] = c;
      emit(i + 1);
    }
    extended.erase(unbound[i]);
  };
  emit(0);
}

void DemandJoinView::ForEachSucc(TermId u, FunctionRef<void(TermId)> fn) {
  auto it = memo_.find(u);
  if (it != memo_.end()) {
    for (TermId v : it->second) fn(v);
    return;
  }
  Tuple in = pool_->Get(u);
  if (shared_ != nullptr) {
    // A worker anywhere already joined this source this epoch: intern its
    // outputs into our pool and memoize locally — no body enumeration, no
    // EDB fetches.
    if (const std::vector<Tuple>* hit = shared_->Find(in)) {
      std::vector<TermId> interned;
      interned.reserve(hit->size());
      for (const Tuple& out : *hit) interned.push_back(pool_->InternTuple(out));
      auto [mit, _] = memo_.emplace(u, std::move(interned));
      for (TermId v : mit->second) fn(v);
      return;
    }
  }
  std::vector<TermId> results;
  if (in.size() == input_vars_.size()) {
    Binding binding;
    bool consistent = true;
    for (size_t i = 0; i < input_vars_.size(); ++i) {
      auto [bit, inserted] = binding.emplace(input_vars_[i], in[i]);
      if (!inserted && bit->second != in[i]) {
        consistent = false;  // repeated input variable, conflicting values
        break;
      }
    }
    if (consistent) {
      RelationResolver resolve = [this](SymbolId pred) {
        return db_->FindById(pred);
      };
      Status s = EnumerateMatches(
          resolve, db_->symbols(), body_, binding,
          [&](const Binding& b) { EmitOutputs(b, results); });
      if (!s.ok() && status_.ok()) status_ = s;
      // Deduplicate (projections can repeat).
      std::sort(results.begin(), results.end());
      results.erase(std::unique(results.begin(), results.end()),
                    results.end());
    }
  }
  if (shared_ != nullptr && status_.ok()) {
    // Publish by content so every worker's pool can replay it. Only clean
    // computations are shared — a failed body enumeration must not poison
    // other workers with a partial result.
    std::vector<Tuple> outs;
    outs.reserve(results.size());
    for (TermId v : results) outs.push_back(pool_->Get(v));
    shared_->Publish(in, std::move(outs));
  }
  auto [mit, _] = memo_.emplace(u, std::move(results));
  for (TermId v : mit->second) fn(v);
}

void ViewRegistry::Register(SymbolId pred,
                            std::unique_ptr<BinaryRelationView> view) {
  edb_views_.erase(pred);  // a custom view shadows any rebindable EDB view
  demand_views_.erase(pred);
  if (auto* demand = dynamic_cast<DemandJoinView*>(view.get())) {
    demand_views_[pred] = demand;
  }
  views_[pred] = std::move(view);
}

void ViewRegistry::RegisterDatabase(const Database& db) { BindDatabase(db); }

void ViewRegistry::RebindOrCreateEdbView(SymbolId pred, const Relation* rel) {
  auto it = edb_views_.find(pred);
  if (it != edb_views_.end()) {
    it->second->Rebind(rel);
    return;
  }
  if (views_.count(pred) > 0) return;  // custom view wins; leave it
  auto view = std::make_unique<EdbBinaryView>(rel);
  EdbBinaryView* raw = view.get();
  Register(pred, std::move(view));
  edb_views_[pred] = raw;
}

void ViewRegistry::BindDatabase(const Database& db) {
  // Frozen epochs are never written through the registry: Intern below only
  // resolves spellings the epoch already holds (relation names are interned
  // when the relation is created).
  symbols_ = const_cast<SymbolTable*>(&db.symbols());
  for (const std::string& name : db.relation_names()) {
    const Relation* rel = db.Find(name);
    if (rel == nullptr || rel->arity() != 2) continue;
    RebindOrCreateEdbView(symbols_->Intern(name), rel);
  }
}

void ViewRegistry::BindArtifacts(const EvalArtifacts* artifacts) {
  for (auto& [pred, view] : edb_views_) {
    view->BindSharedAdjacency(
        artifacts == nullptr ? nullptr : artifacts->Adjacency(pred));
  }
  for (auto& [pred, view] : demand_views_) {
    view->BindSharedMemo(
        artifacts == nullptr ? nullptr : &artifacts->DemandMemo(pred));
  }
}

void ViewRegistry::BindSnapshot(const Database& db,
                                const EvalArtifacts* artifacts) {
  if (artifacts == nullptr) {
    BindDatabase(db);
    BindArtifacts(nullptr);
    return;
  }
  // The artifact set already resolved every binary relation of the epoch
  // to (pred id, relation); rebind straight from that table — no name
  // walk, no Intern.
  symbols_ = const_cast<SymbolTable*>(&db.symbols());
  for (auto [pred, rel] : artifacts->binary_relations()) {
    RebindOrCreateEdbView(pred, rel);
  }
  BindArtifacts(artifacts);
}

BinaryRelationView* ViewRegistry::Find(SymbolId pred) const {
  auto it = views_.find(pred);
  return it == views_.end() ? nullptr : it->second.get();
}

const ViewRegistry::CompiledRex& ViewRegistry::Compile(
    const RexPtr& e) const {
  auto it = rex_cache_.find(e.get());
  if (it != rex_cache_.end()) return it->second;
  CompiledRex compiled;
  std::unordered_set<SymbolId> preds;
  CollectPreds(e, preds);
  for (SymbolId p : preds) {
    if (Find(p) == nullptr) {
      compiled.status =
          Status::NotFound("no relation view registered for predicate");
      break;
    }
  }
  if (!compiled.status.ok()) {
    // Failures are not memoized: registering the missing view later must
    // let the same expression compile.
    compile_error_ = std::move(compiled);
    return compile_error_;
  }
  compiled.nfa = BuildNfa(e, [](SymbolId) { return false; });
  compiled.pinned = e;
  auto [cit, _] = rex_cache_.emplace(e.get(), std::move(compiled));
  return cit->second;
}

}  // namespace binchain
