#include "transform/simple_bin.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

#include "datalog/analysis.h"
#include "eval/join.h"
#include "storage/term_pool.h"

namespace binchain {

Result<std::vector<Tuple>> SimpleBinQuery(const Program& program, Database& db,
                                          const Literal& query,
                                          SimpleBinStats* stats,
                                          size_t edge_limit) {
  SimpleBinStats local;
  SimpleBinStats& st = (stats != nullptr) ? *stats : local;
  st = SimpleBinStats{};

  ProgramAnalysis analysis(program, db.symbols());
  if (!analysis.BodyHasAtMostOneDerived()) {
    return Status::Unsupported(
        "the simple bin transformation requires at most one derived literal "
        "per body");
  }
  if (auto s = analysis.CheckSafety(); !s.ok()) return s;

  // Active domain (constants of the EDB), for variables not covered by base
  // literals.
  std::vector<SymbolId> domain;
  {
    std::unordered_set<SymbolId> seen;
    for (const std::string& name : db.relation_names()) {
      const Relation* rel = db.Find(name);
      for (const Tuple& t : rel->tuples()) {
        for (SymbolId c : t) {
          if (seen.insert(c).second) domain.push_back(c);
        }
      }
    }
  }

  TermPool pool;
  TermId root = pool.InternTuple(Tuple{});  // the symbol "0"
  auto literal_node = [&](SymbolId pred, const Tuple& args) {
    Tuple node;
    node.push_back(pred);
    node.insert(node.end(), args.begin(), args.end());
    return pool.InternTuple(node);
  };

  std::unordered_map<TermId, std::vector<TermId>> succ;
  RelationResolver resolve = [&](SymbolId pred) {
    return db.Find(db.symbols().Name(pred));
  };

  Status overflow = Status::Ok();
  for (const Rule& r : program.rules) {
    const Literal* derived = nullptr;
    std::vector<Literal> bases;
    for (const Literal& lit : r.body) {
      if (analysis.IsDerived(lit.predicate)) {
        derived = &lit;
      } else {
        bases.push_back(lit);
      }
    }
    // Variables needing active-domain expansion.
    std::unordered_set<SymbolId> covered;
    for (const Literal& lit : bases) {
      if (analysis.IsBuiltin(lit.predicate)) continue;
      for (const Term& t : lit.args) {
        if (t.IsVar()) covered.insert(t.symbol);
      }
    }
    std::vector<SymbolId> uncovered;
    {
      std::unordered_set<SymbolId> want;
      auto add_vars = [&](const Literal& lit) {
        for (const Term& t : lit.args) {
          if (t.IsVar() && !covered.count(t.symbol)) want.insert(t.symbol);
        }
      };
      add_vars(r.head);
      if (derived != nullptr) add_vars(*derived);
      uncovered.assign(want.begin(), want.end());
      std::sort(uncovered.begin(), uncovered.end());
    }

    std::function<void(size_t, Binding&)> expand = [&](size_t i, Binding& b) {
      if (!overflow.ok()) return;
      if (i == uncovered.size()) {
        Tuple head_args = InstantiateHead(r.head, b);
        TermId to = literal_node(r.head.predicate, head_args);
        TermId from = root;
        if (derived != nullptr) {
          from = literal_node(derived->predicate, InstantiateHead(*derived, b));
        }
        succ[from].push_back(to);
        if (++st.bin_edges > edge_limit) {
          overflow = Status::Unsupported(
              "simple bin transformation exceeded the edge limit "
              "(active-domain blowup)");
        }
        return;
      }
      for (SymbolId c : domain) {
        b[uncovered[i]] = c;
        expand(i + 1, b);
        b.erase(uncovered[i]);
      }
    };

    Binding binding;
    Status s = EnumerateMatches(resolve, db.symbols(), bases, binding,
                                [&](const Binding&) {
                                  Binding b = binding;
                                  expand(0, b);
                                });
    if (!s.ok()) return s;
    if (!overflow.ok()) return overflow;
  }

  // Reachability from 0; answers are reachable query-predicate literals.
  std::unordered_set<TermId> seen{root};
  std::vector<TermId> stack{root};
  std::vector<Tuple> answers;
  while (!stack.empty()) {
    TermId v = stack.back();
    stack.pop_back();
    ++st.visited_nodes;
    auto it = succ.find(v);
    if (it == succ.end()) continue;
    for (TermId w : it->second) {
      if (!seen.insert(w).second) continue;
      stack.push_back(w);
      Tuple node = pool.Get(w);
      if (!node.empty() && node[0] == query.predicate) {
        Tuple args(node.begin() + 1, node.end());
        bool match = args.size() == query.args.size();
        for (size_t i = 0; i < args.size() && match; ++i) {
          if (query.args[i].IsConst() && query.args[i].symbol != args[i]) {
            match = false;
          }
        }
        if (match) answers.push_back(std::move(args));
      }
    }
  }
  std::sort(answers.begin(), answers.end());
  answers.erase(std::unique(answers.begin(), answers.end()), answers.end());
  return answers;
}

}  // namespace binchain
