#include "transform/binarize.h"

#include <algorithm>

#include "datalog/printer.h"
#include "equations/lemma1.h"
#include "util/check.h"

namespace binchain {
namespace {

/// Head-argument subsequences at bound / free positions.
std::vector<Term> ArgsAt(const Literal& lit, const Adornment& a, bool bound) {
  std::vector<Term> out;
  for (size_t i = 0; i < lit.args.size(); ++i) {
    if (a.bound[i] == bound) out.push_back(lit.args[i]);
  }
  return out;
}

std::vector<SymbolId> AsVars(const std::vector<Term>& terms, bool* all_vars) {
  std::vector<SymbolId> out;
  *all_vars = true;
  for (const Term& t : terms) {
    if (!t.IsVar()) {
      *all_vars = false;
      continue;
    }
    out.push_back(t.symbol);
  }
  return out;
}

bool SameVarSequence(const std::vector<Term>& a, const std::vector<Term>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (!a[i].IsVar() || !b[i].IsVar() || a[i].symbol != b[i].symbol) {
      return false;
    }
  }
  return true;
}

}  // namespace

Result<BinarizedProgram> Binarize(const AdornedProgram& adorned,
                                  SymbolTable& symbols) {
  BinarizedProgram out;
  out.is_chain = IsChainProgram(adorned);

  SymbolId var_u = symbols.Intern("U");
  SymbolId var_u1 = symbols.Intern("U1");
  SymbolId var_v1 = symbols.Intern("V1");
  SymbolId var_v = symbols.Intern("V");

  auto bin_name = [&](const AdornedPredicate& ap) {
    return symbols.Intern("bin~" + AdornedName(ap, symbols));
  };

  size_t rule_index = 0;
  for (const AdornedRule& r : adorned.rules) {
    std::string rule_tag =
        AdornedName(r.head, symbols) + "~r" + std::to_string(rule_index++);
    SymbolId head_bin = bin_name(r.head);

    std::vector<Term> xb = ArgsAt(r.head_literal, r.head.adornment, true);
    std::vector<Term> xf = ArgsAt(r.head_literal, r.head.adornment, false);
    bool all_vars = true;
    std::vector<SymbolId> xb_vars = AsVars(xb, &all_vars);
    if (!all_vars) {
      return Status::Unsupported("constants in rule heads are not supported");
    }

    if (!r.has_derived) {
      // base-r(t(Xb), t(Xf)) :- body;  bin-p(U, V) :- base-r(U, V).
      ViewDefinition view;
      view.name = symbols.Intern("base~" + rule_tag);
      view.body = r.prefix;  // all base literals live in the prefix
      view.input_vars = xb_vars;
      view.output_terms = xf;
      out.views.push_back(std::move(view));

      Rule bin_rule;
      bin_rule.head =
          Literal{head_bin, {Term::Var(var_u), Term::Var(var_v)}};
      bin_rule.body.push_back(
          Literal{out.views.back().name,
                  {Term::Var(var_u), Term::Var(var_v)}});
      out.bin_program.rules.push_back(std::move(bin_rule));
      continue;
    }

    std::vector<Term> zb = ArgsAt(r.derived, r.derived_adorned.adornment, true);
    std::vector<Term> zf =
        ArgsAt(r.derived, r.derived_adorned.adornment, false);
    bool zf_vars_ok = true;
    std::vector<SymbolId> zf_vars = AsVars(zf, &zf_vars_ok);
    if (!zf_vars_ok) {
      return Status::Internal(
          "constant at a free position of an adorned literal");
    }

    bool trivial_in = r.prefix.empty() && SameVarSequence(xb, zb);
    bool trivial_out = r.suffix.empty() && SameVarSequence(zf, xf);

    SymbolId in_name = 0, out_name = 0;
    if (!trivial_in) {
      ViewDefinition view;
      view.name = symbols.Intern("in~" + rule_tag);
      view.body = r.prefix;
      view.input_vars = xb_vars;
      view.output_terms = zb;
      in_name = view.name;
      out.views.push_back(std::move(view));
    }
    if (!trivial_out) {
      ViewDefinition view;
      view.name = symbols.Intern("out~" + rule_tag);
      view.body = r.suffix;
      view.input_vars = zf_vars;
      view.output_terms = xf;
      out_name = view.name;
      out.views.push_back(std::move(view));
    }

    // bin-p(U, V) :- [in-r(U, U1)], bin-q(U1, V1), [out-r(V1, V)].
    Rule bin_rule;
    bin_rule.head = Literal{head_bin, {Term::Var(var_u), Term::Var(var_v)}};
    Term left = Term::Var(var_u);
    Term right = Term::Var(var_v);
    Term mid_left = trivial_in ? left : Term::Var(var_u1);
    Term mid_right = trivial_out ? right : Term::Var(var_v1);
    if (!trivial_in) {
      bin_rule.body.push_back(Literal{in_name, {left, mid_left}});
    }
    bin_rule.body.push_back(
        Literal{bin_name(r.derived_adorned), {mid_left, mid_right}});
    if (!trivial_out) {
      bin_rule.body.push_back(Literal{out_name, {mid_right, right}});
    }
    out.bin_program.rules.push_back(std::move(bin_rule));
  }

  // Query translation: bin-q^a(t(constants), t(Yf)).
  out.query_pred = bin_name(adorned.query);
  for (size_t i = 0; i < adorned.query_literal.args.size(); ++i) {
    if (adorned.query.adornment.bound[i]) {
      out.bound_positions.push_back(i);
      out.query_input.push_back(adorned.query_literal.args[i].symbol);
    } else {
      out.free_positions.push_back(i);
    }
  }
  return out;
}

Result<TransformedQueryResult> EvaluateViaBinarization(
    const Program& program, Database& db, const Literal& query,
    const EvalOptions& options, bool allow_non_chain) {
  auto adorned = AdornProgram(program, db.symbols(), query);
  if (!adorned.ok()) return adorned.status();
  auto bin = Binarize(adorned.value(), db.symbols());
  if (!bin.ok()) return bin.status();
  const BinarizedProgram& bp = bin.value();
  if (!bp.is_chain && !allow_non_chain) {
    return Status::Unsupported(
        "the adorned program is not a chain program; the binary-chain "
        "transformation would not be equivalent (Lemma 6)");
  }

  auto eqs = TransformToEquations(bp.bin_program, db.symbols());
  if (!eqs.ok()) return eqs.status();

  ViewRegistry views(&db.symbols());
  std::vector<DemandJoinView*> view_ptrs;
  for (const ViewDefinition& vd : bp.views) {
    auto view = std::make_unique<DemandJoinView>(
        &db, &views.pool(), vd.body, vd.input_vars, vd.output_terms);
    view_ptrs.push_back(view.get());
    views.Register(vd.name, std::move(view));
  }

  Engine engine(&eqs.value().final_system, &views);
  TransformedQueryResult result;
  result.is_chain = bp.is_chain;
  result.bin_program_text = ProgramToString(bp.bin_program, db.symbols());

  TermId source = views.pool().InternTuple(bp.query_input);
  auto answers = engine.EvalFrom(bp.query_pred, source, options, &result.stats);
  if (!answers.ok()) return answers.status();
  for (DemandJoinView* v : view_ptrs) {
    if (!v->status().ok()) return v->status();
  }

  // The adornment frees every variable position independently, so a query
  // repeating a variable, p(X, X), is evaluated as p(X, Y): keep only the
  // tuples that agree wherever the query repeats a variable.
  auto agrees = [&query](const Tuple& t) {
    for (size_t i = 0; i < query.args.size(); ++i) {
      for (size_t j = i + 1; j < query.args.size(); ++j) {
        if (query.args[i].IsVar() && query.args[i] == query.args[j] &&
            t[i] != t[j]) {
          return false;
        }
      }
    }
    return true;
  };
  for (TermId y : answers.value()) {
    Tuple free_vals = views.pool().Get(y);
    BINCHAIN_CHECK(free_vals.size() == bp.free_positions.size());
    Tuple full(query.args.size(), 0);
    for (size_t i = 0; i < bp.bound_positions.size(); ++i) {
      full[bp.bound_positions[i]] = bp.query_input[i];
    }
    for (size_t i = 0; i < bp.free_positions.size(); ++i) {
      full[bp.free_positions[i]] = free_vals[i];
    }
    if (agrees(full)) result.tuples.push_back(std::move(full));
  }
  std::sort(result.tuples.begin(), result.tuples.end());
  result.tuples.erase(
      std::unique(result.tuples.begin(), result.tuples.end()),
      result.tuples.end());
  return result;
}

}  // namespace binchain
