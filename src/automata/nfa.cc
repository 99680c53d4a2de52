#include "automata/nfa.h"

#include "util/check.h"

namespace binchain {

std::string Nfa::ToString(const SymbolTable& symbols) const {
  std::string out;
  out += "initial: q" + std::to_string(initial_) + ", final: q" +
         std::to_string(final_) + "\n";
  for (uint32_t s = 0; s < states_.size(); ++s) {
    for (const NfaTransition& t : states_[s]) {
      out += "q" + std::to_string(s) + " --";
      switch (t.label.kind) {
        case NfaLabel::Kind::kId:
          out += "id";
          break;
        case NfaLabel::Kind::kRel:
          out += symbols.Name(t.label.pred);
          if (t.label.inverted) out += "^-1";
          break;
        case NfaLabel::Kind::kDerived:
          out += "[" + symbols.Name(t.label.pred) + "]";
          break;
      }
      out += "--> q" + std::to_string(t.target) + "\n";
    }
  }
  return out;
}

namespace {

struct Fragment {
  uint32_t in;
  uint32_t out;
};

Fragment Build(Nfa& nfa, const RexPtr& e,
               const std::function<bool(SymbolId)>& is_derived) {
  switch (e->kind) {
    case Rex::Kind::kEmpty: {
      // Two states, no connection: denotes the empty relation.
      Fragment f{nfa.AddState(), nfa.AddState()};
      return f;
    }
    case Rex::Kind::kId: {
      Fragment f{nfa.AddState(), nfa.AddState()};
      nfa.AddTransition(f.in, NfaLabel::Id(), f.out);
      return f;
    }
    case Rex::Kind::kPred: {
      Fragment f{nfa.AddState(), nfa.AddState()};
      NfaLabel label = is_derived(e->pred)
                           ? NfaLabel::Derived(e->pred)
                           : NfaLabel::Rel(e->pred, e->inverted);
      nfa.AddTransition(f.in, label, f.out);
      return f;
    }
    case Rex::Kind::kUnion: {
      Fragment f{nfa.AddState(), nfa.AddState()};
      for (const RexPtr& k : e->kids) {
        Fragment kf = Build(nfa, k, is_derived);
        nfa.AddTransition(f.in, NfaLabel::Id(), kf.in);
        nfa.AddTransition(kf.out, NfaLabel::Id(), f.out);
      }
      return f;
    }
    case Rex::Kind::kConcat: {
      Fragment first = Build(nfa, e->kids[0], is_derived);
      uint32_t cur = first.out;
      for (size_t i = 1; i < e->kids.size(); ++i) {
        Fragment kf = Build(nfa, e->kids[i], is_derived);
        nfa.AddTransition(cur, NfaLabel::Id(), kf.in);
        cur = kf.out;
      }
      return Fragment{first.in, cur};
    }
    case Rex::Kind::kStar: {
      Fragment inner = Build(nfa, e->kids[0], is_derived);
      Fragment f{nfa.AddState(), nfa.AddState()};
      nfa.AddTransition(f.in, NfaLabel::Id(), f.out);       // zero times
      nfa.AddTransition(f.in, NfaLabel::Id(), inner.in);    // enter
      nfa.AddTransition(inner.out, NfaLabel::Id(), f.out);  // exit
      nfa.AddTransition(inner.out, NfaLabel::Id(), inner.in);  // repeat
      return f;
    }
  }
  BINCHAIN_CHECK(false && "unreachable");
  return Fragment{0, 0};
}

}  // namespace

Nfa BuildNfa(const RexPtr& e, const std::function<bool(SymbolId)>& is_derived) {
  Nfa nfa;
  Fragment f = Build(nfa, e, is_derived);
  nfa.set_initial(f.in);
  nfa.set_final(f.out);
  return nfa;
}

}  // namespace binchain
