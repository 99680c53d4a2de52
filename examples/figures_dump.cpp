// Reconstructs the structural figures of the paper as text:
//   Figure 1: the automaton M(e_p) for e_p = (b3.b4* U b2.p).b1;
//   Figure 6: the automaton EM(sg, i) growth across iterations (reported via
//             engine statistics);
//   the Lemma 1 worked example: initial and final equation systems.
#include <cstdio>

#include "automata/nfa.h"
#include "datalog/parser.h"
#include "equations/lemma1.h"
#include "eval/query.h"
#include "storage/database.h"
#include "workloads/workloads.h"

int main() {
  using namespace binchain;

  {
    std::printf("=== Figure 1: M(e_p) for e_p = (b3.b4* U b2.p).b1 ===\n");
    SymbolTable symbols;
    SymbolId p = symbols.Intern("p");
    RexPtr e = Rex::Concat2(
        Rex::Union2(
            Rex::Concat2(Rex::Pred(symbols.Intern("b3")),
                         Rex::Star(Rex::Pred(symbols.Intern("b4")))),
            Rex::Concat2(Rex::Pred(symbols.Intern("b2")), Rex::Pred(p))),
        Rex::Pred(symbols.Intern("b1")));
    Nfa m = BuildNfa(e, [&](SymbolId s) { return s == p; });
    std::printf("%s\n", m.ToString(symbols).c_str());
  }

  {
    std::printf("=== Lemma 1 worked example ===\n");
    SymbolTable symbols;
    const char* text =
        "p1(X, Z) :- b(X, Y), p2(Y, Z).\n"
        "p1(X, Z) :- q1(X, Y), p3(Y, Z).\n"
        "p2(X, Z) :- c(X, Y), p1(Y, Z).\n"
        "p2(X, Z) :- d(X, Y), p3(Y, Z).\n"
        "p3(X, Y) :- a(X, Y).\n"
        "p3(X, Z) :- e(X, Y), p2(Y, Z).\n"
        "q1(X, Z) :- a(X, Y), q2(Y, Z).\n"
        "q2(X, Y) :- r2(X, Y).\n"
        "q2(X, Z) :- q1(X, Y), r1(Y, Z).\n"
        "r1(X, Y) :- b(X, Y).\n"
        "r1(X, Y) :- r2(X, Y).\n"
        "r2(X, Z) :- r1(X, Y), c(Y, Z).\n";
    auto program = ParseProgram(text, symbols);
    if (!program.ok()) {
      std::fprintf(stderr, "%s\n", program.status().message().c_str());
      return 1;
    }
    auto r = TransformToEquations(program.value(), symbols);
    if (!r.ok()) {
      std::fprintf(stderr, "%s\n", r.status().message().c_str());
      return 1;
    }
    std::printf("initial system (step 1):\n%s\n",
                r.value().initial.ToString(symbols).c_str());
    std::printf("final system (steps 3-9, %zu iterations):\n%s\n",
                r.value().iterations,
                r.value().final_system.ToString(symbols).c_str());
  }

  {
    std::printf("=== Figures 2/6: EM(sg, i) growth on a 3-level ladder ===\n");
    Database db;
    std::string a = workloads::Fig7c(db, 3);
    QueryEngine engine(&db);
    Status s = engine.LoadProgramText(workloads::SgProgramText());
    if (!s.ok()) {
      std::fprintf(stderr, "%s\n", s.message().c_str());
      return 1;
    }
    auto r = engine.Query("sg(" + a + ", Y)");
    if (!r.ok()) {
      std::fprintf(stderr, "%s\n", r.status().message().c_str());
      return 1;
    }
    std::printf(
        "iterations=%llu, machine copies=%llu, final EM states=%llu\n",
        static_cast<unsigned long long>(r.value().stats.iterations),
        static_cast<unsigned long long>(r.value().stats.expansions),
        static_cast<unsigned long long>(r.value().stats.em_states));
    std::printf("answers: %zu (expected: b1)\n", r.value().tuples.size());
  }
  return 0;
}
