// Standalone storage-layer benchmark runner: times the same-generation
// query across the engine and the baseline strategies on the Figure 7 /
// Figure 8 samples and a wide ladder, reporting wall time plus the paper's
// `t`-cost (EDB fetch count) per benchmark.
//
// The engine appears twice: "ours" rows go through QueryEngine::Query (the
// facade: literal resolution, binding-pattern dispatch, tuple shaping),
// "ours-core" rows call Engine::EvalFrom on prebuilt views, the setup the
// counting and Henschen-Naqvi rows get. The gap between the two is the
// facade's cost; both must report the same fetches and nodes, and the
// table prints the core's wall time per node of G(p, a, i).
//
// Usage:
//   bench_storage [--n <size>] [--reps <k>] [--smoke] [--json [path]]
//
// `--json` writes BENCH_storage.json (or the given path) so successive PRs
// can track the perf trajectory; without it a table goes to stdout.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "baselines/bottom_up.h"
#include "baselines/counting.h"
#include "baselines/magic.h"
#include "bench_util.h"
#include "datalog/parser.h"
#include "equations/lemma1.h"
#include "eval/query.h"
#include "workloads/workloads.h"

namespace {

using namespace binchain;
using bench::JsonEscape;
using bench::MsSince;

struct BenchResult {
  std::string name;
  double wall_ms = 0;    // best-of-reps wall time of one query
  uint64_t fetches = 0;  // EDB retrievals during that query
  uint64_t results = 0;  // answer-set size (sanity: must match across PRs)
  int64_t nodes = -1;    // |G(p, a, i)| on ours / ours-core rows, else -1
  bool ok = true;
  std::string error;
};

/// Runs `body` `reps` times; records the fastest wall time and the fetch
/// delta / result count of that run.
template <typename Fn>
BenchResult Measure(const std::string& name, Database& db, int reps, Fn body) {
  BenchResult r;
  r.name = name;
  r.wall_ms = 1e300;
  for (int i = 0; i < reps; ++i) {
    uint64_t fetches_before = db.TotalFetches();
    auto t0 = std::chrono::steady_clock::now();
    Result<uint64_t> count = body();
    double ms = MsSince(t0);
    if (!count.ok()) {
      r.ok = false;
      r.error = count.status().message();
      return r;
    }
    if (ms < r.wall_ms) {
      r.wall_ms = ms;
      r.fetches = db.TotalFetches() - fetches_before;
      r.results = count.value();
    }
  }
  return r;
}

BenchResult Failed(const std::string& name, const Status& status) {
  BenchResult r;
  r.name = name;
  r.ok = false;
  r.error = status.message();
  return r;
}

/// QueryEngine::Query for sg(source, Y): the facade path.
BenchResult MeasureOurs(const std::string& name, Database& db,
                        const std::string& source, const EvalOptions& options,
                        int reps) {
  QueryEngine engine(&db);
  Status loaded = engine.LoadProgramText(workloads::SgProgramText());
  if (!loaded.ok()) return Failed(name, loaded);
  Literal query = ParseLiteral("sg(" + source + ", Y)", db.symbols()).take();
  uint64_t nodes = 0;
  BenchResult result = Measure(name, db, reps, [&]() -> Result<uint64_t> {
    auto r = engine.Query(query, options);
    if (!r.ok()) return r.status();
    nodes = r.value().stats.nodes;
    return static_cast<uint64_t>(r.value().tuples.size());
  });
  result.nodes = static_cast<int64_t>(nodes);
  return result;
}

/// Engine::EvalFrom alone for sg(source, Y): program transform, view
/// registry and engine are built outside the timed region.
BenchResult MeasureCore(const std::string& name, Database& db,
                        const std::string& source, const EvalOptions& options,
                        int reps) {
  Program program =
      ParseProgram(workloads::SgProgramText(), db.symbols()).take();
  auto eqs = TransformToEquations(program, db.symbols());
  if (!eqs.ok()) return Failed(name, eqs.status());
  ViewRegistry views(&db.symbols());
  views.RegisterDatabase(db);
  Engine engine(&eqs.value().final_system, &views);
  SymbolId sg = *db.symbols().Find("sg");
  TermId src = views.pool().Unary(*db.symbols().Find(source));
  uint64_t nodes = 0;
  BenchResult result = Measure(name, db, reps, [&]() -> Result<uint64_t> {
    EvalStats stats;
    auto r = engine.EvalFrom(sg, src, options, &stats);
    if (!r.ok()) return r.status();
    nodes = stats.nodes;
    return static_cast<uint64_t>(r.value().size());
  });
  result.nodes = static_cast<int64_t>(nodes);
  return result;
}

using SampleFn = std::string (*)(Database&, size_t);

struct Case {
  std::string label;
  SampleFn build;
};

/// The wide ladder of bench_linear: h levels, `width` rungs per level.
std::string WideLadder(Database& db, size_t h, size_t width) {
  for (size_t i = 1; i < h; ++i) {
    db.AddFact("up", {"a" + std::to_string(i), "a" + std::to_string(i + 1)});
    db.AddFact("down", {"b" + std::to_string(i + 1), "b" + std::to_string(i)});
  }
  for (size_t i = 1; i <= h; ++i) {
    for (size_t w = 0; w < width; ++w) {
      std::string mid = "m" + std::to_string(i) + "_" + std::to_string(w);
      db.AddFact("flat", {"a" + std::to_string(i), mid});
      db.AddFact("down", {mid, "b" + std::to_string(i)});
    }
  }
  return "a1";
}

void RunSample(const std::string& label, SampleFn build, size_t n,
               size_t small_n, int reps, std::vector<BenchResult>& out) {
  // One database per strategy family so warm indexes are comparable and
  // fetch counters are attributable.
  {
    Database db;
    std::string a = build(db, n);
    out.push_back(
        MeasureOurs(label + "/ours/n=" + std::to_string(n), db, a, {}, reps));
  }
  {
    Database db;
    std::string a = build(db, n);
    out.push_back(MeasureCore(label + "/ours-core/n=" + std::to_string(n), db,
                              a, {}, reps));
  }
  {
    Database db;
    std::string a = build(db, n);
    Program program = ParseProgram(workloads::SgProgramText(), db.symbols()).take();
    auto eqs = TransformToEquations(program, db.symbols());
    LinearNormalForm nf;
    if (eqs.ok() && MatchLinearNormalForm(eqs.value().final_system,
                                          *db.symbols().Find("sg"), &nf)) {
      ViewRegistry views(&db.symbols());
      views.RegisterDatabase(db);
      TermId src = views.pool().Unary(*db.symbols().Find(a));
      size_t cap = 4 * n;
      out.push_back(Measure(label + "/counting/n=" + std::to_string(n), db,
                            reps, [&]() -> Result<uint64_t> {
                              LevelStats stats;
                              auto r = CountingQuery(views, nf, src, cap, &stats);
                              if (!r.ok()) return r.status();
                              return static_cast<uint64_t>(r.value().size());
                            }));
      out.push_back(Measure(label + "/henschen-naqvi/n=" + std::to_string(n),
                            db, reps, [&]() -> Result<uint64_t> {
                              LevelStats stats;
                              auto r = HenschenNaqviQuery(views, nf, src, cap,
                                                          &stats);
                              if (!r.ok()) return r.status();
                              return static_cast<uint64_t>(r.value().size());
                            }));
    }
  }
  // Bottom-up strategies are quadratic-ish on these samples: smaller n.
  {
    Database db;
    std::string a = build(db, small_n);
    Program program = ParseProgram(workloads::SgProgramText(), db.symbols()).take();
    Literal query = ParseLiteral("sg(" + a + ", Y)", db.symbols()).take();
    out.push_back(Measure(label + "/seminaive/n=" + std::to_string(small_n),
                          db, reps, [&]() -> Result<uint64_t> {
                            BottomUpStats stats;
                            auto r = SeminaiveQuery(program, db, query, &stats,
                                                    1000000);
                            if (!r.ok()) return r.status();
                            return static_cast<uint64_t>(r.value().size());
                          }));
    out.push_back(Measure(label + "/magic/n=" + std::to_string(small_n), db,
                          reps, [&]() -> Result<uint64_t> {
                            BottomUpStats stats;
                            auto r = MagicQuery(program, db, query, &stats);
                            if (!r.ok()) return r.status();
                            return static_cast<uint64_t>(r.value().size());
                          }));
    out.push_back(Measure(label + "/naive/n=" + std::to_string(small_n), db,
                          reps, [&]() -> Result<uint64_t> {
                            BottomUpStats stats;
                            auto r = NaiveQuery(program, db, query, &stats,
                                                1000000);
                            if (!r.ok()) return r.status();
                            return static_cast<uint64_t>(r.value().size());
                          }));
  }
}

void RunAll(size_t n, size_t small_n, int reps, std::vector<BenchResult>& out) {
  RunSample("fig7a", &workloads::Fig7a, n, small_n, reps, out);
  RunSample("fig7b", &workloads::Fig7b, n, small_n, reps, out);
  RunSample("fig7c", &workloads::Fig7c, n, small_n, reps, out);

  {  // the linear-case ladder (bench_linear's shape)
    Database db;
    std::string a = WideLadder(db, n / 2, 8);
    out.push_back(MeasureOurs("ladder/ours/h=" + std::to_string(n / 2), db, a,
                              {}, reps));
  }
  {
    Database db;
    std::string a = WideLadder(db, n / 2, 8);
    out.push_back(MeasureCore("ladder/ours-core/h=" + std::to_string(n / 2),
                              db, a, {}, reps));
  }
  // Figure 8 cyclic data under the |D1|*|D2| bound
  size_t m = std::max<size_t>(3, small_n / 8 | 1);
  size_t cyc_n = m + 2;  // coprime with m (m odd)
  std::string dims = "m=" + std::to_string(m) + ",n=" + std::to_string(cyc_n);
  EvalOptions cyclic;
  cyclic.use_cyclic_bound = true;
  {
    Database db;
    std::string a = workloads::Fig8(db, m, cyc_n);
    out.push_back(
        MeasureOurs("fig8/ours-cyclic/" + dims, db, a, cyclic, reps));
  }
  {
    Database db;
    std::string a = workloads::Fig8(db, m, cyc_n);
    out.push_back(
        MeasureCore("fig8/ours-core-cyclic/" + dims, db, a, cyclic, reps));
  }
}

}  // namespace

int main(int argc, char** argv) {
  size_t n = 256, small_n = 128;
  int reps = 3;
  bool json = false;
  std::string json_path = "BENCH_storage.json";
  for (int i = 1; i < argc; ++i) {
    if (!std::strcmp(argv[i], "--n") && i + 1 < argc) {
      n = static_cast<size_t>(std::atol(argv[++i]));
      small_n = n / 2;
    } else if (!std::strcmp(argv[i], "--reps") && i + 1 < argc) {
      reps = std::atoi(argv[++i]);
    } else if (!std::strcmp(argv[i], "--smoke")) {
      n = 64;
      small_n = 32;
      reps = 1;
    } else if (!std::strcmp(argv[i], "--json")) {
      json = true;
      if (i + 1 < argc && argv[i + 1][0] != '-') json_path = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: %s [--n <size>] [--reps <k>] [--smoke] "
                   "[--json [path]]\n",
                   argv[0]);
      return 2;
    }
  }

  std::vector<BenchResult> results;
  RunAll(n, small_n, reps, results);

  int failures = 0;
  std::printf("%-36s %12s %12s %10s %10s %8s\n", "benchmark", "wall_ms",
              "fetches", "results", "nodes", "ns/node");
  for (const BenchResult& r : results) {
    if (!r.ok) {
      ++failures;
      std::printf("%-36s ERROR: %s\n", r.name.c_str(), r.error.c_str());
      continue;
    }
    std::printf("%-36s %12.3f %12llu %10llu", r.name.c_str(), r.wall_ms,
                static_cast<unsigned long long>(r.fetches),
                static_cast<unsigned long long>(r.results));
    if (r.nodes >= 0) std::printf(" %10lld", static_cast<long long>(r.nodes));
    if (r.nodes > 0 && r.name.find("/ours-core") != std::string::npos) {
      std::printf(" %8.1f", r.wall_ms * 1e6 / static_cast<double>(r.nodes));
    }
    std::printf("\n");
  }

  if (json) {
    std::ofstream out(json_path);
    out << "{\n  \"bench\": \"storage\",\n  \"host\": " << bench::HostJson()
        << ",\n  \"benchmarks\": [\n";
    for (size_t i = 0; i < results.size(); ++i) {
      const BenchResult& r = results[i];
      out << "    {\"name\": \"" << JsonEscape(r.name) << "\", \"ok\": "
          << (r.ok ? "true" : "false") << ", \"wall_ms\": " << r.wall_ms
          << ", \"fetches\": " << r.fetches << ", \"results\": " << r.results;
      if (r.nodes >= 0) out << ", \"nodes\": " << r.nodes;
      out << "}" << (i + 1 < results.size() ? "," : "") << "\n";
    }
    out << "  ]\n}\n";
    std::printf("wrote %s\n", json_path.c_str());
  }
  return failures == 0 ? 0 : 1;
}
