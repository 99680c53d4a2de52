// A small command-line Datalog runner over the library:
//
//   ./datalog_cli [--strategy=graph|seminaive|naive|magic|transform]
//                 [--cyclic-bound] [--max-iterations=N] [--threads=N]
//                 [--async] [--deadline-ms=X] [--queue-depth=N]
//                 [--answer-cache-mb=N]
//                 [--live] [--wal=<dir>] [--stats] [--dot] <file.dl>
//
// --answer-cache-mb=N (service and live modes) puts an N-MiB exact-match
// answer cache in front of submission: repeats are served on the caller
// thread, and in live mode publishes invalidate only the entries whose
// supporting relations changed. The REPL `cache` command prints its
// statistics; `cache clear` drops every entry.
//
// The file contains rules, facts, and `?- query.` lines; every query is
// evaluated with the chosen strategy and the answers plus work counters are
// printed. With --stats, service and live modes print the full EvalStats of
// every query (nodes, arcs, iterations, expansions, fetches,
// wide_mask_scans, memo_hits). With --dot the automaton M(e_p) of each queried predicate and
// the equation dependency graph are emitted as Graphviz. With --threads=N
// (graph strategy only) the queries are dispatched as one batch to a
// QueryService over a frozen database snapshot, N workers wide, and the
// batch throughput is reported. --async switches that dispatch to the
// future-based submission API (per-query futures, batch stats on Take);
// --deadline-ms=X gives every query an evaluation budget enforced both at
// pickup and mid-flight (expired traversals unwind with partial answers),
// and --queue-depth=N sets the submission queue's high-water mark past
// which async submissions are shed with kOverloaded.
//
// With --live the file's rules and facts become the genesis epoch of a
// SnapshotManager-backed service, and stdin becomes a load/publish REPL:
//
//   live> +up(a9, a10).      stage a fact for the next publish
//   live> -up(a3, a4).       stage a retraction (tombstone) likewise
//   live> publish            merge staged ops into a new serving epoch
//   live> ?- sg(a1, Y).      query the current epoch
//   live> epoch | pending    inspect the serving state
//   live> metrics            Prometheus exposition of the metrics registry
//   live> cache [clear]      answer-cache statistics / drop every entry
//                            (requires --answer-cache-mb=N)
//   live> recover            show the startup recovery report (--wal)
//   live> quit
//
// Staged facts never touch the serving epoch until `publish`; queries keep
// running (and may be issued from other clients) while a publish builds.
//
// With --wal=<dir> (live mode only) every staged op is written to a
// write-ahead log and each publish is committed to stable storage before
// the epoch swaps in; the .dl file still seeds the genesis epoch, the WAL
// carries everything ingested after it. Restarting with the same directory
// replays the committed batches — the service answers kUnavailable until
// the replay lands back on the pre-crash tip — so `publish`ed epochs
// survive a crash or quit. --hold-recovery keeps that gate closed until
// the REPL `recover` command runs the replay, so probes can observe the
// not-ready window.
//
// With --serve-obs=<port> (live mode only) the process also runs the
// admin-plane HTTP server on loopback: /metrics, /metrics.json, /healthz,
// /readyz, /debug/queries, /debug/epochs, /debug/trace (see
// src/server/admin_endpoints.h). Port 0 picks an ephemeral port; the
// bound port is printed as `[admin] listening on ...`.
#include <sys/stat.h>

#include <cctype>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "baselines/bottom_up.h"
#include "baselines/magic.h"
#include "cache/answer_cache.h"
#include "datalog/parser.h"
#include "datalog/printer.h"
#include "durability/recovery.h"
#include "eval/dot_export.h"
#include "eval/query.h"
#include "live/snapshot_manager.h"
#include "obs/metrics.h"
#include "server/admin_endpoints.h"
#include "server/admin_server.h"
#include "server/data_server.h"
#include "service/query_service.h"
#include "transform/binarize.h"

namespace {

using namespace binchain;

int Fail(const std::string& msg) {
  std::fprintf(stderr, "error: %s\n", msg.c_str());
  return 1;
}

void PrintAnswers(const Database& db, const Literal& query,
                  const std::vector<Tuple>& tuples) {
  std::printf("?- %s  (%zu answers)\n",
              LiteralToString(query, db.symbols()).c_str(), tuples.size());
  size_t shown = 0;
  for (const Tuple& t : tuples) {
    if (shown++ >= 20) {
      std::printf("  ...\n");
      break;
    }
    std::printf("  %s\n", TupleToString(t, db.symbols()).c_str());
  }
}

const char* StatusCodeName(StatusCode code) {
  switch (code) {
    case StatusCode::kOk: return "OK";
    case StatusCode::kInvalidArgument: return "INVALID_ARGUMENT";
    case StatusCode::kUnsupported: return "UNSUPPORTED";
    case StatusCode::kNotFound: return "NOT_FOUND";
    case StatusCode::kFailedPrecondition: return "FAILED_PRECONDITION";
    case StatusCode::kDeadlineExceeded: return "DEADLINE_EXCEEDED";
    case StatusCode::kCancelled: return "CANCELLED";
    case StatusCode::kOverloaded: return "OVERLOADED";
    case StatusCode::kInternal: return "INTERNAL";
  }
  return "UNKNOWN";
}

/// Full per-query EvalStats line (service and live modes, --stats).
void PrintEvalStats(const char* tag, const EvalStats& stats,
                    uint64_t fetches) {
  std::printf(
      "  [%s] nodes=%llu arcs=%llu iterations=%llu expansions=%llu "
      "continuations=%llu em_states=%llu fetches=%llu wide_mask_scans=%llu "
      "memo_hits=%llu cancel_checks=%llu%s\n",
      tag, static_cast<unsigned long long>(stats.nodes),
      static_cast<unsigned long long>(stats.arcs),
      static_cast<unsigned long long>(stats.iterations),
      static_cast<unsigned long long>(stats.expansions),
      static_cast<unsigned long long>(stats.continuations),
      static_cast<unsigned long long>(stats.em_states),
      static_cast<unsigned long long>(fetches),
      static_cast<unsigned long long>(stats.wide_mask_scans),
      static_cast<unsigned long long>(stats.memo_hits),
      static_cast<unsigned long long>(stats.cancel_checks),
      stats.hit_iteration_cap ? " (iteration cap hit!)" : "");
}

std::string Trim(const std::string& s) {
  size_t b = s.find_first_not_of(" \t\r\n");
  if (b == std::string::npos) return "";
  size_t e = s.find_last_not_of(" \t\r\n");
  return s.substr(b, e - b + 1);
}

/// Parses `pred(arg, ..., arg)` with an optional trailing period, without
/// touching any symbol table — the live REPL must not intern into frozen
/// epochs (constants unseen by the current epoch simply yield no answers).
bool ParseNameArgs(const std::string& text, std::string* pred,
                   std::vector<std::string>* args) {
  std::string s = Trim(text);
  if (!s.empty() && s.back() == '.') s = Trim(s.substr(0, s.size() - 1));
  size_t open = s.find('(');
  if (open == std::string::npos || s.back() != ')') return false;
  *pred = Trim(s.substr(0, open));
  if (pred->empty()) return false;
  args->clear();
  std::string inner = s.substr(open + 1, s.size() - open - 2);
  size_t start = 0;
  while (true) {
    size_t comma = inner.find(',', start);
    std::string arg = Trim(comma == std::string::npos
                               ? inner.substr(start)
                               : inner.substr(start, comma - start));
    if (arg.empty()) return false;
    args->push_back(arg);
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return true;
}

bool IsVariableSpelling(const std::string& s) {
  return !s.empty() && (std::isupper(static_cast<unsigned char>(s[0])) ||
                        s[0] == '_');
}

/// --metrics-json=<path>: machine-readable dump of the metrics registry
/// (plus the service's slow-query flight recorder, when a service exists)
/// written on exit, so smoke tests can assert the exposition end to end
/// without scraping REPL output.
int DumpMetricsJson(const std::string& path, const QueryService* service) {
  if (path.empty()) return 0;
  std::ofstream out(path);
  if (!out) return Fail("cannot write metrics dump to " + path);
  out << "{\n\"metrics\": " << obs::Registry::Global().RenderJson();
  if (service != nullptr) {
    out << ",\n\"flight_recorder\": " << service->flight_recorder().RenderJson()
        << "\n";
  }
  out << "}\n";
  return 0;
}

/// The load/publish REPL over a live service. `recovered` carries the
/// startup recovery report when the deployment is durable (--wal), nullptr
/// otherwise. Returns the process exit code.
int RunLiveRepl(SnapshotManager& manager, QueryService& service,
                const QueryOptions& options, bool print_stats,
                const durability::RecoveryStats* recovered,
                const std::string& wal_dir,
                std::function<Status()> finish_recovery) {
  std::printf(
      "[live%s] epoch %llu serving on %zu threads; commands: +fact(...), "
      "-fact(...), publish, ?- query, epoch, pending, metrics, recover, "
      "quit\n",
      wal_dir.empty() ? "" : "/durable",
      static_cast<unsigned long long>(manager.epoch()),
      service.num_threads());
  std::string line;
  while (std::printf("live> "), std::fflush(stdout),
         std::getline(std::cin, line)) {
    std::string cmd = Trim(line);
    if (cmd.empty()) continue;
    if (cmd == "quit" || cmd == "exit") break;
    if (cmd == "epoch") {
      std::printf("epoch %llu\n",
                  static_cast<unsigned long long>(manager.epoch()));
      continue;
    }
    if (cmd == "pending") {
      std::printf("%zu staged fact(s)\n", manager.PendingFacts());
      continue;
    }
    if (cmd == "metrics") {
      // Raw Prometheus text exposition: every line starts with '#' or a
      // metric name, so a scraper can split it from the REPL prompts.
      std::fputs(obs::Registry::Global().RenderPrometheus().c_str(), stdout);
      continue;
    }
    if (cmd == "cache" || cmd == "cache clear") {
      cache::AnswerCache* c = service.answer_cache();
      if (c == nullptr) {
        std::printf(
            "no answer cache; restart with --answer-cache-mb=N to enable\n");
        continue;
      }
      if (cmd == "cache clear") {
        c->Clear();
        std::printf("cache cleared\n");
        continue;
      }
      std::string json;
      c->Snapshot().RenderJson(&json);
      std::printf("%s\n", json.c_str());
      continue;
    }
    if (cmd == "recover") {
      if (finish_recovery) {
        // --hold-recovery: the replay was deferred to this command so the
        // not-ready window is observable (e.g. by /readyz probes).
        Status st = finish_recovery();
        if (!st.ok()) {
          std::printf("recovery FAILED: %s\n", st.message().c_str());
          continue;
        }
        finish_recovery = nullptr;
        std::printf("[wal] recovery finished; serving epoch %llu\n",
                    static_cast<unsigned long long>(manager.epoch()));
        continue;
      }
      if (recovered == nullptr) {
        std::printf("not durable; restart with --wal=<dir> to enable\n");
        continue;
      }
      std::printf(
          "[wal] dir=%s\n"
          "  checkpoint: %s (epoch %llu, %llu facts)\n"
          "  log: %llu record(s) scanned, %llu committed batch(es) "
          "(%llu replayed, %llu skipped as checkpointed)\n"
          "  tail: %s (%llu bytes truncated)\n",
          wal_dir.c_str(), recovered->checkpoint_found ? "found" : "none",
          static_cast<unsigned long long>(recovered->checkpoint_epoch),
          static_cast<unsigned long long>(recovered->checkpoint_facts),
          static_cast<unsigned long long>(recovered->records_scanned),
          static_cast<unsigned long long>(recovered->batches_committed),
          static_cast<unsigned long long>(recovered->batches_replayed),
          static_cast<unsigned long long>(recovered->batches_skipped),
          recovered->tail_truncated ? "truncated (torn/uncommitted)" : "clean",
          static_cast<unsigned long long>(recovered->truncated_bytes));
      continue;
    }
    if (cmd == "publish") {
      PublishStats ps = manager.Publish();
      if (!ps.status.ok()) {
        // A refused durable commit: no epoch swap, the batch stays staged.
        std::printf("publish REFUSED (%s); %zu op(s) re-queued\n",
                    ps.status.message().c_str(), manager.PendingFacts());
        continue;
      }
      std::printf(
          "epoch %llu published in %.3f ms: +%llu facts (%llu duplicate, "
          "%llu rejected), -%llu retracted (%llu missing), %llu new "
          "symbols, %llu relation(s) layered, %llu flattened, %llu "
          "merged (%llu rows compacted)%s\n",
          static_cast<unsigned long long>(ps.epoch), ps.wall_ms,
          static_cast<unsigned long long>(ps.facts_added),
          static_cast<unsigned long long>(ps.facts_duplicate),
          static_cast<unsigned long long>(ps.facts_rejected),
          static_cast<unsigned long long>(ps.facts_deleted),
          static_cast<unsigned long long>(ps.facts_delete_missing),
          static_cast<unsigned long long>(ps.new_symbols),
          static_cast<unsigned long long>(ps.relations_touched),
          static_cast<unsigned long long>(ps.relations_flattened),
          static_cast<unsigned long long>(ps.relations_merged),
          static_cast<unsigned long long>(ps.rows_compacted),
          wal_dir.empty()
              ? ""
              : (", commit " + std::to_string(ps.commit_ms) + " ms").c_str());
      continue;
    }
    if (cmd[0] == '+' || cmd[0] == '-') {
      const bool is_delete = cmd[0] == '-';
      std::string pred;
      std::vector<std::string> args;
      if (!ParseNameArgs(cmd.substr(1), &pred, &args)) {
        std::printf("cannot parse fact; want %cpred(c1, ..., cn).\n",
                    cmd[0]);
        continue;
      }
      bool ground = true;
      for (const std::string& arg : args) {
        if (IsVariableSpelling(arg)) {
          std::printf("facts must be ground: '%s' spells a variable\n",
                      arg.c_str());
          ground = false;
          break;
        }
      }
      if (!ground) continue;
      if (is_delete) {
        manager.DeleteFact(pred, args);
        std::printf("staged retraction (%zu pending)\n",
                    manager.PendingFacts());
      } else {
        manager.AddFact(pred, args);
        std::printf("staged (%zu pending)\n", manager.PendingFacts());
      }
      continue;
    }
    if (cmd.rfind("?-", 0) == 0) {
      std::string pred;
      std::vector<std::string> args;
      if (!ParseNameArgs(cmd.substr(2), &pred, &args) || args.size() != 2) {
        std::printf("cannot parse query; want ?- pred(a, Y).\n");
        continue;
      }
      QueryRequest req;
      req.pred = pred;
      req.options = options;
      if (!IsVariableSpelling(args[0])) req.source = args[0];
      if (!IsVariableSpelling(args[1])) req.target = args[1];
      req.diagonal = IsVariableSpelling(args[0]) && args[0] == args[1];
      QueryResponse resp = service.Eval(req);
      if (!resp.status.ok()) {
        std::printf("ERROR: %s\n", resp.status.message().c_str());
        continue;
      }
      // Any tip at or past the response's epoch can render its symbols
      // (epochs only extend the id space).
      auto tip = manager.Acquire();
      std::printf("(%zu answers @ epoch %llu)\n", resp.tuples.size(),
                  static_cast<unsigned long long>(resp.epoch));
      size_t shown = 0;
      for (const Tuple& t : resp.tuples) {
        if (shown++ >= 20) {
          std::printf("  ...\n");
          break;
        }
        std::printf("  %s\n", TupleToString(t, tip->symbols()).c_str());
      }
      if (print_stats) {
        PrintEvalStats("live", resp.stats, resp.fetches);
      } else {
        std::printf(
            "  [live] nodes=%llu iterations=%llu fetches=%llu "
            "wide_scans=%llu\n",
            static_cast<unsigned long long>(resp.stats.nodes),
            static_cast<unsigned long long>(resp.stats.iterations),
            static_cast<unsigned long long>(resp.fetches),
            static_cast<unsigned long long>(resp.stats.wide_mask_scans));
      }
      continue;
    }
    std::printf(
        "commands: +fact(...), -fact(...), publish, ?- query, epoch, "
        "pending, metrics, cache [clear], recover, quit\n");
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string strategy = "graph";
  bool cyclic_bound = false;
  bool dot = false;
  bool live = false;
  std::string wal_dir;
  bool print_stats = false;
  bool async = false;
  double deadline_ms = 0;
  size_t queue_depth = 0;  // 0 = service default
  size_t max_iterations = 0;
  size_t threads = 0;
  size_t answer_cache_mb = 0;  // --answer-cache-mb=N: 0 keeps the cache off
  std::string metrics_json;  // --metrics-json=<path>: dump registry on exit
  int serve_obs = -1;        // --serve-obs=<port>: admin HTTP server (-1 off)
  int serve_data = -1;       // --serve=<port>: data-plane HTTP server (-1 off)
  double serve_qps = 0;      // --serve-qps=N: per-client rate limit (0 off)
  bool hold_recovery = false;  // --hold-recovery: defer replay to `recover`
  std::string path;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--strategy=", 0) == 0) {
      strategy = arg.substr(11);
    } else if (arg == "--cyclic-bound") {
      cyclic_bound = true;
    } else if (arg == "--dot") {
      dot = true;
    } else if (arg == "--live") {
      live = true;
    } else if (arg.rfind("--wal=", 0) == 0) {
      wal_dir = arg.substr(6);
    } else if (arg == "--stats") {
      print_stats = true;
    } else if (arg == "--async") {
      async = true;
    } else if (arg.rfind("--deadline-ms=", 0) == 0) {
      deadline_ms = std::stod(arg.substr(14));
    } else if (arg.rfind("--queue-depth=", 0) == 0) {
      queue_depth = std::stoul(arg.substr(14));
    } else if (arg.rfind("--max-iterations=", 0) == 0) {
      max_iterations = std::stoul(arg.substr(17));
    } else if (arg.rfind("--threads=", 0) == 0) {
      threads = std::stoul(arg.substr(10));
    } else if (arg.rfind("--answer-cache-mb=", 0) == 0) {
      answer_cache_mb = std::stoul(arg.substr(18));
    } else if (arg.rfind("--metrics-json=", 0) == 0) {
      metrics_json = arg.substr(15);
    } else if (arg.rfind("--serve-obs=", 0) == 0) {
      serve_obs = std::stoi(arg.substr(12));
    } else if (arg.rfind("--serve-qps=", 0) == 0) {
      serve_qps = std::stod(arg.substr(12));
    } else if (arg.rfind("--serve=", 0) == 0) {
      serve_data = std::stoi(arg.substr(8));
    } else if (arg == "--hold-recovery") {
      hold_recovery = true;
    } else if (arg == "--help") {
      std::printf(
          "usage: datalog_cli [--strategy=graph|seminaive|naive|magic|"
          "transform] [--cyclic-bound] [--max-iterations=N] [--threads=N] "
          "[--async] [--deadline-ms=X] [--queue-depth=N] "
          "[--answer-cache-mb=N] "
          "[--live] [--wal=<dir>] [--hold-recovery] [--serve-obs=<port>] "
          "[--serve=<port>] [--serve-qps=<N>] "
          "[--metrics-json=<path>] [--stats] [--dot] "
          "<file.dl>\n");
      return 0;
    } else {
      path = arg;
    }
  }
  if (path.empty()) return Fail("no input file (see --help)");
  if (async && threads == 0) {
    return Fail("--async requires service mode (--threads=N)");
  }
  if (!wal_dir.empty() && !live) {
    return Fail("--wal requires --live (durability covers published epochs)");
  }
  if (serve_obs >= 0 && !live) {
    // The admin server needs a long-lived process behind it; the live REPL
    // is the only CLI mode with one.
    return Fail("--serve-obs requires --live");
  }
  if (serve_obs > 65535) return Fail("--serve-obs: port out of range");
  if (serve_data >= 0 && !live) {
    // Streaming queries need the live REPL's long-lived service behind
    // them, same as the admin plane.
    return Fail("--serve requires --live");
  }
  if (serve_data > 65535) return Fail("--serve: port out of range");
  if (serve_qps > 0 && serve_data < 0) {
    return Fail("--serve-qps requires --serve (it limits data-plane clients)");
  }
  if (hold_recovery && wal_dir.empty()) {
    return Fail("--hold-recovery requires --wal (there is no replay to hold)");
  }
  // Deadlines and queue depth are service-layer machinery; rejecting them
  // elsewhere beats silently running an unbounded query.
  if ((deadline_ms > 0 || queue_depth > 0) && threads == 0 && !live) {
    return Fail(
        "--deadline-ms/--queue-depth require service mode (--threads=N or "
        "--live)");
  }

  std::ifstream in(path);
  if (!in) return Fail("cannot open " + path);
  std::stringstream buffer;
  buffer << in.rdbuf();

  if (live) {
    // Live mode: the file seeds the genesis epoch; stdin drives ingestion.
    // With --wal the genesis is instead the recovered pre-crash state (the
    // on-disk checkpoint, with the file's facts folded in by program
    // loading — a fresh directory recovers to the file contents alone).
    auto genesis = std::make_unique<Database>();
    std::unique_ptr<durability::RecoveryManager> recovery;
    if (!wal_dir.empty()) {
      ::mkdir(wal_dir.c_str(), 0777);  // fine if it already exists
      auto loaded = durability::RecoveryManager::Load(wal_dir);
      if (!loaded.ok()) return Fail(loaded.status().message());
      recovery = loaded.take();
      genesis = recovery->BuildGenesis();
    }
    auto parsed = ParseProgram(buffer.str(), genesis->symbols());
    if (!parsed.ok()) return Fail(parsed.status().message());
    Program program = parsed.take();
    Program rules_only = program;
    rules_only.queries.clear();
    QueryOptions options;
    options.use_cyclic_bound = cyclic_bound;
    options.max_iterations = max_iterations;
    options.deadline_ms = deadline_ms;

    SnapshotManager manager(std::move(genesis));
    QueryService::Options opts;
    opts.num_threads = threads;
    if (queue_depth > 0) opts.queue_depth = queue_depth;
    opts.answer_cache_bytes = answer_cache_mb << 20;
    std::unique_ptr<QueryService> service;
    if (recovery != nullptr) {
      service = std::make_unique<QueryService>(&manager, recovery.get(),
                                               rules_only, opts);
    } else {
      service = std::make_unique<QueryService>(&manager, rules_only, opts);
    }
    if (!service->status().ok()) return Fail(service->status().message());

    // The admin plane starts *before* recovery finishes, so /healthz is
    // already 200 (alive) while /readyz still reports 503 (not serving) —
    // the distinction the two probes exist for.
    std::unique_ptr<server::AdminServer> admin;
    if (serve_obs >= 0) {
      server::AdminServerOptions aopts;
      aopts.port = static_cast<uint16_t>(serve_obs);
      admin = std::make_unique<server::AdminServer>(aopts);
      server::RegisterAdminEndpoints(admin.get(), service.get(), &manager);
      if (Status st = admin->Start(); !st.ok()) return Fail(st.message());
      std::printf("[admin] listening on http://127.0.0.1:%u\n",
                  static_cast<unsigned>(admin->port()));
    }

    // The data plane serves POST /v1/query — streamed NDJSON answer
    // chunks with per-client rate limiting (docs/wire_protocol.md).
    std::unique_ptr<server::DataServer> data_server;
    if (serve_data >= 0) {
      server::DataServerOptions dopts;
      dopts.port = static_cast<uint16_t>(serve_data);
      dopts.rate_limit.qps = serve_qps;
      data_server =
          std::make_unique<server::DataServer>(service.get(), dopts);
      if (Status st = data_server->Start(); !st.ok()) {
        return Fail(st.message());
      }
      std::printf("[data] listening on http://127.0.0.1:%u (POST /v1/query)\n",
                  static_cast<unsigned>(data_server->port()));
    }

    durability::RecoveryStats recovery_stats;
    auto finish = [&service, &recovery, &recovery_stats, &manager,
                   &wal_dir]() -> Status {
      // Replays the committed WAL batches and opens the serving gate; the
      // WAL is owned by the service (and drives every publish) from here.
      if (Status st = service->FinishRecovery(); !st.ok()) return st;
      recovery_stats = recovery->stats();
      recovery.reset();
      std::printf(
          "[wal] recovered %s to epoch %llu: %llu batch(es) replayed, "
          "%llu skipped%s\n",
          wal_dir.c_str(), static_cast<unsigned long long>(manager.epoch()),
          static_cast<unsigned long long>(recovery_stats.batches_replayed),
          static_cast<unsigned long long>(recovery_stats.batches_skipped),
          recovery_stats.tail_truncated ? " (torn tail truncated)" : "");
      return Status::Ok();
    };
    std::function<Status()> held_recovery;
    if (recovery != nullptr) {
      if (hold_recovery) {
        // Replay deferred to the REPL `recover` command; until then every
        // submission (and /readyz) reports the closed gate.
        held_recovery = finish;
        std::printf(
            "[wal] recovery held: not serving until `recover` runs\n");
      } else if (Status st = finish(); !st.ok()) {
        return Fail(st.message());
      }
    }

    // The file's own queries run once against the serving tip — unless the
    // recovery gate is still closed (they would all answer kUnavailable).
    auto tip = manager.Acquire();
    if (!service->serving() && !program.queries.empty()) {
      std::printf("[wal] %zu file quer%s skipped while recovery is held\n",
                  program.queries.size(),
                  program.queries.size() == 1 ? "y" : "ies");
      program.queries.clear();
    }
    for (const Literal& q : program.queries) {
      if (q.arity() != 2) return Fail("live queries must be binary");
      QueryRequest req;
      req.pred = tip->symbols().Name(q.predicate);
      if (q.args[0].IsConst()) req.source = tip->symbols().Name(q.args[0].symbol);
      if (q.args[1].IsConst()) req.target = tip->symbols().Name(q.args[1].symbol);
      req.diagonal = q.args[0].IsVar() && q.args[0] == q.args[1];
      req.options = options;
      QueryResponse resp = service->Eval(req);
      if (!resp.status.ok()) return Fail(resp.status.message());
      PrintAnswers(*tip, q, resp.tuples);
      if (print_stats) PrintEvalStats("live", resp.stats, resp.fetches);
    }
    int rc = RunLiveRepl(manager, *service, options, print_stats,
                         wal_dir.empty() ? nullptr : &recovery_stats, wal_dir,
                         std::move(held_recovery));
    if (int mrc = DumpMetricsJson(metrics_json, service.get()); mrc != 0) {
      return mrc;
    }
    return rc;
  }

  Database db;
  auto parsed = ParseProgram(buffer.str(), db.symbols());
  if (!parsed.ok()) return Fail(parsed.status().message());
  Program program = parsed.take();
  if (program.queries.empty()) return Fail("no ?- queries in " + path);

  // Facts are shared by all strategies.
  Program rules_only = program;
  rules_only.queries.clear();

  if (strategy == "graph" && threads > 0) {
    // Service mode: freeze the database and evaluate the queries over the
    // thread pool — as one blocking batch, or through the async
    // future-based submission API with --async.
    QueryService::Options opts;
    opts.num_threads = threads;
    if (queue_depth > 0) opts.queue_depth = queue_depth;
    opts.answer_cache_bytes = answer_cache_mb << 20;
    QueryService service(&db, rules_only, opts);
    if (!service.status().ok()) return Fail(service.status().message());
    QueryOptions options;
    options.use_cyclic_bound = cyclic_bound;
    options.max_iterations = max_iterations;
    options.deadline_ms = deadline_ms;
    std::vector<QueryRequest> batch;
    for (const Literal& q : program.queries) {
      if (q.arity() != 2) return Fail("service queries must be binary");
      QueryRequest req;
      req.pred = db.symbols().Name(q.predicate);
      if (q.args[0].IsConst()) req.source = db.symbols().Name(q.args[0].symbol);
      if (q.args[1].IsConst()) req.target = db.symbols().Name(q.args[1].symbol);
      req.diagonal = q.args[0].IsVar() && q.args[0] == q.args[1];
      req.options = options;
      batch.push_back(std::move(req));
    }
    BatchStats stats;
    std::vector<QueryResponse> responses;
    if (async) {
      // Async submission: per-query futures, aggregates reported by Take.
      responses = service.SubmitBatch(batch).Take(&stats);
      std::printf("[async] batch complete: %llu queries, %.3f ms\n",
                  static_cast<unsigned long long>(stats.queries),
                  stats.wall_ms);
    } else {
      responses = service.EvalBatch(batch, &stats);
    }
    for (size_t i = 0; i < responses.size(); ++i) {
      const QueryResponse& r = responses[i];
      if (!r.status.ok() && !r.partial) {
        std::printf("?- %s  %s: %s\n",
                    LiteralToString(program.queries[i], db.symbols()).c_str(),
                    StatusCodeName(r.status.code()),
                    r.status.message().c_str());
        continue;
      }
      PrintAnswers(db, program.queries[i], r.tuples);
      if (r.partial) {
        std::printf("  [service] %s: partial answer set (%s)\n",
                    StatusCodeName(r.status.code()),
                    r.timed_out ? "deadline expired mid-flight" : "cancelled");
      }
      if (print_stats) {
        PrintEvalStats("service", r.stats, r.fetches);
      } else {
        std::printf(
            "  [service] nodes=%llu arcs=%llu iterations=%llu "
            "fetches=%llu%s\n",
            static_cast<unsigned long long>(r.stats.nodes),
            static_cast<unsigned long long>(r.stats.arcs),
            static_cast<unsigned long long>(r.stats.iterations),
            static_cast<unsigned long long>(r.fetches),
            r.stats.hit_iteration_cap ? " (iteration cap hit!)" : "");
      }
    }
    std::printf(
        "[service%s] %llu queries (%llu failed, %llu timed out, "
        "%llu cancelled, %llu overloaded) on %zu threads: %.3f ms, "
        "%.1f queries/sec\n",
        async ? "/async" : "",
        static_cast<unsigned long long>(stats.queries),
        static_cast<unsigned long long>(stats.failed),
        static_cast<unsigned long long>(stats.timed_out),
        static_cast<unsigned long long>(stats.cancelled),
        static_cast<unsigned long long>(stats.overloaded),
        service.num_threads(), stats.wall_ms,
        stats.wall_ms > 0
            ? 1000.0 * static_cast<double>(stats.queries) / stats.wall_ms
            : 0.0);
    return DumpMetricsJson(metrics_json, &service);
  }

  // The graph and transform strategies both run the engine: both honour
  // --cyclic-bound and --max-iterations.
  EvalOptions options;
  options.use_cyclic_bound = cyclic_bound;
  options.max_iterations = max_iterations;
  if (strategy == "graph") {
    QueryEngine engine(&db);
    if (Status s = engine.LoadProgram(rules_only); !s.ok()) {
      return Fail(s.message());
    }
    if (dot) {
      std::printf("%s\n", EquationDependenciesToDot(engine.equations(),
                                                    db.symbols())
                              .c_str());
    }
    for (const Literal& q : program.queries) {
      auto r = engine.Query(q, options);
      if (!r.ok()) return Fail(r.status().message());
      PrintAnswers(db, q, r.value().tuples);
      std::printf(
          "  [graph] nodes=%llu arcs=%llu iterations=%llu fetches=%llu%s\n",
          static_cast<unsigned long long>(r.value().stats.nodes),
          static_cast<unsigned long long>(r.value().stats.arcs),
          static_cast<unsigned long long>(r.value().stats.iterations),
          static_cast<unsigned long long>(r.value().fetches),
          r.value().stats.hit_iteration_cap ? " (iteration cap hit!)" : "");
    }
    return DumpMetricsJson(metrics_json, nullptr);
  }

  // Bottom-up strategies need the facts in the database.
  LoadFactsInto(db, rules_only.facts);
  rules_only.facts.clear();

  for (const Literal& q : program.queries) {
    BottomUpStats stats;
    Result<std::vector<Tuple>> r = Status::Internal("unset");
    if (strategy == "seminaive") {
      r = SeminaiveQuery(rules_only, db, q, &stats);
    } else if (strategy == "naive") {
      r = NaiveQuery(rules_only, db, q, &stats);
    } else if (strategy == "magic") {
      r = MagicQuery(rules_only, db, q, &stats);
    } else if (strategy == "transform") {
      auto t = EvaluateViaBinarization(rules_only, db, q, options);
      if (!t.ok()) return Fail(t.status().message());
      PrintAnswers(db, q, t.value().tuples);
      std::printf("  [transform] nodes=%llu iterations=%llu chain=%s\n",
                  static_cast<unsigned long long>(t.value().stats.nodes),
                  static_cast<unsigned long long>(t.value().stats.iterations),
                  t.value().is_chain ? "yes" : "no");
      continue;
    } else {
      return Fail("unknown strategy '" + strategy + "'");
    }
    if (!r.ok()) return Fail(r.status().message());
    PrintAnswers(db, q, r.value());
    std::printf("  [%s] firings=%llu tuples=%llu rounds=%llu fetches=%llu\n",
                strategy.c_str(),
                static_cast<unsigned long long>(stats.firings),
                static_cast<unsigned long long>(stats.tuples),
                static_cast<unsigned long long>(stats.rounds),
                static_cast<unsigned long long>(stats.fetches));
  }
  // Engine-only strategies have no service; the registry still dumps (its
  // families just read zero), so scripted callers get a file either way.
  return DumpMetricsJson(metrics_json, nullptr);
}
