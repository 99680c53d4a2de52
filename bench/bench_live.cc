// Standalone live-update benchmark: publish latency and query throughput
// during continuous ingestion, on the ladder workload (Fig. 7c shape).
//
// Part 1 — publish latency scaling: for each initial ladder size, run a
// train of publishes that each append a fixed number of rungs, and report
// the median/mean/max publish wall time. Because Publish() builds the
// successor epoch from shared storage plus a delta layer (incremental
// index catch-up, symbol extension), the median must stay roughly flat as
// the database grows — the "sublinear" gate below compares the latency
// ratio of the largest and smallest size against the size ratio. Each
// train also reports its write amplification: rows and spellings chain
// compaction copied per row and spelling added (PublishStats::
// rows_compacted). Trains run at least 2 * (kMaxChainDepth + 1) publishes,
// so every depth-cap event happens twice, while staying below the doubling
// rule (`below_doubling`), so no root rewrite mixes in: size-tiered merges
// copy what the deltas added, whatever the database size, and
// bench/check_regression.py fails a ratio that grows with it. A cold
// rebuild of the final database is timed alongside as the contrast, and
// the final epoch's answers are checked against that rebuild.
//
// Part 2 — serving during ingestion: a publisher thread keeps staging and
// publishing rungs while the main thread pumps query batches through the
// service; reports queries/sec, publishes completed, and the epoch range
// observed, then verifies the drained final epoch against a cold rebuild.
//
// Part 3 — durable publish overhead: the same publish train run three
// ways against the largest ladder — in-memory (no sink), with a WAL
// attached but fdatasync off (the structural cost of logging every staged
// op plus a COMMIT record), and with fdatasync'd commits (a real durable
// deployment). Reports the p50 of each and the overhead ratios; the
// regression gate (bench/check_regression.py) bounds the no-fsync ratio —
// record framing and appends must stay cheap relative to Publish() itself,
// while raw fdatasync latency is hardware the gate does not second-guess.
// The fsync'd run's WAL directory is then recovered from scratch and the
// recovered tip must render fact-for-fact identical to the pre-shutdown
// tip (folded into `ok`).
//
// Usage:
//   bench_live [--sizes <list>] [--publishes <k>] [--delta <rungs>]
//              [--threads <n>] [--duration-ms <t>] [--smoke] [--json [path]]
//
// `--json` writes BENCH_live.json (default path) so successive PRs can
// track the live-serving trajectory alongside BENCH_storage/BENCH_service.
#include <stdlib.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <numeric>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "datalog/parser.h"
#include "durability/recovery.h"
#include "durability/wal.h"
#include "live/snapshot_manager.h"
#include "service/query_service.h"
#include "workloads/workloads.h"

namespace {

using namespace binchain;
using bench::JsonEscape;
using bench::MsSince;

std::string N(const char* prefix, size_t i) {
  return prefix + std::to_string(i);
}

/// Appends ladder rung `r` (valid for r >= 2) to the staged delta:
/// up(a_{r-1}, a_r), flat(a_r, b_r), down(b_r, b_{r-1}). Fig7c(n) plus
/// rungs n+1..m is fact-identical to Fig7c(m), which is what the cold
/// rebuild check relies on.
void StageRung(SnapshotManager& manager, size_t r) {
  manager.AddFact("up", {N("a", r - 1), N("a", r)});
  manager.AddFact("flat", {N("a", r), N("b", r)});
  manager.AddFact("down", {N("b", r), N("b", r - 1)});
}

std::vector<QueryRequest> SampleRequests(size_t ladder_size, size_t count) {
  std::vector<QueryRequest> requests;
  size_t step = std::max<size_t>(1, ladder_size / count);
  for (size_t i = 1; i <= ladder_size && requests.size() < count; i += step) {
    QueryRequest req;
    req.pred = "sg";
    req.source = N("a", i);
    requests.push_back(std::move(req));
  }
  return requests;
}

/// Tuples rendered by name, so live epochs and cold rebuilds compare even
/// though their intern orders differ.
std::vector<std::string> Render(const std::vector<Tuple>& tuples,
                                const SymbolTable& symbols) {
  std::vector<std::string> out;
  for (const Tuple& t : tuples) {
    out.push_back(symbols.Name(t[0]) + "|" + symbols.Name(t[1]));
  }
  std::sort(out.begin(), out.end());
  return out;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

struct PublishTrainResult {
  std::string name;
  size_t initial_size = 0;
  size_t final_size = 0;
  size_t publishes = 0;
  size_t delta_rungs = 0;
  double publish_p50_ms = 0;
  double publish_mean_ms = 0;
  double publish_max_ms = 0;
  double build_p50_ms = 0;
  double freeze_p50_ms = 0;
  /// Epoch-shared artifact refresh inside Publish(); O(delta) by contract,
  /// so the median must stay flat as the database grows (the sublinear
  /// gate below covers it through wall_ms).
  double artifact_p50_ms = 0;
  /// Rows and spellings copied by compaction per row and spelling added.
  double compacted_rows_per_added_row = 0;
  /// No relation and not the symbol table received as many entries as the
  /// doubling rule needs to rewrite its root.
  bool below_doubling = true;
  double cold_rebuild_ms = 0;  // full rebuild + freeze of the final db
  bool ok = true;
  std::string error;
};

struct IngestResult {
  std::string name;
  size_t queries = 0;
  size_t batches = 0;
  size_t publishes = 0;
  uint64_t first_epoch = 0;
  uint64_t last_epoch = 0;
  double qps = 0;
  double publish_p50_ms = 0;
  bool ok = true;
  std::string error;
};

/// Part 1 runner: one ladder size, `publishes` cycles of `delta_rungs`.
PublishTrainResult RunPublishTrain(size_t size, size_t publishes,
                                   size_t delta_rungs, size_t threads) {
  PublishTrainResult r;
  r.name = "ladder/n=" + std::to_string(size);
  r.initial_size = size;
  r.publishes = publishes;
  r.delta_rungs = delta_rungs;

  auto genesis = std::make_unique<Database>();
  workloads::Fig7c(*genesis, size);
  auto parsed = ParseProgram(workloads::SgProgramText(), genesis->symbols());
  if (!parsed.ok()) {
    r.ok = false;
    r.error = parsed.status().message();
    return r;
  }
  Program program = parsed.take();
  SnapshotManager manager(std::move(genesis));
  QueryService::Options opts;
  opts.num_threads = threads;
  QueryService service(&manager, program, opts);
  if (!service.status().ok()) {
    r.ok = false;
    r.error = service.status().message();
    return r;
  }

  auto genesis_epoch = manager.Acquire();
  std::vector<double> wall, build, freeze, artifact;
  uint64_t added = 0, compacted = 0;
  size_t next_rung = size + 1;
  for (size_t p = 0; p < publishes; ++p) {
    for (size_t d = 0; d < delta_rungs; ++d) StageRung(manager, next_rung++);
    PublishStats ps = manager.Publish();
    wall.push_back(ps.wall_ms);
    build.push_back(ps.build_ms);
    freeze.push_back(ps.freeze_ms);
    artifact.push_back(ps.artifact_ms);
    added += ps.facts_added + ps.new_symbols;
    compacted += ps.rows_compacted;
  }
  r.final_size = next_rung - 1;
  r.publish_p50_ms = Median(wall);
  r.publish_mean_ms = std::accumulate(wall.begin(), wall.end(), 0.0) /
                      static_cast<double>(wall.size());
  r.publish_max_ms = *std::max_element(wall.begin(), wall.end());
  r.compacted_rows_per_added_row =
      added > 0 ? static_cast<double>(compacted) / added : 0;
  auto final_epoch = manager.Acquire();
  for (const std::string& name : genesis_epoch->relation_names()) {
    size_t root = genesis_epoch->Find(name)->size();
    size_t grew = final_epoch->Find(name)->size() - root;
    if (grew >= std::max(root, Relation::kFlattenMinRows)) {
      r.below_doubling = false;
    }
  }
  size_t spellings = genesis_epoch->symbols().size();
  if (final_epoch->symbols().size() - spellings >=
      std::max(spellings, SymbolTable::kFlattenMinSpellings)) {
    r.below_doubling = false;
  }
  r.build_p50_ms = Median(build);
  r.freeze_p50_ms = Median(freeze);
  r.artifact_p50_ms = Median(artifact);

  // The contrast case: cold rebuild of the final database (re-intern every
  // symbol, reload the program, re-index every row) — what each publish
  // would cost without the epoch chain.
  auto t0 = std::chrono::steady_clock::now();
  Database cold;
  workloads::Fig7c(cold, r.final_size);
  QueryEngine cold_engine(&cold);
  if (Status s = cold_engine.LoadProgramText(workloads::SgProgramText());
      !s.ok()) {
    r.ok = false;
    r.error = s.message();
    return r;
  }
  cold.Freeze();
  r.cold_rebuild_ms = MsSince(t0);
  auto requests = SampleRequests(r.final_size, 8);
  auto responses = service.EvalBatch(requests);
  auto tip = manager.Acquire();
  for (size_t i = 0; i < requests.size(); ++i) {
    auto cold_answer = cold_engine.Query("sg(" + requests[i].source + ", Y)");
    if (!responses[i].status.ok() || !cold_answer.ok() ||
        Render(responses[i].tuples, tip->symbols()) !=
            Render(cold_answer.value().tuples, cold.symbols())) {
      r.ok = false;
      r.error = "final epoch diverged from cold rebuild at " +
                requests[i].source;
      return r;
    }
  }
  return r;
}

/// Part 2 runner: publisher thread vs query batches on the service.
IngestResult RunIngest(size_t size, size_t delta_rungs, size_t threads,
                       int duration_ms) {
  IngestResult r;
  r.name = "ingest/n=" + std::to_string(size) +
           ",threads=" + std::to_string(threads);

  auto genesis = std::make_unique<Database>();
  workloads::Fig7c(*genesis, size);
  auto parsed = ParseProgram(workloads::SgProgramText(), genesis->symbols());
  if (!parsed.ok()) {
    r.ok = false;
    r.error = parsed.status().message();
    return r;
  }
  Program program = parsed.take();
  SnapshotManager manager(std::move(genesis));
  QueryService::Options opts;
  opts.num_threads = threads;
  QueryService service(&manager, program, opts);
  if (!service.status().ok()) {
    r.ok = false;
    r.error = service.status().message();
    return r;
  }

  std::atomic<bool> stop{false};
  std::atomic<size_t> next_rung{size + 1};
  std::vector<double> publish_ms;
  std::thread publisher([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      size_t base = next_rung.fetch_add(delta_rungs);
      for (size_t d = 0; d < delta_rungs; ++d) {
        StageRung(manager, base + d);
      }
      publish_ms.push_back(manager.Publish().wall_ms);
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  });

  auto requests = SampleRequests(size, 16);
  r.first_epoch = manager.epoch();
  auto t0 = std::chrono::steady_clock::now();
  double total_ms = 0;
  while (MsSince(t0) < duration_ms) {
    BatchStats stats;
    auto responses = service.EvalBatch(requests, &stats);
    for (const QueryResponse& resp : responses) {
      if (!resp.status.ok()) {
        r.ok = false;
        r.error = resp.status.message();
      }
    }
    total_ms += stats.wall_ms;
    r.queries += stats.queries;
    ++r.batches;
    r.last_epoch = stats.epoch;
  }
  stop.store(true);
  publisher.join();
  r.publishes = publish_ms.size();
  r.publish_p50_ms = Median(publish_ms);
  r.qps = total_ms > 0 ? 1000.0 * static_cast<double>(r.queries) / total_ms
                       : 0;

  // Drain: everything published must now answer like a cold rebuild.
  size_t final_size = next_rung.load() - 1;
  Database cold;
  workloads::Fig7c(cold, final_size);
  QueryEngine cold_engine(&cold);
  if (Status s = cold_engine.LoadProgramText(workloads::SgProgramText());
      !s.ok()) {
    r.ok = false;
    r.error = s.message();
    return r;
  }
  auto final_requests = SampleRequests(final_size, 8);
  auto responses = service.EvalBatch(final_requests);
  auto tip = manager.Acquire();
  for (size_t i = 0; i < final_requests.size(); ++i) {
    auto cold_answer =
        cold_engine.Query("sg(" + final_requests[i].source + ", Y)");
    if (!responses[i].status.ok() || !cold_answer.ok() ||
        Render(responses[i].tuples, tip->symbols()) !=
            Render(cold_answer.value().tuples, cold.symbols())) {
      r.ok = false;
      r.error = "drained epoch diverged from cold rebuild at " +
                final_requests[i].source;
      return r;
    }
  }
  return r;
}

/// Part 3 result: the same publish train in-memory, WAL-attached without
/// fdatasync, and WAL-attached with fdatasync'd commits.
struct DurableResult {
  std::string name;
  size_t initial_size = 0;
  size_t publishes = 0;
  size_t delta_rungs = 0;
  double memory_p50_ms = 0;
  double wal_p50_ms = 0;    // sink attached, fsync_commits = false
  double fsync_p50_ms = 0;  // sink attached, fsync_commits = true
  double wal_overhead = 0;  // wal_p50 / memory_p50 — the gated ratio
  double fsync_overhead = 0;
  uint64_t log_bytes = 0;          // log growth over the fsync'd train
  size_t recovered_batches = 0;    // replayed + checkpoint-skipped
  uint64_t recovered_epoch = 0;
  bool ok = true;
  std::string error;
};

/// Scratch WAL directory, removed on destruction.
class ScratchDir {
 public:
  ScratchDir() {
    std::string tmpl = (std::filesystem::temp_directory_path() /
                        "binchain_bench_wal_XXXXXX")
                           .string();
    std::vector<char> buf(tmpl.begin(), tmpl.end());
    buf.push_back('\0');
    if (char* p = mkdtemp(buf.data())) path_ = p;
  }
  ~ScratchDir() {
    std::error_code ec;
    if (!path_.empty()) std::filesystem::remove_all(path_, ec);
  }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// Every live fact of a snapshot rendered by name, so tips survive the
/// symbol re-interning a recovery implies.
std::set<std::string> RenderTip(const Database& db) {
  std::set<std::string> out;
  for (const std::string& name : db.relation_names()) {
    const Relation* rel = db.Find(name);
    for (TupleRef t : rel->tuples()) {
      std::string s = name;
      for (SymbolId c : t) s += "|" + db.symbols().Name(c);
      out.insert(std::move(s));
    }
  }
  return out;
}

/// Runs one publish train (Part 1 shape, no service) and returns the p50
/// publish wall time, or -1 with `error` set on a refused commit.
double DurableTrainP50(SnapshotManager& manager, size_t size,
                       size_t publishes, size_t delta_rungs,
                       std::string* error) {
  std::vector<double> wall;
  size_t next_rung = size + 1;
  for (size_t p = 0; p < publishes; ++p) {
    for (size_t d = 0; d < delta_rungs; ++d) StageRung(manager, next_rung++);
    PublishStats ps = manager.Publish();
    if (!ps.status.ok()) {
      *error = ps.status.message();
      return -1;
    }
    wall.push_back(ps.wall_ms);
  }
  return Median(wall);
}

/// Part 3 runner. The three trains share size/publish count; the WAL
/// checkpoint threshold is left at its default so no mid-train checkpoint
/// pollutes the publish timings (the Sealed-time genesis checkpoint lands
/// before the timed region).
DurableResult RunDurableOverhead(size_t size, size_t publishes,
                                 size_t delta_rungs) {
  using durability::RecoveredSystem;
  using durability::RecoverSnapshotManager;
  using durability::Wal;
  using durability::WalOptions;

  DurableResult r;
  r.name = "durable/n=" + std::to_string(size);
  r.initial_size = size;
  // Medians of a handful of ~tens-of-microseconds publishes are too noisy
  // to gate on; give the ratio a wider sample than Part 1 needs.
  r.publishes = std::max<size_t>(publishes, 32);
  r.delta_rungs = delta_rungs;

  auto fresh_manager = [&](durability::Wal* sink) {
    auto genesis = std::make_unique<Database>();
    workloads::Fig7c(*genesis, size);
    auto manager = std::make_unique<SnapshotManager>(std::move(genesis));
    if (sink != nullptr) manager->SetDurabilitySink(sink);
    manager->Seal();
    return manager;
  };

  // In-memory baseline: no sink attached.
  {
    auto manager = fresh_manager(nullptr);
    r.memory_p50_ms =
        DurableTrainP50(*manager, size, r.publishes, delta_rungs, &r.error);
    if (r.memory_p50_ms < 0) {
      r.ok = false;
      return r;
    }
  }

  // WAL attached, commits flushed to the OS but not fdatasync'd: the
  // structural logging cost (framing, CRC, appends) alone.
  {
    ScratchDir dir;
    WalOptions wopts;
    wopts.fsync_commits = false;
    auto wal = Wal::Open(dir.path(), wopts);
    if (!wal.ok()) {
      r.ok = false;
      r.error = wal.status().message();
      return r;
    }
    auto manager = fresh_manager(wal.value().get());
    r.wal_p50_ms =
        DurableTrainP50(*manager, size, r.publishes, delta_rungs, &r.error);
    manager->SetDurabilitySink(nullptr);
    if (r.wal_p50_ms < 0) {
      r.ok = false;
      return r;
    }
  }

  // WAL attached with fdatasync'd commits — a real durable deployment —
  // then a from-scratch recovery of the directory, which must land on the
  // same epoch serving the same facts.
  {
    ScratchDir dir;
    std::set<std::string> pre_tip;
    uint64_t pre_epoch = 0;
    {
      auto wal = Wal::Open(dir.path(), WalOptions{});
      if (!wal.ok()) {
        r.ok = false;
        r.error = wal.status().message();
        return r;
      }
      auto manager = fresh_manager(wal.value().get());
      r.fsync_p50_ms =
          DurableTrainP50(*manager, size, r.publishes, delta_rungs, &r.error);
      manager->SetDurabilitySink(nullptr);
      if (r.fsync_p50_ms < 0) {
        r.ok = false;
        return r;
      }
      r.log_bytes = wal.value()->log_bytes();
      auto tip = manager->Acquire();
      pre_tip = RenderTip(*tip);
      pre_epoch = manager->epoch();
    }
    auto recovered = RecoverSnapshotManager(dir.path(), WalOptions{}, nullptr);
    if (!recovered.ok()) {
      r.ok = false;
      r.error = recovered.status().message();
      return r;
    }
    RecoveredSystem sys = recovered.take();
    sys.manager->SetDurabilitySink(nullptr);
    r.recovered_batches =
        sys.stats.batches_replayed + sys.stats.batches_skipped;
    r.recovered_epoch = sys.manager->epoch();
    if (r.recovered_epoch != pre_epoch) {
      r.ok = false;
      r.error = "recovered epoch " + std::to_string(r.recovered_epoch) +
                " != pre-shutdown epoch " + std::to_string(pre_epoch);
      return r;
    }
    if (RenderTip(*sys.manager->Acquire()) != pre_tip) {
      r.ok = false;
      r.error = "recovered tip diverged from pre-shutdown tip";
      return r;
    }
  }

  r.wal_overhead =
      r.memory_p50_ms > 0 ? r.wal_p50_ms / r.memory_p50_ms : 0;
  r.fsync_overhead =
      r.memory_p50_ms > 0 ? r.fsync_p50_ms / r.memory_p50_ms : 0;
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<size_t> sizes = {512, 1024, 2048, 4096};
  // Every depth-cap event of a chain happens twice.
  size_t publishes = 2 * (Relation::kMaxChainDepth + 1);
  size_t delta_rungs = 8;
  size_t threads = 2;
  int duration_ms = 400;
  bool json = false;
  std::string json_path = "BENCH_live.json";
  for (int i = 1; i < argc; ++i) {
    if (!std::strcmp(argv[i], "--sizes") && i + 1 < argc) {
      sizes.clear();
      for (const char* p = argv[++i]; *p;) {
        char* end = nullptr;
        size_t v = static_cast<size_t>(std::strtoul(p, &end, 10));
        if (end == p || v == 0) {
          std::fprintf(stderr, "bad --sizes list (want e.g. 512,2048)\n");
          return 2;
        }
        p = end;
        if (*p == ',') ++p;
        sizes.push_back(v);
      }
    } else if (!std::strcmp(argv[i], "--publishes") && i + 1 < argc) {
      publishes = static_cast<size_t>(std::atol(argv[++i]));
    } else if (!std::strcmp(argv[i], "--delta") && i + 1 < argc) {
      delta_rungs = static_cast<size_t>(std::atol(argv[++i]));
    } else if (!std::strcmp(argv[i], "--threads") && i + 1 < argc) {
      threads = static_cast<size_t>(std::atol(argv[++i]));
    } else if (!std::strcmp(argv[i], "--duration-ms") && i + 1 < argc) {
      duration_ms = std::atoi(argv[++i]);
    } else if (!std::strcmp(argv[i], "--smoke")) {
      // The smallest ladder still holds more spellings than the train
      // adds, so the smoke trains stay below the doubling rule too.
      sizes = {256, 1024};
      duration_ms = 150;
    } else if (!std::strcmp(argv[i], "--json")) {
      json = true;
      if (i + 1 < argc && argv[i + 1][0] != '-') json_path = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: %s [--sizes <list>] [--publishes <k>] "
                   "[--delta <rungs>] [--threads <n>] [--duration-ms <t>] "
                   "[--smoke] [--json [path]]\n",
                   argv[0]);
      return 2;
    }
  }
  if (publishes == 0 || delta_rungs == 0 || sizes.empty()) {
    std::fprintf(stderr, "need nonzero --publishes/--delta and --sizes\n");
    return 2;
  }

  int failures = 0;
  std::vector<PublishTrainResult> trains;
  for (size_t n : sizes) {
    trains.push_back(RunPublishTrain(n, publishes, delta_rungs, threads));
  }

  std::printf(
      "%-20s %9s %9s %10s %10s %10s %10s %10s %12s %10s %14s %5s\n", "train",
      "rows", "publish#", "p50_ms", "mean_ms", "max_ms", "build_p50",
      "freeze_p50", "artifact_p50", "copies/row", "cold_build_ms", "ok");
  for (const PublishTrainResult& t : trains) {
    if (!t.ok) {
      ++failures;
      std::printf("%-20s ERROR: %s\n", t.name.c_str(), t.error.c_str());
      continue;
    }
    std::printf(
        "%-20s %9zu %9zu %10.4f %10.4f %10.4f %10.4f %10.4f %12.4f %10.3f "
        "%14.3f %5s%s\n",
        t.name.c_str(), t.final_size * 3, t.publishes, t.publish_p50_ms,
        t.publish_mean_ms, t.publish_max_ms, t.build_p50_ms, t.freeze_p50_ms,
        t.artifact_p50_ms, t.compacted_rows_per_added_row, t.cold_rebuild_ms,
        t.ok ? "yes" : "NO",
        t.below_doubling ? "" : "  (reached the doubling rule)");
  }

  // The sublinear gate: growing the database by `size_ratio` must not grow
  // median publish latency anywhere near as much. (Exact O(delta) publish
  // shows a ratio near 1; a full re-index would track the size ratio.)
  bool sublinear = true;
  double latency_ratio = 0, size_ratio = 0;
  if (trains.size() >= 2 && trains.front().ok && trains.back().ok) {
    const PublishTrainResult& small = trains.front();
    const PublishTrainResult& large = trains.back();
    size_ratio = static_cast<double>(large.initial_size) /
                 static_cast<double>(small.initial_size);
    latency_ratio = small.publish_p50_ms > 0
                        ? large.publish_p50_ms / small.publish_p50_ms
                        : 0;
    sublinear = latency_ratio < size_ratio / 2;
    std::printf(
        "publish scaling: size x%.1f -> p50 latency x%.2f (%s)\n",
        size_ratio, latency_ratio,
        sublinear ? "sublinear: incremental re-freeze"
                  : "NOT sublinear — publish is re-indexing the world");
    if (!sublinear) ++failures;
  }

  IngestResult ingest =
      RunIngest(sizes.back(), delta_rungs, threads, duration_ms);
  if (!ingest.ok) {
    ++failures;
    std::printf("%-20s ERROR: %s\n", ingest.name.c_str(),
                ingest.error.c_str());
  } else {
    std::printf(
        "%-20s %zu queries in %zu batches, %.1f queries/sec; %zu publishes "
        "(p50 %.4f ms) advanced epoch %llu -> %llu\n",
        ingest.name.c_str(), ingest.queries, ingest.batches, ingest.qps,
        ingest.publishes, ingest.publish_p50_ms,
        static_cast<unsigned long long>(ingest.first_epoch),
        static_cast<unsigned long long>(ingest.last_epoch));
  }

  DurableResult durable =
      RunDurableOverhead(sizes.back(), publishes, delta_rungs);
  if (!durable.ok) {
    ++failures;
    std::printf("%-20s ERROR: %s\n", durable.name.c_str(),
                durable.error.c_str());
  } else {
    std::printf(
        "%-20s publish p50 %.4f ms in-memory, %.4f ms +wal (x%.2f), "
        "%.4f ms +fsync (x%.2f); %llu log bytes, recovered %zu batch(es) "
        "to epoch %llu\n",
        durable.name.c_str(), durable.memory_p50_ms, durable.wal_p50_ms,
        durable.wal_overhead, durable.fsync_p50_ms, durable.fsync_overhead,
        static_cast<unsigned long long>(durable.log_bytes),
        durable.recovered_batches,
        static_cast<unsigned long long>(durable.recovered_epoch));
  }

  if (json) {
    std::ofstream out(json_path);
    out << "{\n  \"bench\": \"live\",\n  \"host\": " << bench::HostJson()
        << ",\n  \"benchmarks\": [\n";
    for (const PublishTrainResult& t : trains) {
      out << "    {\"name\": \"" << JsonEscape(t.name) << "\", \"ok\": "
          << (t.ok ? "true" : "false") << ", \"rows\": " << t.final_size * 3
          << ", \"publishes\": " << t.publishes
          << ", \"delta_rungs\": " << t.delta_rungs
          << ", \"publish_p50_ms\": " << t.publish_p50_ms
          << ", \"publish_mean_ms\": " << t.publish_mean_ms
          << ", \"publish_max_ms\": " << t.publish_max_ms
          << ", \"build_p50_ms\": " << t.build_p50_ms
          << ", \"freeze_p50_ms\": " << t.freeze_p50_ms
          << ", \"artifact_p50_ms\": " << t.artifact_p50_ms
          << ", \"compacted_rows_per_added_row\": "
          << t.compacted_rows_per_added_row
          << ", \"below_doubling\": " << (t.below_doubling ? "true" : "false")
          << ", \"cold_rebuild_ms\": " << t.cold_rebuild_ms << "},\n";
    }
    out << "    {\"name\": \"" << JsonEscape(ingest.name) << "\", \"ok\": "
        << (ingest.ok ? "true" : "false")
        << ", \"queries\": " << ingest.queries << ", \"qps\": " << ingest.qps
        << ", \"publishes\": " << ingest.publishes
        << ", \"publish_p50_ms\": " << ingest.publish_p50_ms
        << ", \"first_epoch\": " << ingest.first_epoch
        << ", \"last_epoch\": " << ingest.last_epoch << "}\n  ],\n";
    out << "  \"durable_publish\": {\"name\": \"" << JsonEscape(durable.name)
        << "\", \"ok\": " << (durable.ok ? "true" : "false")
        << ", \"publishes\": " << durable.publishes
        << ", \"delta_rungs\": " << durable.delta_rungs
        << ", \"memory_p50_ms\": " << durable.memory_p50_ms
        << ", \"wal_p50_ms\": " << durable.wal_p50_ms
        << ", \"fsync_p50_ms\": " << durable.fsync_p50_ms
        << ", \"wal_overhead\": " << durable.wal_overhead
        << ", \"fsync_overhead\": " << durable.fsync_overhead
        << ", \"log_bytes\": " << durable.log_bytes
        << ", \"recovered_batches\": " << durable.recovered_batches
        << ", \"recovered_epoch\": " << durable.recovered_epoch << "},\n";
    out << "  \"publish_scaling\": {\"size_ratio\": " << size_ratio
        << ", \"latency_ratio\": " << latency_ratio
        << ", \"sublinear\": " << (sublinear ? "true" : "false") << "}\n}\n";
    std::printf("wrote %s\n", json_path.c_str());
  }
  return failures == 0 ? 0 : 1;
}
