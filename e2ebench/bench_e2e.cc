// End-to-end serving benchmark: the real data-plane stack driven over
// loopback sockets by closed-loop clients, every answer checked against
// the seminaive baseline, and an optional traced run that attributes each
// request's wall time to the layers it crossed (tracer.h).
//
// One process runs one workload, so peak RSS and the process-global
// metrics registry are per workload:
//
//   ladder_stream   HTTP, 2 connections, sg(a_i, Y) with i uniform over
//                   Fig. 7(b) n=256; answer cache at a quarter of the
//                   working set. Traversal, expansion and many NDJSON
//                   chunks per response; cache inserts and evictions.
//   cyclic_batch    In-process, 1 caller, back-to-back EvalBatch of the 17
//                   forward and 19 inverted queries of Fig. 8 (m=17,
//                   n=19) under the cyclic bound; cache off. Bypasses the
//                   server and the cache.
//   zipf_cached     HTTP, 2 connections, Zipf(1.07) over a seeded
//                   permutation of the 256 Fig. 7(b) sources; a 64 MiB
//                   cache holds the working set. Decode, admission,
//                   lookup, render and socket write; almost no engine work.
//   ingest_durable  1 HTTP reader (Zipf over the genesis sources of a
//                   Fig. 7(c) ladder, n=2048, cache on) beside 1 writer
//                   publishing 8 rungs every 50 ms through an fsync'd WAL.
//
// Load model: a closed loop. Each connection sends its next request only
// after the previous response's terminating chunk, as an HTTP/1.1
// keep-alive caller without pipelining does. Request sequences come from
// --seed and are generated before anything is timed. A connection serves
// at most kRequestsPerConnection requests, the last one sent with
// `Connection: close`, and fewer if a response says `close`. An EOF before
// any response byte on a reused connection (an unannounced close) fails
// that request, and it is never retried, because POST is not retryable.
//
// Usage:
//   bench_e2e --workload <name> --seed <n> --seconds <s> --workdir <dir>
//             [--warmup <s>] [--setups <k>] [--traced <out-prefix>]
//
// The last stdout line is one JSON object with the run's metrics; the
// exit code is 1 when any answer or check was wrong.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <malloc.h>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "cache/answer_cache.h"
#include "durability/recovery.h"
#include "durability/wal.h"
#include "http_client.h"
#include "live/snapshot_manager.h"
#include "report.h"
#include "server/data_server.h"
#include "service/query_service.h"
#include "tracer.h"
#include "util/rng.h"
#include "workload.h"

namespace {

using namespace binchain;
using e2e::Clock;
using e2e::Ms;
using e2e::Quantile;
using e2e::Report;
using e2e::Request;

constexpr size_t kFig7bN = 256;
constexpr size_t kFig8M = 17;
constexpr size_t kFig8N = 19;
constexpr size_t kIngestN = 2048;
constexpr double kZipfS = 1.07;
/// A quarter of the bytes the answer cache accounts for all 256 Fig. 7(b)
/// answers (measured at the benchmark's introduction: 1 413 780 bytes), so
/// ladder_stream's working set is four times the cache.
constexpr size_t kLadderCacheBytes = 353445;
constexpr size_t kZipfCacheBytes = 64u << 20;
constexpr size_t kIngestCacheBytes = 64u << 20;
constexpr size_t kRungsPerPublish = 8;
constexpr auto kPublishPeriod = std::chrono::milliseconds(50);
/// Small enough that a 25 s phase completes several checkpoints.
constexpr uint64_t kCheckpointLogBytes = 32u << 10;
/// The client's own keep-alive budget, below the server's default of 256.
/// The server's 256th response still says `keep-alive` and the close comes
/// unannounced (README.md, defect 2), so a client that trusted the header
/// would fail every 257th request.
constexpr uint64_t kRequestsPerConnection = 100;
constexpr size_t kSequenceLength = 1u << 16;
constexpr size_t kBatchOrders = 64;
constexpr size_t kTraceSamples = 400;
constexpr size_t kBaselineSamples = 32;
constexpr auto kSetupBurnIn = std::chrono::seconds(2);

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 25;
  double warmup = 2;
  int setups = 5;
  std::string workdir = ".";
  std::string traced;  // output prefix of the traced run; empty = plain
};

struct Spec {
  const char* name;
  e2e::Generator gen;
  size_t cache_bytes;
  size_t workers;      // QueryService worker threads
  size_t connections;  // HTTP connections; 0 = one in-process caller
  bool live;           // ingest: snapshot manager + WAL + writer thread
  size_t level_cap;    // counting/HN level cap (cyclic data needs one)
};

const Spec kSpecs[] = {
    {"ladder_stream", [](Database& db) { workloads::Fig7b(db, kFig7bN); },
     kLadderCacheBytes, 2, 2, false, 4 * kFig7bN},
    {"cyclic_batch",
     [](Database& db) { workloads::Fig8(db, kFig8M, kFig8N); }, 0, 1, 0, false,
     (kFig8M + 1) * (kFig8N + 1)},
    {"zipf_cached", [](Database& db) { workloads::Fig7b(db, kFig7bN); },
     kZipfCacheBytes, 2, 2, false, 4 * kFig7bN},
    {"ingest_durable", [](Database& db) { workloads::Fig7c(db, kIngestN); },
     kIngestCacheBytes, 2, 1, true, 4 * kIngestN},
};

std::string N(const char* prefix, size_t i) {
  return prefix + std::to_string(i);
}

/// `length` draws from Zipf(s) over a seeded permutation of [0, population).
std::vector<uint32_t> ZipfSequence(size_t population, size_t length, Rng& rng) {
  std::vector<uint32_t> perm(population);
  for (size_t i = 0; i < population; ++i) perm[i] = static_cast<uint32_t>(i);
  for (size_t i = population - 1; i > 0; --i) {
    std::swap(perm[i], perm[rng.Below(i + 1)]);
  }
  std::vector<double> cdf;
  double acc = 0;
  for (size_t i = 0; i < population; ++i) {
    acc += 1.0 / std::pow(static_cast<double>(i + 1), kZipfS);
    cdf.push_back(acc);
  }
  std::vector<uint32_t> out;
  out.reserve(length);
  for (size_t i = 0; i < length; ++i) {
    double u = static_cast<double>(rng.Next() >> 11) * 0x1.0p-53 * acc;
    size_t idx = static_cast<size_t>(
        std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
    out.push_back(perm[std::min(idx, population - 1)]);
  }
  return out;
}

/// The workload's distinct requests, and one index sequence per client
/// (for cyclic_batch: kBatchOrders seeded orders of the whole batch).
void MakeInputs(const Spec& spec, uint64_t seed, std::vector<Request>* reqs,
                std::vector<std::vector<uint32_t>>* seqs) {
  std::string name = spec.name;
  uint64_t salt = 1469598103934665603ull;  // FNV-1a of the name
  for (char c : name) salt = (salt ^ static_cast<unsigned char>(c)) * 1099511628211ull;
  Rng rng(seed * 0x9e3779b97f4a7c15ull + salt);
  if (name == "cyclic_batch") {
    for (size_t i = 1; i <= kFig8M; ++i) {
      reqs->push_back(Request::Forward(N("a", i), /*cyclic=*/true));
    }
    for (size_t j = 1; j <= kFig8N; ++j) {
      reqs->push_back(Request::Inverted(N("b", j), /*cyclic=*/true));
    }
    for (size_t k = 0; k < kBatchOrders; ++k) {
      std::vector<uint32_t> order(reqs->size());
      for (size_t i = 0; i < order.size(); ++i) order[i] = static_cast<uint32_t>(i);
      for (size_t i = order.size() - 1; i > 0; --i) {
        std::swap(order[i], order[rng.Below(i + 1)]);
      }
      seqs->push_back(std::move(order));
    }
    return;
  }
  size_t population = spec.live ? kIngestN : kFig7bN;
  for (size_t i = 1; i <= population; ++i) {
    reqs->push_back(Request::Forward(N("a", i)));
  }
  for (size_t c = 0; c < spec.connections; ++c) {
    if (name == "ladder_stream") {
      std::vector<uint32_t> seq;
      for (size_t i = 0; i < kSequenceLength; ++i) {
        seq.push_back(static_cast<uint32_t>(rng.Below(population)));
      }
      seqs->push_back(std::move(seq));
    } else {
      seqs->push_back(ZipfSequence(population, kSequenceLength, rng));
    }
  }
}

/// Everything one setup pass builds. Members are destroyed server first,
/// WAL last.
struct Stack {
  std::string wal_dir;
  std::unique_ptr<durability::Wal> wal;
  std::unique_ptr<Database> db;
  std::unique_ptr<SnapshotManager> manager;
  std::unique_ptr<QueryService> service;
  std::unique_ptr<server::DataServer> server;

  Stack() = default;
  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;
  ~Stack() {
    if (server) server->Stop();
    server.reset();
    service.reset();
    if (manager) manager->SetDurabilitySink(nullptr);
    manager.reset();
    wal.reset();
  }

  /// The serving tip (static workloads: the one frozen database).
  std::shared_ptr<const Database> Tip() const {
    if (manager) return manager->Acquire();
    return std::shared_ptr<const Database>(std::shared_ptr<const Database>(),
                                           db.get());
  }
};

struct SetupTimes {
  double generate_s = 0, prepare_s = 0, warm_s = 0;
  double total() const { return generate_s + prepare_s + warm_s; }
};

double Seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

/// Checks in-process responses against their requests' reference digests.
void CheckResponses(const std::vector<QueryResponse>& resps,
                    const std::vector<const Request*>& reqs,
                    const SymbolTable& symbols, Report* rep,
                    uint64_t* failed) {
  for (size_t i = 0; i < resps.size(); ++i) {
    if (!resps[i].status.ok()) {
      ++*failed;
      rep->Note("in-process " + reqs[i]->Label() + ": " +
                resps[i].status.message());
    } else if (e2e::DigestTuples(resps[i].tuples, symbols) != reqs[i]->expect) {
      rep->Wrong("in-process " + reqs[i]->Label());
    }
  }
}

/// One setup pass: generate, construct service (and server, WAL), then one
/// in-process warm pass over every distinct request the sequences use.
Status BuildStack(const Spec& spec, const Options& opt,
                  const std::vector<const Request*>& distinct, Stack* st,
                  SetupTimes* times, Report* rep) {
  auto t0 = Clock::now();
  auto db = std::make_unique<Database>();
  spec.gen(*db);
  auto t1 = Clock::now();

  auto parsed = ParseProgram(workloads::SgProgramText(), db->symbols());
  if (!parsed.ok()) return parsed.status();
  QueryServiceOptions sopts;
  sopts.num_threads = spec.workers;
  sopts.answer_cache_bytes = spec.cache_bytes;
  if (spec.live) {
    st->wal_dir = opt.workdir + "/wal";
    std::error_code ec;
    std::filesystem::remove_all(st->wal_dir, ec);
    std::filesystem::create_directories(st->wal_dir, ec);
    durability::WalOptions wopts;
    wopts.checkpoint_log_bytes = kCheckpointLogBytes;
    wopts.fsync_commits = true;
    auto wal = durability::Wal::Open(st->wal_dir, wopts);
    if (!wal.ok()) return wal.status();
    st->wal = wal.take();
    st->manager = std::make_unique<SnapshotManager>(std::move(db));
    st->manager->SetDurabilitySink(st->wal.get());
    st->service = std::make_unique<QueryService>(st->manager.get(),
                                                 parsed.value(), sopts);
  } else {
    st->db = std::move(db);
    st->service =
        std::make_unique<QueryService>(st->db.get(), parsed.value(), sopts);
  }
  if (!st->service->status().ok()) return st->service->status();
  if (spec.connections > 0) {
    st->server = std::make_unique<server::DataServer>(st->service.get());
    if (Status s = st->server->Start(); !s.ok()) return s;
  }
  auto t2 = Clock::now();

  // One request at a time: a parallel pass would time how many cores the
  // host lends this moment as much as the work itself.
  std::vector<QueryResponse> resps;
  resps.reserve(distinct.size());
  for (const Request* r : distinct) resps.push_back(st->service->Eval(r->ToQuery()));
  auto t3 = Clock::now();

  times->generate_s = Seconds(t1 - t0);
  times->prepare_s = Seconds(t2 - t1);
  times->warm_s = Seconds(t3 - t2);
  uint64_t failed = 0;
  CheckResponses(resps, distinct, st->Tip()->symbols(), rep, &failed);
  if (failed != 0) return Status::Internal("warm pass failed");
  return Status::Ok();
}

/// Warm-up, then the measured window. Only requests sent inside the
/// window and finished by its end count.
struct Phase {
  Clock::time_point warm_start, start, end;
  double seconds = 0;
};

Phase MakePhase(const Options& opt) {
  Phase ph;
  ph.warm_start = Clock::now();
  ph.start = ph.warm_start + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double>(opt.warmup));
  ph.end = ph.start + std::chrono::duration_cast<Clock::duration>(
                          std::chrono::duration<double>(opt.seconds));
  ph.seconds = opt.seconds;
  return ph;
}

struct ClientStats {
  std::vector<double> lat_ms, head_ms, first_chunk_ms;
  uint64_t chunks = 0, bytes = 0, reconnects = 0, unannounced_closes = 0;
  uint64_t min_epoch = UINT64_MAX, max_epoch = 0;
  Clock::time_point last_end;  // completion of the last counted response
  Report notes;  // attempted/failed/wrong, merged after the join
};

/// One closed-loop connection: next request only after the previous
/// response's terminating chunk. The connection is closed and reopened
/// after kRequestsPerConnection requests. A server that closes earlier
/// without saying so costs the next request: an EOF before any response
/// byte on a reused connection is an unannounced close, a failure that is
/// never retried.
void RunConnection(int tid, uint16_t port, const std::vector<Request>& reqs,
                   const std::vector<uint32_t>& seq, const Phase& ph,
                   e2e::Tracer* tracer, ClientStats* out) {
  e2e::Connection conn;
  bool opened_before = false;
  size_t next = 0;
  while (Clock::now() < ph.end) {
    if (!conn.is_open()) {
      bool in_window = Clock::now() >= ph.start;
      if (!conn.Open(port)) {
        if (in_window) {
          ++out->notes.attempted;
          ++out->notes.failed;
          out->notes.Note("connect failed");
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
        continue;
      }
      if (opened_before && in_window) ++out->reconnects;
      opened_before = true;
    }
    uint32_t ri = seq[next++ % seq.size()];
    const Request& r = reqs[ri];
    e2e::Exchange x;
    bool last = conn.requests() + 1 >= kRequestsPerConnection;
    bool ok = conn.RoundTrip(last ? r.raw_close : r.raw, &x);
    bool counted = x.t_send >= ph.start && (!ok || x.t_end <= ph.end);
    if (counted) ++out->notes.attempted;
    if (!ok) {
      bool unannounced = !x.any_byte && conn.requests() > 1;
      if (counted) {
        ++out->notes.failed;
        if (unannounced) {
          ++out->unannounced_closes;
        } else {
          out->notes.Note(std::string(x.any_byte ? "connection cut mid-response"
                                                 : "new connection closed "
                                                   "before any response byte") +
                          " for " + r.Label());
        }
      }
      conn.Close();
      continue;
    }
    bool served =
        x.status == 200 && x.has_trailer && x.trailer_status == "ok";
    if (!served) {
      if (counted) {
        ++out->notes.failed;
        out->notes.Note("HTTP " + std::to_string(x.status) + " trailer '" +
                        x.trailer_status + "' for " + r.Label());
      }
    } else if (!x.parse_ok || x.digest != r.expect ||
               x.answers != r.expect.count) {
      out->notes.Wrong("HTTP " + r.Label() + " at epoch " +
                       std::to_string(x.epoch));
    } else if (counted) {
      out->lat_ms.push_back(Ms(x.t_end - x.t_send));
      out->head_ms.push_back(Ms(x.t_head - x.t_send));
      if (x.has_first_chunk) {
        out->first_chunk_ms.push_back(Ms(x.t_first_chunk - x.t_send));
      }
      out->min_epoch = std::min(out->min_epoch, x.epoch);
      out->max_epoch = std::max(out->max_epoch, x.epoch);
      out->last_end = x.t_end;
    }
    if (counted) {
      out->chunks += x.chunks;
      out->bytes += x.bytes;
      if (tracer != nullptr && tracer->wants()) tracer->OnHttp(tid, ri, x);
    }
    if (last || !x.keep_alive) conn.Close();
  }
}

struct WriterStats {
  std::vector<double> publish_ms, build_ms, freeze_ms, artifact_ms, swap_ms,
      commit_ms;
  uint64_t attempted = 0, failed = 0, fact_bytes = 0;
  size_t last_rung = kIngestN;  // highest rung in a committed epoch
  std::string error;
};

/// Publishes kRungsPerPublish ladder rungs every kPublishPeriod on a fixed
/// schedule (a late publish is followed by the next one at once). Fig7c(n)
/// plus rungs n+1..m is fact-identical to Fig7c(m).
void RunWriter(SnapshotManager* manager, const Phase& ph, WriterStats* out) {
  size_t rung = kIngestN + 1;
  Clock::time_point next = ph.warm_start;
  for (;;) {
    std::this_thread::sleep_until(next);
    next += kPublishPeriod;
    auto t0 = Clock::now();
    if (t0 >= ph.end) break;
    uint64_t bytes = 0;
    auto stage = [&](const char* pred, std::string a, std::string b) {
      bytes += std::strlen(pred) + a.size() + b.size();
      manager->AddFact(pred, {std::move(a), std::move(b)});
    };
    for (size_t d = 0; d < kRungsPerPublish; ++d, ++rung) {
      stage("up", N("a", rung - 1), N("a", rung));
      stage("flat", N("a", rung), N("b", rung));
      stage("down", N("b", rung), N("b", rung - 1));
    }
    PublishStats ps = manager->Publish();
    auto t1 = Clock::now();
    bool counted = t0 >= ph.start && t1 <= ph.end;
    if (counted) ++out->attempted;
    if (!ps.status.ok()) {
      if (counted) ++out->failed;
      out->error = ps.status.message();
      continue;
    }
    out->last_rung = rung - 1;
    if (!counted) continue;
    out->publish_ms.push_back(ps.wall_ms);
    out->build_ms.push_back(ps.build_ms);
    out->freeze_ms.push_back(ps.freeze_ms);
    out->artifact_ms.push_back(ps.artifact_ms);
    out->commit_ms.push_back(ps.commit_ms);
    out->swap_ms.push_back(std::max(0.0, ps.wall_ms - ps.build_ms -
                                             ps.freeze_ms - ps.artifact_ms -
                                             ps.commit_ms));
    out->fact_bytes += bytes;
  }
}

/// Latency percentiles, and throughput over the time from the window's
/// start to the last counted completion (a closed loop's last response
/// lands just before the window ends, not on it).
void SetLatency(Report* rep, const std::vector<double>& lat,
                uint64_t completed, const Phase& ph, Clock::time_point last) {
  double elapsed = last > ph.start ? Seconds(last - ph.start) : ph.seconds;
  rep->Set("qps", static_cast<double>(completed) / elapsed, "1/s");
  rep->Set("p50_ms", Quantile(lat, 0.50), "ms");
  rep->Set("p95_ms", Quantile(lat, 0.95), "ms");
  rep->Set("p99_ms", Quantile(lat, 0.99), "ms");
  rep->info["samples"] = static_cast<double>(lat.size());
}

/// HTTP workloads: closed-loop connections (plus the writer for ingest).
void RunHttp(const Spec& spec, const Options& opt, Stack& st,
             const std::vector<Request>& reqs,
             const std::vector<std::vector<uint32_t>>& seqs,
             e2e::Tracer* tracer, Report* rep, size_t* last_rung) {
  uint64_t genesis_epoch = st.manager ? st.manager->epoch() : 0;
  uint16_t port = st.server->port();
  cache::AnswerCache* cache = st.service->answer_cache();
  Phase ph = MakePhase(opt);

  std::vector<ClientStats> cs(spec.connections);
  std::vector<std::thread> threads;
  for (size_t c = 0; c < spec.connections; ++c) {
    threads.emplace_back(RunConnection, static_cast<int>(c), port,
                         std::cref(reqs), std::cref(seqs[c]), std::cref(ph),
                         c == 0 ? tracer : nullptr, &cs[c]);
  }
  WriterStats ws;
  std::thread writer;
  if (spec.live) writer = std::thread(RunWriter, st.manager.get(), std::cref(ph), &ws);

  std::this_thread::sleep_until(ph.start);
  cache::CacheSnapshot c0 = cache ? cache->Snapshot() : cache::CacheSnapshot{};
  uint64_t ckpt0 = st.wal ? st.wal->checkpoints_written() : 0;
  uint64_t io0 = e2e::ProcWriteBytes();
  std::this_thread::sleep_until(ph.end);
  cache::CacheSnapshot c1 = cache ? cache->Snapshot() : cache::CacheSnapshot{};
  uint64_t ckpt1 = st.wal ? st.wal->checkpoints_written() : 0;
  uint64_t io1 = e2e::ProcWriteBytes();
  for (std::thread& t : threads) t.join();
  if (writer.joinable()) writer.join();

  std::vector<double> lat, head, first;
  uint64_t chunks = 0, bytes = 0, reconnects = 0, closes = 0, http = 0;
  uint64_t min_epoch = UINT64_MAX, max_epoch = 0;
  Clock::time_point last;
  for (ClientStats& c : cs) {
    last = std::max(last, c.last_end);
    lat.insert(lat.end(), c.lat_ms.begin(), c.lat_ms.end());
    head.insert(head.end(), c.head_ms.begin(), c.head_ms.end());
    first.insert(first.end(), c.first_chunk_ms.begin(), c.first_chunk_ms.end());
    chunks += c.chunks;
    bytes += c.bytes;
    reconnects += c.reconnects;
    closes += c.unannounced_closes;
    http += c.notes.attempted;
    min_epoch = std::min(min_epoch, c.min_epoch);
    max_epoch = std::max(max_epoch, c.max_epoch);
    rep->attempted += c.notes.attempted;
    rep->failed += c.notes.failed;
    rep->wrong += c.notes.wrong;
    for (const std::string& e : c.notes.errors) rep->Note(e);
  }
  double per_req = std::max<double>(1, static_cast<double>(http));
  SetLatency(rep, lat, lat.size(), ph, last);
  rep->Set("server.ttfb_ms_p50", Quantile(head, 0.5), "ms");
  rep->Set("first_chunk_p50_ms", Quantile(first, 0.5), "ms");
  rep->Set("server.chunks_per_req", static_cast<double>(chunks) / per_req, "count");
  rep->Set("server.bytes_per_req", static_cast<double>(bytes) / per_req, "B");
  rep->Set("server.reconnects", static_cast<double>(reconnects), "count");
  rep->Set("server.unannounced_closes", static_cast<double>(closes), "count");
  rep->Set("trace.http_p50_ms", Quantile(lat, 0.5), "ms");
  uint64_t hits = c1.hits - c0.hits, misses = c1.misses - c0.misses;
  rep->Set("cache.hit_rate",
           hits + misses == 0 ? 0 : static_cast<double>(hits) / (hits + misses),
           "ratio");
  rep->Set("cache.evictions", static_cast<double>(c1.evictions - c0.evictions), "count");
  rep->Set("cache.invalidations",
           static_cast<double>(c1.invalidations - c0.invalidations), "count");
  rep->Set("cache.bytes", static_cast<double>(c1.bytes), "B");

  if (!spec.live) return;
  rep->attempted += ws.attempted;
  rep->failed += ws.failed;
  if (!ws.error.empty()) rep->Note("publish refused: " + ws.error);
  *last_rung = ws.last_rung;
  uint64_t final_epoch = st.manager->epoch();
  if (!lat.empty() && (min_epoch < genesis_epoch || max_epoch > final_epoch)) {
    rep->CheckFailed("a read named an epoch outside [" +
                     std::to_string(genesis_epoch) + ", " +
                     std::to_string(final_epoch) + "]");
  }
  rep->Set("publish_p50_ms", Quantile(ws.publish_ms, 0.50), "ms");
  rep->Set("publish_p99_ms", Quantile(ws.publish_ms, 0.99), "ms");
  rep->Set("live.build_ms_p50", Quantile(ws.build_ms, 0.5), "ms");
  rep->Set("live.freeze_ms_p50", Quantile(ws.freeze_ms, 0.5), "ms");
  rep->Set("live.artifact_ms_p50", Quantile(ws.artifact_ms, 0.5), "ms");
  rep->Set("live.swap_ms_p50", Quantile(ws.swap_ms, 0.5), "ms");
  rep->Set("durability.commit_ms_p50", Quantile(ws.commit_ms, 0.50), "ms");
  rep->Set("durability.commit_ms_p99", Quantile(ws.commit_ms, 0.99), "ms");
  rep->Set("durability.checkpoints", static_cast<double>(ckpt1 - ckpt0), "count");
  rep->Set("durability.write_bytes_per_fact_byte",
           ws.fact_bytes == 0 ? 0
                              : static_cast<double>(io1 - io0) / ws.fact_bytes,
           "ratio");
  rep->info["publishes"] = static_cast<double>(ws.publish_ms.size());
  rep->info["final_epoch"] = static_cast<double>(final_epoch);
}

/// cyclic_batch: one caller, back-to-back blocking batches.
void RunInProcess(const Options& opt, Stack& st, const std::vector<Request>& reqs,
                  const std::vector<std::vector<uint32_t>>& orders,
                  e2e::Tracer* tracer, Report* rep) {
  std::vector<std::vector<QueryRequest>> batches;
  std::vector<std::vector<const Request*>> expected;
  for (const std::vector<uint32_t>& order : orders) {
    batches.emplace_back();
    expected.emplace_back();
    for (uint32_t i : order) {
      batches.back().push_back(reqs[i].ToQuery());
      expected.back().push_back(&reqs[i]);
    }
  }
  const SymbolTable& symbols = st.service->database().symbols();
  std::vector<double> lat;
  uint64_t ok_queries = 0;
  Clock::time_point last;
  Phase ph = MakePhase(opt);
  for (size_t k = 0; Clock::now() < ph.end; ++k) {
    size_t b = k % batches.size();
    auto t0 = Clock::now();
    std::vector<QueryResponse> resps = st.service->EvalBatch(batches[b]);
    auto t1 = Clock::now();
    uint64_t failed = 0;
    CheckResponses(resps, expected[b], symbols, rep, &failed);
    if (t0 < ph.start || t1 > ph.end) continue;
    rep->attempted += resps.size();
    rep->failed += failed;
    ok_queries += resps.size() - failed;
    lat.push_back(Ms(t1 - t0));
    last = t1;
    if (tracer != nullptr && tracer->wants()) {
      int64_t span = tracer->OnBatch(0, t0, t1);
      for (size_t i = 0; i < resps.size(); ++i) {
        tracer->OnInProcess(0, span, orders[b][i], resps[i]);
      }
    }
  }
  SetLatency(rep, lat, ok_queries, ph, last);
  rep->info["queries_per_batch"] = static_cast<double>(reqs.size());
}

/// Every live fact of a snapshot rendered by name, so tips compare across
/// the symbol re-interning a recovery implies.
std::set<std::string> RenderTip(const Database& db) {
  std::set<std::string> out;
  for (const std::string& name : db.relation_names()) {
    for (TupleRef t : db.Find(name)->tuples()) {
      std::string s = name;
      for (SymbolId c : t) s += "|" + db.symbols().Name(c);
      out.insert(std::move(s));
    }
  }
  return out;
}

/// ingest_durable's end checks: the WAL recovers from scratch to the final
/// tip, and every read is certified. Reads were checked against the
/// genesis answers; Datalog is monotone and the writer only adds facts, so
/// genesis answers == final answers pins every epoch in between.
void FinishIngest(std::unique_ptr<Stack>* stack, size_t last_rung,
                  const std::vector<const Request*>& distinct, Report* rep) {
  std::string dir = (*stack)->wal_dir;
  uint64_t final_epoch = (*stack)->manager->epoch();
  std::set<std::string> tip = RenderTip(*(*stack)->Tip());
  stack->reset();

  durability::WalOptions wopts;
  wopts.checkpoint_log_bytes = kCheckpointLogBytes;
  auto t0 = Clock::now();
  auto recovered = durability::RecoverSnapshotManager(dir, wopts, nullptr);
  rep->Set("durability.recovery_s", Seconds(Clock::now() - t0), "s");
  if (!recovered.ok()) {
    rep->CheckFailed("recovery: " + recovered.status().message());
  } else {
    durability::RecoveredSystem sys = recovered.take();
    sys.manager->SetDurabilitySink(nullptr);
    if (sys.manager->epoch() != final_epoch ||
        RenderTip(*sys.manager->Acquire()) != tip) {
      rep->CheckFailed("recovered tip differs from the final tip");
    }
  }
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);

  e2e::Oracle final_oracle;
  Status s = e2e::BuildOracle(
      [last_rung](Database& db) { workloads::Fig7c(db, last_rung); },
      &final_oracle);
  if (!s.ok()) {
    rep->CheckFailed("final oracle: " + s.message());
    return;
  }
  for (const Request* r : distinct) {
    if (final_oracle.Expect(*r) != r->expect) {
      rep->CheckFailed("answer of " + r->Label() +
                       " changed during ingest; reads are uncertified");
      return;
    }
  }
  rep->info["final_rungs"] = static_cast<double>(last_rung);
}

bool ParseArgs(int argc, char** argv, Options* o) {
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    if (i + 1 >= argc) return false;
    std::string v = argv[++i];
    if (a == "--workload") o->workload = v;
    else if (a == "--seed") o->seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (a == "--seconds") o->seconds = std::atof(v.c_str());
    else if (a == "--warmup") o->warmup = std::atof(v.c_str());
    else if (a == "--setups") o->setups = std::atoi(v.c_str());
    else if (a == "--workdir") o->workdir = v;
    else if (a == "--traced") o->traced = v;
    else return false;
  }
  return !o->workload.empty() && o->seconds > 0 && o->warmup >= 0 &&
         o->setups >= 1;
}

void PrintResult(const Options& opt, const Report& rep, double cores_start,
                 double cores_end) {
  std::string out = "{\"workload\": " + e2e::JsonString(opt.workload) +
                    ", \"seed\": " + std::to_string(opt.seed) +
                    ", \"traced\": " + (opt.traced.empty() ? "false" : "true") +
                    ", \"ok\": " + (rep.ok() ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(rep.attempted) +
                    ", \"failed\": " + std::to_string(rep.failed) +
                    ", \"wrong\": " + std::to_string(rep.wrong) +
                    ", \"errors\": [";
  for (size_t i = 0; i < rep.errors.size(); ++i) {
    out += (i ? ", " : "") + e2e::JsonString(rep.errors[i]);
  }
  out += "], \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : rep.metrics) {
    out += (first ? "" : ", ") + e2e::JsonString(name) + ": {\"value\": " +
           e2e::JsonNumber(m.value) + ", \"unit\": " + e2e::JsonString(m.unit) +
           "}";
    first = false;
  }
  out += "}, \"info\": {";
  first = true;
  for (const auto& [name, v] : rep.info) {
    out += (first ? "" : ", ") + e2e::JsonString(name) + ": " + e2e::JsonNumber(v);
    first = false;
  }
  out += "}, \"host\": {\"nproc\": " +
         std::to_string(std::thread::hardware_concurrency()) +
         ", \"cpu\": " + e2e::JsonString(e2e::CpuModel()) +
         ", \"effective_cores_start\": " + e2e::JsonNumber(cores_start) +
         ", \"effective_cores_end\": " + e2e::JsonNumber(cores_end) + "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!ParseArgs(argc, argv, &opt)) {
    std::fprintf(stderr,
                 "usage: %s --workload <name> --seed <n> --seconds <s> "
                 "--workdir <dir> [--warmup <s>] [--setups <k>] "
                 "[--traced <out-prefix>]\n",
                 argv[0]);
    return 2;
  }
  const Spec* spec = nullptr;
  for (const Spec& s : kSpecs) {
    if (opt.workload == s.name) spec = &s;
  }
  if (spec == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", opt.workload.c_str());
    return 2;
  }
  double cores_start = e2e::EffectiveCores();
  Report rep;

  // Inputs from the seed, and their reference answers.
  std::vector<Request> reqs;
  std::vector<std::vector<uint32_t>> seqs;
  MakeInputs(*spec, opt.seed, &reqs, &seqs);
  auto t0 = Clock::now();
  e2e::Oracle oracle;
  if (Status s = e2e::BuildOracle(spec->gen, &oracle); !s.ok()) {
    std::fprintf(stderr, "oracle: %s\n", s.message().c_str());
    return 1;
  }
  rep.info["oracle_s"] = Seconds(Clock::now() - t0);
  for (Request& r : reqs) r.expect = oracle.Expect(r);
  std::vector<char> used(reqs.size(), 0);
  for (const auto& seq : seqs) {
    for (uint32_t i : seq) used[i] = 1;
  }
  std::vector<const Request*> distinct;
  for (size_t i = 0; i < reqs.size(); ++i) {
    if (used[i]) distinct.push_back(&reqs[i]);
  }
  rep.info["distinct_requests"] = static_cast<double>(distinct.size());

  // Set up several times; the last stack serves the run. Passes that start
  // in the first kSetupBurnIn are not timed: right after an idle spell (the
  // previous run's phase is mostly waiting), a shared 4-vCPU Xeon VM ran
  // setup passes up to 25% faster for a second or two, for a varying time.
  std::unique_ptr<Stack> stack;
  std::vector<double> total, generate, prepare, warm;
  auto burn_in_end = Clock::now() + kSetupBurnIn;
  for (int k = 0; k < opt.setups;) {
    bool timed = Clock::now() >= burn_in_end;
    stack.reset();
    stack = std::make_unique<Stack>();
    SetupTimes t;
    if (Status s = BuildStack(*spec, opt, distinct, stack.get(), &t, &rep);
        !s.ok()) {
      std::fprintf(stderr, "setup: %s\n", s.message().c_str());
      return 1;
    }
    if (!timed) continue;
    ++k;
    total.push_back(t.total());
    generate.push_back(t.generate_s);
    prepare.push_back(t.prepare_s);
    warm.push_back(t.warm_s);
  }
  rep.Set("setup_s", Quantile(total, 0.5), "s");
  rep.Set("setup.generate_s", Quantile(generate, 0.5), "s");
  rep.Set("setup.prepare_s", Quantile(prepare, 0.5), "s");
  rep.Set("setup.warm_s", Quantile(warm, 0.5), "s");
  rep.info["cache_budget_bytes"] = static_cast<double>(spec->cache_bytes);
  if (spec->live) {
    rep.info["checkpoint_log_bytes"] = static_cast<double>(kCheckpointLogBytes);
  }

  std::unique_ptr<e2e::Tracer> tracer;
  if (!opt.traced.empty()) {
    tracer = std::make_unique<e2e::Tracer>(&reqs, stack->service.get(),
                                           kTraceSamples, kBaselineSamples);
    if (Status s = tracer->Init(spec->gen, spec->level_cap); !s.ok()) {
      std::fprintf(stderr, "tracer: %s\n", s.message().c_str());
      return 1;
    }
  }

  // Peak RSS covers the serving stack from here to the end of the phase:
  // not the discarded setups (returned to the OS first) nor the end checks.
  malloc_trim(0);
  e2e::ResetPeakRss();
  size_t last_rung = kIngestN;
  if (spec->connections > 0) {
    RunHttp(*spec, opt, *stack, reqs, seqs, tracer.get(), &rep, &last_rung);
  } else {
    RunInProcess(opt, *stack, reqs, seqs, tracer.get(), &rep);
  }
  rep.Set("peak_rss_mb", e2e::PeakRssMb(), "MiB");
  rep.Set("error_rate",
          rep.attempted == 0 ? 0
                             : static_cast<double>(rep.failed) / rep.attempted,
          "ratio");
  if (tracer != nullptr) {
    tracer->Finish(&rep, opt.traced);
    rep.wrong += tracer->wrong();
    for (const std::string& e : tracer->errors()) rep.Note("wrong answer: " + e);
  }
  if (spec->live) FinishIngest(&stack, last_rung, distinct, &rep);
  stack.reset();
  PrintResult(opt, rep, cores_start, e2e::EffectiveCores());
  return rep.ok() ? 0 : 1;
}
