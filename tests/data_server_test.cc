// Data plane: the rate limiter's token buckets, streamed answer chunks at
// the service layer (sink threading, chunk/trace accounting, cache
// replay), and the HTTP server end to end — chunked-vs-buffered payload
// identity, keep-alive reuse, mid-stream deadline trailers, 429/503 with
// Retry-After, the defensive request-parsing paths, which bytes share a
// send (the response writer's flushes and non-blocking sends), a client
// reset mid-stream, a reader too slow to hold the worker, collapsed
// waiters, and JSON escapes in both directions. Runs under TSan in CI
// (workers write the responses that handlers then finish).
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <stdlib.h>
#include <sys/socket.h>
#include <unistd.h>

#include <arpa/inet.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "datalog/parser.h"
#include "durability/recovery.h"
#include "eval/answer_sink.h"
#include "live/snapshot_manager.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "server/data_server.h"
#include "server/rate_limiter.h"
#include "service/query_service.h"
#include "storage/database.h"
#include "workloads/workloads.h"

namespace binchain {
namespace {

namespace fs = std::filesystem;
using server::DataServer;
using server::DataServerOptions;
using server::RateLimiter;
using server::RateLimiterOptions;

// ------------------------------------------------------------ rate limiter

TEST(RateLimiterTest, DisabledLimiterAlwaysAllows) {
  RateLimiter limiter;  // qps 0 = off
  EXPECT_FALSE(limiter.enabled());
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(limiter.TryAcquire("anyone", 0.0).allowed);
  }
  EXPECT_EQ(limiter.tracked_clients(), 0u);
}

TEST(RateLimiterTest, BurstThenDenyWithComputedRetryAfter) {
  RateLimiterOptions opts;
  opts.qps = 2;
  opts.burst = 3;
  RateLimiter limiter(opts);
  // The full burst spends instantly...
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(limiter.TryAcquire("c", 10.0).allowed) << i;
  }
  // ...then the bucket is empty: denial, with the exact deficit. Zero
  // tokens at 2 qps means a full token in 0.5 s.
  RateLimiter::Decision d = limiter.TryAcquire("c", 10.0);
  EXPECT_FALSE(d.allowed);
  EXPECT_NEAR(d.retry_after_s, 0.5, 1e-9);
  // Refill is continuous: after 0.25 s there is half a token — still
  // denied, retry_after shrinks accordingly.
  d = limiter.TryAcquire("c", 10.25);
  EXPECT_FALSE(d.allowed);
  EXPECT_NEAR(d.retry_after_s, 0.25, 1e-9);
  // After the advertised wait the acquire succeeds.
  EXPECT_TRUE(limiter.TryAcquire("c", 10.5 + 0.25).allowed);
}

TEST(RateLimiterTest, ClientsAreIsolated) {
  RateLimiterOptions opts;
  opts.qps = 1;
  opts.burst = 1;
  RateLimiter limiter(opts);
  EXPECT_TRUE(limiter.TryAcquire("hog", 0.0).allowed);
  EXPECT_FALSE(limiter.TryAcquire("hog", 0.0).allowed);
  // A different identity has its own untouched bucket.
  EXPECT_TRUE(limiter.TryAcquire("bystander", 0.0).allowed);
  EXPECT_EQ(limiter.tracked_clients(), 2u);
}

TEST(RateLimiterTest, EvictionKeepsTheTableBounded) {
  RateLimiterOptions opts;
  opts.qps = 1;
  opts.burst = 4;
  opts.max_clients = 8;
  RateLimiter limiter(opts);
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(
        limiter.TryAcquire("client-" + std::to_string(i), 1.0 * i).allowed);
  }
  EXPECT_LE(limiter.tracked_clients(), 8u);
}

// --------------------------------------------------- service-layer streams

Program SgProgram(Database& db) {
  return ParseProgram(workloads::SgProgramText(), db.symbols()).take();
}

/// Records every chunk: tuples in arrival order, per-chunk sizes.
class RecordingSink : public AnswerSink {
 public:
  bool OnAnswers(const Tuple* tuples, size_t count,
                 const SymbolTable& symbols) override {
    (void)symbols;
    chunk_sizes_.push_back(count);
    for (size_t i = 0; i < count; ++i) tuples_.push_back(tuples[i]);
    return true;
  }
  const std::vector<Tuple>& tuples() const { return tuples_; }
  const std::vector<size_t>& chunk_sizes() const { return chunk_sizes_; }

 private:
  std::vector<Tuple> tuples_;
  std::vector<size_t> chunk_sizes_;
};

// The tentpole's core contract, proven at the service seam: chunks are
// delivered while the fixpoint runs (>= 2 chunks on a multi-iteration
// workload means the first chunk was flushed strictly before evaluation
// completed — every flush point precedes the engine's final sort), they
// are never empty, and their concatenation is exactly the blocking
// response's answer set.
TEST(ServiceStreamingTest, ChunksArriveIncrementallyAndConcatenateExactly) {
  Database db;
  std::string a = workloads::Fig7b(db, 64);
  QueryService service(&db, SgProgram(db), {2});
  ASSERT_TRUE(service.status().ok()) << service.status().message();

  QueryRequest plain{"sg", a, "", {}};
  QueryResponse blocking = service.Eval(plain);
  ASSERT_TRUE(blocking.status.ok());
  ASSERT_FALSE(blocking.tuples.empty());
  EXPECT_EQ(blocking.trace.chunks, 0u);  // no sink, no chunks

  RecordingSink sink;
  QueryRequest streamed = plain;
  streamed.sink = &sink;
  QueryResponse resp = service.Eval(streamed);
  ASSERT_TRUE(resp.status.ok());

  // Incremental delivery: more than one chunk, none empty.
  EXPECT_GE(sink.chunk_sizes().size(), 2u) << "single flush: not streaming";
  for (size_t n : sink.chunk_sizes()) EXPECT_GT(n, 0u);
  EXPECT_EQ(resp.trace.chunks, sink.chunk_sizes().size());

  // Exactly-once, complete: sorted concatenation == the response tuples ==
  // the blocking response tuples.
  std::vector<Tuple> concat = sink.tuples();
  std::sort(concat.begin(), concat.end());
  EXPECT_EQ(concat, resp.tuples);
  EXPECT_EQ(resp.tuples, blocking.tuples);
}

TEST(ServiceStreamingTest, CacheHitReplaysAsOneChunkWithSameAnswers) {
  Database db;
  std::string a = workloads::Fig7b(db, 32);
  QueryServiceOptions opts;
  opts.num_threads = 2;
  opts.answer_cache_bytes = 1 << 20;
  QueryService service(&db, SgProgram(db), opts);
  ASSERT_TRUE(service.status().ok());

  RecordingSink first_sink;
  QueryRequest req{"sg", a, "", {}};
  req.sink = &first_sink;
  QueryResponse first = service.Eval(req);
  ASSERT_TRUE(first.status.ok());
  EXPECT_FALSE(first.trace.cache_hit);
  EXPECT_GE(first.trace.chunks, 2u);

  RecordingSink second_sink;
  req.sink = &second_sink;
  QueryResponse second = service.Eval(req);
  ASSERT_TRUE(second.status.ok());
  EXPECT_TRUE(second.trace.cache_hit);
  // Replayed answers arrive as a single, already-sorted chunk.
  EXPECT_EQ(second.trace.chunks, 1u);
  ASSERT_EQ(second_sink.chunk_sizes().size(), 1u);
  EXPECT_EQ(second_sink.tuples(), first.tuples);
  EXPECT_EQ(second.tuples, first.tuples);
}

TEST(ServiceStreamingTest, AllBindingPatternsStreamTheirFullAnswerSet) {
  Database db;
  workloads::Fig7c(db, 10);
  QueryService service(&db, SgProgram(db), {2});
  ASSERT_TRUE(service.status().ok());

  QueryRequest patterns[] = {
      {"sg", "a1", "", {}},   // p(a, Y)
      {"sg", "", "b3", {}},   // p(X, b): inverted system
      {"sg", "", "", {}},     // p(X, Y): all pairs
      {"sg", "a1", "a1", {}}  // membership
  };
  for (QueryRequest& req : patterns) {
    QueryResponse blocking = service.Eval(req);
    ASSERT_TRUE(blocking.status.ok()) << req.pred;
    RecordingSink sink;
    req.sink = &sink;
    QueryResponse streamed = service.Eval(req);
    req.sink = nullptr;
    ASSERT_TRUE(streamed.status.ok());
    std::vector<Tuple> concat = sink.tuples();
    std::sort(concat.begin(), concat.end());
    concat.erase(std::unique(concat.begin(), concat.end()), concat.end());
    EXPECT_EQ(concat, blocking.tuples)
        << "pattern (" << req.source << ", " << req.target << ")";
  }
}

// ------------------------------------------------------------ HTTP client

int ConnectTo(uint16_t port) {
  int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    close(fd);
    return -1;
  }
  return fd;
}

/// One parsed response. For chunked responses, `chunks` holds each data
/// chunk's payload in frame order and `body` their concatenation.
struct HttpResult {
  bool ok = false;
  int status = 0;
  std::map<std::string, std::string> headers;  // lowercased names
  std::string body;
  bool chunked = false;
  std::vector<std::string> chunks;
};

/// Reads one full response off `fd` (keep-alive aware: stops at the
/// response's own end, not at connection close). `carry` holds bytes read
/// past the response for the next call.
bool ReadResponse(int fd, std::string* carry, HttpResult* out) {
  auto read_more = [&]() -> bool {
    char buf[4096];
    ssize_t n = recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) return false;
    carry->append(buf, static_cast<size_t>(n));
    return true;
  };

  size_t head_end;
  while ((head_end = carry->find("\r\n\r\n")) == std::string::npos) {
    if (!read_more()) return false;
  }
  std::string head = carry->substr(0, head_end);
  carry->erase(0, head_end + 4);

  if (head.rfind("HTTP/1.1 ", 0) != 0) return false;
  out->status = std::atoi(head.c_str() + 9);
  size_t pos = head.find("\r\n");
  while (pos != std::string::npos && pos + 2 < head.size()) {
    size_t eol = head.find("\r\n", pos + 2);
    std::string line = head.substr(
        pos + 2, (eol == std::string::npos ? head.size() : eol) - pos - 2);
    pos = eol;
    size_t colon = line.find(':');
    if (colon == std::string::npos) continue;
    std::string name = line.substr(0, colon);
    for (char& c : name) c = static_cast<char>(std::tolower(c));
    size_t vstart = line.find_first_not_of(' ', colon + 1);
    out->headers[name] =
        vstart == std::string::npos ? "" : line.substr(vstart);
  }

  if (out->headers.count("transfer-encoding") != 0 &&
      out->headers["transfer-encoding"].find("chunked") != std::string::npos) {
    out->chunked = true;
    for (;;) {
      size_t line_end;
      while ((line_end = carry->find("\r\n")) == std::string::npos) {
        if (!read_more()) return false;
      }
      size_t chunk_len = std::strtoul(carry->substr(0, line_end).c_str(),
                                      nullptr, 16);
      carry->erase(0, line_end + 2);
      while (carry->size() < chunk_len + 2) {
        if (!read_more()) return false;
      }
      if (chunk_len == 0) {
        carry->erase(0, 2);  // the final chunk's CRLF
        break;
      }
      out->chunks.push_back(carry->substr(0, chunk_len));
      out->body += out->chunks.back();
      carry->erase(0, chunk_len + 2);
    }
  } else if (out->headers.count("content-length") != 0) {
    size_t want = std::strtoul(out->headers["content-length"].c_str(),
                               nullptr, 10);
    while (carry->size() < want) {
      if (!read_more()) return false;
    }
    out->body = carry->substr(0, want);
    carry->erase(0, want);
  }
  out->ok = out->status != 0;
  return true;
}

std::string QueryRequestRaw(const std::string& json,
                            const std::string& client_id = "",
                            bool close = false) {
  std::string raw = "POST /v1/query HTTP/1.1\r\nHost: 127.0.0.1\r\n";
  if (!client_id.empty()) raw += "X-Client-Id: " + client_id + "\r\n";
  if (close) raw += "Connection: close\r\n";
  raw += "Content-Length: " + std::to_string(json.size()) + "\r\n\r\n" + json;
  return raw;
}

/// One-shot POST /v1/query: connect, send, read one response, close.
HttpResult PostQuery(uint16_t port, const std::string& json,
                     const std::string& client_id = "") {
  HttpResult r;
  int fd = ConnectTo(port);
  if (fd < 0) return r;
  std::string raw = QueryRequestRaw(json, client_id, /*close=*/true);
  if (send(fd, raw.data(), raw.size(), MSG_NOSIGNAL) ==
      static_cast<ssize_t>(raw.size())) {
    std::string carry;
    ReadResponse(fd, &carry, &r);
  }
  close(fd);
  return r;
}

/// Splits an NDJSON body into its trailer line and everything before it.
bool SplitTrailer(const std::string& body, std::string* answers,
                  std::string* trailer) {
  size_t pos = body.rfind("{\"trailer\": ");
  if (pos == std::string::npos) return false;
  *answers = body.substr(0, pos);
  *trailer = body.substr(pos);
  return true;
}

// ------------------------------------------------------------ HTTP server

struct DataFixture {
  Database db;
  std::string source;
  std::unique_ptr<QueryService> service;
  std::unique_ptr<DataServer> server;

  explicit DataFixture(int n = 64, DataServerOptions opts = {},
                       size_t cache_bytes = 0, size_t workers = 2) {
    source = workloads::Fig7b(db, n);
    Program program =
        ParseProgram(workloads::SgProgramText(), db.symbols()).take();
    QueryServiceOptions sopts;
    sopts.num_threads = workers;
    sopts.answer_cache_bytes = cache_bytes;
    service = std::make_unique<QueryService>(&db, program, sopts);
    EXPECT_TRUE(service->status().ok()) << service->status().message();
    server = std::make_unique<DataServer>(service.get(), opts);
    EXPECT_TRUE(server->Start().ok());
    EXPECT_NE(server->port(), 0);
  }
};

TEST(DataServerTest, StreamedChunksMatchBufferedResponseExactly) {
  DataFixture fx(64);
  std::string body = "{\"pred\": \"sg\", \"source\": \"" + fx.source + "\"}";

  HttpResult streamed = PostQuery(fx.server->port(), body);
  ASSERT_TRUE(streamed.ok);
  EXPECT_EQ(streamed.status, 200);
  ASSERT_TRUE(streamed.chunked);
  // Incremental delivery on the wire: at least two answer chunks before
  // the trailer — the first HTTP chunk left the socket while the fixpoint
  // was still deriving the rest.
  ASSERT_GE(streamed.chunks.size(), 3u) << "answers + trailer";
  EXPECT_NE(streamed.chunks.back().find("\"trailer\""), std::string::npos);
  EXPECT_NE(streamed.chunks.back().find("\"status\": \"ok\""),
            std::string::npos);

  HttpResult buffered =
      PostQuery(fx.server->port(), "{\"pred\": \"sg\", \"source\": \"" +
                                       fx.source + "\", \"stream\": false}");
  ASSERT_TRUE(buffered.ok);
  EXPECT_EQ(buffered.status, 200);
  EXPECT_FALSE(buffered.chunked);

  // Byte identity of the answer payload: the concatenated streamed chunks
  // minus the trailer equal the buffered body minus its trailer (the
  // trailers differ only in wall-time fields).
  std::string streamed_answers, streamed_trailer;
  std::string buffered_answers, buffered_trailer;
  ASSERT_TRUE(
      SplitTrailer(streamed.body, &streamed_answers, &streamed_trailer));
  ASSERT_TRUE(
      SplitTrailer(buffered.body, &buffered_answers, &buffered_trailer));
  EXPECT_EQ(streamed_answers, buffered_answers);
  ASSERT_FALSE(streamed_answers.empty());
  // Same terminal accounting (answers/chunks/status), modulo timings.
  size_t answers_at = buffered_trailer.find("\"answers\": ");
  ASSERT_NE(answers_at, std::string::npos);
  EXPECT_NE(streamed_trailer.find(buffered_trailer.substr(
                answers_at, buffered_trailer.find(", \"stats\"") - answers_at)),
            std::string::npos)
      << streamed_trailer << " vs " << buffered_trailer;
}

TEST(DataServerTest, StreamedAndBufferedAgreeOnCacheHits) {
  DataFixture fx(32, {}, /*cache_bytes=*/1 << 20);
  std::string body = "{\"pred\": \"sg\", \"source\": \"" + fx.source + "\"}";
  // Prime the cache, then compare replays on both paths: a cache hit is
  // one chunk on the streamed path and the same single line buffered.
  HttpResult prime = PostQuery(fx.server->port(), body);
  ASSERT_TRUE(prime.ok);
  ASSERT_EQ(prime.status, 200);

  HttpResult streamed = PostQuery(fx.server->port(), body);
  ASSERT_TRUE(streamed.ok);
  ASSERT_TRUE(streamed.chunked);
  EXPECT_EQ(streamed.chunks.size(), 2u) << "one replayed chunk + trailer";
  HttpResult buffered = PostQuery(
      fx.server->port(), "{\"pred\": \"sg\", \"source\": \"" + fx.source +
                             "\", \"stream\": false}");
  ASSERT_TRUE(buffered.ok);
  std::string sa, st, ba, bt;
  ASSERT_TRUE(SplitTrailer(streamed.body, &sa, &st));
  ASSERT_TRUE(SplitTrailer(buffered.body, &ba, &bt));
  EXPECT_EQ(sa, ba);
  EXPECT_NE(st.find("\"chunks\": 1"), std::string::npos) << st;
}

TEST(DataServerTest, KeepAliveServesMultipleQueriesOnOneConnection) {
  DataFixture fx(16);
  int fd = ConnectTo(fx.server->port());
  ASSERT_GE(fd, 0);
  std::string carry;
  for (int round = 0; round < 3; ++round) {
    std::string raw = QueryRequestRaw("{\"pred\": \"sg\", \"source\": \"" +
                                      fx.source + "\"}");
    ASSERT_EQ(send(fd, raw.data(), raw.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(raw.size()));
    HttpResult r;
    ASSERT_TRUE(ReadResponse(fd, &carry, &r)) << "round " << round;
    EXPECT_EQ(r.status, 200);
    EXPECT_EQ(r.headers["connection"], "keep-alive");
    EXPECT_NE(r.body.find("\"status\": \"ok\""), std::string::npos);
  }
  close(fd);
  EXPECT_GE(fx.server->requests_served(), 3u);
}

TEST(DataServerTest, ConnectionBudgetAnnouncesCloseOnLastResponse) {
  DataServerOptions opts;
  opts.max_requests_per_connection = 3;
  DataFixture fx(16, opts);
  int fd = ConnectTo(fx.server->port());
  ASSERT_GE(fd, 0);
  std::string carry;
  for (int round = 0; round < 3; ++round) {
    std::string raw = QueryRequestRaw("{\"pred\": \"sg\", \"source\": \"" +
                                      fx.source + "\"}");
    ASSERT_EQ(send(fd, raw.data(), raw.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(raw.size()));
    HttpResult r;
    ASSERT_TRUE(ReadResponse(fd, &carry, &r)) << "round " << round;
    EXPECT_EQ(r.status, 200);
    // The response that spends the budget says so; earlier ones invite
    // reuse.
    EXPECT_EQ(r.headers["connection"], round < 2 ? "keep-alive" : "close")
        << "round " << round;
    EXPECT_NE(r.body.find("\"status\": \"ok\""), std::string::npos);
  }
  // Nothing follows the announced close: the server hangs up. (The
  // timeout turns a server that keeps the socket open into a failure, not
  // a hang.)
  EXPECT_TRUE(carry.empty());
  timeval tv{5, 0};
  setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  char byte;
  EXPECT_EQ(recv(fd, &byte, 1, 0), 0);
  close(fd);
}

TEST(DataServerTest, MidStreamDeadlineYieldsWellFormedPartialTrailer) {
  DataFixture fx(1024);
  // A budget far below the uncancelled runtime (hundreds of ms at
  // n=1024): the deadline trips mid-evaluation, after some chunks may
  // already be on the wire — the stream still ends with a complete
  // trailer carrying the terminal status.
  HttpResult r = PostQuery(
      fx.server->port(),
      "{\"pred\": \"sg\", \"source\": \"" + fx.source +
          "\", \"options\": {\"deadline_ms\": 15}}");
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.status, 200);
  ASSERT_FALSE(r.chunks.empty());
  const std::string& trailer = r.chunks.back();
  EXPECT_NE(trailer.find("\"trailer\""), std::string::npos);
  EXPECT_NE(trailer.find("\"status\": \"deadline_exceeded\""),
            std::string::npos)
      << trailer;
  EXPECT_NE(trailer.find("\"timed_out\": true"), std::string::npos);
}

TEST(DataServerTest, RateLimitedClientGets429WhileOthersKeepServing) {
  DataServerOptions opts;
  opts.rate_limit.qps = 0.001;  // effectively one request per bucket
  opts.rate_limit.burst = 2;
  DataFixture fx(16, opts);
  std::string body = "{\"pred\": \"sg\", \"source\": \"" + fx.source + "\"}";

  // The hog spends its burst...
  for (int i = 0; i < 2; ++i) {
    HttpResult r = PostQuery(fx.server->port(), body, "hog");
    ASSERT_TRUE(r.ok);
    EXPECT_EQ(r.status, 200) << i;
  }
  // ...and is then answered 429 with a computed, positive Retry-After.
  HttpResult limited = PostQuery(fx.server->port(), body, "hog");
  ASSERT_TRUE(limited.ok);
  EXPECT_EQ(limited.status, 429);
  ASSERT_NE(limited.headers.count("retry-after"), 0u);
  EXPECT_GE(std::atoi(limited.headers["retry-after"].c_str()), 1);
  EXPECT_NE(limited.body.find("\"status\": \"overloaded\""),
            std::string::npos);

  // A different client id on the same socket peer is admitted: the bucket
  // key is the identity, not the connection.
  HttpResult other = PostQuery(fx.server->port(), body, "bystander");
  ASSERT_TRUE(other.ok);
  EXPECT_EQ(other.status, 200);
}

TEST(DataServerTest, RotatingClientIdsCannotMintFreshBuckets) {
  // The identity is client-controlled, so a fresh id per request would
  // mean a fresh full bucket per request — admission bypassed. The
  // peer-aggregate layer closes that: every request is charged against
  // the peer's budget first, whatever id it claims.
  DataServerOptions opts;
  opts.rate_limit.qps = 0.001;  // no meaningful refill inside the test
  opts.rate_limit.burst = 1;
  opts.peer_qps_multiplier = 3;  // peer bucket: burst 3
  DataFixture fx(16, opts);
  std::string body = "{\"pred\": \"sg\", \"source\": \"" + fx.source + "\"}";

  int served = 0;
  HttpResult last_limited;
  for (int i = 0; i < 8; ++i) {
    HttpResult r =
        PostQuery(fx.server->port(), body, "rotate-" + std::to_string(i));
    ASSERT_TRUE(r.ok) << i;
    if (r.status == 200) {
      ++served;
    } else {
      EXPECT_EQ(r.status, 429) << i;
      last_limited = r;
    }
  }
  // Exactly the peer burst is admitted; every rotation past it is 429
  // with the peer bucket's computed Retry-After.
  EXPECT_EQ(served, 3);
  ASSERT_NE(last_limited.headers.count("retry-after"), 0u);
  EXPECT_GE(std::atoi(last_limited.headers["retry-after"].c_str()), 1);
}

TEST(DataServerTest, SurrogatePairEscapesDecodeAndHalvesAreRejected) {
  DataFixture fx(8);
  uint16_t port = fx.server->port();

  // A paired \uD83D\uDE00 escape decodes to one supplementary code point
  // (U+1F600): the request is well-formed, the constant merely unknown —
  // an empty answer set, not an error.
  HttpResult paired = PostQuery(
      port, "{\"pred\": \"sg\", \"source\": \"\\ud83d\\ude00\"}");
  ASSERT_TRUE(paired.ok);
  EXPECT_EQ(paired.status, 200);
  EXPECT_NE(paired.body.find("\"status\": \"ok\""), std::string::npos);
  EXPECT_NE(paired.body.find("\"answers\": 0"), std::string::npos);

  // Unpaired halves would encode as CESU-8 (invalid UTF-8 flowing into
  // symbol lookups and echoes): rejected outright.
  const char* broken[] = {
      "{\"pred\": \"sg\", \"source\": \"\\ud83d\"}",          // lone high
      "{\"pred\": \"sg\", \"source\": \"\\ude00\"}",          // lone low
      "{\"pred\": \"sg\", \"source\": \"\\ud83d\\u0041\"}",   // high + BMP
      "{\"pred\": \"sg\", \"source\": \"\\ud83d\\ud83d\"}"};  // high + high
  for (const char* body : broken) {
    HttpResult r = PostQuery(port, body);
    ASSERT_TRUE(r.ok) << body;
    EXPECT_EQ(r.status, 400) << body;
  }
}

TEST(DataServerTest, HugeMaxIterationsClampsInsteadOfOverflowing) {
  DataFixture fx(16);
  // 1e300 is far outside the size_t range; the decoder must clamp it to
  // the type's ceiling (effectively unbounded) instead of performing an
  // undefined cast — the query then simply runs to its natural fixpoint.
  HttpResult r = PostQuery(
      fx.server->port(),
      "{\"pred\": \"sg\", \"source\": \"" + fx.source +
          "\", \"options\": {\"max_iterations\": 1e300}, \"stream\": false}");
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.status, 200);
  EXPECT_NE(r.body.find("\"status\": \"ok\""), std::string::npos);
  EXPECT_EQ(r.body.find("\"answers\": 0"), std::string::npos);
}

/// Self-cleaning scratch directory for the recovery-gated scenario.
class TempDir {
 public:
  TempDir() {
    std::string tmpl =
        (fs::temp_directory_path() / "binchain_data_XXXXXX").string();
    std::vector<char> buf(tmpl.begin(), tmpl.end());
    buf.push_back('\0');
    char* p = mkdtemp(buf.data());
    EXPECT_NE(p, nullptr);
    if (p != nullptr) path_ = p;
  }
  ~TempDir() {
    std::error_code ec;
    if (!path_.empty()) fs::remove_all(path_, ec);
  }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

TEST(DataServerTest, NotServingServiceYields503WithRetryAfter) {
  // A service whose recovery gate has not opened yet answers every
  // admitted request kUnavailable; the data plane maps that to
  // 503 + Retry-After (mirroring the admin plane's shed semantics), and
  // after FinishRecovery() the same request is served 200.
  TempDir dir;
  auto rm = durability::RecoveryManager::Load(dir.path()).take();
  auto genesis = rm->BuildGenesis();
  std::string a = workloads::Fig7b(*genesis, 8);
  Program program =
      ParseProgram(workloads::SgProgramText(), genesis->symbols()).take();
  SnapshotManager manager(std::move(genesis));
  QueryService service(&manager, rm.get(), program, {2, 64});
  ASSERT_TRUE(service.status().ok()) << service.status().message();

  DataServer srv(&service);
  ASSERT_TRUE(srv.Start().ok());
  std::string body = "{\"pred\": \"sg\", \"source\": \"" + a + "\"}";

  HttpResult gated = PostQuery(srv.port(), body);
  ASSERT_TRUE(gated.ok);
  EXPECT_EQ(gated.status, 503);
  ASSERT_NE(gated.headers.count("retry-after"), 0u);
  EXPECT_GE(std::atoi(gated.headers["retry-after"].c_str()), 1);
  EXPECT_NE(gated.body.find("\"status\": \"unavailable\""),
            std::string::npos);

  ASSERT_TRUE(service.FinishRecovery().ok());

  HttpResult served = PostQuery(srv.port(), body);
  ASSERT_TRUE(served.ok);
  EXPECT_EQ(served.status, 200);
}

TEST(DataServerTest, MalformedRequestsAreRejectedDefensively) {
  DataFixture fx(8);
  uint16_t port = fx.server->port();

  // Bad JSON.
  HttpResult bad = PostQuery(port, "{\"pred\": ");
  ASSERT_TRUE(bad.ok);
  EXPECT_EQ(bad.status, 400);
  // Missing pred.
  HttpResult nopred = PostQuery(port, "{\"source\": \"x\"}");
  ASSERT_TRUE(nopred.ok);
  EXPECT_EQ(nopred.status, 400);
  // Unknown field: fail loudly, not silently.
  HttpResult typo = PostQuery(port, "{\"pred\": \"sg\", \"sourec\": \"x\"}");
  ASSERT_TRUE(typo.ok);
  EXPECT_EQ(typo.status, 400);
  EXPECT_NE(typo.body.find("sourec"), std::string::npos);
  // Unknown predicate resolves to 404 (the query never ran).
  HttpResult nopredicate = PostQuery(port, "{\"pred\": \"nosuch\"}");
  ASSERT_TRUE(nopredicate.ok);
  EXPECT_EQ(nopredicate.status, 404);
  EXPECT_NE(nopredicate.body.find("\"status\": \"not_found\""),
            std::string::npos);

  int fd = ConnectTo(port);
  ASSERT_GE(fd, 0);
  // Unknown path.
  std::string raw =
      "POST /v2/nope HTTP/1.1\r\nContent-Length: 2\r\n\r\n{}";
  ASSERT_GT(send(fd, raw.data(), raw.size(), MSG_NOSIGNAL), 0);
  std::string carry;
  HttpResult notfound;
  ASSERT_TRUE(ReadResponse(fd, &carry, &notfound));
  EXPECT_EQ(notfound.status, 404);
  close(fd);

  // GET on the query path.
  fd = ConnectTo(port);
  ASSERT_GE(fd, 0);
  raw = "GET /v1/query HTTP/1.1\r\n\r\n";
  ASSERT_GT(send(fd, raw.data(), raw.size(), MSG_NOSIGNAL), 0);
  carry.clear();
  HttpResult wrong_method;
  ASSERT_TRUE(ReadResponse(fd, &carry, &wrong_method));
  EXPECT_EQ(wrong_method.status, 405);
  close(fd);

  // POST without Content-Length.
  fd = ConnectTo(port);
  ASSERT_GE(fd, 0);
  raw = "POST /v1/query HTTP/1.1\r\n\r\n";
  ASSERT_GT(send(fd, raw.data(), raw.size(), MSG_NOSIGNAL), 0);
  carry.clear();
  HttpResult unsized;
  ASSERT_TRUE(ReadResponse(fd, &carry, &unsized));
  EXPECT_EQ(unsized.status, 411);
  close(fd);

  // Oversized declared body.
  DataServerOptions small;
  small.max_body_bytes = 64;
  DataFixture tight(8, small);
  fd = ConnectTo(tight.server->port());
  ASSERT_GE(fd, 0);
  raw = "POST /v1/query HTTP/1.1\r\nContent-Length: 100000\r\n\r\n";
  ASSERT_GT(send(fd, raw.data(), raw.size(), MSG_NOSIGNAL), 0);
  carry.clear();
  HttpResult oversized;
  ASSERT_TRUE(ReadResponse(fd, &carry, &oversized));
  EXPECT_EQ(oversized.status, 413);
  close(fd);

  EXPECT_GE(fx.server->request_errors(), 5u);
}

TEST(DataServerTest, ExpectContinueBodiesAreAccepted) {
  DataFixture fx(8);
  int fd = ConnectTo(fx.server->port());
  ASSERT_GE(fd, 0);
  std::string json = "{\"pred\": \"sg\", \"source\": \"" + fx.source + "\"}";
  // curl-style two-phase POST: headers with Expect, body after the 100.
  std::string head =
      "POST /v1/query HTTP/1.1\r\nExpect: 100-continue\r\nContent-Length: " +
      std::to_string(json.size()) + "\r\nConnection: close\r\n\r\n";
  ASSERT_GT(send(fd, head.data(), head.size(), MSG_NOSIGNAL), 0);
  std::string carry;
  char buf[256];
  ssize_t n = recv(fd, buf, sizeof(buf), 0);
  ASSERT_GT(n, 0);
  carry.assign(buf, static_cast<size_t>(n));
  ASSERT_NE(carry.find("100 Continue"), std::string::npos);
  carry.erase(0, carry.find("\r\n\r\n") + 4);
  ASSERT_GT(send(fd, json.data(), json.size(), MSG_NOSIGNAL), 0);
  HttpResult r;
  ASSERT_TRUE(ReadResponse(fd, &carry, &r));
  EXPECT_EQ(r.status, 200);
  close(fd);
}


/// Sends `raw` in one send on a fresh connection and reads one response.
/// *closed reports whether the server then hung up (EOF inside 5 s).
HttpResult ExchangeOnce(uint16_t port, const std::string& raw, bool* closed) {
  HttpResult r;
  *closed = false;
  int fd = ConnectTo(port);
  if (fd < 0) return r;
  if (send(fd, raw.data(), raw.size(), MSG_NOSIGNAL) ==
      static_cast<ssize_t>(raw.size())) {
    std::string carry;
    if (ReadResponse(fd, &carry, &r) && carry.empty()) {
      timeval tv{5, 0};
      setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
      char byte;
      *closed = recv(fd, &byte, 1, 0) == 0;
    }
  }
  close(fd);
  return r;
}

// A 404 to a request with a body must not leave that body to be parsed
// as the next request's head. Either the next query on the socket is
// served, or the 404 announced a close and the server hangs up without
// answering anything more.
TEST(DataServerTest, NotFoundWithABodyNeverDesyncsTheConnection) {
  DataFixture fx(16);
  std::string json = "{\"pred\": \"sg\", \"source\": \"" + fx.source + "\"}";
  int fd = ConnectTo(fx.server->port());
  ASSERT_GE(fd, 0);
  std::string carry;
  // Without a body, a 404 keeps the connection in sync and alive.
  std::string bare = "POST /v2/nope HTTP/1.1\r\nContent-Length: 0\r\n\r\n";
  ASSERT_GT(send(fd, bare.data(), bare.size(), MSG_NOSIGNAL), 0);
  HttpResult first;
  ASSERT_TRUE(ReadResponse(fd, &carry, &first));
  EXPECT_EQ(first.status, 404);
  EXPECT_EQ(first.headers["connection"], "keep-alive");

  std::string with_body = "POST /v2/nope HTTP/1.1\r\nContent-Length: " +
                          std::to_string(json.size()) + "\r\n\r\n" + json;
  ASSERT_GT(send(fd, with_body.data(), with_body.size(), MSG_NOSIGNAL), 0);
  HttpResult notfound;
  ASSERT_TRUE(ReadResponse(fd, &carry, &notfound));
  EXPECT_EQ(notfound.status, 404);
  // The error body carries the wire status like every other error body.
  EXPECT_NE(notfound.body.find("\"status\": \"not_found\""),
            std::string::npos)
      << notfound.body;

  timeval tv{5, 0};
  setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  if (notfound.headers["connection"] == "close") {
    char byte;
    EXPECT_EQ(recv(fd, &byte, 1, 0), 0) << "announced close, no hang-up";
  } else {
    std::string raw = QueryRequestRaw(json);
    ASSERT_GT(send(fd, raw.data(), raw.size(), MSG_NOSIGNAL), 0);
    HttpResult next;
    ASSERT_TRUE(ReadResponse(fd, &carry, &next));
    EXPECT_EQ(next.status, 200) << next.body;
  }
  close(fd);
}

// RFC 9112 §6.1: Transfer-Encoding beside Content-Length must not be
// framed by the length. No chunked request body is decoded at all.
TEST(DataServerTest, TransferEncodingIsAnswered501AndCloses) {
  DataFixture fx(8);
  std::string json = "{\"pred\": \"sg\", \"source\": \"" + fx.source + "\"}";
  bool closed = false;
  HttpResult r = ExchangeOnce(
      fx.server->port(),
      "POST /v1/query HTTP/1.1\r\nTransfer-Encoding: chunked\r\n"
      "Content-Length: " + std::to_string(json.size()) + "\r\n\r\n" + json,
      &closed);
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.status, 501);
  EXPECT_EQ(r.headers["connection"], "close");
  EXPECT_TRUE(closed);
}

// RFC 9112 §6.3: a Content-Length is digits only ("+N" is not a length).
TEST(DataServerTest, SignedContentLengthIsAnswered400AndCloses) {
  DataFixture fx(8);
  std::string json = "{\"pred\": \"sg\", \"source\": \"" + fx.source + "\"}";
  bool closed = false;
  HttpResult r = ExchangeOnce(fx.server->port(),
                              "POST /v1/query HTTP/1.1\r\nContent-Length: +" +
                                  std::to_string(json.size()) + "\r\n\r\n" +
                                  json,
                              &closed);
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.status, 400);
  EXPECT_EQ(r.headers["connection"], "close");
  EXPECT_TRUE(closed);
}

// Two Content-Lengths that disagree leave the body boundary unknown.
TEST(DataServerTest, ConflictingContentLengthsAreAnswered400AndClose) {
  DataFixture fx(8);
  std::string json = "{\"pred\": \"sg\", \"source\": \"" + fx.source + "\"}";
  bool closed = false;
  HttpResult r = ExchangeOnce(
      fx.server->port(),
      "POST /v1/query HTTP/1.1\r\nContent-Length: 5\r\nContent-Length: " +
          std::to_string(json.size()) + "\r\n\r\n" + json,
      &closed);
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.status, 400);
  EXPECT_EQ(r.headers["connection"], "close");
  EXPECT_TRUE(closed);
}

// The body decoder's array path: arrays parse, but no field takes one, a
// top-level array is not a request, and nesting is bounded.
TEST(DataServerTest, ArraysAndDeepNestingAreAnswered400) {
  DataFixture fx(8);
  std::string deep = "{\"pred\": \"sg\", \"options\": {\"deadline_ms\": " +
                     std::string(20, '[') + "1" + std::string(20, ']') + "}}";
  const std::string bodies[] = {
      "{\"pred\": [\"sg\"]}",
      "{\"pred\": \"sg\", \"options\": {\"deadline_ms\": [1]}}",
      "[]",
      deep,
  };
  for (const std::string& body : bodies) {
    HttpResult r = PostQuery(fx.server->port(), body);
    ASSERT_TRUE(r.ok) << body;
    EXPECT_EQ(r.status, 400) << body;
    EXPECT_NE(r.body.find("\"status\": \"invalid_argument\""),
              std::string::npos)
        << body;
  }
}


// ---------------------------------------------------------- flush points

/// Reads one packet: on a SOCK_SEQPACKET socket, the bytes of one send.
/// Empty when none is waiting.
std::string ReadPacket(int fd) {
  std::vector<char> buf(1 << 16);
  ssize_t n = recv(fd, buf.data(), buf.size(), MSG_DONTWAIT);
  return n > 0 ? std::string(buf.data(), static_cast<size_t>(n)) : "";
}

// A flush is one send of everything appended since the last one, framed
// exactly as when each call was its own send.
TEST(ResponseWriterTest, EachFlushIsOneSendOfTheSameFraming) {
  int fds[2];
  ASSERT_EQ(socketpair(AF_UNIX, SOCK_SEQPACKET, 0, fds), 0);
  server::ResponseWriter writer(fds[0], /*keep_alive=*/true);

  writer.Head(200, "application/x-ndjson", /*chunked=*/true, 0);
  writer.Chunk("{\"tuples\": [[\"a1\", \"b2\"]]}\n");
  ASSERT_TRUE(writer.Flush());
  EXPECT_EQ(ReadPacket(fds[1]),
            "HTTP/1.1 200 OK\r\nContent-Type: application/x-ndjson\r\n"
            "Transfer-Encoding: chunked\r\nConnection: keep-alive\r\n\r\n"
            "1b\r\n{\"tuples\": [[\"a1\", \"b2\"]]}\n\r\n");
  EXPECT_EQ(ReadPacket(fds[1]), "");
  EXPECT_EQ(writer.status(), 200);

  writer.Chunk("x");
  writer.Chunk(std::string(300, 'y'));
  ASSERT_TRUE(writer.Flush());
  EXPECT_EQ(ReadPacket(fds[1]),
            "1\r\nx\r\n12c\r\n" + std::string(300, 'y') + "\r\n");

  writer.Chunk("{\"trailer\": {}}\n");
  writer.LastChunk();
  ASSERT_TRUE(writer.Flush());
  EXPECT_EQ(ReadPacket(fds[1]), "10\r\n{\"trailer\": {}}\n\r\n0\r\n\r\n");
  ASSERT_TRUE(writer.Flush());  // nothing pending: nothing sent
  EXPECT_EQ(ReadPacket(fds[1]), "");

  server::ResponseWriter closing(fds[0], /*keep_alive=*/false);
  server::HttpResponse busy;
  busy.status = 503;
  busy.body = "busy\n";
  busy.retry_after_s = 1;
  ASSERT_TRUE(closing.Send(busy));
  EXPECT_EQ(ReadPacket(fds[1]),
            "HTTP/1.1 503 Service Unavailable\r\n"
            "Content-Type: text/plain; charset=utf-8\r\nContent-Length: 5\r\n"
            "Retry-After: 1\r\nConnection: close\r\n\r\nbusy\n");

  // Once the peer is gone, a flush reports it.
  close(fds[1]);
  closing.Write("late");
  EXPECT_FALSE(closing.Flush());
  close(fds[0]);
}

/// Reads `fd` until the peer closes it.
std::string ReadToEof(int fd) {
  std::string got;
  std::vector<char> buf(1 << 16);
  for (;;) {
    ssize_t n = recv(fd, buf.data(), buf.size(), 0);
    if (n <= 0) return got;
    got.append(buf.data(), static_cast<size_t>(n));
  }
}

/// Reads whatever is waiting on `fd`, without blocking.
std::string ReadWaiting(int fd) {
  std::string got;
  std::vector<char> buf(1 << 16);
  for (;;) {
    ssize_t n = recv(fd, buf.data(), buf.size(), MSG_DONTWAIT);
    if (n <= 0) return got;
    got.append(buf.data(), static_cast<size_t>(n));
  }
}

// TrySend never blocks: with nobody reading, it sends what the kernel takes
// and keeps the rest, and a later Flush sends that rest ahead of what was
// appended since. The reader gets exactly the bytes of one Flush of the
// same writes.
TEST(ResponseWriterTest, TrySendKeepsWhatTheSocketRefusesForTheNextFlush) {
  std::vector<std::string> lines;
  for (int i = 0; i < 64; ++i) {
    lines.push_back("{\"tuples\": [[\"a" + std::to_string(i) + "\", \"" +
                    std::string(4000, 'b') + "\"]]}\n");
  }
  const std::string trailer = "{\"trailer\": {}}\n";
  auto write_all = [&](server::ResponseWriter* w) {
    w->Head(200, "application/x-ndjson", /*chunked=*/true, 0);
    for (const std::string& line : lines) w->Chunk(line);
    w->Chunk(trailer);
    w->LastChunk();
  };

  std::string once;
  {
    int fds[2];
    ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    server::ResponseWriter writer(fds[0], /*keep_alive=*/true);
    std::thread reader([&] { once = ReadToEof(fds[1]); });
    write_all(&writer);
    EXPECT_TRUE(writer.Flush());
    close(fds[0]);
    reader.join();
    close(fds[1]);
  }
  ASSERT_GT(once.size(), 64u * 4000u);

  int fds[2];
  ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  int small = 4096;
  setsockopt(fds[0], SOL_SOCKET, SO_SNDBUF, &small, sizeof(small));
  server::ResponseWriter writer(fds[0], /*keep_alive=*/true);
  writer.Head(200, "application/x-ndjson", /*chunked=*/true, 0);
  for (const std::string& line : lines) {
    writer.Chunk(line);
    ASSERT_TRUE(writer.TrySend());  // a full socket is not a gone client
  }
  std::string early = ReadWaiting(fds[1]);
  EXPECT_FALSE(early.empty());
  EXPECT_LT(early.size(), once.size()) << "the idle reader took everything";
  EXPECT_EQ(once.compare(0, early.size(), early), 0);

  writer.Chunk(trailer);
  writer.LastChunk();
  std::string rest;
  std::thread reader([&] { rest = ReadToEof(fds[1]); });
  EXPECT_TRUE(writer.Flush());
  shutdown(fds[0], SHUT_WR);
  reader.join();
  EXPECT_EQ(early + rest, once);

  // Once the peer is gone, a TrySend reports it.
  close(fds[1]);
  writer.Write("late");
  EXPECT_FALSE(writer.TrySend());
  close(fds[0]);
}

/// Whether `bytes` is a run of whole chunk frames (size line, payload,
/// CRLF); *payloads receives each frame's payload.
bool WholeChunkFrames(std::string bytes, std::vector<std::string>* payloads) {
  while (!bytes.empty()) {
    size_t eol = bytes.find("\r\n");
    if (eol == std::string::npos) return false;
    size_t len = std::strtoul(bytes.substr(0, eol).c_str(), nullptr, 16);
    if (bytes.size() < eol + 2 + len + 2 ||
        bytes.compare(eol + 2 + len, 2, "\r\n") != 0) {
      return false;
    }
    payloads->push_back(bytes.substr(eol + 2, len));
    bytes.erase(0, eol + 2 + len + 2);
  }
  return true;
}

/// Whether `bytes` hold exactly one whole response.
bool WholeResponse(const std::string& bytes, HttpResult* out) {
  std::string carry = bytes;
  return ReadResponse(/*fd=*/-1, &carry, out) && carry.empty();
}

/// What the client's first recv holds of the response to `json`, sent as
/// the second request of a keep-alive connection. On a reused connection
/// Nagle holds a small send that follows an unacknowledged one until the
/// client's delayed ACK (about 40 ms), so bytes that leave in separate
/// sends arrive in separate reads. *whole receives the full response.
std::string FirstReadOfSecondResponse(uint16_t port, const std::string& json,
                                      HttpResult* whole) {
  std::string first;
  int fd = ConnectTo(port);
  if (fd < 0) return first;
  timeval tv{10, 0};
  setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  std::string warm =
      QueryRequestRaw("{\"pred\": \"sg\", \"source\": \"nosuch\"}");
  std::string raw = QueryRequestRaw(json);
  std::string carry;
  HttpResult warmed;
  if (send(fd, warm.data(), warm.size(), MSG_NOSIGNAL) ==
          static_cast<ssize_t>(warm.size()) &&
      ReadResponse(fd, &carry, &warmed) && carry.empty() &&
      send(fd, raw.data(), raw.size(), MSG_NOSIGNAL) ==
          static_cast<ssize_t>(raw.size())) {
    std::vector<char> buf(1 << 16);
    ssize_t n = recv(fd, buf.data(), buf.size(), 0);
    if (n > 0) {
      first.assign(buf.data(), static_cast<size_t>(n));
      carry = first;
      ReadResponse(fd, &carry, whole);
    }
  }
  close(fd);
  return first;
}

// A streamed response's head leaves with its first answer chunk, each
// later chunk is its own send, and the trailer leaves with the terminator.
// A buffered, empty-answer or error response is one send.
TEST(DataServerTest, FirstReadHoldsTheHeadWithTheFirstAnswerLine) {
  DataFixture fx(1024);
  uint16_t port = fx.server->port();

  // sg(a1, Y) runs for hundreds of milliseconds past its first chunk.
  HttpResult whole;
  std::string first = FirstReadOfSecondResponse(
      port, "{\"pred\": \"sg\", \"source\": \"" + fx.source + "\"}", &whole);
  size_t head_end = first.find("\r\n\r\n");
  ASSERT_NE(head_end, std::string::npos) << first;
  EXPECT_EQ(first.rfind("HTTP/1.1 200 OK\r\n", 0), 0u) << first;
  std::vector<std::string> lines;
  ASSERT_TRUE(WholeChunkFrames(first.substr(head_end + 4), &lines)) << first;
  ASSERT_FALSE(lines.empty()) << "the head arrived alone: " << first;
  for (const std::string& line : lines) {
    EXPECT_EQ(line.rfind("{\"tuples\": ", 0), 0u) << line;
  }
  ASSERT_TRUE(whole.ok);
  EXPECT_EQ(whole.chunks.front(), lines.front());
  EXPECT_NE(whole.chunks.back().find("\"status\": \"ok\""), std::string::npos);

  struct Case {
    const char* what;
    std::string json;
    int status;
  };
  const Case whole_in_one_read[] = {
      {"buffered",
       "{\"pred\": \"sg\", \"source\": \"a1000\", \"stream\": false}", 200},
      {"empty answer", "{\"pred\": \"sg\", \"source\": \"nosuch\"}", 200},
      {"bad body", "{\"pred\": ", 400},
      {"unknown predicate", "{\"pred\": \"nosuch\"}", 404},
  };
  for (const Case& c : whole_in_one_read) {
    HttpResult full;
    first = FirstReadOfSecondResponse(port, c.json, &full);
    HttpResult in_first;
    ASSERT_TRUE(WholeResponse(first, &in_first)) << c.what << ": " << first;
    EXPECT_EQ(in_first.status, c.status) << c.what;
    EXPECT_EQ(in_first.body, full.body) << c.what;
  }
}

// A client that resets the connection mid-stream fails the worker's next
// send: the query is cancelled where it stands, the request counts as
// one error, and the one handler thread and the one worker are free for
// the next client.
TEST(DataServerTest, ClientResetMidStreamCancelsTheQueryAndFreesTheWorker) {
  DataServerOptions opts;
  opts.handler_threads = 1;
  DataFixture fx(1024, opts, /*cache_bytes=*/0, /*workers=*/1);
  uint16_t port = fx.server->port();
  size_t full =
      fx.service->Eval(QueryRequest().set_pred("sg").set_source(fx.source))
          .tuples.size();
  ASSERT_GT(full, 0u);
  obs::Counter* errors_total = obs::Registry::Global().GetCounter(
      "binchain_dataplane_errors_total",
      "Data-plane requests answered with a non-2xx status or dropped");
  uint64_t errors_before = fx.server->request_errors();
  uint64_t total_before = errors_total->Value();

  int fd = ConnectTo(port);
  ASSERT_GE(fd, 0);
  timeval tv{10, 0};
  setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  std::string raw =
      QueryRequestRaw("{\"pred\": \"sg\", \"source\": \"" + fx.source + "\"}");
  ASSERT_EQ(send(fd, raw.data(), raw.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(raw.size()));
  std::string got;
  char buf[4096];
  while (got.find("{\"tuples\": ") == std::string::npos) {
    ssize_t n = recv(fd, buf, sizeof(buf), 0);
    ASSERT_GT(n, 0) << got;
    got.append(buf, static_cast<size_t>(n));
  }
  // Linger 0: close() resets the connection instead of a FIN.
  linger reset{1, 0};
  setsockopt(fd, SOL_SOCKET, SO_LINGER, &reset, sizeof(reset));
  close(fd);

  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (fx.server->request_errors() == errors_before &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(fx.server->request_errors(), errors_before + 1);
  EXPECT_EQ(errors_total->Value(), total_before + 1);

  // The span ends cancelled, with only part of the answer set.
  std::vector<obs::QueryTrace> spans = fx.service->flight_recorder().Snapshot();
  auto cancelled = [](const obs::QueryTrace& t) { return t.cancelled; };
  ASSERT_EQ(std::count_if(spans.begin(), spans.end(), cancelled), 1);
  const obs::QueryTrace& cut =
      *std::find_if(spans.begin(), spans.end(), cancelled);
  EXPECT_FALSE(cut.timed_out);
  EXPECT_GE(cut.chunks, 1u);
  EXPECT_LT(cut.answers, full);

  HttpResult next =
      PostQuery(port, "{\"pred\": \"sg\", \"source\": \"a1000\"}");
  ASSERT_TRUE(next.ok);
  EXPECT_EQ(next.status, 200);
  EXPECT_NE(next.body.find("\"status\": \"ok\""), std::string::npos);
  EXPECT_EQ(fx.server->request_errors(), errors_before + 1);
}

// ------------------------------------------------------- JSON on the wire

/// Decodes the JSON string at s[*pos] (its opening quote) and moves *pos
/// past the closing quote. Knows every escape the server writes.
bool ReadJsonString(const std::string& s, size_t* pos, std::string* out) {
  if (*pos >= s.size() || s[*pos] != '"') return false;
  for (size_t i = *pos + 1; i < s.size(); ++i) {
    if (s[i] == '"') {
      *pos = i + 1;
      return true;
    }
    if (s[i] != '\\') {
      out->push_back(s[i]);
      continue;
    }
    if (++i == s.size()) return false;
    switch (s[i]) {
      case '"': out->push_back('"'); break;
      case '\\': out->push_back('\\'); break;
      case 'n': out->push_back('\n'); break;
      case 'r': out->push_back('\r'); break;
      case 't': out->push_back('\t'); break;
      case 'u':
        if (i + 4 >= s.size()) return false;
        out->push_back(static_cast<char>(
            std::strtoul(s.substr(i + 1, 4).c_str(), nullptr, 16)));
        i += 4;
        break;
      default: return false;
    }
  }
  return false;
}

using NamePairs = std::vector<std::pair<std::string, std::string>>;

/// The sorted [source, target] pairs of an NDJSON body's answer lines.
bool DecodeAnswers(const std::string& body, NamePairs* out) {
  const std::string open = "{\"tuples\": [";
  size_t start = 0;
  while (start < body.size()) {
    size_t eol = body.find('\n', start);
    if (eol == std::string::npos) return false;
    std::string line = body.substr(start, eol - start);
    start = eol + 1;
    if (line.rfind("{\"trailer\": ", 0) == 0) continue;
    if (line.rfind(open, 0) != 0) return false;
    size_t pos = open.size();
    while (line.compare(pos, 2, "]}") != 0) {
      std::pair<std::string, std::string> pair;
      if (line.compare(pos, 1, "[") != 0) return false;
      ++pos;
      if (!ReadJsonString(line, &pos, &pair.first) ||
          line.compare(pos, 2, ", ") != 0) {
        return false;
      }
      pos += 2;
      if (!ReadJsonString(line, &pos, &pair.second) ||
          line.compare(pos, 1, "]") != 0) {
        return false;
      }
      ++pos;
      if (line.compare(pos, 2, ", ") == 0) pos += 2;
      out->push_back(std::move(pair));
    }
  }
  std::sort(out->begin(), out->end());
  return true;
}

// Constants that need every escape, and request bodies that use every
// decoder escape and the target, diagonal and client_id fields, answered
// over the socket exactly as in-process Eval answers the same request.
TEST(DataServerTest, EscapedConstantsAndEveryBodyFieldMatchInProcessEval) {
  Database db;
  workloads::Fig7b(db, 4);
  const std::string src = "s/\xc3\xa9\xe2\x82\xac";  // s/é€: 2- and 3-byte
  const std::string ctl = "ctl\b\f\n\r\t";
  const std::string diag = "d\\iag";
  for (const std::string& odd :
       {std::string("q\"uote"), std::string("back\\slash"), ctl,
        std::string("low\x01\x1f"), diag}) {
    db.AddFact("flat", {src, odd});
  }
  db.AddFact("flat", {diag, diag});
  QueryServiceOptions sopts;
  sopts.num_threads = 2;
  QueryService service(&db, SgProgram(db), sopts);
  ASSERT_TRUE(service.status().ok()) << service.status().message();
  DataServerOptions opts;
  opts.rate_limit.qps = 0.001;  // one request per client id
  opts.rate_limit.burst = 1;
  opts.peer_qps_multiplier = 1000;
  DataServer srv(&service, opts);
  ASSERT_TRUE(srv.Start().ok());

  struct Case {
    std::string body;
    QueryRequest request;
  };
  const Case cases[] = {
      {R"({"pred": "sg", "source": "s\/\u00e9\u20ac", "client_id": "c1"})",
       QueryRequest().set_pred("sg").set_source(src)},
      {R"({"pred": "sg", "target": "ctl\b\f\n\r\t", "client_id": "c2"})",
       QueryRequest().set_pred("sg").set_target(ctl)},
      {R"({"pred": "sg", "diagonal": true, "client_id": "c3"})",
       QueryRequest().set_pred("sg").set_diagonal(true)},
      {R"({"pred": "sg", "target": "q\"uote", "client_id": "c4"})",
       QueryRequest().set_pred("sg").set_target("q\"uote")},
      {R"({"pred": "sg", "source": "d\\iag", "client_id": "c5"})",
       QueryRequest().set_pred("sg").set_source(diag)},
      {R"({"pred": "sg", "target": "low\u0001\u001f", "client_id": "c6"})",
       QueryRequest().set_pred("sg").set_target("low\x01\x1f")},
  };
  for (const Case& c : cases) {
    QueryResponse expected = service.Eval(c.request);
    ASSERT_TRUE(expected.status.ok()) << c.body;
    ASSERT_FALSE(expected.tuples.empty()) << c.body;
    NamePairs want;
    for (const Tuple& t : expected.tuples) {
      want.emplace_back(db.symbols().Name(t[0]), db.symbols().Name(t[1]));
    }
    std::sort(want.begin(), want.end());

    HttpResult r = PostQuery(srv.port(), c.body);
    ASSERT_TRUE(r.ok) << c.body;
    ASSERT_EQ(r.status, 200) << c.body << "\n" << r.body;
    NamePairs got;
    ASSERT_TRUE(DecodeAnswers(r.body, &got)) << r.body;
    EXPECT_EQ(got, want) << c.body;
  }

  // The wire spellings: the two-character escapes, \u00XX for the other
  // control bytes, and UTF-8 and '/' as they are.
  HttpResult r = PostQuery(srv.port(),
                           "{\"pred\": \"sg\", \"source\": \"" + src +
                               "\", \"client_id\": \"c7\"}");
  ASSERT_EQ(r.status, 200) << r.body;
  for (const char* spelling :
       {R"(["s/é€", "q\"uote"])", R"(["s/é€", "back\\slash"])",
        R"(["s/é€", "ctl\u0008\u000c\n\r\t"])",
        R"(["s/é€", "low\u0001\u001f"])", R"(["s/é€", "d\\iag"])"}) {
    EXPECT_NE(r.body.find(spelling), std::string::npos) << spelling;
  }

  // The body's client_id outranks the X-Client-Id header: c1 has spent
  // its one request whatever the header says, and c8 has not.
  std::string again = "{\"pred\": \"sg\", \"source\": \"a1\", \"client_id\": ";
  EXPECT_EQ(PostQuery(srv.port(), again + "\"c1\"}", "c8").status, 429);
  EXPECT_EQ(PostQuery(srv.port(), again + "\"c8\"}", "c1").status, 200);
}

/// Connects with a receive buffer of `rcvbuf` bytes, set before the
/// handshake so the advertised window follows it.
int ConnectWithReceiveBuffer(uint16_t port, int rcvbuf) {
  int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof(rcvbuf));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    close(fd);
    return -1;
  }
  return fd;
}

/// The answer lines of an NDJSON body (everything before the trailer).
std::string AnswerLines(const std::string& body) {
  std::string answers, trailer;
  return SplitTrailer(body, &answers, &trailer) ? answers : "";
}

// A client that reads nothing does not hold the worker: the query
// completes (its span lands in the flight recorder) while the response
// waits in the socket and the writer, and the handler's final flush then
// delivers every byte. Loopback autotunes the server's send buffer past
// this whole response, so the send's non-blocking mode itself is checked
// by ResponseWriterTest.TrySendKeepsWhatTheSocketRefusesForTheNextFlush.
TEST(DataServerTest, SlowReaderLeavesTheWorkerFree) {
  DataFixture fx(256, {}, /*cache_bytes=*/0, /*workers=*/1);
  uint16_t port = fx.server->port();
  size_t spans_before = fx.service->flight_recorder().Snapshot().size();

  int fd = ConnectWithReceiveBuffer(port, 4096);
  ASSERT_GE(fd, 0);
  timeval tv{30, 0};
  setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  std::string raw = QueryRequestRaw("{\"pred\": \"sg\"}");
  ASSERT_EQ(send(fd, raw.data(), raw.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(raw.size()));

  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(60);
  std::vector<obs::QueryTrace> spans;
  while ((spans = fx.service->flight_recorder().Snapshot()).size() ==
             spans_before &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(spans.size(), spans_before + 1) << "the query never completed";
  EXPECT_EQ(spans.back().answers, 32896u);
  EXPECT_GT(spans.back().chunks, 1u);

  std::string carry;
  HttpResult streamed;
  ASSERT_TRUE(ReadResponse(fd, &carry, &streamed));
  close(fd);
  ASSERT_EQ(streamed.status, 200);
  ASSERT_TRUE(streamed.chunked);
  EXPECT_NE(streamed.chunks.back().find("\"status\": \"ok\""),
            std::string::npos);

  HttpResult buffered =
      PostQuery(port, "{\"pred\": \"sg\", \"stream\": false}");
  ASSERT_EQ(buffered.status, 200);
  EXPECT_FALSE(AnswerLines(streamed.body).empty());
  EXPECT_EQ(AnswerLines(streamed.body), AnswerLines(buffered.body));
}

// Identical concurrent requests collapse onto one evaluation, and the
// leader's worker writes every waiter's socket (their replayed chunk).
// Each client gets the whole answer set on its own connection.
TEST(DataServerTest, CollapsedWaitersAreAnsweredOnTheirOwnSockets) {
  DataServerOptions opts;
  opts.handler_threads = 4;
  DataFixture fx(1024, opts, /*cache_bytes=*/0, /*workers=*/1);
  uint16_t port = fx.server->port();
  const std::string json =
      "{\"pred\": \"sg\", \"source\": \"" + fx.source + "\"}";
  QueryResponse expected =
      fx.service->Eval(QueryRequest().set_pred("sg").set_source(fx.source));
  ASSERT_TRUE(expected.status.ok());
  NamePairs want;
  for (const Tuple& t : expected.tuples) {
    want.emplace_back(fx.db.symbols().Name(t[0]), fx.db.symbols().Name(t[1]));
  }
  std::sort(want.begin(), want.end());

  // sg(a1, Y) runs for hundreds of milliseconds, so clients that send at
  // once join the first one's flight. A round in which the scheduler
  // still serialized them is run again.
  auto collapsed = [&] {
    std::vector<obs::QueryTrace> spans =
        fx.service->flight_recorder().Snapshot();
    return std::count_if(spans.begin(), spans.end(),
                         [](const obs::QueryTrace& t) { return t.collapsed; });
  };
  for (int round = 0; round < 5 && collapsed() == 0; ++round) {
    constexpr int kClients = 4;
    std::vector<HttpResult> results(kClients);
    std::atomic<int> ready{0};
    std::vector<std::thread> clients;
    for (int i = 0; i < kClients; ++i) {
      clients.emplace_back([&, i] {
        ++ready;
        while (ready.load() < kClients) std::this_thread::yield();
        results[i] = PostQuery(port, json);
      });
    }
    for (std::thread& t : clients) t.join();
    for (const HttpResult& r : results) {
      ASSERT_EQ(r.status, 200) << r.body;
      EXPECT_NE(r.body.find("\"status\": \"ok\""), std::string::npos);
      NamePairs got;
      ASSERT_TRUE(DecodeAnswers(r.body, &got)) << r.body;
      EXPECT_EQ(got, want);
    }
  }
  EXPECT_GE(collapsed(), 1);
}

}  // namespace
}  // namespace binchain
