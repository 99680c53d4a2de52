// Data plane: the rate limiter's token buckets, streamed answer chunks at
// the service layer (sink threading, chunk/trace accounting, cache
// replay), and the HTTP server end to end — chunked-vs-buffered payload
// identity, keep-alive reuse, mid-stream deadline trailers, 429/503 with
// Retry-After, and the defensive request-parsing paths. Runs under TSan
// in CI (handlers, workers, and the accept loop all touch the stream
// state).
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <stdlib.h>
#include <sys/socket.h>
#include <unistd.h>

#include <arpa/inet.h>

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "datalog/parser.h"
#include "durability/recovery.h"
#include "eval/answer_sink.h"
#include "live/snapshot_manager.h"
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
  void OnAnswers(const Tuple* tuples, size_t count,
                 const SymbolTable& symbols) override {
    (void)symbols;
    chunk_sizes_.push_back(count);
    for (size_t i = 0; i < count; ++i) tuples_.push_back(tuples[i]);
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
                       size_t cache_bytes = 0) {
    source = workloads::Fig7b(db, n);
    Program program =
        ParseProgram(workloads::SgProgramText(), db.symbols()).take();
    QueryServiceOptions sopts;
    sopts.num_threads = 2;
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

}  // namespace
}  // namespace binchain
