// Admin-plane HTTP server: request parsing and defensive limits on the
// raw socket (404/405/400/431, slowloris timeout, ephemeral port bind,
// query-string decoding), the listener rules both planes share (one
// framing table run against AdminServer and DataServer, and Stop() with
// an idle client connected), then the registered endpoints over a real
// QueryService — /metrics under concurrent scrape + query load (the TSan
// target), /readyz flipping 503 -> 200 across FinishRecovery, and
// /debug/trace rendering well-formed Chrome trace-event JSON carrying
// both query and publish spans.
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <stdlib.h>
#include <sys/socket.h>
#include <unistd.h>

#include <arpa/inet.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "cache/answer_cache.h"
#include "datalog/parser.h"
#include "durability/recovery.h"
#include "live/snapshot_manager.h"
#include "obs/metrics.h"
#include "server/admin_endpoints.h"
#include "server/admin_server.h"
#include "server/data_server.h"
#include "service/query_service.h"
#include "storage/database.h"
#include "workloads/workloads.h"

namespace binchain {
namespace {

namespace fs = std::filesystem;
using server::AdminServer;
using server::AdminServerOptions;
using server::HttpRequest;
using server::HttpResponse;

/// Self-cleaning scratch directory for the recovery-gated scenario.
class TempDir {
 public:
  TempDir() {
    std::string tmpl =
        (fs::temp_directory_path() / "binchain_srv_XXXXXX").string();
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

/// One parsed HTTP exchange as the raw-socket client below sees it.
struct FetchResult {
  bool ok = false;       // connected, sent, and got a parseable status line
  int status = 0;
  std::string head;      // status line + headers
  std::string body;
};

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

/// Sends `raw` verbatim and reads until the server closes the connection
/// (the server always answers `Connection: close`).
FetchResult Exchange(uint16_t port, const std::string& raw) {
  FetchResult r;
  int fd = ConnectTo(port);
  if (fd < 0) return r;
  if (send(fd, raw.data(), raw.size(), MSG_NOSIGNAL) !=
      static_cast<ssize_t>(raw.size())) {
    close(fd);
    return r;
  }
  std::string resp;
  char buf[4096];
  for (;;) {
    ssize_t n = recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    resp.append(buf, static_cast<size_t>(n));
  }
  close(fd);
  size_t split = resp.find("\r\n\r\n");
  if (split == std::string::npos) return r;
  r.head = resp.substr(0, split);
  r.body = resp.substr(split + 4);
  // "HTTP/1.1 NNN Reason"
  if (r.head.rfind("HTTP/1.1 ", 0) != 0 || r.head.size() < 12) return r;
  r.status = std::atoi(r.head.c_str() + 9);
  r.ok = r.status != 0;
  return r;
}

FetchResult Get(uint16_t port, const std::string& target) {
  return Exchange(port, "GET " + target +
                            " HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n");
}

/// Minimal JSON well-formedness scan: balanced {}/[] outside strings,
/// string escapes honored, nothing but whitespace after the close. Not a
/// full parser — but any brace/quote slip in a renderer fails it, which
/// is exactly the regression class the trace endpoints can have.
bool JsonBalanced(const std::string& s) {
  std::vector<char> stack;
  bool in_string = false;
  bool escaped = false;
  size_t i = 0;
  for (; i < s.size(); ++i) {
    char c = s[i];
    if (in_string) {
      if (escaped) {
        escaped = false;
      } else if (c == '\\') {
        escaped = true;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    if (c == '"') {
      in_string = true;
    } else if (c == '{' || c == '[') {
      stack.push_back(c);
    } else if (c == '}' || c == ']') {
      if (stack.empty()) return false;
      char open = stack.back();
      stack.pop_back();
      if ((c == '}') != (open == '{')) return false;
      if (stack.empty()) break;  // top-level value closed
    }
  }
  if (in_string || !stack.empty() || i >= s.size()) return false;
  for (++i; i < s.size(); ++i) {
    if (s[i] != ' ' && s[i] != '\n' && s[i] != '\r' && s[i] != '\t') {
      return false;
    }
  }
  return true;
}

// ------------------------------------------------------- raw server tests

TEST(AdminServerTest, ServesHandlersAndResolvesEphemeralPort) {
  AdminServer srv;  // default options: port 0
  srv.Handle("/ping", [](const HttpRequest&) {
    HttpResponse resp;
    resp.body = "pong\n";
    return resp;
  });
  ASSERT_TRUE(srv.Start().ok());
  ASSERT_NE(srv.port(), 0);
  FetchResult r = Get(srv.port(), "/ping");
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.status, 200);
  EXPECT_EQ(r.body, "pong\n");
  EXPECT_NE(r.head.find("Content-Length: 5"), std::string::npos) << r.head;
  EXPECT_NE(r.head.find("Connection: close"), std::string::npos);
  EXPECT_GE(srv.requests_served(), 1u);
  srv.Stop();
  srv.Stop();  // idempotent
  EXPECT_FALSE(srv.running());
}

TEST(AdminServerTest, UnknownPathIs404AndCountedAsError) {
  AdminServer srv;
  ASSERT_TRUE(srv.Start().ok());
  FetchResult r = Get(srv.port(), "/no/such/route");
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.status, 404);
  EXPECT_NE(r.body.find("/no/such/route"), std::string::npos);
  EXPECT_GE(srv.request_errors(), 1u);
}

TEST(AdminServerTest, NonGetIs405AndGarbageIs400) {
  AdminServer srv;
  srv.Handle("/", [](const HttpRequest&) { return HttpResponse{}; });
  ASSERT_TRUE(srv.Start().ok());
  FetchResult post = Exchange(
      srv.port(), "POST / HTTP/1.1\r\nContent-Length: 0\r\n\r\n");
  ASSERT_TRUE(post.ok);
  EXPECT_EQ(post.status, 405);
  FetchResult garbage = Exchange(srv.port(), "NONSENSE\r\n\r\n");
  ASSERT_TRUE(garbage.ok);
  EXPECT_EQ(garbage.status, 400);
  EXPECT_GE(srv.request_errors(), 2u);
}

TEST(AdminServerTest, OversizedHeadIs431) {
  AdminServerOptions opts;
  opts.max_request_bytes = 256;
  AdminServer srv(opts);
  srv.Handle("/", [](const HttpRequest&) { return HttpResponse{}; });
  ASSERT_TRUE(srv.Start().ok());
  std::string huge = "GET / HTTP/1.1\r\nX-Padding: ";
  huge.append(4096, 'x');
  huge += "\r\n\r\n";
  FetchResult r = Exchange(srv.port(), huge);
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.status, 431);
}

TEST(AdminServerTest, SlowlorisConnectionIsClosedAfterTimeout) {
  AdminServerOptions opts;
  opts.io_timeout_ms = 200;
  AdminServer srv(opts);
  srv.Handle("/", [](const HttpRequest&) { return HttpResponse{}; });
  ASSERT_TRUE(srv.Start().ok());
  int fd = ConnectTo(srv.port());
  ASSERT_GE(fd, 0);
  // A header-in-progress that never completes. The server must give up on
  // its own (recv timeout) rather than pinning the handler forever.
  const char partial[] = "GET / HTTP/1.1\r\nX-Stall: ";
  ASSERT_GT(send(fd, partial, sizeof(partial) - 1, MSG_NOSIGNAL), 0);
  char buf[64];
  ssize_t n = recv(fd, buf, sizeof(buf), 0);  // blocks until server closes
  EXPECT_LE(n, 0);
  close(fd);
  EXPECT_GE(srv.request_errors(), 1u);
  // The pool is still healthy after dropping the stalled client.
  FetchResult r = Get(srv.port(), "/");
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.status, 200);
}

TEST(AdminServerTest, QueryParamsAreDecodedAndStripped) {
  AdminServer srv;
  srv.Handle("/echo", [](const HttpRequest& req) {
    HttpResponse resp;
    for (const auto& kv : req.params) {
      resp.body += kv.first + "=" + kv.second + ";";
    }
    return resp;
  });
  ASSERT_TRUE(srv.Start().ok());
  FetchResult r = Get(srv.port(), "/echo?a=1&b=x%20y+z&flag");
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.status, 200);
  EXPECT_EQ(r.body, "a=1;b=x y z;flag=;");
}

// ---------------------------------------------- listener rules, both planes

/// Limits a listener case sets on either plane's options (0 keeps the
/// plane's default).
struct Limits {
  size_t max_request_bytes = 0;
  int io_timeout_ms = 0;
  size_t handler_threads = 0;
  size_t queue_capacity = 0;
};

template <typename Options>
Options WithLimits(const Limits& limits) {
  Options o;
  if (limits.max_request_bytes != 0) {
    o.max_request_bytes = limits.max_request_bytes;
  }
  if (limits.io_timeout_ms != 0) o.io_timeout_ms = limits.io_timeout_ms;
  if (limits.handler_threads != 0) o.handler_threads = limits.handler_threads;
  if (limits.queue_capacity != 0) o.queue_capacity = limits.queue_capacity;
  return o;
}

struct AdminPlane {
  AdminServer server;
  explicit AdminPlane(const Limits& limits)
      : server(WithLimits<AdminServerOptions>(limits)) {}
};

struct DataPlane {
  Database db;
  std::unique_ptr<QueryService> service;
  std::unique_ptr<server::DataServer> server;
  explicit DataPlane(const Limits& limits) {
    workloads::Fig7b(db, 8);
    Program program =
        ParseProgram(workloads::SgProgramText(), db.symbols()).take();
    QueryServiceOptions opts;
    opts.num_threads = 2;
    service = std::make_unique<QueryService>(&db, program, opts);
    server = std::make_unique<server::DataServer>(
        service.get(), WithLimits<server::DataServerOptions>(limits));
  }
};

AdminServer& ServerOf(AdminPlane& p) { return p.server; }
server::DataServer& ServerOf(DataPlane& p) { return *p.server; }

/// Every byte a connection receives until the server closes it. A close
/// with request bytes still unread arrives as a reset, which counts; a
/// 5 s client-side timeout turns a server that never closes into a
/// failure.
std::string ReadToClose(int fd) {
  timeval tv{5, 0};
  setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  std::string got;
  char buf[4096];
  for (;;) {
    ssize_t n = recv(fd, buf, sizeof(buf), 0);
    if (n == 0 || (n < 0 && errno == ECONNRESET)) return got;
    if (n < 0) return got + "<no close>";
    got.append(buf, static_cast<size_t>(n));
  }
}

/// One row: `clients` connections each send `raw` and are read until the
/// server closes them. With want_status 0 no client may get a byte back;
/// otherwise at least one must get that status and carry `want_header`.
struct ListenerCase {
  const char* name;
  Limits limits;
  std::string raw;
  int clients;
  int want_status;
  const char* want_header;
};

const ListenerCase kListenerCases[] = {
    {"garbage head", {}, "NONSENSE\r\n\r\n", 1, 400, "Connection: close"},
    {"oversized head",
     {256, 0, 0, 0},
     "GET / HTTP/1.1\r\nX-Padding: " + std::string(4096, 'x') + "\r\n\r\n",
     1,
     431,
     "Connection: close"},
    {"slowloris head", {0, 200, 0, 0}, "GET / HTTP/1.1\r\nX-Stall: ", 1, 0,
     nullptr},
    // One handler held by a stalled client and a one-slot queue: of three
    // stalled clients at least one finds the queue full.
    {"accept-queue overflow",
     {0, 300, 1, 1},
     "GET / HTTP/1.1\r\nX-Stall: ",
     3,
     503,
     "Retry-After: 1"},
};

template <typename Plane>
class ListenerRulesTest : public ::testing::Test {};
using Planes = ::testing::Types<AdminPlane, DataPlane>;
TYPED_TEST_SUITE(ListenerRulesTest, Planes);

TYPED_TEST(ListenerRulesTest, FramingTable) {
  for (const ListenerCase& c : kListenerCases) {
    SCOPED_TRACE(c.name);
    TypeParam plane(c.limits);
    auto& srv = ServerOf(plane);
    ASSERT_TRUE(srv.Start().ok());
    std::vector<int> fds;
    for (int i = 0; i < c.clients; ++i) {
      int fd = ConnectTo(srv.port());
      ASSERT_GE(fd, 0);
      ASSERT_EQ(send(fd, c.raw.data(), c.raw.size(), MSG_NOSIGNAL),
                static_cast<ssize_t>(c.raw.size()));
      fds.push_back(fd);
    }
    int matched = 0;
    for (int fd : fds) {
      std::string got = ReadToClose(fd);
      close(fd);
      EXPECT_EQ(got.find("<no close>"), std::string::npos) << got;
      if (c.want_status == 0) {
        EXPECT_EQ(got, "");
      } else if (got.rfind("HTTP/1.1 " + std::to_string(c.want_status), 0) ==
                 0) {
        EXPECT_NE(got.find(std::string(c.want_header) + "\r\n"),
                  std::string::npos)
            << got;
        ++matched;
      }
    }
    if (c.want_status != 0) {
      EXPECT_GE(matched, 1);
    }
    EXPECT_GE(srv.request_errors(), 1u);
  }
}

// Stop() shuts down the read side of every connection a handler holds,
// so a silent client cannot make it wait out the default I/O timeout
// (5 s on the admin plane, 10 s on the data plane).
TYPED_TEST(ListenerRulesTest, StopDoesNotWaitOutAnIdleClient) {
  TypeParam plane(Limits{});
  auto& srv = ServerOf(plane);
  ASSERT_TRUE(srv.Start().ok());
  int fd = ConnectTo(srv.port());
  ASSERT_GE(fd, 0);
  // Long enough for a handler to take the connection off the queue.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  auto t0 = std::chrono::steady_clock::now();
  srv.Stop();
  double ms = std::chrono::duration<double, std::milli>(
                  std::chrono::steady_clock::now() - t0)
                  .count();
  EXPECT_LT(ms, 1000.0);
  EXPECT_FALSE(srv.running());
  EXPECT_EQ(ReadToClose(fd), "");
  close(fd);
}

// --------------------------------------------------- endpoints over a live
// service

struct LiveFixture {
  std::unique_ptr<SnapshotManager> manager;
  std::unique_ptr<Program> program;
  std::unique_ptr<QueryService> service;
  AdminServer srv;

  explicit LiveFixture(int n = 64, size_t threads = 2) {
    auto genesis = std::make_unique<Database>();
    workloads::Fig7a(*genesis, n);
    program = std::make_unique<Program>(
        ParseProgram(workloads::SgProgramText(), genesis->symbols()).take());
    manager = std::make_unique<SnapshotManager>(std::move(genesis));
    QueryServiceOptions opts;
    opts.num_threads = threads;
    service =
        std::make_unique<QueryService>(manager.get(), *program, opts);
    EXPECT_TRUE(service->status().ok()) << service->status().message();
    server::RegisterAdminEndpoints(&srv, service.get(), manager.get());
    EXPECT_TRUE(srv.Start().ok());
  }
};

TEST(AdminEndpointsTest, MetricsScrapeIsPrometheusWithProcessFamily) {
  LiveFixture fx;
  QueryRequest req{"sg", "", "", {}};
  ASSERT_TRUE(fx.service->Eval(req).status.ok());

  FetchResult r = Get(fx.srv.port(), "/metrics");
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.status, 200);
  EXPECT_NE(r.head.find("text/plain; version=0.0.4"), std::string::npos)
      << r.head;
  // The satellite families: process-level gauges registered at first
  // Global() use, alongside the service counters the query just bumped.
  EXPECT_NE(r.body.find("binchain_process_uptime_seconds"),
            std::string::npos);
  EXPECT_NE(r.body.find("binchain_process_start_time_seconds"),
            std::string::npos);
  EXPECT_NE(r.body.find("binchain_process_build_info"), std::string::npos);
  EXPECT_NE(r.body.find("binchain_service_queries_total"),
            std::string::npos);

  FetchResult j = Get(fx.srv.port(), "/metrics.json");
  ASSERT_TRUE(j.ok);
  EXPECT_EQ(j.status, 200);
  EXPECT_NE(j.head.find("application/json"), std::string::npos);
  EXPECT_TRUE(JsonBalanced(j.body)) << j.body.substr(0, 200);
}

// The TSan target: scrapers hammering every endpoint while the service
// evaluates and the manager publishes. Any unsynchronized read the
// handlers make of service/manager state is a data race here.
TEST(AdminEndpointsTest, ConcurrentScrapesDuringQueryAndPublishLoad) {
  LiveFixture fx(64, 2);
  std::atomic<bool> stop{false};
  std::vector<std::thread> scrapers;
  const char* targets[] = {"/metrics", "/debug/queries", "/debug/trace",
                           "/debug/epochs", "/readyz"};
  for (const char* target : targets) {
    scrapers.emplace_back([&fx, &stop, target] {
      while (!stop.load(std::memory_order_acquire)) {
        FetchResult r = Get(fx.srv.port(), target);
        EXPECT_TRUE(r.ok);
        EXPECT_EQ(r.status, 200);
      }
    });
  }
  for (int round = 0; round < 10; ++round) {
    std::vector<QueryRequest> batch;
    for (int i = 0; i < 4; ++i) batch.push_back(QueryRequest{"sg", "", "", {}});
    for (const QueryResponse& resp : fx.service->EvalBatch(batch, nullptr)) {
      EXPECT_TRUE(resp.status.ok());
    }
    fx.manager->AddFact("up", {"r" + std::to_string(round), "s"});
    EXPECT_TRUE(fx.manager->Publish().status.ok());
  }
  stop.store(true, std::memory_order_release);
  for (std::thread& t : scrapers) t.join();
  EXPECT_GE(fx.srv.requests_served(), scrapers.size());
}

TEST(AdminEndpointsTest, ReadyzFlips503To200AcrossFinishRecovery) {
  TempDir dir;
  auto rm = durability::RecoveryManager::Load(dir.path()).take();
  auto genesis = rm->BuildGenesis();
  workloads::Fig7a(*genesis, 16);
  Program program =
      ParseProgram(workloads::SgProgramText(), genesis->symbols()).take();
  SnapshotManager manager(std::move(genesis));
  QueryService service(&manager, rm.get(), program, {2, 64});
  ASSERT_TRUE(service.status().ok()) << service.status().message();

  AdminServer srv;
  server::RegisterAdminEndpoints(&srv, &service, &manager);
  ASSERT_TRUE(srv.Start().ok());

  // Gate closed: alive but not ready — and /debug/epochs says so too.
  FetchResult alive = Get(srv.port(), "/healthz");
  ASSERT_TRUE(alive.ok);
  EXPECT_EQ(alive.status, 200);
  FetchResult held = Get(srv.port(), "/readyz");
  ASSERT_TRUE(held.ok);
  EXPECT_EQ(held.status, 503);
  EXPECT_NE(held.body.find("recovery in progress"), std::string::npos);
  FetchResult epochs = Get(srv.port(), "/debug/epochs");
  ASSERT_TRUE(epochs.ok);
  EXPECT_NE(epochs.body.find("\"serving\": false"), std::string::npos);

  ASSERT_TRUE(service.FinishRecovery().ok());

  FetchResult ready = Get(srv.port(), "/readyz");
  ASSERT_TRUE(ready.ok);
  EXPECT_EQ(ready.status, 200);
  EXPECT_EQ(ready.body, "ready\n");
  epochs = Get(srv.port(), "/debug/epochs");
  ASSERT_TRUE(epochs.ok);
  EXPECT_NE(epochs.body.find("\"serving\": true"), std::string::npos);
  EXPECT_NE(epochs.body.find("\"wal\": {"), std::string::npos);
  EXPECT_TRUE(JsonBalanced(epochs.body)) << epochs.body;
}

TEST(AdminEndpointsTest, DebugTraceIsChromeTraceJsonWithBothSpanKinds) {
  LiveFixture fx;
  // One publish and a few queries so both rings have spans.
  fx.manager->AddFact("up", {"t1", "t2"});
  ASSERT_TRUE(fx.manager->Publish().status.ok());
  for (int i = 0; i < 3; ++i) {
    QueryRequest req{"sg", "", "", {}};
    ASSERT_TRUE(fx.service->Eval(req).status.ok());
  }

  FetchResult r = Get(fx.srv.port(), "/debug/trace");
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.status, 200);
  EXPECT_NE(r.head.find("application/json"), std::string::npos);
  EXPECT_TRUE(JsonBalanced(r.body)) << r.body.substr(0, 400);
  EXPECT_NE(r.body.find("\"displayTimeUnit\": \"ms\""), std::string::npos);
  EXPECT_NE(r.body.find("\"traceEvents\": ["), std::string::npos);
  EXPECT_NE(r.body.find("\"name\": \"process_name\""), std::string::npos);
  // Both span kinds made it into the export.
  EXPECT_NE(r.body.find("\"cat\": \"query\""), std::string::npos);
  EXPECT_NE(r.body.find("\"cat\": \"publish\""), std::string::npos);
  EXPECT_NE(r.body.find("\"name\": \"publish e1\""), std::string::npos);

  // ?last=1 bounds each ring independently: exactly one query slice
  // (plus its phase children) and still the one publish.
  FetchResult bounded = Get(fx.srv.port(), "/debug/trace?last=1");
  ASSERT_TRUE(bounded.ok);
  size_t query_slices = 0;
  for (size_t pos = bounded.body.find("\"name\": \"query ");
       pos != std::string::npos;
       pos = bounded.body.find("\"name\": \"query ", pos + 1)) {
    ++query_slices;
  }
  EXPECT_EQ(query_slices, 1u);
  EXPECT_NE(bounded.body.find("\"cat\": \"publish\""), std::string::npos);

  // /debug/queries is the raw flight-recorder array.
  FetchResult q = Get(fx.srv.port(), "/debug/queries");
  ASSERT_TRUE(q.ok);
  EXPECT_TRUE(JsonBalanced(q.body)) << q.body.substr(0, 200);
  EXPECT_NE(q.body.find("\"query_id\": "), std::string::npos);
}

// /debug/cache on a cache-less service must say so (and stay valid JSON)
// rather than 404 or fabricate stats.
TEST(AdminEndpointsTest, DebugCacheReportsDisabledWithoutACache) {
  LiveFixture fx;
  FetchResult r = Get(fx.srv.port(), "/debug/cache");
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.status, 200);
  EXPECT_TRUE(JsonBalanced(r.body)) << r.body;
  EXPECT_NE(r.body.find("\"enabled\": false"), std::string::npos);
}

// Regression guard for the answer cache vs the recovery gate: admission is
// checked before the cache, so a cache-enabled service must keep answering
// kUnavailable until FinishRecovery() — a cache hit must never leak a
// pre-recovery answer. After the gate opens, repeats hit as usual and
// /debug/cache exposes the stats.
TEST(AdminEndpointsTest, CacheEnabledServiceStaysGatedUntilRecovery) {
  TempDir dir;
  auto rm = durability::RecoveryManager::Load(dir.path()).take();
  auto genesis = rm->BuildGenesis();
  workloads::Fig7a(*genesis, 16);
  Program program =
      ParseProgram(workloads::SgProgramText(), genesis->symbols()).take();
  SnapshotManager manager(std::move(genesis));
  QueryServiceOptions opts;
  opts.num_threads = 2;
  opts.answer_cache_bytes = 1 << 20;
  QueryService service(&manager, rm.get(), program, opts);
  ASSERT_TRUE(service.status().ok()) << service.status().message();
  ASSERT_NE(service.answer_cache(), nullptr);

  AdminServer srv;
  server::RegisterAdminEndpoints(&srv, &service, &manager);
  ASSERT_TRUE(srv.Start().ok());

  QueryRequest req{"sg", "a", "", {}};
  // Gate closed: both submission paths refuse, and nothing reaches the
  // cache (no lookups, no fills a later hit could replay).
  QueryResponse gated = service.Eval(req);
  EXPECT_EQ(gated.status.code(), StatusCode::kUnavailable);
  QueryResponse gated_async = service.Submit(req).Take();
  EXPECT_EQ(gated_async.status.code(), StatusCode::kUnavailable);
  cache::CacheSnapshot snap = service.answer_cache()->Snapshot();
  EXPECT_EQ(snap.hits + snap.misses, 0u);
  EXPECT_EQ(snap.entries, 0u);

  ASSERT_TRUE(service.FinishRecovery().ok());

  QueryResponse first = service.Eval(req);
  ASSERT_TRUE(first.status.ok()) << first.status.message();
  EXPECT_FALSE(first.trace.cache_hit);
  QueryResponse second = service.Eval(req);
  ASSERT_TRUE(second.status.ok());
  EXPECT_TRUE(second.trace.cache_hit);
  EXPECT_EQ(second.tuples, first.tuples);
  EXPECT_GE(service.answer_cache()->Snapshot().hits, 1u);

  FetchResult r = Get(srv.port(), "/debug/cache");
  ASSERT_TRUE(r.ok);
  EXPECT_TRUE(JsonBalanced(r.body)) << r.body;
  EXPECT_NE(r.body.find("\"enabled\": true"), std::string::npos);
  EXPECT_NE(r.body.find("\"hits\": "), std::string::npos);
}

}  // namespace
}  // namespace binchain
