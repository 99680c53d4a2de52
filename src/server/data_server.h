// Data-plane HTTP server: the process's query socket.
//
// The admin plane (AdminServer) serves strings that already exist; the
// data plane serves *evaluations* — requests that run for milliseconds to
// seconds and produce answer sets of unknown size. That difference drives
// every design choice here:
//
//  * POST /v1/query with a JSON body decoding to the canonical
//    QueryRequest (the same struct the CLI and in-process callers build —
//    one option surface, documented in docs/wire_protocol.md).
//  * Streaming by default: the response is NDJSON answer chunks under
//    chunked transfer encoding, delivered *while the fixpoint runs*. The
//    handler threads an AnswerSink through the request the same way the
//    CancelToken is threaded; the sink writes each chunk into the
//    response and offers it to the socket from the evaluating thread,
//    without blocking, so the first chunk leaves at the engine's first
//    flush point, strictly before evaluation completes on multi-iteration
//    workloads. A final trailer line carries the terminal status, epoch,
//    and EvalStats. `"stream": false` buffers the same lines into one
//    Content-Length response — byte-identical payload, no incremental
//    delivery.
//  * Keep-alive: queries are request/response conversations, so (unlike
//    the admin plane) connections are reused up to
//    max_requests_per_connection; chunked framing makes each response
//    self-delimiting.
//  * Admission control in layers: token buckets (RateLimiter — a
//    peer-aggregate bucket charged first, then a per-identity bucket
//    keyed (peer, client_id), so a client-chosen id can never escape its
//    peer's budget) answering 429 with a computed Retry-After, and the
//    query service's own queue high-water mark surfacing as
//    503 + Retry-After.
//    A request that passes admission is answered 200 even if evaluation
//    later fails — the terminal status travels in the trailer, because
//    the HTTP status line has already been sent by then.
//
// The socket side is an HttpListener (http_listener.h) of its own, with
// one route, POST /v1/query: the accept thread, the handler pool, the
// request reader (framing, 404/405/411/413) and the response writer are
// the same code the admin plane runs. A handler holds its connection for
// the connection's keep-alive life and waits for its query's response
// (the worker writes the chunks; the handler then writes the status line
// if no chunk was written, and the trailer), so handler_threads bounds
// concurrent HTTP-driven evaluations — set it below the service's worker
// count to keep in-process callers from starving.
#ifndef BINCHAIN_SERVER_DATA_SERVER_H_
#define BINCHAIN_SERVER_DATA_SERVER_H_

#include <cstdint>
#include <string>

#include "server/http_common.h"
#include "server/http_listener.h"
#include "server/rate_limiter.h"
#include "util/status.h"

namespace binchain {

class QueryService;

namespace obs {
class Counter;
class Gauge;
class Histogram;
}  // namespace obs

namespace server {

struct DataServerOptions {
  /// Loopback by default, like the admin plane: exposing an unauthenticated
  /// query socket wider is an explicit operator decision.
  std::string bind_address = "127.0.0.1";
  /// TCP port; 0 picks an ephemeral port (read it back via port()).
  uint16_t port = 0;
  /// Handler threads — the bound on concurrent HTTP-driven queries (each
  /// handler waits on one query at a time).
  size_t handler_threads = 4;
  /// Cap on the request head (request line + headers); larger heads are
  /// answered 431 and the connection dropped.
  size_t max_request_bytes = 64 * 1024;
  /// Cap on the JSON body; a Content-Length past this is answered 413.
  size_t max_body_bytes = 1024 * 1024;
  /// Per-connection socket send/receive timeout (slowloris guard). Also
  /// bounds how long a dead client can stall a handler's final flush; the
  /// evaluating worker's sends never block.
  int io_timeout_ms = 10000;
  /// listen(2) backlog.
  int accept_backlog = 64;
  /// Accepted connections waiting for a handler; past this the accept
  /// thread sheds with 503 + Retry-After.
  size_t queue_capacity = 256;
  /// Keep-alive budget: requests served on one connection before the
  /// server closes it (`Connection: close` on the last response).
  size_t max_requests_per_connection = 256;
  /// Per-client admission (defaults to disabled: qps 0). Identity buckets
  /// are keyed (peer address, claimed client id) — a client id is an
  /// unauthenticated claim, so it refines the peer's budget rather than
  /// escaping it.
  RateLimiterOptions rate_limit;
  /// The aggregate budget one peer address gets across all client ids it
  /// presents, as a multiple of the per-client limits (qps and burst both
  /// scale). Charged before the identity bucket, so rotating client ids
  /// cannot mint fresh buckets faster than this. <= 0 disables the peer
  /// layer (e.g. when everything arrives via one trusted proxy that
  /// vouches for its ids). Ignored while rate_limit.qps <= 0.
  double peer_qps_multiplier = 16;
};

class DataServer {
 public:
  /// `service` is borrowed and must outlive the server (Stop() joins every
  /// handler before returning, so no request outlives either).
  explicit DataServer(QueryService* service, DataServerOptions options = {});
  DataServer(const DataServer&) = delete;
  DataServer& operator=(const DataServer&) = delete;

  // Lifecycle and counters are the listener's; HttpListener documents
  // them. In-flight streams finish on Stop() (their queries complete, or
  // are cancelled when a send finds the client gone). The destructor
  // stops the server.
  Status Start() { return listener_.Start(); }
  void Stop() { listener_.Stop(); }
  bool running() const { return listener_.running(); }
  uint16_t port() const { return listener_.port(); }
  uint64_t requests_served() const { return listener_.requests_served(); }
  uint64_t request_errors() const { return listener_.request_errors(); }

 private:
  /// Decodes, admits, submits and takes one query (its sink streams or
  /// buffers the answer lines), then writes the status line if no chunk
  /// was written, and the trailer. Returns whether the whole response was
  /// written.
  bool HandleQuery(const HttpRequest& req, ResponseWriter* writer);

  const DataServerOptions options_;
  QueryService* const service_;
  RateLimiter limiter_;       // per (peer, client_id) identity buckets
  RateLimiter peer_limiter_;  // per-peer aggregate layer, charged first

  /// binchain_dataplane_* instruments, registered at construction (the
  /// listener holds the errors counter and the connections gauge).
  obs::Counter* m_requests_;
  obs::Counter* m_streamed_;
  obs::Counter* m_chunks_;
  obs::Counter* m_rate_limited_;
  obs::Counter* m_overloaded_;
  obs::Histogram* m_request_ms_;
  obs::Histogram* m_first_chunk_ms_;

  /// Last: destroyed, and so stopped, before anything its handlers use.
  HttpListener listener_;
};

}  // namespace server
}  // namespace binchain

#endif  // BINCHAIN_SERVER_DATA_SERVER_H_
