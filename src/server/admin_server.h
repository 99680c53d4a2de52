// Admin-plane HTTP server: the process's observability socket.
//
// ROADMAP item 1 ("make it a server") splits naturally into two planes.
// The *data* plane — streaming answers, rate limiting, retry-after — needs
// design work (chunk sinks threaded through the engine). The *admin*
// plane does not: every payload already exists as a string renderer
// (RenderPrometheus, flight-recorder JSON, Chrome traces), so what is
// missing is only a socket that speaks enough HTTP/1.1 for curl,
// Prometheus, and kubelet-style probes. AdminServer is that socket, and
// deliberately nothing more:
//
//  * GET only, one request per connection (`Connection: close`), no
//    keep-alive, no TLS, no request bodies. Scrapers and probes retry;
//    none of them need connection reuse against a process-local port.
//  * A table of GET routes on its own HttpListener (http_listener.h),
//    which brings the accept thread, the small handler pool, the
//    request limits (431, slowloris timeout, 503 shed) and the response
//    writer. Its own pool keeps slow data-plane clients from ever
//    delaying a readiness probe.
//
// Routing is exact-match on the path (query params are parsed off and
// handed to the handler). Handlers run on pool threads concurrently with
// each other and with everything else in the process, so they must only
// touch thread-safe state — the registry, the span rings and the service
// accessors they serve all are.
#ifndef BINCHAIN_SERVER_ADMIN_SERVER_H_
#define BINCHAIN_SERVER_ADMIN_SERVER_H_

#include <cstdint>
#include <string>

#include "server/http_common.h"
#include "server/http_listener.h"
#include "util/status.h"

namespace binchain {
namespace server {

struct AdminServerOptions {
  /// Address to bind. The default stays loopback-only: the admin plane
  /// exposes internals and has no auth, so exposing it wider is an
  /// explicit operator decision.
  std::string bind_address = "127.0.0.1";
  /// TCP port; 0 picks an ephemeral port (read it back via port()).
  uint16_t port = 0;
  /// Threads serving parsed requests. Scrape + probe traffic is light;
  /// two threads mean a slow scrape never blocks a readiness probe.
  size_t handler_threads = 2;
  /// Hard cap on the request head (request line + headers). Anything
  /// larger is answered 431 and the connection dropped.
  size_t max_request_bytes = 8192;
  /// Per-connection socket send/receive timeout. A client that neither
  /// finishes its request nor drains the response within this window is
  /// closed (slowloris guard).
  int io_timeout_ms = 5000;
  /// listen(2) backlog.
  int accept_backlog = 16;
  /// Accepted connections waiting for a handler. The accept thread
  /// answers 503 beyond this instead of queueing without bound.
  size_t queue_capacity = 64;
};

// HttpRequest / HttpResponse / HttpHandler live in http_common.h — one
// wire vocabulary shared with the data plane (DataServer).

class AdminServer {
 public:
  explicit AdminServer(AdminServerOptions options = {});
  AdminServer(const AdminServer&) = delete;
  AdminServer& operator=(const AdminServer&) = delete;

  /// Registers `handler` for exact-match `path` (no patterns; query
  /// strings are stripped before matching). Call before Start().
  void Handle(const std::string& path, HttpHandler handler);

  // Lifecycle and counters are the listener's; HttpListener documents
  // them. The destructor stops the server.
  Status Start() { return listener_.Start(); }
  void Stop() { listener_.Stop(); }
  bool running() const { return listener_.running(); }
  uint16_t port() const { return listener_.port(); }
  uint64_t requests_served() const { return listener_.requests_served(); }
  uint64_t request_errors() const { return listener_.request_errors(); }

 private:
  HttpListener listener_;
};

}  // namespace server
}  // namespace binchain

#endif  // BINCHAIN_SERVER_ADMIN_SERVER_H_
