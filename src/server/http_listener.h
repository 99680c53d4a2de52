// One HTTP/1.1 listener for both server planes: AdminServer (GET routes,
// one request per connection) and DataServer (POST /v1/query, keep-alive,
// streamed answers) each run an instance. It owns the listen socket, one
// accept thread (per-socket SO_RCVTIMEO/SO_SNDTIMEO, 503 + Retry-After
// past the hand-off queue), a handler pool that holds each connection for
// its keep-alive life, the request reader (head, framing, routing, body),
// the response writer, and Stop(). docs/architecture.md ("HTTP listener")
// has the request rules; docs/wire_protocol.md the wire contract.
//
// The planes keep separate instances: with blocking handlers, a shared
// pool would let idle data-plane clients starve /readyz.
#ifndef BINCHAIN_SERVER_HTTP_LISTENER_H_
#define BINCHAIN_SERVER_HTTP_LISTENER_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "server/http_common.h"
#include "util/status.h"

namespace binchain {

namespace obs {
class Counter;
class Gauge;
}  // namespace obs

namespace server {

/// Writes one response on a connection: a head, then either the whole
/// body or a chunked body. Head(), Write(), Chunk() and LastChunk() append
/// framed bytes to a pending buffer. Flush() sends all of it in one send
/// loop, blocking up to the socket's send timeout; TrySend() offers it to
/// the socket without blocking and keeps what the kernel does not take, so
/// a thread that must not wait on a slow reader (the data plane's
/// evaluating worker) can still stream. The route decides which bytes
/// share a send: with Nagle on, a small send that follows an
/// unacknowledged one waits for the client's ACK. The head's `Connection`
/// field is the listener's keep-alive decision for the request.
class ResponseWriter {
 public:
  ResponseWriter(int fd, bool keep_alive) : fd_(fd), keep_alive_(keep_alive) {}

  /// Head and whole body, flushed together.
  bool Send(const HttpResponse& resp);
  /// The head: a Content-Length body follows through Write(), a chunked
  /// one through Chunk() and LastChunk(). An empty content_type omits the
  /// field.
  void Head(int status, const std::string& content_type, bool chunked,
            size_t content_length, int retry_after_s = 0);
  void Write(const std::string& bytes);
  /// One chunk: hex size line, payload, CRLF.
  void Chunk(const std::string& payload);
  void LastChunk();
  /// Sends what the socket takes now, without blocking, and keeps the rest
  /// for the next TrySend() or Flush(). Returns false once the client is
  /// gone.
  bool TrySend();
  /// Sends everything pending. Returns false once the client is gone.
  bool Flush();

  /// The status of the head written, 0 before one.
  int status() const { return status_; }

 private:
  const int fd_;
  const bool keep_alive_;
  int status_ = 0;
  std::string pending_;  // framed bytes; the first sent_ already left
  size_t sent_ = 0;
};

class HttpListener {
 public:
  /// Answers one request. Returns whether the whole response was written;
  /// the connection is reused only after true.
  using Handler = std::function<bool(const HttpRequest&, ResponseWriter*)>;

  struct Config {
    std::string bind_address;
    uint16_t port = 0;
    size_t handler_threads = 1;
    size_t max_request_bytes = 0;
    int io_timeout_ms = 0;
    int accept_backlog = 0;
    size_t queue_capacity = 0;
    size_t max_body_bytes = 0;
    size_t max_requests_per_connection = 1;

    /// The fields both planes' option structs carry under these names,
    /// plus the two only the data plane sets.
    template <typename PlaneOptions>
    static Config From(const PlaneOptions& options, size_t max_body_bytes,
                       size_t max_requests_per_connection) {
      return Config{options.bind_address,      options.port,
                    options.handler_threads,   options.max_request_bytes,
                    options.io_timeout_ms,     options.accept_backlog,
                    options.queue_capacity,    max_body_bytes,
                    max_requests_per_connection};
    }
  };

  /// `not_found` answers paths no route matches. `errors` and `active`,
  /// when set, mirror request_errors() and the connections handlers hold
  /// into a plane's metrics.
  HttpListener(Config config, Handler not_found,
               obs::Counter* errors = nullptr, obs::Gauge* active = nullptr);
  /// Stops and joins if still running.
  ~HttpListener();
  HttpListener(const HttpListener&) = delete;
  HttpListener& operator=(const HttpListener&) = delete;

  /// Routes exact-match `path` to `handler`; another method on the path is
  /// 405. POST routes get the Content-Length body. Call before Start().
  void Route(const std::string& method, const std::string& path,
             Handler handler);

  /// Binds, listens, and launches the accept + handler threads. On OK the
  /// socket is live and port() reports the bound port.
  Status Start();
  /// Closes the listen socket, shuts down the read side of every
  /// connection a handler holds (an idle client's recv returns 0 at once;
  /// sends still work, so in-flight responses finish), joins every
  /// thread, and closes queued-but-unserved connections. Idempotent.
  void Stop();

  bool running() const { return running_.load(std::memory_order_acquire); }
  /// The bound port (port 0 resolves to the kernel's pick); 0 before a
  /// successful Start() and after Stop().
  uint16_t port() const { return port_; }

  /// Responses written, whatever their status: the routes' and the
  /// listener's own (rejections, accept-queue sheds).
  uint64_t requests_served() const {
    return requests_.load(std::memory_order_relaxed);
  }
  /// Requests answered with a non-2xx status or not answered whole: every
  /// non-2xx response, each connection cut inside a head or body
  /// (timeout, reset, EOF), and each response whose write failed.
  uint64_t request_errors() const {
    return errors_.load(std::memory_order_relaxed);
  }

 private:
  void AcceptLoop();
  /// Takes queued connections and serves each until its request budget
  /// is spent, the client leaves, or a response closes it.
  void HandlerLoop();
  /// Reads and answers one request; returns whether the connection can
  /// carry another.
  bool ServeOne(int fd, const std::string& peer, std::string* carry,
                bool last);
  /// Answers a bodiless status with `Connection: close`. Returns false:
  /// the connection is done.
  bool Reject(int fd, int status, int retry_after_s = 0);
  /// Counts one request; status 0 means no response was written.
  void Account(int status, bool written);

  const Config config_;
  const Handler not_found_;
  /// path -> (method, handler), frozen at Start().
  std::map<std::string, std::pair<std::string, Handler>> routes_;
  obs::Counter* const m_errors_;
  obs::Gauge* const m_active_;

  /// Atomic: Stop() swaps it to -1 (then shuts the socket down) while the
  /// accept loop is still blocked reading it for the next accept(2).
  std::atomic<int> listen_fd_{-1};
  uint16_t port_ = 0;
  std::atomic<bool> running_{false};
  std::atomic<uint64_t> requests_{0};
  std::atomic<uint64_t> errors_{0};

  std::mutex mu_;
  std::condition_variable queue_cv_;
  std::deque<int> queue_;  // accepted fds awaiting a handler
  /// fds handlers hold. A handler removes its fd before close(), so Stop()
  /// never shuts down a descriptor the kernel has reused.
  std::vector<int> held_;

  std::thread accept_thread_;
  std::vector<std::thread> handler_threads_;
};

}  // namespace server
}  // namespace binchain

#endif  // BINCHAIN_SERVER_HTTP_LISTENER_H_
