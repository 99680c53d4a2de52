#include "server/http_listener.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <utility>

#include "obs/metrics.h"

namespace binchain {
namespace server {

namespace {

/// Writes the whole buffer, tolerating short sends. MSG_NOSIGNAL: a
/// client that hung up mid-response must surface as EPIPE, not SIGPIPE.
bool SendAll(int fd, const char* data, size_t n) {
  size_t off = 0;
  while (off < n) {
    ssize_t w = send(fd, data + off, n - off, MSG_NOSIGNAL);
    if (w <= 0) {
      if (w < 0 && errno == EINTR) continue;
      return false;
    }
    off += static_cast<size_t>(w);
  }
  return true;
}

/// The one response-head builder, appending to *out. Field order is part
/// of the wire contract both planes' clients and tests see.
void AppendResponseHead(std::string* out, int status,
                        const std::string& content_type, bool chunked,
                        size_t content_length, int retry_after_s,
                        bool keep_alive) {
  std::string& head = *out;
  head += "HTTP/1.1 " + std::to_string(status) + " " + ReasonPhrase(status) +
          "\r\n";
  if (!content_type.empty()) head += "Content-Type: " + content_type + "\r\n";
  if (chunked) {
    head += "Transfer-Encoding: chunked\r\n";
  } else {
    head += "Content-Length: " + std::to_string(content_length) + "\r\n";
  }
  if (retry_after_s > 0) {
    head += "Retry-After: " + std::to_string(retry_after_s) + "\r\n";
  }
  head += keep_alive ? "Connection: keep-alive\r\n\r\n"
                     : "Connection: close\r\n\r\n";
}

/// socket/bind/listen: binds `bind_address:port` (port 0 picks an
/// ephemeral port) and reports the resolved port through *bound_port.
/// The fd is closed on every failure path.
Result<int> OpenListenSocket(const std::string& bind_address, uint16_t port,
                             int backlog, uint16_t* bound_port) {
  int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::Internal(std::string("socket: ") + std::strerror(errno));
  }
  int one = 1;
  setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (inet_pton(AF_INET, bind_address.c_str(), &addr.sin_addr) != 1) {
    close(fd);
    return Status::InvalidArgument("bad bind address '" + bind_address + "'");
  }
  if (bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    Status s = Status::Internal(std::string("bind: ") + std::strerror(errno));
    close(fd);
    return s;
  }
  if (listen(fd, backlog) != 0) {
    Status s = Status::Internal(std::string("listen: ") + std::strerror(errno));
    close(fd);
    return s;
  }
  // Resolve an ephemeral bind (port 0) to the kernel's pick.
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) != 0) {
    Status s =
        Status::Internal(std::string("getsockname: ") + std::strerror(errno));
    close(fd);
    return s;
  }
  *bound_port = ntohs(bound.sin_port);
  return fd;
}

/// The peer's IPv4 address: the key of the data plane's peer-aggregate
/// admission bucket and the trust scope of any claimed client id.
std::string PeerAddress(int fd) {
  sockaddr_in sa{};
  socklen_t sa_len = sizeof(sa);
  char buf[INET_ADDRSTRLEN] = {0};
  if (getpeername(fd, reinterpret_cast<sockaddr*>(&sa), &sa_len) == 0 &&
      sa.sin_family == AF_INET &&
      inet_ntop(AF_INET, &sa.sin_addr, buf, sizeof(buf)) != nullptr) {
    return buf;
  }
  return "unknown";
}

/// RFC 9112 §6.3: a Content-Length is digits only. A repeated field
/// arrives joined with ", " (ParseRequestHead), so it fails this too.
/// Values past the range saturate, and the body cap then rejects them.
bool ParseContentLength(const std::string& value, size_t* out) {
  if (value.empty() ||
      value.find_first_not_of("0123456789") != std::string::npos) {
    return false;
  }
  *out = std::strtoull(value.c_str(), nullptr, 10);
  return true;
}

}  // namespace

// ---------------------------------------------------------- ResponseWriter

bool ResponseWriter::Send(const HttpResponse& resp) {
  Head(resp.status, resp.content_type, /*chunked=*/false, resp.body.size(),
       resp.retry_after_s);
  Write(resp.body);
  return Flush();
}

void ResponseWriter::Head(int status, const std::string& content_type,
                          bool chunked, size_t content_length,
                          int retry_after_s) {
  status_ = status;
  AppendResponseHead(&pending_, status, content_type, chunked, content_length,
                     retry_after_s, keep_alive_);
}

void ResponseWriter::Write(const std::string& bytes) { pending_ += bytes; }

void ResponseWriter::Chunk(const std::string& payload) {
  char size_line[32];
  int n = std::snprintf(size_line, sizeof(size_line), "%zx\r\n",
                        payload.size());
  pending_.append(size_line, static_cast<size_t>(n));
  pending_ += payload;
  pending_ += "\r\n";
}

void ResponseWriter::LastChunk() { pending_ += "0\r\n\r\n"; }

bool ResponseWriter::TrySend() {
  while (sent_ < pending_.size()) {
    ssize_t w = send(fd_, pending_.data() + sent_, pending_.size() - sent_,
                     MSG_NOSIGNAL | MSG_DONTWAIT);
    if (w <= 0) {
      if (w < 0 && errno == EINTR) continue;
      // A full send buffer is a slow reader, not a lost one: the rest
      // waits for the next send.
      return w < 0 && (errno == EAGAIN || errno == EWOULDBLOCK);
    }
    sent_ += static_cast<size_t>(w);
  }
  pending_.clear();
  sent_ = 0;
  return true;
}

bool ResponseWriter::Flush() {
  bool sent = SendAll(fd_, pending_.data() + sent_, pending_.size() - sent_);
  pending_.clear();
  sent_ = 0;
  return sent;
}

// ------------------------------------------------------------ HttpListener

HttpListener::HttpListener(Config config, Handler not_found,
                           obs::Counter* errors, obs::Gauge* active)
    : config_(std::move(config)),
      not_found_(std::move(not_found)),
      m_errors_(errors),
      m_active_(active) {}

HttpListener::~HttpListener() { Stop(); }

void HttpListener::Route(const std::string& method, const std::string& path,
                         Handler handler) {
  routes_[path] = {method, std::move(handler)};
}

Status HttpListener::Start() {
  if (running_.load(std::memory_order_acquire)) {
    return Status::FailedPrecondition("server already running");
  }
  Result<int> opened = OpenListenSocket(config_.bind_address, config_.port,
                                        config_.accept_backlog, &port_);
  if (!opened.ok()) return opened.status();
  listen_fd_.store(opened.value(), std::memory_order_release);

  running_.store(true, std::memory_order_release);
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  size_t n = config_.handler_threads == 0 ? 1 : config_.handler_threads;
  handler_threads_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    handler_threads_.emplace_back([this] { HandlerLoop(); });
  }
  return Status::Ok();
}

void HttpListener::Stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) return;
  // Unblock the accept loop: shutdown makes the blocking accept() return
  // with an error on every platform; close releases the port.
  int fd = listen_fd_.exchange(-1, std::memory_order_acq_rel);
  if (fd >= 0) {
    shutdown(fd, SHUT_RDWR);
    close(fd);
  }
  {
    // A handler blocked reading an idle connection would otherwise wait
    // out io_timeout_ms: after SHUT_RD its recv returns 0 at once. Sends
    // still work, so a response in flight finishes. Taking mu_ after
    // clearing running_ also means no handler is between its wait
    // predicate and the wait when notify_all runs below.
    std::lock_guard<std::mutex> lock(mu_);
    for (int held : held_) shutdown(held, SHUT_RD);
  }
  queue_cv_.notify_all();
  if (accept_thread_.joinable()) accept_thread_.join();
  for (std::thread& t : handler_threads_) {
    if (t.joinable()) t.join();
  }
  handler_threads_.clear();
  // Connections accepted but never served: close without answering.
  std::lock_guard<std::mutex> lock(mu_);
  for (int queued : queue_) close(queued);
  queue_.clear();
  port_ = 0;
}

void HttpListener::AcceptLoop() {
  while (running_.load(std::memory_order_acquire)) {
    int listen_fd = listen_fd_.load(std::memory_order_acquire);
    if (listen_fd < 0) return;  // Stop() already took the socket away
    int fd = accept(listen_fd, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      // Stop() shut the listener down (or it broke); either way, done.
      return;
    }
    // Slowloris guard: every read and write on this connection gets the
    // configured timeout. A stalled client errors out of recv/send and
    // the handler drops it — it cannot pin a pool thread indefinitely.
    timeval tv{};
    tv.tv_sec = config_.io_timeout_ms / 1000;
    tv.tv_usec = (config_.io_timeout_ms % 1000) * 1000;
    setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));

    bool enqueued = false;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (queue_.size() < config_.queue_capacity) {
        queue_.push_back(fd);
        enqueued = true;
      }
    }
    if (enqueued) {
      queue_cv_.notify_one();
    } else {
      // Burst past the hand-off queue: shed on the accept thread itself,
      // mirroring the query service's kOverloaded admission control. The
      // Retry-After says the overload is momentary — the queue drains in
      // well under a second once the burst passes.
      Reject(fd, 503, /*retry_after_s=*/1);
      close(fd);
    }
  }
}

void HttpListener::HandlerLoop() {
  for (;;) {
    int fd = -1;
    {
      std::unique_lock<std::mutex> lock(mu_);
      queue_cv_.wait(lock, [this] {
        return !queue_.empty() || !running_.load(std::memory_order_acquire);
      });
      // Stopping: Stop() closes whatever is still queued.
      if (!running_.load(std::memory_order_acquire)) return;
      fd = queue_.front();
      queue_.pop_front();
      held_.push_back(fd);
    }
    if (m_active_ != nullptr) m_active_->Add(1);
    std::string peer = PeerAddress(fd);
    std::string carry;  // bytes read past the previous request's end
    for (size_t served = 0; served < config_.max_requests_per_connection &&
                            running_.load(std::memory_order_acquire);
         ++served) {
      bool last = served + 1 == config_.max_requests_per_connection;
      if (!ServeOne(fd, peer, &carry, last)) break;
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      held_.erase(std::find(held_.begin(), held_.end(), fd));
    }
    close(fd);
    if (m_active_ != nullptr) m_active_->Add(-1);
  }
}

bool HttpListener::ServeOne(int fd, const std::string& peer,
                            std::string* carry, bool last) {
  // The head: everything up to the blank line, some of it possibly
  // already in *carry from the previous read.
  size_t head_end = 0;
  size_t sep_len = 0;
  char buf[4096];
  for (;;) {
    sep_len = 4;
    head_end = carry->find("\r\n\r\n");
    if (head_end == std::string::npos) {
      head_end = carry->find("\n\n");
      sep_len = 2;
    }
    if (head_end != std::string::npos) break;
    if (carry->size() > config_.max_request_bytes) return Reject(fd, 431);
    ssize_t r = recv(fd, buf, sizeof(buf), 0);
    if (r <= 0) {
      if (r < 0 && errno == EINTR) continue;
      // EOF or an idle timeout between requests is how a client ends the
      // conversation; only a cut inside a head is an error.
      if (!carry->empty()) Account(0, false);
      return false;
    }
    carry->append(buf, static_cast<size_t>(r));
  }

  HttpRequest req;
  req.peer = peer;
  bool parsed = ParseRequestHead(carry->substr(0, head_end), &req);
  carry->erase(0, head_end + sep_len);
  if (!parsed) return Reject(fd, 400);

  // Framing (RFC 9112 §6.1, §6.3). No chunked request body is decoded,
  // and a length that is ambiguous cannot say where the next request
  // starts: both end the connection.
  if (req.headers.count("transfer-encoding") != 0) return Reject(fd, 501);
  auto length = req.headers.find("content-length");
  size_t body_len = 0;
  if (length != req.headers.end() &&
      !ParseContentLength(length->second, &body_len)) {
    return Reject(fd, 400);
  }

  // Keep-alive is the HTTP/1.1 default; HTTP/1.0 must opt in. The
  // connection budget caps reuse regardless: the response that spends it
  // announces the close.
  std::string connection;
  if (auto it = req.headers.find("connection"); it != req.headers.end()) {
    connection = it->second;
    for (char& c : connection) c = static_cast<char>(std::tolower(c));
  }
  bool keep_alive = !last && (req.version == "HTTP/1.1"
                                  ? connection != "close"
                                  : connection == "keep-alive");

  const Handler* handler = &not_found_;
  bool reads_body = false;
  if (auto route = routes_.find(req.path); route != routes_.end()) {
    if (req.method != route->second.first) return Reject(fd, 405);
    handler = &route->second.second;
    reads_body = req.method == "POST";
  }

  if (reads_body) {
    // A body needs a declared length: reading to EOF would end the
    // connection. A 413's body is never read, so it ends it too.
    if (length == req.headers.end()) return Reject(fd, 411);
    if (body_len > config_.max_body_bytes) return Reject(fd, 413);
    // A client waiting on 100-continue before sending the body would
    // otherwise deadlock against the body read.
    if (auto it = req.headers.find("expect");
        it != req.headers.end() &&
        it->second.find("100-continue") != std::string::npos) {
      const char kContinue[] = "HTTP/1.1 100 Continue\r\n\r\n";
      if (!SendAll(fd, kContinue, sizeof(kContinue) - 1)) {
        Account(0, false);
        return false;
      }
    }
    while (carry->size() < body_len) {
      ssize_t r = recv(fd, buf, sizeof(buf), 0);
      if (r <= 0) {
        if (r < 0 && errno == EINTR) continue;
        Account(0, false);
        return false;
      }
      carry->append(buf, static_cast<size_t>(r));
    }
    req.body = carry->substr(0, body_len);
    carry->erase(0, body_len);
  } else if (body_len > 0) {
    // A body nobody reads (a request to an unknown path, say): the next
    // request's head would be parsed from its bytes, so this response
    // closes the connection.
    keep_alive = false;
  }

  ResponseWriter writer(fd, keep_alive);
  bool written = (*handler)(req, &writer);
  Account(writer.status(), written);
  return written && keep_alive;
}

bool HttpListener::Reject(int fd, int status, int retry_after_s) {
  ResponseWriter writer(fd, /*keep_alive=*/false);
  writer.Head(status, /*content_type=*/"", /*chunked=*/false, 0,
              retry_after_s);
  Account(status, writer.Flush());
  return false;
}

void HttpListener::Account(int status, bool written) {
  if (status != 0) requests_.fetch_add(1, std::memory_order_relaxed);
  if (written && status >= 200 && status < 300) return;
  errors_.fetch_add(1, std::memory_order_relaxed);
  if (m_errors_ != nullptr) m_errors_->Inc();
}

}  // namespace server
}  // namespace binchain
