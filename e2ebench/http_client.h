// Minimal HTTP/1.1 keep-alive client for the data plane's POST /v1/query,
// as the end-to-end benchmark's closed-loop connections use it.
//
// It behaves like an ordinary non-pipelining HTTP client: one request in
// flight per connection, the request written with one send(), TCP_NODELAY
// on (as curl and most HTTP libraries set it), and no delayed-ACK tuning —
// whatever a real client would pay on loopback, this one pays too. Each
// response is read to its own end (the terminating chunk), never to
// connection close, and timed at three points: the head, the first answer
// chunk, and the trailer's terminating chunk.
//
// Answers are checked without buffering bodies: every tuple is folded into
// an order-independent digest of its rendered names, so a stream delivered
// in derivation order compares equal to a sorted reference set.
#ifndef BINCHAIN_E2EBENCH_HTTP_CLIENT_H_
#define BINCHAIN_E2EBENCH_HTTP_CLIENT_H_

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cctype>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <string_view>

namespace e2e {

using Clock = std::chrono::steady_clock;

/// Order-independent digest of a rendered answer set: the pair count plus
/// the wrapping sum of a mixed FNV-1a hash per (source, target) pair.
struct AnswerDigest {
  uint64_t sum = 0;
  uint64_t count = 0;

  void Add(std::string_view src, std::string_view dst) {
    uint64_t h = 1469598103934665603ull;
    auto mix = [&h](unsigned char c) {
      h ^= c;
      h *= 1099511628211ull;
    };
    for (char c : src) mix(static_cast<unsigned char>(c));
    mix(0x1f);
    for (char c : dst) mix(static_cast<unsigned char>(c));
    h ^= h >> 33;
    h *= 0xff51afd7ed558ccdull;
    h ^= h >> 33;
    sum += h;
    ++count;
  }
  bool operator==(const AnswerDigest& o) const {
    return sum == o.sum && count == o.count;
  }
  bool operator!=(const AnswerDigest& o) const { return !(*this == o); }
};

/// One request/response exchange as the client saw it.
struct Exchange {
  bool any_byte = false;  // at least one response byte arrived
  bool complete = false;  // the response was read to its end
  int status = 0;
  bool keep_alive = false;  // the response advertised Connection: keep-alive
  Clock::time_point t_send, t_head, t_first_chunk, t_end;
  bool has_first_chunk = false;
  uint64_t chunks = 0;  // answer chunks, trailer excluded
  uint64_t bytes = 0;   // response bytes: head, framing and payload
  AnswerDigest digest;
  bool parse_ok = true;  // every answer line had the documented shape
  bool has_trailer = false;
  std::string trailer_status;
  uint64_t epoch = 0;
  uint64_t answers = 0;
  double eval_ms = 0;
  double total_ms = 0;
};

class Connection {
 public:
  Connection() = default;
  ~Connection() { Close(); }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  bool Open(uint16_t port, int io_timeout_ms = 10000) {
    Close();
    fd_ = socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return false;
    int one = 1;
    setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    timeval tv{};
    tv.tv_sec = io_timeout_ms / 1000;
    tv.tv_usec = (io_timeout_ms % 1000) * 1000;
    setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    setsockopt(fd_, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    if (connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      Close();
      return false;
    }
    return true;
  }

  void Close() {
    if (fd_ >= 0) close(fd_);
    fd_ = -1;
    carry_.clear();
    requests_ = 0;
  }

  bool is_open() const { return fd_ >= 0; }
  /// Requests sent on the current connection.
  uint64_t requests() const { return requests_; }

  /// Sends `raw` and reads one whole response into *x. Returns false when
  /// the exchange failed; x->any_byte then tells whether the server closed
  /// before answering at all.
  bool RoundTrip(const std::string& raw, Exchange* x) {
    *x = Exchange{};
    x->t_send = Clock::now();
    ++requests_;
    size_t off = 0;
    while (off < raw.size()) {
      ssize_t n = send(fd_, raw.data() + off, raw.size() - off, MSG_NOSIGNAL);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return false;
      off += static_cast<size_t>(n);
    }
    if (!ReadHead(x)) return false;
    return x->complete;
  }

 private:
  bool ReadMore(Exchange* x) {
    char buf[65536];
    for (;;) {
      ssize_t n = recv(fd_, buf, sizeof(buf), 0);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return false;
      x->any_byte = true;
      carry_.append(buf, static_cast<size_t>(n));
      return true;
    }
  }

  /// Drops `n` consumed bytes from the front of the carry buffer.
  void Consume(size_t n, Exchange* x) {
    carry_.erase(0, n);
    x->bytes += n;
  }

  bool ReadHead(Exchange* x) {
    size_t head_end;
    while ((head_end = carry_.find("\r\n\r\n")) == std::string::npos) {
      if (!ReadMore(x)) return false;
    }
    x->t_head = Clock::now();
    std::string_view head(carry_.data(), head_end);
    if (head.substr(0, 9) != "HTTP/1.1 ") return false;
    x->status = std::atoi(carry_.c_str() + 9);
    bool chunked = false;
    size_t content_length = 0;
    size_t pos = head.find("\r\n");
    while (pos != std::string_view::npos && pos + 2 < head.size()) {
      size_t eol = head.find("\r\n", pos + 2);
      std::string_view line =
          head.substr(pos + 2, (eol == std::string_view::npos ? head.size()
                                                             : eol) -
                                   pos - 2);
      pos = eol;
      size_t colon = line.find(':');
      if (colon == std::string_view::npos) continue;
      std::string name(line.substr(0, colon));
      for (char& c : name) c = static_cast<char>(std::tolower(c));
      std::string_view value = line.substr(colon + 1);
      while (!value.empty() && value.front() == ' ') value.remove_prefix(1);
      if (name == "connection") {
        x->keep_alive = value == "keep-alive";
      } else if (name == "transfer-encoding") {
        chunked = value.find("chunked") != std::string_view::npos;
      } else if (name == "content-length") {
        content_length = std::strtoul(std::string(value).c_str(), nullptr, 10);
      }
    }
    Consume(head_end + 4, x);
    if (!chunked) {
      // Error statuses arrive as one Content-Length JSON line.
      while (carry_.size() < content_length) {
        if (!ReadMore(x)) return false;
      }
      Consume(content_length, x);
      x->t_end = Clock::now();
      x->complete = true;
      return true;
    }
    for (;;) {
      size_t line_end;
      while ((line_end = carry_.find("\r\n")) == std::string::npos) {
        if (!ReadMore(x)) return false;
      }
      size_t len = std::strtoul(carry_.substr(0, line_end).c_str(), nullptr, 16);
      while (carry_.size() < line_end + 2 + len + 2) {
        if (!ReadMore(x)) return false;
      }
      if (len == 0) {
        Consume(line_end + 4, x);
        x->t_end = Clock::now();
        x->complete = true;
        return true;
      }
      OnLine(std::string_view(carry_.data() + line_end + 2, len), x);
      Consume(line_end + 2 + len + 2, x);
    }
  }

  /// One NDJSON line: an answer chunk or the trailer.
  static void OnLine(std::string_view line, Exchange* x) {
    constexpr std::string_view kTuples = "{\"tuples\": [";
    constexpr std::string_view kTrailer = "{\"trailer\": {";
    if (line.substr(0, kTuples.size()) == kTuples) {
      if (!x->has_first_chunk) {
        x->has_first_chunk = true;
        x->t_first_chunk = Clock::now();
      }
      ++x->chunks;
      if (!DigestTuples(line.substr(kTuples.size()), &x->digest)) {
        x->parse_ok = false;
      }
    } else if (line.substr(0, kTrailer.size()) == kTrailer) {
      x->has_trailer = true;
      x->trailer_status = StringField(line, "status");
      x->epoch = static_cast<uint64_t>(NumberField(line, "epoch"));
      x->answers = static_cast<uint64_t>(NumberField(line, "answers"));
      x->eval_ms = NumberField(line, "eval_ms");
      x->total_ms = NumberField(line, "total_ms");
    } else {
      x->parse_ok = false;
    }
  }

  /// Folds `["s", "t"], ["s", "t"]]}\n` into *d. Names with escapes are
  /// rejected: no workload constant needs one.
  static bool DigestTuples(std::string_view s, AnswerDigest* d) {
    size_t p = 0;
    auto name = [&](std::string_view* out) {
      if (p >= s.size() || s[p] != '"') return false;
      size_t end = s.find('"', p + 1);
      if (end == std::string_view::npos) return false;
      *out = s.substr(p + 1, end - p - 1);
      if (out->find('\\') != std::string_view::npos) return false;
      p = end + 1;
      return true;
    };
    for (;;) {
      std::string_view a, b;
      if (s.substr(p, 1) != "[") return false;
      ++p;
      if (!name(&a) || s.substr(p, 2) != ", ") return false;
      p += 2;
      if (!name(&b) || s.substr(p, 1) != "]") return false;
      ++p;
      d->Add(a, b);
      if (s.substr(p, 2) == ", ") {
        p += 2;
        continue;
      }
      return s.substr(p) == "]}\n";
    }
  }

  static std::string StringField(std::string_view line, std::string_view key) {
    std::string pat = "\"" + std::string(key) + "\": \"";
    size_t at = line.find(pat);
    if (at == std::string_view::npos) return "";
    size_t start = at + pat.size();
    size_t end = line.find('"', start);
    if (end == std::string_view::npos) return "";
    return std::string(line.substr(start, end - start));
  }

  static double NumberField(std::string_view line, std::string_view key) {
    std::string pat = "\"" + std::string(key) + "\": ";
    size_t at = line.find(pat);
    if (at == std::string_view::npos) return -1;
    return std::strtod(std::string(line.substr(at + pat.size(), 32)).c_str(),
                       nullptr);
  }

  int fd_ = -1;
  std::string carry_;  // bytes read past the previous response's end
  uint64_t requests_ = 0;
};

}  // namespace e2e

#endif  // BINCHAIN_E2EBENCH_HTTP_CLIENT_H_
