#include "server/data_server.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <map>
#include <utility>
#include <vector>

#include "eval/answer_sink.h"
#include "obs/metrics.h"
#include "service/query_service.h"
#include "storage/symbol_table.h"
#include "storage/tuple.h"

namespace binchain {
namespace server {

namespace {

double MsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

/// Wire name of a terminal status, used in the trailer and error bodies.
const char* StatusWireName(StatusCode code) {
  switch (code) {
    case StatusCode::kOk: return "ok";
    case StatusCode::kInvalidArgument: return "invalid_argument";
    case StatusCode::kUnsupported: return "unsupported";
    case StatusCode::kNotFound: return "not_found";
    case StatusCode::kFailedPrecondition: return "failed_precondition";
    case StatusCode::kDeadlineExceeded: return "deadline_exceeded";
    case StatusCode::kCancelled: return "cancelled";
    case StatusCode::kOverloaded: return "overloaded";
    case StatusCode::kUnavailable: return "unavailable";
    case StatusCode::kInternal: return "internal";
  }
  return "unknown";
}

std::string EscapeJson(const std::string& in) {
  std::string out;
  out.reserve(in.size() + 2);
  for (char c : in) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

// ------------------------------------------------------------ JSON input
//
// A deliberately small recursive-descent parser for the request body —
// objects, strings (with the escapes EscapeJson emits), numbers, bools,
// null, and arrays (parsed, but no request field wants one). Depth is
// bounded; anything malformed fails the whole parse and the request is
// answered 400. Not a general JSON library and not trying to be one: the
// body grammar is fixed by docs/wire_protocol.md.

struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool b = false;
  double num = 0;
  std::string str;
  std::vector<JsonValue> arr;
  std::map<std::string, JsonValue> obj;

  const JsonValue* Get(const std::string& key) const {
    auto it = obj.find(key);
    return it == obj.end() ? nullptr : &it->second;
  }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text)
      : p_(text.data()), end_(text.data() + text.size()) {}

  bool Parse(JsonValue* out) {
    SkipWs();
    if (!ParseValue(out, /*depth=*/0)) return false;
    SkipWs();
    return p_ == end_;  // trailing garbage is an error
  }

 private:
  static constexpr int kMaxDepth = 16;

  void SkipWs() {
    while (p_ < end_ && (*p_ == ' ' || *p_ == '\t' || *p_ == '\n' ||
                         *p_ == '\r')) {
      ++p_;
    }
  }

  bool Literal(const char* lit) {
    size_t n = std::strlen(lit);
    if (static_cast<size_t>(end_ - p_) < n || std::strncmp(p_, lit, n) != 0) {
      return false;
    }
    p_ += n;
    return true;
  }

  bool ParseValue(JsonValue* out, int depth) {
    if (depth > kMaxDepth || p_ == end_) return false;
    switch (*p_) {
      case '{': return ParseObject(out, depth);
      case '[': return ParseArray(out, depth);
      case '"':
        out->kind = JsonValue::Kind::kString;
        return ParseString(&out->str);
      case 't':
        out->kind = JsonValue::Kind::kBool;
        out->b = true;
        return Literal("true");
      case 'f':
        out->kind = JsonValue::Kind::kBool;
        out->b = false;
        return Literal("false");
      case 'n':
        out->kind = JsonValue::Kind::kNull;
        return Literal("null");
      default:
        return ParseNumber(out);
    }
  }

  bool ParseObject(JsonValue* out, int depth) {
    out->kind = JsonValue::Kind::kObject;
    ++p_;  // '{'
    SkipWs();
    if (p_ < end_ && *p_ == '}') {
      ++p_;
      return true;
    }
    for (;;) {
      SkipWs();
      std::string key;
      if (p_ == end_ || *p_ != '"' || !ParseString(&key)) return false;
      SkipWs();
      if (p_ == end_ || *p_ != ':') return false;
      ++p_;
      SkipWs();
      if (!ParseValue(&out->obj[key], depth + 1)) return false;
      SkipWs();
      if (p_ == end_) return false;
      if (*p_ == ',') {
        ++p_;
        continue;
      }
      if (*p_ == '}') {
        ++p_;
        return true;
      }
      return false;
    }
  }

  bool ParseArray(JsonValue* out, int depth) {
    out->kind = JsonValue::Kind::kArray;
    ++p_;  // '['
    SkipWs();
    if (p_ < end_ && *p_ == ']') {
      ++p_;
      return true;
    }
    for (;;) {
      SkipWs();
      out->arr.emplace_back();
      if (!ParseValue(&out->arr.back(), depth + 1)) return false;
      SkipWs();
      if (p_ == end_) return false;
      if (*p_ == ',') {
        ++p_;
        continue;
      }
      if (*p_ == ']') {
        ++p_;
        return true;
      }
      return false;
    }
  }

  /// Consumes exactly four hex digits (the XXXX of a \uXXXX escape).
  bool ParseHex4(unsigned* out) {
    if (end_ - p_ < 4) return false;
    unsigned v = 0;
    for (int i = 0; i < 4; ++i) {
      char h = *p_++;
      v <<= 4;
      if (h >= '0' && h <= '9') v |= static_cast<unsigned>(h - '0');
      else if (h >= 'a' && h <= 'f') v |= static_cast<unsigned>(h - 'a' + 10);
      else if (h >= 'A' && h <= 'F') v |= static_cast<unsigned>(h - 'A' + 10);
      else return false;
    }
    *out = v;
    return true;
  }

  bool ParseString(std::string* out) {
    ++p_;  // opening quote
    while (p_ < end_) {
      char c = *p_++;
      if (c == '"') return true;
      if (c != '\\') {
        out->push_back(c);
        continue;
      }
      if (p_ == end_) return false;
      char esc = *p_++;
      switch (esc) {
        case '"': out->push_back('"'); break;
        case '\\': out->push_back('\\'); break;
        case '/': out->push_back('/'); break;
        case 'n': out->push_back('\n'); break;
        case 'r': out->push_back('\r'); break;
        case 't': out->push_back('\t'); break;
        case 'b': out->push_back('\b'); break;
        case 'f': out->push_back('\f'); break;
        case 'u': {
          unsigned cp;
          if (!ParseHex4(&cp)) return false;
          // UTF-16 escapes: a high surrogate must be immediately followed
          // by a \uDC00-\uDFFF low surrogate, and the pair combines into
          // one supplementary code point. Encoding the halves separately
          // would produce CESU-8 (invalid UTF-8) that flows into symbol
          // lookups and response echoes, so unpaired halves are rejected
          // and the request answered 400.
          if (cp >= 0xD800 && cp <= 0xDBFF) {
            if (end_ - p_ < 2 || p_[0] != '\\' || p_[1] != 'u') return false;
            p_ += 2;
            unsigned lo;
            if (!ParseHex4(&lo)) return false;
            if (lo < 0xDC00 || lo > 0xDFFF) return false;
            cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
          } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
            return false;  // low surrogate with no preceding high half
          }
          if (cp < 0x80) {
            out->push_back(static_cast<char>(cp));
          } else if (cp < 0x800) {
            out->push_back(static_cast<char>(0xC0 | (cp >> 6)));
            out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
          } else if (cp < 0x10000) {
            out->push_back(static_cast<char>(0xE0 | (cp >> 12)));
            out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
            out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
          } else {
            out->push_back(static_cast<char>(0xF0 | (cp >> 18)));
            out->push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3F)));
            out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
            out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
          }
          break;
        }
        default: return false;
      }
    }
    return false;  // unterminated
  }

  bool ParseNumber(JsonValue* out) {
    const char* start = p_;
    if (p_ < end_ && (*p_ == '-' || *p_ == '+')) ++p_;
    bool digits = false;
    while (p_ < end_ && ((*p_ >= '0' && *p_ <= '9') || *p_ == '.' ||
                         *p_ == 'e' || *p_ == 'E' || *p_ == '-' ||
                         *p_ == '+')) {
      if (*p_ >= '0' && *p_ <= '9') digits = true;
      ++p_;
    }
    if (!digits) return false;
    out->kind = JsonValue::Kind::kNumber;
    out->num = std::strtod(std::string(start, p_).c_str(), nullptr);
    return true;
  }

  const char* p_;
  const char* end_;
};

/// Decodes the wire body into the canonical QueryRequest (sink left
/// unset). Returns a non-OK status with a client-facing message on any
/// shape violation; unknown top-level keys are rejected so typos fail
/// loudly instead of silently evaluating something else.
Status DecodeQueryBody(const std::string& body, QueryRequest* out,
                       bool* stream, std::string* client_id) {
  JsonValue root;
  if (!JsonParser(body).Parse(&root) ||
      root.kind != JsonValue::Kind::kObject) {
    return Status::InvalidArgument("body is not a JSON object");
  }
  auto want_string = [](const JsonValue* v) {
    return v != nullptr && v->kind == JsonValue::Kind::kString;
  };
  auto want_bool = [](const JsonValue* v) {
    return v != nullptr && v->kind == JsonValue::Kind::kBool;
  };
  auto want_number = [](const JsonValue* v) {
    return v != nullptr && v->kind == JsonValue::Kind::kNumber;
  };

  for (const auto& [key, value] : root.obj) {
    if (key == "pred" || key == "source" || key == "target" ||
        key == "client_id") {
      if (value.kind != JsonValue::Kind::kString) {
        return Status::InvalidArgument("\"" + key + "\" must be a string");
      }
    } else if (key == "diagonal" || key == "stream") {
      if (value.kind != JsonValue::Kind::kBool) {
        return Status::InvalidArgument("\"" + key + "\" must be a boolean");
      }
    } else if (key == "options") {
      if (value.kind != JsonValue::Kind::kObject) {
        return Status::InvalidArgument("\"options\" must be an object");
      }
    } else {
      return Status::InvalidArgument("unknown field \"" + key + "\"");
    }
  }

  const JsonValue* pred = root.Get("pred");
  if (!want_string(pred) || pred->str.empty()) {
    return Status::InvalidArgument("\"pred\" (non-empty string) is required");
  }
  out->pred = pred->str;
  if (const JsonValue* v = root.Get("source"); want_string(v)) {
    out->source = v->str;
  }
  if (const JsonValue* v = root.Get("target"); want_string(v)) {
    out->target = v->str;
  }
  if (const JsonValue* v = root.Get("diagonal"); want_bool(v)) {
    out->diagonal = v->b;
  }
  if (out->diagonal && (!out->source.empty() || !out->target.empty())) {
    return Status::InvalidArgument(
        "\"diagonal\" requires free source and target");
  }
  if (const JsonValue* v = root.Get("stream"); want_bool(v)) *stream = v->b;
  if (const JsonValue* v = root.Get("client_id"); want_string(v)) {
    *client_id = v->str;
  }

  if (const JsonValue* opts = root.Get("options")) {
    for (const auto& [key, value] : opts->obj) {
      if (key == "deadline_ms") {
        if (!want_number(&value) || value.num < 0) {
          return Status::InvalidArgument(
              "\"options.deadline_ms\" must be a non-negative number");
        }
        out->options.deadline_ms = value.num;
      } else if (key == "max_iterations") {
        if (!want_number(&value) || value.num < 0) {
          return Status::InvalidArgument(
              "\"options.max_iterations\" must be a non-negative number");
        }
        // The parser accepts any non-negative double (1e300, say), and
        // casting a value past the size_t range is UB — clamp at the
        // type's ceiling first; either way the budget is effectively
        // unbounded.
        constexpr double kSizeCeiling =
            static_cast<double>(std::numeric_limits<size_t>::max());
        out->options.max_iterations =
            value.num >= kSizeCeiling ? std::numeric_limits<size_t>::max()
                                      : static_cast<size_t>(value.num);
      } else if (key == "use_cyclic_bound") {
        if (!want_bool(&value)) {
          return Status::InvalidArgument(
              "\"options.use_cyclic_bound\" must be a boolean");
        }
        out->options.use_cyclic_bound = value.b;
      } else if (key == "disable_closure_sharing") {
        if (!want_bool(&value)) {
          return Status::InvalidArgument(
              "\"options.disable_closure_sharing\" must be a boolean");
        }
        out->options.disable_closure_sharing = value.b;
      } else {
        return Status::InvalidArgument("unknown field \"options." + key +
                                       "\"");
      }
    }
  }
  return Status::Ok();
}

// ---------------------------------------------------------- answer stream

constexpr char kNdjson[] = "application/x-ndjson";

/// Renders each answer chunk as one NDJSON line on the thread that
/// delivers it: the evaluating worker, or the handler itself for a cache
/// hit. Streamed, the line goes straight into the request's response: the
/// first chunk writes the 200 chunked head, and every chunk is offered to
/// the socket at once without blocking, so a slow reader never holds the
/// worker (what the kernel does not take leaves with the handler's final
/// flush). A client that is gone refuses the chunk, which cancels the
/// query. Buffered (`"stream": false`), the lines collect into the
/// Content-Length body instead. The handler touches the writer again only
/// after Take() returned, which orders it after the last chunk.
class NdjsonSink : public AnswerSink {
 public:
  NdjsonSink(ResponseWriter* writer, bool stream,
             std::chrono::steady_clock::time_point t0,
             obs::Histogram* first_chunk_ms)
      : writer_(writer),
        stream_(stream),
        t0_(t0),
        first_chunk_ms_(first_chunk_ms) {}

  bool OnAnswers(const Tuple* tuples, size_t count,
                 const SymbolTable& symbols) override {
    ++chunks_;
    if (!stream_) {
      AppendLine(tuples, count, symbols, &body_);
      return true;
    }
    line_.clear();
    AppendLine(tuples, count, symbols, &line_);
    if (chunks_ == 1) writer_->Head(200, kNdjson, /*chunked=*/true, 0);
    writer_->Chunk(line_);
    if (!writer_->TrySend()) return false;
    if (chunks_ == 1) first_chunk_ms_->Observe(MsSince(t0_));
    return true;
  }

  /// Answer chunks written; a streamed response has its head once this
  /// is non-zero.
  size_t chunks() const { return chunks_; }
  /// The buffered body's answer lines.
  const std::string& body() const { return body_; }

 private:
  static void AppendLine(const Tuple* tuples, size_t count,
                         const SymbolTable& symbols, std::string* out) {
    *out += "{\"tuples\": [";
    for (size_t i = 0; i < count; ++i) {
      if (i > 0) *out += ", ";
      *out += "[\"";
      *out += EscapeJson(symbols.Name(tuples[i][0]));
      *out += "\", \"";
      *out += EscapeJson(symbols.Name(tuples[i][1]));
      *out += "\"]";
    }
    *out += "]}\n";
  }

  ResponseWriter* const writer_;
  const bool stream_;
  const std::chrono::steady_clock::time_point t0_;
  obs::Histogram* const first_chunk_ms_;
  size_t chunks_ = 0;
  std::string line_;  // the streamed chunk being framed, reused
  std::string body_;
};

/// The stream's final NDJSON line: terminal status, epoch, and the
/// evaluation's effort counters. `chunks` counts the answer lines (the
/// trailer itself excluded), matching QueryTrace::chunks.
std::string RenderTrailer(const QueryResponse& resp) {
  char ms[64];
  std::string out = "{\"trailer\": {\"status\": \"";
  out += StatusWireName(resp.status.code());
  out += "\"";
  if (!resp.status.ok()) {
    out += ", \"message\": \"" + EscapeJson(resp.status.message()) + "\"";
  }
  out += ", \"epoch\": " + std::to_string(resp.epoch);
  out += ", \"answers\": " + std::to_string(resp.tuples.size());
  out += ", \"chunks\": " + std::to_string(resp.trace.chunks);
  out += resp.timed_out ? ", \"timed_out\": true" : ", \"timed_out\": false";
  out += resp.cancelled ? ", \"cancelled\": true" : ", \"cancelled\": false";
  out += resp.partial ? ", \"partial\": true" : ", \"partial\": false";
  out += ", \"stats\": {\"nodes\": " + std::to_string(resp.stats.nodes);
  out += ", \"iterations\": " + std::to_string(resp.stats.iterations);
  out += ", \"fetches\": " + std::to_string(resp.fetches) + "}";
  std::snprintf(ms, sizeof(ms), "%.3f", resp.trace.eval_ms);
  out += std::string(", \"eval_ms\": ") + ms;
  std::snprintf(ms, sizeof(ms), "%.3f", resp.trace.total_ms);
  out += std::string(", \"total_ms\": ") + ms;
  out += "}}\n";
  return out;
}

// ------------------------------------------------------- response framing

/// An error response: one JSON line naming the terminal status, sent with
/// its head in one send.
bool WriteError(ResponseWriter* writer, int status, const Status& why,
                int retry_after_s = 0) {
  HttpResponse resp;
  resp.status = status;
  resp.content_type = kNdjson;
  resp.body = "{\"error\": \"" + EscapeJson(why.message()) +
              "\", \"status\": \"" + StatusWireName(why.code()) + "\"}\n";
  resp.retry_after_s = retry_after_s;
  return writer->Send(resp);
}

// ---------------------------------------------------------------- admission

/// The peer-aggregate layer's budget: the per-identity limits scaled by
/// `multiplier` (burst resolved the way RateLimiter itself resolves it).
/// A non-positive multiplier disables the layer — qps 0 admits everything.
RateLimiterOptions PeerLayerLimits(const RateLimiterOptions& base,
                                   double multiplier) {
  RateLimiterOptions peer = base;
  if (base.qps <= 0 || multiplier <= 0) {
    peer.qps = 0;
    return peer;
  }
  peer.qps = base.qps * multiplier;
  peer.burst =
      (base.burst > 0 ? base.burst : std::max(base.qps, 1.0)) * multiplier;
  return peer;
}

}  // namespace

DataServer::DataServer(QueryService* service, DataServerOptions options)
    : options_(std::move(options)),
      service_(service),
      limiter_(options_.rate_limit),
      peer_limiter_(PeerLayerLimits(options_.rate_limit,
                                    options_.peer_qps_multiplier)),
      listener_(
          HttpListener::Config::From(options_, options_.max_body_bytes,
                                     options_.max_requests_per_connection),
          [](const HttpRequest& req, ResponseWriter* writer) {
            return WriteError(writer, 404,
                              Status::NotFound("no handler for " + req.path));
          },
          obs::Registry::Global().GetCounter(
              "binchain_dataplane_errors_total",
              "Data-plane requests answered with a non-2xx status or dropped"),
          obs::Registry::Global().GetGauge(
              "binchain_dataplane_active_connections",
              "Data-plane connections currently held by a handler")) {
  listener_.Route("POST", "/v1/query",
                  [this](const HttpRequest& req, ResponseWriter* writer) {
                    return HandleQuery(req, writer);
                  });
  obs::Registry& reg = obs::Registry::Global();
  m_requests_ = reg.GetCounter("binchain_dataplane_requests_total",
                               "Data-plane HTTP requests decoded and routed");
  m_streamed_ = reg.GetCounter(
      "binchain_dataplane_streamed_total",
      "Data-plane queries answered with chunked streaming responses");
  m_chunks_ = reg.GetCounter(
      "binchain_dataplane_chunks_total",
      "Answer chunks written to data-plane sockets (trailers excluded)");
  m_rate_limited_ = reg.GetCounter(
      "binchain_dataplane_rate_limited_total",
      "Data-plane requests answered 429 by the per-client token bucket");
  m_overloaded_ = reg.GetCounter(
      "binchain_dataplane_overloaded_total",
      "Data-plane requests answered 503 (service shed or not serving)");
  m_request_ms_ = reg.GetHistogram(
      "binchain_dataplane_request_ms",
      "Data-plane request wall time, decode to last byte written");
  m_first_chunk_ms_ = reg.GetHistogram(
      "binchain_dataplane_first_chunk_ms",
      "Decode-to-first-answer-chunk latency of streamed data-plane queries");
}

bool DataServer::HandleQuery(const HttpRequest& req, ResponseWriter* writer) {
  auto t0 = std::chrono::steady_clock::now();
  m_requests_->Inc();
  const std::string& peer = req.peer;

  auto send_error = [&](int status, const Status& why,
                        int retry_after_s) -> bool {
    if (!WriteError(writer, status, why, retry_after_s)) return false;
    m_request_ms_->Observe(MsSince(t0));
    return true;
  };

  QueryRequest query;
  bool stream = true;
  std::string client_id;
  if (Status st = DecodeQueryBody(req.body, &query, &stream, &client_id);
      !st.ok()) {
    return send_error(400, st, 0);
  }

  // Identity precedence: explicit body field, then header, then peer
  // address — so proxied clients can be told apart when they cooperate,
  // and are lumped per proxy when they do not.
  if (client_id.empty()) {
    if (auto it = req.headers.find("x-client-id"); it != req.headers.end()) {
      client_id = it->second;
    }
  }
  if (client_id.empty()) client_id = peer;

  // Two bucket layers, peer first. The claimed identity is an
  // unauthenticated string, so it only ever *refines* the peer's budget:
  // identity buckets are keyed (peer, client_id) — one peer cannot spend
  // another's tokens by borrowing its id — and the peer-aggregate bucket
  // is charged for every request regardless of the id presented, so
  // rotating a fresh client_id per request cannot mint unlimited full
  // buckets (each mint costs a peer token) or evict honest clients'
  // buckets faster than the peer budget allows.
  RateLimiter::Decision admit = peer_limiter_.TryAcquire(peer);
  if (admit.allowed) admit = limiter_.TryAcquire(peer + "|" + client_id);
  if (!admit.allowed) {
    m_rate_limited_->Inc();
    int retry_s = static_cast<int>(std::ceil(admit.retry_after_s));
    if (retry_s < 1) retry_s = 1;
    return send_error(
        429, Status::Overloaded("client \"" + client_id + "\" rate-limited"),
        retry_s);
  }

  NdjsonSink sink(writer, stream, t0, m_first_chunk_ms_);
  query.sink = &sink;
  QueryResponse resp = service_->Submit(std::move(query)).Take();

  // No chunk written yet: the terminal status still picks the status line
  // (failures before evaluation, and empty answer sets).
  if (sink.chunks() == 0) {
    StatusCode code = resp.status.code();
    if (code == StatusCode::kOverloaded || code == StatusCode::kUnavailable) {
      m_overloaded_->Inc();
      return send_error(503, resp.status, /*retry_after_s=*/1);
    }
    if (code == StatusCode::kNotFound) return send_error(404, resp.status, 0);
    if (code == StatusCode::kInvalidArgument ||
        code == StatusCode::kUnsupported) {
      return send_error(400, resp.status, 0);
    }
  }
  // Admitted and evaluated (ok, or expired/cancelled, whole or partial):
  // 200, with the whole story in the trailer. The trailer leaves with the
  // terminator, after the last chunk's send; buffered, the answer lines
  // and the trailer are one Content-Length body, byte-identical to the
  // streamed payload (same sink, same renderer).
  std::string trailer = RenderTrailer(resp);
  if (stream) {
    if (sink.chunks() == 0) writer->Head(200, kNdjson, /*chunked=*/true, 0);
    writer->Chunk(trailer);
    writer->LastChunk();
  } else {
    writer->Head(200, kNdjson, /*chunked=*/false,
                 sink.body().size() + trailer.size());
    writer->Write(sink.body());
    writer->Write(trailer);
  }
  m_chunks_->Inc(sink.chunks());
  if (!writer->Flush()) return false;
  if (stream) m_streamed_->Inc();
  m_request_ms_->Observe(MsSince(t0));
  return true;
}

}  // namespace server
}  // namespace binchain
