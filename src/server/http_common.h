// The HTTP/1.1 vocabulary of the process's two server planes.
//
// AdminServer (GET-only observability socket) and DataServer (streaming
// query plane) each run one HttpListener (http_listener.h), which owns
// the sockets, threads, request reader and response writer. This header
// is what a route sees of a request and returns as a response, plus the
// stateless text rules underneath: status reason phrases,
// percent-decoding, query-string and request-head parsing. No locks, no
// globals, no sockets.
#ifndef BINCHAIN_SERVER_HTTP_COMMON_H_
#define BINCHAIN_SERVER_HTTP_COMMON_H_

#include <functional>
#include <map>
#include <string>

namespace binchain {
namespace server {

/// A parsed request head plus its Content-Length body (POST routes only).
/// The admin plane reads method/path/params; the data plane also reads
/// headers (names lowercased at parse time, values trimmed), the body
/// and the peer.
struct HttpRequest {
  std::string method;   ///< verb as sent ("GET", "POST", ...)
  std::string path;     ///< target with the query string stripped
  std::string version;  ///< "HTTP/1.0" or "HTTP/1.1"
  /// Decoded query parameters (`?last=25` => params["last"] == "25";
  /// bare keys map to "").
  std::map<std::string, std::string> params;
  /// Header fields, names lowercased ("content-length", "x-client-id").
  /// A repeated field's values are joined with ", " (RFC 9110 §5.3), so
  /// the listener can see two Content-Lengths that disagree.
  std::map<std::string, std::string> headers;
  std::string body;  ///< the Content-Length body of a POST route, else empty
  /// The client's IPv4 address ("unknown" if getpeername fails).
  std::string peer;
};

struct HttpResponse {
  int status = 200;
  std::string content_type = "text/plain; charset=utf-8";
  std::string body;
  /// When > 0, the response carries `Retry-After: <n>` — set on 429
  /// (rate-limited) and 503 (shed) so well-behaved clients back off for a
  /// bounded, server-chosen interval instead of hammering.
  int retry_after_s = 0;
};

using HttpHandler = std::function<HttpResponse(const HttpRequest&)>;

/// Canonical reason phrase for every status either plane emits.
const char* ReasonPhrase(int status);

/// Minimal percent-decoding for query parameter values ('+' => space).
std::string UrlDecode(const std::string& in);

/// Parses `a=1&b=c%20d` into *params (decoded; bare keys map to "").
void ParseQueryString(const std::string& qs,
                      std::map<std::string, std::string>* params);

/// Parses a full request head (request line + header fields, excluding
/// the terminating blank line — the caller splits the byte stream).
/// Fills method/path/version/params/headers; returns false on a
/// malformed request line (the caller answers 400).
bool ParseRequestHead(const std::string& head, HttpRequest* req);

}  // namespace server
}  // namespace binchain

#endif  // BINCHAIN_SERVER_HTTP_COMMON_H_
