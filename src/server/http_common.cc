#include "server/http_common.h"

#include <cctype>

namespace binchain {
namespace server {

const char* ReasonPhrase(int status) {
  switch (status) {
    case 100: return "Continue";
    case 200: return "OK";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 411: return "Length Required";
    case 413: return "Payload Too Large";
    case 429: return "Too Many Requests";
    case 431: return "Request Header Fields Too Large";
    case 500: return "Internal Server Error";
    case 501: return "Not Implemented";
    case 503: return "Service Unavailable";
    case 504: return "Gateway Timeout";
    default:  return "Unknown";
  }
}

std::string UrlDecode(const std::string& in) {
  std::string out;
  out.reserve(in.size());
  for (size_t i = 0; i < in.size(); ++i) {
    if (in[i] == '+') {
      out.push_back(' ');
    } else if (in[i] == '%' && i + 2 < in.size()) {
      auto hex = [](char c) -> int {
        if (c >= '0' && c <= '9') return c - '0';
        if (c >= 'a' && c <= 'f') return c - 'a' + 10;
        if (c >= 'A' && c <= 'F') return c - 'A' + 10;
        return -1;
      };
      int hi = hex(in[i + 1]), lo = hex(in[i + 2]);
      if (hi >= 0 && lo >= 0) {
        out.push_back(static_cast<char>(hi * 16 + lo));
        i += 2;
      } else {
        out.push_back('%');
      }
    } else {
      out.push_back(in[i]);
    }
  }
  return out;
}

void ParseQueryString(const std::string& qs,
                      std::map<std::string, std::string>* params) {
  size_t pos = 0;
  while (pos < qs.size()) {
    size_t amp = qs.find('&', pos);
    if (amp == std::string::npos) amp = qs.size();
    std::string pair = qs.substr(pos, amp - pos);
    size_t eq = pair.find('=');
    if (eq == std::string::npos) {
      if (!pair.empty()) (*params)[UrlDecode(pair)] = "";
    } else {
      (*params)[UrlDecode(pair.substr(0, eq))] = UrlDecode(pair.substr(eq + 1));
    }
    pos = amp + 1;
  }
}

namespace {

std::string TrimSpace(const std::string& s) {
  size_t b = 0, e = s.size();
  while (b < e && (s[b] == ' ' || s[b] == '\t')) ++b;
  while (e > b && (s[e - 1] == ' ' || s[e - 1] == '\t' || s[e - 1] == '\r')) {
    --e;
  }
  return s.substr(b, e - b);
}

}  // namespace

bool ParseRequestHead(const std::string& head, HttpRequest* req) {
  // Request line: METHOD SP target SP version.
  size_t line_end = head.find("\r\n");
  if (line_end == std::string::npos) line_end = head.find('\n');
  if (line_end == std::string::npos) line_end = head.size();
  std::string line = head.substr(0, line_end);
  size_t sp1 = line.find(' ');
  size_t sp2 =
      sp1 == std::string::npos ? std::string::npos : line.find(' ', sp1 + 1);
  if (sp1 == std::string::npos || sp2 == std::string::npos) return false;
  req->method = line.substr(0, sp1);
  req->version = TrimSpace(line.substr(sp2 + 1));
  std::string target = line.substr(sp1 + 1, sp2 - sp1 - 1);
  if (req->method.empty() || target.empty()) return false;

  size_t qmark = target.find('?');
  req->path = target.substr(0, qmark);
  if (qmark != std::string::npos) {
    ParseQueryString(target.substr(qmark + 1), &req->params);
  }

  // Header fields: `Name: value` per line, names lowercased. Tolerates
  // bare-\n line endings the same way the head read loop does.
  size_t pos = line_end;
  while (pos < head.size()) {
    if (head[pos] == '\r') ++pos;
    if (pos < head.size() && head[pos] == '\n') ++pos;
    size_t eol = head.find('\n', pos);
    if (eol == std::string::npos) eol = head.size();
    std::string field = head.substr(pos, eol - pos);
    pos = eol;
    size_t colon = field.find(':');
    if (colon == std::string::npos) continue;  // blank line or junk: skip
    std::string name = TrimSpace(field.substr(0, colon));
    for (char& c : name) c = static_cast<char>(std::tolower(c));
    if (name.empty()) continue;
    std::string value = TrimSpace(field.substr(colon + 1));
    auto [it, fresh] = req->headers.emplace(name, value);
    if (!fresh) it->second += ", " + value;
  }
  return true;
}

}  // namespace server
}  // namespace binchain
