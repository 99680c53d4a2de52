// Requests and reference answers for bench_e2e.
//
// A Request is one sg query in a binding pattern the workloads use —
// sg(a, Y) or the inverted sg(X, b) — with its pre-rendered HTTP bytes and
// the digest its answer must have. Reference digests come from the
// seminaive baseline: one full fixpoint of sg over an unfrozen database
// built by the same generator, rendered by name, so they compare across
// databases whose intern orders differ.
#ifndef BINCHAIN_E2EBENCH_WORKLOAD_H_
#define BINCHAIN_E2EBENCH_WORKLOAD_H_

#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "baselines/bottom_up.h"
#include "datalog/parser.h"
#include "http_client.h"
#include "service/query_service.h"
#include "storage/database.h"
#include "workloads/workloads.h"

namespace e2e {

using Generator = std::function<void(binchain::Database&)>;

struct Request {
  std::string source;  // bound first argument, or empty
  std::string target;  // bound second argument (inverted system), or empty
  bool cyclic = false;  // evaluate under the |D1| * |D2| cyclic bound
  std::string raw;      // the whole HTTP request, written with one send()
  std::string raw_close;  // the same, with `Connection: close`
  AnswerDigest expect;

  static Request Forward(std::string source, bool cyclic = false) {
    Request r;
    r.source = std::move(source);
    r.cyclic = cyclic;
    r.raw = RawHttp(r, false);
    r.raw_close = RawHttp(r, true);
    return r;
  }
  static Request Inverted(std::string target, bool cyclic = false) {
    Request r;
    r.target = std::move(target);
    r.cyclic = cyclic;
    r.raw = RawHttp(r, false);
    r.raw_close = RawHttp(r, true);
    return r;
  }

  binchain::QueryRequest ToQuery() const {
    binchain::QueryRequest q;
    q.pred = "sg";
    q.source = source;
    q.target = target;
    q.options.use_cyclic_bound = cyclic;
    return q;
  }
  std::string Label() const {
    return "sg(" + (source.empty() ? std::string("X") : source) + ", " +
           (target.empty() ? std::string("Y") : target) + ")";
  }

 private:
  static std::string RawHttp(const Request& r, bool close) {
    std::string body = "{\"pred\": \"sg\"";
    if (!r.source.empty()) body += ", \"source\": \"" + r.source + "\"";
    if (!r.target.empty()) body += ", \"target\": \"" + r.target + "\"";
    if (r.cyclic) body += ", \"options\": {\"use_cyclic_bound\": true}";
    body += "}";
    return std::string("POST /v1/query HTTP/1.1\r\nHost: 127.0.0.1\r\n") +
           (close ? "Connection: close\r\n" : "") +
           "Content-Type: application/json\r\nContent-Length: " +
           std::to_string(body.size()) + "\r\n\r\n" + body;
  }
};

inline AnswerDigest DigestTuples(const std::vector<binchain::Tuple>& tuples,
                                 const binchain::SymbolTable& symbols) {
  AnswerDigest d;
  for (const binchain::Tuple& t : tuples) {
    d.Add(symbols.Name(t[0]), symbols.Name(t[1]));
  }
  return d;
}

struct Oracle {
  std::unordered_map<std::string, AnswerDigest> by_source;
  std::unordered_map<std::string, AnswerDigest> by_target;

  AnswerDigest Expect(const Request& r) const {
    const auto& table = r.source.empty() ? by_target : by_source;
    auto it = table.find(r.source.empty() ? r.target : r.source);
    return it == table.end() ? AnswerDigest{} : it->second;
  }
};

inline binchain::Status BuildOracle(const Generator& gen, Oracle* out) {
  using namespace binchain;
  Database db;
  gen(db);
  auto program = ParseProgram(workloads::SgProgramText(), db.symbols());
  if (!program.ok()) return program.status();
  auto query = ParseLiteral("sg(X, Y)", db.symbols());
  if (!query.ok()) return query.status();
  BottomUpStats stats;
  auto tuples = SeminaiveQuery(program.value(), db, query.value(), &stats);
  if (!tuples.ok()) return tuples.status();
  for (const Tuple& t : tuples.value()) {
    const std::string& src = db.symbols().Name(t[0]);
    const std::string& dst = db.symbols().Name(t[1]);
    out->by_source[src].Add(src, dst);
    out->by_target[dst].Add(src, dst);
  }
  return Status::Ok();
}

}  // namespace e2e

#endif  // BINCHAIN_E2EBENCH_WORKLOAD_H_
