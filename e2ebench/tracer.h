// Traced-run instrument for bench_e2e: outside-in per-layer attribution.
//
// For each sampled request the client-side timings (send, head, first
// answer chunk, terminating chunk) are joined with the request's own
// service span — found in QueryService's flight recorder by the eval/total
// times and answer count its trailer echoes. After the measured phase the
// request is replayed through each lower layer's public entry point on a
// frozen twin database built by the same generator. Replaying afterwards
// keeps the traced connection's pacing identical to the plain run's: a
// pause between requests changes how the client's delayed ACKs interleave
// with the server's writes, and with them the latency being attributed.
//
//   eval.query        QueryEngine::Query (the facade)
//   engine.evalfrom   Engine::EvalFrom over the twin's views()/equations()
//                     (or the inverted system, for sg(X, b))
//   baseline.*        CountingQuery, HenschenNaqviQuery (linear normal form
//                     only) and SeminaiveQuery (an unfrozen copy: it interns
//                     its delta marker), each answer checked like any other.
//
// Self time is the difference between adjacent layers on the same request:
// server = client - service span, service = span total - span eval. The
// span's eval time is split between facade and core in the proportion the
// twin measured, so the four self times of one request sum to its client
// time exactly. Spans stay in memory and are written at the end as a
// Chrome trace plus a per-layer summary.
#ifndef BINCHAIN_E2EBENCH_TRACER_H_
#define BINCHAIN_E2EBENCH_TRACER_H_

#include <algorithm>
#include <fstream>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "baselines/bottom_up.h"
#include "baselines/counting.h"
#include "equations/equations.h"
#include "eval/engine.h"
#include "eval/query.h"
#include "obs/trace.h"
#include "report.h"
#include "service/query_service.h"
#include "workload.h"

namespace e2e {

inline double Ms(Clock::duration d) {
  return std::chrono::duration<double, std::milli>(d).count();
}

class Tracer {
 public:
  /// `requests` and `service` are borrowed and must outlive the tracer.
  Tracer(const std::vector<Request>* requests, binchain::QueryService* service,
         size_t target_samples, size_t baseline_samples)
      : requests_(requests),
        service_(service),
        target_(target_samples),
        baseline_samples_(baseline_samples),
        origin_us_(static_cast<int64_t>(binchain::obs::SteadyNowUs())),
        origin_(Clock::now()) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Builds the twin and the seminaive copy. `level_cap` bounds the
  /// counting baselines on cyclic data.
  binchain::Status Init(const Generator& gen, size_t level_cap) {
    using namespace binchain;
    level_cap_ = level_cap;
    gen(db_);
    qe_ = std::make_unique<QueryEngine>(&db_);
    if (Status s = qe_->LoadProgramText(workloads::SgProgramText()); !s.ok()) {
      return s;
    }
    if (Status s = qe_->PrepareAll(); !s.ok()) return s;
    sg_ = *db_.symbols().Find("sg");
    inverted_ = InvertSystem(qe_->equations(), db_.symbols(), inverse_of_);
    inv_sg_ = inverse_of_.at(sg_);
    fwd_ = std::make_unique<Engine>(&qe_->equations(), &qe_->views());
    inv_ = std::make_unique<Engine>(&inverted_, &qe_->views());
    has_nf_fwd_ = MatchLinearNormalForm(qe_->equations(), sg_, &nf_fwd_);
    has_nf_inv_ = MatchLinearNormalForm(inverted_, inv_sg_, &nf_inv_);
    SymbolId x = db_.symbols().Intern("X");
    SymbolId y = db_.symbols().Intern("Y");
    for (const Request& r : *requests_) {
      Literal lit;
      lit.predicate = sg_;
      lit.args.push_back(r.source.empty() ? Term::Var(x)
                                          : Term::Const(db_.Const(r.source)));
      lit.args.push_back(r.target.empty() ? Term::Var(y)
                                          : Term::Const(db_.Const(r.target)));
      literals_.push_back(lit);
    }
    // One untimed pass per binding pattern before the freeze: machine
    // compilation and normal-form matching may intern symbols.
    bool seen_fwd = false, seen_inv = false;
    for (uint32_t i = 0; i < requests_->size(); ++i) {
      bool forward = !(*requests_)[i].source.empty();
      if (forward ? seen_fwd : seen_inv) continue;
      (forward ? seen_fwd : seen_inv) = true;
      Sample scratch;
      RunLayers(0, -1, i, /*record=*/false, &scratch);
    }
    if (wrong_ != 0) return Status::Internal("twin disagrees with the oracle");
    db_.Freeze();

    gen(semi_db_);
    auto program = ParseProgram(workloads::SgProgramText(), semi_db_.symbols());
    if (!program.ok()) return program.status();
    semi_program_ = program.take();
    for (const Request& r : *requests_) {
      auto lit = ParseLiteral(r.Label(), semi_db_.symbols());
      if (!lit.ok()) return lit.status();
      semi_literals_.push_back(lit.take());
    }
    return Status::Ok();
  }

  bool wants() const { return samples_.size() < target_; }

  /// One HTTP request of the traced connection.
  void OnHttp(int tid, uint32_t req, const Exchange& x) {
    Sample s;
    s.id = samples_.size();
    s.client_ms = Ms(x.t_end - x.t_send);
    int64_t root = AddSpan("http", Us(x.t_send), Us(x.t_end), -1, s.id, tid);
    AddSpan("http.head", Us(x.t_head), Us(x.t_head), root, s.id, tid);
    if (x.has_first_chunk) {
      AddSpan("http.first_chunk", Us(x.t_first_chunk), Us(x.t_first_chunk),
              root, s.id, tid);
    }
    // The trailer echoes the span's eval/total times at 1 us resolution;
    // together with the answer count and epoch they pick out this
    // request's span among the recorder's recent ones.
    std::vector<binchain::obs::QueryTrace> recent =
        service_->flight_recorder().Snapshot();
    for (auto it = recent.rbegin(); it != recent.rend(); ++it) {
      if (std::abs(it->total_ms - x.total_ms) < 6e-4 &&
          std::abs(it->eval_ms - x.eval_ms) < 6e-4 &&
          it->answers == x.answers && it->epoch == x.epoch) {
        s.has_span = true;
        s.span = *it;
        break;
      }
    }
    if (s.has_span) AddServiceSpans(s, root, tid);
    else ++unmatched_;
    s.req = req;
    s.tid = tid;
    samples_.push_back(s);
  }

  /// One in-process batch call; returns its span for OnInProcess.
  int64_t OnBatch(int tid, Clock::time_point t0, Clock::time_point t1) {
    return AddSpan("batch", Us(t0), Us(t1), -1, samples_.size(), tid);
  }

  /// One query of a traced in-process batch: the service span is the
  /// outermost layer, so its total stands in for the client time.
  void OnInProcess(int tid, int64_t batch_span, uint32_t req,
                   const binchain::QueryResponse& resp) {
    Sample s;
    s.id = samples_.size();
    s.has_span = true;
    s.span = resp.trace;
    s.client_ms = resp.trace.total_ms;
    AddServiceSpans(s, batch_span, tid);
    s.req = req;
    s.tid = tid;
    samples_.push_back(s);
  }

  uint64_t wrong() const { return wrong_; }
  const std::vector<std::string>& errors() const { return errors_; }

  /// Fills the per-layer metrics the tracer owns and writes
  /// `<prefix>.trace.json` and `<prefix>.summary.json`.
  void Finish(Report* rep, const std::string& prefix) {
    for (Sample& s : samples_) RunLayers(s.tid, -1, s.req, /*record=*/true, &s);
    std::vector<double> server_self, service_self, queue_wait, service_eval,
        query, facade, core, hit_ms, client, eval_attr, core_attr;
    std::vector<double> counting, hn, semi;
    double nodes = 0, iterations = 0, expansions = 0, continuations = 0,
           em_states = 0, fetches = 0, answers = 0, memo_hits = 0;
    double counting_f = 0, hn_f = 0, semi_f = 0;
    for (const Sample& s : samples_) {
      const LayerTimes& L = s.layers;
      query.push_back(L.query_ms);
      core.push_back(L.evalfrom_ms);
      facade.push_back(std::max(0.0, L.query_ms - L.evalfrom_ms));
      nodes += L.core.nodes;
      iterations += L.core.iterations;
      expansions += L.core.expansions;
      continuations += L.core.continuations;
      em_states += L.core.em_states;
      fetches += L.core_fetches;
      answers += L.answers;
      if (L.counting_ms >= 0) {
        counting.push_back(L.counting_ms);
        counting_f += L.counting_fetches;
      }
      if (L.hn_ms >= 0) {
        hn.push_back(L.hn_ms);
        hn_f += L.hn_fetches;
      }
      if (L.semi_ms >= 0) {
        semi.push_back(L.semi_ms);
        semi_f += L.semi_fetches;
      }
      if (!s.has_span) continue;
      const binchain::obs::QueryTrace& t = s.span;
      memo_hits += t.memo_hits;
      server_self.push_back(std::max(0.0, s.client_ms - t.total_ms));
      service_self.push_back(std::max(0.0, t.total_ms - t.eval_ms));
      queue_wait.push_back(t.queue_wait_ms);
      service_eval.push_back(t.eval_ms);
      if (t.cache_hit) hit_ms.push_back(t.total_ms);
      double share =
          L.query_ms > 0 ? std::min(1.0, L.evalfrom_ms / L.query_ms) : 0;
      core_attr.push_back(t.eval_ms * share);
      eval_attr.push_back(t.eval_ms - t.eval_ms * share);
      client.push_back(s.client_ms);
    }
    double n = std::max<double>(1, static_cast<double>(samples_.size()));
    double nspan = std::max<double>(1, static_cast<double>(client.size()));
    rep->Set("server.self_ms_p50", Quantile(server_self, 0.5), "ms");
    rep->Set("service.eval_ms_p50", Quantile(service_eval, 0.5), "ms");
    rep->Set("service.self_ms_p50", Quantile(service_self, 0.5), "ms");
    rep->Set("service.queue_wait_ms_p50", Quantile(queue_wait, 0.5), "ms");
    rep->Set("cache.hit_ms_p50", Quantile(hit_ms, 0.5), "ms");
    rep->Set("eval.query_ms_p50", Quantile(query, 0.5), "ms");
    rep->Set("eval.self_ms_p50", Quantile(facade, 0.5), "ms");
    rep->Set("engine.evalfrom_ms_p50", Quantile(core, 0.5), "ms");
    rep->Set("engine.nodes", nodes / n, "count");
    rep->Set("engine.iterations", iterations / n, "count");
    rep->Set("engine.expansions", expansions / n, "count");
    rep->Set("engine.continuations", continuations / n, "count");
    rep->Set("engine.em_states", em_states / n, "count");
    rep->Set("engine.fetches", fetches / n, "count");
    rep->Set("engine.memo_hits", memo_hits / nspan, "count");
    rep->Set("engine.answers", answers / n, "count");
    rep->Set("baseline.counting_ms_p50", Quantile(counting, 0.5), "ms");
    rep->Set("baseline.henschen_naqvi_ms_p50", Quantile(hn, 0.5), "ms");
    rep->Set("baseline.seminaive_ms_p50", Quantile(semi, 0.5), "ms");
    rep->Set("baseline.counting_fetches",
             counting.empty() ? 0 : counting_f / counting.size(), "count");
    rep->Set("baseline.henschen_naqvi_fetches",
             hn.empty() ? 0 : hn_f / hn.size(), "count");
    rep->Set("baseline.seminaive_fetches",
             semi.empty() ? 0 : semi_f / semi.size(), "count");
    rep->Set("trace.samples", static_cast<double>(samples_.size()), "count");

    // Attribution: p50 self time per layer against the client p50.
    struct Layer {
      const char* name;
      double p50;
    };
    Layer layers[] = {{"server", Quantile(server_self, 0.5)},
                      {"service", Quantile(service_self, 0.5)},
                      {"eval", Quantile(eval_attr, 0.5)},
                      {"engine", Quantile(core_attr, 0.5)}};
    double sum = 0;
    const Layer* dominant = &layers[0];
    for (const Layer& l : layers) {
      sum += l.p50;
      if (l.p50 > dominant->p50) dominant = &l;
    }
    double client_p50 = Quantile(client, 0.5);
    double ratio = client_p50 > 0 ? sum / client_p50 : 0;
    rep->Set("trace.layer_sum_ratio", ratio, "ratio");
    rep->info["trace.unmatched_spans"] = static_cast<double>(unmatched_);

    std::ofstream summary(prefix + ".summary.json");
    summary << "{\"samples\": " << samples_.size()
            << ", \"unmatched_spans\": " << unmatched_
            << ", \"client_p50_ms\": " << JsonNumber(client_p50)
            << ", \"self_ms_p50\": {";
    for (size_t i = 0; i < 4; ++i) {
      summary << (i ? ", " : "") << JsonString(layers[i].name) << ": "
              << JsonNumber(layers[i].p50);
    }
    summary << "}, \"layer_sum_ms\": " << JsonNumber(sum)
            << ", \"layer_sum_ratio\": " << JsonNumber(ratio)
            << ", \"dominant_layer\": " << JsonString(dominant->name) << "}\n";

    std::ofstream trace(prefix + ".trace.json");
    trace << "{\"traceEvents\": [";
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& sp = spans_[i];
      trace << (i ? ",\n" : "\n") << "{\"name\": " << JsonString(sp.name)
            << ", \"ph\": \"" << (sp.end_us == sp.start_us ? "i" : "X")
            << "\", \"ts\": " << sp.start_us;
      if (sp.end_us != sp.start_us) trace << ", \"dur\": " << sp.end_us - sp.start_us;
      trace << ", \"pid\": 1, \"tid\": " << sp.tid << ", \"args\": {\"req\": "
            << sp.req << ", \"parent\": " << sp.parent << "}}";
    }
    trace << "\n]}\n";
  }

 private:
  struct LayerTimes {
    double query_ms = 0;
    double evalfrom_ms = 0;
    binchain::EvalStats core;
    uint64_t core_fetches = 0;
    uint64_t answers = 0;
    double counting_ms = -1, hn_ms = -1, semi_ms = -1;
    uint64_t counting_fetches = 0, hn_fetches = 0, semi_fetches = 0;
  };
  struct Sample {
    uint64_t id = 0;
    uint32_t req = 0;  // index into the request table
    int tid = 0;
    double client_ms = 0;
    bool has_span = false;
    binchain::obs::QueryTrace span;
    LayerTimes layers;
  };
  struct Span {
    std::string name;
    int64_t start_us = 0, end_us = 0;
    int64_t parent = -1;
    uint64_t req = 0;
    int tid = 0;
  };

  int64_t Us(Clock::time_point t) const {
    return origin_us_ +
           std::chrono::duration_cast<std::chrono::microseconds>(t - origin_)
               .count();
  }
  int64_t AddSpan(std::string name, int64_t start, int64_t end, int64_t parent,
                  uint64_t req, int tid) {
    spans_.push_back(Span{std::move(name), start, end, parent, req, tid});
    return static_cast<int64_t>(spans_.size()) - 1;
  }

  void AddServiceSpans(const Sample& s, int64_t parent, int tid) {
    const binchain::obs::QueryTrace& t = s.span;
    int64_t start = static_cast<int64_t>(t.start_us);
    int64_t svc = AddSpan(t.cache_hit ? "service (cache hit)" : "service",
                          start, start + static_cast<int64_t>(t.total_ms * 1e3),
                          parent, s.id, tid);
    int64_t queued = start + static_cast<int64_t>(t.queue_wait_ms * 1e3);
    AddSpan("service.queue_wait", start, queued, svc, s.id, tid);
    AddSpan("service.eval", queued,
            queued + static_cast<int64_t>(t.eval_ms * 1e3), svc, s.id, tid);
  }

  /// Digest of an engine-level answer (terms bound against `bound`).
  AnswerDigest TermDigest(std::vector<binchain::TermId> terms, bool forward,
                          binchain::SymbolId bound) {
    std::sort(terms.begin(), terms.end());
    terms.erase(std::unique(terms.begin(), terms.end()), terms.end());
    const binchain::TermPool& pool = qe_->views().pool();
    const std::string& b = db_.symbols().Name(bound);
    AnswerDigest d;
    for (binchain::TermId t : terms) {
      const std::string& other = db_.symbols().Name(pool.AsUnary(t));
      if (forward) d.Add(b, other);
      else d.Add(other, b);
    }
    return d;
  }

  void Check(const char* layer, const Request& r, bool ok,
             const AnswerDigest& got) {
    if (ok && got == r.expect) return;
    ++wrong_;
    if (errors_.size() < 4) errors_.push_back(std::string(layer) + " " + r.Label());
  }

  template <typename Fn>
  double Timed(const char* name, int64_t parent, uint64_t id, int tid,
               bool record, Fn fn) {
    auto t0 = Clock::now();
    fn();
    auto t1 = Clock::now();
    if (record) AddSpan(name, Us(t0), Us(t1), parent, id, tid);
    return Ms(t1 - t0);
  }

  void RunLayers(int tid, int64_t parent, uint32_t ri, bool record, Sample* s) {
    using namespace binchain;
    const Request& r = (*requests_)[ri];
    const Literal& lit = literals_[ri];
    bool forward = !r.source.empty();
    SymbolId bound = forward ? lit.args[0].symbol : lit.args[1].symbol;
    EvalOptions eo;
    eo.use_cyclic_bound = r.cyclic;
    LayerTimes& L = s->layers;
    auto t_layers = Clock::now();
    int64_t root = record ? AddSpan("layers", Us(t_layers), Us(t_layers), parent,
                                    s->id, tid)
                          : -1;

    Result<QueryAnswer> qa = Status::Internal("not run");
    L.query_ms = Timed("eval.query", root, s->id, tid, record,
                       [&] { qa = qe_->Query(lit, eo); });
    Check("eval.query", r, qa.ok(),
          qa.ok() ? DigestTuples(qa.value().tuples, db_.symbols())
                  : AnswerDigest{});
    if (qa.ok()) L.answers = qa.value().tuples.size();

    TermId term = qe_->views().pool().Unary(bound);
    Result<std::vector<TermId>> core = Status::Internal("not run");
    uint64_t f0 = Relation::ThreadFetchCount();
    L.evalfrom_ms = Timed("engine.evalfrom", root, s->id, tid, record, [&] {
      core = forward ? fwd_->EvalFrom(sg_, term, eo, &L.core)
                     : inv_->EvalFrom(inv_sg_, term, eo, &L.core);
    });
    L.core_fetches = Relation::ThreadFetchCount() - f0;
    Check("engine.evalfrom", r, core.ok(),
          core.ok() ? TermDigest(core.value(), forward, bound) : AnswerDigest{});

    const LinearNormalForm* nf = forward ? (has_nf_fwd_ ? &nf_fwd_ : nullptr)
                                         : (has_nf_inv_ ? &nf_inv_ : nullptr);
    // The baselines are reference rows: a few dozen samples give their
    // cost, and Henschen-Naqvi on a long ladder takes tens of ms a call.
    bool baselines = !record || s->id < baseline_samples_;
    if (nf != nullptr && baselines) {
      Result<std::vector<TermId>> out = Status::Internal("not run");
      LevelStats ls;
      f0 = Relation::ThreadFetchCount();
      L.counting_ms = Timed("baseline.counting", root, s->id, tid, record, [&] {
        out = CountingQuery(qe_->views(), *nf, term, level_cap_, &ls);
      });
      L.counting_fetches = Relation::ThreadFetchCount() - f0;
      Check("baseline.counting", r, out.ok(),
            out.ok() ? TermDigest(out.value(), forward, bound) : AnswerDigest{});
      ls = LevelStats{};
      f0 = Relation::ThreadFetchCount();
      L.hn_ms = Timed("baseline.henschen_naqvi", root, s->id, tid, record, [&] {
        out = HenschenNaqviQuery(qe_->views(), *nf, term, level_cap_, &ls);
      });
      L.hn_fetches = Relation::ThreadFetchCount() - f0;
      Check("baseline.henschen_naqvi", r, out.ok(),
            out.ok() ? TermDigest(out.value(), forward, bound) : AnswerDigest{});
    }

    if (record && baselines) {
      Result<std::vector<Tuple>> out = Status::Internal("not run");
      BottomUpStats bs;
      L.semi_ms = Timed("baseline.seminaive", root, s->id, tid, record, [&] {
        out = SeminaiveQuery(semi_program_, semi_db_, semi_literals_[ri], &bs);
      });
      L.semi_fetches = bs.fetches;
      Check("baseline.seminaive", r, out.ok(),
            out.ok() ? DigestTuples(out.value(), semi_db_.symbols())
                     : AnswerDigest{});
    }
    if (record) spans_[root].end_us = Us(Clock::now());
  }

  const std::vector<Request>* requests_;
  binchain::QueryService* service_;
  const size_t target_;
  const size_t baseline_samples_;
  const int64_t origin_us_;
  const Clock::time_point origin_;
  size_t level_cap_ = 0;

  binchain::Database db_;  // the frozen twin
  std::unique_ptr<binchain::QueryEngine> qe_;
  std::unordered_map<binchain::SymbolId, binchain::SymbolId> inverse_of_;
  binchain::EquationSystem inverted_;
  std::unique_ptr<binchain::Engine> fwd_, inv_;
  binchain::SymbolId sg_ = 0, inv_sg_ = 0;
  binchain::LinearNormalForm nf_fwd_, nf_inv_;
  bool has_nf_fwd_ = false, has_nf_inv_ = false;
  std::vector<binchain::Literal> literals_;

  binchain::Database semi_db_;  // unfrozen copy for the seminaive baseline
  binchain::Program semi_program_;
  std::vector<binchain::Literal> semi_literals_;

  std::vector<Sample> samples_;
  std::vector<Span> spans_;
  uint64_t unmatched_ = 0;
  uint64_t wrong_ = 0;
  std::vector<std::string> errors_;  // first few layer mismatches
};

}  // namespace e2e

#endif  // BINCHAIN_E2EBENCH_TRACER_H_
