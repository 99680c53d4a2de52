#include "obs/trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>

#include "obs/metrics.h"

namespace binchain {
namespace obs {

namespace {

std::string Ms(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.3f", v);
  return buf;
}

std::string Us(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.1f", v);
  return buf;
}

}  // namespace

namespace internal {

void RegisterRingResetHook(void* owner, void (*clear)(void*)) {
  Registry::Global().AddResetHook(owner, [owner, clear] { clear(owner); });
}

void UnregisterRingResetHook(void* owner) {
  Registry::Global().RemoveResetHook(owner);
}

}  // namespace internal

uint64_t SteadyNowUs() {
  // Origin is fixed at the first call (reached during static init of the
  // first service/manager in practice), so span timestamps are small
  // offsets rather than raw steady-clock readings.
  static const std::chrono::steady_clock::time_point origin =
      std::chrono::steady_clock::now();
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - origin)
          .count());
}

void QueryTrace::RenderJson(std::string* out) const {
  out->append("{\"query_id\": ").append(std::to_string(query_id));
  out->append(", \"pred\": ").append(std::to_string(pred));
  out->append(", \"source\": ").append(std::to_string(source));
  out->append(", \"start_us\": ").append(std::to_string(start_us));
  out->append(", \"queue_wait_ms\": ").append(Ms(queue_wait_ms));
  out->append(", \"eval_ms\": ").append(Ms(eval_ms));
  out->append(", \"total_ms\": ").append(Ms(total_ms));
  out->append(", \"iterations\": ").append(std::to_string(iterations));
  out->append(", \"expansions\": ").append(std::to_string(expansions));
  out->append(", \"fetches\": ").append(std::to_string(fetches));
  out->append(", \"memo_hits\": ").append(std::to_string(memo_hits));
  out->append(", \"cancel_checks\": ").append(std::to_string(cancel_checks));
  out->append(", \"answers\": ").append(std::to_string(answers));
  out->append(", \"chunks\": ").append(std::to_string(chunks));
  out->append(", \"epoch\": ").append(std::to_string(epoch));
  out->append(", \"timed_out\": ").append(timed_out ? "true" : "false");
  out->append(", \"cancelled\": ").append(cancelled ? "true" : "false");
  out->append(", \"shed\": ").append(shed ? "true" : "false");
  out->append(", \"cache_hit\": ").append(cache_hit ? "true" : "false");
  out->append(", \"collapsed\": ").append(collapsed ? "true" : "false");
  out->append("}");
}

void PublishTrace::RenderJson(std::string* out) const {
  out->append("{\"publish_id\": ").append(std::to_string(publish_id));
  out->append(", \"epoch\": ").append(std::to_string(epoch));
  out->append(", \"start_us\": ").append(std::to_string(start_us));
  out->append(", \"stage_ms\": ").append(Ms(stage_ms));
  out->append(", \"freeze_ms\": ").append(Ms(freeze_ms));
  out->append(", \"artifact_ms\": ").append(Ms(artifact_ms));
  out->append(", \"commit_ms\": ").append(Ms(commit_ms));
  out->append(", \"swap_ms\": ").append(Ms(swap_ms));
  out->append(", \"total_ms\": ").append(Ms(total_ms));
  out->append(", \"facts_added\": ").append(std::to_string(facts_added));
  out->append(", \"facts_deleted\": ").append(std::to_string(facts_deleted));
  out->append(", \"relations_touched\": ")
      .append(std::to_string(relations_touched));
  out->append(", \"relations_merged\": ")
      .append(std::to_string(relations_merged));
  out->append(", \"rows_compacted\": ").append(std::to_string(rows_compacted));
  out->append(", \"refused\": ").append(refused ? "true" : "false");
  out->append("}");
}

// ------------------------------------------------------- Chrome trace JSON
//
// Trace-event format, "JSON object" flavor: {"displayTimeUnit": "ms",
// "traceEvents": [...]}, one complete ("X") slice per span with nested
// phase slices, plus "M" metadata naming the process and tracks. Complete
// events on one tid must nest by containment, so concurrent query spans
// are spread greedily over lanes (tracks): each query goes to the first
// lane that is free at its start time. Publishes are serialized by the
// manager, so they all share one lane.

namespace {

void AppendEventPrefix(std::string* out, bool* first, const char* ph,
                       int tid) {
  out->append(*first ? "\n    " : ",\n    ");
  *first = false;
  out->append("{\"ph\": \"").append(ph).append("\", \"pid\": 1, \"tid\": ");
  out->append(std::to_string(tid)).append(", ");
}

void AppendSlice(std::string* out, bool* first, int tid, const char* cat,
                 const std::string& name, double ts_us, double dur_us,
                 const std::string& args_json) {
  AppendEventPrefix(out, first, "X", tid);
  out->append("\"cat\": \"").append(cat).append("\", ");
  out->append("\"name\": \"").append(name).append("\", ");
  out->append("\"ts\": ").append(Us(ts_us));
  out->append(", \"dur\": ").append(Us(dur_us));
  if (!args_json.empty()) {
    out->append(", \"args\": ").append(args_json);
  }
  out->append("}");
}

void AppendThreadName(std::string* out, bool* first, int tid,
                      const std::string& name) {
  AppendEventPrefix(out, first, "M", tid);
  out->append("\"name\": \"thread_name\", \"args\": {\"name\": \"");
  out->append(name).append("\"}}");
}

}  // namespace

void RenderChromeTrace(const std::vector<QueryTrace>& queries,
                       const std::vector<PublishTrace>& publishes,
                       std::string* out) {
  constexpr int kPublishTid = 1;
  constexpr int kFirstQueryTid = 2;

  // Assign each query the first lane whose previous slice has ended by
  // this query's start (classic interval-graph coloring, greedy on start
  // order). lanes[i] holds lane i's current end time in microseconds.
  struct Placed {
    const QueryTrace* q;
    int tid;
  };
  std::vector<const QueryTrace*> by_start;
  by_start.reserve(queries.size());
  for (const QueryTrace& q : queries) by_start.push_back(&q);
  std::sort(by_start.begin(), by_start.end(),
            [](const QueryTrace* a, const QueryTrace* b) {
              return a->start_us < b->start_us;
            });
  std::vector<double> lanes;
  std::vector<Placed> placed;
  placed.reserve(by_start.size());
  for (const QueryTrace* q : by_start) {
    const double start = static_cast<double>(q->start_us);
    const double end = start + q->total_ms * 1000.0;
    size_t lane = lanes.size();
    for (size_t i = 0; i < lanes.size(); ++i) {
      if (lanes[i] <= start) {
        lane = i;
        break;
      }
    }
    if (lane == lanes.size()) lanes.push_back(0);
    lanes[lane] = end;
    placed.push_back({q, kFirstQueryTid + static_cast<int>(lane)});
  }

  out->append("{\n  \"displayTimeUnit\": \"ms\",\n  \"traceEvents\": [");
  bool first = true;

  AppendEventPrefix(out, &first, "M", kPublishTid);
  out->append(
      "\"name\": \"process_name\", \"args\": {\"name\": \"binchain\"}}");
  if (!publishes.empty()) {
    AppendThreadName(out, &first, kPublishTid, "publish");
  }
  for (size_t i = 0; i < lanes.size(); ++i) {
    AppendThreadName(out, &first, kFirstQueryTid + static_cast<int>(i),
                     "queries-" + std::to_string(i));
  }

  for (const Placed& p : placed) {
    const QueryTrace& q = *p.q;
    const double start = static_cast<double>(q.start_us);
    std::string args = "{\"query_id\": " + std::to_string(q.query_id) +
                       ", \"pred\": " + std::to_string(q.pred) +
                       ", \"source\": " + std::to_string(q.source) +
                       ", \"answers\": " + std::to_string(q.answers) +
                       ", \"epoch\": " + std::to_string(q.epoch) +
                       ", \"fetches\": " + std::to_string(q.fetches) +
                       ", \"memo_hits\": " + std::to_string(q.memo_hits) +
                       std::string(q.timed_out ? ", \"timed_out\": true" : "") +
                       std::string(q.cancelled ? ", \"cancelled\": true" : "") +
                       std::string(q.shed ? ", \"shed\": true" : "") + "}";
    AppendSlice(out, &first, p.tid, "query",
                "query " + std::to_string(q.query_id), start,
                q.total_ms * 1000.0, args);
    if (q.queue_wait_ms > 0) {
      AppendSlice(out, &first, p.tid, "query", "queue_wait", start,
                  q.queue_wait_ms * 1000.0, "");
    }
    if (q.eval_ms > 0) {
      AppendSlice(out, &first, p.tid, "query", "eval",
                  start + q.queue_wait_ms * 1000.0, q.eval_ms * 1000.0, "");
    }
  }

  for (const PublishTrace& p : publishes) {
    const double start = static_cast<double>(p.start_us);
    std::string args =
        "{\"publish_id\": " + std::to_string(p.publish_id) +
        ", \"epoch\": " + std::to_string(p.epoch) +
        ", \"facts_added\": " + std::to_string(p.facts_added) +
        ", \"facts_deleted\": " + std::to_string(p.facts_deleted) +
        ", \"relations_touched\": " + std::to_string(p.relations_touched) +
        ", \"relations_merged\": " + std::to_string(p.relations_merged) +
        ", \"rows_compacted\": " + std::to_string(p.rows_compacted) +
        std::string(p.refused ? ", \"refused\": true" : "") + "}";
    AppendSlice(out, &first, kPublishTid, "publish",
                "publish e" + std::to_string(p.epoch), start,
                p.total_ms * 1000.0, args);
    // Phase children laid end-to-end in pipeline order. Their sum can be
    // less than total_ms (un-attributed glue); the remainder just shows
    // as uncovered tail inside the parent slice.
    double at = start;
    const struct {
      const char* name;
      double ms;
    } phases[] = {{"stage", p.stage_ms},
                  {"freeze", p.freeze_ms},
                  {"artifact_refresh", p.artifact_ms},
                  {"wal_commit", p.commit_ms},
                  {"tip_swap", p.swap_ms}};
    for (const auto& ph : phases) {
      if (ph.ms > 0) {
        AppendSlice(out, &first, kPublishTid, "publish", ph.name, at,
                    ph.ms * 1000.0, "");
      }
      at += ph.ms * 1000.0;
    }
  }

  out->append(first ? "]\n}\n" : "\n  ]\n}\n");
}

std::string RenderChromeTrace(const std::vector<QueryTrace>& queries,
                              const std::vector<PublishTrace>& publishes) {
  std::string out;
  RenderChromeTrace(queries, publishes, &out);
  return out;
}

}  // namespace obs
}  // namespace binchain
