#include "live/snapshot_manager.h"

#include <chrono>
#include <utility>

#include "obs/metrics.h"
#include "util/check.h"

namespace binchain {
namespace {

double MsBetween(std::chrono::steady_clock::time_point a,
                 std::chrono::steady_clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// The live metric family, registered once per process. Publish() and
/// Seal() are slow paths (file I/O, full freeze), so recording here is
/// pure bookkeeping noise — the point is that the counters survive the
/// PublishStats structs that callers drop on the floor.
struct LiveObs {
  static LiveObs& Get() {
    static LiveObs* o = new LiveObs();
    return *o;
  }
  obs::Counter* publishes;
  obs::Counter* refused;
  obs::Counter* facts_added;
  obs::Counter* facts_deleted;
  obs::Counter* facts_duplicate;
  obs::Counter* facts_rejected;
  obs::Counter* compacted_rows;
  obs::Histogram* publish_ms;
  obs::Gauge* epoch;
  obs::Gauge* pending;

 private:
  LiveObs() {
    obs::Registry& r = obs::Registry::Global();
    publishes = r.GetCounter("binchain_live_publishes_total",
                             "Publishes that swapped the serving tip");
    refused = r.GetCounter(
        "binchain_live_publish_refused_total",
        "Publishes aborted by a refused durability commit (batch restaged)");
    facts_added = r.GetCounter("binchain_live_facts_added_total",
                               "Facts added across all publishes");
    facts_deleted = r.GetCounter("binchain_live_facts_deleted_total",
                                 "Facts retracted across all publishes");
    facts_duplicate =
        r.GetCounter("binchain_live_facts_duplicate_total",
                     "Staged facts already present at publish time");
    facts_rejected =
        r.GetCounter("binchain_live_facts_rejected_total",
                     "Staged facts rejected (arity mismatch)");
    compacted_rows = r.GetCounter(
        "binchain_live_compacted_rows_total",
        "Rows and spellings copied by chain compaction (merges, flattens)");
    publish_ms = r.GetHistogram(
        "binchain_live_publish_ms",
        "Publish latency, stage swap to tip swap (successful publishes)");
    epoch = r.GetGauge("binchain_live_epoch", "Epoch of the serving tip");
    pending = r.GetGauge("binchain_live_pending_facts",
                         "Facts staged but not yet published");
  }
};

}  // namespace

SnapshotManager::SnapshotManager(std::unique_ptr<Database> genesis)
    : genesis_(std::move(genesis)) {
  BINCHAIN_CHECK(genesis_ != nullptr);
  BINCHAIN_CHECK(!genesis_->frozen());
}

Database* SnapshotManager::genesis() {
  std::lock_guard<std::mutex> lock(mu_);
  BINCHAIN_CHECK(genesis_ != nullptr);  // sealed managers have no open db
  return genesis_.get();
}

void SnapshotManager::SetArtifactBuilder(ArtifactBuilder builder) {
  std::lock_guard<std::mutex> lock(mu_);
  artifact_builder_ = std::move(builder);
}

void SnapshotManager::SetPublishListener(PublishListener listener) {
  std::lock_guard<std::mutex> lock(mu_);
  publish_listener_ = std::move(listener);
}

void SnapshotManager::SetDurabilitySink(DurabilitySink* sink) {
  std::lock_guard<std::mutex> lock(mu_);
  sink_ = sink;
}

void SnapshotManager::Seal() {
  std::lock_guard<std::mutex> lock(mu_);
  if (genesis_ == nullptr) return;  // already sealed
  genesis_->Freeze();
  if (artifact_builder_) {
    genesis_->AttachArtifact(artifact_builder_(*genesis_, nullptr));
  }
  tip_ = std::shared_ptr<const Database>(std::move(genesis_));
  genesis_keeper_ = tip_;
  LiveObs::Get().epoch->Set(static_cast<int64_t>(tip_->epoch()));
  // Durable genesis: the initial checkpoint captures everything loaded
  // before the seal, so recovery starts from the sealed contents and only
  // replays published batches.
  if (sink_ != nullptr) sink_->Sealed(*tip_);
}

bool SnapshotManager::sealed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return tip_ != nullptr;
}

void SnapshotManager::Stage(PendingFact f) {
  std::lock_guard<std::mutex> lock(mu_);
  if (sink_ != nullptr) {
    // Log before staging so the WAL always covers the in-memory batch. A
    // failed append poisons the sink; the op is still staged, and the next
    // Commit refuses, aborting the publish rather than silently dropping
    // durability for this op.
    if (f.is_delete) {
      sink_->StageDelete(f.pred, f.args);
    } else {
      sink_->StageAdd(f.pred, f.args);
    }
  }
  pending_.push_back(std::move(f));
  LiveObs::Get().pending->Set(static_cast<int64_t>(pending_.size()));
}

void SnapshotManager::AddFact(std::string pred,
                              std::vector<std::string> args) {
  Stage(PendingFact{std::move(pred), std::move(args), /*is_delete=*/false});
}

void SnapshotManager::DeleteFact(std::string pred,
                                 std::vector<std::string> args) {
  Stage(PendingFact{std::move(pred), std::move(args), /*is_delete=*/true});
}

size_t SnapshotManager::PendingFacts() const {
  std::lock_guard<std::mutex> lock(mu_);
  return pending_.size();
}

std::shared_ptr<const Database> SnapshotManager::Acquire() const {
  std::lock_guard<std::mutex> lock(mu_);
  BINCHAIN_CHECK(tip_ != nullptr);  // Seal() before serving
  return tip_;
}

uint64_t SnapshotManager::epoch() const { return Acquire()->epoch(); }

PublishStats SnapshotManager::Publish() {
  std::lock_guard<std::mutex> publish_lock(publish_mu_);
  const uint64_t start_us = obs::SteadyNowUs();
  auto t0 = std::chrono::steady_clock::now();

  std::vector<PendingFact> delta;
  std::shared_ptr<const Database> base;
  ArtifactBuilder builder;
  PublishListener listener;
  DurabilitySink* sink = nullptr;
  {
    std::lock_guard<std::mutex> lock(mu_);
    BINCHAIN_CHECK(tip_ != nullptr);  // Seal() before publishing
    delta.swap(pending_);
    LiveObs::Get().pending->Set(static_cast<int64_t>(pending_.size()));
    base = tip_;
    builder = artifact_builder_;
    listener = publish_listener_;
    sink = sink_;
  }

  PublishStats stats;
  // Publish-pipeline span for the recorder, shared by the refused and
  // successful exits. Reads the phase timings out of `stats` at call time,
  // so it must run after wall_ms is final. swap_ms is the un-attributed
  // remainder (tip swap + Published hook + bookkeeping); a refused publish
  // never swapped, so its remainder is dropped rather than mislabeled.
  auto record_span = [&](bool refused) {
    obs::PublishTrace span;
    span.publish_id = ++next_publish_id_;  // publish_mu_ held
    span.epoch = stats.epoch;
    span.start_us = start_us;
    span.stage_ms = stats.build_ms;
    span.freeze_ms = stats.freeze_ms;
    span.artifact_ms = stats.artifact_ms;
    span.commit_ms = stats.commit_ms;
    if (!refused) {
      double attributed = stats.build_ms + stats.freeze_ms +
                          stats.artifact_ms + stats.commit_ms;
      span.swap_ms = stats.wall_ms > attributed ? stats.wall_ms - attributed
                                                : 0;
    }
    span.total_ms = stats.wall_ms;
    span.facts_added = stats.facts_added;
    span.facts_deleted = stats.facts_deleted;
    span.relations_touched = stats.relations_touched;
    span.relations_merged = stats.relations_merged;
    span.rows_compacted = stats.rows_compacted;
    span.refused = refused;
    publish_recorder_.Record(span);
  };
  // Build the successor: shared relations, extended symbol space. Only the
  // facts of `delta` cost anything; readers keep serving `base` untouched.
  std::unique_ptr<Database> next = Database::BeginDelta(base);
  size_t symbols_before = next->symbols().size();
  for (const PendingFact& f : delta) {
    // Staged facts are unvalidated client input: a schema violation must
    // reject the fact, not abort the serving process inside GetOrCreate.
    const Relation* existing = next->Find(f.pred);
    if (existing != nullptr && existing->arity() != f.args.size()) {
      ++stats.facts_rejected;
      continue;
    }
    if (f.is_delete) {
      // DeleteFact probes before copy-on-write and never interns, so a
      // retraction of an absent fact costs nothing and layers nothing.
      if (next->DeleteFact(f.pred, f.args)) {
        ++stats.facts_deleted;
      } else {
        ++stats.facts_delete_missing;
      }
      continue;
    }
    if (existing != nullptr) {
      // Duplicate probe before AddFact: resolving through Find (never
      // interning) keeps an already-present fact from triggering the
      // copy-on-write — a duplicate-only publish must not layer, flatten,
      // or re-index anything. A constant the chain has never seen means
      // the tuple is certainly new.
      Tuple t;
      bool resolvable = true;
      for (const std::string& arg : f.args) {
        auto id = next->symbols().Find(arg);
        if (!id) {
          resolvable = false;
          break;
        }
        t.push_back(*id);
      }
      if (resolvable && existing->Contains(t)) {
        ++stats.facts_duplicate;
        continue;
      }
    }
    if (next->AddFact(f.pred, f.args)) {
      ++stats.facts_added;
    } else {
      ++stats.facts_duplicate;
    }
  }
  next->PruneEmptyDeltas();
  stats.new_symbols = next->symbols().size() - symbols_before;
  // Compaction is read off the new layers' bases: a flattened layer is
  // standalone (it copied the predecessor's live rows), a layer over
  // merged layers sits on a base the predecessor never had (which holds
  // exactly the rows the merge copied).
  for (const std::string& name : next->relation_names()) {
    if (next->SharesWithBase(name)) continue;
    ++stats.relations_touched;
    const Relation* rel = next->Find(name);
    const Relation* prev = base->Find(name);
    if (prev == nullptr) continue;  // created by this publish
    if (rel->base() == nullptr) {
      ++stats.relations_flattened;
      stats.rows_compacted += prev->live_size();
    } else if (rel->base().get() != prev) {
      ++stats.relations_merged;
      stats.rows_compacted += rel->base()->local_size();
    }
  }
  const SymbolTable& symbols = next->symbols();
  if (&symbols != &base->symbols()) {  // not pruned: it interned something
    if (symbols.base() == nullptr) {
      stats.rows_compacted += symbols_before;
    } else if (symbols.base().get() != &base->symbols()) {
      stats.rows_compacted += symbols.base()->local_size();
    }
  }
  auto t1 = std::chrono::steady_clock::now();
  stats.build_ms = MsBetween(t0, t1);

  // Incremental re-freeze: index work happens only on the delta layers
  // (indexed_upto catch-up), never on shared base storage.
  next->Freeze();
  auto t2 = std::chrono::steady_clock::now();
  stats.freeze_ms = MsBetween(t1, t2);
  stats.epoch = next->epoch();

  // Artifact refresh rides the epoch: the successor's shared evaluation
  // state is derived from the predecessor's in O(delta) (reuse by pointer /
  // chained extension; see EvalArtifacts::BuildFor) and attached before the
  // tip swap, so no reader ever sees an epoch without its artifacts.
  if (builder) {
    next->AttachArtifact(builder(*next, base->artifact()));
  }
  auto t3 = std::chrono::steady_clock::now();
  stats.artifact_ms = MsBetween(t2, t3);

  // Durability point: the commit record must be on stable storage *before*
  // the tip swap — once a reader can see the epoch, a crash must recover
  // it. A refused commit aborts the publish: the staged batch goes back to
  // the front of the pending queue (facts staged meanwhile stay behind it,
  // preserving staging order) and the serving tip does not move.
  if (sink != nullptr) {
    Status st = sink->Commit(next->epoch());
    stats.commit_ms = MsBetween(t3, std::chrono::steady_clock::now());
    if (!st.ok()) {
      std::lock_guard<std::mutex> lock(mu_);
      pending_.insert(pending_.begin(),
                      std::make_move_iterator(delta.begin()),
                      std::make_move_iterator(delta.end()));
      LiveObs::Get().refused->Inc();
      LiveObs::Get().pending->Set(static_cast<int64_t>(pending_.size()));
      stats.status = std::move(st);
      stats.wall_ms = MsBetween(t0, std::chrono::steady_clock::now());
      record_span(/*refused=*/true);
      return stats;
    }
  }

  std::shared_ptr<const Database> tip(std::move(next));
  {
    std::lock_guard<std::mutex> lock(mu_);
    tip_ = tip;
  }
  // Post-swap hooks. Both run outside mu_ so a checkpoint's file I/O or a
  // cache sweep never blocks staging or Acquire; publish_mu_ still
  // serializes them against the next publish. The listener runs first:
  // invalidation promptness is a serving-correctness nicety (lookups
  // self-validate regardless), checkpointing is pure background policy.
  if (listener) listener(*tip);
  if (sink != nullptr) sink->Published(*tip);
  stats.wall_ms = MsBetween(t0, std::chrono::steady_clock::now());
  LiveObs& o = LiveObs::Get();
  o.publishes->Inc();
  o.facts_added->Inc(stats.facts_added);
  o.facts_deleted->Inc(stats.facts_deleted);
  o.facts_duplicate->Inc(stats.facts_duplicate);
  o.facts_rejected->Inc(stats.facts_rejected);
  o.compacted_rows->Inc(stats.rows_compacted);
  o.publish_ms->Observe(stats.wall_ms);
  o.epoch->Set(static_cast<int64_t>(stats.epoch));
  record_span(/*refused=*/false);
  return stats;
}

}  // namespace binchain
