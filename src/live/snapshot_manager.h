// Live-update subsystem: epoch-based snapshot lifecycle over the frozen
// storage the query service reads.
//
// PR 2 made concurrent serving sound by freezing the database once; this
// layer turns that one-shot freeze into a continuous loop. A
// SnapshotManager owns a chain of versioned immutable database epochs plus
// a mutable batch of pending fact insertions (the delta). Publish() merges
// the delta into a successor snapshot built with Database::BeginDelta —
// unchanged relations are shared by pointer, touched relations get a delta
// layer whose Freeze() indexes only the new rows (`indexed_upto`
// catch-up), and the symbol table is extended, never re-interned — then
// atomically swaps the successor in as the serving tip. In-flight queries
// keep the shared_ptr epoch handle they acquired and finish on their old
// epoch; new queries land on the new one. Publish cost is therefore
// O(delta), not O(database): chain compaction (storage/chain_compaction.h)
// merges small delta layers into size-tiered ones, copying each row
// O(log) times, and rewrites a root only by the doubling rule, amortized
// O(1) per row; PublishStats reports what each publish copied.
//
// Thread safety: AddFact/PendingFacts/Acquire/epoch may be called from any
// thread, concurrently with queries and with Publish. Publish itself is
// internally serialized (concurrent calls queue up).
#ifndef BINCHAIN_LIVE_SNAPSHOT_MANAGER_H_
#define BINCHAIN_LIVE_SNAPSHOT_MANAGER_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/trace.h"
#include "storage/database.h"
#include "util/status.h"

namespace binchain {

/// What one Publish() did, for operators and the live benchmark.
///
/// Scope note: these are *per-call* results. The cumulative versions of the
/// fact counters, the publish-latency distribution, and the serving-epoch
/// gauge now live in the process-wide metrics registry (obs/metrics.h, the
/// `binchain_live_*` family) — prefer the registry for monitoring; keep
/// using this struct for the return-value contract of a single publish
/// (status, per-phase timings, relation-level touch counts).
struct PublishStats {
  uint64_t epoch = 0;             // epoch id that became the serving tip
  uint64_t facts_added = 0;       // new tuples inserted into the successor
  uint64_t facts_duplicate = 0;   // staged facts already present
  uint64_t facts_rejected = 0;    // arity mismatch with the existing schema
  uint64_t facts_deleted = 0;     // tombstones placed by staged retractions
  uint64_t facts_delete_missing = 0;  // retractions of absent/dead facts
  uint64_t new_symbols = 0;       // fresh spellings interned by the delta
  uint64_t relations_touched = 0;    // relations that got a delta layer
  uint64_t relations_flattened = 0;  // of those, rewritten as a new root
  uint64_t relations_merged = 0;  // of those, chained onto merged layers
  /// Write amplification of this publish: rows and spellings copied by
  /// size-tiered merges and doubling-rule flattens (relations and the
  /// symbol table). Not counted: the added facts themselves.
  uint64_t rows_compacted = 0;
  double build_ms = 0;   // BeginDelta + inserts + prune
  double freeze_ms = 0;  // incremental index work on the delta layers
  /// Artifact-builder hook time (epoch-shared memo refresh). O(delta) by
  /// contract: untouched entries are re-shared by pointer, touched ones are
  /// invalidated or chained and rebuilt lazily off the publish path.
  double artifact_ms = 0;
  /// Durability-sink commit time (WAL commit record + fsync). Zero without
  /// a sink.
  double commit_ms = 0;
  double wall_ms = 0;    // total, including the tip swap
  /// Non-OK when the durability sink refused the commit: the tip did NOT
  /// swap, the staged batch was re-queued, and the epoch id was not
  /// consumed. In-memory managers always report OK.
  Status status = Status::Ok();
};

/// Durability hook the epoch publisher drives (implemented by
/// durability::Wal; an abstract interface here so the live layer stays
/// below durability). Calls arrive in a strict order per batch: zero or
/// more Stage* (as facts are staged, under the manager's staging lock,
/// matching the in-memory staging order), then — inside Publish, after the
/// successor froze but *before* the tip swap — exactly one Commit. A
/// non-OK Commit aborts the publish: no swap, batch re-queued. Published
/// fires after the swap (checkpoint policy lives behind it); Sealed fires
/// once when the genesis becomes the first serving epoch.
class DurabilitySink {
 public:
  virtual ~DurabilitySink() = default;
  virtual Status StageAdd(const std::string& pred,
                          const std::vector<std::string>& args) = 0;
  virtual Status StageDelete(const std::string& pred,
                             const std::vector<std::string>& args) = 0;
  virtual Status Commit(uint64_t epoch) = 0;
  virtual void Published(const Database& tip) = 0;
  virtual void Sealed(const Database& genesis) = 0;
};

/// Owns the epoch chain and the pending delta. Constructed around an open
/// (unfrozen) genesis database; once the initial facts and program
/// preparation are done, Seal() freezes the genesis as the first served
/// epoch. From then on the database contents only advance through
/// AddFact + Publish.
class SnapshotManager {
 public:
  explicit SnapshotManager(std::unique_ptr<Database> genesis);
  SnapshotManager(const SnapshotManager&) = delete;
  SnapshotManager& operator=(const SnapshotManager&) = delete;

  /// Mutable access to the genesis database for initial loading and
  /// program preparation (symbol interning). Aborts once sealed.
  Database* genesis();

  /// Builds an epoch's derived-artifact set right after it froze, before it
  /// becomes the serving tip. `epoch` is the freshly frozen database;
  /// `prev` is the predecessor epoch's artifact set (nullptr for the
  /// genesis), enabling O(delta) refresh by reuse. Runs on the sealing /
  /// publishing thread, never concurrently with itself.
  using ArtifactBuilder =
      std::function<std::shared_ptr<const SnapshotArtifact>(
          const Database& epoch,
          const std::shared_ptr<const SnapshotArtifact>& prev)>;

  /// Installs the hook Seal() and every Publish() invoke. Set it before
  /// Seal() so the genesis epoch carries artifacts too; one builder per
  /// manager (the query service installs its eval-layer builder at
  /// construction).
  void SetArtifactBuilder(ArtifactBuilder builder);

  /// Post-swap notification: invoked by every successful Publish() with
  /// the new serving tip, after the swap, off the manager's locks (the
  /// next publish still serializes behind it). One listener per manager —
  /// the query service hangs its answer-cache invalidation sweep here, the
  /// same layering move as SetArtifactBuilder (live/ cannot depend on the
  /// cache layer). The listener must not call back into Publish().
  using PublishListener = std::function<void(const Database& tip)>;
  void SetPublishListener(PublishListener listener);

  /// Freezes the genesis database and publishes it as the first serving
  /// epoch. Idempotent.
  void Seal();
  bool sealed() const;

  /// Installs the write-ahead durability sink (borrowed; must outlive the
  /// manager or be detached with nullptr). Set it before Seal() so the
  /// genesis checkpoint is written; attach it after a recovery replay so
  /// replayed batches are not re-logged.
  void SetDurabilitySink(DurabilitySink* sink);

  /// Stages one fact for the next Publish(). Constants are carried as
  /// strings and interned during Publish (into the successor epoch's
  /// symbol layer), so staging never touches serving state. With a
  /// durability sink the op is appended to the WAL before it is visible in
  /// PendingFacts() — log order always covers staging order.
  void AddFact(std::string pred, std::vector<std::string> args);
  /// Stages one retraction (tombstone) for the next Publish(). Retracting
  /// an absent fact is a no-op counted in PublishStats.
  void DeleteFact(std::string pred, std::vector<std::string> args);
  size_t PendingFacts() const;

  /// Merges every staged fact into a successor snapshot, freezes it
  /// (incremental: only delta layers and layers merged under them get index
  /// work), and atomically makes it the serving tip. Runs concurrently with
  /// queries; epochs already handed out stay valid and immutable. Only a
  /// relation that changes gets a delta layer, and only a new spelling
  /// gives the symbol table one; each chain is compacted just before its
  /// new layer goes on top. An empty or duplicate-only delta still bumps
  /// the epoch id but re-shares all storage: it layers, merges, flattens
  /// and re-indexes nothing.
  PublishStats Publish();

  /// The current serving epoch. The returned handle pins the snapshot (and
  /// exactly the storage layers it reads) for as long as the caller keeps
  /// it; queries evaluated against it are unaffected by later publishes.
  std::shared_ptr<const Database> Acquire() const;

  /// Epoch id of the current serving tip.
  uint64_t epoch() const;

  /// Ring of recent publish-pipeline spans (stage → freeze → artifact →
  /// commit → swap per-phase wall times), refused publishes included —
  /// the publish-side twin of the service's query flight recorder.
  /// Surfaced by /debug/epochs and /debug/trace on the admin plane.
  const obs::PublishRecorder& publish_recorder() const {
    return publish_recorder_;
  }

 private:
  mutable std::mutex mu_;  // guards tip_, pending_, genesis_/sealed state
  std::mutex publish_mu_;  // serializes Publish pipelines
  std::unique_ptr<Database> genesis_;         // until sealed
  std::shared_ptr<const Database> tip_;       // after sealing
  /// The genesis snapshot, pinned for the manager's lifetime so raw
  /// pointers handed out pre-seal (e.g. QueryService::database()) stay
  /// valid after the serving tip moves on.
  std::shared_ptr<const Database> genesis_keeper_;
  struct PendingFact {
    std::string pred;
    std::vector<std::string> args;
    bool is_delete = false;
  };
  /// Staging tail shared by AddFact/DeleteFact: logs to the sink (in
  /// staging order, under mu_), then stages in memory.
  void Stage(PendingFact f);
  std::vector<PendingFact> pending_;
  ArtifactBuilder artifact_builder_;  // guarded by mu_
  PublishListener publish_listener_;  // guarded by mu_
  DurabilitySink* sink_ = nullptr;    // guarded by mu_; borrowed
  obs::PublishRecorder publish_recorder_;  // internally synchronized
  uint64_t next_publish_id_ = 0;           // guarded by publish_mu_
};

}  // namespace binchain

#endif  // BINCHAIN_LIVE_SNAPSHOT_MANAGER_H_
